"""In-place block rules and exact limit sweeps."""

import random

import pytest

from casweep import blockrule
from casweep.blockrule import (BUILTIN_BLOCK_RULES, BlockRule,
                               builtin_block_rule, identity_block,
                               representation_eval, reverse_block,
                               sweep_range, sweep_left_limit,
                               sweep_right_limit)
from casweep.ca import apply_ep, builtin_rule
from casweep.core import EpConfig, ResourceCapError, ep_equal, random_ep_config

from oracles import count_representations, ep_splice, tuple_sweep_range


def random_permutation_rule(rng, q, m):
    table = list(range(q**m))
    rng.shuffle(table)
    return BlockRule(q, m, tuple(table))


def random_block_rule(rng, q, m):
    size = q**m
    return BlockRule(q, m, tuple(rng.randrange(size) for _ in range(size)))


def test_builtin_block_rules():
    for name in BUILTIN_BLOCK_RULES:
        rule = builtin_block_rule(name)
        assert rule.is_bijective()
    swap = builtin_block_rule("swap")
    assert swap((0, 1)) == (1, 0)
    assert swap((1, 1)) == (1, 1)
    nc = builtin_block_rule("not_closed")
    assert nc.q == 4 and nc.block_length == 2
    assert nc((2, 0)) == (0, 1)
    assert nc((0, 1)) == (2, 0)


def test_inverse():
    rng = random.Random(1)
    for m in (1, 2, 3):
        rule = random_permutation_rule(rng, 2, m)
        inv = rule.inverse()
        for k in range(2**m):
            assert inv.table[rule.table[k]] == k
    with pytest.raises(ValueError):
        BlockRule(2, 1, (0, 0)).inverse()


def test_reverse_block():
    rng = random.Random(2)
    rule = random_block_rule(rng, 3, 2)
    rev = reverse_block(rule)
    for a in range(3):
        for b in range(3):
            assert rev((a, b)) == tuple(reversed(rule((b, a))))
    assert reverse_block(rev) == rule


def test_mirror_is_built_once_per_rule(monkeypatch):
    built = []
    real = blockrule.reverse_block

    def counting(rule):
        built.append(rule)
        return real(rule)

    monkeypatch.setattr(blockrule, "reverse_block", counting)
    rng = random.Random(3)
    rule = random_permutation_rule(rng, 2, 3)
    for _ in range(200):
        representation_eval(rule, random_ep_config(rng, 2), rng.randrange(-3, 4))
    assert len(built) <= 1


def test_derived_rules_leave_the_value_alone():
    rng = random.Random(4)
    rule = random_permutation_rule(rng, 3, 2)
    twin = BlockRule(rule.q, rule.block_length, rule.table)
    before = (hash(rule), repr(rule), rule.to_json())
    inv = rule.inverse()
    representation_eval(rule, random_ep_config(rng, 3), 0)
    sweep_left_limit(rule, random_ep_config(rng, 3), 1)
    assert rule.inverse() is inv
    assert rule == twin and twin == rule
    assert (hash(rule), repr(rule), rule.to_json()) == before
    assert BlockRule.from_json(rule.to_json()) == rule


def test_representation_needs_bijective_rule():
    squash = BlockRule(2, 2, (0, 0, 3, 3))
    x = EpConfig(2, (0, 1), (), 0, (0, 1))
    for _ in range(2):
        with pytest.raises(ValueError):
            representation_eval(squash, x, 0)


def test_apply_at():
    swap = builtin_block_rule("swap")
    x = EpConfig(2, (0,), (1, 0), 0, (0,))
    y = sweep_range(swap, x, 0, 1)
    assert [y.cell(i) for i in range(-1, 3)] == [0, 0, 1, 0]
    # tails untouched
    y2 = sweep_range(swap, x, -3, -2)
    assert ep_equal(y2, x)  # swap of (0, 0) is a fixed point


@pytest.mark.parametrize("seed", range(4))
def test_sweep_range_matches_sequential(seed):
    rng = random.Random(10 + seed)
    q = rng.choice((2, 3))
    m = rng.randrange(1, 4)
    rule = random_block_rule(rng, q, m)
    x = random_ep_config(rng, q)
    i = rng.randrange(-4, 2)
    j = i + rng.randrange(0, 6)
    y = x
    for p in range(i, j):
        y = sweep_range(rule, y, p, p + 1)
    assert ep_equal(sweep_range(rule, x, i, j), y)


def test_sweep_range_matches_the_tuple_oracle():
    rng = random.Random(15)
    for _ in range(400):
        q = rng.choice((2, 3))
        rule = random_block_rule(rng, q, rng.randrange(1, 5))
        x = random_ep_config(rng, q, max_period=4, max_center=5, span=4)
        i = rng.randrange(-8, 9)
        j = i + rng.randrange(0, 12)
        assert sweep_range(rule, x, i, j) == tuple_sweep_range(rule, x, i, j)


@pytest.mark.parametrize("seed", range(8))
def test_sweep_right_limit_matches_long_finite_sweep(seed):
    """Cells left of the frontier are final, so a long finite sweep agrees."""
    rng = random.Random(20 + seed)
    q = rng.choice((2, 3))
    m = rng.randrange(1, 4)
    rule = random_block_rule(rng, q, m)
    x = random_ep_config(rng, q)
    i = rng.randrange(-3, 3)
    steps = 40
    lim = sweep_right_limit(rule, x, i)
    fin = sweep_range(rule, x, i, i + steps)
    for p in range(i - 8, i + steps - m + 1):
        assert lim.cell(p) == fin.cell(p)
    # untouched region below the anchor
    for p in range(i - 8, i):
        assert lim.cell(p) == x.cell(p)


@pytest.mark.parametrize("seed", range(8))
def test_sweep_left_limit_matches_long_finite_sweep(seed):
    rng = random.Random(40 + seed)
    q = rng.choice((2, 3))
    m = rng.randrange(1, 4)
    rule = random_block_rule(rng, q, m)
    x = random_ep_config(rng, q)
    i = rng.randrange(-3, 3)
    steps = 40
    lim = sweep_left_limit(rule, x, i)
    fin = x
    for p in reversed(range(i - steps, i)):
        fin = sweep_range(rule, fin, p, p + 1)
    for p in range(i - steps + m - 1, i + 8):
        assert lim.cell(p) == fin.cell(p)
    for p in range(i + m - 1, i + m + 8):
        assert lim.cell(p) == x.cell(p)


def test_swap_forward_sweep_is_left_shift():
    swap = builtin_block_rule("swap")
    sig = builtin_rule("shift")
    rng = random.Random(5)
    for _ in range(5):
        x = random_ep_config(rng, 2)
        i = rng.randrange(-3, 3)
        z = sweep_right_limit(swap, x, i)
        zz = apply_ep(sig, x)
        for p in range(i, i + 12):
            assert z.cell(p) == zz.cell(p)
        for p in range(i - 6, i):
            assert z.cell(p) == x.cell(p)


@pytest.mark.parametrize("seed", range(6))
def test_representation_recovers_tails(seed):
    """y matches the seed from i+m-1 rightward, z matches it below i."""
    rng = random.Random(60 + seed)
    q = 2
    m = rng.randrange(1, 4)
    rule = random_permutation_rule(rng, q, m)
    x = random_ep_config(rng, q)
    i = rng.randrange(-3, 3)
    y, z = representation_eval(rule, x, i)
    for p in range(i + m - 1, i + m + 10):
        assert y.cell(p) == x.cell(p)
    for p in range(i - 10, i):
        assert z.cell(p) == x.cell(p)


def test_count_representations_swap_shift():
    """The swap rule realizes the left shift with exactly two seeds per pair."""
    swap = builtin_block_rule("swap")
    sig = builtin_rule("shift")
    rng = random.Random(9)
    for _ in range(3):
        y = random_ep_config(rng, 2)
        for i in (-2, 0, 3):
            assert count_representations(swap, sig, y, i) == 2


def test_count_representations_identity():
    rule = identity_block(2, 1)
    ident = builtin_rule("identity")
    y = EpConfig(2, (0,), (1, 0, 1), 0, (1,))
    assert count_representations(rule, ident, y, 0) == 1


def test_count_representations_cap():
    rule = identity_block(2, 3)
    ident = builtin_rule("identity")
    y = EpConfig(2, (0,), (), 0, (0,))
    with pytest.raises(ResourceCapError):
        count_representations(rule, ident, y, 0, cap=4)


def test_block_json_roundtrip():
    rule = builtin_block_rule("xor_block")
    blob = rule.to_json()
    assert set(blob) == {"alphabet", "block_length", "table"}
    assert BlockRule.from_json(blob) == rule
