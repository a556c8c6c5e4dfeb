"""Slider synthesis, the stair index, and sampling verification."""

import random

import pytest

from casweep.blockrule import (BlockRule, builtin_block_rule,
                               representation_eval)
from casweep.ca import apply_ep, builtin_rule
from casweep.closing import left_closing_decide
from casweep.core import (IntegrityError, ep_equal, random_ep_config,
                          word_of_index)
from casweep.stairs import enumerate_stairs, slider_exists
from casweep.synthesis import (NotSliderError, stair_index, synthesis_manifest,
                               synthesize, verify_slider)
from oracles import count_representations, unique_predecessor


@pytest.mark.parametrize("name", ("identity", "ca102", "shift"))
def test_synthesis_roundtrip(name):
    f = builtin_rule(name)
    chi = synthesize(f)
    assert chi.block_length == 7
    assert chi.is_bijective()
    assert verify_slider(chi, f, samples=200, seed=11)


def test_stair_index_is_bijection():
    f = builtin_rule("shift")
    listing = stair_index(f)
    assert listing == tuple(sorted(slider_exists(f).stairs.codes))
    N, n = 2, 6
    assert len(listing) == 32 and N * len(listing) == 2 ** n
    # ascending codes are the lexicographic order of the (v, w) pairs
    pairs = [(w[:4], w[4:]) for w in (word_of_index(c, 8, 2) for c in listing)]
    assert pairs == sorted(slider_exists(f).stairs.pairs)
    numbers = sorted(k * N + j for k in range(len(listing)) for j in range(N))
    assert numbers == list(range(2 ** n))


def test_stair_index_manifest():
    assert synthesis_manifest(slider_exists(builtin_rule("ca102")).stairs) == {
        "n": 6, "N": 1, "psi": 64, "pi": "lex-interleave-v1"}
    assert synthesis_manifest(slider_exists(builtin_rule("shift")).stairs) == {
        "n": 6, "N": 2, "psi": 32, "pi": "lex-interleave-v1"}


def test_synthesis_is_deterministic():
    first = synthesize(builtin_rule("shift"))
    second = synthesize(builtin_rule("shift"))
    assert first.table == second.table
    assert first.table[:8] == (0, 4, 1, 5, 64, 68, 65, 69)


def test_multiplicity_matches_representation_count():
    rng = random.Random(3)
    for name, expected in (("shift", 2), ("ca102", 1)):
        f = builtin_rule(name)
        chi = synthesize(f)
        for _ in range(3):
            y = random_ep_config(rng, 2)
            i = rng.randrange(-2, 3)
            assert count_representations(chi, f, y, i) == expected


def test_shift_slider_agrees_with_swap():
    f = builtin_rule("shift")
    chi = synthesize(f)
    swap = builtin_block_rule("swap")
    rng = random.Random(17)
    for _ in range(100):
        x = random_ep_config(rng, 2)
        i = rng.randrange(-3, 4)
        for rule in (chi, swap):
            y, z = representation_eval(rule, x, i)
            assert ep_equal(z, apply_ep(f, y))


def test_unique_predecessor_identity_forced():
    f = builtin_rule("identity")
    for vc, wd in enumerate_stairs(f, 2).pairs:
        for b in range(2):
            assert unique_predecessor(f, 2, vc, wd, b) == wd[1]


def test_unique_predecessor_ca102_total():
    f = builtin_rule("ca102")
    pairs = enumerate_stairs(f, 2).pairs
    assert len(pairs) == 64
    for vc, wd in pairs:
        for b in range(2):
            a = unique_predecessor(f, 2, vc, wd, b)
            assert a in (0, 1)


def test_unique_predecessor_detects_weak_radius():
    f = builtin_rule("and_rule")
    failures = 0
    for vc, wd in enumerate_stairs(f, 2).pairs:
        for b in range(2):
            try:
                unique_predecessor(f, 2, vc, wd, b)
            except IntegrityError:
                failures += 1
    assert failures == 16


@pytest.mark.parametrize("name,reason", (
    ("xor_left", (2,)), ("shift_inv", (2,)),
    ("sigma2_x_sigma3inv", (3,)), ("and_rule", None)))
def test_synthesize_rejects_non_sliders(name, reason):
    with pytest.raises(NotSliderError) as info:
        synthesize(builtin_rule(name))
    verdict = info.value.verdict
    if reason is None:
        assert not verdict.left_closing
    else:
        assert verdict.violating_primes == reason


def test_verify_bundled_rules():
    assert verify_slider(builtin_block_rule("swap"), builtin_rule("shift"),
                         samples=100, seed=5)
    assert verify_slider(builtin_block_rule("xor_block"),
                         builtin_rule("ca102"), samples=100, seed=5)
    assert verify_slider(builtin_block_rule("identity_block"),
                         builtin_rule("identity"), samples=100, seed=5)
    wrong = verify_slider(builtin_block_rule("swap"), builtin_rule("identity"),
                          samples=100, seed=5)
    assert not wrong
    x, i, y, z = wrong.counterexample
    assert not ep_equal(z, apply_ep(builtin_rule("identity"), y))


def test_verify_requires_bijective_rule():
    squash = BlockRule(2, 2, (0, 0, 3, 3))
    with pytest.raises(ValueError):
        verify_slider(squash, builtin_rule("identity"))


def test_realized_rules_are_left_closing():
    for name in ("shift", "ca102", "identity"):
        assert left_closing_decide(builtin_rule(name))
