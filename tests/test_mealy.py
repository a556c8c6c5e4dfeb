"""Mealy transducers, good states, and sweeper limit evaluation."""

import random

import pytest

from casweep.blockrule import BlockRule, builtin_block_rule
from casweep import graph
from casweep.ca import apply_ep, builtin_rule
from casweep.core import (EpConfig, ResourceCapError, all_words, ep_equal,
                          random_ep_config, word_index)
from casweep.mealy import (MealyAutomaton, good_states, mealy_from_block,
                           sweeper_eval)
from casweep.synthesis import synthesize, verify_slider
from oracles import (good_states_by_probe_product,
                     good_states_by_transformations, mealy_delta,
                     mealy_is_bijective)

SQUASH = BlockRule(2, 2, (0, 0, 3, 3))


def test_swap_mealy_formula():
    mm = mealy_from_block(builtin_block_rule("swap"))
    for s0, s1, a0, a1 in all_words(4, 2):
        k = word_index((s0, s1, a0, a1), 2)
        assert (mm.out_table[k], mm.next_table[k]) == \
            (word_index((s1, a0), 2), word_index((s0, a1), 2))
    assert mealy_is_bijective(mm)


def test_identity_mealy_echoes():
    mm = mealy_from_block(builtin_block_rule("identity_block"))
    for s in range(2):
        for a in range(2):
            k = s * mm.size + a
            assert (mm.out_table[k], mm.next_table[k]) == (s, a)


def test_xor_mealy_matches_hand_sweep():
    mm = mealy_from_block(builtin_block_rule("xor_block"))
    for s0, s1, a0, a1 in all_words(4, 2):
        k = word_index((s0, s1, a0, a1), 2)
        assert mm.out_table[k] == word_index((s0 ^ s1, s1 ^ a0), 2)
        assert mm.next_table[k] == word_index((a0, a1), 2)
    assert mealy_is_bijective(mm)


def test_squash_mealy_not_bijective():
    assert not mealy_is_bijective(mealy_from_block(SQUASH))


def test_good_states_all_for_random_bijective_rules():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        perm = list(range(2 ** n))
        rng.shuffle(perm)
        mm = mealy_from_block(BlockRule(2, n, tuple(perm)))
        assert good_states(mm) == set(range(mm.size))


def test_good_states_matches_transformation_reference():
    rng = random.Random(9)
    for _ in range(30):
        tbl = tuple(rng.randrange(4) for _ in range(4))
        mm = mealy_from_block(BlockRule(2, 2, tbl))
        assert good_states(mm) == good_states_by_transformations(mm)
    for name in ("swap", "xor_block", "identity_block", "not_closed"):
        mm = mealy_from_block(builtin_block_rule(name))
        assert good_states(mm) == good_states_by_transformations(mm)


def test_good_states_matches_probe_product():
    """The search by main-run component against the whole product, on
    random block rules, on next tables of several main-run components and
    on a synthesized block-7 rule."""
    rng = random.Random(16)
    machines = []
    for _ in range(150):
        q = rng.choice((2, 3))
        m = rng.randint(1, 3)
        size = q ** m
        if rng.random() < 0.5:
            table = tuple(rng.sample(range(size), size))
        else:
            table = tuple(rng.randrange(size) for _ in range(size))
        machines.append(mealy_from_block(BlockRule(q, m, table)))
    for _ in range(150):
        q, n = rng.choice(((2, 1), (2, 2), (3, 1), (2, 3)))
        size = q ** n
        # a row whose letters all lead above some state cuts the main-run
        # graph into several components
        nxt = []
        for _ in range(size):
            low = rng.randrange(size) if rng.random() < 0.5 else 0
            nxt += [rng.randrange(low, size) for _ in range(size)]
        machines.append(MealyAutomaton(q, n, (0,) * size * size, tuple(nxt)))
    machines.append(mealy_from_block(synthesize(builtin_rule("ca102"))))
    assert machines[-1].size == 128
    partial = split = 0
    for mm in machines:
        good = good_states(mm)
        assert good == good_states_by_probe_product(mm)
        partial += 0 < len(good) < mm.size
        rows = [mm.next_table[c * mm.size:(c + 1) * mm.size]
                for c in range(mm.size)]
        split += len(set(graph.strong_components(rows))) > 1
    assert partial >= 20 and split >= 50


def test_good_states_constant_delta():
    out_t = tuple(0 for _ in range(16))
    nxt_t = tuple(2 for _ in range(16))
    mm = MealyAutomaton(2, 2, out_t, nxt_t)
    assert good_states(mm) == {2}
    assert good_states_by_transformations(mm) == {2}


def test_goodness_is_forward_closed():
    for mm in (mealy_from_block(builtin_block_rule("swap")),
               mealy_from_block(SQUASH),
               MealyAutomaton(2, 2, tuple([0] * 16), tuple([2] * 16))):
        good = good_states(mm)
        for g in good:
            for e in range(mm.size):
                assert mealy_delta(mm, g, e) in good


def test_good_states_resource_caps():
    mm = mealy_from_block(builtin_block_rule("swap"))
    with pytest.raises(ResourceCapError):
        good_states(mm, cap=3)
    with pytest.raises(ResourceCapError):
        good_states_by_transformations(mm, cap=1)


def test_sweeper_xor_block_gives_ca102_image():
    rng = random.Random(8)
    chi = builtin_block_rule("xor_block")
    f = builtin_rule("ca102")
    for _ in range(40):
        y = random_ep_config(rng, 2)
        out = sweeper_eval(chi, y)
        assert out.converges
        assert ep_equal(out.limit, apply_ep(f, y))


def test_sweeper_swap_gives_shift_image():
    rng = random.Random(15)
    chi = builtin_block_rule("swap")
    f = builtin_rule("shift")
    for _ in range(40):
        y = random_ep_config(rng, 2)
        out = sweeper_eval(chi, y)
        assert out.converges and ep_equal(out.limit, apply_ep(f, y))


def test_sweeper_identity_block():
    rng = random.Random(4)
    chi = builtin_block_rule("identity_block")
    for _ in range(10):
        y = random_ep_config(rng, 2)
        assert ep_equal(sweeper_eval(chi, y).limit, y)


def test_sweeper_not_closed_limit_family():
    # 0-tail followed by the (0,1) symbol everywhere sweeps to a flipped
    # boundary one cell further left
    chi = builtin_block_rule("not_closed")
    for n in (2, 5, 9):
        y = EpConfig(4, (0,), (1,) * n, -n, (1,))
        out = sweeper_eval(chi, y)
        assert out.converges
        expected = EpConfig(4, (0,), (), -n - 1, (2,))
        assert ep_equal(out.limit, expected)
        for i in range(-n - 4, n + 4):
            assert out.limit.cell(i) == (0 if i < -n - 1 else 2)


def test_sweeper_not_closed_fixed_point():
    chi = builtin_block_rule("not_closed")
    ones = EpConfig(4, (1,), (), 0, (1,))
    out = sweeper_eval(chi, ones)
    assert out.converges and ep_equal(out.limit, ones)


def test_sweeper_not_closed_discontinuity():
    # images of the family do not approach the image of its limit point
    chi = builtin_block_rule("not_closed")
    ones = EpConfig(4, (1,), (), 0, (1,))
    image_of_limit = sweeper_eval(chi, ones).limit
    for n in (2, 5, 9):
        y = EpConfig(4, (0,), (1,) * n, -n, (1,))
        image = sweeper_eval(chi, y).limit
        assert image.cell(0) == 2 != image_of_limit.cell(0)


def test_sweeper_divergence():
    y = EpConfig(2, (0, 1), (), 0, (0, 1))
    out = sweeper_eval(SQUASH, y)
    assert not out.converges
    assert not ep_equal(out.limit, out.second)
    zero = EpConfig(2, (0,), (), 0, (0,))
    one = EpConfig(2, (1,), (), 0, (1,))
    got = {ep_equal(out.limit, zero), ep_equal(out.limit, one)}
    assert got == {True, False}
    assert ep_equal(out.second, one) or ep_equal(out.second, zero)


def test_sweeper_on_synthesized_rule():
    f = builtin_rule("shift")
    chi = synthesize(f)
    rng = random.Random(21)
    for _ in range(10):
        y = random_ep_config(rng, 2)
        out = sweeper_eval(chi, y)
        assert out.converges and ep_equal(out.limit, apply_ep(f, y))


def test_slider_sweeper_agree_matched_pairs():
    assert verify_slider(builtin_block_rule("swap"),
                         builtin_rule("shift"), 60, 3).sweeper_agreement
    assert verify_slider(builtin_block_rule("xor_block"),
                         builtin_rule("ca102"), 60, 3).sweeper_agreement
    assert verify_slider(builtin_block_rule("identity_block"),
                         builtin_rule("identity"), 60, 3).sweeper_agreement


def test_slider_sweeper_agree_when_both_fail():
    # both side checks reject the pair on the same samples
    assert verify_slider(builtin_block_rule("swap"),
                         builtin_rule("identity"), 60, 3).sweeper_agreement


def test_slider_sweeper_agree_requires_bijective():
    with pytest.raises(ValueError):
        verify_slider(SQUASH, builtin_rule("identity")).sweeper_agreement


def test_sweep_outcome_json():
    out = sweeper_eval(builtin_block_rule("identity_block"),
                       EpConfig(2, (0,), (1,), 0, (0,)))
    blob = out.to_json()
    assert blob["converges"] is True and "limit" in blob
    bad = sweeper_eval(SQUASH, EpConfig(2, (0, 1), (), 0, (0, 1))).to_json()
    assert bad["converges"] is False and len(bad["limits"]) == 2
