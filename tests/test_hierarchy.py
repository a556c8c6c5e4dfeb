"""Shift offsets and two-stage decompositions of bi-closing automata."""

import random
from fractions import Fraction

import pytest

from casweep.core import EpConfig, ep_equal, random_ep_config
from casweep.ca import (LocalRule, apply_ep, builtin_rule, mirror,
                        shift_compose, shift_rule)
from casweep.blockrule import BlockRule, identity_block
from casweep.closing import (NotClosingError, left_closing_decide,
                             right_closing_decide)
from casweep.stairs import lambda_value, slider_exists
from casweep.synthesis import synthesize
from casweep.hierarchy import (Decomposition, DirectedSlider, Direction,
                               DivergentSweepError,
                               decompose_biclosing, verify_decomposition)
from oracles import compose

NONLINEAR = LocalRule(2, 0, 3, tuple(((w >> 2) & 1) ^ (((w >> 1) & 1) & (w & 1))
                                     for w in range(8)))


@pytest.mark.parametrize("name,k", [
    ("ca102", 0), ("shift", 0), ("identity", 0), ("xor_left", 1),
    ("shift_inv", 1), ("sigma2_x_sigma3inv", 1),
])
def test_shift_offset_values(name, k):
    assert slider_exists(builtin_rule(name)).shift_offset == k


@pytest.mark.parametrize("name", ["xor_left", "shift_inv"])
def test_offset_is_the_realizability_threshold(name):
    f = builtin_rule(name)
    k = slider_exists(f).shift_offset
    assert k > 0
    assert not slider_exists(shift_compose(f, k - 1))
    assert slider_exists(shift_compose(f, k))
    assert slider_exists(shift_compose(f, k + 1))


@pytest.mark.parametrize("name", ["shift", "ca102", "identity"])
def test_biclosing_decomposition_verifies(name):
    f = builtin_rule(name)
    d = decompose_biclosing(f)
    assert [s.direction for s in d.stages] == [Direction.RIGHT_TO_LEFT,
                                               Direction.LEFT_TO_RIGHT]
    assert verify_decomposition(d, samples=100, seed=4)


def test_zero_offset_uses_identity_first_stage():
    d = decompose_biclosing(builtin_rule("ca102"))
    assert d.stages[0].rule == identity_block(2, 1)


def test_positive_offset_stages_realize_the_shift_split():
    f = builtin_rule("xor_left")
    d = decompose_biclosing(f)
    assert verify_decomposition(d, samples=60, seed=7)
    first, second = d.stages
    rng = random.Random(11)
    for _ in range(15):
        y = random_ep_config(rng, 2)
        assert ep_equal(first(y), apply_ep(shift_rule(2, -1), y))
        assert ep_equal(second(y), apply_ep(shift_compose(f, 1), y))


def test_not_biclosing_is_rejected_with_witness():
    with pytest.raises(NotClosingError) as info:
        decompose_biclosing(builtin_rule("and_rule"))
    v = info.value.verdict
    assert not v.closed and v.witness is not None


def test_swapped_noncommuting_stages_fail():
    ca102 = builtin_rule("ca102")
    a = DirectedSlider(synthesize(ca102), Direction.LEFT_TO_RIGHT)
    b = DirectedSlider(synthesize(NONLINEAR), Direction.RIGHT_TO_LEFT)
    claimed = compose(mirror(NONLINEAR), ca102)
    assert verify_decomposition(Decomposition((a, b), claimed), 30, 2)
    assert not verify_decomposition(Decomposition((b, a), claimed), 30, 2)


def test_single_stage_decomposition_of_known_slider():
    f = builtin_rule("ca102")
    stage = DirectedSlider(synthesize(f), Direction.LEFT_TO_RIGHT)
    assert verify_decomposition(Decomposition((stage,), f), 50, 3)


def test_wrong_claim_fails_verification():
    d = decompose_biclosing(builtin_rule("shift"))
    wrong = Decomposition(d.stages, builtin_rule("identity"))
    assert not verify_decomposition(wrong, 20, 5)


def test_a_diverging_stage_fails_verification():
    # (a, b) -> (a, a) copies the far-left cell onward: the sweeps diverge
    # on every left period that is not constant, as on seed 0's first draw
    squash = DirectedSlider(BlockRule(2, 2, (0, 0, 3, 3)),
                            Direction.LEFT_TO_RIGHT)
    with pytest.raises(DivergentSweepError):
        squash(EpConfig(2, (1, 0), (1, 1), 3, (1, 1)))
    d = Decomposition((squash,), builtin_rule("identity"))
    assert verify_decomposition(d, 1, 0) is False


def test_other_stage_errors_are_not_a_verdict(monkeypatch):
    ternary = DirectedSlider(identity_block(3, 1), Direction.LEFT_TO_RIGHT)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        verify_decomposition(Decomposition((ternary,),
                                           builtin_rule("identity")), 5, 0)

    def fault(chi, y):
        raise ValueError("symbol 5 out of range for alphabet of size 2")

    monkeypatch.setattr("casweep.hierarchy.sweeper_eval", fault)
    d = decompose_biclosing(builtin_rule("ca102"))
    with pytest.raises(ValueError, match="symbol 5"):
        verify_decomposition(d, 5, 0)


def test_stage_directions_must_alternate():
    stage = DirectedSlider(identity_block(2, 1), Direction.LEFT_TO_RIGHT)
    with pytest.raises(ValueError):
        Decomposition((stage, stage), builtin_rule("identity"))
    with pytest.raises(ValueError):
        Decomposition((), builtin_rule("identity"))


def test_right_to_left_is_the_mirror_sweep():
    stage = DirectedSlider(synthesize(builtin_rule("ca102")),
                           Direction.RIGHT_TO_LEFT)
    g = mirror(builtin_rule("ca102"))
    rng = random.Random(13)
    for _ in range(15):
        y = random_ep_config(rng, 2)
        assert ep_equal(stage(y), apply_ep(g, y))


@pytest.mark.parametrize("name", ["shift", "ca102", "identity", "xor_left",
                                  "shift_inv"])
def test_lambda_splits_multiplicatively_across_stages(name):
    f = builtin_rule(name)
    k = slider_exists(f).shift_offset
    assert Fraction(f.q) ** k * lambda_value(shift_compose(f, k)) == \
        lambda_value(f)


@pytest.mark.parametrize("name", ["xor_left", "shift_inv"])
def test_stage_inputs_close_on_their_sweep_side(name):
    f = builtin_rule(name)
    k = slider_exists(f).shift_offset
    assert left_closing_decide(shift_compose(f, k))
    assert right_closing_decide(shift_rule(f.q, -k))
