"""All 256 elementary cellular automata, end to end.

Rule n reads cells i-1, i, i+1 and writes bit k of n, where k is the value
of that neighbourhood read as a binary number (Wolfram numbering).  The
census below pins the verdicts: which rules close on each side, which are
sliders, and that every downstream answer (lambda, shift offset,
synthesis, decomposition) agrees with the one slider verdict per rule.
"""

import pytest

from casweep.ca import LocalRule, apply_ep, mirror, shift_compose
from casweep.closing import left_closing_decide, right_closing_decide
from casweep.core import ep_equal
from casweep.hierarchy import decompose_biclosing, verify_decomposition
from casweep.stairs import lambda_value, slider_exists
from casweep.synthesis import NotSliderError, synthesize
from casweep.zautomata import is_slider_rule_for

LEFT_CLOSING = frozenset({
    15, 30, 45, 51, 60, 75, 85, 90, 102, 105, 120, 135, 150, 153, 165, 170,
    180, 195, 204, 210, 225, 240})
BICLOSING = frozenset({
    15, 51, 60, 85, 90, 102, 105, 150, 153, 165, 170, 195, 204, 240})
SLIDERS = frozenset({51, 85, 102, 153, 170, 204})


def eca(n: int) -> LocalRule:
    return LocalRule(2, -1, 3, tuple((n >> k) & 1 for k in range(8)))


def test_census_sizes():
    assert len(LEFT_CLOSING) == 22
    assert len(BICLOSING) == 14 and BICLOSING <= LEFT_CLOSING
    assert SLIDERS <= BICLOSING


def check_witness(f, verdict):
    x1, x2 = verdict.witness
    assert not ep_equal(x1, x2)
    assert ep_equal(apply_ep(f, x1), apply_ep(f, x2))


@pytest.mark.parametrize("n", range(256))
def test_eca_verdicts(n):
    f = eca(n)
    verdict = slider_exists(f)
    left, right = verdict.left_closing, right_closing_decide(f)
    assert bool(left) == (n in LEFT_CLOSING)
    assert (bool(left) and bool(right)) == (n in BICLOSING)
    assert bool(verdict) == (n in SLIDERS)

    # the sides swap under the mirror image
    g = mirror(f)
    assert left_closing_decide(g).closed == right.closed
    assert right_closing_decide(g).closed == left.closed
    for side in (left, right):
        if not side:
            check_witness(f, side)

    if left:
        k = verdict.shift_offset
        assert lambda_value(f) == verdict.lam
        assert slider_exists(shift_compose(f, 1)).lam == verdict.lam / 2
        assert slider_exists(shift_compose(f, k))
        if k > 0:
            assert not slider_exists(shift_compose(f, k - 1))
        assert slider_exists(f).shift_offset == k
    else:
        assert verdict.shift_offset is None and verdict.stairs is None

    if n in SLIDERS:
        assert is_slider_rule_for(synthesize(f), f)
    else:
        with pytest.raises(NotSliderError):
            synthesize(f)


@pytest.mark.parametrize("n", sorted(BICLOSING))
def test_eca_decomposition(n):
    f = eca(n)
    d = decompose_biclosing(f)
    assert d.shift_offset == slider_exists(f).shift_offset
    assert verify_decomposition(d, samples=20, seed=n)


def test_each_synthesized_slider_realizes_its_own_eca_alone():
    """The census gate of the exact check: the synthesized rule of each of
    the 6 ECA sliders, checked against all 256 ECAs (1,536 checks), is a
    slider rule for its own ECA only."""
    rules = [eca(n) for n in range(256)]
    for n in sorted(SLIDERS):
        chi = synthesize(rules[n])
        assert [k for k, f in enumerate(rules)
                if is_slider_rule_for(chi, f)] == [n]
