"""The argument guards of the public entry points.

Each guard turns a call that would compute nonsense into a ValueError
that names the fault; none of them is reached through the command line.
"""

from fractions import Fraction

import pytest

from casweep.blockrule import (BlockRule, builtin_block_rule, sweep_range,
                               sweep_right_limit, sweeper_eval)
from casweep.ca import apply_ep, builtin_rule, refine, to_radius_form
from casweep.core import (EpConfig, ep_unzip, ep_zip, prime_factors, vp,
                          word_of_index)
from casweep.hierarchy import (Decomposition, DirectedSlider, Direction,
                               verify_decomposition)
from casweep.mealy import MealyAutomaton
from casweep.stairs import enumerate_stairs
from casweep.synthesis import verify_slider
from casweep.zautomata import ZAutomaton, intersect, is_slider_rule_for, member

ZEROS = EpConfig(2, (0,), (), 0, (0,))
TERNARY = EpConfig(3, (0,), (), 0, (0,))
SWAP = builtin_block_rule("swap")
CA102 = builtin_rule("ca102")
SIX = builtin_rule("sigma2_x_sigma3inv")


def no_words(q: int) -> ZAutomaton:
    return ZAutomaton(q, 1, range(1), ((),), (), ())


GUARDS = [
    # radius 1: stairs need m >= 1
    ("stairs-below-radius", lambda: enumerate_stairs(builtin_rule("ca102"), 0),
     "below rule radius"),
    ("mealy-table-length", lambda: MealyAutomaton(2, 1, (0, 1, 0)),
     "q\\^\\(2n\\) entries"),
    ("zip-alphabets", lambda: ep_zip(ZEROS, EpConfig(3, (0,), (), 0, (0,))),
     "alphabet mismatch in zip"),
    ("unzip-non-square", lambda: ep_unzip(EpConfig(3, (0,), (), 0, (0,))),
     "not a product of two equal factors"),
    ("vp-non-prime", lambda: vp(Fraction(3, 2), 4), "4 is not prime"),
    ("vp-zero", lambda: vp(Fraction(0), 2), "valuation of zero"),
    ("prime-factors-zero", lambda: prime_factors(0), "positive integer"),
    ("word-index-range", lambda: word_of_index(8, 3, 2), "out of range"),
    ("sweep-range-inverted",
     lambda: sweep_range(builtin_block_rule("swap"), ZEROS, 3, 2),
     "inverted sweep range"),
    ("unknown-rule", lambda: builtin_rule("nope"), "unknown built-in rule"),
    ("unknown-block-rule", lambda: builtin_block_rule("nope"),
     "unknown built-in block rule"),
    ("sweep-range-alphabets", lambda: sweep_range(SWAP, TERNARY, 0, 1),
     "alphabet mismatch"),
    ("sweep-right-limit-alphabets",
     lambda: sweep_right_limit(SWAP, TERNARY, 0), "alphabet mismatch"),
    ("apply-ep-alphabets", lambda: apply_ep(CA102, TERNARY),
     "alphabet mismatch"),
    ("verify-slider-alphabets", lambda: verify_slider(SWAP, SIX),
     "alphabet mismatch"),
    # a check of no draw would read as "verified"
    ("verify-slider-samples",
     lambda: verify_slider(SWAP, CA102, samples=-2),
     "samples must be at least 1"),
    ("verify-decomposition-samples",
     lambda: verify_decomposition(Decomposition(
         (DirectedSlider(SWAP, Direction.LEFT_TO_RIGHT),), CA102), samples=0),
     "samples must be at least 1"),
    ("slider-check-alphabets", lambda: is_slider_rule_for(SWAP, SIX),
     "alphabet mismatch"),
    ("intersect-alphabets", lambda: intersect(no_words(2), no_words(3)),
     "alphabet mismatch"),
    ("member-alphabet", lambda: member(no_words(2), TERNARY),
     "word alphabet does not match the label space"),
    ("refine-narrower", lambda: refine(CA102, 0, 1),
     "must contain the current neighborhood"),
    ("radius-form-below", lambda: to_radius_form(CA102, 0),
     "radius 0 below the rule's natural radius 1"),
    ("local-rule-window", lambda: CA102((0, 1, 0)),
     "window length 3, expected 2"),
    ("block-rule-window", lambda: SWAP((0,)), "block length 1, expected 2"),
]


@pytest.mark.parametrize("call,message", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sweep_outcome_truth_is_convergence():
    squash = BlockRule(2, 2, (0, 0, 3, 3))
    converging = sweeper_eval(squash, ZEROS)
    diverging = sweeper_eval(squash, EpConfig(2, (0, 1), (), 0, (0, 1)))
    assert converging.converges and not diverging.converges
    for outcome in (converging, diverging):
        assert bool(outcome) is outcome.converges
