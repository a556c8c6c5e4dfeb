"""The argument guards of the public entry points.

Each guard turns a call that would compute nonsense into a ValueError
that names the fault; none of them is reached through the command line.
"""

from fractions import Fraction

import pytest

from casweep.blockrule import BlockRule, builtin_block_rule, sweep_range
from casweep.ca import builtin_rule
from casweep.core import (EpConfig, ep_unzip, ep_zip, prime_factors, vp,
                          word_of_index)
from casweep.mealy import MealyAutomaton, sweeper_eval
from casweep.stairs import enumerate_stairs

ZEROS = EpConfig(2, (0,), (), 0, (0,))
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
