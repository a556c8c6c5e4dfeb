"""Value semantics of the package's frozen record types.

Each record is an immutable value: equal fields give equal instances with
equal hashes, one changed field gives an unequal instance, a field cannot
be assigned, and the repr lists the fields by name (`SliderVerdict` leaves
out its stair codes, which can number q^(4m)).
"""

from fractions import Fraction

import pytest

from casweep.blockrule import BlockRule, SweepOutcome
from casweep.ca import LocalRule
from casweep.closing import ClosingVerdict
from casweep.core import EpConfig
from casweep.hierarchy import Decomposition, DirectedSlider, Direction
from casweep.mealy import MealyAutomaton
from casweep.stairs import SliderVerdict
from casweep.synthesis import VerifyResult
from casweep.zautomata import ZAutomaton

X = "EpConfig(q=2, left_period=(0,), center=(1,), center_start=0, right_period=(0,))"
CHI = "BlockRule(q=2, block_length=1, table=(1, 0))"
F = "LocalRule(q=2, anchor=0, width=1, table=(1, 0))"
CV = "ClosingVerdict(side='left', closed=True, strong_radius=1, witness=None)"
STAGE = f"DirectedSlider(rule={CHI}, direction=<Direction.LEFT_TO_RIGHT: 'LR'>)"


def x(start=0):
    return EpConfig(2, (0,), (1,), start, (0,))


def chi(table=(1, 0)):
    return BlockRule(2, 1, table)


def f(table=(1, 0)):
    return LocalRule(2, 0, 1, table)


def cv(radius=1):
    return ClosingVerdict("left", True, radius, None)


def stage(direction=Direction.LEFT_TO_RIGHT):
    return DirectedSlider(chi(), direction)


def slider_verdict(shift_offset=0):
    return SliderVerdict(True, cv(), 1, 8, Fraction(1), (), frozenset({0, 1}),
                         shift_offset)


# (build an instance, build it with one field changed, pinned repr)
RECORDS = {
    "EpConfig": (x, lambda: x(1), X),
    "LocalRule": (f, lambda: f((0, 1)), F),
    "ClosingVerdict": (cv, lambda: cv(2), CV),
    "SliderVerdict": (
        slider_verdict, lambda: slider_verdict(1),
        f"SliderVerdict(exists=True, left_closing={CV}, m=1, "
        "psi_cardinality=8, lam=Fraction(1, 1), violating_primes=(), "
        "shift_offset=0)"),
    "VerifyResult": (
        lambda: VerifyResult(True, 100), lambda: VerifyResult(True, 99),
        "VerifyResult(ok=True, samples=100, counterexample=None, "
        "sweeper_agreement=True)"),
    "BlockRule": (chi, lambda: chi((0, 1)), CHI),
    "SweepOutcome": (lambda: SweepOutcome(x()), lambda: SweepOutcome(x(), x()),
                     f"SweepOutcome(limit={X}, second=None)"),
    "DirectedSlider": (stage, lambda: stage(Direction.RIGHT_TO_LEFT), STAGE),
    "Decomposition": (
        lambda: Decomposition([stage()], f()),
        lambda: Decomposition([stage()], f(), 1),
        f"Decomposition(stages=({STAGE},), claimed_ca={F}, "
        "shift_offset=None)"),
    "MealyAutomaton": (
        lambda: MealyAutomaton(2, 1, (0, 1, 1, 0)),
        lambda: MealyAutomaton(2, 1, (1, 1, 1, 0)),
        "MealyAutomaton(q=2, n=1, next_table=(0, 1, 1, 0))"),
    "ZAutomaton": (
        lambda: ZAutomaton(2, 1, (0,), (((0, 0),),), (0,), (0,)),
        lambda: ZAutomaton(2, 1, (0,), (((1, 0),),), (0,), (0,)),
        "ZAutomaton(q=2, arity=1, states=(0,), succ=(((0, 0),),), "
        "initial=(0,), final=(0,))"),
}


@pytest.mark.parametrize("make,changed,pinned", RECORDS.values(),
                         ids=list(RECORDS))
def test_records_are_frozen_values(make, changed, pinned):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != changed() and changed() != a
    first = pinned[pinned.index("(") + 1:pinned.index("=")]  # a field name
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    assert a == b
    assert repr(a) == pinned
