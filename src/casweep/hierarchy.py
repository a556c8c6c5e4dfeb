"""Shift offsets and two-stage sweep decompositions.

A left-closing automaton that misses being realizable by one left-to-right
sweep only misses it by a shift: composing with a large enough power of the
shift clears every prime from the numerator of lambda.  Automata closing on
both sides therefore factor into a right-to-left sweep realizing the inverse
shift followed by a left-to-right sweep realizing the shifted automaton.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .core import EpConfig, ep_equal, random_ep_config, translation_class
from .ca import LocalRule, apply_ep, shift_compose, shift_rule
from .blockrule import BlockRule, identity_block, sweeper_eval
from .closing import (NotClosingError, left_closing_decide,
                      right_closing_decide)
from .stairs import slider_exists
from .synthesis import synthesize


class DivergentSweepError(ValueError):
    """Raised by a stage whose sweeps do not converge on its input."""


class Direction(Enum):
    LEFT_TO_RIGHT = "LR"
    RIGHT_TO_LEFT = "RL"


@dataclass(frozen=True)
class DirectedSlider:
    """A block rule swept in a fixed direction.

    Right-to-left application is the mirror image of the only sweep engine
    there is: reverse the tape, sweep left to right, reverse back.
    """

    rule: BlockRule
    direction: Direction

    def __call__(self, y: EpConfig) -> EpConfig:
        flipped = self.direction is Direction.RIGHT_TO_LEFT
        out = sweeper_eval(self.rule, y.reversed() if flipped else y)
        if not out.converges:
            raise DivergentSweepError("sweeps diverge on this input")
        return out.limit.reversed() if flipped else out.limit


@dataclass(frozen=True)
class Decomposition:
    stages: tuple[DirectedSlider, ...]
    claimed_ca: LocalRule
    # the k of decompose_biclosing; None for stages assembled by hand
    shift_offset: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("a decomposition needs at least one stage")
        for a, b in zip(self.stages, self.stages[1:]):
            if a.direction is b.direction:
                raise ValueError("stage directions must alternate")


def decompose_biclosing(f: LocalRule) -> Decomposition:
    """Factor a both-sides-closing automaton into two opposite sweeps.

    With k the shift offset, the stages realize sigma^(-k) (right to left)
    and sigma^k o f (left to right); shifts commute with every cellular
    automaton, so the composite is f itself.  The first stage's rule is
    synthesized from the mirror image sigma^k, whose lambda is 1/q^k.
    Both closing sides are decided before the stairs are counted.
    """
    left = left_closing_decide(f)
    if not left:
        raise NotClosingError(left)
    right = right_closing_decide(f)
    if not right:
        raise NotClosingError(right)
    verdict = slider_exists(f, left=left)
    k = verdict.shift_offset
    if k == 0:
        first = identity_block(f.q, 1)
        second = synthesize(f, verdict)
    else:
        first = synthesize(shift_rule(f.q, k))
        second = synthesize(shift_compose(f, k))
    return Decomposition((DirectedSlider(first, Direction.RIGHT_TO_LEFT),
                          DirectedSlider(second, Direction.LEFT_TO_RIGHT)),
                         f, k)


def verify_decomposition(d: Decomposition, samples: int = 100,
                         seed: int = 0) -> bool:
    """Do the stages, applied in order, reproduce the claimed automaton?

    A stage whose sweeps diverge on a draw is a negative answer; any other
    error, such as stages over another alphabet, propagates.

    A draw whose translation class already passed is skipped: its key
    under `translation_class` is that of a draw that passed, so it is that
    draw moved by some t cells (x_t[j] = x[j - t]).  Every stage commutes
    with that move.  A left-to-right stage is `sweeper_eval`, whose limits
    for x_t are those for x moved by t, with the same convergence (the
    proof is in `synthesis.verify_slider`).  A right-to-left stage
    reverses the tape, sweeps and reverses back; reversal turns a move by
    t into a move by -t and back, so the stage commutes too, and it
    diverges on x_t exactly when it does on x.  The claimed automaton
    commutes by `apply_ep`, and the verdict compares cells with
    `ep_equal`, so the skipped draw passes too.  Only the passed keys are
    kept, at most one per distinct draw.  Every draw is still taken from
    the seeded generator, so `samples` counts draws, and it must be at
    least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    passed: set[tuple] = set()
    for _ in range(samples):
        y = random_ep_config(rng, d.claimed_ca.q)
        key = translation_class(y)[0]
        if key in passed:
            continue
        v = y
        try:
            for stage in d.stages:
                v = stage(v)
        except DivergentSweepError:
            return False
        if not ep_equal(v, apply_ep(d.claimed_ca, y)):
            return False
        passed.add(key)
    return True
