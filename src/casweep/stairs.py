"""Right stairs, the invariant lambda, and slider existence.

A right stair of length 3m for a rule f is a pair (v, w) of 2m-words such
that some configuration carries v on cells [m, 3m) while its image carries
w on [0, 2m).  The set of all stairs fingerprints how much information the
rule moves leftward: its normalized cardinality

    lambda = |Psi_{3m}| / q^{3m}

is independent of m once m is a strong left-closing radius, multiplicative
under composition with shifts, and decides slider existence: a left-closing
rule is realizable as a single left-to-right sweep of a bijective block rule
exactly when no prime appears with positive exponent in lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import graph
from .core import (EpConfig, IntegrityError, ResourceCapError, all_words,
                   ep_to_json, prime_factors, word_index, word_of_index)
from .ca import LocalRule
from .closing import ClosingVerdict, _radius_form, left_closing_decide


class NotLeftClosingError(ValueError):
    """Raised when an operation requires a left-closing rule.

    Carries the closing verdict, whose witness pair demonstrates the
    failure.
    """

    def __init__(self, verdict: ClosingVerdict):
        super().__init__("rule is not left-closing")
        self.verdict = verdict


@dataclass(frozen=True)
class Stair:
    """One stair: v on cells [m, 3m) of a configuration, w on [0, 2m) of
    its image."""

    v: tuple[int, ...]
    w: tuple[int, ...]
    m: int

    def __post_init__(self):
        if len(self.v) != 2 * self.m or len(self.w) != 2 * self.m:
            raise ValueError("stair words must have length 2m")


@dataclass(frozen=True)
class StairSet:
    """The stair set of one length, possibly cardinality-only."""

    m: int
    cardinality: int
    lam: Fraction
    pairs: frozenset[tuple[tuple[int, ...], tuple[int, ...]]] | None

    def __contains__(self, pair) -> bool:
        if self.pairs is None:
            raise ValueError("stair set was enumerated in counting-only mode")
        return pair in self.pairs


def is_stair(f: LocalRule, m: int, v: tuple[int, ...],
             w: tuple[int, ...]) -> bool:
    """Does some configuration carry v on [m, 3m) and image w on [0, 2m)?"""
    g, r = _radius_form(f)
    if m < r:
        raise ValueError(f"stair parameter m={m} below rule radius {r}")
    if len(v) != 2 * m or len(w) != 2 * m:
        raise ValueError("stair words must have length 2m")
    # image cells [m+r, 2m) read only cells of v
    for c in range(m + r, 2 * m):
        if g(v[c - r - m:c + r + 1 - m]) != w[c]:
            return False
    # remaining image cells also read the free cells [-r, m)
    for free in all_words(m + r, g.q):
        x = free + v
        if all(g(x[c:c + 2 * r + 1]) == w[c] for c in range(min(m + r, 2 * m))):
            return True
    return False


def enumerate_stairs(f: LocalRule, m: int, count_only: bool = False,
                     cap: int = 1 << 24) -> StairSet:
    """Exact stair set of length 3m (cardinality only when count_only).

    Scans all q^(3m+r) assignments of the cells the image window can see,
    packing each resulting (v, w) pair into one integer.
    """
    g, r = _radius_form(f)
    if m < r:
        raise ValueError(f"stair parameter m={m} below rule radius {r}")
    q, table = g.q, g.table
    if q ** (4 * m) > cap:
        raise ResourceCapError(
            f"stair bound {q}^{4 * m} exceeds the cap {cap}")
    width = 2 * r + 1
    mod = q ** (width - 1)
    two_m = 2 * m
    pack = q ** two_m
    found: set[int] = set()
    # tuple index k is tape position k - r
    for x in all_words(3 * m + r, q):
        idx = 0
        for c in x[:width]:
            idx = idx * q + c
        w_idx = table[idx]
        for k in range(1, two_m):
            idx = (idx % mod) * q + x[width + k - 1]
            w_idx = w_idx * q + table[idx]
        v_idx = 0
        for c in x[m + r:]:
            v_idx = v_idx * q + c
        found.add(v_idx * pack + w_idx)
    pairs = None
    if not count_only:
        pairs = frozenset((word_of_index(p // pack, two_m, q),
                           word_of_index(p % pack, two_m, q)) for p in found)
    return StairSet(m, len(found), Fraction(len(found), q ** (3 * m)), pairs)


def lambda_value(f: LocalRule) -> Fraction:
    """The invariant lambda of a left-closing rule.

    Computed at the smallest strong left-closing radius and recomputed at
    the next radius as a stability self-check; a mismatch means a bug in
    this library, not a property of the rule.
    """
    verdict = left_closing_decide(f)
    if not verdict:
        raise NotLeftClosingError(verdict)
    m = verdict.strong_radius
    first = enumerate_stairs(f, m, count_only=True)
    second = enumerate_stairs(f, m + 1, count_only=True)
    if first.lam != second.lam:
        raise IntegrityError(
            f"lambda not stable across radii: |Psi_{3 * m}| = "
            f"{first.cardinality} gives {first.lam} but |Psi_{3 * (m + 1)}| = "
            f"{second.cardinality} gives {second.lam}")
    return first.lam


@dataclass(frozen=True)
class SliderVerdict:
    exists: bool
    left_closing: ClosingVerdict
    m: int | None
    psi_cardinality: int | None
    lam: Fraction | None
    violating_primes: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.exists

    def to_json(self) -> dict:
        if not self.left_closing:
            return {"slider_exists": False, "left_closing": False,
                    "witness": [ep_to_json(c)
                                for c in self.left_closing.witness]}
        return {"psi_cardinality": self.psi_cardinality,
                "m": self.m,
                "lambda": {"num": self.lam.numerator,
                           "den": self.lam.denominator},
                "violating_primes": list(self.violating_primes),
                "slider_exists": self.exists}


def slider_exists(f: LocalRule, cap: int = 1 << 24) -> SliderVerdict:
    """Decide whether f is realizable as a left-to-right slider.

    True iff f is left-closing and |Psi_{3m}| divides q^{3m} at the smallest
    strong left-closing radius m.  The violating primes are exactly the
    prime factors left in the numerator of lambda.
    """
    verdict = left_closing_decide(f)
    if not verdict:
        return SliderVerdict(False, verdict, None, None, None, ())
    m = verdict.strong_radius
    stairs = enumerate_stairs(f, m, count_only=True, cap=cap)
    bad = tuple(prime_factors(stairs.lam.numerator))
    return SliderVerdict(not bad, verdict, m, stairs.cardinality, stairs.lam,
                         bad)


# ---------------------------------------------------------------------------
# Stairs in a fixed context

def stairs_connecting(f: LocalRule, m: int, y: EpConfig,
                      z: EpConfig) -> frozenset:
    """Stairs confirmed by configurations with prescribed infinite tails.

    The confirming configuration must equal y on cells [3m, oo) and its
    image must equal z on cells (-oo, 0); only those cells of y and z are
    read.  Since the image window [0, 2m) stops r <= m cells short of 3m,
    the y side never constrains the answer; the z side imposes an infinite
    leftward run, decided per stair by a window DP that must end in a cycle
    of the periodic zone.
    """
    g, r = _radius_form(f)
    if m < r:
        raise ValueError(f"stair parameter m={m} below rule radius {r}")
    if y.q != g.q or z.q != g.q:
        raise ValueError("alphabet mismatch")
    q = g.q
    cs = z.center_start
    period = len(z.left_period)
    # below this cell the z constraint repeats with the left period
    zstart = min(0, cs)

    # Processing the image constraint at cell c consumes the preimage cell
    # c - r; the DP state before that step is the window x[c-r+1 .. c+r].
    # Inside the periodic zone a state survives iff (window, phase) can
    # reach a cycle of the constraint graph, phase = (c - cs) mod period.
    # Node (win, ph) is numbered word_index(win) * period + ph.
    succ: list[list[int]] = [[] for _ in range(q ** (2 * r) * period)]
    for k, win in enumerate(all_words(2 * r, q)):
        for ph in range(period):
            target = z.left_period[ph]
            for a in range(q):
                if g((a,) + win) == target:
                    succ[k * period + ph].append(
                        word_index((a,) + win[:-1], q) * period
                        + (ph - 1) % period)
    alive = graph.on_cycle(succ)
    good = graph.reachable(graph.reverse(succ),
                           (v for v, hit in enumerate(alive) if hit))

    result = []
    for v in all_words(2 * m, q):
        # image cells [m+r, 2m) read only v, so they force a w suffix
        forced = tuple(g(v[c - m - r:c - m + r + 1])
                       for c in range(m + r, 2 * m))
        for w in all_words(2 * m, q):
            if w[m + r:] != forced:
                continue
            states = {v[:2 * r]}
            c = m + r - 1
            while c >= zstart and states:
                target = w[c] if c >= 0 else z.cell(c)
                states = {(a,) + win[:-1] for win in states
                          for a in range(q) if g((a,) + win) == target}
                c -= 1
            if states and any(good[word_index(win, q) * period
                                   + (c - cs) % period] for win in states):
                result.append((v, w))
    return frozenset(result)
