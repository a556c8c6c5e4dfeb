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

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (IntegrityError, all_words, check_power_cap,
                   prime_factors, vp, word_of_index)
from .ca import LocalRule, minimize_neighborhood, to_radius_form
from .closing import ClosingVerdict, NotClosingError, left_closing_decide

# Default cap on the q^(4m) stair codes one enumeration may produce: the
# bundled base-six rule needs 6^8 at m = 2.
MAX_STAIR_BOUND = 1 << 24


@dataclass(frozen=True)
class StairSet:
    """The stair set of one length; the pair (v, w) is kept as the code
    word_index(v + w) and decoded only on request."""

    q: int
    m: int
    cardinality: int
    lam: Fraction
    codes: frozenset[int] = field(repr=False)

    @property
    def pairs(self) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
        two_m = 2 * self.m
        words = (word_of_index(c, 2 * two_m, self.q) for c in self.codes)
        return frozenset((w[:two_m], w[two_m:]) for w in words)


def check_stair_cap(q: int, m: int, cap: int | None) -> None:
    """Refuse the stair enumeration of length 3m over the cap before any
    work: it may produce q^(4m) codes."""
    check_power_cap(q, 4 * m, cap, f"stair bound {q}^{4 * m}")


def enumerate_stairs(f: LocalRule, m: int,
                     cap: int = MAX_STAIR_BOUND) -> StairSet:
    """Exact stair set of length 3m.

    Scans all q^(3m+r) assignments of the cells the image window can see,
    packing each resulting (v, w) pair into its code; r = max(radius, 1) of
    the minimized rule, whose q^(2r+1)-entry table is built only after the
    stair cap is checked.  The radius is at least 1 even for a width-1 rule,
    because the closing-analysis constructions require a positive radius.
    """
    g = minimize_neighborhood(f)
    r = max(g.radius, 1)
    if m < r:
        raise ValueError(f"stair parameter m={m} below rule radius {r}")
    check_stair_cap(g.q, m, cap)
    q, table = g.q, to_radius_form(g, r).table
    width = 2 * r + 1
    mod = q ** (width - 1)
    two_m = 2 * m
    pack = q ** two_m

    def codes():
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
            yield v_idx * pack + w_idx

    # built straight from the generator: no second copy of a large set
    found = frozenset(codes())
    return StairSet(q, m, len(found), Fraction(len(found), q ** (3 * m)), found)


def lambda_value(f: LocalRule) -> Fraction:
    """The invariant lambda of a left-closing rule.

    Read from `slider_exists` and recomputed at the next radius as a
    stability self-check; a mismatch means a bug in this library, not a
    property of the rule.  The self-check enumerates q^(4m+4) stair codes
    under the default cap, so it raises ResourceCapError on some rules whose
    lambda `slider_exists` reads: on the bundled base-six rule it needs
    6^12, where `slider_exists` reads 3/2 from 6^8.
    """
    verdict = slider_exists(f)
    if not verdict.left_closing:
        raise NotClosingError(verdict.left_closing)
    second = enumerate_stairs(f, verdict.m + 1)
    if verdict.lam != second.lam:
        raise IntegrityError(f"lambda not stable across radii: {verdict.lam} "
                             f"at m = {verdict.m}, {second.lam} at m + 1")
    return verdict.lam


@dataclass(frozen=True)
class SliderVerdict:
    """The analysis of one rule, which every later step reads; the stairs
    and the shift offset are None when the rule is not left-closing."""

    exists: bool
    left_closing: ClosingVerdict
    m: int | None
    psi_cardinality: int | None
    lam: Fraction | None
    violating_primes: tuple[int, ...]
    stairs: StairSet | None
    shift_offset: int | None

    def __bool__(self) -> bool:
        return self.exists

    def to_json(self) -> dict:
        if not self.left_closing:
            return {"slider_exists": False, "left_closing": False,
                    "witness": self.left_closing.to_json()["witness"]}
        return {"psi_cardinality": self.psi_cardinality,
                "m": self.m,
                "lambda": {"num": self.lam.numerator,
                           "den": self.lam.denominator},
                "violating_primes": list(self.violating_primes),
                "slider_exists": self.exists}


def slider_exists(f: LocalRule, cap: int = MAX_STAIR_BOUND,
                  left: ClosingVerdict | None = None) -> SliderVerdict:
    """Decide whether f is realizable as a left-to-right slider; `left` is
    `left_closing_decide(f)` when the caller holds it.

    True iff f is left-closing and |Psi_{3m}| divides q^{3m} at the smallest
    strong left-closing radius m.  The violating primes are exactly the
    prime factors left in the numerator of lambda.  The shift offset is the
    smallest k >= 0 making sigma^k o f a slider: composing with the shift
    divides lambda by q, so each violating prime p needs
    v_p(lambda) - k v_p(q) to reach zero.
    """
    verdict = left_closing_decide(f) if left is None else left
    if not verdict:
        return SliderVerdict(False, verdict, None, None, None, (), None, None)
    stairs = enumerate_stairs(f, verdict.strong_radius, cap=cap)
    bad = tuple(prime_factors(stairs.lam.numerator))
    k = 0
    for p in bad:
        vq = vp(Fraction(f.q), p)
        if vq == 0:
            raise IntegrityError(
                f"prime {p} divides the stair count but not the alphabet")
        k = max(k, -(-vp(stairs.lam, p) // vq))
    return SliderVerdict(not bad, verdict, stairs.m, stairs.cardinality,
                         stairs.lam, bad, stairs, k)
