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

from collections import namedtuple
from fractions import Fraction

from .core import (IntegrityError, all_words, check_power_cap,
                   prime_factors, vp)
from .ca import LocalRule, minimize_neighborhood, to_radius_form
from .closing import ClosingVerdict, NotClosingError, left_closing_decide

# Default cap on the q^(4m) stair codes one enumeration may produce: the
# bundled base-six rule needs 6^8 at m = 2.
MAX_STAIR_BOUND = 1 << 24


def check_stair_cap(q: int, m: int, cap: int | None) -> None:
    """Refuse the stair enumeration of length 3m over the cap before any
    work: it may produce q^(4m) codes."""
    check_power_cap(q, 4 * m, cap, f"stair bound {q}^{4 * m}")


def enumerate_stairs(f: LocalRule, m: int,
                     cap: int = MAX_STAIR_BOUND) -> frozenset[int]:
    """Exact stair set of length 3m, as the codes word_index(v + w) =
    v * q^(2m) + w of its pairs (v, w) of 2m-words.

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
    return frozenset(codes())


def lambda_value(f: LocalRule) -> Fraction:
    """The invariant lambda of a left-closing rule.

    Read from `slider_exists` and checked at the next radius: lambda is
    stable across strong radii iff |Psi_{3m+3}| = q^3 |Psi_{3m}|, and a
    mismatch means a bug in this library, not a property of the rule.  The
    self-check enumerates q^(4m+4) stair codes under the default cap, so it
    raises ResourceCapError on some rules whose lambda `slider_exists`
    reads: on the bundled base-six rule it needs 6^12, where
    `slider_exists` reads 3/2 from 6^8.
    """
    verdict = slider_exists(f)
    if not verdict.left_closing:
        raise NotClosingError(verdict.left_closing)
    second = len(enumerate_stairs(f, verdict.m + 1))
    if second != f.q ** 3 * verdict.psi_cardinality:
        raise IntegrityError(
            f"lambda not stable across radii: {verdict.psi_cardinality} "
            f"stairs at m = {verdict.m}, {second} at m + 1")
    return verdict.lam


class SliderVerdict(namedtuple("SliderVerdict",
                               "exists left_closing m psi_cardinality lam "
                               "violating_primes stairs shift_offset")):
    """The analysis of one rule, which every later step reads: at the
    smallest strong radius m, |Psi_{3m}|, lambda and the stair codes of
    `enumerate_stairs`.  These and the shift offset are None when the rule
    is not left-closing.  The repr leaves out the stair codes."""

    __slots__ = ()

    def __repr__(self) -> str:
        shown = (f"{name}={value!r}" for name, value in zip(self._fields, self)
                 if name != "stairs")
        return f"SliderVerdict({', '.join(shown)})"

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
    m = verdict.strong_radius
    codes = enumerate_stairs(f, m, cap=cap)
    lam = Fraction(len(codes), f.q ** (3 * m))
    bad = tuple(prime_factors(lam.numerator))
    k = 0
    for p in bad:
        vq = vp(Fraction(f.q), p)
        if vq == 0:
            raise IntegrityError(
                f"prime {p} divides the stair count but not the alphabet")
        k = max(k, -(-vp(lam, p) // vq))
    return SliderVerdict(not bad, verdict, m, len(codes), lam, bad, codes, k)
