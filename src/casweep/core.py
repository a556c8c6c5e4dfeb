"""Core data model: finite alphabets, words, eventually periodic configurations.

An alphabet is the integer range 0..q-1 for some q >= 2 and is passed around
as the plain integer q.  A word is a tuple of symbols.  A configuration is a
bi-infinite sequence of symbols; the only configurations this package ever
materializes are eventually periodic ones, represented by `EpConfig`: a left
periodic tail, a finite center anchored at an absolute coordinate, and a
right periodic tail.  Every exact algorithm in the package reduces questions
about arbitrary configurations to questions about these.

Rational bookkeeping (densities and their p-adic valuations) is done with
`fractions.Fraction`, which already keeps values in lowest terms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


class ResourceCapError(RuntimeError):
    """An enumeration or construction would exceed its configured cap."""


# Default cap on the predicted states of an automaton or product: far above
# the 10,240 states of the `automata --vs` intersection of a synthesized q=2
# rule and the 8,505 live slider states of a block-7 q=3 rule.
MAX_AUTOMATON_STATES = 1 << 22


def check_cap(size: int, cap: int | None, what: str) -> None:
    """Raise ResourceCapError when a size is over the cap (None: no cap);
    enumerations pass their predicted size before they allocate anything."""
    if cap is not None and size > cap:
        raise ResourceCapError(f"{what}: {size} is over the cap {cap}")


def check_power_cap(q: int, k: int, cap: int | None, what: str,
                    plus: int = 0) -> None:
    """`check_cap` on the size plus + q^k.  As q >= 2, q^k is over the cap
    whenever k > cap.bit_length(), so then the exponent alone decides and
    the message names the power: a size set by a far anchor is never built
    or printed in full."""
    if cap is not None and k > cap.bit_length():
        size = f"{plus} + {q}^{k}" if plus else f"{q}^{k}"
        raise ResourceCapError(f"{what}: {size} is over the cap {cap}")
    check_cap(plus + q**k, cap, what)


class IntegrityError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def check_alphabet(q: int) -> int:
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"alphabet size must be an integer >= 2, got {q!r}")
    return q


def check_table_size(n: int, q: int, k: int) -> None:
    """Raise ValueError unless a table of n entries has q^k of them.  As
    q >= 2, q^k > n whenever k > n.bit_length(), so then q^k is never
    built and the message names the power."""
    if k > n.bit_length():
        raise ValueError(f"table has {n} entries, expected {q}^{k}")
    if n != q**k:
        raise ValueError(f"table has {n} entries, expected {q**k}")


def check_range(values: tuple[int, ...], n: int, message: str) -> None:
    """Raise ValueError(message.format(v, n)) for the first value v outside
    0..n-1.  min and max screen all values at C speed; only values that
    fail the screen are walked to find the first bad one."""
    if values and (min(values) < 0 or max(values) >= n):
        bad = next(v for v in values if not 0 <= v < n)
        raise ValueError(message.format(bad, n))


def word_index(w: tuple[int, ...], q: int) -> int:
    """Rank of a word among all words of its length, most significant first.

    The encoding is positional base q: ``word_index((1, 0), 2) == 2`` and
    ``word_index((2, 1), 3) == 7``.  Inverse of `word_of_index`.
    """
    i = 0
    for s in w:
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} out of range for alphabet of size {q}")
        i = i * q + s
    return i


def word_of_index(i: int, length: int, q: int) -> tuple[int, ...]:
    """Word of the given length whose `word_index` is i."""
    if not 0 <= i < q**length:
        raise ValueError(f"index {i} out of range for {length} symbols over {q}")
    out = []
    for _ in range(length):
        i, s = divmod(i, q)
        out.append(s)
    return tuple(reversed(out))


def all_words(length: int, q: int):
    """Iterate all words of a length in lexicographic (index) order."""
    return product(range(q), repeat=length)


# ---------------------------------------------------------------------------
# Eventually periodic configurations

EMPTY_TAIL = "periodic tails must be nonempty words"


@dataclass(frozen=True)
class EpConfig:
    """Eventually periodic bi-infinite configuration.

    Cells below `center_start` repeat `left_period`, tiled so that one copy
    ends exactly at `center_start`.  Cells in ``[center_start, center_start +
    len(center))`` come from `center`.  Cells from `center_end` on repeat
    `right_period`, with the first copy starting at `center_end`.

    Instances are not normalized on construction; `normalize` produces a
    normal form and `ep_equal` compares semantically.
    """

    q: int
    left_period: tuple[int, ...]
    center: tuple[int, ...]
    center_start: int
    right_period: tuple[int, ...]

    def __post_init__(self):
        check_alphabet(self.q)
        if not self.left_period or not self.right_period:
            raise ValueError(EMPTY_TAIL)
        left = tuple(self.left_period)
        center = tuple(self.center)
        right = tuple(self.right_period)
        object.__setattr__(self, "left_period", left)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "right_period", right)
        # one check of the joined words names the first bad symbol of the
        # left period, then the center, then the right period
        check_range(left + center + right, self.q,
                    "symbol {} out of range for alphabet of size {}")

    @property
    def center_end(self) -> int:
        return self.center_start + len(self.center)

    def cell(self, i: int) -> int:
        if i < self.center_start:
            return self.left_period[(i - self.center_start) % len(self.left_period)]
        if i < self.center_end:
            return self.center[i - self.center_start]
        return self.right_period[(i - self.center_end) % len(self.right_period)]

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        """Cells at positions lo <= i < hi, as slices of the tiled tails and
        the center."""
        cs = self.center_start
        ce = cs + len(self.center)
        if hi <= lo:
            return ()
        if lo >= ce:
            return _tiled(self.right_period, lo - ce, hi - ce)
        if hi <= cs:
            return _tiled(self.left_period, lo - cs, hi - cs)
        cells = self.center[max(lo, cs) - cs:min(hi, ce) - cs]
        if lo < cs:
            cells = _tiled(self.left_period, lo - cs, 0) + cells
        if hi > ce:
            cells += _tiled(self.right_period, 0, hi - ce)
        return cells

    def reversed(self) -> "EpConfig":
        """Configuration y with y[i] = self[-i]."""
        rev_center = tuple(reversed(self.center))
        return EpConfig(
            self.q,
            tuple(reversed(self.right_period)),
            rev_center,
            1 - self.center_end,
            tuple(reversed(self.left_period)),
        )

    def normalize(self) -> "EpConfig":
        """The normal form of this configuration; see `normal_form`."""
        return normal_form(self.q, self.left_period, self.center,
                           self.center_start, self.right_period)


def normal_form(q: int, left: tuple[int, ...], center: tuple[int, ...],
                start: int, right: tuple[int, ...]) -> EpConfig:
    """Normal form of ``EpConfig(q, left, center, start, right)``, built
    with one checked construction.

    The normal form has the same cells, minimal tail periods and no center
    cell that the adjacent tail tiling would absorb; a fully periodic
    configuration is additionally rotated so that its phase is anchored at
    coordinate 0.  It is idempotent and keeps `ep_equal`.  It is not
    canonical: the center only shrinks inward from where it is given, so
    configurations with the same cells can normalize to different values
    (``EpConfig(2, (0,), (0, 0), -2, (1, 0))`` gives center start -1 and
    right period (0, 1), ``EpConfig(2, (0,), (), 0, (1, 0))`` center start
    0 and right period (1, 0)).  Compare configurations with `ep_equal`.

    Normalizing only slices, rotates and absorbs, so the result holds the
    same set of symbols as the words given, and its construction checks q
    and every symbol.  Empty tails are refused first.
    """
    if not left or not right:
        raise ValueError(EMPTY_TAIL)
    left = _minimal_period(left)
    right = _minimal_period(right)
    n = len(center)
    # absorb center symbols that already match the adjacent tail tiling:
    # center cell k continues the right tiling iff it equals
    # right[(k - n) % len(right)], the left one iff it equals
    # left[k % len(left)]; the center keeps cells lo <= k < hi
    hi = n
    while hi and center[hi - 1] == right[(hi - 1 - n) % len(right)]:
        hi -= 1
    lo = 0
    while lo < hi and center[lo] == left[lo % len(left)]:
        lo += 1
    cs = start + lo
    # rotate each tail to start its tiling at the new center boundary
    left = _tiled(left, lo, lo + len(left))
    right = _tiled(right, hi - n, hi - n + len(right))
    if lo == hi:
        # fully periodic iff both tilings agree on every cell
        period = math.lcm(len(left), len(right))
        lt = _tiled(left, -cs, period - cs)
        if lt == _tiled(right, -cs, period - cs):
            p = _minimal_period(lt)
            return EpConfig(q, p, (), 0, p)
    return EpConfig(q, left, center[lo:hi], cs, right)


def _tiled(period: tuple[int, ...], lo: int, hi: int) -> tuple[int, ...]:
    """period[i % len(period)] for lo <= i < hi (hi >= lo), sliced from
    enough repeated copies."""
    n = len(period)
    start = lo % n
    end = start + hi - lo
    if end <= n:
        return period[start:end]
    return (period * ((end - 1) // n + 1))[start:end]


def _minimal_period(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p)
    for d in range(1, n + 1):
        if n % d == 0 and p == p[:d] * (n // d):
            return p[:d]
    return p


def ep_equal(x: EpConfig, y: EpConfig) -> bool:
    """Exact cell-wise equality of two eventually periodic configurations.

    Both tails are compared over one least common period beyond the last
    center cell on each side; inside that range the cells are compared
    directly, which is sound because both configurations are purely periodic
    there.
    """
    if x.q != y.q:
        return False
    lo = min(x.center_start, y.center_start)
    hi = max(x.center_end, y.center_end)
    lper = math.lcm(len(x.left_period), len(y.left_period))
    rper = math.lcm(len(x.right_period), len(y.right_period))
    return x.window(lo - lper, hi + rper) == y.window(lo - lper, hi + rper)


def ep_zip(y: EpConfig, z: EpConfig) -> EpConfig:
    """Pair two configurations into one over the product alphabet q*q.

    Cell i of the result is ``y[i] * q + z[i]``.  This is how the
    bi-infinite automata consume relations: a pair of configurations becomes
    a single probe word.
    """
    if y.q != z.q:
        raise ValueError("alphabet mismatch in zip")
    q = y.q
    cs = min(y.center_start, z.center_start)
    ce = max(y.center_end, z.center_end)
    lper = math.lcm(len(y.left_period), len(z.left_period))
    rper = math.lcm(len(y.right_period), len(z.right_period))
    cells = lambda lo, hi: tuple(
        y.cell(i) * q + z.cell(i) for i in range(lo, hi))
    return EpConfig(q * q, cells(cs - lper, cs), cells(cs, ce), cs,
                    cells(ce, ce + rper))


def ep_unzip(x: EpConfig) -> tuple[EpConfig, EpConfig]:
    """Inverse of `ep_zip`; x.q must be a perfect square."""
    q = math.isqrt(x.q)
    if q * q != x.q:
        raise ValueError("config alphabet is not a product of two equal factors")
    def part(which):
        pick = lambda s: divmod(s, q)[which]
        return EpConfig(q, tuple(map(pick, x.left_period)),
                        tuple(map(pick, x.center)), x.center_start,
                        tuple(map(pick, x.right_period)))
    return part(0), part(1)


def json_int(value, key: str) -> int:
    """A value read from the JSON field `key`, which must be an integer:
    floats, bools and strings are refused rather than converted."""
    if type(value) is not int:
        raise ValueError(f"field {key!r} must hold integers, got {value!r}")
    return value


def ep_to_json(x: EpConfig) -> dict:
    return {"alphabet": x.q, "left_period": list(x.left_period),
            "center": list(x.center), "center_start": x.center_start,
            "right_period": list(x.right_period)}


def ep_from_json(obj: dict) -> EpConfig:
    try:
        word = lambda key: tuple(json_int(s, key) for s in obj[key])
        return EpConfig(json_int(obj["alphabet"], "alphabet"),
                        word("left_period"), word("center"),
                        json_int(obj["center_start"], "center_start"),
                        word("right_period"))
    except KeyError as e:
        raise ValueError(f"configuration file missing field {e}") from e


def random_ep_config(rng: random.Random, q: int, max_period: int = 3,
                     max_center: int = 4, span: int = 3) -> EpConfig:
    """Seeded random configuration for sampling-based checks."""
    word = lambda n: tuple(rng.randrange(q) for _ in range(n))
    return EpConfig(
        q,
        word(rng.randint(1, max_period)),
        word(rng.randint(0, max_center)),
        rng.randint(-span, span),
        word(rng.randint(1, max_period)),
    )


# ---------------------------------------------------------------------------
# p-adic valuations of rationals

def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("prime_factors expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def vp(r: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational.

    vp(a/b, p) is the exponent of p in a minus the exponent of p in b, so
    ``vp(Fraction(324, 216), 2) == -1`` and ``vp(Fraction(324, 216), 3) == 1``.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r == 0:
        raise ValueError("valuation of zero is undefined")
    def exp_of(n: int) -> int:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return e
    return exp_of(abs(r.numerator)) - exp_of(r.denominator)
