"""Build a bijective block rule whose single left-to-right sweep realizes a
given cellular automaton.

The construction needs f left-closing with |Psi_{3m}| dividing q^{3m} at the
smallest strong left-closing radius m.  Writing n = 3m and N = q^n / |Psi_n|,
the words of length n are put in bijection with (stair, multiplicity) pairs,
and the block rule of length n + 1 maps

    pi((av, bw), k) . c   to   b . pi((vc, wd), k),   d = f_loc(a v c),

so each application consumes the next input cell c on the right and emits the
finished output cell b on the left, keeping a stair of partially rewritten
cells in between.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import (IntegrityError, ep_equal, random_ep_config, word_index,
                   word_of_index)
from .ca import LocalRule, apply_ep, to_radius_form
from .blockrule import BlockRule, representation_eval
from .closing import _radius_form
from .stairs import SliderVerdict, StairSet, slider_exists


class NotSliderError(ValueError):
    """Synthesis precondition failed; carries the slider verdict."""

    def __init__(self, verdict: SliderVerdict):
        if verdict.left_closing:
            detail = f"lambda = {verdict.lam} has violating primes " \
                     f"{list(verdict.violating_primes)}"
        else:
            detail = "rule is not left-closing"
        super().__init__(f"no slider realizes this rule: {detail}")
        self.verdict = verdict


@dataclass(frozen=True)
class StairIndex:
    """Lexicographic listing of Psi_n with the word bijection pi.

    pi((v, w), k) = word_of_index(idx(v, w) * N + (k - 1)) for k in 1..N,
    which is a bijection onto S^n because N * |Psi_n| = q^n.
    """

    stairs: StairSet
    listing: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    N: int
    _index: dict = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return 3 * self.stairs.m

    @property
    def cardinality(self) -> int:
        return len(self.listing)

    def __contains__(self, pair) -> bool:
        return pair in self._index

    def pi(self, pair, k: int) -> tuple[int, ...]:
        if not 1 <= k <= self.N:
            raise ValueError(f"multiplicity {k} outside 1..{self.N}")
        return word_of_index(self._index[pair] * self.N + (k - 1),
                             self.n, self.stairs.q)

    def decode(self, word: tuple[int, ...]):
        """Inverse of pi: word of length n -> ((v, w), k)."""
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} is not n = {self.n}")
        idx, rem = divmod(word_index(word, self.stairs.q), self.N)
        return self.listing[idx], rem + 1

    def manifest(self) -> dict:
        return synthesis_manifest(self.stairs)


def synthesis_manifest(stairs: StairSet) -> dict:
    """How the rule synthesized from a slider's stairs numbers its words."""
    n = 3 * stairs.m
    return {"n": n, "N": stairs.q ** n // stairs.cardinality,
            "psi": stairs.cardinality, "pi": "lex-interleave-v1"}


def stair_index(f: LocalRule,
                verdict: SliderVerdict | None = None) -> StairIndex:
    """Stair listing for synthesis from f's slider verdict (computed when
    not passed); raises NotSliderError when f has none."""
    verdict = slider_exists(f) if verdict is None else verdict
    if not verdict:
        raise NotSliderError(verdict)
    # v and w have equal lengths, so this sorts by v + w
    listing = tuple(sorted(verdict.stairs.pairs))
    index = {pair: i for i, pair in enumerate(listing)}
    return StairIndex(verdict.stairs, listing,
                      f.q ** (3 * verdict.m) // len(listing), index)


def synthesize(f: LocalRule,
               verdict: SliderVerdict | None = None) -> BlockRule:
    """Bijective block rule of length 3m + 1 sweeping f left to right;
    `verdict` is `slider_exists(f)` when the caller holds it."""
    index = stair_index(f, verdict)
    q, m, n, N = index.stairs.q, index.stairs.m, index.n, index.N
    g = to_radius_form(_radius_form(f)[0], m)
    table: list[int | None] = [None] * q ** (n + 1)
    for av, bw in index.listing:
        a, v, b, w = av[0], av[1:], bw[0], bw[1:]
        base_in = index._index[(av, bw)] * N
        for c in range(q):
            d = g(av + (c,))
            target = (v + (c,), w + (d,))
            if target not in index:
                raise IntegrityError(f"constructed pair {target} is no stair")
            base_out = b * q ** n + index._index[target] * N
            for k in range(N):
                slot = (base_in + k) * q + c
                if table[slot] is not None:
                    raise IntegrityError("block rule table slot assigned twice")
                table[slot] = base_out + k
    rule = BlockRule(q, n + 1, tuple(table))
    if not rule.is_bijective():
        raise IntegrityError("synthesized block rule is not a permutation")
    return rule


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    samples: int
    counterexample: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_slider(chi: BlockRule, f: LocalRule, samples: int = 100,
                  seed: int = 0) -> VerifyResult:
    """Sampling check that chi's sweeps realize f.

    Draws random eventually periodic configurations and anchors, evaluates
    the two limit sweeps, and compares the forward result against f applied
    to the backward one.  Deterministic for a given seed.
    """
    if chi.q != f.q:
        raise ValueError("alphabet mismatch")
    if not chi.is_bijective():
        raise ValueError("candidate block rule is not bijective")
    rng = random.Random(seed)
    for trial in range(samples):
        x = random_ep_config(rng, chi.q)
        i = rng.randrange(-3, 4)
        y, z = representation_eval(chi, x, i)
        if not ep_equal(z, apply_ep(f, y)):
            return VerifyResult(False, trial + 1, (x, i, y, z))
    return VerifyResult(True, samples)
