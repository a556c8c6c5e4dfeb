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

It works on stair codes (`SliderVerdict.stairs`): (v, w) is word_index(v + w) =
v * q^(2m) + w.  As v and w both have length 2m, ascending codes list the
pairs lexicographically, which is pi's listing: the stair at position k
names the words k*N .. k*N + N - 1.  The code of (vc, wd) is arithmetic on
that of (av, bw): ((av mod q^(2m-1)) * q + c) * q^(2m) + w * q + d.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .core import (IntegrityError, ep_equal, random_ep_config,
                   translation_class)
from .ca import LocalRule, apply_ep, minimize_neighborhood, to_radius_form
from .blockrule import BlockRule, representation_eval, sweeper_eval
from .stairs import SliderVerdict, slider_exists


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


def synthesis_manifest(q: int, verdict: SliderVerdict) -> dict:
    """How the rule synthesized from a slider's stairs numbers its words."""
    n, psi = 3 * verdict.m, verdict.psi_cardinality
    return {"n": n, "N": q ** n // psi, "psi": psi, "pi": "lex-interleave-v1"}


def stair_index(f: LocalRule,
                verdict: SliderVerdict | None = None) -> tuple[int, ...]:
    """pi's listing: the stair codes of f's slider verdict (computed when
    not passed) in ascending order; raises NotSliderError when f has none."""
    verdict = slider_exists(f) if verdict is None else verdict
    if not verdict:
        raise NotSliderError(verdict)
    return tuple(sorted(verdict.stairs))


def synthesize(f: LocalRule,
               verdict: SliderVerdict | None = None) -> BlockRule:
    """Bijective block rule of length 3m + 1 sweeping f left to right;
    `verdict` is `slider_exists(f)` when the caller holds it."""
    verdict = slider_exists(f) if verdict is None else verdict
    listing = stair_index(f, verdict)
    q, m, n = f.q, verdict.m, 3 * verdict.m
    N = q ** n // len(listing)
    pack, half = q ** (2 * m), q ** (2 * m - 1)
    position = {code: k for k, code in enumerate(listing)}
    g = to_radius_form(minimize_neighborhood(f), m)
    table: list[int | None] = [None] * q ** (n + 1)
    for k_in, code in enumerate(listing):
        av, bw = divmod(code, pack)
        b, w = divmod(bw, half)
        for c in range(q):
            d = g.table[av * q + c]
            target = ((av % half) * q + c) * pack + w * q + d
            if target not in position:
                raise IntegrityError(f"constructed code {target} is no stair")
            base_out = b * q ** n + position[target] * N
            for k in range(N):
                slot = (k_in * N + k) * q + c
                if table[slot] is not None:
                    raise IntegrityError("block rule table slot assigned twice")
                table[slot] = base_out + k
    rule = BlockRule(q, n + 1, tuple(table))
    if not rule.is_bijective():
        raise IntegrityError("synthesized block rule is not a permutation")
    return rule


class VerifyResult(namedtuple("VerifyResult",
                              "ok samples counterexample sweeper_agreement",
                              defaults=(None, True))):
    """`ok`, `samples` and `counterexample` answer the slider check (the
    first failing draw, and how many draws it took); `sweeper_agreement`
    is whether the sweeper check gave the same answer on every draw."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_slider(chi: BlockRule, f: LocalRule, samples: int = 100,
                  seed: int = 0) -> VerifyResult:
    """Sampling check that chi's sweeps realize f, on seeded random draws
    of an eventually periodic x and an anchor i: does the anchored
    representation (y, z) of x satisfy z = f(y), and do the sweeps of x
    (`sweeper_eval`) converge to f(x) on exactly the same draws?  Stops
    once it holds both a counterexample and a disagreement.

    Draws repeat up to translation (416-429 translation classes among
    3,000 draws at q = 2), so each verdict is computed once per class and
    reused: the sweeper verdict per key K of `translation_class`, the
    slider verdict per (K, i - s), where s is the start that
    `translation_class` returns.  Write x_t for x moved t cells to the
    right, x_t[j] = x[j - t].  The reuse is exact:

    - Equal keys mean translates (`translation_class`): two draws with key
      K and starts s, s' have the cells of x and x_t with t = s' - s, and
      i - s = i' - s' means i' = i + t.
    - `apply_ep` commutes with translation: output cell j of f reads the
      cells of x at fixed offsets from j, so f(x_t) = f(x)_t.
    - Sweeps commute with translation: applying chi at position p of x_t
      rewrites the cells that applying it at p - t of x rewrites, moved by
      t.  So the sweep of x_t from anchor a is the sweep of x from a - t,
      moved by t, and so is each limit of such sweeps.  Hence
      representation_eval(chi, x_t, i + t) = (y_t, z_t).  The anchors of
      `sweeper_eval` run over all positions going left, so its
      accumulation points for x_t are those for x, moved by t: it
      converges on both or on neither, to limits moved by t.
    - Verdicts are cell-level: the slider verdict is ep_equal(z, f(y)) and
      the sweeper verdict is convergence and ep_equal(limit, f(x)).  Both
      read x only through its cells, and moving both sides of `ep_equal`
      by t keeps its answer.

    So draws with one key (and one relative anchor) get one verdict.  Only
    the booleans are kept: a key's first draw is never a reuse, so the
    counterexample is the (x, i, y, z) of the first failing draw as drawn,
    and an error raises there.  The memos hold at most one entry per
    distinct draw.  Every draw is still taken from the seeded generator,
    so `samples` counts draws, and it must be at least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if chi.q != f.q:
        raise ValueError("alphabet mismatch")
    if not chi.is_bijective():
        raise ValueError("candidate block rule is not bijective")
    rng = random.Random(seed)
    counterexample, tried, agree = None, samples, True
    slider_seen: dict[tuple[tuple, int], bool] = {}
    sweeper_seen: dict[tuple, bool] = {}
    for trial in range(samples):
        x = random_ep_config(rng, chi.q)
        i = rng.randrange(-3, 4)
        key, s = translation_class(x)
        slider_ok = slider_seen.get((key, i - s))
        if slider_ok is None:
            y, z = representation_eval(chi, x, i)
            slider_ok = slider_seen[key, i - s] = ep_equal(z, apply_ep(f, y))
            if not slider_ok and counterexample is None:
                counterexample, tried = (x, i, y, z), trial + 1
        if agree:
            sweeper_ok = sweeper_seen.get(key)
            if sweeper_ok is None:
                outcome = sweeper_eval(chi, x)
                sweeper_ok = sweeper_seen[key] = (
                    outcome.converges
                    and ep_equal(outcome.limit, apply_ep(f, x)))
            agree = slider_ok == sweeper_ok
        if counterexample is not None and not agree:
            break
    return VerifyResult(counterexample is None, tried, counterexample, agree)
