"""Block permutations applied in place, and the sweeps they generate.

A `BlockRule` of length m rewrites the window ``x[i .. i+m)`` in place when
applied at position i.  Sweeping left to right from an anchor i applies the
rule at i, i+1, i+2, ...; each cell is rewritten at most m times and then
never again, so the sweep has a well defined limit configuration.

The sweep is a finite-state transducer whose state is the m-cell window as
one block index below q^m, so the rule's table is its transition table: one
step rewrites the window with the table, emits the leftmost cell (final
from then on) and shifts in the next tape cell, ``out, rest =
divmod(table[w], q**(m-1))`` and ``w = rest * q + incoming``.
`_sweep_cells` is the one loop that runs these steps over concrete cells;
finite sweeps and limit sweeps both use it, and `mealy.mealy_from_block`
applies the same step to every (state, letter prefix) at once.

On an eventually periodic tape, crossing one copy of a period word acts on
the window as a fixed map, the crossing map w -> `_sweep_cells`(rule, w,
word)[1].  `_crossings` iterates it until a window repeats, which is the
one cycle search of the package: the right limit sweep runs it on the
right period rotated to the phase at which the sweep enters the tail, and
the sweeper limits run it on rotations of the left period.

Sweeper limits are the accumulation points of sweeps from anchors pushed
further and further left.  The windows arriving at any reference position
from far-away anchors are the eventual cycle of the crossing map, and each
cycle element extends to one accumulation configuration, decided by the
window it carries to the m cells just left of the center: `_left_parts`
runs the cycle searches on the left tail, `_sweep_right` on the right one,
and `sweeper_eval` assembles the limits.

Right-to-left sweeps are reduced to left-to-right ones by reversing both the
tape and the rule, so there is exactly one sweep engine.  A rule derives its
inverse and its mirror image once, on first use, and keeps them.

A rule also keeps one memo of the sweeps it has run, filled and read in
`_left_parts` only: keyed by the left-period word, the cycle windows, left
segments and arrival windows every anchor residue contributes to the
sweeper limits, one entry per left-period word seen.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .core import (EpConfig, all_words, bundled_json, check_alphabet,
                   check_range, check_table_size, ep_equal, ep_to_json,
                   json_int, normal_form, word_index, word_of_index)


class BlockRule(namedtuple("BlockRule", "q block_length table")):
    """Length-m block map over alphabet 0..q-1.

    The table maps `word_index` of the input block to `word_index` of the
    output block.  Most operations require the table to be a permutation;
    `is_bijective` checks and `inverse` inverts.  The inverse and the mirror
    image are derived once per rule and cached in the instance's
    `__dict__`, outside the tuple's fields, so equality, hashing and the
    JSON form ignore them.  So is the sweep memo `_left_sweeps` (module
    docstring), one entry per left-period word seen.
    """

    def __new__(cls, q, block_length, table):
        check_alphabet(q)
        if block_length < 1:
            raise ValueError("block length must be at least 1")
        check_table_size(len(table), q, block_length)
        table = tuple(table)
        check_range(table, len(table), "table value {} is not a block index")
        return tuple.__new__(cls, (q, block_length, table))

    def __call__(self, w: tuple[int, ...]) -> tuple[int, ...]:
        if len(w) != self.block_length:
            raise ValueError(f"block length {len(w)}, expected {self.block_length}")
        return word_of_index(self.table[word_index(w, self.q)],
                             self.block_length, self.q)

    def is_bijective(self) -> bool:
        return sorted(self.table) == list(range(self.q**self.block_length))

    def inverse(self) -> "BlockRule":
        return self._inverse

    @cached_property
    def _inverse(self) -> "BlockRule":
        if not self.is_bijective():
            raise ValueError("block rule is not bijective")
        inv = [0] * len(self.table)
        for u, v in enumerate(self.table):
            inv[v] = u
        return BlockRule(self.q, self.block_length, tuple(inv))

    @cached_property
    def _mirror(self) -> "BlockRule":
        return reverse_block(self)

    @cached_property
    def _left_sweeps(self) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"alphabet": self.q, "block_length": self.block_length,
                "table": list(self.table)}

    @classmethod
    def from_json(cls, obj: dict) -> "BlockRule":
        try:
            return cls(json_int(obj["alphabet"], "alphabet"),
                       json_int(obj["block_length"], "block_length"),
                       tuple(json_int(s, "table") for s in obj["table"]))
        except KeyError as e:
            raise ValueError(f"block rule file missing field {e}") from e


def reverse_block(rule: BlockRule) -> BlockRule:
    """Rule seen from a reversed tape: conjugate by word reversal."""
    m, q = rule.block_length, rule.q
    table = tuple(word_index(tuple(reversed(rule(tuple(reversed(u))))), q)
                  for u in all_words(m, q))
    return BlockRule(q, m, table)


def identity_block(q: int, m: int = 1) -> BlockRule:
    return BlockRule(q, m, tuple(range(q**m)))


# ---------------------------------------------------------------------------
# Finite sweeps

def sweep_range(rule: BlockRule, x: EpConfig, i: int, j: int) -> EpConfig:
    """Apply at every position of [i, j), ascending.

    Cells outside [min(i, ...), j + m) keep their values, so the periodic
    tails survive unchanged.
    """
    if x.q != rule.q:
        raise ValueError("alphabet mismatch")
    if j < i:
        raise ValueError("empty or inverted sweep range")
    m, q = rule.block_length, rule.q
    lo = min(i, x.center_start)
    hi = max(j + m - 1, x.center_end)
    # the sweep finalizes [i, j); its window then holds [j, j + m), all but
    # the last cell rewritten
    outs, window = _sweep_cells(rule, word_index(x.window(i, i + m), q),
                                x.window(i + m, j + m))
    cells = (x.window(lo, i) + tuple(outs) + word_of_index(window, m, q)[:-1]
             + x.window(j + m - 1, hi))
    lper = len(x.left_period)
    rper = len(x.right_period)
    return EpConfig(x.q, x.window(lo - lper, lo), cells, lo,
                    x.window(hi, hi + rper))


def _sweep_cells(rule: BlockRule, window: int,
                 cells: tuple[int, ...]) -> tuple[list[int], int]:
    """Sweep the block-index window across the incoming cells.

    Returns the cells finalized on the way, one per incoming cell, and the
    window after the last one is shifted in.
    """
    table, q = rule.table, rule.q
    high = q ** (rule.block_length - 1)
    outs = []
    for c in cells:
        out, rest = divmod(table[window], high)
        outs.append(out)
        window = rest * q + c
    return outs, window


def _crossings(rule: BlockRule, window: int,
               word: tuple[int, ...]) -> tuple[dict[int, list[int]], int]:
    """Iterate the crossing map w -> `_sweep_cells`(rule, w, word)[1] from
    `window` until a window repeats.

    Returns the windows in visit order, each mapped to the cells it
    finalizes crossing one copy of the word, and the first window on the
    cycle: each window crosses into the next in order, the last one into
    that first cycle window.
    """
    emitted: dict[int, list[int]] = {}
    while window not in emitted:
        outs, after = _sweep_cells(rule, window, word)
        emitted[window] = outs
        window = after
    return emitted, window


def sweep_right_limit(rule: BlockRule, x: EpConfig, i: int) -> EpConfig:
    """Limit of applying the rule at i, i+1, i+2, ... forever.

    Exact: past the center the sweep crosses whole copies of the right
    period, and the crossing map on the finitely many windows enters a
    cycle, from where the output is periodic.
    """
    if x.q != rule.q:
        raise ValueError("alphabet mismatch")
    window = word_index(x.window(i, i + rule.block_length), rule.q)
    cells, period = _sweep_right(rule, x, i, window)
    cs = min(i, x.center_start)
    lper = len(x.left_period)
    return normal_form(x.q, x.window(cs - lper, cs), x.window(cs, i) + cells,
                       cs, period)


def _sweep_right(rule: BlockRule, x: EpConfig, i: int,
                 window: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rightward limit sweep from the block `window` at [i, i+m), in
    place of the tape's cells there: the cells it finalizes from i on until
    its output turns periodic, and the period that repeats from there.

    Past the center the sweep crosses copies of the right period rotated to
    the phase at which it enters the tail; the cells finalized before the
    cycle of `_crossings` follow the center's, and those on it repeat.
    """
    m, period, ce = rule.block_length, x.right_period, x.center_end
    outs, window = _sweep_cells(rule, window, x.window(i + m, ce))
    phase = (max(i + m, ce) - ce) % len(period)
    emitted, start = _crossings(rule, window, period[phase:] + period[:phase])
    cells = outs + [c for seg in emitted.values() for c in seg]
    cut = len(outs) + list(emitted).index(start) * len(period)
    return tuple(cells[:cut]), tuple(cells[cut:])


def _left_parts(rule: BlockRule, x: EpConfig) -> list[tuple]:
    """The limits `sweeper_eval` builds, up to the sweep from base =
    center_start - m: one (d, left tail, cells finalized from sp = base - d
    to base, arrival window at base) per distinct arrival window, residues
    d ascending, cycle order at sp.

    All of it reads cells of the left tail alone, so it is memoized on the
    rule per left-period word (`BlockRule._left_sweeps`).  The sampled
    checks sweep many configurations that share a left period: in `verify`
    of the synthesized block-7 ca102 rule on 3,000 draws, 402 of 416 calls
    hit the memo, and without it a pass shaped like the benchmark's
    `sample-q2` workload runs about 10% slower (median of 15 paired runs on
    a 2-vCPU VM).
    """
    parts = rule._left_sweeps.get(x.left_period)
    if parts is not None:
        return parts
    m, q = rule.block_length, rule.q
    P = len(x.left_period)
    base = x.center_start - m
    parts = []
    arrived: set[int] = set()
    for d in range(P):
        sp = base - d
        # windows arriving at sp from anchors sp - k*P, k = 0, 1, ...; the
        # cycle is what arbitrarily far anchors leave at sp
        emitted, start = _crossings(rule, word_index(x.window(sp, sp + m), q),
                                    x.window(sp - P + m, sp + m))
        trail = list(emitted)
        cycle = trail[trail.index(start):]
        to_base = x.window(sp + m, base + m)
        for k, e in enumerate(cycle):
            outs, arrival = _sweep_cells(rule, e, to_base)
            if arrival in arrived:
                continue
            arrived.add(arrival)
            left = [c for w in cycle[k:] + cycle[:k] for c in emitted[w]]
            parts.append((d, tuple(left), tuple(outs), arrival))
    rule._left_sweeps[x.left_period] = parts
    return parts


class SweepOutcome(namedtuple("SweepOutcome", "limit second",
                              defaults=(None,))):
    """Limit of anchored sweeps: one configuration, or two accumulation
    points when the anchors do not settle."""

    __slots__ = ()

    @property
    def converges(self) -> bool:
        return self.second is None

    def __bool__(self) -> bool:
        return self.converges

    def to_json(self) -> dict:
        if self.converges:
            return {"converges": True, "limit": ep_to_json(self.limit)}
        return {"converges": False,
                "limits": [ep_to_json(self.limit), ep_to_json(self.second)]}


def sweeper_eval(chi: BlockRule, y: EpConfig) -> SweepOutcome:
    """All accumulation points of chi swept from anchors going left.

    For each anchor residue modulo the left period, the sweep window
    crossing one period copy follows a fixed self-map; its eventual cycle
    lists the windows seen from arbitrarily far anchors.  Every cycle
    element yields one accumulation configuration: cycling backward writes
    a periodic left tail, sweeping forward across the center settles into
    the right tail.

    Only the limits that can differ are built.  Let base = center_start -
    m and sp = base - d for a residue d.  The cells y[sp+m, base+m) lie in
    the left tail, so the sweep T_d from sp to base, which shifts them in,
    satisfies T_d F_sp = F_base T_d for the period-crossing maps at sp and
    at base (both sides sweep one period copy and d cells through the same
    periodic cells).  A cycle element e at sp therefore arrives at base as
    the window W = T_d(e) on a cycle of F_base, and the limit from e has the
    cells of the limit from W at base: from base on the sweep out of W,
    left of base the outputs of W's predecessors on its cycle.  So limits
    with the same arrival window W are `ep_equal`, bijective rule or not,
    and one limit is built per W.  The loop keeps the order of building
    every limit (residues ascending, cycle order at sp) and returns at the
    first limit not `ep_equal` to the first.  Every skipped limit equals
    one built before it, and so the first, so this is the limit that
    building all of them and comparing would report.

    Everything before the sweep from base reads cells at fixed offsets
    below center_start, which all lie in the left tail: the window at sp,
    the period copy each crossing shifts in and the cells from sp to base.
    So the cycles, the left segments, the cells finalized from sp to base
    and the arrival windows depend on the left-period word alone, and
    `_left_parts` computes them once per word and rule.  The proof and the
    loop order are those above; each limit is the sweep from base out of W,
    after the cells finalized from sp to base, which are the cells of the
    sweep from sp.
    """
    if chi.q != y.q:
        raise ValueError("alphabet mismatch")
    base = y.center_start - chi.block_length
    first = None
    for d, left, to_base, arrival in _left_parts(chi, y):
        cells, period = _sweep_right(chi, y, base, arrival)
        z = normal_form(y.q, left, to_base + cells, base - d, period)
        if first is None:
            first = z
        elif not ep_equal(first, z):
            return SweepOutcome(first, z)
    return SweepOutcome(first)


def sweep_left_limit(rule: BlockRule, x: EpConfig, i: int) -> EpConfig:
    """Limit of applying the rule at i-1, i-2, ... leftward forever.

    An application at p rewrites [p, p+m), so cells from i+m-1 on are never
    touched.  Implemented by reversing the tape and the rule: the descending
    applications at i-1, i-2, ... become ascending applications starting at
    position 2 - i - m of the reversed tape.
    """
    y = sweep_right_limit(rule._mirror, x.reversed(),
                          2 - i - rule.block_length)
    return y.reversed()


# ---------------------------------------------------------------------------
# Representations of configuration pairs

def representation_eval(rule: BlockRule, x: EpConfig,
                        i: int) -> tuple[EpConfig, EpConfig]:
    """Pair (y, z) represented by seed configuration x with anchor i.

    Sweeping the inverse rule leftward from i yields y, sweeping the rule
    itself rightward from i yields z.  For a bijective rule this is the pair
    the seed witnesses in the rule's input/output relation; y keeps x's
    cells from i+m-1 on and z keeps x's cells below i.
    """
    inv = rule.inverse()
    y = sweep_left_limit(inv, x, i)
    z = sweep_right_limit(rule, x, i)
    return y, z


# ---------------------------------------------------------------------------
# Bundled block rules

BUILTIN_BLOCK_RULES = ("swap", "xor_block", "identity_block", "not_closed")


def builtin_block_rule(name: str) -> BlockRule:
    """Load one of the bundled block rules by name."""
    return BlockRule.from_json(
        bundled_json(name, BUILTIN_BLOCK_RULES, "block rule"))
