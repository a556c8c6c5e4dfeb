"""Block permutations applied in place, and the sweeps they generate.

A `BlockRule` of length m rewrites the window ``x[i .. i+m)`` in place when
applied at position i.  Sweeping left to right from an anchor i applies the
rule at i, i+1, i+2, ...; each cell is rewritten at most m times and then
never again, so the sweep has a well defined limit configuration.  On an
eventually periodic configuration the whole limit is computed exactly by
running the sweep as a finite-state transducer and detecting the cycle its
window state enters inside the periodic tail.

The transducer's state is the m-cell window as one block index below q^m,
so the rule's table is its transition table: one step rewrites the window
with the table, emits the leftmost cell (final from then on) and shifts in
the next tape cell, ``out, rest = divmod(table[w], q**(m-1))`` and
``w = rest * q + incoming``.

Right-to-left sweeps are reduced to left-to-right ones by reversing both the
tape and the rule, so there is exactly one sweep engine.  A rule derives its
inverse and its mirror image once, on first use, and keeps them.

A rule also keeps two memos of the sweeps it has run, since what a sweep
does inside a periodic tail depends only on the rule, the period word and
where the sweep enters it:

- the tail memo (`_sweep_right`): keyed by (right period p, window, phase)
  at the entry into the tail, the cells finalized there until the output
  turns periodic, and that period; at most q^m * |p| entries per period
  word p seen;
- the left memo (`mealy.sweeper_eval`): keyed by the left-period word, the
  cycle windows and left segments every anchor residue contributes; one
  entry per left-period word seen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from .core import (EpConfig, all_words, check_alphabet, check_range, json_int,
                   normal_form, word_index, word_of_index)


@dataclass(frozen=True)
class BlockRule:
    """Length-m block map over alphabet 0..q-1.

    The table maps `word_index` of the input block to `word_index` of the
    output block.  Most operations require the table to be a permutation;
    `is_bijective` checks and `inverse` inverts.  The inverse and the mirror
    image are derived once per rule and cached on the instance, outside the
    dataclass fields, so equality, hashing and the JSON form ignore them.
    So are the two sweep memos (module docstring): `_left_sweeps`, one entry
    per left-period word seen, and `_tail_sweeps`, at most q^m * |p| entries
    per right-period word p seen.
    """

    q: int
    block_length: int
    table: tuple[int, ...]

    def __post_init__(self):
        check_alphabet(self.q)
        if self.block_length < 1:
            raise ValueError("block length must be at least 1")
        size = self.q**self.block_length
        if len(self.table) != size:
            raise ValueError(f"table has {len(self.table)} entries, expected {size}")
        object.__setattr__(self, "table", tuple(self.table))
        check_range(self.table, size, "table value {} is not a block index")

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

    @cached_property
    def _tail_sweeps(self) -> dict:
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
    m = rule.block_length
    lo = min(i, x.center_start)
    hi = max(j + m - 1, x.center_end)
    cells = list(x.window(lo, hi))
    for p in range(i, j):
        k = p - lo
        cells[k:k + m] = rule(tuple(cells[k:k + m]))
    lper = len(x.left_period)
    rper = len(x.right_period)
    return EpConfig(x.q, x.window(lo - lper, lo), tuple(cells), lo,
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


def sweep_right_limit(rule: BlockRule, x: EpConfig, i: int) -> EpConfig:
    """Limit of applying the rule at i, i+1, i+2, ... forever.

    Exact: once the consumed inputs come from the right periodic tail the
    pair (window, input phase) lives in a finite state space, so the output
    becomes periodic when that pair first repeats.
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

    The part inside the right tail depends only on the period word and the
    (window, phase) pair in which the sweep enters it, so it is memoized on
    the rule under that key (`BlockRule._tail_sweeps`).
    """
    m, period, ce = rule.block_length, x.right_period, x.center_end
    outs, window = _sweep_cells(rule, window, x.window(i + m, ce))
    key = (period, window, (max(i + m, ce) - ce) % len(period))
    tail = rule._tail_sweeps.get(key)
    if tail is None:
        tail = rule._tail_sweeps[key] = _sweep_tail(rule, *key)
    return tuple(outs) + tail[0], tail[1]


def _sweep_tail(rule: BlockRule, period: tuple[int, ...], window: int,
                phase: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sweep entering the periodic tail `period` with `window` at
    `phase`: the cells it finalizes until its output turns periodic, and
    that period.  The (window, phase) pairs are keyed as the integer
    window * |period| + phase.
    """
    q, table = rule.q, rule.table
    high = q ** (rule.block_length - 1)
    rper = len(period)
    seen: dict[int, int] = {}
    tail: list[int] = []
    key = window * rper + phase
    while key not in seen:
        seen[key] = len(tail)
        out, rest = divmod(table[window], high)
        tail.append(out)
        window = rest * q + period[phase]
        phase = (phase + 1) % rper
        key = window * rper + phase
    start = seen[key]
    return tuple(tail[:start]), tuple(tail[start:])


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
    if name not in BUILTIN_BLOCK_RULES:
        raise ValueError(f"unknown built-in block rule {name!r}; "
                         f"choose from {', '.join(BUILTIN_BLOCK_RULES)}")
    text = resources.files("casweep.data").joinpath(f"{name}.json").read_text()
    return BlockRule.from_json(json.loads(text))
