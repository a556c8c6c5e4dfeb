"""Sweeper limits via cycle analysis, and good states of block transducers.

Sweeping a block rule rightward from anchors pushed further and further left
produces a sequence of configurations.  Its accumulation points are computed
exactly for eventually periodic inputs: crossing one copy of the left period
acts on the m-cell sweep window as a fixed map, so the windows arriving at
any reference position from far-away anchors are the eventual cycle of that
map, and each cycle element extends to one accumulation configuration.

The block-level view of the same sweep is a Mealy automaton on Q = A = S^n;
its good states are the ones arising at a fixed block boundary for
infinitely many anchors of some left-infinite input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .core import (MAX_AUTOMATON_STATES, EpConfig, all_words, check_cap,
                   ep_equal, ep_to_json, word_index)
from .blockrule import BlockRule, _sweep_cells, sweep_right_limit_from


@dataclass(frozen=True)
class MealyAutomaton:
    """Transducer with states and letters both S^n, tables word-indexed.

    Entry s * q^n + a of each table holds delta(s, a) and the output block.
    """

    q: int
    n: int
    out_table: tuple[int, ...]
    next_table: tuple[int, ...]

    def __post_init__(self):
        size = self.q ** (2 * self.n)
        if len(self.out_table) != size or len(self.next_table) != size:
            raise ValueError("tables must have q^(2n) entries")

    @property
    def size(self) -> int:
        return self.q ** self.n

    def delta(self, s: int, a: int) -> int:
        return self.next_table[s * self.size + a]

    def is_bijective(self) -> bool:
        return len(set(zip(self.out_table, self.next_table))) == len(self.out_table)


def mealy_from_block(chi: BlockRule) -> MealyAutomaton:
    """Block-level transducer: apply chi at positions 0..n-1 of state+letter.

    The sweep window starts as the state block and takes in the letter's
    cells one by one; the n finalized cells are the output block and the
    last window is the next state.
    """
    n, q = chi.block_length, chi.q
    outs = []
    nxts = []
    letters = list(all_words(n, q))
    for s in range(q ** n):
        for a in letters:
            cells, w = _sweep_cells(chi, s, a)
            outs.append(word_index(cells, q))
            nxts.append(w)
    return MealyAutomaton(q, n, tuple(outs), tuple(nxts))


def check_good_states_cap(size: int, cap: int | None) -> None:
    """Refuse good_states on |Q| = size before any table or graph is built:
    its product has |Q| (|Q| + 1) nodes of |Q| edges each."""
    check_cap(size * (size + 1) * size, cap, "good-state product edges")


def good_states(mealy: MealyAutomaton,
                cap: int = MAX_AUTOMATON_STATES) -> set[int]:
    """States reached at a boundary by infinitely many anchors of some tail.

    Tracked on the product of a main run with one merge probe at a time:
    nodes (c, u) where c is the main-run state and u an anchored run still
    distinct from it (or idle).  Reading letter e updates c to delta(c, e);
    a probe seeded at e follows delta until it equals the main run, which
    flags the edge.  A state is good exactly when some node of c-component
    equal to it is reachable from a cycle through a flagged edge: the cycle
    supplies infinitely many merged anchors.  Polynomial in |Q|, unlike the
    direct search over state transformations.

    Node (c, u) is numbered c * (|Q| + 1) + u, with u = |Q| for idle.
    """
    Q = mealy.size
    check_good_states_cap(Q, cap)
    idle = Q
    width = Q + 1
    # shared int objects keep the ~|Q|^3 stored edges small
    node = list(range(Q * width))
    rows = [mealy.next_table[c * Q:(c + 1) * Q] for c in range(Q)]
    succ: list[list[int]] = []
    merged: list[list[int]] = []    # targets of the flagged edges
    for c in range(Q):
        row = rows[c]
        for u in range(width):
            if u == idle:
                # keep the main run alone, or seed a probe at this letter;
                # a probe equal to the main run at once flags the edge
                outs = [node[c2 * width + idle] for c2 in row]
                flags = [outs[e] for e, c2 in enumerate(row) if e == c2]
                outs += [node[c2 * width + e] for e, c2 in enumerate(row)
                         if e != c2]
            elif u == c:
                outs, flags = [], []
            else:
                outs = [node[c2 * width + (idle if u2 == c2 else u2)]
                        for c2, u2 in zip(row, rows[u])]
                # the probe merges exactly on the edges back to idle
                flags = [d for d in outs if d % width == idle]
            succ.append(outs)
            merged.append(flags)
    comp = graph.strong_components(succ)
    reached = graph.reachable(succ, (d for v, flags in enumerate(merged)
                                     for d in flags if comp[d] == comp[v]))
    return {v // width for v, hit in enumerate(reached) if hit}


# ---------------------------------------------------------------------------
# Sweeper evaluation

@dataclass(frozen=True)
class SweepOutcome:
    """Limit of anchored sweeps: one configuration, or two accumulation
    points when the anchors do not settle."""

    limit: EpConfig
    second: EpConfig | None = None

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
    """
    if chi.q != y.q:
        raise ValueError("alphabet mismatch")
    m = chi.block_length
    P = len(y.left_period)
    base = y.center_start - m
    limits: list[EpConfig] = []
    for d in range(P):
        sp = base - d
        # the cells shifted in while the window crosses one period copy
        incoming = y.window(sp - P + m, sp + m)
        # windows arriving at sp from anchors sp - k*P, k = 0, 1, ..., each
        # with the cells it emits crossing one copy and the window after;
        # the eventual cycle is what arbitrarily far anchors leave at sp
        crossing: dict[int, tuple[list[int], int]] = {}
        window = word_index(y.window(sp, sp + m), chi.q)
        while window not in crossing:
            crossing[window] = _sweep_cells(chi, window, incoming)
            window = crossing[window][1]
        trail = list(crossing)
        cycle = trail[trail.index(window):]
        for e in cycle:
            left = []
            w = e
            for _ in cycle:
                seg, w = crossing[w]
                left.extend(seg)
            piece = sweep_right_limit_from(chi, y, sp, e)
            hi = max(piece.center_end, sp)
            rper = len(piece.right_period)
            z = EpConfig(y.q, tuple(left), piece.window(sp, hi), sp,
                         tuple(piece.cell(hi + t) for t in range(rper)))
            limits.append(z.normalize())
    first = limits[0]
    for z in limits[1:]:
        if not ep_equal(first, z):
            return SweepOutcome(first, z)
    return SweepOutcome(first)

