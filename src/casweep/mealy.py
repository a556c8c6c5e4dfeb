"""Sweeper limits via cycle analysis, and good states of block transducers.

Sweeping a block rule rightward from anchors pushed further and further left
produces a sequence of configurations.  Its accumulation points are computed
exactly for eventually periodic inputs: crossing one copy of the left period
acts on the m-cell sweep window as a fixed map, the crossing map of
`blockrule`, so the windows arriving at any reference position from
far-away anchors are the eventual cycle of that map, and each cycle element
extends to one accumulation configuration, decided by the window it carries
to the m cells just left of the center.  `blockrule` runs the cycle
searches on both tails and keeps their memos; `sweeper_eval` only
assembles the limits.

The block-level view of the same sweep is a Mealy automaton on Q = A = S^n;
its good states are the ones arising at a fixed block boundary for
infinitely many anchors of some left-infinite input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .core import (MAX_AUTOMATON_STATES, EpConfig, all_words, check_cap,
                   ep_equal, ep_to_json, normal_form, word_index)
from .blockrule import BlockRule, _left_parts, _sweep_cells, _sweep_right


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
    its search may visit all |Q| (|Q| + 1) product nodes, |Q| edges each."""
    check_cap(size * (size + 1) * size, cap, "good-state product edges")


def good_states(mealy: MealyAutomaton,
                cap: int = MAX_AUTOMATON_STATES) -> set[int]:
    """States reached at a boundary by infinitely many anchors of some tail.

    Tracked on the product of a main run with one merge probe at a time:
    nodes (c, u) where c is the main-run state and u an anchored run still
    distinct from it (or idle).  Reading letter e updates c to delta(c, e);
    a probe seeded at e follows delta until it equals the main run, which
    flags the edge.  A state is good exactly when it is the main state of
    a node reachable from a cycle through a flagged edge: the cycle
    supplies infinitely many merged anchors.  Polynomial in |Q|, unlike the
    direct search over state transformations.

    The product is searched one component K of the main-run graph
    c -> delta(c, e) at a time, from the idle nodes of K and keeping only
    nodes whose main state stays in K, until the first flagged edge.  This
    is exact.  Every flagged edge ends at an idle node (c2, idle), and the
    idle nodes follow every main edge, so from there the product reaches
    exactly the main states reachable from c2.  A flagged edge v ->
    (c2, idle) lies on a cycle iff (c2, idle) reaches v; every node of such
    a cycle has its main state in c2's component K, where the idle nodes
    all reach one another.  So the search of K finds a flagged edge exactly
    when one into K lies on a cycle, and then every state reachable from K
    is good.  Components are searched upstream first, and those already
    good are skipped.
    """
    Q = mealy.size
    check_good_states_cap(Q, cap)
    rows = [mealy.next_table[c * Q:(c + 1) * Q] for c in range(Q)]
    comp = graph.strong_components(rows)
    members: dict[int, list[int]] = {}
    for c in graph.recurrent(rows, comp, []):
        members.setdefault(comp[c], []).append(c)
    seen = bytearray(Q * (Q + 1))
    good = bytearray(Q)
    # edges run from higher component numbers to lower ones
    for k in sorted(members, reverse=True):
        K = members[k]
        if not good[K[0]] and _merges_on_cycle(rows, comp, K, seen):
            for c, hit in enumerate(graph.reachable(rows, K)):
                good[c] |= hit
    return {c for c, hit in enumerate(good) if hit}


def _merges_on_cycle(rows, comp: list[int], K: list[int],
                     seen: bytearray) -> bool:
    """Does the product search from the idle nodes of the main-run
    component K, kept inside K, meet a flagged edge?

    Node (c, u) is c * (|Q| + 1) + u, with u = |Q| for idle; `seen` flags
    the nodes already visited.
    """
    idle = len(rows)
    width = idle + 1
    k = comp[K[0]]
    stack = [c * width + idle for c in K]
    for v in stack:
        seen[v] = 1
    while stack:
        c, u = divmod(stack.pop(), width)
        outs = []
        if u == idle:
            # keep the main run alone, or seed a probe at this letter; a
            # probe equal to the main run at once flags the edge
            for e, c2 in enumerate(rows[c]):
                if comp[c2] == k:
                    if e == c2:
                        return True
                    outs += (c2 * width + idle, c2 * width + e)
        else:
            for c2, u2 in zip(rows[c], rows[u]):
                if comp[c2] == k:
                    # the probe merges exactly on the flagged edges
                    if u2 == c2:
                        return True
                    outs.append(c2 * width + u2)
        for w in outs:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return False


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
    `blockrule._left_parts` computes them once per word and rule.  The
    proof and the loop order are those above; each limit is the sweep from
    base out of W, after the cells finalized from sp to base, which are the
    cells of the sweep from sp.
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
