"""Good states of block transducers.

The block-level view of a block rule's sweep is a Mealy automaton on Q = A
= S^n; its good states are the ones arising at a fixed block boundary for
infinitely many anchors of some left-infinite input.  They depend on the
transitions alone, so the automaton keeps only its next-state table.  The
sweeper limits are computed in `blockrule`; `sweeper_eval` is imported
here as well because the benchmark traces `mealy.sweeper_eval`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from . import graph
from .core import MAX_AUTOMATON_STATES, check_cap, check_power_cap
from .blockrule import BlockRule, sweeper_eval


@dataclass(frozen=True)
class MealyAutomaton:
    """Transducer with states and letters both S^n, kept as its transitions:
    entry s * q^n + a of next_table is delta(s, a), for the word indices s
    and a.
    """

    q: int
    n: int
    next_table: tuple[int, ...]

    def __post_init__(self):
        if len(self.next_table) != self.q ** (2 * self.n):
            raise ValueError("next_table must have q^(2n) entries")

    @property
    def size(self) -> int:
        return self.q ** self.n


def mealy_from_block(chi: BlockRule,
                     cap: int | None = MAX_AUTOMATON_STATES) -> MealyAutomaton:
    """Block-level transducer: apply chi at positions 0..n-1 of state+letter.

    The sweep window starts as the state block and takes in the letter's
    cells one by one; the last window is the next state.  One sweep step
    on window w keeps table[w] % q^(n-1) * q, to which the next cell c is
    added, so window w has the q successors step[w], listed by ascending c.
    The table is built one letter cell per layer for every (state, letter
    prefix) at once: entry s q^k + a[:k] of layer k holds the window after
    a[:k], and layer k+1 is the concatenation of the successors of layer
    k's entries, in order, so layer n is already indexed s q^n + a.  Layer
    k holds q^(n+k) entries, and at most two layers are alive at once.

    The cap bounds the q^(2n) entries of the last layer, and is checked
    before anything is built.
    """
    n, q = chi.block_length, chi.q
    check_power_cap(q, 2 * n, cap, "Mealy table entries")
    high = q ** (n - 1)
    cells = range(q)
    step = [tuple(t % high * q + c for c in cells) for t in chi.table]
    windows: Sequence[int] = range(q ** n)
    for _ in range(n):
        windows = tuple(chain.from_iterable(map(step.__getitem__, windows)))
    return MealyAutomaton(q, n, windows)


def check_good_states_cap(size: int, cap: int | None) -> None:
    """Refuse good_states on |Q| = size before any table or graph is built:
    its search may visit all |Q| (|Q| + 1) product nodes, |Q| edges each."""
    check_cap(size * (size + 1) * size, cap, "good-state product edges")


def good_states(mealy: MealyAutomaton,
                cap: int | None = MAX_AUTOMATON_STATES) -> set[int]:
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
    for c in graph.recurrent(rows, comp):
        members.setdefault(comp[c], []).append(c)
    seen = bytearray(Q * (Q + 1))
    good = bytearray(Q)
    # edges run from higher component numbers to lower ones
    for k in sorted(members, reverse=True):
        K = members[k]
        if not good[K[0]] and _merges_on_cycle(rows, comp, K, seen):
            for c in graph.bfs_tree(rows, K):
                good[c] = 1
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
