"""Closingness analysis of local rules.

A rule is left-closing when no two distinct right-asymptotic configurations
have the same image; right-closing is the mirror notion.  Left-closingness
is decided on a pair graph whose vertices are pairs of preimage windows and
whose edges are constrained by image equality: the rule fails to be
left-closing exactly when some differing-letter edge has an infinite
incoming history (its source is reachable from a cycle) and an outgoing
path into the diagonal.  Such a path skeleton converts directly into an
eventually periodic witness pair.  A vertex is the number u*q^(2r) + v of
its two windows' word indices, and the witness search runs on these
numbers, from the cycle vertices in ascending order.  The graph is held
once, as plain successor lists: an edge's label is read off the vertex it
enters, and the backward searches run on `graph.reverse` of those lists.

For a left-closing rule the module also finds the smallest strong closing
radius: the least m >= 2r such that knowing m preimage cells to the right
and the 2m image cells below them pins down, for every possible next image
cell, exactly one next preimage cell.  That unique-extension property powers
the stair counting and synthesis modules.  It is read off the same pair
graph: m fails to be strong exactly when some path of m - r edges ends at
the source of a differing-label edge into a vertex that reaches the
diagonal (the proof is in `left_closing_decide`), so one longest-path pass
over the vertices without history gives m.

Counting lemma: for m >= 2r (radius form), "exactly one" is implied by "at
least one".  Call a context C the cells [m+1, m+2r] and the images
[1, m+r] of some configuration, and let A(C, b) be the set of cells at m
over the configurations with context C and image b at 0; a bucket of
windows on [-r, 2m+r] leaves, for each b, exactly such a set (first step of
the proof in `left_closing_decide`).  A context C' shifted one cell left
(cells [m, m+2r-1], images [0, m+r-1]) extends in exactly q ways to cells
[m, m+2r] and images [0, m+r]: the cell at m+2r is free, as it changes
only images at m+r and beyond, and once chosen it fixes the image at m+r.
Each extension is exactly one triple (C, b, a) with a in A(C, b).  The
full shift is shift-invariant, so there are as many contexts C' as
contexts C, say N, and the sum of |A(C, b)| over the qN pairs (C, b) is
qN.  Hence every A(C, b) is nonempty iff every A(C, b) has exactly one
element iff every A(C, b) has at most one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .core import (EpConfig, IntegrityError, check_power_cap, ep_equal,
                   ep_to_json)
from .ca import (LocalRule, apply_ep, minimize_neighborhood, mirror,
                 to_radius_form)

# Cap on the q^(4r+2) edge tests of one pair graph, the only exponential
# work of the closing analysis, checked before the radius-r table is built:
# 360 times the 6^6 that the largest bundled rule needs.
MAX_WINDOWS = 1 << 24


@dataclass(frozen=True)
class ClosingVerdict:
    side: str  # "left" or "right"
    closed: bool
    strong_radius: int | None
    witness: tuple[EpConfig, EpConfig] | None

    def __bool__(self) -> bool:
        return self.closed

    def to_json(self) -> dict:
        out: dict = {"side": self.side, "closed": self.closed}
        if self.closed:
            out["strong_radius"] = self.strong_radius
        else:
            out["witness"] = [ep_to_json(c) for c in self.witness]
        return out


class NotClosingError(ValueError):
    """Raised with the failing side's verdict, whose witness pair shows
    the failure, by an operation that needs a closing rule."""

    def __init__(self, verdict: ClosingVerdict):
        super().__init__(f"rule is not {verdict.side}-closing")
        self.verdict = verdict


def _radius_form(f: LocalRule) -> tuple[LocalRule, int]:
    """f refined to [-r, r], r = max(radius, 1) of its minimized form, and r;
    the pair graph's cap is checked before that q^(2r+1)-entry table is built.
    The radius is at least 1 even for a width-1 rule, because the closing
    constructions require a positive radius."""
    g = minimize_neighborhood(f)
    r = max(g.radius, 1)
    check_power_cap(g.q, 4 * r + 2, MAX_WINDOWS, "pair graph edge tests")
    return to_radius_form(g, r), r


# ---------------------------------------------------------------------------
# Pair graph

def _pair_graph(g: LocalRule, r: int) -> list[list[int]]:
    """Successor lists of the pair graph on numbered vertices.

    With n = q^(2r), the pair (u, v) of 2r-windows, each numbered by word
    index, is vertex u*n + v.  An edge labeled (b, b') extends u by b and v
    by b', allowed only when the windows u*q + b and v*q + b' of the table
    have the same image, and leads to ((u*q + b) mod n, (v*q + b') mod n).
    So the label is read off the target w as (w // n % q, w % q), and the
    lists hold targets alone, in (b, b') order.  The witness search scans
    vertices and edges in this order and starts its history tree from the
    cycle vertices in ascending number, so each witness is one fixed choice.
    """
    q, table = g.q, g.table
    n = q ** (2 * r)
    # (image, next window) of each window u*q + b, which loses its first
    # cell to become the next window
    rows = [[(table[w], w % n) for w in range(u * q, u * q + q)]
            for u in range(n)]
    return [[su * n + sv for fb, su in row_u for fb2, sv in row_v if fb == fb2]
            for row_u in rows for row_v in rows]


def left_closing_decide(f: LocalRule) -> ClosingVerdict:
    """Decide left-closingness.

    Returns the smallest strong closing radius, or a witness pair of
    distinct right-asymptotic configurations with equal images; both are
    read off one pair graph.  Raises ResourceCapError when its q^(4r+2)
    edge tests are over MAX_WINDOWS.

    Call a vertex a source when a differing-label edge leads from it to a
    vertex that reaches the diagonal.  A source with history gives the
    witness.  When no source
    has history, the rule is left-closing, and with D the longest path
    ending at a source, the smallest strong radius is max(2r, D + r + 1)
    (2r when there is no source).  Why:

    - Take windows on [-r, 2m+r], m >= 2r.  A window Q of P's bucket may
      take P's cells 2m+1 ... 2m+r and stay in the bucket: the images that
      change lie at 2m+1-r or beyond, so they read only cells after m
      (m >= 2r), where Q now equals P.  So m fails uniqueness (a bucket
      leaves two cells a at m for one image b at 0) iff two windows agree
      on (m, 2m+r], have equal images on [0, 2m] and differ at m.
    - Such a pair is a path: start at the vertex of its cells [-r, r-1],
      take the m - r edges that add the cells r ... m-1, then the differing
      edge that adds cell m, then the 2r equal-label edges that add cells
      m+1 ... m+2r and end on the diagonal.  The edge adding cell c checks
      the image at c - r, so the path checks the images on [0, m+r], and
      the images on (m+r, 2m] read only cells after m, where the windows
      agree.  So the vertex after m - r edges is a source.
    - Conversely, take a path of k >= m - r edges ending at a source s and
      go on along the differing edge and a path into the diagonal.  Its
      last differing edge leaves a vertex s' that ends a path of at least k
      edges, and at least 2r equal-label edges follow it, since a vertex is
      on the diagonal only when its last 2r cells agree.  The last m - r
      edges before s', that edge and the next 2r edges, extended by equal
      cells up to 2m+r, are a pair as above.  So m fails uniqueness iff
      m - r <= D: the failures are downward closed in m.
    - By the counting lemma in the module docstring, m is strong iff no
      bucket fails uniqueness, so iff m - r > D.
    - D is finite: no source has history, and the vertices without history
      carry no cycle and have no predecessor with history.  Their longest
      paths take one pass in topological order, which is descending
      component number, and only when some source exists.
    """
    g, r = _radius_form(f)
    succ = _pair_graph(g, r)
    back = graph.reverse(succ)
    comp = graph.strong_components(succ)
    has_history = graph.bfs_tree(succ, graph.recurrent(succ, comp))
    q, n = g.q, g.q ** (2 * r)
    reaches_diagonal = graph.bfs_tree(back, range(0, n * n, n + 1))  # u*n + u

    sources = []
    for src, outs in enumerate(succ):
        for tgt in outs:
            if tgt // n % q != tgt % q and tgt in reaches_diagonal:
                if src in has_history:
                    witness = _build_witness(g, n, succ, has_history,
                                             reaches_diagonal, src, tgt)
                    return ClosingVerdict("left", False, None, witness)
                sources.append(src)
                break
    if not sources:
        return ClosingVerdict("left", True, 2 * r, None)
    depth: dict[int, int] = {}  # longest path ending at a vertex
    for v in sorted((v for v in range(n * n) if v not in has_history),
                    key=comp.__getitem__, reverse=True):
        depth[v] = max((depth[u] + 1 for u in back[v]), default=0)
    longest = max(depth[s] for s in sources)
    return ClosingVerdict("left", True, max(2 * r, longest + r + 1), None)


def is_strong_left_closing_radius(f: LocalRule, m: int) -> bool:
    """Is m a strong left-closing radius of f?

    True iff f is left-closing and m is at least its smallest strong
    radius: by the proof in `left_closing_decide`, the strong radii of a
    left-closing rule are exactly the m from that one on.
    """
    verdict = left_closing_decide(f)
    return verdict.closed and m >= verdict.strong_radius


def _build_witness(g, n, succ, has_history, reaches_diagonal, src, tgt):
    """Two configurations tracing cycle -> src -> differing edge -> diagonal.

    The cycle labels become the shared-structure left periods, the finite
    part the centers, and both tapes end in zeros once the diagonal absorbs
    them.  The differing edge guarantees distinctness; edge constraints
    guarantee equal images.
    """
    up = graph.walk_to_root(has_history, src)  # src back to its cycle vertex
    cycle = graph.shortest_cycle(succ, up[-1])
    if cycle is None:
        raise IntegrityError("recurrent vertex lies on no cycle")
    # walking tgt towards the diagonal follows forward edges, so the
    # vertices come out already in tape order
    seq = up[:-1][::-1] + graph.walk_to_root(reaches_diagonal, tgt)
    # the edge into w has label (b, b') = (w // n % q, w % q); x1 reads b
    x1, x2 = (EpConfig(g.q, tuple(w // div % g.q for w in cycle[1:]),
                       tuple(w // div % g.q for w in seq), 0, (0,))
              for div in (n, 1))
    if ep_equal(x1, x2) or not ep_equal(apply_ep(g, x1), apply_ep(g, x2)):
        raise IntegrityError("constructed non-closing witness fails to validate")
    return x1, x2


def right_closing_decide(f: LocalRule) -> ClosingVerdict:
    """Mirror image of left_closing_decide."""
    v = left_closing_decide(mirror(f))
    witness = None
    if v.witness is not None:
        witness = (v.witness[0].reversed(), v.witness[1].reversed())
    return ClosingVerdict("right", v.closed, v.strong_radius, witness)
