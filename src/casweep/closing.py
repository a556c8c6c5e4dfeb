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
numbers, from the cycle vertices in ascending order.

For a left-closing rule the module also finds the smallest strong closing
radius: the least m >= 2r such that knowing m preimage cells to the right
and the 2m image cells below them pins down, for every possible next image
cell, exactly one next preimage cell.  That unique-extension property powers
the stair counting and synthesis modules.  A candidate m is tested by one
right-to-left pass that carries, for each partial preimage, the set of
partial preimages with the same image, instead of enumerating all windows.

Counting lemma: for m >= 2r (radius form), "exactly one" is implied by "at
least one".  Call a context C the cells [m+1, m+2r] and the images
[1, m+r] of some configuration, which is exactly what a partner set fixes,
and let A(C, b) be the set of cells at m over the configurations with
context C and image b at 0.  A context C' shifted one cell left (cells
[m, m+2r-1], images [0, m+r-1]) extends in exactly q ways to cells
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
from .core import EpConfig, IntegrityError, check_cap, ep_equal, ep_to_json
from .ca import (LocalRule, apply_ep, minimize_neighborhood, mirror,
                 to_radius_form)

# Cap on the q^(4r+2) edge tests of one pair graph and on the q^(2m+2r+1)
# windows one strong-radius test decides about (a bound on the entries of
# each layer of its pass): 60 times the 6^7 that the largest bundled rule
# needs.
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


def _radius_form(f: LocalRule) -> tuple[LocalRule, int]:
    g = to_radius_form(minimize_neighborhood(f))
    return g, (g.width - 1) // 2


def is_strong_left_closing_radius(f: LocalRule, m: int) -> bool:
    """Test whether m is a strong left-closing radius of f.

    Take f in radius form (radius r) and a preimage window P on positions
    [-r, 2m+r].  Its bucket is every window with the same preimage s on
    (m, 2m] and the same image t on (0, 2m]; m is strong when each bucket
    leaves, for every image b at 0, exactly one preimage cell a at m.
    By the counting lemma in the module docstring, it suffices that it
    leaves at least one, so for m >= 2r only that existence is tested;
    m < 2r is never strong.

    The test makes one right-to-left pass over the de Bruijn graph of
    2r-cell states, numbered by word index below q^(2r).  Each layer entry
    is P's state and the frozenset of partner states, and the pass starts
    from every state on positions [m+1, m+2r] (inside s, as m >= 2r) with
    itself as its only partner.  It then prepends the cells m, m-1, ...,
    1-r: P takes each of the q cells, and the new partners are the
    prepends of old partners whose image equals the image P just
    produced.  At the end the states cover [1-r, r], and m is strong iff
    for every partner set the images at 0, {table[y q^(2r) + p'] : y, p'
    in the set}, cover the alphabet.

    Why this is exact:

    - A window Q of P's bucket may take P's cells 2m+1 ... 2m+r and stay
      in the bucket: the images that change lie at 2m+1-r or beyond, so
      they read only cells after m (m >= 2r), where Q now equals P.  So
      the bucket's cells [1-r, r] are those of windows that equal P on
      (m, 2m+r] and match its images on (0, m+r], which the pass
      enumerates image by image, and cell -r is free in it.  A final
      partner set is therefore exactly that set of states.
    - An entry is fixed by the suffix of P the pass has read, at most
      m+3r cells, and m+3r < 2m+2r+1, so the cap on the q^(2m+2r+1)
      windows of a scan also bounds the entries of every layer.
    """
    g, r = _radius_form(f)
    if m < 2 * r:
        return False
    q = g.q
    check_cap(q ** (2 * m + 2 * r + 1), MAX_WINDOWS,
              f"strong-radius windows at m = {m}")
    table = g.table
    n = q ** (2 * r)
    # prepending cell c to state u reads window c*n + u, whose image is
    # table[c*n + u] and whose first 2r cells are the next state
    moves = [[[] for _ in range(q)] for _ in range(n)]
    for w, b in enumerate(table):
        moves[w % n][b].append(w // q)
    layer = {(u, frozenset((u,))) for u in range(n)}
    for _ in range(m + r):
        nxt = set()
        by_image_of: dict[frozenset, list[frozenset]] = {}
        for u, partners in layer:
            by_image = by_image_of.get(partners)
            if by_image is None:
                by_image = [set() for _ in range(q)]
                for v in partners:
                    for b, out in enumerate(moves[v]):
                        by_image[b].update(out)
                by_image = by_image_of[partners] = [frozenset(s)
                                                    for s in by_image]
            for c in range(q):
                w = c * n + u
                nxt.add((w // q, by_image[table[w]]))
        layer = nxt
    image0 = [0] * n  # bitmask of the images at 0 over the cell at -r
    for w, b in enumerate(table):
        image0[w % n] |= 1 << b
    full = (1 << q) - 1
    for partners in {partners for _, partners in layer}:
        union = 0
        for v in partners:
            union |= image0[v]
        if union != full:
            return False
    return True


# ---------------------------------------------------------------------------
# Pair graph

def _pair_graph(g: LocalRule, r: int):
    """Labeled pair graph on numbered vertices, and its reversal.

    With n = q^(2r), the pair (u, v) of 2r-windows, each numbered by word
    index, is vertex u*n + v.  An edge labeled (b, b') extends u by b and v
    by b', allowed only when the windows u*q + b and v*q + b' of the table
    have the same image, and leads to ((u*q + b) mod n, (v*q + b') mod n).
    Edges run in (b, b') order.  The witness search scans vertices and
    edges in this order and starts its history tree from the cycle
    vertices in ascending number, so each witness is one fixed choice.
    """
    q, table = g.q, g.table
    n = q ** (2 * r)
    # (b, image, next window) of each window u*q + b, which loses its first
    # cell to become the next window
    rows = [[(w % q, table[w], w % n) for w in range(u * q, u * q + q)]
            for u in range(n)]
    fwd = [[((b, b2), su * n + sv)
            for b, fb, su in row_u for b2, fb2, sv in row_v if fb == fb2]
           for row_u in rows for row_v in rows]
    back: list[list] = [[] for _ in fwd]
    for src, outs in enumerate(fwd):
        for lab, tgt in outs:
            back[tgt].append((lab, src))
    return fwd, back


def left_closing_decide(f: LocalRule) -> ClosingVerdict:
    """Decide left-closingness.

    Returns the smallest strong closing radius, or a witness pair of
    distinct right-asymptotic configurations with equal images.  Raises
    ResourceCapError when the pair graph or a candidate radius is over
    MAX_WINDOWS.
    """
    g, r = _radius_form(f)
    check_cap(g.q ** (4 * r + 2), MAX_WINDOWS, "pair graph edge tests")
    fwd, back = _pair_graph(g, r)
    succ = [[tgt for _, tgt in outs] for outs in fwd]
    cyclic = graph.recurrent(succ, graph.strong_components(succ), [])
    has_history = graph.bfs_tree(fwd, cyclic)
    n = g.q ** (2 * r)
    reaches_diagonal = graph.bfs_tree(back, range(0, n * n, n + 1))  # u*n + u

    for src, outs in enumerate(fwd):
        if src not in has_history:
            continue
        for lab, tgt in outs:
            if lab[0] != lab[1] and tgt in reaches_diagonal:
                witness = _build_witness(g, fwd, has_history,
                                         reaches_diagonal, src, lab, tgt)
                return ClosingVerdict("left", False, None, witness)

    m = 2 * r
    while not is_strong_left_closing_radius(g, m):
        m += 1
    return ClosingVerdict("left", True, m, None)


def _build_witness(g, fwd, has_history, reaches_diagonal, src, lab, tgt):
    """Two configurations tracing cycle -> src -> differing edge -> diagonal.

    The cycle labels become the shared-structure left periods, the finite
    part the centers, and both tapes end in zeros once the diagonal absorbs
    them.  The differing edge guarantees distinctness; edge constraints
    guarantee equal images.
    """
    labs_up, root = graph.walk_to_root(has_history, src)
    approach = list(reversed(labs_up))  # labels along root -> src
    cycle = graph.shortest_cycle(fwd, root)
    if cycle is None:
        raise IntegrityError("recurrent vertex lies on no cycle")
    # walking tgt towards the diagonal follows forward edges, so the labels
    # come out already in tape order
    into_diag, _ = graph.walk_to_root(reaches_diagonal, tgt)

    seq = approach + [lab] + into_diag
    x1 = EpConfig(g.q, tuple(a for a, _ in cycle), tuple(a for a, _ in seq),
                  0, (0,))
    x2 = EpConfig(g.q, tuple(b for _, b in cycle), tuple(b for _, b in seq),
                  0, (0,))
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
