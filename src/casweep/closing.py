"""Closingness analysis of local rules.

A rule is left-closing when no two distinct right-asymptotic configurations
have the same image; right-closing is the mirror notion.  Left-closingness
is decided on a pair graph whose vertices are pairs of preimage windows and
whose edges are constrained by image equality: the rule fails to be
left-closing exactly when some differing-letter edge has an infinite
incoming history (its source is reachable from a cycle) and an outgoing
path into the diagonal.  Such a path skeleton converts directly into an
eventually periodic witness pair.

For a left-closing rule the module also finds the smallest strong closing
radius: the least m >= 2r such that knowing m preimage cells to the right
and the 2m image cells below them pins down, for every possible next image
cell, exactly one next preimage cell.  That unique-extension property powers
the stair counting and synthesis modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .core import (EpConfig, IntegrityError, all_words, check_cap, ep_equal,
                   ep_to_json)
from .ca import (LocalRule, apply_ep, minimize_neighborhood, mirror,
                 to_radius_form)

# Windows one pair graph or strong-radius scan may test: 60 times the 6^7
# that the largest bundled rule needs.
MAX_WINDOWS = 1 << 24


@dataclass(frozen=True)
class StrongRadiusCheck:
    """Outcome of testing one candidate strong closing radius."""

    ok: bool
    reason: str  # "ok", "m_below_2r", "existence", "uniqueness"

    def __bool__(self) -> bool:
        return self.ok


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


def is_strong_left_closing_radius(f: LocalRule, m: int) -> StrongRadiusCheck:
    """Test whether m is a strong left-closing radius of f.

    Enumerates every preimage window on positions [-r, 2m+r] and buckets it
    by (s, t, b) where s is the preimage on (m, 2m], t the image on (0, 2m]
    and b the image at 0.  The radius is strong when each occurring (s, t)
    leaves, for every b, exactly one choice of preimage cell a at position m.
    A transfer-matrix formulation would avoid the full enumeration; at the
    window lengths used here the direct scan is fast enough.
    """
    g, r = _radius_form(f)
    if m < 2 * r:
        return StrongRadiusCheck(False, "m_below_2r")
    q = g.q
    check_cap(q ** (2 * m + 2 * r + 1), MAX_WINDOWS,
              f"strong-radius scan at m = {m}")
    table = g.table
    width = 2 * r + 1
    mod = q ** (width - 1)
    buckets: dict[tuple, list[set[int]]] = {}
    for z in all_words(2 * m + 2 * r + 1, q):
        idx = 0
        for c in z[:width]:
            idx = idx * q + c
        imgs = [table[idx]]
        for c in z[width:]:
            idx = (idx % mod) * q + c
            imgs.append(table[idx])
        # z[k] is the preimage cell at position k - r; imgs[c] is image cell c
        s = z[m + 1 + r:2 * m + r + 1]
        key = (s, tuple(imgs[1:]))
        per_b = buckets.get(key)
        if per_b is None:
            per_b = [set() for _ in range(q)]
            buckets[key] = per_b
        per_b[imgs[0]].add(z[m + r])
    for per_b in buckets.values():
        for aset in per_b:
            if not aset:
                return StrongRadiusCheck(False, "existence")
            if len(aset) > 1:
                return StrongRadiusCheck(False, "uniqueness")
    return StrongRadiusCheck(True, "ok")


# ---------------------------------------------------------------------------
# Pair graph

def _pair_graph(g: LocalRule, r: int):
    """Vertices: pairs of 2r-windows.  An edge labeled (b, b') extends both
    windows by one cell, allowed only when the two images agree.  Returns
    the labeled adjacency, its reversal, and the differing-letter edges.
    """
    q = g.q
    fwd: dict[tuple, list[tuple]] = {}
    differing = []
    for u in all_words(2 * r, q):
        for v in all_words(2 * r, q):
            outs = []
            for b in range(q):
                fb = g(u + (b,))
                for b2 in range(q):
                    if fb != g(v + (b2,)):
                        continue
                    tgt = (u[1:] + (b,), v[1:] + (b2,))
                    outs.append(((b, b2), tgt))
                    if b != b2:
                        differing.append(((u, v), (b, b2), tgt))
            fwd[(u, v)] = outs
    back: dict[tuple, list[tuple]] = {v: [] for v in fwd}
    for src, outs in fwd.items():
        for lab, tgt in outs:
            back[tgt].append((lab, src))
    return fwd, back, differing


def _recurrent_vertices(fwd) -> set:
    order = list(fwd)
    index = {v: k for k, v in enumerate(order)}
    cyclic = graph.on_cycle([[index[tgt] for _, tgt in fwd[v]] for v in order])
    return {v for v, hit in zip(order, cyclic) if hit}


def left_closing_decide(f: LocalRule) -> ClosingVerdict:
    """Decide left-closingness.

    Returns the smallest strong closing radius, or a witness pair of
    distinct right-asymptotic configurations with equal images.  Raises
    ResourceCapError when the pair graph or a radius scan would test more
    than MAX_WINDOWS windows.
    """
    g, r = _radius_form(f)
    check_cap(g.q ** (4 * r + 2), MAX_WINDOWS, "pair graph edge tests")
    fwd, back, differing = _pair_graph(g, r)
    recurrent = _recurrent_vertices(fwd)
    has_history = graph.bfs_tree(fwd, recurrent)
    diagonal = [v for v in fwd if v[0] == v[1]]
    reaches_diagonal = graph.bfs_tree(back, diagonal)

    for src, lab, tgt in differing:
        if src in has_history and tgt in reaches_diagonal:
            witness = _build_witness(g, fwd, has_history, reaches_diagonal,
                                     src, lab, tgt)
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
