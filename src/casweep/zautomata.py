"""Finite automata on bi-infinite words and the exact decision procedures.

An automaton here accepts the label sequences of bi-infinite edge paths that
visit an initial-recurrence state infinitely often to the left and a
final-recurrence state infinitely often to the right.  Eventually periodic
words have decidable membership, emptiness reduces to cycle reachability,
and the class is closed under products and coordinate projections, which is
enough to decide exactly whether a block rule's sweeps realize a given
cellular automaton: no complementation is ever needed because the "differs
somewhere from the image" relation is itself directly recognizable.

One lockstep product, `_product`, pairs the runs of two automata over equal
labels for `member`, `intersect` and `is_slider_rule_for`; `_fiber_square`
(for `is_function`) is the only other product.

Labels are plain integers; a k-track label packs k symbols below q in one
integer, big-endian, so a pair (y, z) reads as y * q + z.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .core import EpConfig, all_words, check_cap, word_of_index
from .ca import LocalRule, minimize_neighborhood
from .blockrule import BlockRule


def decode_label(label: int, q: int, arity: int) -> tuple[int, ...]:
    return word_of_index(label, arity, q)


@dataclass(frozen=True)
class ZAutomaton:
    """States, labeled edges, and the two recurrence sets."""

    q: int
    arity: int
    states: frozenset
    edges: frozenset
    initial: frozenset
    final: frozenset

    @property
    def label_count(self) -> int:
        return self.q ** self.arity

    def successors(self) -> dict:
        # sorted so path and witness extraction are reproducible across runs
        succ: dict = {s: [] for s in self.states}
        for src, label, dst in sorted(self.edges, key=repr):
            succ[src].append((label, dst))
        return succ

    def to_json(self) -> dict:
        order = sorted(self.states, key=repr)
        index = {s: k for k, s in enumerate(order)}
        return {"alphabet": self.q, "arity": self.arity,
                "states": len(order),
                "edges": sorted((index[s], l, index[t])
                                for s, l, t in self.edges),
                "I": sorted(index[s] for s in self.initial),
                "F": sorted(index[s] for s in self.final)}


def _numbered(A: ZAutomaton):
    """The states in iteration order, their numbers, and the edge graph."""
    order = list(A.states)
    index = {s: k for k, s in enumerate(order)}
    succ: list[list[int]] = [[] for _ in order]
    for s, _, t in A.edges:
        succ[index[s]].append(index[t])
    return order, index, succ


def _recurrent_parts(A: ZAutomaton):
    """Numbered states and graph, plus the nodes of the cycles that can carry
    the initial and the final recurrence."""
    order, index, succ = _numbered(A)
    comp = graph.strong_components(succ)
    left = graph.recurrent(succ, comp, [[index[s] for s in A.initial]])
    right = graph.recurrent(succ, comp, [[index[s] for s in A.final]])
    return order, succ, left, right


# ---------------------------------------------------------------------------
# Membership, emptiness, trimming

def member(A: ZAutomaton, x: EpConfig) -> bool:
    """Is the eventually periodic word x accepted?

    The shifts of x form the language of a small automaton: a cycle over
    the left period (initial), the center as a chain, then a cycle over the
    right period (final).  Accepted languages are shift-invariant, because
    a shifted accepting path is still an accepting path, so A accepts x
    exactly when its product with that automaton is not empty.
    """
    if x.q != A.label_count:
        raise ValueError("word alphabet does not match the label space")
    # node p - lo reads cell p next; each period's last node also steps
    # back to the period's first
    start, end = x.center_start, x.center_end
    lo, hi = start - len(x.left_period), end + len(x.right_period)
    edges = {(p - lo, x.cell(p), p + 1 - lo) for p in range(lo, hi - 1)}
    edges.add((start - 1 - lo, x.cell(start - 1), 0))
    edges.add((hi - 1 - lo, x.cell(hi - 1), end - lo))
    shifts = ZAutomaton(A.q, A.arity, frozenset(range(hi - lo)),
                        frozenset(edges), frozenset(range(start - lo)),
                        frozenset(range(end - lo, hi - lo)))
    return not _disjoint(A, shifts)


def is_empty(A: ZAutomaton) -> bool:
    """No bi-infinite path satisfies both recurrence obligations."""
    _, index, succ = _numbered(A)
    return graph.lasso_free(succ, [[index[s] for s in A.initial]],
                            [[index[s] for s in A.final]])


def _labeled_path(A: ZAutomaton, sources: set, targets: set):
    """Shortest edge-label word from any source to any target state."""
    succ = A.successors()
    ordered = sorted(sources, key=repr)
    parents = {s: None for s in ordered}
    frontier = ordered
    while frontier:
        nxt_frontier = []
        for s in frontier:
            if s in targets:
                labels = []
                node = s
                while parents[node] is not None:
                    prev, label = parents[node]
                    labels.append(label)
                    node = prev
                return node, list(reversed(labels)), s
            for label, d in succ[s]:
                if d not in parents:
                    parents[d] = (s, label)
                    nxt_frontier.append(d)
        frontier = nxt_frontier
    return None


def _cycle_through(A: ZAutomaton, state) -> list[int]:
    """Labels of a shortest cycle through the given state."""
    succ = A.successors()
    parents = {state: None}
    frontier = [state]
    while frontier:
        nxt_frontier = []
        for s in frontier:
            for label, d in succ[s]:
                if d == state:
                    labels = [label]
                    node = s
                    while parents[node] is not None:
                        prev, lab = parents[node]
                        labels.append(lab)
                        node = prev
                    return list(reversed(labels))
                if d not in parents:
                    parents[d] = (s, label)
                    nxt_frontier.append(d)
        frontier = nxt_frontier
    raise ValueError("state lies on no cycle")


def nonempty_witness(A: ZAutomaton) -> EpConfig | None:
    """An accepted eventually periodic word, if any exists.

    Left lasso labels become the left period, the connecting path the
    center, the right lasso the right period.
    """
    order, succ, left, right = _recurrent_parts(A)
    reach = graph.reachable(succ, left)
    if not any(reach[v] for v in right):
        return None
    # aim for final states so the right lasso is guaranteed to carry one
    targets = {order[v] for v in right} & A.final
    i_states = {order[v] for v in left} & A.initial
    found = _labeled_path(A, i_states, targets)
    if found is None:
        return None
    i0, center, f0 = found
    lp = _cycle_through(A, i0)
    rp = _cycle_through(A, f0)
    return EpConfig(A.label_count, tuple(lp), tuple(center), 0,
                    tuple(rp)).normalize()


def trim(A: ZAutomaton) -> ZAutomaton:
    """Drop states on no accepting bi-infinite path; language unchanged."""
    order, succ, left, right = _recurrent_parts(A)
    after_left = graph.reachable(succ, left)
    before_right = graph.reachable(graph.reverse(succ), right)
    keep = {s for s, a, b in zip(order, after_left, before_right) if a and b}
    return ZAutomaton(A.q, A.arity, frozenset(keep),
                      frozenset((s, l, t) for s, l, t in A.edges
                                if s in keep and t in keep),
                      A.initial & keep, A.final & keep)


# ---------------------------------------------------------------------------
# Products and projections

def _product(A: ZAutomaton, B: ZAutomaton):
    """Edge graph of pairs of runs of A and B over the same labels.

    Node ka * |B| + kb pairs state order_a[ka] of A with order_b[kb] of B,
    and succ[v] lists the (label, node) edges leaving node v.  Returns the
    two state orders, succ, the initial sets of both sides and their final
    sets.
    """
    if A.q != B.q or A.arity != B.arity:
        raise ValueError("alphabet mismatch")
    order_a, order_b = list(A.states), list(B.states)
    index_a = {s: k for k, s in enumerate(order_a)}
    index_b = {s: k for k, s in enumerate(order_b)}
    na, nb = len(order_a), len(order_b)
    by_label: dict = {}
    for s, label, t in B.edges:
        by_label.setdefault(label, []).append((index_b[s], index_b[t]))
    succ: list[list[tuple[int, int]]] = [[] for _ in range(na * nb)]
    for sa, label, ta in A.edges:
        src, dst = index_a[sa] * nb, index_a[ta] * nb
        for sb, tb in by_label.get(label, ()):
            succ[src + sb].append((label, dst + tb))

    def on_a(states):
        return [index_a[s] * nb + kb for s in states for kb in range(nb)]

    def on_b(states):
        return [ka * nb + index_b[s] for s in states for ka in range(na)]

    return (order_a, order_b, succ, [on_a(A.initial), on_b(B.initial)],
            [on_a(A.final), on_b(B.final)])


def _disjoint(A: ZAutomaton, B: ZAutomaton) -> bool:
    """Do L(A) and L(B) share no word?  Emptiness of their product."""
    _, _, succ, lefts, rights = _product(A, B)
    return graph.lasso_free([[w for _, w in out] for out in succ],
                            lefts, rights)


def intersect(A: ZAutomaton, B: ZAutomaton) -> ZAutomaton:
    """Automaton for L(A) & L(B) on the states (sa, sb, lflag, rflag).

    Each side owes two recurrence visits; one alternation flag per side
    reduces them to one: the flag advances when the currently watched
    component recurs, and the product recurrence set is "flag at rest and
    the first component recurring".
    """
    order_a, order_b, succ, _, _ = _product(A, B)
    nb = len(order_b)
    states = set()
    edges = set()
    for v, out in enumerate(succ):
        sa, sb = order_a[v // nb], order_b[v % nb]
        # (source flag, target flag) pairs each side's flag can take
        rflags = ((0, int(sa in A.final)), (1, int(sb not in B.final)))
        for label, w in out:
            ta, tb = order_a[w // nb], order_b[w % nb]
            lflags = ((int(ta in A.initial), 0), (int(tb not in B.initial), 1))
            for lflag_s, lflag_t in lflags:
                for rflag_s, rflag_t in rflags:
                    src = (sa, sb, lflag_s, rflag_s)
                    dst = (ta, tb, lflag_t, rflag_t)
                    states.add(src)
                    states.add(dst)
                    edges.add((src, label, dst))
    initial = frozenset(s for s in states if s[2] == 0 and s[0] in A.initial)
    final = frozenset(s for s in states if s[3] == 0 and s[0] in A.final)
    return ZAutomaton(A.q, A.arity, frozenset(states), frozenset(edges),
                      initial, final)


def project(A: ZAutomaton, coordinate: int) -> ZAutomaton:
    """Keep one track of a product-alphabet automaton."""
    if A.arity < 2:
        raise ValueError("projection needs a product alphabet")
    if not 0 <= coordinate < A.arity:
        raise ValueError("coordinate out of range")
    edges = frozenset(
        (s, decode_label(label, A.q, A.arity)[coordinate], t)
        for s, label, t in A.edges)
    return ZAutomaton(A.q, 1, A.states, edges, A.initial, A.final)


# ---------------------------------------------------------------------------
# Relation automata

def slider_relation_automaton(chi: BlockRule,
                              max_states: int | None = None) -> ZAutomaton:
    """Automaton for the pairs (y, z) the block rule's two sweeps represent.

    Reading left to right, the run simulates the backward inverse sweep with
    inverted edges while buffering its cell emissions, crosses a bridge of
    m-1 positions where the guessed free cells are handed over, then
    simulates the forward sweep with the output buffer delaying the
    comparison by m-1 cells.  The left states and right states carry the
    recurrence obligations, so accepted paths cross the bridge exactly once;
    shift invariance of the relation makes the crossing position immaterial.
    """
    if not chi.is_bijective():
        raise ValueError("slider relations need a bijective block rule")
    q, m = chi.q, chi.block_length
    check_cap(2 if m == 1 else m * q ** (2 * m - 2), max_states,
              "slider automaton states")
    inv = chi.inverse()
    states = set()
    edges = set()

    def lab(y, z):
        return y * q + z

    if m == 1:
        L = ("L", (), ())
        R = ("R", (), ())
        states.update((L, R))
        for y in range(q):
            z = chi((y,))[0]
            edges.add((L, lab(y, z), L))
            edges.add((L, lab(y, z), R))
            edges.add((R, lab(y, z), R))
        return ZAutomaton(q, 2, frozenset(states), frozenset(edges),
                          frozenset([L]), frozenset([R]))

    for vt in all_words(m - 1, q):
        for z in range(q):
            img = inv((z,) + vt)
            vs, em = img[:m - 1], img[m - 1]
            for y0 in range(q):
                for ytail in all_words(m - 2, q):
                    src = ("L", vs, (y0,) + ytail)
                    dst = ("L", vt, ytail + (em,))
                    states.update((src, dst))
                    edges.add((src, lab(y0, z), dst))
    # bridge: hand the guessed window across while draining the y-buffer
    for v in all_words(m - 1, q):
        for ybuf in all_words(m - 1, q):
            src = ("L", v, ybuf)
            for z in range(q):
                if m == 2:
                    dst = ("R", v, (z,))
                else:
                    dst = ("B", 1, v, ybuf[1:], (z,))
                states.update((src, dst))
                edges.add((src, lab(ybuf[0], z), dst))
    for t in range(1, m - 1):
        for v in all_words(m - 1, q):
            for yrest in all_words(m - 1 - t, q):
                for zacc in all_words(t, q):
                    src = ("B", t, v, yrest, zacc)
                    for z in range(q):
                        if t + 1 < m - 1:
                            dst = ("B", t + 1, v, yrest[1:], zacc + (z,))
                        else:
                            dst = ("R", v, zacc + (z,))
                        states.update((src, dst))
                        edges.add((src, lab(yrest[0], z), dst))
    for c in all_words(m - 1, q):
        for zpend in all_words(m - 1, q):
            src = ("R", c, zpend)
            for y in range(q):
                img = chi(c + (y,))
                if img[0] != zpend[0]:
                    continue
                for z in range(q):
                    dst = ("R", img[1:], zpend[1:] + (z,))
                    states.update((src, dst))
                    edges.add((src, lab(y, z), dst))
    initial = frozenset(s for s in states if s[0] == "L")
    final = frozenset(s for s in states if s[0] == "R")
    return ZAutomaton(q, 2, frozenset(states), frozenset(edges), initial,
                      final)


def sweeper_relation_automaton(chi: BlockRule,
                               max_states: int | None = None) -> ZAutomaton:
    """Automaton for the pairs (y, z) with z an accumulation point of the
    sweeps of y anchored further and further left.

    The run guesses the bi-infinite chain of sweep windows producing z and
    certifies it with one probe at a time: a probe collects m raw input
    cells from some anchor position, then sweeps along until it coincides
    with the chain, which flags the state.  Flags recurring to the left
    mean arbitrarily far anchors reach the chain, which is exactly
    membership; no obligation falls on the right side.
    """
    q, m = chi.q, chi.block_length
    check_cap(1 if m == 1 else
              2 * q ** (2 * m - 2) * (1 + sum(q ** t for t in range(1, m))),
              max_states, "sweeper automaton states")
    states = set()
    edges = set()

    def lab(y, z):
        return y * q + z

    if m == 1:
        S = ("S",)
        for y in range(q):
            edges.add((S, lab(y, chi((y,))[0]), S))
        return ZAutomaton(q, 2, frozenset([S]), frozenset(edges),
                          frozenset([S]), frozenset([S]))

    idle = ("idle",)
    partials = [idle] + [w for t in range(1, m) for w in all_words(t, q)]
    for mm in all_words(m - 1, q):
        for zp in all_words(m - 1, q):
            for u in partials:
                for flag in (False, True):
                    src = ("S", mm, zp, u, flag)
                    states.add(src)
                    for y in range(q):
                        img = chi(mm + (y,))
                        if img[0] != zp[0]:
                            continue
                        m2 = img[1:]
                        for z in range(q):
                            zp2 = zp[1:] + (z,)
                            moves = []
                            if u == idle:
                                moves.append((idle, False))
                                moves.append(((y,), False))
                            elif len(u) < m - 1:
                                moves.append((u + (y,), False))
                            elif u == mm:
                                moves.append((idle, True))
                            else:
                                moves.append((chi(u + (y,))[1:], False))
                            for u2, flag2 in moves:
                                dst = ("S", m2, zp2, u2, flag2)
                                states.add(dst)
                                edges.add((src, lab(y, z), dst))
    initial = frozenset(s for s in states if s[4])
    final = frozenset(states)
    return ZAutomaton(q, 2, frozenset(states), frozenset(edges), initial,
                      final)


def graph_mismatch_automaton(f: LocalRule) -> ZAutomaton:
    """Automaton for the pairs (y, z) with z differing from f(y) somewhere.

    The run tracks enough recent input to evaluate one local window, guesses
    the differing position, and falls into an absorbing state; when the rule
    looks ahead the comparison value is carried in a countdown instead.
    """
    g = minimize_neighborhood(f)
    q, w = g.q, g.width
    lag = g.anchor + g.width - 1
    after = ("after",)
    states = {after}
    edges = set()

    def lab(y, z):
        return y * q + z

    all_labels = [lab(y, z) for y in range(q) for z in range(q)]
    for label in all_labels:
        edges.add((after, label, after))
    zlen = max(lag, 0)
    for ybuf in all_words(w - 1, q):
        for zbuf in all_words(zlen, q):
            src = ("pre", ybuf, zbuf)
            states.add(src)
            for y in range(q):
                for z in range(q):
                    dst = ("pre", (ybuf + (y,))[1:] if w > 1 else (),
                           (zbuf + (z,))[1:] if zlen else ())
                    states.add(dst)
                    edges.add((src, lab(y, z), dst))
                    value = g(ybuf + (y,))
                    compare = zbuf[0] if lag > 0 else (z if lag == 0 else None)
                    if compare is not None:
                        if value != compare:
                            edges.add((src, lab(y, z), after))
                    else:
                        # rule looks left of the output cell: count down
                        steps = -lag
                        dst2 = ("count", value, steps) if steps > 1 \
                            else ("cmp", value)
                        states.add(dst2)
                        edges.add((src, lab(y, z), dst2))
    if lag < 0:
        for value in range(q):
            for steps in range(2, -lag + 1):
                src = ("count", value, steps)
                states.add(src)
                dst = ("count", value, steps - 1) if steps > 2 \
                    else ("cmp", value)
                states.add(dst)
                for label in all_labels:
                    edges.add((src, label, dst))
            src = ("cmp", value)
            states.add(src)
            for y in range(q):
                for z in range(q):
                    if z != value:
                        edges.add((src, lab(y, z), after))
    initial = frozenset(s for s in states if s[0] == "pre")
    return ZAutomaton(q, 2, frozenset(states), frozenset(edges), initial,
                      frozenset([after]))


def _differs_in_last_two(q: int) -> ZAutomaton:
    """Triples (y, z, z') with z unequal to z' at some position."""
    pre = ("pre",)
    after = ("after",)
    edges = set()
    for y in range(q):
        for z in range(q):
            for z2 in range(q):
                label = (y * q + z) * q + z2
                edges.add((pre, label, pre))
                edges.add((after, label, after))
                if z != z2:
                    edges.add((pre, label, after))
    return ZAutomaton(q, 3, frozenset([pre, after]), frozenset(edges),
                      frozenset([pre]), frozenset([after]))


def _fiber_square(A: ZAutomaton):
    """Edge graph of pairs of runs of A sharing the first track.

    Returns the graph over numbered (state, state, diff-phase) nodes
    together with the recurrence sets of both run copies and of the
    difference tracker, labels expanded to triples.
    """
    if A.arity != 2:
        raise ValueError("fiber product needs a two-track automaton")
    q = A.q
    by_y: dict = {}
    for s, label, t in A.edges:
        y, z = decode_label(label, q, 2)
        by_y.setdefault(y, []).append((s, z, t))
    diff = _differs_in_last_two(q)
    dsucc: dict = {}
    for s, label, t in diff.edges:
        dsucc.setdefault((s, label), []).append(t)
    ids: dict = {}
    succ: list[list[int]] = []

    def node(key) -> int:
        k = ids.get(key)
        if k is None:
            k = ids[key] = len(succ)
            succ.append([])
        return k

    for y, group in by_y.items():
        for (s1, z1, t1) in group:
            for (s2, z2, t2) in group:
                label = (y * q + z1) * q + z2
                for ds in (("pre",), ("after",)):
                    for dt in dsucc.get((ds, label), ()):
                        succ[node((s1, s2, ds))].append(node((t1, t2, dt)))

    def marked(track, states):
        return [k for n, k in ids.items() if n[track] in states]

    lefts = [marked(0, A.initial), marked(1, A.initial),
             marked(2, diff.initial)]
    rights = [marked(0, A.final), marked(1, A.final), marked(2, diff.final)]
    return succ, lefts, rights


def is_function(A: ZAutomaton) -> bool:
    """Does every accepted first track carry exactly one second track?

    Two runs over a shared first track whose second tracks differ somewhere
    witness non-functionality; the check is emptiness of that three-track
    product, built directly instead of via complementation.
    """
    return graph.lasso_free(*_fiber_square(A))


def is_slider_rule_for(chi: BlockRule, f: LocalRule,
                       max_states: int | None = None) -> bool:
    """Is the relation represented by the block rule exactly the graph of f?

    For bijective rules the relation is total on inputs and maps each input
    to the inputs' full configuration space image, so containment in the
    graph of f already forces equality: it suffices that no represented
    pair disagrees with f anywhere.  The slider automaton is trimmed first:
    only its states on accepting paths can take part in such a pair.
    """
    if chi.q != f.q:
        raise ValueError("alphabet mismatch")
    return _disjoint(trim(slider_relation_automaton(chi, max_states)),
                     graph_mismatch_automaton(f))


def sweeper_defines_function(chi: BlockRule) -> bool:
    """Do the leftward-anchored sweeps converge on every input?"""
    return is_function(trim(sweeper_relation_automaton(chi)))
