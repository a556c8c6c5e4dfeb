"""Finite automata on bi-infinite words and the exact decision procedures.

An automaton here accepts the label sequences of bi-infinite edge paths that
visit an initial-recurrence state infinitely often to the left and a
final-recurrence state infinitely often to the right.  Eventually periodic
words have decidable membership, emptiness reduces to cycle reachability,
and the class is closed under products and coordinate projections, which is
enough to decide exactly whether a block rule's sweeps realize a given
cellular automaton: no complementation is ever needed because the "differs
somewhere from the image" relation is itself directly recognizable.

States are the numbers 0..n-1, fixed once when an automaton is built.  The
builders name their states and `ZAutomaton.from_named` numbers them in
`repr` order of the names, with each successor list sorted by (label,
target); `trim` keeps a subset of the numbers in order, and `intersect`
numbers its states (a, b, lflag, rflag) lexicographically, which is the
`repr` order of the product names (a's name, b's name, lflag, rflag).  Since
the numbering is a function of the language's presentation, not of set
iteration order, `to_json` writes the stored lists as they are, dataclass
`==` compares automata directly, and the witness search walks the successor
lists in stored order, so dumps and witnesses are reproducible.

One lockstep product, `_product`, pairs the runs of two automata over equal
labels for `member`, `intersect` and `is_slider_rule_for`; `_fiber_square`
(for `is_function`) is the only other product.  Witness paths and cycles
come from the shared labeled path search in `casweep.graph`.

Labels are plain integers; a k-track label packs k symbols below q in one
integer, big-endian, so a pair (y, z) reads as y * q + z.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .core import EpConfig, all_words, check_cap, word_of_index
from .ca import LocalRule, minimize_neighborhood
from .blockrule import BlockRule


@dataclass(frozen=True)
class ZAutomaton:
    """Numbered states, labeled successor lists, and the recurrence sets.

    State k is named `states[k]`; `succ[k]` lists the (label, target) edges
    leaving it, sorted; `initial` and `final` are ascending state numbers.
    """

    q: int
    arity: int
    states: tuple
    succ: tuple[tuple[tuple[int, int], ...], ...]
    initial: tuple[int, ...]
    final: tuple[int, ...]

    @classmethod
    def from_named(cls, q: int, arity: int, states, edges, initial,
                   final) -> ZAutomaton:
        """Number named states in `repr` order; edges is a set of (state,
        label, state) triples."""
        names = tuple(sorted(states, key=repr))
        index = {s: k for k, s in enumerate(names)}
        succ: list[list[tuple[int, int]]] = [[] for _ in names]
        for s, label, t in edges:
            succ[index[s]].append((label, index[t]))
        return cls(q, arity, names, tuple(tuple(sorted(out)) for out in succ),
                   tuple(sorted(index[s] for s in initial)),
                   tuple(sorted(index[s] for s in final)))

    @property
    def label_count(self) -> int:
        return self.q ** self.arity

    @property
    def edges(self) -> _Edges:
        """The (state, label, state) triples, sized without being listed."""
        return _Edges(self.succ)

    def to_json(self) -> dict:
        return {"alphabet": self.q, "arity": self.arity,
                "states": len(self.states), "edges": list(self.edges),
                "I": list(self.initial), "F": list(self.final)}


class _Edges:
    """Edges of an automaton in (state, label, target) order."""

    def __init__(self, succ):
        self._succ = succ

    def __len__(self) -> int:
        return sum(map(len, self._succ))

    def __iter__(self):
        for s, out in enumerate(self._succ):
            for label, t in out:
                yield s, label, t


def _targets(A: ZAutomaton) -> list[list[int]]:
    """The edge graph without labels, for the graph kernel."""
    return [[t for _, t in out] for out in A.succ]


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
    succ = [[(x.cell(p), p + 1 - lo)] for p in range(lo, hi - 1)] + [[]]
    succ[start - 1 - lo].insert(0, (x.cell(start - 1), 0))
    succ[hi - 1 - lo].append((x.cell(hi - 1), end - lo))
    shifts = ZAutomaton(A.q, A.arity, tuple(range(lo, hi)),
                        tuple(map(tuple, succ)), tuple(range(start - lo)),
                        tuple(range(end - lo, hi - lo)))
    return not _disjoint(A, shifts)


def is_empty(A: ZAutomaton) -> bool:
    """No bi-infinite path satisfies both recurrence obligations."""
    return graph.lasso_free(_targets(A), [A.initial], [A.final])


def nonempty_witness(A: ZAutomaton) -> EpConfig | None:
    """An accepted eventually periodic word, if any exists.

    A shortest path leads from the first recurrent initial state that can
    to the nearest recurrent final state; shortest cycles through its two
    ends become the left and the right period, the path the center.
    """
    succ = _targets(A)
    comp = graph.strong_components(succ)
    initial = set(A.initial)
    starts = [v for v in graph.recurrent(succ, comp, [A.initial])
              if v in initial]
    ends = set(graph.recurrent(succ, comp, [A.final])).intersection(A.final)
    parents = graph.bfs_tree(A.succ, starts)
    f0 = next((v for v in parents if v in ends), None)
    if f0 is None:
        return None
    labels, i0 = graph.walk_to_root(parents, f0)
    lp = graph.shortest_cycle(A.succ, i0)
    rp = graph.shortest_cycle(A.succ, f0)
    return EpConfig(A.label_count, tuple(lp), tuple(reversed(labels)), 0,
                    tuple(rp)).normalize()


def trim(A: ZAutomaton) -> ZAutomaton:
    """Drop states on no accepting bi-infinite path; language unchanged."""
    succ = _targets(A)
    comp = graph.strong_components(succ)
    after_left = graph.reachable(succ, graph.recurrent(succ, comp,
                                                       [A.initial]))
    before_right = graph.reachable(graph.reverse(succ), graph.recurrent(
        succ, comp, [A.final]))
    keep = [v for v in range(len(succ)) if after_left[v] and before_right[v]]
    number = [-1] * len(succ)
    for k, v in enumerate(keep):
        number[v] = k
    return ZAutomaton(
        A.q, A.arity, tuple(A.states[v] for v in keep),
        tuple(tuple((label, number[t]) for label, t in A.succ[v]
                    if number[t] >= 0) for v in keep),
        tuple(number[v] for v in A.initial if number[v] >= 0),
        tuple(number[v] for v in A.final if number[v] >= 0))


# ---------------------------------------------------------------------------
# Products and projections

def _product(A: ZAutomaton, B: ZAutomaton):
    """Edge graph of pairs of runs of A and B over the same labels.

    Node a * |B| + b pairs state a of A with state b of B, and succ[v]
    lists the (label, node) edges leaving node v, sorted.  Returns succ,
    the initial sets of both sides and their final sets.
    """
    if A.q != B.q or A.arity != B.arity:
        raise ValueError("alphabet mismatch")
    na, nb = len(A.states), len(B.states)
    by_label: dict = {}
    for sb, out in enumerate(B.succ):
        for label, tb in out:
            by_label.setdefault(label, []).append((sb, tb))
    succ: list[list[tuple[int, int]]] = [[] for _ in range(na * nb)]
    for sa, out in enumerate(A.succ):
        src = sa * nb
        for label, ta in out:
            dst = ta * nb
            for sb, tb in by_label.get(label, ()):
                succ[src + sb].append((label, dst + tb))

    def on_a(states):
        return [a * nb + b for a in states for b in range(nb)]

    def on_b(states):
        return [a * nb + b for b in states for a in range(na)]

    return (succ, [on_a(A.initial), on_b(B.initial)],
            [on_a(A.final), on_b(B.final)])


def _disjoint(A: ZAutomaton, B: ZAutomaton) -> bool:
    """Do L(A) and L(B) share no word?  Emptiness of their product."""
    succ, lefts, rights = _product(A, B)
    return graph.lasso_free([[w for _, w in out] for out in succ],
                            lefts, rights)


def _marks(n: int, states) -> bytearray:
    flags = bytearray(n)
    for s in states:
        flags[s] = 1
    return flags


def intersect(A: ZAutomaton, B: ZAutomaton) -> ZAutomaton:
    """Automaton for L(A) & L(B) on the states (sa, sb, lflag, rflag).

    Each side owes two recurrence visits; one alternation flag per side
    reduces them to one: the flag advances when the currently watched
    component recurs, and the product recurrence set is "flag at rest and
    the first component recurring".  Only states on some edge are kept.
    """
    succ, _, _ = _product(A, B)
    nb = len(B.states)
    ia, fa = _marks(len(A.states), A.initial), _marks(len(A.states), A.final)
    ib, fb = _marks(nb, B.initial), _marks(nb, B.final)

    def flag_edges():
        # state (v, lflag, rflag) is key 4v + 2 lflag + rflag, so keys
        # ascend with (sa, sb, lflag, rflag)
        for v, out in enumerate(succ):
            # (source flag, target flag) pairs each side's flag can take
            rflags = ((0, fa[v // nb]), (1, 1 - fb[v % nb]))
            for label, w in out:
                lflags = ((ia[w // nb], 0), (1 - ib[w % nb], 1))
                for lflag_s, lflag_t in lflags:
                    for rflag_s, rflag_t in rflags:
                        yield (4 * v + 2 * lflag_s + rflag_s, label,
                               4 * w + 2 * lflag_t + rflag_t)

    used = bytearray(4 * len(succ))
    for src, _, dst in flag_edges():
        used[src] = used[dst] = 1
    keys = [k for k, hit in enumerate(used) if hit]
    number = [-1] * len(used)
    for n, k in enumerate(keys):
        number[k] = n
    out_lists: list[list[tuple[int, int]]] = [[] for _ in keys]
    for src, label, dst in flag_edges():
        out_lists[number[src]].append((label, number[dst]))
    names = tuple((A.states[k // 4 // nb], B.states[k // 4 % nb],
                   k // 2 % 2, k % 2) for k in keys)
    return ZAutomaton(
        A.q, A.arity, names, tuple(map(tuple, out_lists)),
        tuple(n for n, k in enumerate(keys) if k // 2 % 2 == 0
              and ia[k // 4 // nb]),
        tuple(n for n, k in enumerate(keys) if k % 2 == 0
              and fa[k // 4 // nb]))


def project(A: ZAutomaton, coordinate: int) -> ZAutomaton:
    """Keep one track of a product-alphabet automaton."""
    if A.arity < 2:
        raise ValueError("projection needs a product alphabet")
    if not 0 <= coordinate < A.arity:
        raise ValueError("coordinate out of range")
    succ = tuple(
        tuple(sorted({(word_of_index(label, A.arity, A.q)[coordinate], t)
                      for label, t in out}))
        for out in A.succ)
    return ZAutomaton(A.q, 1, A.states, succ, A.initial, A.final)


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
        return ZAutomaton.from_named(q, 2, states, edges, [L], [R])

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
    return ZAutomaton.from_named(q, 2, states, edges,
                                 [s for s in states if s[0] == "L"],
                                 [s for s in states if s[0] == "R"])


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
        return ZAutomaton.from_named(q, 2, [S], edges, [S], [S])

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
    return ZAutomaton.from_named(q, 2, states, edges,
                                 [s for s in states if s[4]], states)


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
    return ZAutomaton.from_named(q, 2, states, edges,
                                 [s for s in states if s[0] == "pre"],
                                 [after])


def _fiber_square(A: ZAutomaton):
    """Edge graph of pairs of runs of A sharing the first track.

    Node 2 (a * n + b) + d pairs states a and b of A, with d = 1 once their
    second tracks have differed.  Returns the graph with the recurrence
    sets of both run copies and of the difference (before it to the left,
    after it to the right).
    """
    if A.arity != 2:
        raise ValueError("fiber product needs a two-track automaton")
    n = len(A.states)
    by_y: dict = {}
    for s, out in enumerate(A.succ):
        for label, t in out:
            y, z = divmod(label, A.q)
            by_y.setdefault(y, []).append((s, z, t))
    succ: list[list[int]] = [[] for _ in range(2 * n * n)]
    for group in by_y.values():
        for (s1, z1, t1) in group:
            for (s2, z2, t2) in group:
                src, dst = 2 * (s1 * n + s2), 2 * (t1 * n + t2)
                succ[src].append(dst)
                succ[src + 1].append(dst + 1)
                if z1 != z2:
                    succ[src].append(dst + 1)

    def on(states, copy: int):
        marked = _marks(n, states)
        return [v for v in range(len(succ))
                if marked[v // 2 // n if copy == 0 else v // 2 % n]]

    return (succ, [on(A.initial, 0), on(A.initial, 1), range(0, len(succ), 2)],
            [on(A.final, 0), on(A.final, 1), range(1, len(succ), 2)])


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
