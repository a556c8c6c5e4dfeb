"""Finite automata on bi-infinite words and the exact decision procedures.

An automaton here accepts the label sequences of bi-infinite edge paths that
visit an initial-recurrence state infinitely often to the left and a
final-recurrence state infinitely often to the right.  Eventually periodic
words have decidable membership, emptiness reduces to cycle reachability,
and the class is closed under products, which is enough to decide exactly
whether a block rule's sweeps realize a given cellular automaton: no
complementation is ever needed because the "differs somewhere from the
image" relation is itself directly recognizable.

States are the numbers 0..n-1, each a mixed-radix code computed by its
builder (the state's kind, then the `word_index` of its parts; the slider
builder and `trim` keep a subset of the codes in order, `intersect` orders
(a, b, lflag, rflag) lexicographically), with successors sorted by (label,
target), so dumps, `==` and witnesses are reproducible.

The slider automaton of a block rule of length m numbers m q^(2m-2)
states, but `slider_relation_automaton` builds only the live ones, for the
exact check and for `automata` alike: three passes list the L states with
an infinite past, the R states with an infinite future and the bridge
states joining them, each layer capped by a running total of states before
it is allocated; a synthesized q=3 rule of length 7 keeps 8,505 of
3,720,087.

One lockstep product, `_product`, pairs the runs of two automata over equal
labels; it is the only product, and it builds only the pairs its seeds
reach.  `intersect` seeds every pair.  The emptiness test behind `member`
and `is_slider_rule_for` seeds the pairs that reach every left-recurrent
pair (`_left_seeds`): the q=2 block-13 exact check of x0 xor x2 builds
86,016 of the 1,183,744 pairs.  Witness paths and cycles come from the
shared labeled path search in `casweep.graph`.

Labels are plain integers; a k-track label packs k symbols below q in one
integer, big-endian, so a pair (y, z) reads as y * q + z.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass
from itertools import repeat

from . import graph
from .core import EpConfig, check_cap, check_power_cap
from .ca import LocalRule, minimize_neighborhood
from .blockrule import BlockRule


@dataclass(frozen=True)
class ZAutomaton:
    """Numbered states, labeled successor lists, and the recurrence sets.

    `states` has one entry per state: the sweeper and mismatch builders use
    range(n), the slider builder the codes of its live states; `trim` and
    `intersect` carry over the entries of the states they keep; `succ[k]`
    lists the (label, target) edges leaving state k, sorted; `initial` and
    `final` are ascending state numbers.
    """

    q: int
    arity: int
    states: Sequence
    succ: tuple[tuple[tuple[int, int], ...], ...]
    initial: tuple[int, ...]
    final: tuple[int, ...]

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
# Products

def _product(A: ZAutomaton, B: ZAutomaton, seeds):
    """Edge graph of the pairs of runs of A and B over the same labels,
    built only from the pairs the seeds reach.

    Pair (a, b) has the code a * |B| + b, and seeds lists codes.  Nodes are
    numbered in the order they are found, the seeds first, so seeding every
    code in ascending order numbers each pair by its code.  Returns the
    code of each node and succ, where succ[v] lists the (label, node) edges
    leaving node v in (label, a, b) order of their targets.
    """
    if A.q != B.q or A.arity != B.arity:
        raise ValueError("alphabet mismatch")
    nb = len(B.states)
    by_label: list[dict] = [{} for _ in range(nb)]
    for sb, out in enumerate(B.succ):
        for label, tb in out:
            by_label[sb].setdefault(label, []).append(tb)
    codes = list(dict.fromkeys(seeds))
    number = {code: v for v, code in enumerate(codes)}
    succ: list[list[tuple[int, int]]] = []
    for code in codes:  # the loop also visits what it appends
        sa, sb = divmod(code, nb)
        moves = by_label[sb]
        out = []
        for label, ta in A.succ[sa]:
            for tb in moves.get(label, ()):
                dst = ta * nb + tb
                w = number.get(dst)
                if w is None:
                    w = number[dst] = len(codes)
                    codes.append(dst)
                out.append((label, w))
        succ.append(out)
    return codes, succ


def _left_recurrent(A: ZAutomaton) -> list[int]:
    """States with an infinite past through initial states: those of the
    components that hold a cycle and meet `initial`."""
    succ = _targets(A)
    return graph.recurrent(succ, graph.strong_components(succ), [A.initial])


def _left_seeds(A: ZAutomaton, B: ZAutomaton) -> list[int]:
    """Codes of product pairs from which every left-recurrent pair is
    reachable; B should be the small side.

    Each left-recurrent state a of A starts a run with the set of all
    left-recurrent states of B.  Along an edge (label, a2) of A inside its
    left-recurrent states, the set becomes the label-successors of its
    states inside B's.  A run whose set shrinks to one state b yields the
    seed (a2, b) and stops; after |B| steps each remaining run (a, S)
    yields (a, b) for every b in S.  Runs are kept as (a, bit mask of S).

    A left-recurrent product pair has an infinite past of pairs that are
    left-recurrent on both sides, and the set of a run along the last
    labels of that past always holds the past's state of B, so some seed
    lies on the past and reaches the pair.
    """
    nb = len(B.states)
    left_a, left_b = _left_recurrent(A), _left_recurrent(B)
    in_a, in_b = _marks(len(A.states), left_a), _marks(nb, left_b)
    after: list[dict[int, int]] = [{} for _ in range(nb)]
    for sb in left_b:
        for label, tb in B.succ[sb]:
            if in_b[tb]:
                after[sb][label] = after[sb].get(label, 0) | 1 << tb
    steps: dict[tuple[int, int], int] = {}

    def step(S: int, label: int) -> int:
        key = (S, label)
        if key not in steps:
            T = 0
            for sb in _bits(S):
                T |= after[sb].get(label, 0)
            steps[key] = T
        return steps[key]

    seeds = []
    runs = dict.fromkeys((sa, sum(1 << sb for sb in left_b)) for sa in left_a)
    for _ in range(nb):
        ahead: dict[tuple[int, int], None] = {}
        for sa, S in runs:
            for label, ta in A.succ[sa]:
                if in_a[ta]:
                    T = step(S, label)
                    if T & (T - 1):
                        ahead[ta, T] = None
                    elif T:
                        seeds.append(ta * nb + T.bit_length() - 1)
        runs = ahead
    seeds += [sa * nb + sb for sa, S in runs for sb in _bits(S)]
    return seeds


def _bits(S: int):
    """The positions of the set bits of S, ascending."""
    while S:
        low = S & -S
        yield low.bit_length() - 1
        S ^= low


def _disjoint(A: ZAutomaton, B: ZAutomaton) -> bool:
    """Do L(A) and L(B) share no word?  Emptiness of their product, built
    only from `_left_seeds`; B should be the small side.

    Every left-recurrent pair is reachable from a seed, and the part built
    is closed under successors, so its strong components are the whole
    product's and the emptiness test on it is exact.
    """
    na, nb = len(A.states), len(B.states)
    codes, succ = _product(A, B, _left_seeds(A, B))
    # drop the labels list by list, so the two forms are never held whole
    for v, out in enumerate(succ):
        succ[v] = [w for _, w in out]

    def on_a(states) -> list[int]:
        marked = _marks(na, states)
        return [v for v, code in enumerate(codes) if marked[code // nb]]

    def on_b(states) -> list[int]:
        marked = _marks(nb, states)
        return [v for v, code in enumerate(codes) if marked[code % nb]]

    return graph.lasso_free(succ, [on_a(A.initial), on_b(B.initial)],
                            [on_a(A.final), on_b(B.final)])


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
    nb = len(B.states)
    # every pair, so node v is the pair with code v
    _, succ = _product(A, B, range(len(A.states) * nb))
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


# ---------------------------------------------------------------------------
# Relation automata

def _slider_edges(chi: BlockRule):
    """edges(s): the sorted (label, target) pairs leaving state s of the
    slider automaton of block length m >= 2, numbered as in
    `slider_relation_automaton`.

    With s = (layer Q + v) Q + c q^(m-2) + rest, the targets are the
    layer's and window's base targets plus rest q: the buffer's first cell c
    leaves it and a new cell enters at its end.  The L and R bases are
    listed once per window and first cell; the bridge's are direct.
    """
    q, m, table = chi.q, chi.block_length, chi.table
    Q, h = q ** (m - 1), q ** (m - 2)
    bridge, L, R = (m - 2) * Q, (m - 2) * Q * Q, (m - 1) * Q * Q
    first = 0 if m > 2 else R
    moves = []
    for v in range(Q):
        # (z, base): the inverse steps chi(v em) = z vt, then the bridge's
        # first step; the order holds for every buffer
        steps = sorted([(z, L + vt * Q + em) for em in range(q)
                        for z, vt in [divmod(table[v * q + em], Q)]]
                       + [(z, first + v * Q + z) for z in range(q)])
        moves.append([tuple((y * q + z, base) for z, base in steps)
                      for y in range(q)])
    for v in range(Q):
        # forward steps chi(v y) = z0 v2, grouped by the output z0 they owe
        owed: list[list[tuple[int, int]]] = [[] for _ in range(q)]
        for y in range(q):
            z0, v2 = divmod(table[v * q + y], Q)
            owed[z0].append((y, R + v2 * Q))
        moves.append([tuple((y * q + z, base + z) for y, base in owed[z0]
                            for z in range(q)) for z0 in range(q)])

    def edges(s: int) -> tuple[tuple[int, int], ...]:
        hi, r = divmod(s, Q)
        c, rest = divmod(r, h)
        if hi < bridge:
            # B(t) to B(t+1), or B(m-2) over the L layer to R
            base = (hi + Q if hi + Q < bridge else hi + 2 * Q) * Q + rest * q
            return tuple((c * q + z, base + z) for z in range(q))
        shift = rest * q
        return tuple((label, base + shift)
                     for label, base in moves[hi - bridge][c])

    return edges


def slider_relation_automaton(chi: BlockRule,
                              max_states: int | None = None) -> ZAutomaton:
    """Automaton for the pairs (y, z) the block rule's two sweeps represent,
    built on its live states alone.

    Reading left to right, the run simulates the backward inverse sweep with
    inverted edges while buffering its cell emissions, crosses a bridge of
    m-1 positions where the guessed free cells are handed over, then
    simulates the forward sweep with the output buffer delaying the
    comparison by m-1 cells.  The left states and right states carry the
    recurrence obligations, so accepted paths cross the bridge exactly once;
    shift invariance of the relation makes the crossing position immaterial.

    Every state pairs a window v with a buffer r, both words of length m-1:
    L(v, r) holds the inverse sweep's window and the pending inputs, B(t, v,
    r) the handed-over window with m-1-t pending inputs then t guessed
    outputs, R(v, r) the forward sweep's window and the pending outputs.
    With Q = q^(m-1), state B(t, v, r) is (t-1) Q^2 + v Q + r, L(v, r) is
    (m-2) Q^2 + v Q + r and R(v, r) is (m-1) Q^2 + v Q + r (for m = 1, L is
    0 and R is 1).  Each bridge step, L to B(1) to ... to B(m-2) to R,
    shifts the buffer's first input out and a guessed output in.  Of these
    m q^(2m-2) codes only the live ones are kept, in order, as `states`;
    their edges come from `_slider_edges`, less those leading to a state
    that is not kept.  Three passes list them:

    - *L core.*  All Q windows with an empty buffer, extended m-1 times by
      a guessed cell e: (v, r) -> (table[v q + e] mod Q, r q + e).  These
      are the L states reached by m-1 L steps, since a step appends its
      cell to the buffer.  They are already the L states with an infinite
      past, so no fixed point is iterated: chi is bijective, so every
      window is the table[v q + e] mod Q of some (v, e), hence ends
      backward chains of any length.
    - *R core.*  The mirror pass: all windows with an empty buffer, owed
      outputs h prepended m-1 times through the inverse, (v2, r) ->
      (chi^-1(h v2) div q, h q^k + r) for a buffer of k cells.  These are
      the R states with an infinite future: a window with the first m-1
      outputs of a forward sweep from it.
    - *Bridge.*  B(t, v, s p) for each window v, each suffix s of m-1-t
      pending inputs of an L-core buffer of v and each prefix p of t
      outputs of an R-core buffer of v: the bridge keeps the window and
      hands the buffer over one cell at a time.

    Every window carries buffers in both cores, so every state kept lies on
    a path from the L core over the bridge into the R core, and none is
    dead.  Before each layer is allocated, the running total of states plus
    the layer's size (bounded by q times the current layer in the cores,
    counted for the bridge) is checked against max_states; the m q^(2m-2)
    codes are never counted.
    """
    if not chi.is_bijective():
        raise ValueError("slider relations need a bijective block rule")
    q, m, table = chi.q, chi.block_length, chi.table
    if m == 1:
        check_cap(2, max_states, "slider live states")
        labels = [y * q + table[y] for y in range(q)]
        return ZAutomaton(q, 2, (0, 1),
                          (tuple((a, t) for a in labels for t in (0, 1)),
                           tuple((a, 1) for a in labels)), (0,), (1,))
    Q = q ** (m - 1)
    L, R = (m - 2) * Q * Q, (m - 1) * Q * Q
    cells, total = range(q), 0

    def check(size: int) -> None:
        check_cap(total + size, max_states, "slider live states")

    # states v Q + r; the L core appends the cell e that drives the window
    left: Collection[int] = range(0, Q * Q, Q)
    for _ in range(m - 1):
        check(q * len(left))
        left = {table[v * q + e] % Q * Q + r * q + e
                for v, r in map(divmod, left, repeat(Q)) for e in cells}
    total = len(left)
    # the R core prepends the output h the window owes
    inverse = chi.inverse().table
    right: Collection[int] = range(0, Q * Q, Q)
    for k in range(m - 1):
        check(q * len(right))
        right = {inverse[h * Q + v] // q * Q + h * q ** k + r
                 for v, r in map(divmod, right, repeat(Q)) for h in cells}
    total += len(right)
    buffers: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
    for side, core in zip(buffers, (left, right)):
        for s in core:
            v, r = divmod(s, Q)
            side.setdefault(v, []).append(r)
    codes = [L + s for s in left] + [R + s for s in right]
    for t in range(1, m - 1):
        low, high = q ** t, q ** (m - 1 - t)
        joins = [(v, {r % high for r in rs}, {r // high for r in buffers[1][v]})
                 for v, rs in buffers[0].items()]
        size = sum(len(pending) * len(owed) for _, pending, owed in joins)
        check(size)
        total += size
        codes += [(t - 1) * Q * Q + v * Q + s * low + p
                  for v, pending, owed in joins for s in pending for p in owed]
    codes.sort()
    number = {s: k for k, s in enumerate(codes)}
    edges = _slider_edges(chi)
    return ZAutomaton(
        q, 2, tuple(codes),
        tuple(tuple((label, number[dst]) for label, dst in edges(s)
                    if dst in number)
              for s in codes),
        tuple(k for k, s in enumerate(codes) if L <= s < R),
        tuple(k for k, s in enumerate(codes) if s >= R))


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

    A state is the chain's window v, the pending outputs r (both words of
    length m-1), the probe's partial word u and the flag, numbered
    ((v Q + r) P + u) 2 + flag with Q = q^(m-1).  The P partial words are
    numbered idle first, then by length, then by index, so the word u
    extended by y is 1 + q u + y; the last Q of them are the full windows.
    """
    q, m, table = chi.q, chi.block_length, chi.table
    check_cap(1 if m == 1 else
              2 * q ** (2 * m - 2) * (1 + sum(q ** t for t in range(1, m))),
              max_states, "sweeper automaton states")
    if m == 1:
        return ZAutomaton(q, 2, range(1),
                          (tuple((y * q + table[y], 0) for y in range(q)),),
                          (0,), (0,))
    Q, h = q ** (m - 1), q ** (m - 2)
    P = sum(q ** t for t in range(m))
    full = P - Q

    def moves(u, v, y):
        """(partial word, flag) pairs the probe u moves to on input y."""
        if u < full:
            return ((0, 0), (1 + y, 0)) if u == 0 else ((1 + q * u + y, 0),)
        if u - full == v:
            return ((0, 1),)
        return ((full + table[(u - full) * q + y] % Q, 0),)

    succ = []
    for v in range(Q):
        runs = [divmod(table[v * q + y], Q) + (y,) for y in range(q)]
        for r in range(Q):
            z0, rest = divmod(r, h)
            chain = [(y, (v2 * Q + rest * q) * P) for w0, v2, y in runs
                     if w0 == z0]
            for u in range(P):
                out = tuple((y * q + z, (base + z * P + u2) * 2 + flag)
                            for y, base in chain for z in range(q)
                            for u2, flag in moves(u, v, y))
                succ += (out, out)
    n = len(succ)
    return ZAutomaton(q, 2, range(n), tuple(succ), tuple(range(1, n, 2)),
                      tuple(range(n)))


def graph_mismatch_automaton(f: LocalRule,
                             max_states: int | None = None) -> ZAutomaton:
    """Automaton for the pairs (y, z) with z differing from f(y) somewhere.

    The run tracks enough recent input to evaluate one local window, guesses
    the differing position, and falls into an absorbing state; when the rule
    looks ahead the comparison value is carried in a countdown instead.

    State 0 is the absorbing state.  When the output cell lies d = -lag > 0
    cells right of the window, the countdown comes next: cmp(value) is
    1 + value and count(value, steps) for steps 2..d is
    1 + q + value (d-1) + steps - 2.  The states pre(ybuf, zbuf) follow in
    `word_index` order of ybuf + zbuf.
    """
    g = minimize_neighborhood(f)
    q, w, table = g.q, g.width, g.table
    lag = g.anchor + g.width - 1
    wait = max(-lag, 0)
    pre = 1 + q * wait
    check_power_cap(q, w - 1 + max(lag, 0), max_states,
                    "mismatch automaton states", plus=pre)
    Y, Z = q ** (w - 1), q ** max(lag, 0)
    every = range(q * q)

    def countdown(value, steps):
        return 1 + value if steps == 1 else \
            1 + q + value * (wait - 1) + steps - 2

    succ = [tuple((a, 0) for a in every)]
    succ += [tuple((a, 0) for a in every if a % q != value)
             for value in range(q) if wait]
    succ += [tuple((a, countdown(value, steps - 1)) for a in every)
             for value in range(q) for steps in range(2, wait + 1)]
    for ybuf in range(Y):
        for zbuf in range(Z):
            out = []
            for y in range(q):
                value = table[ybuf * q + y]
                for z in range(q):
                    if lag < 0:
                        out.append((y * q + z, countdown(value, wait)))
                    elif value != (zbuf * q // Z if lag else z):
                        out.append((y * q + z, 0))
                    out.append((y * q + z, pre + (ybuf * q + y) % Y * Z
                                + (zbuf * q + z) % Z))
            succ.append(tuple(out))
    n = len(succ)
    return ZAutomaton(q, 2, range(n), tuple(succ), tuple(range(pre, n)), (0,))


def is_slider_rule_for(chi: BlockRule, f: LocalRule,
                       max_states: int | None = None) -> bool:
    """Is the relation represented by the block rule exactly the graph of f?

    For bijective rules the relation is total on inputs and maps each input
    to the inputs' full configuration space image, so containment in the
    graph of f already forces equality: it suffices that no represented
    pair disagrees with f anywhere.  max_states bounds the slider
    automaton's running total of states (each layer checked before it is
    built), the mismatch automaton and their whole product, which bounds
    the part `_disjoint` builds.
    """
    if chi.q != f.q:
        raise ValueError("alphabet mismatch")
    slider = slider_relation_automaton(chi, max_states)
    mismatch = graph_mismatch_automaton(f, max_states)
    check_cap(len(slider.states) * len(mismatch.states), max_states,
              "slider-mismatch product nodes")
    return _disjoint(slider, mismatch)

