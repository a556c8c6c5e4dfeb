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
builder and `trim` keep a subset of the codes in order, `intersect` numbers
its pairs in the order its search finds them), with successors sorted by
(label, target), so dumps, `==` and witnesses are reproducible.

The slider automaton of a block rule of length m numbers m q^(2m-2)
states, but `slider_relation_automaton` builds only the live ones, for the
exact check and for `automata` alike: three passes list the L states with
an infinite past, the R states with an infinite future and the bridge
states joining them, each layer capped by a running total of states before
it is allocated; a synthesized q=3 rule of length 7 keeps 8,505 of
3,720,087.  Then each live state's edges are read off its window's row of
the table: the L steps need no liveness test, since the L core is closed
under them, and the bridge and R steps keep the live targets.

One lockstep product, `intersect`, pairs the runs of two automata over
equal labels; it is the only product graph, and it builds only the pairs
reached from A's left-recurrent states paired with B's initial states,
counting them against a cap as it numbers them.  It needs a B whose initial
states are entered only from initial states and whose final states lead
only to final states, as the mismatch automaton's and a word's shifts
automaton's do; no flag is needed.  `member` is the emptiness of the
intersection with the word's shifts automaton, decided by
`nonempty_witness`, the one emptiness test.  The exact check
`is_slider_rule_for` builds no product graph and runs no component search:
the mismatch automaton's final state is absorbing and its pre-states are
fixed by the last few labels, so one forward search, from the L core
paired with the pre-states its last labels fix to the first pair whose
mismatch state is final, decides it (the proof is in `is_slider_rule_for`);
the q=2 block-13 check of x0 xor x2 visits 86,016 of the 1,183,744 pairs.
Both step the second automaton through one index, `_moves`, which lists
each state's targets per label.
Witness paths and cycles come from the shared path search in
`casweep.graph`, which returns states; each step's label is read back as
that of the first edge between its two states.

Labels are plain integers; a k-track label packs k symbols below q in one
integer, big-endian, so a pair (y, z) reads as y * q + z.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass

from . import graph
from .core import (MAX_AUTOMATON_STATES, EpConfig, IntegrityError, check_cap,
                   check_power_cap)
from .ca import LocalRule, minimize_neighborhood
from .blockrule import BlockRule


@dataclass(frozen=True)
class ZAutomaton:
    """Numbered states, labeled successor lists, and the recurrence sets.

    `states` has one entry per state: the sweeper and mismatch builders use
    range(n), the slider builder the codes of its live states; `trim`
    carries over the entries of the states it keeps, and `intersect` pairs
    those of its two sides; `succ[k]` lists the (label, target) edges
    leaving state k, sorted; `initial` and `final` are ascending state
    numbers.
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

def member(A: ZAutomaton, x: EpConfig,
           max_states: int | None = MAX_AUTOMATON_STATES) -> bool:
    """Is the eventually periodic word x accepted?

    The shifts of x form the language of a small automaton: a cycle over
    the left period (initial), the center as a chain, then a cycle over the
    right period (final).  Accepted languages are shift-invariant, because
    a shifted accepting path is still an accepting path, so A accepts x
    exactly when its `intersect` with that automaton is not empty.  No edge
    enters the left cycle from outside and none leaves the right cycle, as
    `intersect` requires; its pairs are counted against max_states.
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
    product = intersect(A, shifts, max_states, "member product nodes")
    return nonempty_witness(product) is not None


def nonempty_witness(A: ZAutomaton) -> EpConfig | None:
    """An accepted eventually periodic word, or None when A is empty.

    A shortest path leads from the first recurrent initial state that can
    to the nearest recurrent final state; shortest cycles through its two
    ends become the left and the right period, the path the center, each
    step labeled by its first edge in (label, target) order.  This is also
    the emptiness test: components are strongly connected, so when a
    left-recurrent state reaches a right-recurrent one, an initial state of
    the first's component reaches a final state of the second's.
    """
    succ = _targets(A)
    comp = graph.strong_components(succ)
    initial = set(A.initial)
    starts = [v for v in graph.recurrent(succ, comp, A.initial)
              if v in initial]
    ends = set(graph.recurrent(succ, comp, A.final)).intersection(A.final)
    parents = graph.bfs_tree(succ, starts)
    f0 = next((v for v in parents if v in ends), None)
    if f0 is None:
        return None
    path = graph.walk_to_root(parents, f0)[::-1]

    def labels(states):
        return tuple(next(label for label, t in A.succ[u] if t == w)
                     for u, w in zip(states, states[1:]))

    return EpConfig(A.label_count, labels(graph.shortest_cycle(succ, path[0])),
                    labels(path), 0,
                    labels(graph.shortest_cycle(succ, f0))).normalize()


def trim(A: ZAutomaton) -> ZAutomaton:
    """Drop states on no accepting bi-infinite path; language unchanged."""
    succ = _targets(A)
    comp = graph.strong_components(succ)
    after_left = graph.bfs_tree(succ, graph.recurrent(succ, comp, A.initial))
    before_right = graph.bfs_tree(graph.reverse(succ), graph.recurrent(
        succ, comp, A.final))
    keep = sorted(after_left.keys() & before_right.keys())
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

def _left_recurrent(A: ZAutomaton) -> list[int]:
    """States with an infinite past through initial states: those of the
    components that hold a cycle and meet `initial`."""
    succ = _targets(A)
    return graph.recurrent(succ, graph.strong_components(succ), A.initial)


def _marks(n: int, states) -> bytearray:
    flags = bytearray(n)
    for s in states:
        flags[s] = 1
    return flags


def _moves(A: ZAutomaton) -> list[list[tuple[int, ...]]]:
    """The targets of each state of A, listed per label; the labels with no
    edge share one empty tuple."""
    moves = [[()] * A.label_count for _ in A.succ]
    for row, out in zip(moves, A.succ):
        for label, t in out:
            row[label] += (t,)
    return moves


def intersect(A: ZAutomaton, B: ZAutomaton,
              max_states: int | None = MAX_AUTOMATON_STATES,
              what: str = "intersection product nodes") -> ZAutomaton:
    """Automaton for L(A) & L(B): the lockstep product of the runs of A and
    B over equal labels, for a B whose initial states are entered only from
    initial states and whose final states lead only to final states
    (ValueError for any other B, or for a B over other labels).

    Only the pairs reached from the seeds (a, b) are built, a a
    left-recurrent state of A and b an initial state of B.  States are the
    pairs (A's entry, B's entry), numbered in the order they are found, the
    seeds first in (a, b) order, each pair once; a state's edges are listed
    in (label, a, b) order of their targets.  The number of seeds is
    checked against max_states before they are listed, and every pair after
    them as it is numbered: the first one over max_states raises
    ResourceCapError naming `what`, so the cap bounds the pairs built, not
    |A| |B|.  The initial states are A.initial x B.initial and the final
    states A.final x B.final.  The language is exactly L(A) & L(B):

    - *One set per side.*  Left of any visit to B.initial a path stays in
      B.initial, since only initial states enter initial states.  So a path
      visiting B.initial infinitely often to the left visits A.initial
      infinitely often there exactly when it visits A.initial x B.initial
      infinitely often.  The right side is the mirror image: right of any
      visit to B.final the path stays in B.final.
    - *Seeds.*  The far past of an accepted pair path lies in one strong
      component of the product that holds a cycle and meets A.initial x
      B.initial.  Its states of A lie in one component of A that holds a
      cycle and meets A.initial, so they are left-recurrent.  Its states of
      B lie in one strong component of B that meets B.initial; each of them
      reaches an initial state, so it is initial itself by the same rule.
      The component is therefore made of seeds, and the part built, closed
      under successors, holds the whole path.  So emptiness, witnesses and
      membership answer on it as on the whole product.
    """
    if A.q != B.q or A.arity != B.arity:
        raise ValueError("alphabet mismatch")
    nb = len(B.states)
    ib, fb = _marks(nb, B.initial), _marks(nb, B.final)
    if any(ib[t] > ib[s] or fb[s] > fb[t]
           for s, out in enumerate(B.succ) for _, t in out):
        raise ValueError("intersect needs B's initial states entered only "
                         "from initial states and its final states leading "
                         "only to final states")
    lefts = _left_recurrent(A)
    check_cap(len(lefts) * len(B.initial), max_states, what)
    # pair (a, b) has the code a |B| + b
    codes = list(dict.fromkeys(a * nb + b for a in lefts for b in B.initial))
    number = {code: v for v, code in enumerate(codes)}
    moves = _moves(B)
    succ = []
    for code in codes:  # the loop also visits what it appends
        sa, sb = divmod(code, nb)
        targets = moves[sb]
        out = []
        for label, ta in A.succ[sa]:
            for tb in targets[label]:
                dst = ta * nb + tb
                w = number.get(dst)
                if w is None:
                    w = number[dst] = len(codes)
                    if w == max_states:  # the pair w is one too many
                        check_cap(w + 1, max_states, what)
                    codes.append(dst)
                out.append((label, w))
        succ.append(tuple(out))
    ia, fa = _marks(len(A.states), A.initial), _marks(len(A.states), A.final)
    return ZAutomaton(
        A.q, A.arity,
        tuple((A.states[code // nb], B.states[code % nb]) for code in codes),
        tuple(succ),
        tuple(v for v, code in enumerate(codes)
              if ia[code // nb] and ib[code % nb]),
        tuple(v for v, code in enumerate(codes)
              if fa[code // nb] and fb[code % nb]))


# ---------------------------------------------------------------------------
# Relation automata

def slider_relation_automaton(chi: BlockRule,
                              max_states: int | None = MAX_AUTOMATON_STATES
                              ) -> ZAutomaton:
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
    m q^(2m-2) codes only the live ones are kept, in order, as `states`.
    Three passes list them:

    - *L core.*  All Q windows with an empty buffer, extended m-1 times by
      a guessed cell e: (v, r) -> (table[v q + e] mod Q, r q + e).  These
      are the L states reached by m-1 L steps, since a step appends its
      cell to the buffer.  They are already the L states with an infinite
      past, so no fixed point is iterated: chi is bijective, so every
      window is the table[v q + e] mod Q of some (v, e), hence ends
      backward chains of any length.
    - *R core.*  The mirror pass: all windows with an empty buffer, owed
      outputs z prepended m-1 times through the inverse, (v2, r) ->
      (chi^-1(z v2) div q, z q^k + r) for a buffer of k cells.  These are
      the R states with an infinite future: a window with the first m-1
      outputs of a forward sweep from it.
    - *Bridge.*  B(t, v, s p) for each window v, each suffix s of m-1-t
      pending inputs of an L-core buffer of v and each prefix p of t
      outputs of an R-core buffer of v: the bridge keeps the window and
      hands the buffer over one cell at a time.  Per window a layer is the
      product of the two sets, so its size is known before it is listed.

    Every window carries buffers in both cores, so every state kept lies on
    a path from the L core over the bridge into the R core, and none is
    dead.  Before each layer is allocated, the running total of states plus
    the layer's size (bounded by q times the current layer in the cores,
    counted for the bridge) is checked against max_states; the m q^(2m-2)
    codes are never counted, and no edge is built before the last layer is.

    Each state's edges are then read off its window's row of the table,
    chi(v e) = z0 w for the q cells e, as (label, target) pairs sorted by
    label, then target, for a buffer r = c r':

    - *L steps.*  L(v, r) reads (c, z0) into L(w, r' e).  No target needs a
      test: with T_e(v) = table[v q + e] mod Q, the core state (T_r(u), r)
      steps to (T_(r' e)(T_c(u)), r' e), which is in the core again.
    - *Bridge steps.*  L(v, r) and B(t, v, r) read (c, z) into B(t+1, v,
      r' z), where B(m-1) stands for R (and B(1) too when m = 2).  The
      target is kept when it is live, that is, when the t+1 cells ending
      r' z are a prefix of an R-core buffer of v.
    - *R steps.*  R(v, r) reads (e, z) into R(w, r' z) for each e with
      z0 = c, kept when the target is live.
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
    Q, h = q ** (m - 1), q ** (m - 2)
    L, R = (m - 2) * Q * Q, (m - 1) * Q * Q
    cells, total = range(q), 0
    # chi(v e) = z0 w: step[v q + e] is w Q and back[z0 Q + w] is v Q
    step = [x % Q * Q for x in table]
    back = [x // q * Q for x in chi.inverse().table]

    def check(size: int) -> None:
        check_cap(total + size, max_states, "slider live states")

    # states v Q + r; the L core appends the cell e that drives the window
    left: Collection[int] = range(0, Q * Q, Q)
    for _ in range(m - 1):
        check(q * len(left))
        left = {step[s // Q * q + e] + s % Q * q + e
                for s in left for e in cells}
    total = len(left)
    # the R core prepends the output z the window owes
    right: Collection[int] = range(0, Q * Q, Q)
    for k in range(m - 1):
        check(q * len(right))
        lead = q ** k
        right = {back[z * Q + s // Q] + z * lead + s % Q
                 for s in right for z in cells}
    total += len(right)
    # B(t, v, s p) for the suffixes s of m-1-t cells of the L-core buffers
    # of v and the prefixes p of t cells of its R-core buffers, listed in
    # code order as (v q^(m-1-t) + s) q^t + p = v Q + s q^t + p
    layers = []
    for t in range(1, m - 1):
        low, high = q ** t, q ** (m - 1 - t)
        owed: dict[int, list[int]] = {}
        for x in sorted({s // high for s in right}):
            owed.setdefault(x // low, []).append(x % low)
        pending = sorted({s // Q * high + s % high for s in left})
        size = sum(len(owed[x // high]) for x in pending)
        check(size)
        total += size
        layers.append([x * low + p for x in pending for p in owed[x // high]])
    layers += [sorted(left), sorted(right)]
    codes = [k * Q * Q + s for k, layer in enumerate(layers) for s in layer]
    number = dict(zip(codes, range(len(codes))))
    get, succ = number.get, []
    for t, layer in [*enumerate(layers[:-2], 1), (0, layers[-2])]:
        # the bridge step of B(t) to B(t+1), of B(m-2) to R and of L (t = 0)
        # to B(1): the window stays, the first pending input c leaves the
        # buffer and an output cell e enters it, if the target is live
        ahead = (t if t < m - 2 else m - 1) * Q * Q
        for s in layer:
            i, c, shift = s // Q * q, s % Q // h * q, s % h * q
            base, out = ahead + s - s % Q + shift, []
            for e in cells:
                if (w := get(base + e)) is not None:
                    out.append((c + e, w))
                if t == 0:
                    # the L step chi(v e) = z0 w to L(w, r' e), always live
                    out.append((c + table[i + e] // Q,
                                number[L + step[i + e] + shift + e]))
            if t == 0:
                out.sort()
            succ.append(tuple(out))
    for s in layers[-1]:
        i, c, shift = s // Q * q, s % Q // h, R + s % h * q
        out = []
        for y in cells:
            if table[i + y] // Q == c:  # the forward step owes c
                for z in cells:
                    if (w := get(step[i + y] + shift + z)) is not None:
                        out.append((y * q + z, w))
        succ.append(tuple(out))
    n_bridge = len(codes) - len(left) - len(right)
    return ZAutomaton(q, 2, tuple(codes), tuple(succ),
                      tuple(range(n_bridge, n_bridge + len(left))),
                      tuple(range(n_bridge + len(left), len(codes))))


def sweeper_relation_automaton(chi: BlockRule,
                               max_states: int | None = MAX_AUTOMATON_STATES
                               ) -> ZAutomaton:
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
                             max_states: int | None = MAX_AUTOMATON_STATES
                             ) -> ZAutomaton:
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
                       max_states: int | None = MAX_AUTOMATON_STATES
                       ) -> bool:
    """Is the relation represented by the block rule exactly the graph of f?

    For bijective rules the relation is total on inputs and maps each input
    to the inputs' full configuration space image, so containment in the
    graph of f already forces equality: it suffices that no represented
    pair disagrees with f anywhere, that is, that the slider automaton and
    `graph_mismatch_automaton(f)` accept no common word.  One search over
    (slider, mismatch) pairs decides that, with no component search:

    - *Seeds.*  The L core (`initial`), each state paired with one
      pre-state of the mismatch automaton, is stepped by each L-core edge
      together with the one pre-state successor on the same label, layer
      by layer, until the layer is stepped onto itself
      (`_left_recurrent_pairs`).  A pre-state is fixed by the last k =
      max(w-1, lag) labels read (w the width of f with its neighborhood
      minimized, lag the end of its window), so this settles after k
      rounds; a layer still moving one round later raises IntegrityError.
    - *Walk.*  From the seeds, every lockstep edge is followed, the
      mismatch moves read from the label index `_moves` that `intersect`
      also steps by; the answer is False at the first pair whose mismatch
      state is 0, the absorbing final state, and True when the walk ends.

    Why this is exact.  *Seeds:* the fixed point is exactly the set of
    left-recurrent pairs, those with an infinite past of pairs in initial
    x initial.  The far past of an accepted path lies in L core x
    pre-states: the slider visits `initial` infinitely often to the left
    and no B or R state steps back into L, and the mismatch automaton
    visits its pre-states infinitely often to the left and neither state 0
    nor the countdown steps back into them; each pre-state there is the
    one read off the last k labels.  So the far past is in the layer after
    k rounds, the fixed point.  Conversely every pair of the fixed point is
    a step of another, so it has an infinite past inside it, on initial
    states of both sides.  *Walk:* an accepted path is walked from its
    seeded past to its first pair with mismatch state 0.  Conversely every
    live slider state reaches the R core, so a reached (a, 0) has a future
    through final slider states, and state 0 reads every label and is
    final, so (a, 0) lies on an accepted pair.

    The seeds start from the slider automaton's `initial` states, the L
    core: they are exactly its left-recurrent states.

    - The window graph v -> T_e(v) = table[v q + e] mod Q has out-degree
      q, and in-degree q as well, since table is a bijection on [q Q] and
      so takes each residue mod Q q times.  Hence each of its weakly
      connected components is strongly connected.
    - A core state X = (T_r(u), r) lies on a cycle of core states: walk in
      the window graph from T_r(u) back to u, then read r.  The walk ends
      at X, and after each cell its state is (T_s(u'), s) for its buffer s
      and some window u', so it stays in the core.
    - The core is closed under L steps, and no B or R state has an edge
      back into L, so every state on a cycle through a core state is in
      the core.  The cyclic components that meet `initial` are therefore
      exactly the core.

    max_states bounds the slider automaton's running total of states (each
    layer checked before it is built), the mismatch automaton, each seed
    layer and the pairs the walk visits, seeds included, counted as they
    are found.  The whole product |slider| |mismatch| is not checked: the
    block-5 rule (f(x), s, x[1:]) of q=4 x2 + x3 x4 makes 146,836,480
    pairs, of which the search visits 189,440 from 65,536 seeds.
    """
    if chi.q != f.q:
        raise ValueError("alphabet mismatch")
    slider = slider_relation_automaton(chi, max_states)
    mismatch = graph_mismatch_automaton(f, max_states)
    g = minimize_neighborhood(f)
    what = "slider-mismatch product nodes"
    seen = _left_recurrent_pairs(slider, mismatch,
                                 max(g.width - 1, g.anchor + g.width - 1),
                                 max_states, what)
    nb = len(mismatch.states)
    moves = _moves(mismatch)
    cap = -1 if max_states is None else max_states
    stack = list(seen)
    while stack:
        sa, sb = divmod(stack.pop(), nb)
        targets = moves[sb]
        for label, ta in slider.succ[sa]:
            for tb in targets[label]:
                if not tb:
                    return False
                dst = ta * nb + tb
                if dst not in seen:
                    if len(seen) == cap:  # the pair dst is one too many
                        check_cap(cap + 1, max_states, what)
                    seen.add(dst)
                    stack.append(dst)
    return True


def _left_recurrent_pairs(slider: ZAutomaton, mismatch: ZAutomaton,
                          rounds: int, max_states: int | None,
                          what: str) -> set[int]:
    """Codes a |mismatch| + b of the (slider, mismatch) pairs with an
    infinite past in initial x initial, given that the last `rounds`
    labels fix a pre-state (`is_slider_rule_for` proves it).

    Each layer is checked against max_states; IntegrityError if the layer
    has not settled after rounds + 1 steps.
    """
    nb = len(mismatch.states)
    in_core, in_pre = (_marks(len(slider.states), slider.initial),
                       _marks(nb, mismatch.initial))
    core = {a: [(label, t) for label, t in slider.succ[a] if in_core[t]]
            for a in slider.initial}
    pre = [{label: t for label, t in out if in_pre[t]}
           for out in mismatch.succ]
    layer = {a * nb + mismatch.initial[0] for a in slider.initial}
    for _ in range(rounds + 1):
        ahead = {t * nb + pre[code % nb][label]
                 for code in layer for label, t in core[code // nb]}
        check_cap(len(ahead), max_states, what)
        if ahead == layer:
            return layer
        layer = ahead
    raise IntegrityError(f"left-recurrent pairs still moving after "
                         f"{rounds + 1} rounds")
