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
its pair codes a |B| + b as its search finds them), with successors sorted
by (label, target), so dumps, `==` and witnesses are reproducible.

A sweep is one bi-infinite chain of windows, so the slider relation is
the set of labels of the bi-infinite paths of the L core: the L states (a
window and the inputs it takes next) with an infinite past, each one
initial and final.  `slider_relation_automaton`, which `automata` dumps
and inspects and the exact check walks, builds that core alone, round by
round and capped before each round is listed, and reads each state's q
edges off its window's row of the table (the proof is in its docstring);
a synthesized q=3 rule of length 7 has 2,187 core states.

One lockstep product, `intersect`, pairs the runs of two automata over
equal labels; it is the only product graph, and it builds only the pairs
reached from A's left-recurrent states paired with B's initial states,
counting them against a cap as it numbers them.  It needs a B whose initial
states are entered only from initial states and whose final states lead
only to final states, as the mismatch automaton's and a word's shifts
automaton's do; no flag is needed.  `member` is the emptiness of the
intersection with the word's shifts automaton, decided by
`nonempty_witness`, the one emptiness test.  The exact check
`is_slider_rule_for` builds no product graph and runs no component
search: the mismatch automaton's final state is absorbing and its
pre-states are fixed by the last few labels, so one forward search over
(core state, mismatch state) pairs, from the core paired with the
pre-states its last labels fix to the first pair whose mismatch state is
final, decides it (the proofs are in `is_slider_rule_for`); the q=2
block-13 check of x0 xor x2 visits its 16,384 seeds of the 69,632 pairs of
a 4,096-state core and 17 mismatch states.  Both step the second
automaton through one index, `_moves`, which lists each state's targets
per label.
Witness paths and cycles come from the shared path search in
`casweep.graph`, which returns states; each step's label is read back as
that of the first edge between its two states.

Labels are plain integers; a k-track label packs k symbols below q in one
integer, big-endian, so a pair (y, z) reads as y * q + z.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection

from . import graph
from .core import (MAX_AUTOMATON_STATES, EpConfig, IntegrityError, check_cap,
                   check_power_cap)
from .ca import LocalRule, minimize_neighborhood
from .blockrule import BlockRule


class ZAutomaton(namedtuple("ZAutomaton",
                            "q arity states succ initial final")):
    """Numbered states, labeled successor lists, and the recurrence sets.

    `states` has one entry per state: the sweeper and mismatch builders use
    range(n), the slider builder the codes of its L-core states; `trim`
    carries over the entries of the states it keeps, and `intersect` lists
    the pair code a |B| + b of A's state a and B's state b; `succ[k]` lists
    the (label, target) edges leaving state k, sorted; `initial` and
    `final` are ascending state numbers.
    """

    __slots__ = ()

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
    pair codes a |B| + b, numbered in the order they are found, the seeds
    first in (a, b) order, each pair once; a state's edges are listed
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
        tuple(codes),
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
    """Automaton for the pairs (y, z) the block rule's two sweeps represent:
    the L core, every state initial and final, with its L steps.

    A represented pair is one bi-infinite chain of windows w_k, words of
    length m-1, with chi(w_k y_(k+m-1)) = z_k w_(k+1) for every k: from an
    anchor i the forward sweep runs the chain rightward from w_i and the
    inverse sweep leftward (`representation_eval`), and every such chain
    is the one the seed with z left of i, w_i at i and y from i+m-1 on
    represents.  An L state L(v, r) pairs a window v with the buffer r of
    the next m-1 inputs; for a buffer r = c r' it reads (c, z0) into
    L(w, r' e) for each cell e, chi(v e) = z0 w, guessing the input e the
    window takes in m-1 positions (for m = 1 the one state reads
    (e, chi(e))).  So a bi-infinite path of L steps is a chain with its
    labels: at position k it is in L(w_k, y_k .. y_(k+m-2)) and reads
    (y_k, z_k).

    Why the L core alone is exact.  The L core is the set of L states with
    an infinite past, and every state of a bi-infinite path is one, so the
    slider relation is exactly the set of labels of bi-infinite core
    paths; with every core state initial and final, these are the words
    the automaton accepts.  With T_e(v) = table[v q + e] mod Q, Q =
    q^(m-1), and T_r for a word r the steps by its cells in turn, the core
    is the set of states (T_r(u), r): a past of m-1 L steps from L(u, .)
    makes the buffer the m-1 guessed cells r.  Each of them has an
    infinite past, since the cells a past reads are free and chi is
    bijective, so every window is T_e(v) of some (v, e) and ends backward
    chains of any length.  The core is closed under L steps, (T_r(u), r)
    with r = c r' stepping to (T_(r' e)(T_c(u)), r' e), so every core state
    has q steps on into the core and a step in from it: no state is dead.
    It is listed as all Q windows with the buffer 0, extended m-1 times by
    a guessed cell, no fixed point iterated; each round, at most q times
    the last, is checked against max_states before it is listed, and chi
    must be bijective (ValueError).

    A state keeps the code (m-2) Q^2 + v Q + r that L(v, r) has among the
    m q^(2m-2) states of the three-layer slider automaton (inverse sweep,
    bridge, forward sweep), 0 for m = 1; the codes are ascending and each
    state's edges are sorted by (label, target).  A synthesized q=3 rule
    of length 7 keeps 2,187 of those 3,720,087 codes.
    """
    if not chi.is_bijective():
        raise ValueError("slider relations need a bijective block rule")
    q, m, table = chi.q, chi.block_length, chi.table
    if m == 1:
        check_cap(1, max_states, "slider live states")
        return ZAutomaton(q, 2, (0,), (tuple((e * q + table[e], 0)
                                             for e in range(q)),), (0,), (0,))
    Q, h = q ** (m - 1), q ** (m - 2)
    # chi(v e) = z0 w: rows[v] lists (z0, w Q + e) for the q cells e, the
    # output and the code of the window w with the buffer e
    rows = [[(x // Q, x % Q * Q + e)
             for e, x in enumerate(table[v * q:v * q + q])] for v in range(Q)]
    # states v Q + r; the core appends the cell e that drives the window
    left: Collection[int] = range(0, Q * Q, Q)
    for _ in range(m - 1):
        check_cap(q * len(left), max_states, "slider live states")
        left = {t + s % Q * q for s in left for _, t in rows[s // Q]}
    codes = sorted(left)
    number = {s: k for k, s in enumerate(codes)}
    succ = []
    for s in codes:
        c, shift = s % Q // h * q, s % h * q
        succ.append(tuple(sorted((c + z0, number[target + shift])
                                 for z0, target in rows[s // Q])))
    L, every = (m - 2) * Q * Q, tuple(range(len(codes)))
    return ZAutomaton(q, 2, tuple(L + s for s in codes), tuple(succ),
                      every, every)


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
    pair disagrees with f anywhere, that is, that the slider relation and
    the language of `graph_mismatch_automaton(f)` share no word.  The
    slider relation is the set of labels of the bi-infinite paths of the L
    core that `slider_relation_automaton` builds (its docstring proves
    it), so one search over (core state, mismatch state) pairs, stepped by
    L steps, decides that with no product graph and no component search:

    - *Seeds.*  Each core state, paired with one pre-state of the mismatch
      automaton, is stepped by each L step together with the one pre-state
      successor on the same label, layer by layer, until the layer is
      stepped onto itself (`_left_recurrent_pairs`).  A pre-state is fixed
      by the last k = max(w-1, lag) labels read (w the width of f with its
      neighborhood minimized, lag the end of its window), so this settles
      after k rounds; a layer still moving one round later raises
      IntegrityError.
    - *Walk.*  The seeds are a fixed point, so every pre-state successor
      of a seed along an L step is a seed again: from the seeds the walk
      follows only the mismatch moves that leave the pre-states, to state
      0 or into the countdown, and from there every move.  The answer is
      False at the first pair whose mismatch state is 0, the absorbing
      final state, and True when the walk ends.  For lag >= 0 the only
      move out of the pre-states is to 0, so the walk is one scan of the
      seeds.

    *Seeds:* the fixed point is exactly the set of pairs with an infinite
    past of pairs in core x pre-states.  The far past of a common word's
    pair path lies in core x pre-states: the mismatch automaton visits its
    pre-states infinitely often to the left and neither state 0 nor the
    countdown steps back into them; each pre-state there is the one read
    off the last k labels.  So the far past is in the layer after k
    rounds, the fixed point.  Conversely every pair of the fixed point is
    a step of another, so it has an infinite past inside it.  *Walk:* a
    common word's pair path is walked from its seeded past to its first
    pair with mismatch state 0.  Conversely a reached pair (a, 0) has an
    infinite past in core x pre-states and, since every core state has an
    L step on to a core state and state 0 reads every label and is final,
    an infinite future in core x {0}: its labels are a core path's, so in
    the slider relation, and a word of the mismatch automaton.

    max_states bounds each round of the core (q times the last round,
    checked before it is listed), the mismatch automaton, each seed layer
    and the pairs the walk visits, seeds included, counted as they are
    found.  The product |core| |mismatch| is neither built nor checked:
    the block-5 rule (f(x), s, x[1:]) of q=4 x2 + x3 x4 has 4,096 core
    states and 4,097 mismatch states, which make 16,781,312 pairs, and the
    search visits its 65,536 seeds alone.
    """
    if chi.q != f.q:
        raise ValueError("alphabet mismatch")
    core = slider_relation_automaton(chi, max_states)
    mismatch = graph_mismatch_automaton(f, max_states)
    g = minimize_neighborhood(f)
    what = "slider-mismatch product nodes"
    seen = _left_recurrent_pairs(core, mismatch,
                                 max(g.width - 1, g.anchor + g.width - 1),
                                 max_states, what)
    nb, first_pre = len(mismatch.states), mismatch.initial[0]
    # the moves out of the pre-states: to 0 or into the countdown, which
    # never steps back into them
    leave = [[tuple(t for t in targets if t < first_pre) for targets in row]
             for row in _moves(mismatch)]
    cap = -1 if max_states is None else max_states
    stack = list(seen)
    while stack:
        sa, sb = divmod(stack.pop(), nb)
        targets = leave[sb]
        for label, ta in core.succ[sa]:
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


def _left_recurrent_pairs(core: ZAutomaton, mismatch: ZAutomaton, rounds: int,
                          max_states: int | None, what: str) -> set[int]:
    """Codes a |mismatch| + b of the (L-core state, mismatch state) pairs
    with an infinite past of pairs in core x pre-states, given that the
    last `rounds` labels fix a pre-state (`is_slider_rule_for` proves it).

    Each layer is checked against max_states; IntegrityError if the layer
    has not settled after rounds + 1 steps.
    """
    nb = len(mismatch.states)
    in_pre = _marks(nb, mismatch.initial)
    pre = [{label: t for label, t in out if in_pre[t]}
           for out in mismatch.succ]
    layer = {a * nb + mismatch.initial[0] for a in range(len(core.states))}
    for _ in range(rounds + 1):
        ahead = {t * nb + pre[code % nb][label]
                 for code in layer for label, t in core.succ[code // nb]}
        check_cap(len(ahead), max_states, what)
        if ahead == layer:
            return layer
        layer = ahead
    raise IntegrityError(f"left-recurrent pairs still moving after "
                         f"{rounds + 1} rounds")
