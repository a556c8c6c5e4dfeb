"""Reference algorithms the tests compare the package against.

Each is a direct, slow restatement of something the package computes
another way (or a small helper only tests need), kept out of the package
so that no production path depends on it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from importlib import resources

from casweep import graph
from casweep.blockrule import (BlockRule, SweepOutcome, representation_eval,
                               reverse_block, sweeper_eval)
from casweep.ca import (BUILTIN_RULES, LocalRule, apply_ep,
                        minimize_neighborhood, refine, to_radius_form)
from casweep.core import (EpConfig, IntegrityError, ResourceCapError,
                          all_words, check_cap, ep_equal, random_ep_config,
                          word_index, word_of_index)
from casweep.hierarchy import Decomposition, DivergentSweepError
from casweep.mealy import MealyAutomaton
from casweep.stairs import SliderVerdict, slider_exists
from casweep.synthesis import NotSliderError, VerifyResult
from casweep.zautomata import ZAutomaton


def cell_window(x: EpConfig, lo: int, hi: int) -> tuple[int, ...]:
    """Cells of x at positions lo <= i < hi, one at a time from the
    definition of the tiling: the left period ends at center_start, the
    right period starts at center_end."""
    def cell(i: int) -> int:
        if i < x.center_start:
            return x.left_period[(i - x.center_start) % len(x.left_period)]
        if i < x.center_end:
            return x.center[i - x.center_start]
        return x.right_period[(i - x.center_end) % len(x.right_period)]
    return tuple(cell(i) for i in range(lo, hi))


def cellwise_apply_ep(f: LocalRule, x: EpConfig) -> EpConfig:
    """Image of x with one window and one `word_index` per output cell:
    the center spans the cells whose window meets the center of x, each
    tail one period of the input tail."""
    if f.q != x.q:
        raise ValueError("alphabet mismatch")
    lo = x.center_start - f.anchor - f.width + 1
    hi = max(lo, x.center_end - f.anchor)
    out_cell = lambda i: f.table[word_index(
        cell_window(x, i + f.anchor, i + f.anchor + f.width), f.q)]
    lper = len(x.left_period)
    rper = len(x.right_period)
    return EpConfig(
        f.q,
        tuple(out_cell(i) for i in range(lo - lper, lo)),
        tuple(out_cell(i) for i in range(lo, hi)),
        lo,
        tuple(out_cell(i) for i in range(hi, hi + rper)),
    )


def popping_normalize(x: EpConfig) -> EpConfig:
    """`EpConfig.normalize` one cell at a time: pop each center cell that
    continues the adjacent tail and rotate that tail by one."""
    minimal = lambda p: next(p[:d] for d in range(1, len(p) + 1)
                             if p == p[:d] * (len(p) // d))
    left = minimal(x.left_period)
    right = minimal(x.right_period)
    center = list(x.center)
    cs = x.center_start
    while center and center[-1] == right[-1]:
        center.pop()
        right = right[-1:] + right[:-1]
    while center and center[0] == left[0]:
        center.pop(0)
        cs += 1
        left = left[1:] + left[:1]
    if not center:
        period = math.lcm(len(left), len(right))
        lt = tuple(left[(i - cs) % len(left)] for i in range(period))
        rt = tuple(right[(i - cs) % len(right)] for i in range(period))
        if lt == rt:
            return EpConfig(x.q, minimal(lt), (), 0, minimal(lt))
    return EpConfig(x.q, left, tuple(center), cs, right)


def ep_splice(left_src: EpConfig, at: int, w: tuple[int, ...],
              right_src: EpConfig) -> EpConfig:
    """Configuration equal to left_src below `at`, to `w` on
    [at, at+len(w)), and to right_src from at+len(w) on."""
    if left_src.q != right_src.q:
        raise ValueError("alphabet mismatch in splice")
    cut = at + len(w)
    cs = min(left_src.center_start, at)
    ce = max(right_src.center_end, cut)
    lper = left_src.left_period
    rper = right_src.right_period
    center = (cell_window(left_src, cs, at) + tuple(w)
              + cell_window(right_src, cut, ce))
    return EpConfig(
        left_src.q,
        cell_window(left_src, cs - len(lper), cs),
        center,
        cs,
        cell_window(right_src, ce, ce + len(rper)),
    )


def ep_replace(x: EpConfig, at: int, w: tuple[int, ...]) -> EpConfig:
    """Copy of x with cells [at, at+len(w)) replaced by w."""
    return ep_splice(x, at, w, x)


def apply_word(f: LocalRule, u: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a finite word; the result is width-1 symbols shorter.

    Position k of the result is f applied to ``u[k : k+width]``; the anchor
    plays no role for plain words, only for configurations.
    """
    if len(u) < f.width:
        raise ValueError("word shorter than the rule window")
    return tuple(f.table[word_index(u[k:k + f.width], f.q)]
                 for k in range(len(u) - f.width + 1))


def compose(f: LocalRule, g: LocalRule) -> LocalRule:
    """Rule computing f after g: apply_ep(compose(f, g), x) == f(g(x))."""
    if f.q != g.q:
        raise ValueError("alphabet mismatch")
    w = f.width + g.width - 1
    table = tuple(f.table[word_index(apply_word(g, u), f.q)]
                  for u in all_words(w, f.q))
    return LocalRule(f.q, f.anchor + g.anchor, w, table)


def equal(f: LocalRule, g: LocalRule) -> bool:
    """Do two rules define the same map on configurations?"""
    if f.q != g.q:
        return False
    anchor = min(f.anchor, g.anchor)
    top = max(f.anchor + f.width, g.anchor + g.width)
    width = top - anchor
    return refine(f, anchor, width).table == refine(g, anchor, width).table


def builtin_rule_metadata(name: str) -> dict:
    """Raw JSON object for a bundled rule, including optional annotations."""
    if name not in BUILTIN_RULES:
        raise ValueError(f"unknown built-in rule {name!r}")
    text = resources.files("casweep.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def radius_form(f: LocalRule) -> tuple[LocalRule, int]:
    """f minimized and refined to [-r, r], r = max(radius, 1), and r."""
    g = minimize_neighborhood(f)
    r = max(g.radius, 1)
    return to_radius_form(g, r), r


def is_stair(f: LocalRule, m: int, v: tuple[int, ...],
             w: tuple[int, ...]) -> bool:
    """Does some configuration carry v on [m, 3m) and image w on [0, 2m)?"""
    g, r = radius_form(f)
    if m < r:
        raise ValueError(f"stair parameter m={m} below rule radius {r}")
    if len(v) != 2 * m or len(w) != 2 * m:
        raise ValueError("stair words must have length 2m")
    # image cells [m+r, 2m) read only cells of v
    for c in range(m + r, 2 * m):
        if g(v[c - r - m:c + r + 1 - m]) != w[c]:
            return False
    # remaining image cells also read the free cells [-r, m)
    for free in all_words(m + r, g.q):
        x = free + v
        if all(g(x[c:c + 2 * r + 1]) == w[c] for c in range(min(m + r, 2 * m))):
            return True
    return False


def stairs_connecting(f: LocalRule, m: int, y: EpConfig,
                      z: EpConfig) -> frozenset:
    """Stairs confirmed by configurations with prescribed infinite tails.

    The confirming configuration must equal y on cells [3m, oo) and its
    image must equal z on cells (-oo, 0); only those cells of y and z are
    read.  Since the image window [0, 2m) stops r <= m cells short of 3m,
    the y side never constrains the answer; the z side imposes an infinite
    leftward run, decided per stair by a window DP that must end in a cycle
    of the periodic zone.
    """
    g, r = radius_form(f)
    if m < r:
        raise ValueError(f"stair parameter m={m} below rule radius {r}")
    if y.q != g.q or z.q != g.q:
        raise ValueError("alphabet mismatch")
    q = g.q
    cs = z.center_start
    period = len(z.left_period)
    # below this cell the z constraint repeats with the left period
    zstart = min(0, cs)

    # Processing the image constraint at cell c consumes the preimage cell
    # c - r; the DP state before that step is the window x[c-r+1 .. c+r].
    # Inside the periodic zone a state survives iff (window, phase) can
    # reach a cycle of the constraint graph, phase = (c - cs) mod period.
    # Node (win, ph) is numbered word_index(win) * period + ph.
    succ: list[list[int]] = [[] for _ in range(q ** (2 * r) * period)]
    for k, win in enumerate(all_words(2 * r, q)):
        for ph in range(period):
            target = z.left_period[ph]
            for a in range(q):
                if g((a,) + win) == target:
                    succ[k * period + ph].append(
                        word_index((a,) + win[:-1], q) * period
                        + (ph - 1) % period)
    cyclic = graph.recurrent(succ, graph.strong_components(succ))
    good = graph.bfs_tree(graph.reverse(succ), cyclic)

    result = []
    for v in all_words(2 * m, q):
        # image cells [m+r, 2m) read only v, so they force a w suffix
        forced = tuple(g(v[c - m - r:c - m + r + 1])
                       for c in range(m + r, 2 * m))
        for w in all_words(2 * m, q):
            if w[m + r:] != forced:
                continue
            states = {v[:2 * r]}
            c = m + r - 1
            while c >= zstart and states:
                target = w[c] if c >= 0 else z.cell(c)
                states = {(a,) + win[:-1] for win in states
                          for a in range(q) if g((a,) + win) == target}
                c -= 1
            if states and any(word_index(win, q) * period + (c - cs) % period
                              in good for win in states):
                result.append((v, w))
    return frozenset(result)


def unique_predecessor(f: LocalRule, m: int, vc: tuple[int, ...],
                       wd: tuple[int, ...], b: int) -> int:
    """The unique a with (a + vc[:-1], (b,) + wd[:-1]) a stair.

    Well defined exactly when m is a strong left-closing radius; zero or
    multiple candidates signal that it is not.
    """
    v, w = vc[:-1], wd[:-1]
    found = [a for a in range(f.q) if is_stair(f, m, (a,) + v, (b,) + w)]
    if len(found) != 1:
        raise IntegrityError(
            f"{len(found)} predecessors for b={b} at {(vc, wd)}; "
            f"m={m} is not a strong left-closing radius")
    return found[0]


def count_representations(rule: BlockRule, f: LocalRule, y: EpConfig, i: int,
                          cap: int = 1 << 16) -> int:
    """How many seeds witness the pair (y, f(y)) at anchor i.

    Tries every middle word w of block length: the seed is f(y) below i,
    then w, then y from i+m on.  The count is the same for every y and every
    anchor when the rule actually realizes f as a sweep.
    """
    if rule.q != y.q or f.q != y.q:
        raise ValueError("alphabet mismatch")
    m = rule.block_length
    check_cap(rule.q ** m, cap, "candidate middle words")
    z = cellwise_apply_ep(f, y)
    count = 0
    for w in all_words(m, rule.q):
        x = ep_splice(z, i, w, y)
        y2, z2 = representation_eval(rule, x, i)
        if ep_equal(y2, y) and ep_equal(z2, z):
            count += 1
    return count


def scan_strong_radius(f: LocalRule, m: int) -> set[str]:
    """Every way m fails to be a strong left-closing radius, by window scan.

    Enumerates every preimage window on positions [-r, 2m+r] of the radius
    form and buckets it by (s, t), where s is the preimage on (m, 2m] and t
    the image on (0, 2m]; within a bucket it records, for each image b at
    0, the preimage cells a at position m.  Returns {"ok"} when every b of
    every bucket has exactly one a, {"m_below_2r"} when m < 2r, and
    otherwise the reasons found over all buckets: "existence" for a b with
    no a, "uniqueness" for a b with several.
    """
    g, r = radius_form(f)
    if m < 2 * r:
        return {"m_below_2r"}
    q, table = g.q, g.table
    width = 2 * r + 1
    length = 2 * m + 2 * r + 1
    # window w is a base-q number, most significant digit first: the cell
    # at position k - r is the digit of q^(length-1-k)
    reads = [q ** (length - width - c) for c in range(2 * m + 1)]
    n_windows, s_at, n_s, a_at = q ** width, q ** r, q ** m, q ** (m + r)
    buckets: dict[tuple, list[set[int]]] = {}
    for w in range(q ** length):
        # imgs[c] is the image cell c
        imgs = [table[w // p % n_windows] for p in reads]
        key = (w // s_at % n_s, tuple(imgs[1:]))
        per_b = buckets.get(key)
        if per_b is None:
            per_b = buckets[key] = [set() for _ in range(q)]
        per_b[imgs[0]].add(w // a_at % q)
    reasons = set()
    for per_b in buckets.values():
        for aset in per_b:
            if not aset:
                reasons.add("existence")
            elif len(aset) > 1:
                reasons.add("uniqueness")
    return reasons or {"ok"}


def mealy_delta(mealy: MealyAutomaton, s: int, a: int) -> int:
    """The state after reading letter a in state s."""
    return mealy.next_table[s * mealy.size + a]


def mealy_is_bijective(mealy: MealyAutomaton,
                       out_table: tuple[int, ...]) -> bool:
    """Is (state, letter) -> (output, next state) one to one?  out_table
    holds the output blocks, indexed like next_table, as
    `tuple_mealy_from_block` builds them."""
    pairs = set(zip(out_table, mealy.next_table))
    return len(pairs) == len(out_table)


def good_states_by_transformations(mealy: MealyAutomaton,
                                   cap: int = 1 << 16) -> set[int]:
    """Reference algorithm: explore state transformations directly.

    Nodes are maps T = delta*(. , u) for already-read suffixes u, rooted at
    the identity; prepending a letter e gives T o delta(., e), and the edge
    carries the anchor value T[e].  Worst case |Q|^|Q| nodes, so this is a
    test oracle, not the production path.
    """
    Q = mealy.size
    identity = tuple(range(Q))
    ids = {identity: 0}
    succ: list[list[int]] = [[]]
    values: dict[tuple[int, int], set[int]] = {}
    frontier = [identity]
    while frontier:
        T = frontier.pop()
        k = ids[T]
        for e in range(Q):
            T2 = tuple(T[mealy_delta(mealy, s, e)] for s in range(Q))
            k2 = ids.get(T2)
            if k2 is None:
                if len(ids) >= cap:
                    raise ResourceCapError(
                        "transformation graph exceeds the cap")
                k2 = ids[T2] = len(succ)
                succ.append([])
                frontier.append(T2)
            succ[k].append(k2)
            values.setdefault((k, k2), set()).add(T[e])
    comp = graph.strong_components(succ)
    good = set()
    for (k, k2), vals in values.items():
        if comp[k] == comp[k2]:
            good |= vals
    return good


def good_states_by_probe_product(mealy: MealyAutomaton) -> set[int]:
    """Reference good states: the whole main-run x probe product at once.

    Nodes (c, u) pair the main-run state c with a probe u still distinct
    from it, or idle; reading letter e moves c to delta(c, e), and a probe
    seeded at e follows delta until it equals the main run, which flags
    the edge.  Good states are the main states of the nodes reachable from
    a flagged edge inside one strong component.  All |Q| (|Q| + 1) nodes
    and |Q|^3 edges are built before the search.

    Node (c, u) is numbered c * (|Q| + 1) + u, with u = |Q| for idle.
    """
    Q = mealy.size
    idle = Q
    width = Q + 1
    rows = [mealy.next_table[c * Q:(c + 1) * Q] for c in range(Q)]
    succ: list[list[int]] = []
    merged: list[list[int]] = []    # targets of the flagged edges
    for c in range(Q):
        row = rows[c]
        for u in range(width):
            if u == idle:
                outs = [c2 * width + idle for c2 in row]
                flags = [outs[e] for e, c2 in enumerate(row) if e == c2]
                outs += [c2 * width + e for e, c2 in enumerate(row)
                         if e != c2]
            elif u == c:
                outs, flags = [], []
            else:
                outs = [c2 * width + (idle if u2 == c2 else u2)
                        for c2, u2 in zip(row, rows[u])]
                flags = [d for d in outs if d % width == idle]
            succ.append(outs)
            merged.append(flags)
    comp = graph.strong_components(succ)
    reached = graph.bfs_tree(succ, (d for v, flags in enumerate(merged)
                                    for d in flags if comp[d] == comp[v]))
    return {v // width for v in reached}


def period_member(A: ZAutomaton, x: EpConfig) -> bool:
    """Reference membership test: is the eventually periodic word x accepted?

    A left lasso over the left period must reach the center run, which must
    reach a right lasso over the right period; the lassos carry the
    recurrence obligations.
    """
    if x.q != A.label_count:
        raise ValueError("word alphabet does not match the label space")
    n = len(A.states)

    def period_graph(period, marked):
        # node k * P + t: state k at phase t of the period
        P = len(period)
        g: list[list[int]] = [[] for _ in range(n * P)]
        for k, out in enumerate(A.succ):
            for label, d in out:
                for t in range(P):
                    if label == period[t]:
                        g[k * P + t].append(d * P + (t + 1) % P)
        comp = graph.strong_components(g)
        return g, graph.recurrent(
            g, comp, [k * P + t for k in marked for t in range(P)])

    left, seeds = period_graph(x.left_period, A.initial)
    good_left = graph.bfs_tree(left, seeds)
    # phase t at boundary p means (p - boundary anchor) = t mod period
    P = len(x.left_period)
    states = {k for k in range(n) if k * P in good_left}
    for p in range(x.center_start, x.center_end):
        symbol = x.cell(p)
        states = {d for s in states for label, d in A.succ[s]
                  if label == symbol}
        if not states:
            return False
    right, sinks = period_graph(x.right_period, A.final)
    good_right = graph.bfs_tree(graph.reverse(right), sinks)
    R = len(x.right_period)
    return any(k * R in good_right for k in states)


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


def lasso_free(succ, left_sets, right_sets) -> bool:
    """Is there no path from a left-recurrent to a right-recurrent node?

    A path exists iff some bi-infinite path visits every left set
    infinitely often to the left and every right set infinitely often to
    the right (generalized Buchi acceptance on both sides), so this is the
    emptiness test of automata on bi-infinite words.
    """
    comp = graph.strong_components(succ)
    targets = recurrent_meeting_all(succ, comp, right_sets)
    if not targets:
        return True
    reach = graph.bfs_tree(succ, recurrent_meeting_all(succ, comp, left_sets))
    return not any(v in reach for v in targets)


def recurrent_meeting_all(succ, comp: list[int], marked_sets) -> set[int]:
    """Nodes of the components that hold a cycle and meet every marked
    set: the intersection of one `graph.recurrent` call per set, or every
    node on a cycle when there is no set."""
    nodes = set(graph.recurrent(succ, comp))
    for marked in marked_sets:
        nodes &= set(graph.recurrent(succ, comp, marked))
    return nodes


def full_product(A: ZAutomaton, B: ZAutomaton) -> list[list[int]]:
    """Successor lists of the product of A and B on every pair, labels
    dropped: node a |B| + b steps to ta |B| + tb for each edge (label, ta)
    of A out of a and each edge (label, tb) of B out of b."""
    nb = len(B.states)
    by_label: list[dict[int, list[int]]] = [{} for _ in range(nb)]
    for sb, out in enumerate(B.succ):
        for label, tb in out:
            by_label[sb].setdefault(label, []).append(tb)
    return [[ta * nb + tb for label, ta in A.succ[sa]
             for tb in by_label[sb].get(label, ())]
            for sa in range(len(A.states)) for sb in range(nb)]


def disjoint_by_full_product(A: ZAutomaton, B: ZAutomaton) -> bool:
    """Reference emptiness of the product of A and B, built on every pair:
    node v is the pair (v // |B|, v % |B|)."""
    nb = len(B.states)
    succ = full_product(A, B)
    nodes = range(len(succ))

    def on(states, side):
        marked = set(states)
        return [v for v in nodes if divmod(v, nb)[side] in marked]

    return lasso_free(succ, [on(A.initial, 0), on(B.initial, 1)],
                      [on(A.final, 0), on(B.final, 1)])


def pairs_with_initial_past(A: ZAutomaton, B: ZAutomaton) -> set[int]:
    """Codes a |B| + b of the pairs of A and B with an infinite past of
    pairs in A.initial x B.initial: on the full product cut down to those
    pairs, the pairs a cycle reaches."""
    nb = len(B.states)
    initial_a, initial_b = set(A.initial), set(B.initial)
    inside = {a * nb + b for a in initial_a for b in initial_b}
    cut = [[w for w in out if w in inside] if v in inside else []
           for v, out in enumerate(full_product(A, B))]
    cyclic = graph.recurrent(cut, graph.strong_components(cut))
    return inside & graph.bfs_tree(cut, cyclic).keys()


def flag_intersect(A: ZAutomaton, B: ZAutomaton) -> ZAutomaton:
    """Reference intersection: the flag product built on named states.

    Each side owes two recurrence visits; one alternation flag per side
    reduces them to one: the flag advances when the currently watched
    component recurs, and the product recurrence set is "flag at rest and
    the first component recurring".  States are the tuples (state of A,
    state of B, lflag, rflag), numbered in sorted order by `from_named` and
    then renamed (A's entry, B's entry, lflag, rflag), as `intersect` names
    them.
    """
    if A.q != B.q or A.arity != B.arity:
        raise ValueError("alphabet mismatch")
    init_a, init_b = set(A.initial), set(B.initial)
    final_a, final_b = set(A.final), set(B.final)
    states = set()
    edges = set()
    by_label: dict = {}
    for sb, out in enumerate(B.succ):
        for label, tb in out:
            by_label.setdefault(label, []).append((sb, tb))
    for sa, out in enumerate(A.succ):
        for label, ta in out:
            for sb, tb in by_label.get(label, ()):
                for lflag_t in (0, 1):
                    if lflag_t == 0:
                        lflag_s = 1 if ta in init_a else 0
                    else:
                        lflag_s = 0 if tb in init_b else 1
                    for rflag_s in (0, 1):
                        if rflag_s == 0:
                            rflag_t = 1 if sa in final_a else 0
                        else:
                            rflag_t = 0 if sb in final_b else 1
                        src = (sa, sb, lflag_s, rflag_s)
                        dst = (ta, tb, lflag_t, rflag_t)
                        states.add(src)
                        states.add(dst)
                        edges.add((src, label, dst))
    product = from_named(
        A.q, A.arity, states, edges,
        [s for s in states if s[2] == 0 and s[0] in init_a],
        [s for s in states if s[3] == 0 and s[0] in final_a], key=None)
    return replace(product, states=tuple(
        (A.states[a], B.states[b], lflag, rflag)
        for a, b, lflag, rflag in product.states))


# ---------------------------------------------------------------------------
# Relation automata on named states

def from_named(q: int, arity: int, states, edges, initial, final,
               key=repr) -> ZAutomaton:
    """Number named states in `key` order (the names' own order for None),
    with each successor list sorted by (label, target); edges is a set of
    (state, label, state) triples.  The numbered automaton keeps the names
    as its `states`."""
    names = tuple(sorted(states, key=key))
    index = {s: k for k, s in enumerate(names)}
    succ: list[list[tuple[int, int]]] = [[] for _ in names]
    for s, label, t in edges:
        succ[index[s]].append((label, index[t]))
    return ZAutomaton(q, arity, names,
                      tuple(tuple(sorted(out)) for out in succ),
                      tuple(sorted(index[s] for s in initial)),
                      tuple(sorted(index[s] for s in final)))


def renumbered(A: ZAutomaton, number) -> ZAutomaton:
    """A with state named s renumbered number(s), which must map the names
    onto 0..n-1; the result's `states` is range(n), as the builders'."""
    new = [number(s) for s in A.states]
    n = len(new)
    if sorted(new) != list(range(n)):
        raise ValueError("numbering is not a bijection onto 0..n-1")
    succ: list = [None] * n
    for k, out in enumerate(A.succ):
        succ[new[k]] = tuple(sorted((label, new[t]) for label, t in out))
    return ZAutomaton(A.q, A.arity, range(n), tuple(succ),
                      tuple(sorted(new[k] for k in A.initial)),
                      tuple(sorted(new[k] for k in A.final)))


def slider_state_number(chi: BlockRule, name) -> int:
    """The documented number of a named slider state: block k * Q^2 plus
    `word_index` of its concatenated parts, Q = q^(m-1), k counting
    B(t=1..m-2), then L, then R."""
    q, m = chi.q, chi.block_length
    kind, parts = name[0], name[1:]
    if kind == "B":
        block, parts = parts[0] - 1, parts[1:]
    else:
        block = max(m - 2, 0) + (kind == "R")
    return block * q ** (2 * m - 2) + word_index(sum(parts, ()), q)


def sweeper_state_number(chi: BlockRule, name) -> int:
    """The documented number of a named sweeper state ("S", mm, zp, u,
    flag): mixed radix over mm, zp, the probe's partial word u (idle first,
    then by length, then by index) and the flag."""
    q, m = chi.q, chi.block_length
    if m == 1:
        return 0
    _, mm, zp, u, flag = name
    Q, P = q ** (m - 1), sum(q ** t for t in range(m))
    partial = 0 if u == ("idle",) else (
        sum(q ** t for t in range(len(u))) + word_index(u, q))
    return ((word_index(mm + zp, q)) * P + partial) * 2 + flag


def mismatch_state_number(f: LocalRule, name) -> int:
    """The documented number of a named mismatch state: after, then
    cmp(value), then count(value, steps), then pre(ybuf, zbuf) by
    `word_index` of ybuf + zbuf."""
    g = minimize_neighborhood(f)
    q, lag = g.q, g.anchor + g.width - 1
    wait = max(-lag, 0)
    kind = name[0]
    if kind == "after":
        return 0
    if kind == "cmp":
        return 1 + name[1]
    if kind == "count":
        return 1 + q + name[1] * (wait - 1) + name[2] - 2
    return 1 + q * wait + word_index(name[1] + name[2], q)


def named_slider_relation_automaton(chi: BlockRule) -> ZAutomaton:
    """The whole slider relation automaton, all m q^(2m-2) states, built
    on named states (see `zautomata.slider_relation_automaton`, which builds
    the live ones) and numbered by `from_named`."""
    if not chi.is_bijective():
        raise ValueError("slider relations need a bijective block rule")
    q, m = chi.q, chi.block_length
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
        return from_named(q, 2, states, edges, [L], [R])

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
    return from_named(q, 2, states, edges,
                      [s for s in states if s[0] == "L"],
                      [s for s in states if s[0] == "R"])


def whole_slider_automaton(chi: BlockRule) -> ZAutomaton:
    """The whole slider automaton with the package's state numbers: its
    `trim` is what `zautomata.slider_relation_automaton` builds."""
    return renumbered(named_slider_relation_automaton(chi),
                      lambda s: slider_state_number(chi, s))


def named_sweeper_relation_automaton(chi: BlockRule) -> ZAutomaton:
    """The sweeper relation automaton built on named states (see
    `zautomata.sweeper_relation_automaton`) and numbered by `from_named`."""
    q, m = chi.q, chi.block_length
    states = set()
    edges = set()

    def lab(y, z):
        return y * q + z

    if m == 1:
        S = ("S",)
        for y in range(q):
            edges.add((S, lab(y, chi((y,))[0]), S))
        return from_named(q, 2, [S], edges, [S], [S])

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
    return from_named(q, 2, states, edges, [s for s in states if s[4]], states)


def named_graph_mismatch_automaton(f: LocalRule) -> ZAutomaton:
    """The mismatch automaton built on named states (see
    `zautomata.graph_mismatch_automaton`) and numbered by `from_named`."""
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
    return from_named(q, 2, states, edges,
                      [s for s in states if s[0] == "pre"], [after])


# ---------------------------------------------------------------------------
# Automata on named states

@dataclass(frozen=True)
class NamedAutomaton:
    """An automaton as sets of named states and (state, label, state) edges,
    with the trimming, emptiness and witness search that ran on it before
    states were numbered."""

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

    def numbered(self) -> ZAutomaton:
        return from_named(self.q, self.arity, self.states, self.edges,
                          self.initial, self.final)


def _numbered(A: NamedAutomaton):
    """The states in iteration order, their numbers, and the edge graph."""
    order = list(A.states)
    index = {s: k for k, s in enumerate(order)}
    succ: list[list[int]] = [[] for _ in order]
    for s, _, t in A.edges:
        succ[index[s]].append(index[t])
    return order, index, succ


def _recurrent_parts(A: NamedAutomaton):
    """Numbered states and graph, plus the nodes of the cycles that can carry
    the initial and the final recurrence."""
    order, index, succ = _numbered(A)
    comp = graph.strong_components(succ)
    left = graph.recurrent(succ, comp, [index[s] for s in A.initial])
    right = graph.recurrent(succ, comp, [index[s] for s in A.final])
    return order, succ, left, right


def is_empty(A: ZAutomaton) -> bool:
    """No bi-infinite path satisfies both recurrence obligations: the
    emptiness test by lasso reachability, against which
    `nonempty_witness(A) is None` is checked."""
    succ = [[t for _, t in out] for out in A.succ]
    return lasso_free(succ, [A.initial], [A.final])


def _labeled_path(A: NamedAutomaton, sources: set, targets: set):
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


def _cycle_through(A: NamedAutomaton, state) -> list[int]:
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


def named_nonempty_witness(A: NamedAutomaton) -> EpConfig | None:
    """An accepted eventually periodic word, if any exists.

    Left lasso labels become the left period, the connecting path the
    center, the right lasso the right period.
    """
    order, succ, left, right = _recurrent_parts(A)
    reach = graph.bfs_tree(succ, left)
    if not any(v in reach for v in right):
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


def named_trim(A: NamedAutomaton) -> NamedAutomaton:
    """Drop states on no accepting bi-infinite path; language unchanged."""
    order, succ, left, right = _recurrent_parts(A)
    after_left = graph.bfs_tree(succ, left)
    before_right = graph.bfs_tree(graph.reverse(succ), right)
    keep = {order[v] for v in after_left if v in before_right}
    return NamedAutomaton(A.q, A.arity, frozenset(keep),
                          frozenset((s, l, t) for s, l, t in A.edges
                                    if s in keep and t in keep),
                          A.initial & keep, A.final & keep)


# ---------------------------------------------------------------------------
# The sweep engine on window tuples

def tuple_sweep_range(rule: BlockRule, x: EpConfig, i: int,
                      j: int) -> EpConfig:
    """`sweep_range` as one rule application per position, each rewriting
    a window tuple of the cells in place."""
    m = rule.block_length
    lo = min(i, x.center_start)
    hi = max(j + m - 1, x.center_end)
    cells = list(x.window(lo, hi))
    for p in range(i, j):
        k = p - lo
        cells[k:k + m] = rule(tuple(cells[k:k + m]))
    lper = len(x.left_period)
    rper = len(x.right_period)
    return EpConfig(x.q, x.window(lo - lper, lo), tuple(cells), lo,
                    x.window(hi, hi + rper))


def tuple_sweep_step(rule: BlockRule, window: tuple[int, ...],
                     incoming: int) -> tuple[int, tuple[int, ...]]:
    """One transducer step of a left-to-right sweep.

    The window holds the m tape cells the next application will rewrite.
    Applying the rule finalizes the leftmost cell (that is the emitted
    output) and shifting in the next original tape symbol forms the window
    of the following position.
    """
    img = rule(window)
    return img[0], img[1:] + (incoming,)


def tuple_sweep_right_limit_from(rule: BlockRule, x: EpConfig, i: int,
                                 window: tuple[int, ...]) -> EpConfig:
    """Rightward limit sweep continued from a mid-sweep window.

    Like tuple_sweep_right_limit but the m cells at [i, i+m) are taken from
    the given window instead of the tape; cells below i are returned as in x.
    """
    m = rule.block_length
    rper = len(x.right_period)
    outs: list[int] = []
    p = i
    while p + m < x.center_end:
        out, window = tuple_sweep_step(rule, window, x.cell(p + m))
        outs.append(out)
        p += 1
    seen: dict[tuple[tuple[int, ...], int], int] = {}
    tail: list[int] = []
    phase = (p + m - x.center_end) % rper
    while (window, phase) not in seen:
        seen[(window, phase)] = len(tail)
        out, window = tuple_sweep_step(rule, window, x.right_period[phase])
        tail.append(out)
        phase = (phase + 1) % rper
    start = seen[(window, phase)]
    cs = min(i, x.center_start)
    lper = len(x.left_period)
    center = cell_window(x, cs, i) + tuple(outs) + tuple(tail[:start])
    return EpConfig(x.q, cell_window(x, cs - lper, cs), center, cs,
                    tuple(tail[start:])).normalize()


def tuple_sweep_right_limit(rule: BlockRule, x: EpConfig,
                            i: int) -> EpConfig:
    """Limit of applying the rule at i, i+1, i+2, ... forever."""
    return tuple_sweep_right_limit_from(
        rule, x, i, cell_window(x, i, i + rule.block_length))


def tuple_sweep_left_limit(rule: BlockRule, x: EpConfig, i: int) -> EpConfig:
    """Limit of applying the rule at i-1, i-2, ..., through the mirror
    image built afresh on every call."""
    y = tuple_sweep_right_limit(reverse_block(rule), x.reversed(),
                                2 - i - rule.block_length)
    return y.reversed()


def tuple_representation_eval(rule: BlockRule, x: EpConfig,
                              i: int) -> tuple[EpConfig, EpConfig]:
    """Pair (y, z) represented by seed x at anchor i, with the inverse
    table built afresh from the rule's table."""
    inv = [0] * len(rule.table)
    for u, v in enumerate(rule.table):
        inv[v] = u
    inverse = BlockRule(rule.q, rule.block_length, tuple(inv))
    return (tuple_sweep_left_limit(inverse, x, i),
            tuple_sweep_right_limit(rule, x, i))


def tuple_anchored_limits(chi: BlockRule, y: EpConfig):
    """(sp, window, limit) for every accumulation point of chi swept from
    anchors going left: sp = center_start - m - d for d = 0, 1, ... below
    the left period, and each window of the eventual cycle at sp in cycle
    order, with its limit configuration, normalized.  Orbit and cycle are
    keyed by window tuples."""
    m = chi.block_length
    P = len(y.left_period)
    base = y.center_start - m
    for d in range(P):
        sp = base - d
        start = cell_window(y, sp, sp + m)
        # windows at sp reachable from anchors sp - k*P, k large
        orbit = {start: 0}
        trail = [start]
        window = start
        while True:
            outs_seg = []
            for t in range(P):
                out, window = tuple_sweep_step(chi, window,
                                               y.cell(sp - P + t + m))
                outs_seg.append(out)
            if window in orbit:
                cycle = trail[orbit[window]:]
                break
            orbit[window] = len(trail)
            trail.append(window)
        outs = {}
        w = cycle[0]
        for _ in cycle:
            seg = []
            for t in range(P):
                out, w = tuple_sweep_step(chi, w, y.cell(sp - P + t + m))
                seg.append(out)
            outs[cycle[len(outs)]] = (tuple(seg), w)
        for e in cycle:
            left = []
            w = e
            for _ in cycle:
                seg, w = outs[w]
                left.extend(seg)
            piece = tuple_sweep_right_limit_from(chi, y, sp, e)
            hi = max(piece.center_end, sp)
            rper = len(piece.right_period)
            z = EpConfig(y.q, tuple(left), cell_window(piece, sp, hi), sp,
                         tuple(piece.cell(hi + t) for t in range(rper)))
            yield sp, e, z.normalize()


def tuple_sweeper_eval(chi: BlockRule, y: EpConfig) -> SweepOutcome:
    """Every limit of `tuple_anchored_limits`, compared with the first: the
    first that differs is the second accumulation point."""
    limits = [z for _, _, z in tuple_anchored_limits(chi, y)]
    first = limits[0]
    for z in limits[1:]:
        if not ep_equal(first, z):
            return SweepOutcome(first, z)
    return SweepOutcome(first)


def tuple_mealy_from_block(
        chi: BlockRule) -> tuple[MealyAutomaton, tuple[int, ...]]:
    """Block-level transducer: apply chi at positions 0..n-1 of state+letter.

    Returns the machine and its output table: entry s * q^n + a holds the
    output block, the n cells finalized while reading letter a in state s.
    """
    n = chi.block_length
    outs = []
    nxts = []
    for sa in all_words(2 * n, chi.q):
        cells = list(sa)
        for p in range(n):
            cells[p:p + n] = chi(tuple(cells[p:p + n]))
        outs.append(word_index(tuple(cells[:n]), chi.q))
        nxts.append(word_index(tuple(cells[n:]), chi.q))
    return MealyAutomaton(chi.q, n, tuple(nxts)), tuple(outs)


# ---------------------------------------------------------------------------
# Synthesis on tuple pairs and the two-loop sampled check

def pair_synthesize(f: LocalRule,
                    verdict: SliderVerdict | None = None) -> BlockRule:
    """The slider construction on decoded (v, w) tuple pairs.

    Lists Psi_n lexicographically and maps pi((av, bw), k) . c to
    b . pi((vc, wd), k) with d = f_loc(a v c), looking every pair up in a
    dict keyed by the pairs.
    """
    verdict = slider_exists(f) if verdict is None else verdict
    if not verdict:
        raise NotSliderError(verdict)
    # v and w have equal lengths, so this sorts by v + w
    listing = sorted(verdict.stairs.pairs)
    index = {pair: i for i, pair in enumerate(listing)}
    q, m = f.q, verdict.m
    n = 3 * m
    N = q ** n // len(listing)
    g = to_radius_form(minimize_neighborhood(f), m)
    table: list[int | None] = [None] * q ** (n + 1)
    for av, bw in listing:
        v, b, w = av[1:], bw[0], bw[1:]
        base_in = index[(av, bw)] * N
        for c in range(q):
            d = g(av + (c,))
            target = (v + (c,), w + (d,))
            if target not in index:
                raise IntegrityError(f"constructed pair {target} is no stair")
            base_out = b * q ** n + index[target] * N
            for k in range(N):
                slot = (base_in + k) * q + c
                if table[slot] is not None:
                    raise IntegrityError("block rule table slot assigned twice")
                table[slot] = base_out + k
    rule = BlockRule(q, n + 1, tuple(table))
    if not rule.is_bijective():
        raise IntegrityError("synthesized block rule is not a permutation")
    return rule


def two_pass_verify(chi: BlockRule, f: LocalRule, samples: int = 100,
                    seed: int = 0) -> VerifyResult:
    """The sampled check as two loops over the same seeded draws: the
    slider loop stops at the first counterexample, the agreement loop at
    the first draw where the slider and sweeper sides answer differently.
    Every draw is evaluated afresh; no verdict is reused."""
    if chi.q != f.q:
        raise ValueError("alphabet mismatch")
    if not chi.is_bijective():
        raise ValueError("candidate block rule is not bijective")
    found = VerifyResult(True, samples)
    rng = random.Random(seed)
    for trial in range(samples):
        x = random_ep_config(rng, chi.q)
        i = rng.randrange(-3, 4)
        y, z = representation_eval(chi, x, i)
        if not ep_equal(z, cellwise_apply_ep(f, y)):
            found = VerifyResult(False, trial + 1, (x, i, y, z))
            break
    agree = True
    rng = random.Random(seed)
    for _ in range(samples):
        x = random_ep_config(rng, chi.q)
        i = rng.randrange(-3, 4)
        y, z = representation_eval(chi, x, i)
        slider_ok = ep_equal(z, cellwise_apply_ep(f, y))
        outcome = sweeper_eval(chi, x)
        sweeper_ok = outcome.converges and ep_equal(outcome.limit,
                                                    cellwise_apply_ep(f, x))
        if slider_ok != sweeper_ok:
            agree = False
            break
    return VerifyResult(found.ok, found.samples, found.counterexample, agree)


def every_draw_verify_decomposition(d: Decomposition, samples: int = 100,
                                    seed: int = 0) -> bool:
    """The sampled decomposition check with every draw evaluated afresh,
    repeated draws included."""
    rng = random.Random(seed)
    for _ in range(samples):
        y = random_ep_config(rng, d.claimed_ca.q)
        v = y
        try:
            for stage in d.stages:
                v = stage(v)
        except DivergentSweepError:
            return False
        if not ep_equal(v, apply_ep(d.claimed_ca, y)):
            return False
    return True
