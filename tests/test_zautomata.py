"""Bi-infinite-word automata: membership, emptiness, products, decisions."""

import itertools
import random
import time

import pytest

from casweep.core import (EpConfig, IntegrityError, ResourceCapError, ep_equal,
                          ep_zip, random_ep_config, word_index, word_of_index)
from casweep.ca import (BUILTIN_RULES, LocalRule, builtin_rule, apply_ep,
                        minimize_neighborhood)
from casweep.blockrule import (BUILTIN_BLOCK_RULES, BlockRule, identity_block,
                               builtin_block_rule, representation_eval,
                               sweeper_eval)
from casweep import zautomata
from casweep.synthesis import synthesize
from casweep.zautomata import (member, nonempty_witness,
                               trim, intersect, is_slider_rule_for,
                               slider_relation_automaton,
                               sweeper_relation_automaton,
                               graph_mismatch_automaton)
from oracles import (NamedAutomaton, cellwise_apply_ep,
                     disjoint_by_full_product, ep_replace, flag_intersect,
                     from_named, is_empty, mismatch_state_number,
                     named_graph_mismatch_automaton, named_nonempty_witness,
                     named_sweeper_relation_automaton, named_trim,
                     pairs_with_initial_past, period_member, project,
                     renumbered, sweeper_state_number,
                     whole_slider_automaton)

SQUASH = BlockRule(2, 2, (0, 0, 3, 3))


def mutate(z, pos, q):
    return ep_replace(z, pos, ((z.cell(pos) + 1) % q,))


# ---------------------------------------------------------------------------
# slider relation automata

SLIDER_PAIRS = [("swap", "shift"), ("xor_block", "ca102")]


@pytest.mark.parametrize("block_name,ca_name", SLIDER_PAIRS)
def test_slider_automaton_is_rule_graph(block_name, ca_name):
    A = slider_relation_automaton(builtin_block_rule(block_name))
    f = builtin_rule(ca_name)
    rng = random.Random(5)
    for _ in range(40):
        y = random_ep_config(rng, 2)
        z = apply_ep(f, y)
        assert member(A, ep_zip(y, z))
        assert not member(A, ep_zip(y, mutate(z, rng.randrange(-3, 4), 2)))


def test_identity_slider_is_diagonal():
    A = slider_relation_automaton(identity_block(2, 1))
    rng = random.Random(6)
    for _ in range(30):
        y = random_ep_config(rng, 2)
        assert member(A, ep_zip(y, y))
        assert not member(A, ep_zip(y, mutate(y, rng.randrange(-3, 4), 2)))


@pytest.mark.parametrize("name", ["swap", "xor_block", "not_closed"])
def test_slider_membership_agrees_with_representations(name):
    chi = builtin_block_rule(name)
    A = slider_relation_automaton(chi)
    rng = random.Random(9)
    for _ in range(50):
        x = random_ep_config(rng, chi.q)
        i = rng.randrange(-3, 4)
        y, z = representation_eval(chi, x, i)
        assert member(A, ep_zip(y, z))


def test_slider_automaton_needs_bijective_rule():
    with pytest.raises(ValueError):
        slider_relation_automaton(SQUASH)


def test_synthesized_rule_passes_exact_check():
    f = builtin_rule("shift")
    chi = synthesize(f)
    assert chi.block_length == 7
    assert is_slider_rule_for(chi, f)


# ---------------------------------------------------------------------------
# sweeper relation automata

@pytest.mark.parametrize("name", ["swap", "xor_block", "not_closed"])
def test_sweeper_membership_agrees_with_sweeps(name):
    chi = builtin_block_rule(name)
    A = sweeper_relation_automaton(chi)
    rng = random.Random(12)
    for _ in range(40):
        y = random_ep_config(rng, chi.q)
        out = sweeper_eval(chi, y)
        assert member(A, ep_zip(y, out.limit))
        if out.converges:
            bad = mutate(out.limit, rng.randrange(-3, 4), chi.q)
            assert not member(A, ep_zip(y, bad))
        else:
            assert member(A, ep_zip(y, out.second))


def test_sweeper_accepts_discontinuous_limit():
    # sweeps of the alphabet-4 rule converge to a configuration that jumps
    # one cell left of the input's tail boundary; the automaton knows it
    chi = builtin_block_rule("not_closed")
    A = sweeper_relation_automaton(chi)
    for n in (2, 5):
        y = EpConfig(4, (0,), (), -n, (1,))
        z = EpConfig(4, (0,), (), -n - 1, (2,))
        assert member(A, ep_zip(y, z))
        assert not member(A, ep_zip(y, y))


def test_sweeper_accepts_both_limits_of_divergent_rule():
    A = sweeper_relation_automaton(SQUASH)
    y = EpConfig(2, (0, 1), (), 0, (0, 1))
    out = sweeper_eval(SQUASH, y)
    assert not out.converges
    assert member(A, ep_zip(y, out.limit))
    assert member(A, ep_zip(y, out.second))


# ---------------------------------------------------------------------------
# decisions

def test_exact_slider_check_on_bundled_pairs():
    swap = builtin_block_rule("swap")
    assert is_slider_rule_for(swap, builtin_rule("shift"))
    assert not is_slider_rule_for(swap, builtin_rule("identity"))
    assert is_slider_rule_for(builtin_block_rule("xor_block"), builtin_rule("ca102"))
    assert is_slider_rule_for(identity_block(2, 1), builtin_rule("identity"))
    assert not is_slider_rule_for(builtin_block_rule("xor_block"), builtin_rule("shift"))


def test_exact_check_of_synthesized_rules_against_every_ca():
    names = ("identity", "shift", "ca102")
    rules = {name: builtin_rule(name) for name in names}
    blocks = {name: synthesize(f) for name, f in rules.items()}
    for block_name, chi in blocks.items():
        for ca_name, f in rules.items():
            assert is_slider_rule_for(chi, f) == (block_name == ca_name), \
                (block_name, ca_name)


def search_pairs(monkeypatch, chi, f) -> tuple[bool, int, int]:
    """The exact check's verdict, its seed count and the pairs its search
    visited, seeds included: the walk adds the pairs it visits to the set
    of seeds."""
    found = []
    seeds = zautomata._left_recurrent_pairs

    def counted(*args):
        pairs = seeds(*args)
        found.append((len(pairs), pairs))
        return pairs

    monkeypatch.setattr(zautomata, "_left_recurrent_pairs", counted)
    verdict = is_slider_rule_for(chi, f)
    (seed_count, visited), = found
    return verdict, seed_count, len(visited)


def test_exact_slider_check_caps_its_product(monkeypatch):
    """The pairs are counted as the search visits them, not predicted as
    |slider| |mismatch|: swap against shift visits 8 of the 24 pairs, 4 of
    them seeds, so a cap of 8 lets it through.  At 7 the slider's own 8
    states are refused first; the synthesized ca102 rule's 512 slider
    states fit a cap of 575, while its 576th visited pair does not."""
    chi, f = builtin_block_rule("swap"), builtin_rule("shift")
    slider = slider_relation_automaton(chi)
    mismatch = graph_mismatch_automaton(f)
    assert len(slider.states) * len(mismatch.states) == 24
    assert search_pairs(monkeypatch, chi, f) == (True, 4, 8)
    assert is_slider_rule_for(chi, f, max_states=8) is True
    with pytest.raises(ResourceCapError,
                       match="slider live states: 8 is over the cap 7$"):
        is_slider_rule_for(chi, f, max_states=7)
    ca102 = builtin_rule("ca102")
    chi = synthesize(ca102)
    assert len(slider_relation_automaton(chi).states) == 512
    assert search_pairs(monkeypatch, chi, ca102) == (True, 128, 576)
    assert is_slider_rule_for(chi, ca102, max_states=576) is True
    with pytest.raises(ResourceCapError,
                       match="slider-mismatch product nodes: 576 is over "
                             "the cap 575$"):
        is_slider_rule_for(chi, ca102, max_states=575)


def test_builders_are_capped_by_default():
    """A far anchor asks the mismatch automaton for 1 + 3^(10^8) states and
    a block-12 rule the sweeper automaton for about 2^35: the default cap
    refuses them at once, the mismatch automaton also inside the exact
    check."""
    f = LocalRule(3, 10**8, 1, (0, 1, 2))
    with pytest.raises(ResourceCapError, match="mismatch automaton states"):
        graph_mismatch_automaton(f)
    with pytest.raises(ResourceCapError, match="mismatch automaton states"):
        is_slider_rule_for(identity_block(3, 1), f)
    with pytest.raises(ResourceCapError, match="sweeper automaton states"):
        sweeper_relation_automaton(identity_block(2, 12))


def test_exact_slider_check_needs_bijective_rule():
    with pytest.raises(ValueError):
        is_slider_rule_for(SQUASH, builtin_rule("identity"))


# ---------------------------------------------------------------------------
# the live part of the slider automaton

def live_gate_rules():
    """Seeded bijective rules over q in {2, 3} of block length 1-5, and the
    synthesized identity, shift and ca102 rules (block length 7)."""
    rng = random.Random(91)
    for q in (2, 3):
        for m in range(1, 6):
            for _ in range(2):
                yield BlockRule(q, m, tuple(rng.sample(range(q ** m), q ** m)))
    for name in ("identity", "shift", "ca102"):
        yield synthesize(builtin_rule(name))


@pytest.mark.parametrize("chi", live_gate_rules(),
                         ids=lambda chi: f"q{chi.q}m{chi.block_length}")
def test_live_slider_automaton_is_the_trimmed_one(chi):
    live = slider_relation_automaton(chi)
    full = trim(whole_slider_automaton(chi))
    assert live.q == full.q and live.arity == full.arity
    assert live.states == full.states
    assert live.succ == full.succ
    assert live.initial == full.initial
    assert live.final == full.final


@pytest.mark.parametrize("name", ["identity", "shift", "ca102"])
def test_live_slider_automaton_counts_before_it_builds(name):
    """One state below the candidate total is refused by the running
    count before the last bridge layer is listed, so before any edge is
    built: edges are numbered over every layer.  The builder's frame at the
    raise holds B(1) .. B(m-3) alone."""
    chi = synthesize(builtin_rule(name))
    total = len(slider_relation_automaton(chi).states)
    assert len(slider_relation_automaton(chi, max_states=total).states) \
        == total
    with pytest.raises(ResourceCapError,
                       match=f"slider live states: {total} is over the cap "
                             f"{total - 1}$") as refused:
        is_slider_rule_for(chi, builtin_rule(name), max_states=total - 1)
    layers = next(entry.locals["layers"] for entry in refused.traceback
                  if entry.name == "slider_relation_automaton")
    assert len(layers) == chi.block_length - 3


def l_core_rules():
    """`live_gate_rules` plus seeded bijective q=4 rules of block 2-3."""
    yield from live_gate_rules()
    rng = random.Random(47)
    for m in (2, 3):
        for _ in range(3):
            yield BlockRule(4, m, tuple(rng.sample(range(4 ** m), 4 ** m)))


@pytest.mark.parametrize("chi", l_core_rules(),
                         ids=lambda chi: f"q{chi.q}m{chi.block_length}")
def test_left_recurrent_slider_states_are_the_l_core(chi):
    """The exact check seeds its product from `initial` instead of
    searching the slider automaton's components: they are the same."""
    slider = slider_relation_automaton(chi)
    assert zautomata._left_recurrent(slider) == list(slider.initial)


@pytest.mark.parametrize("block_name,ca_name,verdict,seeds,visited", [
    ("identity", "identity", True, 64, 448),
    ("shift", "shift", True, 128, 576), ("ca102", "ca102", True, 128, 576),
    ("identity", "shift", False, 128, 128)],
    ids=["identity-identity-True-448", "shift-shift-True-576",
         "ca102-ca102-True-576", "identity-shift-False-128"])
def test_exact_check_builds_the_same_product(monkeypatch, block_name, ca_name,
                                             verdict, seeds, visited):
    """The seeds and the visited pairs of the block-7 checks the benchmark
    runs.  A positive check visits every pair the seeds reach; the
    negative one answers before it visits a pair beyond its seeds."""
    chi = synthesize(builtin_rule(block_name))
    assert search_pairs(monkeypatch, chi, builtin_rule(ca_name)) \
        == (verdict, seeds, visited)


def test_exact_check_of_a_q3_block7_rule(monkeypatch):
    """This q=3 width-2 rule is synthesized with block length 7: its slider
    automaton has 3,720,087 states, of which 8,505 are live, and the
    search over its pairs with the mismatch automaton visits 14,337 pairs
    from 6,561 seeds."""
    f = LocalRule(3, 0, 2, (0, 2, 1, 1, 2, 0, 0, 2, 1))
    chi = synthesize(f)
    assert chi.block_length == 7
    start = time.monotonic()
    assert len(slider_relation_automaton(chi).states) == 8505
    assert search_pairs(monkeypatch, chi, f) == (True, 6561, 14337)
    assert time.monotonic() - start < 10


def search_rounds(f: LocalRule) -> int:
    """max(w-1, lag) of f with its neighborhood minimized: the labels that
    fix a pre-state of its mismatch automaton."""
    g = minimize_neighborhood(f)
    return max(g.width - 1, g.anchor + g.width - 1)


def cross_check_cases():
    """(block rule, local rules, the local rules it realizes): each
    `live_gate_rules` rule against one seeded local rule of its alphabet
    per lag -3..3, the synthesized identity, shift and ca102 rules against
    all three, and every block-1 rule over q = 2, 3 against every width-1
    rule at anchors -1, 0, 1, of which it realizes the one at anchor 0
    with its own table."""
    rng = random.Random(251)
    rules = list(seeded_local_rules())
    for chi in live_gate_rules():
        yield chi, [rng.choice([f for f in rules if f.q == chi.q
                                and f.anchor + f.width - 1 == lag])
                    for lag in range(-3, 4)], None
    names = ("identity", "shift", "ca102")
    for name in names:
        yield (synthesize(builtin_rule(name)),
               [builtin_rule(other) for other in names], [builtin_rule(name)])
    for q in (2, 3):
        for perm in itertools.permutations(range(q)):
            yield (BlockRule(q, 1, perm),
                   [LocalRule(q, anchor, 1, table) for anchor in (-1, 0, 1)
                    for table in itertools.product(range(q), repeat=q)],
                   [LocalRule(q, 0, 1, perm)])


def has_counterexample(chi: BlockRule, f: LocalRule, draws: int = 100) -> bool:
    """Does one of `draws` seeded draws (x, i) represent a pair (y, z) of
    chi with z != f(y)?  Such a draw shows that chi does not realize f."""
    rng = random.Random(7)
    for _ in range(draws):
        x = random_ep_config(rng, chi.q)
        y, z = representation_eval(chi, x, rng.randrange(-3, 4))
        if not ep_equal(z, cellwise_apply_ep(f, y)):
            return True
    return False


@pytest.mark.parametrize(
    "case", cross_check_cases(),
    ids=lambda case: f"q{case[0].q}m{case[0].block_length}")
def test_exact_search_matches_the_product_emptiness_test(case):
    """Where the full product has at most 50,000 pairs, the search decides
    as its emptiness test, and its seeds are exactly the pairs with an
    infinite past in initial x initial, settled within max(w-1, lag) + 1
    rounds (`_left_recurrent_pairs` raises otherwise).  The 14 of the 161
    seeded pairs above that bound (q=3, block length 4-5) must be refused,
    each with a seeded draw that represents a pair the local rule does not
    map."""
    chi, rules, realized = case
    slider = slider_relation_automaton(chi)
    for f in rules:
        verdict = is_slider_rule_for(chi, f)
        if realized is not None:
            assert verdict is (f in realized), f
        mismatch = graph_mismatch_automaton(f)
        if len(slider.states) * len(mismatch.states) > 50_000:
            assert chi.q == 3 and chi.block_length >= 4
            assert verdict is False, f
            assert has_counterexample(chi, f), f
            continue
        assert verdict is disjoint_by_full_product(slider, mismatch), f
        assert zautomata._left_recurrent_pairs(
            slider, mismatch, search_rounds(f), None, "pairs") \
            == pairs_with_initial_past(slider, mismatch), f


def test_unsettled_seed_layer_is_an_integrity_error():
    """x0 xor x2 needs max(w-1, lag) = 2 rounds to fix a pre-state:
    allowed one round less, the layer is still moving after two, which the
    search reports as a fault rather than a verdict."""
    chi = synthesize(builtin_rule("identity"))
    f = LocalRule(2, 0, 3, (0, 1, 0, 1, 1, 0, 1, 0))
    assert search_rounds(f) == 2
    slider = slider_relation_automaton(chi)
    mismatch = graph_mismatch_automaton(f)
    with pytest.raises(IntegrityError, match="still moving after 2 rounds"):
        zautomata._left_recurrent_pairs(slider, mismatch, 1, None, "pairs")
    assert len(zautomata._left_recurrent_pairs(slider, mismatch, 2, None,
                                               "pairs")) == 256


def route_one_block_rule(f: LocalRule) -> BlockRule:
    """The block rule (f(x), s, x[1:]) of length anchor + width for a rule
    that permutes its leftmost cell: s is the anchor cells it carries."""
    q, a, w = f.q, f.anchor, f.width
    m = a + w

    def image(word):
        s, x = word[:a], word[a:]
        return (f.table[word_index(x, q)],) + s + x[1:]

    return BlockRule(q, m, tuple(word_index(image(word_of_index(i, m, q)), q)
                                 for i in range(q ** m)))


def test_route_one_q4_block5_rule_verifies_under_the_default_cap(monkeypatch):
    """The route-1 block rule of q=4 x2 + x3 x4 makes 35,840 x 4,097 =
    146,836,480 (slider, mismatch) pairs; the search visits 189,440 of
    them from 65,536 seeds.  The same table at anchor 1 is refused before
    the search visits a pair beyond its seeds."""
    table = tuple((x2 + x3 * x4) % 4 for x2 in range(4) for x3 in range(4)
                  for x4 in range(4))
    f = LocalRule(4, 2, 3, table)
    chi = route_one_block_rule(f)
    assert chi.block_length == 5
    assert len(slider_relation_automaton(chi).states) == 35_840
    assert len(graph_mismatch_automaton(f).states) == 4_097
    assert search_pairs(monkeypatch, chi, f) == (True, 65_536, 189_440)
    assert search_pairs(monkeypatch, chi, LocalRule(4, 1, 3, table)) \
        == (False, 65_536, 65_536)


# ---------------------------------------------------------------------------
# mismatch automata

@pytest.mark.parametrize("name", ["identity", "shift", "shift_inv", "ca102",
                                  "xor_left"])
def test_mismatch_automaton_semantics(name):
    f = builtin_rule(name)
    A = graph_mismatch_automaton(f)
    rng = random.Random(21)
    for _ in range(25):
        y = random_ep_config(rng, f.q)
        z = apply_ep(f, y)
        assert not member(A, ep_zip(y, z))
        assert member(A, ep_zip(y, mutate(z, rng.randrange(-3, 4), f.q)))


# ---------------------------------------------------------------------------
# emptiness, witnesses, trimming

def test_acyclic_automaton_is_empty():
    A = from_named(2, 1, frozenset([0, 1]), frozenset([(0, 1, 1)]),
                   frozenset([0]), frozenset([1]))
    assert is_empty(A)
    assert nonempty_witness(A) is None


def test_two_loop_automaton_witness():
    A = from_named(2, 1, frozenset([0, 1]),
                   frozenset([(0, 0, 0), (0, 1, 1), (1, 1, 1)]),
                   frozenset([0]), frozenset([1]))
    assert not is_empty(A)
    w = nonempty_witness(A)
    assert member(A, w)
    assert w.cell(-5) == 0 and w.cell(5) == 1


def test_witness_of_intersection_lies_in_both_languages():
    A = slider_relation_automaton(builtin_block_rule("swap"))
    B = graph_mismatch_automaton(builtin_rule("identity"))
    both = intersect(A, B)
    assert not is_empty(both)
    w = nonempty_witness(both)
    assert member(both, w) and member(A, w) and member(B, w)


def test_intersection_with_confirming_mismatch_is_empty():
    A = slider_relation_automaton(builtin_block_rule("swap"))
    B = graph_mismatch_automaton(builtin_rule("shift"))
    assert is_empty(intersect(A, B))


def test_intersection_membership_is_conjunction():
    # i.o. many 0s and i.o. many 1s to the right, built as the flag product
    # (t1's final state steps out of its final set, so `intersect` refuses it)
    edges = frozenset([(s, 0, "a") for s in "ab"] +
                      [(s, 1, "b") for s in "ab"])
    t0 = from_named(2, 1, frozenset("ab"), edges,
                    frozenset("ab"), frozenset("a"))
    t1 = from_named(2, 1, frozenset("ab"), edges,
                    frozenset("ab"), frozenset("b"))
    both = flag_intersect(t0, t1)
    cases = [((0, 1), True), ((0,), False), ((1,), False), ((0, 1, 1), True)]
    for rp, expect in cases:
        x = EpConfig(2, (0, 1), (), 0, rp)
        assert member(t0, x) == (0 in rp)
        assert member(t1, x) == (1 in rp)
        assert member(both, x) is expect


KINDS = {"slider": slider_relation_automaton,
         "sweeper": sweeper_relation_automaton}
SAME_ALPHABET = [(b, f) for b in BUILTIN_BLOCK_RULES for f in BUILTIN_RULES
                 if builtin_block_rule(b).q == builtin_rule(f).q]


def relation_words(kind, chi, rng, count):
    """`count` pairs (y, z) the automaton of this kind accepts, each
    followed by a one-cell mutation of z, zipped."""
    words = []
    for _ in range(count):
        x = random_ep_config(rng, chi.q)
        if kind == "slider":
            y, z = representation_eval(chi, x, rng.randrange(-3, 4))
        else:
            y, z = x, sweeper_eval(chi, x).limit
        words += [ep_zip(y, z),
                  ep_zip(y, mutate(z, rng.randrange(-3, 4), chi.q))]
    return words


def assert_same_language(A, B, words) -> tuple[bool, set[bool]]:
    """`intersect` and the flag product agree on emptiness, and `member`
    answers alike on both for the words and for each other's witnesses.
    Returns the emptiness and the set of `member` answers."""
    plain, flags = intersect(A, B), flag_intersect(A, B)
    w, v = nonempty_witness(plain), nonempty_witness(flags)
    assert (w is None) is (v is None)
    answers = set()
    for x in words:
        answer = member(plain, x)
        assert member(flags, x) is answer
        answers.add(answer)
    for x in (w, v):
        if x is not None:
            assert member(plain, x) and member(flags, x)
    return w is None, answers


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("block_name,ca_name", SAME_ALPHABET)
def test_intersect_matches_flag_product(kind, block_name, ca_name):
    """`intersect` accepts the flag product's language, which is the
    conjunction of the two automata's."""
    chi = builtin_block_rule(block_name)
    A = KINDS[kind](chi)
    B = graph_mismatch_automaton(builtin_rule(ca_name))
    words = relation_words(kind, chi, random.Random(29), 3)
    for x in words:
        assert member(intersect(A, B), x) is (member(A, x) and member(B, x))
    assert_same_language(A, B, words)


def test_intersect_matches_the_flag_product_on_seeded_rules():
    """Each relation automaton of the `seeded_block_rules` against the
    mismatch automaton of each same-alphabet `seeded_local_rules` rule.
    The flag product is built on every pair, so pairs whose full product
    has more than 1,000 pairs are skipped."""
    rng = random.Random(31)
    verdicts, answers, cases = set(), set(), 0
    for chi in seeded_block_rules():
        for kind in KINDS:
            if kind == "slider" and not chi.is_bijective():
                continue
            A = KINDS[kind](chi)
            for f in seeded_local_rules():
                B = graph_mismatch_automaton(f)
                if f.q != chi.q or len(A.states) * len(B.states) > 1000:
                    continue
                empty, seen = assert_same_language(
                    A, B, relation_words(kind, chi, rng, 1))
                verdicts.add(empty)
                answers |= seen
                cases += 1
    assert cases >= 250 and verdicts == answers == {True, False}


def test_intersect_refuses_an_open_second_automaton():
    """B must enter its initial states only from initial states and leave
    its final states only into final states."""
    edges = frozenset([("a", 0, "a"), ("a", 0, "b"), ("b", 0, "b"),
                       ("b", 0, "a")])
    A = from_named(2, 1, frozenset("ab"), edges, frozenset("a"),
                   frozenset("b"))
    for initial, final in (("a", "ab"), ("ab", "b")):
        B = from_named(2, 1, frozenset("ab"), edges, frozenset(initial),
                       frozenset(final))
        with pytest.raises(ValueError):
            intersect(A, B)
    assert not is_empty(intersect(A, from_named(
        2, 1, frozenset("ab"), edges, frozenset("ab"), frozenset("ab"))))


def seeded_block_rules():
    """A bijective and a non-bijective block rule for each q in {2, 3} and
    block length 1-4."""
    rng = random.Random(83)
    for q in (2, 3):
        for m in range(1, 5):
            perm = list(range(q ** m))
            rng.shuffle(perm)
            yield BlockRule(q, m, tuple(perm))
            yield BlockRule(q, m, (0, 0) + tuple(rng.randrange(q ** m)
                                                 for _ in range(q ** m - 2)))


def member_cases():
    """(kind, block rule) with the id name-kind: both automata of each
    bundled block rule, then those of the `seeded_block_rules`, the slider
    automaton of the bijective ones and the sweeper automaton when it has
    fewer than 20,000 states."""
    named = [(name, builtin_block_rule(name)) for name in BUILTIN_BLOCK_RULES]
    named += [(f"q{chi.q}m{chi.block_length}_{i % 2}", chi)
              for i, chi in enumerate(seeded_block_rules())]
    for name, chi in named:
        if chi.is_bijective():
            yield pytest.param("slider", chi, id=f"{name}-slider")
        if len(sweeper_relation_automaton(chi).states) < 20_000:
            yield pytest.param("sweeper", chi, id=f"{name}-sweeper")


@pytest.mark.parametrize("kind,chi", member_cases())
def test_member_matches_period_oracle(kind, chi):
    A = KINDS[kind](chi)
    rng = random.Random(43)
    seen = set()
    for _ in range(30):
        x = random_ep_config(rng, chi.q)
        if kind == "slider":
            y, z = representation_eval(chi, x, rng.randrange(-3, 4))
        else:
            y, z = x, sweeper_eval(chi, x).limit
        for pair in (ep_zip(y, z),
                     ep_zip(y, mutate(z, rng.randrange(-3, 4), chi.q)),
                     ep_zip(y, random_ep_config(rng, chi.q))):
            expect = period_member(A, pair)
            assert member(A, pair) is expect
            seen.add(expect)
    assert seen == {True, False}


def test_trim_preserves_language():
    rng = random.Random(31)
    for name in ("swap", "not_closed"):
        chi = builtin_block_rule(name)
        A = sweeper_relation_automaton(chi)
        At = trim(A)
        assert set(At.states) <= set(A.states)
        for _ in range(25):
            y = random_ep_config(rng, chi.q)
            z = random_ep_config(rng, chi.q)
            x = ep_zip(y, z)
            assert member(A, x) == member(At, x)


def random_named(rng, q):
    """1-12 states named by scattered integers (so `repr` order is not
    numeric order), edges over 1-4 labels, self-loops and isolated states
    left to chance."""
    names = rng.sample(range(40), rng.randint(1, 12))
    labels = range(rng.randint(1, q))
    density = rng.choice((0.05, 0.15, 0.3))
    edges = frozenset((s, l, t) for s in names for l in labels for t in names
                      if rng.random() < density)
    return NamedAutomaton(q, 1, frozenset(names), edges,
                          frozenset(s for s in names if rng.random() < 0.4),
                          frozenset(s for s in names if rng.random() < 0.4))


def test_numbered_automata_match_named_oracles():
    rng = random.Random(61)
    kinds = set()
    parallel = 0  # witnesses of automata with one u -> w edge under two labels
    for _ in range(60):
        q = rng.randint(2, 4)
        N, M = random_named(rng, q), random_named(rng, q)
        A, B = N.numbered(), M.numbered()
        T, O = trim(A), named_trim(N)
        assert set(T.states) == O.states
        assert {(T.states[s], l, T.states[t]) for s, l, t in T.edges} \
            == O.edges
        assert {T.states[k] for k in T.initial} == O.initial
        assert {T.states[k] for k in T.final} == O.final
        assert T == O.numbered()  # trimming keeps the `repr` numbering
        w = nonempty_witness(A)
        assert w == named_nonempty_witness(N)
        assert (w is None) == is_empty(A)
        kinds.add(w is None)
        if w is not None and len({(s, t) for s, _, t in N.edges}) \
                < len(N.edges):
            parallel += 1
        words = [random_ep_config(rng, q) for _ in range(4)]
        for x in words + ([] if w is None else [w]):
            assert member(A, x) is period_member(A, x)
        if w is not None:
            assert member(A, w)
        both = flag_intersect(A, B)
        v = nonempty_witness(both)
        for x in words + ([] if v is None else [v]):
            assert member(both, x) is (member(A, x) and member(B, x))
    assert kinds == {True, False} and parallel >= 10


# ---------------------------------------------------------------------------
# numbered builders against the named-state builders

def seeded_local_rules():
    """Rules over q in {2, 3} whose window ends 3 cells left to 3 cells
    right of the output cell, so every kind of mismatch state occurs."""
    rng = random.Random(84)
    for q in (2, 3):
        for width in (1, 2, 3):
            for anchor in range(-3 - width + 1, 4 - width + 1):
                yield LocalRule(q, anchor, width, tuple(
                    rng.randrange(q) for _ in range(q ** width)))


@pytest.mark.parametrize("chi", seeded_block_rules(),
                         ids=lambda chi: f"q{chi.q}m{chi.block_length}")
def test_block_rule_builders_number_the_named_states(chi):
    sweeper = sweeper_relation_automaton(chi)
    named = named_sweeper_relation_automaton(chi)
    assert sweeper == renumbered(
        named, lambda s: sweeper_state_number(chi, s))
    if len(sweeper.states) < 10_000:
        # `member`, which seeds its own product, answers as `period_member`
        # on the witness and on mutations of it
        rng = random.Random(97)
        w = nonempty_witness(sweeper)
        assert member(sweeper, w) and period_member(sweeper, w)
        for _ in range(3):
            x = mutate(w, rng.randrange(-3, 4), sweeper.label_count)
            assert member(sweeper, x) is period_member(sweeper, x)
        # the sweeper numbering departs from the names' `repr` order at
        # block length 3 and more; emptiness does not change, and each
        # witness is accepted by both numberings
        shift = graph_mismatch_automaton(
            LocalRule(chi.q, 0, 2, tuple(range(chi.q)) * chi.q))
        for A, B in ((sweeper, named),
                     (intersect(sweeper, shift), intersect(named, shift))):
            assert is_empty(A) == is_empty(B)
            w = nonempty_witness(A)
            if w is not None:
                assert member(A, w) and member(B, w)
    if not chi.is_bijective():
        with pytest.raises(ValueError):
            slider_relation_automaton(chi)
        return
    assert slider_relation_automaton(chi) == trim(whole_slider_automaton(chi))


def test_local_rules_cover_every_lag():
    lags = set()
    for f in seeded_local_rules():
        g = minimize_neighborhood(f)
        lags.add(g.anchor + g.width - 1)
    assert {-3, -2, -1, 0, 1, 2, 3} <= lags


@pytest.mark.parametrize("f", seeded_local_rules(),
                         ids=lambda f: f"q{f.q}a{f.anchor}w{f.width}")
def test_mismatch_builder_numbers_the_named_states(f):
    assert graph_mismatch_automaton(f) == renumbered(
        named_graph_mismatch_automaton(f),
        lambda s: mismatch_state_number(f, s))


# ---------------------------------------------------------------------------
# projections and serialization

def test_projection_of_slider_inputs_is_total():
    A = slider_relation_automaton(builtin_block_rule("swap"))
    P = project(A, 0)
    rng = random.Random(3)
    assert all(member(P, random_ep_config(rng, 2)) for _ in range(20))


def test_projection_needs_product_alphabet():
    A = from_named(2, 1, frozenset([0]), frozenset([(0, 0, 0)]),
                   frozenset([0]), frozenset([0]))
    with pytest.raises(ValueError):
        project(A, 0)
    with pytest.raises(ValueError):
        project(slider_relation_automaton(builtin_block_rule("swap")), 2)


def test_member_rejects_alphabet_mismatch():
    A = slider_relation_automaton(builtin_block_rule("swap"))
    with pytest.raises(ValueError):
        member(A, EpConfig(2, (0,), (), 0, (1,)))


def test_automaton_json_shape():
    A = slider_relation_automaton(identity_block(2, 1))
    obj = A.to_json()
    assert obj["alphabet"] == 2 and obj["arity"] == 2
    assert obj["states"] == 2
    assert len(obj["edges"]) == len(A.edges)
    assert set(obj["I"]) | set(obj["F"]) <= set(range(obj["states"]))
    for s, l, t in obj["edges"]:
        assert 0 <= l < 4
