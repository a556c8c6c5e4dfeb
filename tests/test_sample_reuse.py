"""The sampled checks reuse each verdict per translation class of the draw.

`verify_slider` and `verify_decomposition` take every seeded draw, but
evaluate a configuration only the first time its translation class is
drawn (`translation_class`; for the slider side, with the anchor taken
relative to the class's start).  Here both agree with oracles that
evaluate every draw afresh, on enough draws that many repeat, and call
counts show the reuse: one evaluation per distinct class (and relative
anchor), counted from the same draws.  The reuse rests on equal keys
meaning translates and on every verdict commuting with translation, and
both are tested on the package code.
"""

import random

import pytest

from casweep import hierarchy, synthesis
from casweep.blockrule import (BUILTIN_BLOCK_RULES, BlockRule,
                               builtin_block_rule, representation_eval,
                               sweeper_eval)
from casweep.ca import BUILTIN_RULES, apply_ep, builtin_rule, mirror
from casweep.core import (EpConfig, ep_equal, random_ep_config,
                          translation_class)
from casweep.hierarchy import (Decomposition, DirectedSlider, Direction,
                               DivergentSweepError, decompose_biclosing,
                               verify_decomposition)
from casweep.synthesis import synthesize, verify_slider
from oracles import compose, every_draw_verify_decomposition, two_pass_verify
from test_hierarchy import NONLINEAR
from test_sweep_engine import SHAPES, left_period_draws

DRAWS = 3000
SHIFTS = range(-5, 6)
SLIDERS = ("identity", "shift", "ca102")


def moved(x: EpConfig, t: int) -> EpConfig:
    """x moved t cells to the right: cell j of the result is x[j - t]."""
    return EpConfig(x.q, x.left_period, x.center, x.center_start + t,
                    x.right_period)


def fully_periodic(x: EpConfig) -> bool:
    """A normal form is fully periodic exactly when its center is empty
    and its tails are one word."""
    n = x.normalize()
    return not n.center and n.left_period == n.right_period


def slider_draws(seed: int, samples: int):
    """(configuration, anchor) of each draw `verify_slider` takes."""
    rng = random.Random(seed)
    return [(random_ep_config(rng, 2), rng.randrange(-3, 4))
            for _ in range(samples)]


def decomposition_draws(seed: int, samples: int):
    """Configuration of each draw `verify_decomposition` takes."""
    rng = random.Random(seed)
    return [random_ep_config(rng, 2) for _ in range(samples)]


def counting(monkeypatch, module, name: str) -> list:
    """Wrap `module.name` so that each call appends its arguments to the
    list returned."""
    calls, original = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# the negative seeds find a counterexample on the first draw and the first
# disagreement only on draw 953 (shift) and 600 (swap), so both loops run
# through many repeated draws
@pytest.mark.parametrize("block,rule,seed", [
    ("ca102", "ca102", 31), ("shift", "ca102", 31), ("swap", "identity", 32),
])
def test_verify_slider_matches_the_every_draw_oracle(block, rule, seed):
    chi = (builtin_block_rule(block) if block == "swap"
           else synthesize(builtin_rule(block)))
    f = builtin_rule(rule)
    result = verify_slider(chi, f, samples=1000, seed=seed)
    assert result.ok is (block == rule)
    expected = two_pass_verify(chi, f, samples=1000, seed=seed)
    assert result.samples == expected.samples
    assert result.counterexample == expected.counterexample
    assert result.sweeper_agreement == expected.sweeper_agreement


def _xor_left():
    return decompose_biclosing(builtin_rule("xor_left"))


def _swapped():
    ca102 = builtin_rule("ca102")
    a = DirectedSlider(synthesize(ca102), Direction.LEFT_TO_RIGHT)
    b = DirectedSlider(synthesize(NONLINEAR), Direction.RIGHT_TO_LEFT)
    return Decomposition((b, a), compose(mirror(NONLINEAR), ca102))


def _wrong_claim():
    d = decompose_biclosing(builtin_rule("shift"))
    return Decomposition(d.stages, builtin_rule("identity"))


@pytest.mark.parametrize("build,holds", [
    (_xor_left, True), (_swapped, False), (_wrong_claim, False),
], ids=["xor_left", "swapped-stages", "wrong-claim"])
def test_verify_decomposition_matches_the_every_draw_oracle(build, holds):
    d = build()
    assert verify_decomposition(d, 1000, 41) is holds
    assert every_draw_verify_decomposition(d, 1000, 41) is holds


def test_each_distinct_draw_is_evaluated_once(monkeypatch):
    sweeps = counting(monkeypatch, synthesis, "sweeper_eval")
    representations = counting(monkeypatch, synthesis, "representation_eval")
    stage_sweeps = counting(monkeypatch, hierarchy, "sweeper_eval")

    f = builtin_rule("ca102")
    assert verify_slider(synthesize(f), f, samples=DRAWS, seed=51)
    draws = [(translation_class(x), i) for x, i in slider_draws(51, DRAWS)]
    classes = {key for (key, _), _ in draws}
    # the same draws hold 1,240 normal forms and 2,185 (normal form,
    # anchor) pairs, so a key that keeps the start fails here
    assert len(sweeps) == len(classes) == 418
    assert len(representations) == len(
        {(key, i - s) for (key, s), i in draws}) == 1435

    d = _xor_left()
    assert verify_decomposition(d, DRAWS, 52)
    first = [args for args in stage_sweeps if args[0] is d.stages[0].rule]
    assert len(first) == len(
        {translation_class(y)[0] for y in decomposition_draws(52, DRAWS)}
    ) < DRAWS / 5


def test_equal_keys_mean_translates():
    """Draws with one key are translates by the difference of their
    starts, and moving a draw that is not fully periodic keeps its key."""
    by_key: dict[tuple, list] = {}
    for x, _ in slider_draws(61, DRAWS):
        key, s = translation_class(x)
        by_key.setdefault(key, []).append((x, s))
        if not fully_periodic(x):
            for t in SHIFTS:
                assert translation_class(moved(x, t)) == (key, s + t)
    assert len(by_key) < DRAWS / 5
    for members in by_key.values():
        for x, s in members:
            for y, s2 in members:
                assert ep_equal(moved(x, s2 - s), y)


def test_sweeper_eval_commutes_with_translation():
    """Both limits and the convergence of a moved draw are those of the
    draw, moved; the draws include at least 1,200 diverging ones."""
    rng = random.Random(71)
    diverging = 0
    for q, m in SHAPES:
        for rule, x in left_period_draws(500 * q + m, q, m, 24):
            t = rng.choice(SHIFTS)
            got, want = sweeper_eval(rule, moved(x, t)), sweeper_eval(rule, x)
            assert got.converges == want.converges
            assert ep_equal(got.limit, moved(want.limit, t))
            if not want.converges:
                assert ep_equal(got.second, moved(want.second, t))
                diverging += 1
    assert diverging >= 1200


@pytest.mark.parametrize("name", BUILTIN_BLOCK_RULES + SLIDERS)
def test_representation_eval_commutes_with_translation(name):
    chi = (builtin_block_rule(name) if name in BUILTIN_BLOCK_RULES
           else synthesize(builtin_rule(name)))
    rng = random.Random(81)
    for _ in range(100):
        x, i, t = random_ep_config(rng, chi.q), rng.randrange(-3, 4), \
            rng.choice(SHIFTS)
        y, z = representation_eval(chi, x, i)
        y_t, z_t = representation_eval(chi, moved(x, t), i + t)
        assert ep_equal(y_t, moved(y, t)) and ep_equal(z_t, moved(z, t))


@pytest.mark.parametrize("name", BUILTIN_RULES)
def test_apply_ep_commutes_with_translation(name):
    f = builtin_rule(name)
    rng = random.Random(91)
    for _ in range(100):
        x, t = random_ep_config(rng, f.q), rng.choice(SHIFTS)
        assert ep_equal(apply_ep(f, moved(x, t)), moved(apply_ep(f, x), t))


def stage_output(stage: DirectedSlider, x: EpConfig):
    try:
        return stage(x)
    except DivergentSweepError:
        return None


@pytest.mark.parametrize("direction", list(Direction))
def test_directed_sliders_commute_with_translation(direction):
    """A right-to-left stage reverses the tape around its sweep, which
    turns a move by t into one by -t and back."""
    squash = BlockRule(2, 2, (0, 0, 3, 3))
    rng = random.Random(101)
    diverging = 0
    for rule in (synthesize(builtin_rule("ca102")), squash):
        stage = DirectedSlider(rule, direction)
        for _ in range(200):
            x, t = random_ep_config(rng, 2), rng.choice(SHIFTS)
            got = stage_output(stage, moved(x, t))
            want = stage_output(stage, x)
            assert (got is None) == (want is None)
            if want is None:
                diverging += 1
            else:
                assert ep_equal(got, moved(want, t))
    assert diverging
