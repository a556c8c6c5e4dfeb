"""The sampled checks reuse each verdict per normal form of the draw.

`verify_slider` and `verify_decomposition` take every seeded draw, but
evaluate a configuration only the first time its normal form is drawn.
Here both agree with oracles that evaluate every draw afresh, on enough
draws that many repeat, and call counts show the reuse: one evaluation
per distinct normal form (and anchor), counted from the same draws.
"""

import random

import pytest

from casweep import hierarchy, synthesis
from casweep.blockrule import builtin_block_rule
from casweep.ca import builtin_rule, mirror
from casweep.core import random_ep_config
from casweep.hierarchy import (Decomposition, DirectedSlider, Direction,
                               decompose_biclosing, verify_decomposition)
from casweep.synthesis import synthesize, verify_slider
from oracles import compose, every_draw_verify_decomposition, two_pass_verify
from test_hierarchy import NONLINEAR

DRAWS = 3000


def slider_draws(seed: int, samples: int):
    """(normal form, anchor) of each draw `verify_slider` takes."""
    rng = random.Random(seed)
    return [(random_ep_config(rng, 2).normalize(), rng.randrange(-3, 4))
            for _ in range(samples)]


def decomposition_draws(seed: int, samples: int):
    """Normal form of each draw `verify_decomposition` takes."""
    rng = random.Random(seed)
    return [random_ep_config(rng, 2).normalize() for _ in range(samples)]


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
    draws = slider_draws(51, DRAWS)
    assert len(sweeps) == len({x for x, _ in draws}) < DRAWS
    assert len(representations) == len(set(draws)) < DRAWS

    d = _xor_left()
    assert verify_decomposition(d, DRAWS, 52)
    first = [args for args in stage_sweeps if args[0] is d.stages[0].rule]
    assert len(first) == len(set(decomposition_draws(52, DRAWS))) < DRAWS
