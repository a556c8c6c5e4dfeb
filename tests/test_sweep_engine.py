"""The block-index sweep engine against the tuple engine it replaced.

The oracles step the m-cell window as a tuple and rebuild the inverse and
the mirror image on every call; the package steps the window as one block
index and derives both once per rule.  Every limit and every Mealy table
must come out the same.

`sweeper_eval` builds one limit per window arriving at base = center_start
- m; `tuple_sweeper_eval` builds the limit of every anchor residue and
cycle window.  Their reports must agree byte for byte.
"""

import random

import pytest

from casweep.blockrule import (BlockRule, representation_eval,
                               sweep_left_limit, sweep_right_limit,
                               sweeper_eval)
from casweep.ca import builtin_rule
from casweep.core import EpConfig, ep_equal, random_ep_config
from casweep.mealy import mealy_from_block
from casweep.synthesis import synthesize
from oracles import (tuple_anchored_limits, tuple_mealy_from_block,
                     tuple_representation_eval, tuple_sweep_left_limit,
                     tuple_sweep_right_limit, tuple_sweep_step,
                     tuple_sweeper_eval)

SHAPES = [(q, m) for q in (2, 3) for m in (1, 2, 3, 4)]


def permutation_rule(rng, q, m):
    table = list(range(q**m))
    rng.shuffle(table)
    return BlockRule(q, m, tuple(table))


def non_bijective_rule(rng, q, m):
    size = q**m
    while True:
        rule = BlockRule(q, m, tuple(rng.randrange(size) for _ in range(size)))
        if not rule.is_bijective():
            return rule


def rules(rng, q: int, m: int):
    yield permutation_rule(rng, q, m)
    yield non_bijective_rule(rng, q, m)


def shared_tail_draws(rng, q: int, side: str, per_period: int):
    """Seeded configurations in which three period words of each length
    2-3 stand on the given side, each with `per_period` draws of the
    center, its start and the other tail."""
    for P in (2, 3):
        for _ in range(3):
            period = tuple(rng.randrange(q) for _ in range(P))
            for _ in range(per_period):
                x = random_ep_config(rng, q, max_period=4, max_center=5,
                                     span=4)
                if side == "left":
                    yield EpConfig(q, period, x.center, x.center_start,
                                   x.right_period)
                else:
                    yield EpConfig(q, x.left_period, x.center,
                                   x.center_start, period)


def check_forward(rule, x, i):
    assert ep_equal(sweep_right_limit(rule, x, i),
                    tuple_sweep_right_limit(rule, x, i))
    assert sweeper_eval(rule, x).to_json() == \
        tuple_sweeper_eval(rule, x).to_json()


def check_backward(rule, x, i):
    assert ep_equal(sweep_left_limit(rule, x, i),
                    tuple_sweep_left_limit(rule, x, i))
    y, z = representation_eval(rule, x, i)
    y0, z0 = tuple_representation_eval(rule, x, i)
    assert ep_equal(y, y0) and ep_equal(z, z0)


@pytest.mark.parametrize("q,m", SHAPES)
def test_permutation_rules_match_tuple_engine(q, m):
    rng = random.Random(100 * q + m)
    for _ in range(4):
        rule = permutation_rule(rng, q, m)
        for _ in range(10):
            x = random_ep_config(rng, q)
            i = rng.randrange(-5, 6)
            check_forward(rule, x, i)
            check_backward(rule, x, i)


@pytest.mark.parametrize("q,m", SHAPES)
def test_non_bijective_rules_match_tuple_engine(q, m):
    rng = random.Random(200 * q + m)
    for _ in range(4):
        rule = non_bijective_rule(rng, q, m)
        for _ in range(10):
            check_forward(rule, random_ep_config(rng, q), rng.randrange(-5, 6))


@pytest.mark.parametrize("q,m", SHAPES)
def test_right_sweeps_enter_the_tail_at_every_phase(q, m):
    """Anchors from m below the center to beyond it: past the center the
    sweep enters the right tail at every phase of periods 2-3."""
    rng = random.Random(800 * q + m)
    for rule in rules(rng, q, m):
        for x in shared_tail_draws(rng, q, "right", 8):
            for i in range(x.center_start - m, x.center_end + 3):
                assert ep_equal(sweep_right_limit(rule, x, i),
                                tuple_sweep_right_limit(rule, x, i))
                if rule.is_bijective():
                    check_backward(rule, x, i)
            assert sweeper_eval(rule, x).to_json() == \
                tuple_sweeper_eval(rule, x).to_json()


@pytest.mark.parametrize("q,m", SHAPES + [(4, 1), (4, 2), (4, 3), (2, 5),
                                          (2, 6)])
def test_mealy_tables_match_tuple_engine(q, m):
    rng = random.Random(300 * q + m)
    for rule in (permutation_rule(rng, q, m), non_bijective_rule(rng, q, m)):
        assert mealy_from_block(rule) == tuple_mealy_from_block(rule)[0]


@pytest.fixture(scope="module")
def ca102_block():
    return synthesize(builtin_rule("ca102"))


def test_synthesized_ca102_rule_matches_tuple_engine(ca102_block):
    rng = random.Random(400)
    for _ in range(30):
        x = random_ep_config(rng, 2, max_period=4, max_center=8, span=6)
        i = rng.randrange(-8, 9)
        check_forward(ca102_block, x, i)
        check_backward(ca102_block, x, i)
    assert mealy_from_block(ca102_block) == \
        tuple_mealy_from_block(ca102_block)[0]


def left_period_draws(seed: int, q: int, m: int, per_period: int):
    """(rule, config) draws: three permutations and three non-bijective
    rules, each swept over `per_period` configurations of every left
    period 1-4."""
    rng = random.Random(seed)
    for make in (permutation_rule, non_bijective_rule):
        for _ in range(3):
            rule = make(rng, q, m)
            for P in (1, 2, 3, 4):
                for _ in range(per_period):
                    x = random_ep_config(rng, q, max_period=4, max_center=5,
                                         span=4)
                    left = tuple(rng.randrange(q) for _ in range(P))
                    yield rule, EpConfig(q, left, x.center, x.center_start,
                                         x.right_period)


def test_sweeper_reports_match_the_tuple_oracle():
    """4,608 draws: enough that keying the arrival windows by the cells
    at the wrong offset (y[sp, base) for y[sp+m, base+m)) changes a
    report."""
    diverging = 0
    for q, m in SHAPES:
        for rule, x in left_period_draws(500 * q + m, q, m, 24):
            got = sweeper_eval(rule, x)
            assert got.to_json() == tuple_sweeper_eval(rule, x).to_json()
            diverging += not got.converges
    assert diverging >= 1200


def arrival_window(rule, x, sp: int, e: tuple[int, ...]) -> tuple[int, ...]:
    """The window that cycle window e at sp carries to base = center_start
    - m, swept cell by cell."""
    window = e
    for p in range(sp + rule.block_length, x.center_start):
        _, window = tuple_sweep_step(rule, window, x.cell(p))
    return window


def test_limits_with_one_arrival_window_are_equal():
    """The arrival window at base decides the limit.  The window at the
    anchor residue does not: many draws hold equal windows at two residues
    whose limits differ."""
    shared = residue_keyed_differ = 0
    for q, m in SHAPES:
        for rule, x in left_period_draws(600 * q + m, q, m, 6):
            by_arrival, by_window = {}, {}
            for sp, e, z in tuple_anchored_limits(rule, x):
                w = arrival_window(rule, x, sp, e)
                shared += w in by_arrival
                assert ep_equal(by_arrival.setdefault(w, z), z)
                residue_keyed_differ += not ep_equal(
                    by_window.setdefault(e, z), z)
    assert shared >= 1000
    assert residue_keyed_differ >= 200
