"""The sweep memos a block rule keeps, against sweeps on a fresh rule.

A rule keeps what `sweeper_eval` computes before its sweep from base per
left-period word, and each sweep inside a right periodic tail per (period
word rotated to the phase at which the sweep enters the tail, window).
Here one rule instance sweeps many seeded configurations, so an entry
keyed too coarsely would be read back for a configuration it does not
fit: every result must equal the one a fresh copy of the rule gives, and
the tuple and every-limit oracles'.
"""

import random

import pytest

from casweep.blockrule import (BlockRule, representation_eval,
                               sweep_right_limit)
from casweep.core import EpConfig, ep_equal, random_ep_config
from casweep.mealy import sweeper_eval
from oracles import (every_limit_sweeper_eval, tuple_representation_eval,
                     tuple_sweep_right_limit, tuple_sweeper_eval)
from test_sweep_engine import (SHAPES, non_bijective_rule, permutation_rule,
                               same_outcome)


def fresh(rule: BlockRule) -> BlockRule:
    return BlockRule(rule.q, rule.block_length, rule.table)


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


def rules(rng, q: int, m: int):
    yield permutation_rule(rng, q, m)
    yield non_bijective_rule(rng, q, m)


@pytest.mark.parametrize("q,m", SHAPES)
def test_left_memo_is_keyed_by_the_left_period_word(q, m):
    rng = random.Random(700 * q + m)
    for rule in rules(rng, q, m):
        for x in shared_tail_draws(rng, q, "left", 8):
            got = sweeper_eval(rule, x)
            assert got.to_json() == sweeper_eval(fresh(rule), x).to_json()
            assert got.to_json() == \
                every_limit_sweeper_eval(fresh(rule), x).to_json()
            assert same_outcome(got, tuple_sweeper_eval(rule, x))


@pytest.mark.parametrize("q,m", SHAPES)
def test_tail_memo_is_keyed_by_period_window_and_phase(q, m):
    """Anchors from below the center to beyond it: past the center the
    sweep enters the right tail at every phase."""
    rng = random.Random(800 * q + m)
    for rule in rules(rng, q, m):
        bijective = rule.is_bijective()
        for x in shared_tail_draws(rng, q, "right", 8):
            for i in range(x.center_start - m, x.center_end + 3):
                z = sweep_right_limit(rule, x, i)
                assert z == sweep_right_limit(fresh(rule), x, i)
                assert ep_equal(z, tuple_sweep_right_limit(rule, x, i))
                if bijective:
                    y, z = representation_eval(rule, x, i)
                    y1, z1 = representation_eval(fresh(rule), x, i)
                    y0, z0 = tuple_representation_eval(rule, x, i)
                    assert (y, z) == (y1, z1)
                    assert ep_equal(y, y0) and ep_equal(z, z0)
            assert sweeper_eval(rule, x).to_json() == \
                sweeper_eval(fresh(rule), x).to_json()


def test_memos_leave_the_value_alone_and_stay_in_their_bounds():
    rng = random.Random(900)
    rule = permutation_rule(rng, 2, 3)
    twin = fresh(rule)
    before = (hash(rule), repr(rule), rule.to_json())
    configs = [random_ep_config(rng, 2) for _ in range(200)]
    for x in configs:
        sweeper_eval(rule, x)
        representation_eval(rule, x, rng.randrange(-3, 4))
    assert rule == twin and twin == rule
    assert (hash(rule), repr(rule), rule.to_json()) == before
    assert BlockRule.from_json(rule.to_json()) == rule
    # one left entry per left-period word; tail entries keyed by rotations
    # of the right-period words, at most q^m per rotation
    assert set(rule._left_sweeps) == {x.left_period for x in configs}
    words = {key[0] for key in rule._tail_sweeps}
    assert words <= {p[k:] + p[:k] for p in {x.right_period for x in configs}
                     for k in range(len(p))}
    assert len(rule._tail_sweeps) <= 8 * len(words)
