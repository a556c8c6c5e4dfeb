"""The sweep memo a block rule keeps, against sweeps on a fresh rule.

A rule keeps what `sweeper_eval` computes before its sweep from base per
left-period word.  Here one rule instance sweeps many seeded
configurations, so an entry keyed too coarsely would be read back for a
configuration it does not fit: every result must equal the one a fresh
copy of the rule gives, and the tuple oracle's.
"""

import random

import pytest

from casweep.blockrule import BlockRule, representation_eval, sweeper_eval
from casweep.core import random_ep_config
from oracles import tuple_sweeper_eval
from test_sweep_engine import SHAPES, permutation_rule, rules, shared_tail_draws


def fresh(rule: BlockRule) -> BlockRule:
    return BlockRule(rule.q, rule.block_length, rule.table)


@pytest.mark.parametrize("q,m", SHAPES)
def test_left_memo_is_keyed_by_the_left_period_word(q, m):
    rng = random.Random(700 * q + m)
    for rule in rules(rng, q, m):
        for x in shared_tail_draws(rng, q, "left", 8):
            got = sweeper_eval(rule, x)
            assert got.to_json() == sweeper_eval(fresh(rule), x).to_json()
            assert got.to_json() == tuple_sweeper_eval(rule, x).to_json()


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
    # one left entry per left-period word, and no other state beyond the
    # derived rules
    assert set(rule._left_sweeps) == {x.left_period for x in configs}
    assert set(vars(rule)) - set(rule._fields) \
        <= {"_inverse", "_mirror", "_left_sweeps"}
