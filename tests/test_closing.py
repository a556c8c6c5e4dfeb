"""Closing decisions, strong radii, and non-closing witnesses."""

import itertools
import random
import time

import pytest

from casweep.ca import (BUILTIN_RULES, LocalRule, apply_ep, builtin_rule,
                        mirror)
from casweep.closing import (is_strong_left_closing_radius,
                             left_closing_decide, right_closing_decide)
from casweep.core import EpConfig, ResourceCapError, ep_equal

from oracles import ep_splice, scan_strong_radius

CLOSING_BOTH_SIDES = tuple(n for n in BUILTIN_RULES if n != "and_rule")


def _agree_on_right_tail(x1, x2):
    # replace everything left of a common bound, then compare exactly
    k = max(x1.center_end, x2.center_end)
    zeros = EpConfig(x1.q, (0,), (), 0, (0,))
    return ep_equal(ep_splice(zeros, k, (), x1), ep_splice(zeros, k, (), x2))


def _agree_on_left_tail(x1, x2):
    return _agree_on_right_tail(x1.reversed(), x2.reversed())


@pytest.mark.parametrize("name", CLOSING_BOTH_SIDES)
def test_bundled_rules_closing_both_sides(name):
    f = builtin_rule(name)
    left = left_closing_decide(f)
    right = right_closing_decide(f)
    assert left and left.strong_radius == 2
    assert right and right.strong_radius == 2
    assert left.witness is None and right.witness is None


def test_and_rule_not_left_closing():
    f = builtin_rule("and_rule")
    verdict = left_closing_decide(f)
    assert not verdict
    assert verdict.strong_radius is None
    x1, x2 = verdict.witness
    assert not ep_equal(x1, x2)
    assert _agree_on_right_tail(x1, x2)
    assert ep_equal(apply_ep(f, x1), apply_ep(f, x2))


def test_and_rule_not_right_closing():
    f = builtin_rule("and_rule")
    verdict = right_closing_decide(f)
    assert not verdict
    x1, x2 = verdict.witness
    assert not ep_equal(x1, x2)
    assert _agree_on_left_tail(x1, x2)
    assert ep_equal(apply_ep(f, x1), apply_ep(f, x2))


def test_strong_radius_check_reasons():
    ca102 = builtin_rule("ca102")
    assert is_strong_left_closing_radius(ca102, 2) is True
    assert is_strong_left_closing_radius(ca102, 1) is False
    assert is_strong_left_closing_radius(builtin_rule("and_rule"), 2) is False


def test_strong_radius_beyond_any_window_scan():
    # the pair graph decides every m at once; a window scan at m = 12 would
    # cover 2^27 windows
    assert is_strong_left_closing_radius(builtin_rule("ca102"), 12) is True


def _random_rule(rng, q, width):
    return LocalRule(q, -(width // 2), width,
                     tuple(rng.randrange(q) for _ in range(q ** width)))


def _left_permutive_rule(rng, q, width):
    # the mirror of a rule whose last cell, for every fixed rest, is
    # permuted onto the alphabet: such rules are left-closing
    table = [s for _ in range(q ** (width - 1))
             for s in rng.sample(range(q), q)]
    return mirror(LocalRule(q, -(width // 2), width, tuple(table)))


def _radius_cases(family):
    """(label, rule, m) triples of one cross-check family."""
    if family == "eca":
        for n in range(256):
            f = LocalRule(2, -1, 3, tuple((n >> k) & 1 for k in range(8)))
            for m in range(1, 5):
                yield f"eca{n}", f, m
    elif family == "bundled":
        for name in BUILTIN_RULES:
            for m in (2,) if name == "sigma2_x_sigma3inv" else range(1, 5):
                yield name, builtin_rule(name), m
    elif family == "q3w2":
        # every rule permuting its last cell; some are left-closing without
        # being left-permutive, which pins where the pass stops
        rows = itertools.permutations(range(3))
        for k, perm in enumerate(itertools.product(rows, repeat=3)):
            table = tuple(s for row in perm for s in row)
            yield f"right-permutive q3w2 #{k}", LocalRule(3, 0, 2, table), 2
    elif family == "q4w3":
        # reversible: 2 (x_{i+1} mod 2) + ((x_i div 2) xor (x_{i-1} mod 2));
        # its pair graph has sources without history
        table = tuple(2 * (x1 % 2) + ((x0 // 2) ^ (xm % 2))
                      for xm in range(4) for x0 in range(4) for x1 in range(4))
        for m in range(1, 4):
            yield "reversible q4w3", LocalRule(4, -1, 3, table), m
    elif family == "q4w2":
        # left-closing with strong radius 3, above 2r = 2: only the depth
        # term D + r + 1 of `left_closing_decide` gives it
        f = LocalRule(4, 0, 2, (3, 2, 1, 0, 0, 2, 1, 3, 2, 3, 1, 0, 3, 2, 1, 0))
        for m in (2, 3):
            yield "deep q4w2", f, m
    else:
        q, width, rules, ms = {"q3w3": (3, 3, 30, (2, 3)),
                               "q2w5": (2, 5, 10, (4, 5))}[family]
        rng = random.Random(f"strong radius {family}")
        for k in range(rules):
            for kind, make in (("random", _random_rule),
                               ("left-permutive", _left_permutive_rule)):
                f = make(rng, q, width)
                for m in ms:
                    yield f"{kind} {family} #{k}", f, m


@pytest.mark.parametrize("family", ["eca", "bundled", "q3w3", "q2w5", "q3w2",
                                    "q4w3", "q4w2"])
def test_strong_radius_matches_window_scan(family):
    for label, f, m in _radius_cases(family):
        check = is_strong_left_closing_radius(f, m)
        reasons = scan_strong_radius(f, m)
        assert bool(check) == ("ok" in reasons), (label, m)
        # the counting lemma of the closing module, on the scan's reasons
        assert ("existence" in reasons) == ("uniqueness" in reasons), \
            (label, m, reasons)


def test_strong_radius_cap_stops_before_any_work():
    # radius 3 over 4 symbols: 4^14 pair graph edge tests, over the 2^24 cap
    f = _random_rule(random.Random("strong radius cap"), 4, 7)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="pair graph edge tests"):
        is_strong_left_closing_radius(f, 6)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", ("ca102", "shift", "xor_left"))
def test_strong_radius_is_upward_closed(name):
    f = builtin_rule(name)
    for m in range(2, 6):
        assert is_strong_left_closing_radius(f, m)


def test_mirror_swaps_sides():
    for name in ("ca102", "xor_left", "and_rule", "sigma2_x_sigma3inv"):
        f = builtin_rule(name)
        left = left_closing_decide(f)
        right_of_mirror = right_closing_decide(mirror(f))
        assert left.closed == right_of_mirror.closed
        assert left.strong_radius == right_of_mirror.strong_radius


def test_verdict_json_shape():
    verdict = left_closing_decide(builtin_rule("and_rule"))
    blob = verdict.to_json()
    assert blob["closed"] is False
    assert len(blob["witness"]) == 2
    good = left_closing_decide(builtin_rule("ca102")).to_json()
    assert good["closed"] is True and good["strong_radius"] == 2
