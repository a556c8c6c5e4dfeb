"""Stair enumeration, the invariant lambda, and slider existence."""

import random
import time
from fractions import Fraction

import pytest

from casweep.ca import LocalRule, builtin_rule, shift_compose
from casweep.closing import NotClosingError, left_closing_decide
from casweep.core import (IntegrityError, ResourceCapError, all_words,
                          random_ep_config, word_index)
from casweep.stairs import enumerate_stairs, lambda_value, slider_exists
from oracles import is_stair, stair_pairs, stairs_connecting

# hand-counted at m=2: free cells times forced cells, see each rule's window
PSI6 = {
    "identity": (64, Fraction(1)),
    "shift": (32, Fraction(1, 2)),
    "shift_inv": (128, Fraction(2)),
    "ca102": (64, Fraction(1)),
    "xor_left": (128, Fraction(2)),
}


@pytest.mark.parametrize("name", sorted(PSI6))
def test_stair_counts_q2(name):
    card, lam = PSI6[name]
    got = enumerate_stairs(builtin_rule(name), 2)
    assert len(got) == card
    assert Fraction(len(got), 2 ** 6) == lam
    assert len(stair_pairs(builtin_rule(name), 2)) == card


def test_stair_counts_product_rule():
    f = builtin_rule("sigma2_x_sigma3inv")
    assert len(enumerate_stairs(f, 1)) == 324
    assert 324 == 2 ** 2 * 3 ** 4
    bigger = enumerate_stairs(f, 2)
    assert len(bigger) == 69984
    assert Fraction(len(bigger), 6 ** 6) == Fraction(3, 2)


def test_stair_set_keeps_codes():
    codes = enumerate_stairs(builtin_rule("ca102"), 2)
    pairs = stair_pairs(builtin_rule("ca102"), 2)
    assert len(codes) == len(pairs) == 64
    assert {word_index(v + w, 2) for v, w in pairs} == codes


def test_identity_stairs_copy_cells():
    f = builtin_rule("identity")
    assert is_stair(f, 2, (0, 1, 1, 0), (1, 1, 0, 1))
    assert not is_stair(f, 2, (0, 1, 1, 0), (1, 1, 1, 1))
    for v, w in stair_pairs(f, 2):
        assert w[2:] == v[:2]


def test_ca102_four_stairs_per_v():
    pairs = stair_pairs(builtin_rule("ca102"), 2)
    for v in all_words(4, 2):
        assert sum(1 for vv, _ in pairs if vv == v) == 4


def test_is_stair_matches_enumeration():
    for name in ("ca102", "shift", "and_rule"):
        f = builtin_rule(name)
        pairs = stair_pairs(f, 2)
        for v in all_words(4, 2):
            for w in all_words(4, 2):
                assert ((v, w) in pairs) == is_stair(f, 2, v, w)


def test_is_stair_rejects_bad_lengths():
    f = builtin_rule("ca102")
    with pytest.raises(ValueError):
        is_stair(f, 2, (0, 0), (0, 0, 0, 0))


def test_enumeration_resource_cap():
    with pytest.raises(ResourceCapError):
        enumerate_stairs(builtin_rule("ca102"), 2, cap=100)


def test_enumeration_cap_of_a_huge_length_names_the_power():
    start = time.perf_counter()
    with pytest.raises(ResourceCapError,
                       match=r"^stair bound 3\^400000000: 3\^400000000 is"):
        enumerate_stairs(LocalRule(3, 0, 1, (0, 1, 2)), 10**8)
    assert time.perf_counter() - start < 1.0


def test_enumeration_checks_its_cap_before_the_radius_form(monkeypatch):
    # (x0 + x3) mod 4 has radius 3: its pair graph would need 4^14 edge
    # tests, over the closing cap, but the stairs meet their own cap first
    f = LocalRule(4, 0, 4, tuple((w[0] + w[3]) % 4 for w in all_words(4, 4)))

    def built(*args, **kwargs):
        pytest.fail("radius form built before the stair cap was checked")

    monkeypatch.setattr("casweep.stairs.to_radius_form", built)
    with pytest.raises(ResourceCapError, match=r"^stair bound 4\^16: "):
        enumerate_stairs(f, 4)


def test_lambda_values():
    assert lambda_value(builtin_rule("xor_left")) == 2
    assert lambda_value(builtin_rule("ca102")) == 1
    assert lambda_value(builtin_rule("identity")) == 1
    assert lambda_value(builtin_rule("shift")) == Fraction(1, 2)


def test_lambda_self_check_is_capped_before_it_scans():
    # slider_exists reads lambda = 3/2 from the 6^8 stair codes at m = 2,
    # but the self-check at m + 1 would need 6^12, over the default cap
    f = builtin_rule("sigma2_x_sigma3inv")
    assert slider_exists(f).lam == Fraction(3, 2)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=r"stair bound 6\^12"):
        lambda_value(f)
    assert time.perf_counter() - start < 1.0


def test_lambda_self_check_compares_stair_counts(monkeypatch):
    # ca102 has 64 stairs at m = 2, so 8 * 64 = 512 at m + 1; one fewer
    # there means lambda moved between radii
    def one_short_at_three(f, m, **cap):
        codes = enumerate_stairs(f, m, **cap)
        return codes - {min(codes)} if m == 3 else codes

    monkeypatch.setattr("casweep.stairs.enumerate_stairs", one_short_at_three)
    with pytest.raises(IntegrityError, match=r"^lambda not stable across "
                       r"radii: 64 stairs at m = 2, 511 at m \+ 1$"):
        lambda_value(builtin_rule("ca102"))


def test_slider_exists_checks_stair_primes_divide_the_alphabet(monkeypatch):
    # 3 stairs of the left-closing q = 2 rule ca102 at m = 2: lambda = 3/64
    monkeypatch.setattr("casweep.stairs.enumerate_stairs",
                        lambda f, m, cap: frozenset({0, 1, 2}))
    with pytest.raises(IntegrityError, match=r"^prime 3 divides the stair "
                       r"count but not the alphabet$"):
        slider_exists(builtin_rule("ca102"))


def test_lambda_requires_left_closing():
    with pytest.raises(NotClosingError) as info:
        lambda_value(builtin_rule("and_rule"))
    assert info.value.verdict.witness is not None


def test_slider_exists_verdicts():
    assert slider_exists(builtin_rule("ca102"))
    assert slider_exists(builtin_rule("identity"))
    assert slider_exists(builtin_rule("shift"))
    no = slider_exists(builtin_rule("xor_left"))
    assert not no and no.violating_primes == (2,)
    no6 = slider_exists(builtin_rule("sigma2_x_sigma3inv"))
    assert not no6 and no6.violating_primes == (3,)
    blocked = slider_exists(builtin_rule("and_rule"))
    assert not blocked and not blocked.left_closing


def test_slider_report_shape():
    blob = slider_exists(builtin_rule("xor_left")).to_json()
    assert blob == {"psi_cardinality": 128, "m": 2,
                    "lambda": {"num": 2, "den": 1},
                    "violating_primes": [2], "slider_exists": False}
    bad = slider_exists(builtin_rule("and_rule")).to_json()
    assert bad["slider_exists"] is False and bad["left_closing"] is False
    assert len(bad["witness"]) == 2


def test_fixed_tails_give_full_stair_set():
    # at a strong left-closing radius the boundary contexts are irrelevant
    rng = random.Random(7)
    for name in ("ca102", "identity"):
        f = builtin_rule(name)
        full = stair_pairs(f, 2)
        for _ in range(5):
            y = random_ep_config(rng, 2)
            z = random_ep_config(rng, 2)
            assert stairs_connecting(f, 2, y, z) == full


def test_fixed_tails_can_shrink_without_closing():
    from casweep.core import EpConfig
    f = builtin_rule("and_rule")
    full = stair_pairs(f, 2)
    ones_left = EpConfig(2, (1,), (), 0, (0,))
    anything = EpConfig(2, (0,), (), 0, (0,))
    got = stairs_connecting(f, 2, anything, ones_left)
    assert got < full
    assert len(got) == 32 and len(full) == 40


def test_stair_extension_unique():
    # one-cell leftward extension exists and is unique per image symbol
    for name in sorted(PSI6):
        psi = stair_pairs(builtin_rule(name), 2)
        for vc, wd in psi:
            v, w = vc[:-1], wd[:-1]
            for b in range(2):
                matches = [a for a in range(2) if ((a,) + v, (b,) + w) in psi]
                assert len(matches) == 1


def test_stair_extension_fails_without_closing():
    psi = stair_pairs(builtin_rule("and_rule"), 2)
    broken = 0
    for vc, wd in psi:
        v, w = vc[:-1], wd[:-1]
        for b in range(2):
            matches = [a for a in range(2) if ((a,) + v, (b,) + w) in psi]
            broken += len(matches) != 1
    assert broken > 0


def test_psi_prime_factors_divide_q():
    from casweep.core import prime_factors
    for name, m in (("ca102", 2), ("shift", 2), ("xor_left", 2),
                    ("sigma2_x_sigma3inv", 1)):
        f = builtin_rule(name)
        assert left_closing_decide(f)
        card = len(enumerate_stairs(f, m))
        assert all(f.q % p == 0 for p in prime_factors(card))


def test_lambda_shift_multiplicativity():
    # composing with the shift divides lambda by q; q=2 rules only, the
    # q=6 rule's shifted form needs an enumeration beyond the default cap
    for name in sorted(PSI6):
        f = builtin_rule(name)
        assert lambda_value(shift_compose(f, 1)) == lambda_value(f) / 2
