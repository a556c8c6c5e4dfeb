"""Local rules: evaluation, composition, mirroring, neighborhood handling."""

import random

import pytest

from casweep.ca import (BUILTIN_RULES, LocalRule, apply_ep, builtin_rule,
                        minimize_neighborhood, mirror, refine, shift_compose,
                        shift_rule, to_radius_form)
from casweep.core import EpConfig, all_words, ep_equal, random_ep_config
from oracles import (apply_word, builtin_rule_metadata, cellwise_apply_ep,
                     compose, equal)


def random_rule(rng, q, anchor, width):
    return LocalRule(q, anchor, width,
                     tuple(rng.randrange(q) for _ in range(q**width)))


def test_builtin_rules_load():
    for name in BUILTIN_RULES:
        f = builtin_rule(name)
        assert f.q >= 2
        meta = builtin_rule_metadata(name)
        assert meta["alphabet"] == f.q


def test_ca102_is_right_xor():
    f = builtin_rule("ca102")
    for a in range(2):
        for b in range(2):
            assert f((a, b)) == a ^ b
    assert f.anchor == 0 and f.width == 2


def test_shift_semantics():
    sig = builtin_rule("shift")
    x = EpConfig(2, (0,), (1, 0, 1), 0, (1, 1, 0))
    z = apply_ep(sig, x)
    for i in range(-5, 10):
        assert z.cell(i) == x.cell(i + 1)
    sig_inv = builtin_rule("shift_inv")
    w = apply_ep(sig_inv, x)
    for i in range(-5, 10):
        assert w.cell(i) == x.cell(i - 1)


def test_apply_word():
    f = builtin_rule("ca102")
    assert apply_word(f, (1, 0, 1, 1)) == (1, 1, 0)
    # apply_word maps every full window; the anchor is ignored for words
    sig = builtin_rule("shift")
    assert apply_word(sig, (1, 0, 1)) == (1, 0, 1)


@pytest.mark.parametrize("seed", range(5))
def test_apply_ep_matches_pointwise(seed):
    """f(x) at cell p must equal the table on the window at p."""
    rng = random.Random(seed)
    q = rng.choice((2, 3))
    f = random_rule(rng, q, rng.randrange(-2, 2), rng.randrange(1, 4))
    x = random_ep_config(rng, q)
    z = apply_ep(f, x)
    for p in range(-12, 12):
        assert z.cell(p) == f(x.window(p + f.anchor, p + f.anchor + f.width))


@pytest.mark.parametrize("q", (2, 3))
@pytest.mark.parametrize("width", (1, 2, 3, 4))
def test_apply_ep_matches_cellwise(q, width):
    """The same representation as one window and one word index per
    output cell, for anchors -3..2."""
    rng = random.Random(f"apply-ep-{q}-{width}")
    for anchor in range(-3, 3):
        f = random_rule(rng, q, anchor, width)
        for _ in range(8):
            x = random_ep_config(rng, q, max_period=4, max_center=5, span=4)
            assert apply_ep(f, x) == cellwise_apply_ep(f, x)


@pytest.mark.parametrize("seed", range(4))
def test_compose_oracle(seed):
    rng = random.Random(100 + seed)
    q = 2
    f = random_rule(rng, q, rng.randrange(-1, 2), rng.randrange(1, 3))
    g = random_rule(rng, q, rng.randrange(-1, 2), rng.randrange(1, 3))
    h = compose(f, g)
    x = random_ep_config(rng, q)
    assert ep_equal(apply_ep(h, x), apply_ep(f, apply_ep(g, x)))


def test_shift_rule_and_compose():
    sig = shift_rule(2, 1)
    assert equal(sig, builtin_rule("shift"))
    f = builtin_rule("ca102")
    g = shift_compose(f, 2)
    x = EpConfig(2, (0,), (1, 1, 0, 1), 0, (1, 0))
    z = apply_ep(g, x)
    zz = apply_ep(f, x)
    for i in range(-5, 10):
        assert z.cell(i) == zz.cell(i + 2)


def test_mirror_semantics():
    """Mirrored rule equals conjugation by tape reversal."""
    rng = random.Random(3)
    f = random_rule(rng, 2, -1, 3)
    fm = mirror(f)
    x = random_ep_config(rng, 2)
    a = apply_ep(fm, x)
    b = apply_ep(f, x.reversed()).reversed()
    assert ep_equal(a, b)
    assert equal(mirror(fm), f)


def test_refine_and_minimize():
    f = builtin_rule("ca102")
    g = refine(f, -2, 6)
    assert (g.anchor, g.width) == (-2, 6)
    assert equal(f, g)
    h = minimize_neighborhood(g)
    assert (h.anchor, h.width) == (0, 2)
    assert h.table == f.table


def test_minimize_constant_rule():
    f = LocalRule(2, -1, 3, (1,) * 8)
    h = minimize_neighborhood(f)
    assert h.width == 1
    assert h.table == (1, 1)


def test_radius_and_radius_form():
    f = builtin_rule("xor_left")
    assert f.radius == 1
    g = to_radius_form(f, max(f.radius, 1))
    assert g.anchor == -1 and g.width == 3
    assert equal(f, g)
    sig = builtin_rule("shift")
    assert sig.radius == 1
    assert to_radius_form(sig, max(sig.radius, 1)).width == 3


def test_product_rule_components():
    """Bundled 6-symbol rule: shifts one factor left, the other right."""
    f = builtin_rule("sigma2_x_sigma3inv")
    assert f.q == 6
    meta = builtin_rule_metadata("sigma2_x_sigma3inv")
    assert meta["product_encoding"]["factors"] == [2, 3]
    # symbol a encodes (a // 3, a % 3)
    for u in all_words(3, 6):
        out = f(u)
        assert out // 3 == u[2] // 3  # binary part: left shift
        assert out % 3 == u[0] % 3  # ternary part: right shift


def test_json_roundtrip():
    f = builtin_rule("ca102")
    g = LocalRule.from_json(f.to_json())
    assert f == g
    blob = f.to_json()
    assert set(blob) == {"alphabet", "anchor", "width", "table"}
