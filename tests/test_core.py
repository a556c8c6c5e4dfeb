"""Words, eventually periodic configurations, and arithmetic helpers."""

import random
from fractions import Fraction

import pytest

from casweep.core import (EpConfig, ResourceCapError, all_words,
                          check_power_cap, check_table_size, ep_equal,
                          ep_unzip, ep_zip, ep_zip_layout, is_prime,
                          normal_form, prime_factors, random_ep_config, vp,
                          word_index, word_of_index)
from oracles import cell_window, ep_replace, ep_splice, popping_normalize


def test_word_index_roundtrip():
    for q in (2, 3, 5):
        for n in (0, 1, 3):
            for k in range(q**n):
                w = word_of_index(k, n, q)
                assert len(w) == n
                assert word_index(w, q) == k


def test_word_index_big_endian():
    # leftmost cell is the most significant digit
    assert word_index((1, 0, 0), 2) == 4
    assert word_of_index(5, 3, 2) == (1, 0, 1)


@pytest.mark.parametrize("q,k,plus,message", [
    (2, 10, 0, None),
    (2, 11, 0, "states: 2048 is over the cap 1024"),
    (2, 10, 1, "states: 1025 is over the cap 1024"),
    (3, 7, 0, "states: 2187 is over the cap 1024"),
    (2, 12, 0, r"states: 2\^12 is over the cap 1024"),
    (3, 10**12, 5, r"states: 5 \+ 3\^1000000000000 is over the cap 1024"),
])
def test_power_caps_are_decided_from_the_exponent(q, k, plus, message):
    if message is None:
        check_power_cap(q, k, 1024, "states", plus)
    else:
        with pytest.raises(ResourceCapError, match=f"^{message}$"):
            check_power_cap(q, k, 1024, "states", plus)
    check_power_cap(q, 12, None, "states", plus)


def test_table_sizes_are_checked_from_the_exponent():
    check_table_size(8, 2, 3)
    with pytest.raises(ValueError, match="^table has 8 entries, expected 9$"):
        check_table_size(8, 3, 2)
    with pytest.raises(ValueError,
                       match=r"^table has 3 entries, expected 3\^3$"):
        check_table_size(3, 3, 3)
    with pytest.raises(ValueError, match=r"expected 3\^1000000000000$"):
        check_table_size(3, 3, 10**12)


def test_all_words_order():
    ws = list(all_words(2, 3))
    assert len(ws) == 9
    assert ws[0] == (0, 0)
    assert ws[-1] == (2, 2)
    assert ws == sorted(ws)


@pytest.mark.parametrize("q,length", [(1, 3), (2, 0), (2, 5), (3, 3), (5, 2)])
def test_all_words_follows_word_of_index(q, length):
    assert list(all_words(length, q)) == \
        [word_of_index(k, length, q) for k in range(q ** length)]


def test_word_index_rejects_bad_symbols():
    with pytest.raises(ValueError):
        word_index((0, 2), 2)


def test_epconfig_cells():
    x = EpConfig(2, (0, 1), (1, 1, 0), 5, (0, 0, 1))
    assert x.center_end == 8
    assert [x.cell(i) for i in range(5, 8)] == [1, 1, 0]
    # left tail: ...0 1 0 1 | center, so cell 4 closes a period copy
    assert [x.cell(i) for i in range(1, 5)] == [0, 1, 0, 1]
    assert [x.cell(i) for i in range(8, 14)] == [0, 0, 1, 0, 0, 1]
    assert x.window(3, 10) == (0, 1, 1, 1, 0, 0, 0)


def seeded_configs(seed: int, count: int) -> list[EpConfig]:
    """Configurations with periods of 1-4 cells and centers of 0-5, every
    fourth one with an empty center."""
    rng = random.Random(seed)
    configs = []
    for k in range(count):
        q = rng.choice((2, 3))
        x = random_ep_config(rng, q, max_period=4, max_center=5, span=4)
        if k % 4 == 0:
            x = EpConfig(q, x.left_period, (), x.center_start, x.right_period)
        configs.append(x)
    return configs


@pytest.mark.parametrize("seed", range(4))
def test_window_matches_cell_window(seed):
    """Inside each tail, across both center boundaries, over the whole
    center, and empty or inverted ranges (which read no cells)."""
    for x in seeded_configs(seed, 12):
        for lo in range(x.center_start - 9, x.center_end + 9):
            for hi in range(lo - 2, lo + 15):
                assert x.window(lo, hi) == cell_window(x, lo, hi)
        assert x.window(x.center_end + 3, x.center_end + 1) == ()


@pytest.mark.parametrize("seed", range(4))
def test_normalize_matches_popping_normalize(seed):
    for x in seeded_configs(100 + seed, 60):
        n = x.normalize()
        assert n == popping_normalize(x)
        assert n.normalize() == n


def parts(x: EpConfig) -> tuple:
    return x.q, x.left_period, x.center, x.center_start, x.right_period


@pytest.mark.parametrize("seed", range(4))
def test_normal_form_matches_normalize(seed):
    """Seeded configurations, every fourth with an empty center, and fully
    periodic ones given with and without a center that continues both
    tails."""
    rng = random.Random(200 + seed)
    configs = seeded_configs(200 + seed, 40)
    for _ in range(20):
        q = rng.choice((2, 3))
        p = tuple(rng.randrange(q) for _ in range(rng.randint(1, 4)))
        start = rng.randint(-4, 4)
        tiled = EpConfig(q, p, (), start, p)
        configs += [tiled, EpConfig(q, p * 2, tiled.window(start, start + 5),
                                    start, tiled.window(start + 5,
                                                        start + 5 + len(p)))]
    for x in configs:
        n = normal_form(*parts(x))
        assert n == x.normalize() == popping_normalize(x)
        assert ep_equal(n, x)
        assert normal_form(*parts(n)) == n
    assert sum(not x.center for x in configs) >= 20


@pytest.mark.parametrize("left,center,right", [
    ((), (), (0,)), ((0,), (), ()), ((), (), ()),
    ((), (1, 0), (0,)), ((0,), (1, 0), ()), ((), (1,), ())])
def test_normal_form_refuses_empty_tails(left, center, right):
    """Before any period or tiling is computed: a center with an empty
    tail would otherwise divide by the zero period length."""
    with pytest.raises(ValueError) as given:
        EpConfig(2, left, center, 0, right)
    with pytest.raises(ValueError) as normal:
        normal_form(2, left, center, 0, right)
    assert str(normal.value) == str(given.value) == \
        "periodic tails must be nonempty words"


def test_normal_form_refuses_what_epconfig_refuses():
    """One bad symbol in each word, at each place, and bad alphabets:
    normal_form raises the message EpConfig raises."""
    words = ((0, 1), (1, 0, 1), (1, 1))
    cases = [(q, *words) for q in (1, 0, -2, 2.0, "2")]
    for k, word in enumerate(words):
        for place in range(len(word)):
            for bad in (-1, 2, 7):
                bent = list(words)
                bent[k] = word[:place] + (bad,) + word[place + 1:]
                cases.append((2, *bent))
    for q, left, center, right in cases:
        with pytest.raises(ValueError) as given:
            EpConfig(q, left, center, -1, right)
        with pytest.raises(ValueError) as normal:
            normal_form(q, left, center, -1, right)
        assert str(normal.value) == str(given.value)


def test_epconfig_reversed():
    x = EpConfig(3, (0, 1), (2, 1, 0, 2), -1, (1, 2, 2))
    y = x.reversed()
    for i in range(-9, 9):
        assert y.cell(i) == x.cell(-i)
    assert ep_equal(y.reversed(), x)


def test_normalize_minimal_periods():
    x = EpConfig(2, (0, 1, 0, 1), (1,), 0, (1, 0, 1, 0, 1, 0))
    n = x.normalize()
    assert len(n.left_period) == 2
    assert len(n.right_period) == 2
    assert ep_equal(n, x)


def test_normalize_absorbs_constant_center():
    # center cells equal to the adjacent tail get folded into the tails
    x = EpConfig(2, (0,), (0, 0, 1, 0, 0), 0, (0,))
    n = x.normalize()
    assert ep_equal(n, x)
    assert n.center == (1,)
    assert n.center_start == 2


def test_normalize_fully_periodic():
    a = EpConfig(2, (1, 0), (1, 0, 1, 0), 3, (1, 0)).normalize()
    b = EpConfig(2, (0, 1), (), 0, (0, 1)).normalize()
    assert ep_equal(a, b)
    assert a == b  # canonical form is literally identical


def test_ep_equal_across_presentations():
    a = EpConfig(2, (0,), (1, 1), 0, (1, 0))
    b = EpConfig(2, (0, 0, 0), (1, 1, 1, 0, 1), 0, (0, 1, 0, 1, 0, 1))
    assert ep_equal(a, b)
    c = EpConfig(2, (0,), (1, 1), 1, (1, 0))
    assert not ep_equal(a, c)


def test_ep_splice():
    y = EpConfig(2, (0,), (1, 1, 1), 0, (0,))
    z = EpConfig(2, (1,), (0, 0), 0, (1,))
    x = ep_splice(z, 1, (0, 1), y)
    # z's cells below 1, the word on [1, 3), y's cells from 3 on
    assert [x.cell(i) for i in range(-2, 6)] == [1, 1, 0, 0, 1, 0, 0, 0]


def test_ep_replace():
    x = EpConfig(2, (0,), (), 0, (0,))
    y = ep_replace(x, -2, (1, 1))
    assert [y.cell(i) for i in range(-4, 2)] == [0, 0, 1, 1, 0, 0]


def test_ep_zip_unzip():
    a = EpConfig(2, (0,), (1, 0), 0, (1,))
    b = EpConfig(2, (1,), (0, 1, 1), -1, (0, 1))
    z = ep_zip(a, b)
    assert z.q == 4
    aa, bb = ep_unzip(z)
    assert ep_equal(aa, a)
    assert ep_equal(bb, b)
    for i in range(-6, 8):
        assert z.cell(i) == a.cell(i) * 2 + b.cell(i)


def test_ep_zip_layout_counts_the_zipped_cells():
    """The `automata member` cap counts ce - cs + lper + rper cells: the
    left period, center and right period of the zipped word."""
    rng = random.Random(235)
    for _ in range(300):
        y = random_ep_config(rng, 2, max_period=6, max_center=5, span=6)
        z = random_ep_config(rng, 2, max_period=6, max_center=5, span=6)
        cs, ce, lper, rper = ep_zip_layout(y, z)
        w = ep_zip(y, z)
        assert (w.center_start, w.center_end) == (cs, ce)
        assert ce - cs + lper + rper == \
            len(w.left_period) + len(w.center) + len(w.right_period)


def test_random_ep_config_seeded():
    a = random_ep_config(random.Random(7), 3)
    b = random_ep_config(random.Random(7), 3)
    assert a == b
    assert a.q == 3


def test_prime_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(12)
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []
    assert vp(Fraction(8, 3), 2) == 3
    assert vp(Fraction(3, 8), 2) == -3
    assert vp(Fraction(5, 7), 2) == 0
