"""Acceptance gate: one test per shipped guarantee.

Each test is a single pass/fail line covering one externally stated
property of the library.  All comparisons are exact; there are no
tolerances anywhere because every quantity involved is an integer, an
exact rational, or a symbol sequence.
"""

import math
import random
from fractions import Fraction

from casweep.blockrule import (
    BlockRule,
    builtin_block_rule,
    representation_eval,
    sweeper_eval,
)
from casweep.ca import apply_ep, builtin_rule, shift_rule
from casweep.cli import main
from casweep.closing import left_closing_decide
from casweep.core import EpConfig, ep_equal, ep_zip, random_ep_config, vp
from casweep.hierarchy import decompose_biclosing, verify_decomposition
from casweep.mealy import good_states, mealy_from_block
from casweep.stairs import enumerate_stairs, lambda_value, slider_exists
from casweep.synthesis import synthesis_manifest, synthesize, verify_slider
from casweep.zautomata import (
    is_slider_rule_for,
    member,
    slider_relation_automaton,
    sweeper_relation_automaton,
)

from oracles import count_representations


def data_file(name: str) -> str:
    from importlib import resources

    return str(resources.files("casweep.data").joinpath(f"{name}.json"))


def test_01_stair_count_of_base_six_product_shift():
    f = builtin_rule("sigma2_x_sigma3inv")
    stair = enumerate_stairs(f, 1)
    assert stair.cardinality == 324
    assert 324 == 2**2 * 3**4
    verdict = slider_exists(f)
    assert verdict.exists is False
    assert 3 in verdict.violating_primes


def test_02_left_xor_is_not_a_slider():
    f = builtin_rule("xor_left")
    assert vp(lambda_value(f), 2) == 1
    assert slider_exists(f).exists is False


def test_03_right_xor_block_realizes_ca102():
    chi = builtin_block_rule("xor_block")
    f = builtin_rule("ca102")
    assert is_slider_rule_for(chi, f) is True
    verdict = slider_exists(f)
    assert verdict.exists is True
    assert verdict.lam == Fraction(1)


def test_04_swap_block_realizes_the_shift():
    swap = builtin_block_rule("swap")
    shift = builtin_rule("shift")
    assert is_slider_rule_for(swap, shift) is True
    # seed x with x_i = y_{i+1} left of 0, a fresh symbol s at 0, and
    # x_i = y_i right of 0; sweeping outward from anchor 0 must recover
    # (y, shift(y)) while s vanishes at infinity
    y = EpConfig(2, (0,), (1, 1, 0, 1), 0, (0,))
    s = 1
    x_cells = {i: y.cell(i + 1) for i in range(-8, 0)}
    x_cells[0] = s
    x_cells.update({i: y.cell(i) for i in range(1, 9)})
    x = EpConfig(2, (0,), tuple(x_cells[i] for i in range(-8, 9)), -8, (0,))
    got_y, got_z = representation_eval(swap, x, 0)
    assert ep_equal(got_y, y)
    assert ep_equal(got_z, apply_ep(shift, y))


def test_05_representation_count_times_stair_count_is_alphabet_power():
    for name in ("identity", "shift", "ca102"):
        f = builtin_rule(name)
        chi = synthesize(f)
        manifest = synthesis_manifest(slider_exists(f).stairs)
        psi, n = manifest["psi"], manifest["n"]
        rng = random.Random(5)
        for _ in range(5):
            y = random_ep_config(rng, f.q)
            for anchor in (-3, -1, 0, 2, 4):
                count = count_representations(chi, f, y, anchor)
                assert count * psi == f.q**n


def test_06_synthesis_round_trip_passes_exact_verification(tmp_path):
    for name in ("identity", "shift", "ca102"):
        f = builtin_rule(name)
        chi = synthesize(f)
        assert chi.is_bijective()
        m = left_closing_decide(f).strong_radius
        assert chi.block_length == 3 * m + 1
        out = tmp_path / f"{name}_block.json"
        assert main(["synthesize", data_file(name), str(out)]) == 0
        assert main(["verify", str(out), data_file(name), "--exact"]) == 0


def test_07_random_bijective_block_rules_have_only_good_states():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        table = list(range(2**n))
        rng.shuffle(table)
        machine = mealy_from_block(BlockRule(2, n, tuple(table)))
        assert good_states(machine) == set(range(machine.size))


def test_08_sweeper_limit_family_of_the_discontinuous_rule():
    chi = builtin_block_rule("not_closed")
    # inputs ...(0,0)(0,1)^n.(0,1)^inf with symbols (a,b) coded as 2a+b;
    # displayed limits are ...(0,0)(1,0)^{n+1}.(1,0)^inf
    for n in (1, 2, 3, 5):
        y = EpConfig(4, (0,), (), -n, (1,))
        out = sweeper_eval(chi, y)
        assert out.converges
        expected = EpConfig(4, (0,), (), -n - 1, (2,))
        for cell in range(-n - 4, n + 4):
            assert out.limit.cell(cell) == expected.cell(cell)
    # the all-(0,1) limit point is a fixed point, so the images above do
    # not converge to the image of the input limit
    fixed = EpConfig(4, (1,), (), 0, (1,))
    out = sweeper_eval(chi, fixed)
    assert out.converges
    for cell in range(-3, 4):
        assert out.limit.cell(cell) == 1


def test_09_sampling_agreement_matches_exact_decision():
    # on each rule's bundled partner the sampled slider/sweeper agreement
    # and the exact decision must coincide; on arbitrary pairs the exact
    # decision can only force agreement one way (a rule that does realize
    # the CA makes both per-sample checks succeed), so cross pairs are
    # held to that implication
    matched = [
        (builtin_block_rule("swap"), builtin_rule("shift")),
        (builtin_block_rule("xor_block"), builtin_rule("ca102")),
        (builtin_block_rule("identity_block"), builtin_rule("identity")),
    ]
    for chi, f in matched:
        exact = is_slider_rule_for(chi, f)
        sampled = verify_slider(chi, f, samples=60,
                               seed=9).sweeper_agreement
        assert exact is True and sampled == exact
    crossed = [
        (builtin_block_rule("swap"), builtin_rule("identity")),
        (builtin_block_rule("xor_block"), builtin_rule("shift")),
        (builtin_block_rule("identity_block"), builtin_rule("ca102")),
        (builtin_block_rule("not_closed"), shift_rule(4, 0)),
    ]
    for chi, f in crossed:
        assert is_slider_rule_for(chi, f) is False


def test_10_non_closing_witness_revalidates():
    f = builtin_rule("and_rule")
    verdict = left_closing_decide(f)
    assert verdict.closed is False
    first, second = verdict.witness
    assert not ep_equal(first, second)
    # right-asymptotic: beyond both centers the tails are purely periodic,
    # so one common period of agreement pins the whole right tail
    end = max(first.center_start + len(first.center),
              second.center_start + len(second.center))
    span = math.lcm(len(first.right_period), len(second.right_period))
    assert all(first.cell(c) == second.cell(c) for c in range(end, end + span))
    assert ep_equal(apply_ep(f, first), apply_ep(f, second))


def test_11_lambda_ladder_for_shifts():
    for q in (2, 3):
        assert lambda_value(shift_rule(q, 0)) == Fraction(1)
        assert lambda_value(shift_rule(q, 1)) == Fraction(1, q)
        assert lambda_value(shift_rule(q, -1)) == Fraction(q)


def test_12_biclosing_decomposition_verifies_on_samples():
    for name in ("shift", "ca102"):
        decomposition = decompose_biclosing(builtin_rule(name))
        assert verify_decomposition(decomposition, samples=100, seed=7) is True


def test_13_relation_automata_agree_with_sweep_evaluation():
    for name in ("swap", "xor_block", "identity_block", "not_closed"):
        chi = builtin_block_rule(name)
        slider = slider_relation_automaton(chi)
        sweeper = sweeper_relation_automaton(chi)
        rng = random.Random(13)
        for _ in range(200):
            x = random_ep_config(rng, chi.q)
            anchor = rng.randrange(-3, 4)
            y, z = representation_eval(chi, x, anchor)
            assert member(slider, ep_zip(y, z))
            out = sweeper_eval(chi, x)
            limits = [out.limit] if out.converges else [out.limit, out.second]
            for limit in limits:
                assert member(sweeper, ep_zip(x, limit))
