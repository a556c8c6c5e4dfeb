"""End-to-end tests of the command line interface.

Commands run in-process through main() so exit codes, the JSON report on
stdout, and the summary on stderr are all observable.  Reports are
serialized with sorted keys, which the golden comparisons rely on.
"""

import json
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import casweep
from casweep.blockrule import (BUILTIN_BLOCK_RULES, BlockRule,
                               builtin_block_rule)
from casweep.ca import BUILTIN_RULES, LocalRule, apply_ep, builtin_rule
from casweep.cli import build_parser, main
from casweep.closing import left_closing_decide
from casweep.core import (EpConfig, ep_equal, ep_from_json, ep_to_json,
                          ep_unzip, word_of_index)
from casweep.zautomata import (graph_mismatch_automaton, intersect, is_empty,
                               nonempty_witness)
from oracles import whole_slider_automaton


def data_file(name: str) -> str:
    return str(resources.files("casweep.data").joinpath(f"{name}.json"))


def package_env() -> dict:
    """The environment with the imported casweep package first on the path,
    so subprocesses run the code under test."""
    return dict(os.environ,
                PYTHONPATH=str(Path(casweep.__file__).resolve().parents[1]))


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_config(path: Path, config: EpConfig) -> str:
    path.write_text(json.dumps(ep_to_json(config)))
    return str(path)


IMPULSE = EpConfig(2, (0,), (0, 0, 1, 0), 0, (0,))


# ---------------------------------------------------------------------------
# analyze

def test_analyze_ca102_affirmative(capsys):
    code, report, err = run(capsys, "analyze", data_file("ca102"))
    assert code == 0
    assert report["schema"] == "casweep-report-v1"
    assert report["slider"]["slider_exists"] is True
    assert report["slider"]["lambda"] == {"num": 1, "den": 1}
    assert report["lambda_valuations"] == {"2": 0}
    assert report["shift_offset"] == 0
    assert report["left_closing"] == {"side": "left", "closed": True,
                                      "strong_radius": 2}
    assert report["right_closing"]["closed"] is True
    # synthesize builds the block rule of length 3m + 1 = 7
    assert "slider exists at block length 7" in err


def test_analyze_xor_left_negative(capsys):
    code, report, _ = run(capsys, "analyze", data_file("xor_left"))
    assert code == 1
    assert report["slider"]["slider_exists"] is False
    assert report["slider"]["violating_primes"] == [2]
    assert report["lambda_valuations"] == {"2": 1}
    assert report["shift_offset"] == 1


def test_analyze_base_six_product_shift(capsys):
    code, report, _ = run(capsys, "analyze", data_file("sigma2_x_sigma3inv"))
    assert code == 1
    assert report["slider"]["psi_cardinality"] == 69984
    assert report["slider"]["lambda"] == {"num": 3, "den": 2}
    assert report["slider"]["violating_primes"] == [3]
    assert report["lambda_valuations"] == {"2": -1, "3": 1}
    assert report["shift_offset"] == 1


def test_analyze_non_left_closing_rule(capsys):
    code, report, _ = run(capsys, "analyze", data_file("and_rule"))
    assert code == 1
    assert report["slider"]["left_closing"] is False
    assert report["left_closing"]["closed"] is False
    assert len(report["left_closing"]["witness"]) == 2
    assert "lambda_valuations" not in report
    assert "shift_offset" not in report


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_analyze_report_is_deterministic(capsys):
    main(["analyze", data_file("ca102")])
    first = capsys.readouterr().out
    main(["analyze", data_file("ca102")])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# synthesize and verify

def test_synthesize_then_exact_verify(capsys, tmp_path):
    out = str(tmp_path / "shift_block.json")
    code, report, _ = run(capsys, "synthesize", data_file("shift"), out)
    assert code == 0
    assert report["self_check"] == "exact"
    payload = json.loads(Path(out).read_text())
    assert payload["manifest"]["pi"] == "lex-interleave-v1"
    chi = BlockRule.from_json(payload)
    assert chi.is_bijective()
    assert chi.block_length == report["block_length"]

    code, report, _ = run(capsys, "verify", out, data_file("shift"), "--exact")
    assert code == 0
    assert report["verified"] is True


def test_synthesize_refuses_non_slider(capsys, tmp_path):
    out = tmp_path / "never.json"
    code, report, _ = run(capsys, "synthesize", data_file("xor_left"), str(out))
    assert code == 1
    assert report["slider"]["slider_exists"] is False
    assert not out.exists()


def test_verify_sample_mode_accepts_matching_pair(capsys):
    code, report, _ = run(capsys, "verify", data_file("swap"),
                          data_file("shift"), "--samples", "40")
    assert code == 0
    assert report["verified"] is True
    assert report["slider_samples_ok"] is True
    assert report["sweeper_agreement"] is True


def test_verify_sample_mode_rejects_with_counterexample(capsys):
    code, report, _ = run(capsys, "verify", data_file("swap"),
                          data_file("identity"), "--samples", "40")
    assert code == 1
    assert report["verified"] is False
    cex = report["counterexample"]
    assert set(cex) == {"input", "anchor", "backward_limit", "forward_limit"}


def test_verify_exact_mode_both_ways(capsys):
    code, report, _ = run(capsys, "verify", data_file("swap"),
                          data_file("shift"), "--exact")
    assert code == 0 and report["verified"] is True
    code, report, _ = run(capsys, "verify", data_file("swap"),
                          data_file("identity"), "--exact")
    assert code == 1 and report["verified"] is False


def test_verify_exact_is_capped_by_default(capsys, tmp_path):
    """A seeded random block rule over q=48, length 3, that writes the
    cell e it reads and moves the window v by a permutation chosen by e
    (chi(v e) = e pi_e(v)), so no two (window, buffer) pairs of the live
    pass merge: its first step keeps all 48^3 of them, and the next one
    predicts 48^4, over the default cap of 2^22: refused before it is
    built."""
    q, Q = 48, 48 * 48
    rng = random.Random(13)
    moves = [rng.sample(range(Q), Q) for _ in range(q)]
    block = tmp_path / "moves48_3.json"
    block.write_text(json.dumps(BlockRule(q, 3, tuple(
        e * Q + moves[e][v] for v in range(Q) for e in range(q))).to_json()))
    rule = tmp_path / "identity48.json"
    rule.write_text(json.dumps(LocalRule(q, 0, 1, tuple(range(q))).to_json()))
    start = time.monotonic()
    code, report, err = run(capsys, "verify", str(block), str(rule),
                            "--exact")
    assert time.monotonic() - start < 1
    assert code == 3 and report is None
    assert err.startswith(
        f"resource cap exceeded: slider live states: {q ** 4} is over")


def test_verify_exact_of_a_long_identity_block(capsys, tmp_path):
    """The identity block rule of length 12 has 12 * 2^22 slider states,
    of which the exact check builds only the 12 * 2^11 live ones."""
    block = tmp_path / "identity12.json"
    block.write_text(json.dumps(
        BlockRule(2, 12, tuple(range(1 << 12))).to_json()))
    code, report, _ = run(capsys, "verify", str(block),
                          data_file("identity"), "--exact")
    assert code == 0 and report["verified"] is True


def test_verify_exact_needs_bijective_block(capsys, tmp_path):
    squash = tmp_path / "squash.json"
    squash.write_text(json.dumps(BlockRule(2, 2, (0, 0, 3, 3)).to_json()))
    code, report, err = run(capsys, "verify", str(squash),
                            data_file("identity"), "--exact")
    assert code == 2
    assert report is None
    assert "bijective" in err


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["sample", "exact"])
def test_verify_refuses_input_faults_before_any_check(capsys, monkeypatch,
                                                      tmp_path, mode):
    monkeypatch.setattr("casweep.cli.verify_slider", _raise_unexpected)
    monkeypatch.setattr("casweep.cli.is_slider_rule_for", _raise_unexpected)
    squash = tmp_path / "squash.json"
    squash.write_text(json.dumps(BlockRule(2, 2, (0, 0, 3, 3)).to_json()))
    ternary = tmp_path / "ternary.json"
    ternary.write_text(json.dumps(BlockRule(3, 1, (0, 1, 2)).to_json()))
    for block, message in ((squash, "bijective"), (ternary, "alphabet")):
        code, report, err = run(capsys, "verify", str(block),
                                data_file("identity"), *mode)
        assert code == 2 and report is None
        assert err.startswith("error:") and message in err


@pytest.mark.parametrize("name,mode", [("verify_slider", []),
                                       ("is_slider_rule_for", ["--exact"])],
                         ids=["sample", "exact"])
def test_verify_engine_fault_exits_4(capsys, monkeypatch, name, mode):
    def fault(*args, **kwargs):
        raise ValueError("symbol 5 out of range for alphabet of size 2")

    monkeypatch.setattr(f"casweep.cli.{name}", fault)
    code, report, err = run(capsys, "verify", data_file("swap"),
                            data_file("shift"), *mode)
    assert code == 4 and report is None
    assert err.splitlines()[-1].startswith("internal error: ValueError")


# ---------------------------------------------------------------------------
# sweep

def test_sweep_slider_limits_realize_the_ca(capsys, tmp_path):
    config = write_config(tmp_path / "x.json", IMPULSE)
    code, report, _ = run(capsys, "sweep", data_file("xor_block"), config,
                          "--anchor", "-1")
    assert code == 0
    y = ep_from_json(report["backward_limit"])
    z = ep_from_json(report["forward_limit"])
    assert ep_equal(apply_ep(builtin_rule("ca102"), y), z)


def test_sweep_trace_grid(capsys, tmp_path):
    config = write_config(tmp_path / "x.json", IMPULSE)
    code, report, err = run(capsys, "sweep", data_file("xor_block"), config,
                            "--anchor", "-2", "--trace", "5")
    assert code == 0
    rows = report["trace"]
    assert len(rows) == 6
    widths = {len(row) for row in rows}
    assert len(widths) == 1
    assert set("".join(rows)) <= {"0", "1"}
    assert rows[0] != rows[5]
    assert err.count("\n") >= 6


FAR = str(10 ** 12)


@pytest.mark.parametrize("extra,config", [
    (["--anchor", FAR], IMPULSE),
    ([], EpConfig(2, (0,), (1,), 10 ** 12, (0,))),
    (["--trace", FAR], IMPULSE),
    (["--mode", "sweeper", "--anchor", "-5", "--trace", "3000"], IMPULSE),
], ids=["anchor", "center", "trace", "sweeper-trace"])
def test_sweep_cells_are_capped(capsys, tmp_path, extra, config):
    path = write_config(tmp_path / "x.json", config)
    start = time.perf_counter()
    code, report, err = run(capsys, "sweep", data_file("swap"), path, *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and report is None
    assert err.startswith("resource cap exceeded: sweep cells")


def test_sweeper_mode_ignores_far_anchor(capsys, tmp_path):
    # sweeper limits are taken from anchors going left of the center, so
    # the anchor builds no cells unless a trace is asked for
    config = write_config(tmp_path / "x.json", IMPULSE)
    code, report, _ = run(capsys, "sweep", data_file("swap"), config,
                          "--mode", "sweeper", "--anchor", FAR)
    assert code == 0 and report["outcome"]["converges"] is True


def test_sweep_sweeper_convergent(capsys, tmp_path):
    config = write_config(tmp_path / "x.json", IMPULSE)
    code, report, _ = run(capsys, "sweep", data_file("xor_block"), config,
                          "--mode", "sweeper")
    assert code == 0
    assert report["outcome"]["converges"] is True


def test_sweep_sweeper_divergent(capsys, tmp_path):
    squash = tmp_path / "squash.json"
    squash.write_text(json.dumps(BlockRule(2, 2, (0, 0, 3, 3)).to_json()))
    config = write_config(tmp_path / "x.json", EpConfig(2, (0, 1), (), 0, (0, 1)))
    code, report, _ = run(capsys, "sweep", str(squash), config,
                          "--mode", "sweeper")
    assert code == 1
    assert report["outcome"]["converges"] is False
    assert len(report["outcome"]["limits"]) == 2


def test_sweep_alphabet_mismatch(capsys, tmp_path):
    config = write_config(tmp_path / "x.json", EpConfig(4, (0,), (), 0, (1,)))
    code, report, _ = run(capsys, "sweep", data_file("xor_block"), config)
    assert code == 2


def test_sweep_slider_needs_bijective_block(capsys, tmp_path):
    squash = tmp_path / "squash.json"
    squash.write_text(json.dumps(BlockRule(2, 2, (0, 0, 3, 3)).to_json()))
    config = write_config(tmp_path / "x.json", EpConfig(2, (0, 1), (), 0, (0, 1)))
    code, report, err = run(capsys, "sweep", str(squash), config,
                            "--mode", "slider")
    assert code == 2 and report is None
    assert err.splitlines()[-1].startswith("error:")


# ---------------------------------------------------------------------------
# mealy

def test_mealy_all_good_for_swap(capsys):
    code, report, _ = run(capsys, "mealy", data_file("swap"))
    assert code == 0
    assert report["all_good"] is True
    assert report["good"] == [0, 1, 2, 3]
    assert report["bad"] == []


def test_mealy_reports_bad_states(capsys, tmp_path):
    const = tmp_path / "const.json"
    const.write_text(json.dumps(BlockRule(2, 2, (0, 0, 0, 0)).to_json()))
    code, report, _ = run(capsys, "mealy", str(const))
    assert code == 1
    assert report["good"] == [0, 1]
    assert report["bad"] == [2, 3]


def test_mealy_resource_cap(capsys):
    code, report, err = run(capsys, "mealy", data_file("not_closed"),
                            "--max-automaton-states", "50")
    assert code == 3
    assert report is None
    assert "cap" in err


def test_mealy_checks_cap_before_building(capsys, monkeypatch, tmp_path):
    """The identity block rule of length 10 has |Q| = 2^10, so the
    good-state product needs 2^10 * (2^10 + 1) * 2^10 edges, over the
    default cap: refused before the 2^20-entry tables are built."""
    monkeypatch.setattr("casweep.cli.mealy_from_block", _raise_unexpected)
    block = tmp_path / "identity10.json"
    block.write_text(json.dumps(
        BlockRule(2, 10, tuple(range(1 << 10))).to_json()))
    start = time.monotonic()
    code, report, err = run(capsys, "mealy", str(block))
    assert time.monotonic() - start < 1
    assert code == 3 and report is None
    assert err.startswith("resource cap exceeded: good-state product edges")


# ---------------------------------------------------------------------------
# decompose

def test_decompose_ca102(capsys, tmp_path):
    out_dir = tmp_path / "stages"
    code, report, _ = run(capsys, "decompose", data_file("ca102"),
                          str(out_dir), "--samples", "25")
    assert code == 0
    assert report["verified"] is True
    assert report["shift_offset"] == 0
    assert [s["direction"] for s in report["stages"]] == ["RL", "LR"]
    manifest = json.loads((out_dir / "decomposition.json").read_text())
    assert manifest["stages"][0]["rule_file"] == "stage1.json"
    stage2 = BlockRule.from_json(
        json.loads((out_dir / "stage2.json").read_text()))
    assert stage2.is_bijective()


def test_decompose_records_rule_relative_to_out_dir(capsys, monkeypatch,
                                                    tmp_path):
    (tmp_path / "rules").mkdir()
    (tmp_path / "rules" / "ca102.json").write_text(
        Path(data_file("ca102")).read_text())
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "decompose", os.path.join("rules", "ca102.json"),
                     os.path.join("out", "stages"), "--samples", "5")
    assert code == 0
    monkeypatch.chdir(tmp_path / "out")
    manifest = json.loads(Path("stages", "decomposition.json").read_text())
    claimed = json.loads(
        Path("stages", manifest["claimed_ca_file"]).read_text())
    assert LocalRule.from_json(claimed) == builtin_rule("ca102")


def test_decompose_positive_offset(capsys, tmp_path):
    out_dir = tmp_path / "stages"
    code, report, _ = run(capsys, "decompose", data_file("xor_left"),
                          str(out_dir), "--samples", "25")
    assert code == 0
    assert report["verified"] is True
    assert report["shift_offset"] == 1


def test_decompose_rejects_non_biclosing(capsys, tmp_path):
    out_dir = tmp_path / "stages"
    code, report, _ = run(capsys, "decompose", data_file("and_rule"),
                          str(out_dir))
    assert code == 1
    assert report["biclosing"] is False
    assert report["failing_side"] in ("left", "right")
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# closing

@pytest.mark.parametrize("command", ["closing", "analyze"])
def test_closing_enumerations_are_capped(capsys, tmp_path, command):
    # radius 2 over 6 symbols: 6^10 pair-graph edge tests; radius 6 over 2
    # symbols: 2^26; the shift x_{i-30}, one cell wide at radius 30: 2^122
    rng = random.Random(17)
    rules = [LocalRule(q, -(width // 2), width,
                       tuple(rng.randrange(q) for _ in range(q ** width)))
             for q, width in ((6, 5), (2, 13))]
    rules.append(LocalRule(2, -30, 1, (0, 1)))
    for rule in rules:
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(rule.to_json()))
        start = time.perf_counter()
        code, report, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 3 and report is None
        assert err.startswith("resource cap exceeded: pair graph edge tests")


# Rule files of under 80 bytes that name sizes of q^(10^8) or 2^20000:
# an impossible width or block length exits 2 and a far anchor exits 3,
# each before any power of that size is built or printed.
TINY_RULES = {
    "width": {"alphabet": 3, "anchor": 0, "width": 10**8,
              "table": [0, 1, 2]},
    "shift3": {"alphabet": 3, "anchor": 10**8, "width": 1,
               "table": [0, 1, 2]},
    "shift3-left": {"alphabet": 3, "anchor": -10**8, "width": 1,
                    "table": [0, 1, 2]},
    "shift2": {"alphabet": 2, "anchor": 5000, "width": 1, "table": [0, 1]},
    "shift2-far": {"alphabet": 2, "anchor": 20000, "width": 1,
                   "table": [0, 1]},
    "block": {"alphabet": 3, "block_length": 10**8, "table": [0, 1, 2]},
}

TINY_COMMANDS = {
    "closing": ["closing", "{rule}"],
    "analyze": ["analyze", "{rule}"],
    "decompose": ["decompose", "{rule}", "{out}"],
    "synthesize": ["synthesize", "{rule}", "{out}.json"],
    "mismatch": ["automata", "inspect", "--kind", "mismatch", "{rule}"],
    "verify-exact": ["verify", "--exact", data_file("xor_block"), "{rule}"],
    "mealy": ["mealy", "{rule}"],
    "sweep": ["sweep", "{rule}", "{config}"],
    "verify-block": ["verify", "{rule}", "{shift3}"],
    "slider": ["automata", "inspect", "{rule}"],
    "sweeper": ["automata", "inspect", "--kind", "sweeper", "{rule}"],
}

BLOCK_COMMANDS = ("mealy", "sweep", "verify-block", "slider", "sweeper")

TINY_CASES = [
    (name, command) for name in TINY_RULES for command in TINY_COMMANDS
    if (command in BLOCK_COMMANDS) == (name == "block")
    and (command != "verify-exact" or TINY_RULES[name]["alphabet"] == 2)]


@pytest.mark.parametrize("name,command", TINY_CASES,
                         ids=[f"{n}-{c}" for n, c in TINY_CASES])
def test_tiny_rule_files_exit_on_a_cap_or_an_input_error(capsys, tmp_path,
                                                         name, command):
    paths = {}
    for key in (name, "shift3"):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(TINY_RULES[key]))
    config = write_config(tmp_path / "config.json",
                          EpConfig(3, (0,), (1, 2), 0, (0,)))
    argv = [arg.format(rule=paths[name], shift3=paths["shift3"],
                       out=tmp_path / "out", config=config)
            for arg in TINY_COMMANDS[command]]
    start = time.perf_counter()
    code, report, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert report is None
    if name in ("width", "block"):
        assert code == 2
        assert err.startswith("error: ")
        assert err.rstrip().endswith("entries, expected 3^100000000")
    else:
        assert code == 3
        assert err.startswith("resource cap exceeded: ")


def write_q4_radius_two_rule(tmp_path: Path) -> str:
    """x_0 + x_1 x_2 mod 4: left-closing at strong radius 4 = 2r, not
    right-closing; its stairs at m = 4 are over the default cap."""
    table = tuple((a + b * c) % 4
                  for a in range(4) for b in range(4) for c in range(4))
    path = tmp_path / "q4.json"
    path.write_text(json.dumps(LocalRule(4, 0, 3, table).to_json()))
    return str(path)


def test_closing_decides_a_q4_radius_two_rule(capsys, tmp_path):
    path = write_q4_radius_two_rule(tmp_path)
    code, report, _ = run(capsys, "closing", str(path))
    assert code == 1
    assert report["left"] == {"side": "left", "closed": True,
                              "strong_radius": 4}
    assert report["right"]["closed"] is False
    assert len(report["right"]["witness"]) == 2
    code, report, err = run(capsys, "analyze", str(path))
    assert code == 3 and report is None
    assert err.startswith("resource cap exceeded: stair bound 4^16")


def test_analyze_refuses_stairs_over_the_cap_before_the_right_side(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("casweep.cli.right_closing_decide", _raise_unexpected)
    code, report, err = run(capsys, "analyze",
                            write_q4_radius_two_rule(tmp_path))
    assert code == 3 and report is None
    assert err.startswith("resource cap exceeded: stair bound 4^16")


@pytest.mark.parametrize("command", ["analyze", "synthesize"])
def test_analysis_decides_the_left_side_once(capsys, monkeypatch, tmp_path,
                                             command):
    calls = []

    def counting(f):
        calls.append(f)
        return left_closing_decide(f)

    monkeypatch.setattr("casweep.cli.left_closing_decide", counting)
    monkeypatch.setattr("casweep.stairs.left_closing_decide", counting)
    argv = [command, data_file("ca102")]
    if command == "synthesize":
        argv.append(str(tmp_path / "chi.json"))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1


def test_closing_verdicts(capsys):
    code, report, _ = run(capsys, "closing", data_file("ca102"))
    assert code == 0
    assert report["biclosing"] is True
    code, report, _ = run(capsys, "closing", data_file("and_rule"))
    assert code == 1
    assert report["biclosing"] is False


# ---------------------------------------------------------------------------
# automata

def test_automata_inspect_swap_slider(capsys):
    code, report, _ = run(capsys, "automata", "inspect", data_file("swap"),
                          "--kind", "slider")
    assert code == 0
    assert report["states"] == 8
    assert report["edges"] == 24
    assert report["arity"] == 2


def test_automata_dump_round_trips(capsys, tmp_path):
    out = tmp_path / "auto.json"
    code, report, _ = run(capsys, "automata", "dump", data_file("swap"),
                          "--kind", "slider", "--out", str(out))
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["states"] == report["states"]
    assert blob["arity"] == 2
    assert all(len(edge) == 3 for edge in blob["edges"])
    labels = {word_of_index(e[1], blob["arity"], blob["alphabet"])
              for e in blob["edges"]}
    assert all(len(pair) == 2 for pair in labels)


def test_automata_member_pair(capsys, tmp_path):
    y = EpConfig(2, (0,), (1, 1, 0, 1), 0, (0,))
    z = apply_ep(builtin_rule("shift"), y)
    y_path = write_config(tmp_path / "y.json", y)
    code, report, _ = run(capsys, "automata", "member", data_file("swap"),
                          "--kind", "slider", "--input", y_path,
                          "--output", write_config(tmp_path / "z.json", z))
    assert code == 0 and report["member"] is True
    code, report, _ = run(capsys, "automata", "member", data_file("swap"),
                          "--kind", "slider", "--input", y_path,
                          "--output", y_path)
    assert code == 1 and report["member"] is False


def test_automata_empty_with_mismatch(capsys):
    code, report, _ = run(capsys, "automata", "empty", data_file("swap"),
                          "--kind", "slider", "--vs", data_file("shift"))
    assert code == 0
    assert report["empty"] is True
    code, report, _ = run(capsys, "automata", "empty", data_file("swap"),
                          "--kind", "slider", "--vs", data_file("identity"))
    assert code == 1
    assert report["empty"] is False
    assert set(report["witness"]) == {"input", "output"}
    witness_in = ep_from_json(report["witness"]["input"])
    witness_out = ep_from_json(report["witness"]["output"])
    shifted = apply_ep(builtin_rule("shift"), witness_in)
    assert ep_equal(shifted, witness_out)


def test_automata_vs_alphabet_mismatch(capsys):
    code, report, err = run(capsys, "automata", "empty",
                            data_file("not_closed"), "--kind", "slider",
                            "--vs", data_file("identity"))
    assert code == 2 and report is None
    assert err.splitlines()[-1].startswith("error:")


def test_automata_mismatch_kind(capsys, tmp_path):
    code, report, _ = run(capsys, "automata", "inspect",
                          data_file("identity"), "--kind", "mismatch")
    assert code == 0
    assert report["arity"] == 2
    code, report, _ = run(capsys, "automata", "inspect",
                          data_file("identity"), "--kind", "mismatch",
                          "--vs", data_file("shift"))
    assert code == 2


def test_automata_mismatch_is_capped_by_default(capsys, tmp_path):
    """x0 xor x11 (anchor 0) needs 1 + 2^11 * 2^11 mismatch states, over
    the default cap of 2^22: refused before it is built."""
    table = tuple((w >> 11) ^ (w & 1) for w in range(1 << 12))
    rule = tmp_path / "xor0_11.json"
    rule.write_text(json.dumps(LocalRule(2, 0, 12, table).to_json()))
    start = time.monotonic()
    code, report, err = run(capsys, "automata", "inspect", str(rule),
                            "--kind", "mismatch")
    assert time.monotonic() - start < 1
    assert code == 3 and report is None
    assert err.startswith("resource cap exceeded: mismatch automaton states")


def test_automata_resource_cap(capsys, tmp_path):
    out = str(tmp_path / "block.json")
    assert main(["synthesize", data_file("ca102"), out]) == 0
    capsys.readouterr()
    code, report, err = run(capsys, "automata", "inspect", out,
                            "--kind", "slider",
                            "--max-automaton-states", "100")
    assert code == 3
    assert report is None


def test_automata_vs_product_capped_before_it_is_built(capsys, tmp_path):
    """The slider automaton (512 live states) and the mismatch automaton
    (5 states) fit the cap, their 2,560 product nodes do not: refused
    before the product is allocated."""
    out = str(tmp_path / "block.json")
    assert main(["synthesize", data_file("ca102"), out]) == 0
    capsys.readouterr()
    start = time.monotonic()
    code, report, err = run(capsys, "automata", "inspect", out,
                            "--kind", "slider", "--vs", data_file("ca102"),
                            "--max-automaton-states", "1000")
    assert time.monotonic() - start < 2
    assert code == 3 and report is None
    assert "intersection product nodes" in err


AUTOMATA_CASES = [(block, None) for block in BUILTIN_BLOCK_RULES] + [
    (block, f) for block in BUILTIN_BLOCK_RULES for f in BUILTIN_RULES
    if builtin_block_rule(block).q == builtin_rule(f).q]


@pytest.mark.parametrize("block,vs", AUTOMATA_CASES)
def test_automata_empty_agrees_with_the_whole_slider_automaton(capsys, block,
                                                               vs):
    """`automata` builds the live slider states alone; its verdict, witness
    and exit code are those of the whole automaton."""
    argv = ["automata", "empty", data_file(block), "--kind", "slider"]
    whole = whole_slider_automaton(builtin_block_rule(block))
    if vs is not None:
        argv += ["--vs", data_file(vs)]
        whole = intersect(whole, graph_mismatch_automaton(builtin_rule(vs)))
    code, report, _ = run(capsys, *argv)
    assert report["empty"] is is_empty(whole)
    witness = nonempty_witness(whole)
    assert code == (0 if witness is None else 1)
    if witness is not None:
        wy, wz = ep_unzip(witness)
        assert report["witness"] == {"input": ep_to_json(wy),
                                     "output": ep_to_json(wz)}


def test_automata_of_a_synthesized_rule_builds_its_live_part(capsys,
                                                             tmp_path):
    """The synthesized shift rule against ca102: the intersection with the
    live slider states has 10,240 states (516,096 with all of them), and
    the witness is the one the whole automaton gave."""
    out = str(tmp_path / "block.json")
    assert main(["synthesize", data_file("shift"), out]) == 0
    capsys.readouterr()
    argv = [out, "--kind", "slider", "--vs", data_file("ca102")]
    code, report, _ = run(capsys, "automata", "inspect", *argv)
    assert code == 0
    assert report["states"] == 10240 and report["edges"] == 28672
    code, report, _ = run(capsys, "automata", "empty", *argv)
    assert code == 1 and report["empty"] is False
    assert report["witness"] == {
        "input": {"alphabet": 2, "left_period": [0, 0, 0, 0, 0, 0, 0, 1],
                  "center": [], "center_start": 0, "right_period": [0]},
        "output": {"alphabet": 2, "left_period": [0, 0, 0, 0, 0, 0, 1, 0],
                   "center": [], "center_start": 0, "right_period": [0]}}


# ---------------------------------------------------------------------------
# golden reports

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("golden_path",
                         sorted(GOLDEN_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_golden_report(capsys, golden_path):
    blob = json.loads(golden_path.read_text())
    data_dir = str(Path(data_file("identity")).parent)
    argv = [arg.replace("{DATA}", data_dir) for arg in blob["argv"]]
    code, report, _ = run(capsys, *argv)
    assert code == blob["exit_code"]
    assert report == blob["report"]


# ---------------------------------------------------------------------------
# error handling and entry points

def test_malformed_rule_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "not valid JSON" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_wrong_rule_kind(capsys):
    code, _, err = run(capsys, "mealy", data_file("and_rule"))
    assert code == 2
    assert "not a block rule" in err


def _raise_unexpected(*args, **kwargs):
    raise ZeroDivisionError("unexpected")


def assert_cannot_write(code, report, err):
    assert code == 2 and report is None
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write")


def test_synthesize_to_unwritable_path(capsys, tmp_path):
    out = tmp_path / "absent" / "out.json"
    assert_cannot_write(*run(capsys, "synthesize", data_file("ca102"),
                             str(out)))


def test_synthesize_checks_out_dir_before_any_work(capsys, monkeypatch,
                                                  tmp_path):
    monkeypatch.setattr("casweep.cli.slider_exists", _raise_unexpected)
    monkeypatch.setattr("casweep.cli.synthesize", _raise_unexpected)
    out = tmp_path / "absent" / "out.json"
    assert_cannot_write(*run(capsys, "synthesize", data_file("ca102"),
                             str(out)))
    assert_cannot_write(*run(capsys, "synthesize", data_file("ca102"),
                             str(tmp_path)))
    assert list(tmp_path.iterdir()) == []


def test_automata_dump_checks_out_dir_before_any_work(capsys, monkeypatch,
                                                     tmp_path):
    monkeypatch.setattr("casweep.cli.slider_relation_automaton",
                        _raise_unexpected)
    out = tmp_path / "absent" / "x.json"
    assert_cannot_write(*run(capsys, "automata", "dump", data_file("swap"),
                             "--kind", "slider", "--out", str(out)))
    assert_cannot_write(*run(capsys, "automata", "dump", data_file("swap"),
                             "--kind", "slider", "--out", str(tmp_path)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("below", [(), ("stages",)])
def test_decompose_checks_out_dir_before_any_work(capsys, monkeypatch,
                                                  tmp_path, below):
    monkeypatch.setattr("casweep.cli.decompose_biclosing", _raise_unexpected)
    monkeypatch.setattr("casweep.cli.verify_decomposition", _raise_unexpected)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert_cannot_write(*run(capsys, "decompose", data_file("ca102"),
                             str(taken.joinpath(*below))))
    assert list(tmp_path.iterdir()) == [taken]


def test_automata_dump_to_unwritable_path(capsys, tmp_path):
    out = tmp_path / "absent" / "x.json"
    assert_cannot_write(*run(capsys, "automata", "dump", data_file("swap"),
                             "--out", str(out)))


def test_decompose_into_existing_file(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert_cannot_write(*run(capsys, "decompose", data_file("ca102"),
                             str(taken)))


# every integer field of each input kind, with the command that loads it
LOADERS = {
    "local-rule": (["analyze"], "ca102"),
    "block-rule": (["mealy"], "swap"),
    "configuration": (["sweep", data_file("swap")], None),
}
INT_FIELDS = {
    "local-rule": ("alphabet", "anchor", "width", "table"),
    "block-rule": ("alphabet", "block_length", "table"),
    "configuration": ("alphabet", "left_period", "center", "center_start",
                      "right_period"),
}
LOADER_CASES = [(kind, key, bad) for kind, keys in INT_FIELDS.items()
                for key in keys for bad in (float, bool, str)]


@pytest.mark.parametrize("kind,key,bad", LOADER_CASES,
                         ids=[f"{kind}-{key}-{bad.__name__}"
                              for kind, key, bad in LOADER_CASES])
def test_loaders_refuse_non_integers(capsys, tmp_path, kind, key, bad):
    argv, name = LOADERS[kind]
    obj = (json.loads(Path(data_file(name)).read_text()) if name
           else ep_to_json(IMPULSE))
    if isinstance(obj[key], list):
        obj[key][-1] = bad(obj[key][-1])
    else:
        obj[key] = bad(obj[key])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, report, err = run(capsys, *argv, str(path))
    assert code == 2 and report is None
    assert err.startswith("error:") and repr(key) in err


# every symbol field of each input kind, with the size of its range:
# configuration cells and local rule outputs lie below q, block rule
# outputs below q^block_length
RANGE_FIELDS = {
    "local-rule": (("table",), lambda obj: obj["alphabet"]),
    "block-rule": (("table",), lambda obj: obj["alphabet"] ** obj["block_length"]),
    "configuration": (("left_period", "center", "right_period"),
                      lambda obj: obj["alphabet"]),
}
RANGE_CASES = [(kind, key, side) for kind, (keys, _) in RANGE_FIELDS.items()
               for key in keys for side in ("below", "above")]


@pytest.mark.parametrize("kind,key,side", RANGE_CASES,
                         ids=[f"{kind}-{key}-{side}"
                              for kind, key, side in RANGE_CASES])
def test_loaders_refuse_out_of_range_symbols(capsys, tmp_path, kind, key,
                                             side):
    argv, name = LOADERS[kind]
    obj = (json.loads(Path(data_file(name)).read_text()) if name
           else ep_to_json(IMPULSE))
    bad = -1 if side == "below" else RANGE_FIELDS[kind][1](obj)
    obj[key][-1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, report, err = run(capsys, *argv, str(path))
    assert code == 2 and report is None
    assert err.startswith("error:") and f" {bad} " in err


def test_fractional_alphabet_is_not_truncated(capsys, tmp_path):
    obj = json.loads(Path(data_file("ca102")).read_text())
    obj["alphabet"] = 2.7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "2.7" in err


@pytest.mark.parametrize("name,replacement", [
    ("is_slider_rule_for", lambda *args, **kwargs: False),
    ("slider_exists", _raise_unexpected),
], ids=["failed-self-check", "unexpected-exception"])
def test_internal_errors_exit_4(capsys, monkeypatch, tmp_path, name,
                                replacement):
    monkeypatch.setattr(f"casweep.cli.{name}", replacement)
    out = tmp_path / "chi.json"
    code, report, err = run(capsys, "synthesize", data_file("shift"), str(out))
    assert code == 4 and report is None
    assert err.splitlines()[-1].startswith("internal error:")
    assert not out.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "casweep", "analyze", data_file("ca102")],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == "casweep-report-v1"


BAD_COUNTS = [
    (["analyze", data_file("ca102")], "--max-psi"),
    (["synthesize", data_file("ca102"), "out.json"], "--max-psi"),
    (["synthesize", data_file("ca102"), "out.json"], "--max-automaton-states"),
    (["verify", data_file("swap"), data_file("shift")], "--samples"),
    (["verify", data_file("swap"), data_file("shift"), "--exact"],
     "--max-automaton-states"),
    (["sweep", data_file("swap"), data_file("shift")], "--trace"),
    (["mealy", data_file("swap")], "--max-automaton-states"),
    (["decompose", data_file("ca102"), "out"], "--samples"),
    (["automata", "inspect", data_file("swap")], "--max-automaton-states"),
]


@pytest.mark.parametrize("argv,option", BAD_COUNTS,
                         ids=[argv[0] + option for argv, option in BAD_COUNTS])
@pytest.mark.parametrize("value", ["-3", "0", "two"])
def test_counts_and_caps_must_be_positive(capsys, monkeypatch, tmp_path,
                                          argv, option, value):
    monkeypatch.chdir(tmp_path)     # output paths are relative
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and option in err


def test_cli_import_leaves_networkx_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import casweep.cli, sys; assert 'networkx' not in sys.modules"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "casweep", "bogus"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 2
