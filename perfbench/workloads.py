"""Workload definitions: generated inputs, CLI cases and their known answers.

A workload is a list of `Case`s.  Each case is one `casweep` command line
plus a check that compares the exit code and the JSON report against an
answer fixed in advance: a golden report from ``tests/golden`` where one
exists, otherwise the values frozen below.  Checks run in the benchmark
process and never import `casweep`, so a wrong program cannot vouch for its
own output.

Every input file is generated here (or, for block rules, by the prepare
step in `worker.py`) from the workload seed; the program only receives file
names.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# ---------------------------------------------------------------------------
# Known answers, frozen from the output of the code this benchmark was
# written against.  The ECA counts (22 left-closing, 14 closing on both
# sides, 6 sliders) match the census recorded in ROADMAP.md.

# Elementary CAs (Wolfram numbering, anchor -1, width 3).
ECA_LEFT_CLOSING = frozenset({
    15, 30, 45, 51, 60, 75, 85, 90, 102, 105, 120, 135, 150, 153, 165, 170,
    180, 195, 204, 210, 225, 240})
ECA_RIGHT_CLOSING = frozenset({
    15, 51, 60, 85, 86, 89, 90, 101, 102, 105, 106, 149, 150, 153, 154, 165,
    166, 169, 170, 195, 204, 240})
ECA_SLIDERS = frozenset({51, 85, 102, 153, 170, 204})

# Every synthesized q=2 rule used here has block length 3m + 1 = 7.
SYNTH_BLOCK_LENGTH = 7
SYNTH_STATES = 2 ** SYNTH_BLOCK_LENGTH

# decompose xor_left: sigma^1 right to left, then sigma o xor_left.
XOR_LEFT_DECOMPOSITION = {
    "biclosing": True,
    "shift_offset": 1,
    "stages": [{"block_length": 7, "direction": "RL"},
               {"block_length": 7, "direction": "LR"}],
    "verified": True,
}

# sample-q2 sizes: enough samples that one pass takes a few seconds and
# the seed-to-seed variation of the work averages out.  The negative verify
# finds a counterexample within its first three samples, but its sweeper
# agreement check runs until the first disagreement, which can take
# hundreds of samples: its sample count is kept small so that this
# seed-dependent tail stays a small share of the pass.
VERIFY_SAMPLES = 3000
NEGATIVE_VERIFY_SAMPLES = 100
DECOMPOSE_SAMPLES = 3000
SWEEP_CONFIGS = 300


# ---------------------------------------------------------------------------
# Cases

Check = Callable[[int, dict], "str | None"]


@dataclass
class Case:
    """One CLI invocation and the check of its outcome."""

    id: str
    argv: list[str]
    check: Check


@dataclass
class Plan:
    """Everything one workload needs: block rules to synthesize before the
    timed passes (rule file -> output file), and the cases of one pass."""

    synthesize: dict[str, str] = field(default_factory=dict)
    cases: list[Case] = field(default_factory=list)


def _expect(code: int, report: dict, exit_code: int, **fields) -> str | None:
    if code != exit_code:
        return f"exit code {code}, expected {exit_code}"
    for key, want in fields.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    return None


def golden_case(golden: Path, data_dir: Path) -> Case:
    """Replay a golden report: same exit code, identical report."""
    blob = json.loads(golden.read_text())
    argv = [arg.replace("{DATA}", str(data_dir)) for arg in blob["argv"]]

    def check(code: int, report: dict) -> str | None:
        if code != blob["exit_code"]:
            return f"exit code {code}, golden {blob['exit_code']}"
        if report != blob["report"]:
            return "report differs from golden"
        return None

    return Case(f"golden:{golden.stem}", argv, check)


def _golden_report(root: Path, name: str) -> dict:
    return json.loads((root / "tests" / "golden" / f"{name}.json").read_text())["report"]


# ---------------------------------------------------------------------------
# Independent evaluation of eventually periodic configurations (JSON form),
# used to re-validate sweep limits and counterexamples.

def _cell(x: dict, i: int) -> int:
    start = x["center_start"]
    end = start + len(x["center"])
    if i < start:
        left = x["left_period"]
        return left[(i - start) % len(left)]
    if i < end:
        return x["center"][i - start]
    right = x["right_period"]
    return right[(i - end) % len(right)]


def _image_cell(rule: dict, x: dict, i: int) -> int:
    idx = 0
    for c in range(i + rule["anchor"], i + rule["anchor"] + rule["width"]):
        idx = idx * rule["alphabet"] + _cell(x, c)
    return rule["table"][idx]


def _window(rule: dict, x: dict, z: dict) -> range:
    """Cells on which z = f(x) must be compared to decide it everywhere:
    beyond this window both sides repeat with period lcm of their tails."""
    left = math.lcm(len(x["left_period"]), len(z["left_period"]))
    right = math.lcm(len(x["right_period"]), len(z["right_period"]))
    reach = abs(rule["anchor"]) + rule["width"]
    lo = min(x["center_start"], z["center_start"]) - 2 * left - reach
    hi = max(x["center_start"] + len(x["center"]),
             z["center_start"] + len(z["center"])) + 2 * right + reach
    return range(lo, hi)


def is_image(rule: dict, x: dict, z: dict) -> bool:
    """Is z the image of x under the local rule (all three in JSON form)?"""
    return all(_cell(z, i) == _image_cell(rule, x, i)
               for i in _window(rule, x, z))


# ---------------------------------------------------------------------------
# Workloads

def _synth_check(analysis: dict, out: Path) -> Check:
    """synthesize: exit 0, analysis part equal to the analyze golden,
    block length 7, exact self-check, and a permutation written to out."""

    def check(code: int, report: dict) -> str | None:
        problem = _expect(code, report, 0, block_length=SYNTH_BLOCK_LENGTH,
                          self_check="exact")
        if problem:
            return problem
        extra = {"command", "block_length", "self_check", "out"}
        got = {k: v for k, v in report.items() if k not in extra}
        want = {k: v for k, v in analysis.items() if k != "command"}
        if got != want:
            return "analysis differs from the analyze golden"
        try:
            written = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            return f"cannot read synthesized rule: {exc}"
        if (written.get("block_length") != SYNTH_BLOCK_LENGTH
                or sorted(written.get("table", ())) != list(range(SYNTH_STATES))):
            return "synthesized rule is not a permutation of length 7"
        return None

    return check


def exact_q2(root: Path, work: Path, seed: int) -> Plan:
    data = root / "src" / "casweep" / "data"
    plan = Plan(synthesize={str(data / "identity.json"): str(work / "identity_block7.json")})
    for name in ("identity", "shift", "ca102"):
        out = work / f"synth_{name}.json"
        plan.cases.append(Case(
            f"synthesize:{name}",
            ["synthesize", str(data / f"{name}.json"), str(out)],
            _synth_check(_golden_report(root, f"analyze_{name}"), out)))
    want = {"schema": "casweep-report-v1", "command": "verify", "mode": "exact",
            "block_length": SYNTH_BLOCK_LENGTH, "verified": False}
    plan.cases.append(Case(
        "verify-exact:identity_block7-vs-shift",
        ["verify", str(work / "identity_block7.json"), str(data / "shift.json"), "--exact"],
        lambda code, report: _expect(code, report, 1) or
        (None if report == want else "report differs from expected")))
    return plan


def eca_rule(n: int) -> dict:
    """Elementary CA n: output bit k of n for neighborhood value k."""
    return {"alphabet": 2, "anchor": -1, "width": 3,
            "table": [(n >> k) & 1 for k in range(8)]}


def _eca_check(n: int) -> Check:
    left, right, slider = (n in ECA_LEFT_CLOSING, n in ECA_RIGHT_CLOSING,
                           n in ECA_SLIDERS)

    def check(code: int, report: dict) -> str | None:
        if code != (0 if slider else 1):
            return f"exit code {code} for ECA {n}"
        got = (report["left_closing"]["closed"], report["right_closing"]["closed"],
               report["slider"]["slider_exists"])
        if got != (left, right, slider):
            return f"ECA {n}: (left, right, slider) = {got}, expected {(left, right, slider)}"
        return None

    return check


def eca_cases(work: Path) -> list[Case]:
    cases = []
    for n in range(256):
        path = work / f"eca{n}.json"
        path.write_text(json.dumps(eca_rule(n)))
        cases.append(Case(f"analyze:eca{n}", ["analyze", str(path)], _eca_check(n)))
    return cases


def analyze_q6(root: Path, work: Path, seed: int) -> Plan:
    data = root / "src" / "casweep" / "data"
    rule = str(data / "sigma2_x_sigma3inv.json")
    analysis = _golden_report(root, "analyze_sigma2_x_sigma3inv")
    both = analysis["left_closing"]["closed"] and analysis["right_closing"]["closed"]
    plan = Plan()
    plan.cases.append(golden_case(root / "tests" / "golden" / "analyze_sigma2_x_sigma3inv.json", data))
    plan.cases.append(Case(
        "closing:sigma2_x_sigma3inv", ["closing", rule],
        lambda code, report: _expect(
            code, report, 0 if both else 1, left=analysis["left_closing"],
            right=analysis["right_closing"], biclosing=both)))
    plan.cases.extend(eca_cases(work))
    return plan


def random_config(rng: random.Random) -> dict:
    """Binary eventually periodic configuration with fixed shape."""
    bits = lambda n: [rng.randrange(2) for _ in range(n)]
    return {"alphabet": 2, "left_period": bits(3), "center": bits(6),
            "center_start": rng.randint(-3, 3), "right_period": bits(2)}


def _sweeper_check(rule: dict, x: dict) -> Check:
    def check(code: int, report: dict) -> str | None:
        outcome = report.get("outcome", {})
        if code != 0 or not outcome.get("converges"):
            return f"sweeper did not converge (exit {code})"
        if not is_image(rule, x, outcome["limit"]):
            return "sweeper limit is not the ca102 image"
        return None

    return check


def _negative_sample_check(rule: dict) -> Check:
    def check(code: int, report: dict) -> str | None:
        problem = _expect(code, report, 1, verified=False, slider_samples_ok=False)
        if problem:
            return problem
        cex = report.get("counterexample")
        if cex is None:
            return "negative verdict without a counterexample"
        if is_image(rule, cex["backward_limit"], cex["forward_limit"]):
            return "counterexample does not disagree with the rule"
        return None

    return check


def sample_q2(root: Path, work: Path, seed: int) -> Plan:
    data = root / "src" / "casweep" / "data"
    ca102 = json.loads((data / "ca102.json").read_text())
    rng = random.Random(seed)
    seeds = [str(rng.randrange(1 << 30)) for _ in range(3)]
    plan = Plan(synthesize={str(data / "ca102.json"): str(work / "ca102_block7.json"),
                            str(data / "shift.json"): str(work / "shift_block7.json")})
    plan.cases.append(Case(
        "verify-sample:ca102_block7-vs-ca102",
        ["verify", str(work / "ca102_block7.json"), str(data / "ca102.json"),
         "--samples", str(VERIFY_SAMPLES), "--seed", seeds[0]],
        lambda code, report: _expect(code, report, 0, verified=True,
                                     slider_samples_ok=True, sweeper_agreement=True)))
    plan.cases.append(Case(
        "verify-sample:shift_block7-vs-ca102",
        ["verify", str(work / "shift_block7.json"), str(data / "ca102.json"),
         "--samples", str(NEGATIVE_VERIFY_SAMPLES), "--seed", seeds[1]],
        _negative_sample_check(ca102)))
    plan.cases.append(Case(
        "decompose:xor_left",
        ["decompose", str(data / "xor_left.json"), str(work / "decompose_xor_left"),
         "--samples", str(DECOMPOSE_SAMPLES), "--seed", seeds[2]],
        lambda code, report: _expect(code, report, 0, **XOR_LEFT_DECOMPOSITION)))
    for k in range(SWEEP_CONFIGS):
        x = random_config(rng)
        path = work / f"config{k}.json"
        path.write_text(json.dumps(x))
        plan.cases.append(Case(
            f"sweep-sweeper:config{k}",
            ["sweep", str(work / "ca102_block7.json"), str(path), "--mode", "sweeper"],
            _sweeper_check(ca102, x)))
    return plan


def _all_good_check(code: int, report: dict) -> str | None:
    return _expect(code, report, 0, states=SYNTH_STATES, all_good=True,
                   good=list(range(SYNTH_STATES)), bad=[])


MEALY_GOLDENS = ("mealy_identity_block", "mealy_not_closed", "mealy_swap",
                 "mealy_xor_block")


def mealy_q2(root: Path, work: Path, seed: int) -> Plan:
    data = root / "src" / "casweep" / "data"
    plan = Plan()
    for name in MEALY_GOLDENS:
        plan.cases.append(golden_case(root / "tests" / "golden" / f"{name}.json", data))
    for name in ("shift", "ca102"):
        block = work / f"{name}_block7.json"
        plan.synthesize[str(data / f"{name}.json")] = str(block)
        plan.cases.append(Case(f"mealy:{name}_block7", ["mealy", str(block)],
                               _all_good_check))
    return plan


WORKLOADS: dict[str, Callable[[Path, Path, int], Plan]] = {
    "exact-q2": exact_q2,
    "analyze-q6": analyze_q6,
    "sample-q2": sample_q2,
    "mealy-q2": mealy_q2,
}
