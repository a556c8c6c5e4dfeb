"""Pinned `sweep` and sampled `verify` reports, byte for byte.

Each digest is the sha256 of the JSON list of ``[exit code, stdout]`` of
the CLI over 200 seeded configurations (`random_ep_config` with periods of
1-4, centers of 0-5 cells and center starts in -4..4):

- `sweep --mode sweeper` with the block-7 rule synthesized from `ca102`,
  and with a seeded non-bijective block-3 rule whose sweeps diverge on many
  draws, so the order of the two reported limits is pinned too;
- `sweep --mode slider` with the synthesized `ca102` rule and with a seeded
  block-3 permutation, at seeded anchors in -3..3.

`NEGATIVE_VERIFY` pins the counterexample reports of ``verify <rule
synthesized from shift> ca102.json --samples 100`` for seeds 0-3, and
`POSITIVE_VERIFY` the reports of ``verify <rule synthesized from ca102>
ca102.json --samples 300`` for seeds 0-3.  `DECOMPOSE` pins, for seeds 0-3,
the report of ``decompose xor_left.json --samples 300`` (its output
directory written as ``{OUT}``) and both stage files it writes; its first
stage sweeps right to left, so it checks the reversed sweeper path.

The `SWEEPS` and `NEGATIVE_VERIFY` digests were taken from the
cell-by-cell sweep engine, before windows were read as slices and each
sweeper limit was built once; `POSITIVE_VERIFY` and `DECOMPOSE` were taken
before `sweeper_eval` built only one limit per arrival window.
"""

import hashlib
import json
import random
from importlib import resources

import pytest

from casweep.blockrule import BlockRule
from casweep.ca import builtin_rule
from casweep.cli import main
from casweep.core import ep_to_json, random_ep_config
from casweep.synthesis import synthesize

CONFIGS = 200

SWEEPS = {
    "sweeper-ca102":
        "88f14b927cc8418d338498f4492908ebc3deeb73c185bbb40044d1632045a6a8",
    "sweeper-block3":
        "3265707c453c4e4fcd4a28d8dc6f1f277cc38fe1bacc5782a94c9c6c2fa12038",
    "slider-ca102":
        "794101e8a79494ad56966239ff0244315371bf82edb233ad4711922a8c5ab515",
    "slider-perm3":
        "47ee915f4aad470402196d0a3246b2083451dcdd3f8dcdbc85e537778ae89929",
}

NEGATIVE_VERIFY = \
    "6b4236c5966c0bab908475eeff5b5b759ac07b7f4be37ee280a2cdb43ad33df4"

POSITIVE_VERIFY = \
    "219791f0e1405acc7be3538a3fafe969b6056badae01646aa8584255c6604062"

DECOMPOSE = \
    "5e833a8e014d0576ce8d267badca351510d2b9fccdd4fa00dac1323313715698"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def block3_rule(bijective: bool) -> BlockRule:
    rng = random.Random(f"sweep-pins-{bijective}")
    table = (rng.sample(range(8), 8) if bijective
             else [rng.randrange(8) for _ in range(8)])
    return BlockRule(2, 3, tuple(table))


@pytest.fixture(scope="module")
def rule_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep_pins")
    rules = {"ca102": synthesize(builtin_rule("ca102")),
             "shift": synthesize(builtin_rule("shift")),
             "block3": block3_rule(False),
             "perm3": block3_rule(True)}
    paths = {}
    for name, rule in rules.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(rule.to_json()))
    rng = random.Random("sweep-pins-configs")
    paths["configs"] = []
    for k in range(CONFIGS):
        path = root / f"config{k}.json"
        x = random_ep_config(rng, 2, max_period=4, max_center=5, span=4)
        path.write_text(json.dumps(ep_to_json(x)))
        paths["configs"].append((path, rng.randint(-3, 3)))
    return paths


def cli_outputs(capsys, argvs) -> list:
    outputs = []
    for argv in argvs:
        code = main([str(arg) for arg in argv])
        outputs.append([code, capsys.readouterr().out])
    return outputs


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_reports_are_pinned(capsys, rule_files, case):
    mode, rule = case.split("-")
    argvs = []
    for path, anchor in rule_files["configs"]:
        argv = ["sweep", rule_files[rule], path, "--mode", mode]
        if mode == "slider":
            argv += ["--anchor", anchor]
        argvs.append(argv)
    outputs = cli_outputs(capsys, argvs)
    if rule == "block3":
        diverging = sum(code == 1 for code, _ in outputs)
        assert 20 <= diverging <= CONFIGS - 20
    else:
        assert all(code == 0 for code, _ in outputs)
    assert digest(outputs) == SWEEPS[case]


def test_negative_verify_reports_are_pinned(capsys, rule_files):
    ca102 = resources.files("casweep.data").joinpath("ca102.json")
    outputs = cli_outputs(capsys, [
        ["verify", rule_files["shift"], ca102,
         "--samples", 100, "--seed", seed] for seed in range(4)])
    assert all(code == 1 for code, _ in outputs)
    assert all('"counterexample"' in out for _, out in outputs)
    assert digest(outputs) == NEGATIVE_VERIFY


def test_positive_verify_reports_are_pinned(capsys, rule_files):
    ca102 = resources.files("casweep.data").joinpath("ca102.json")
    outputs = cli_outputs(capsys, [
        ["verify", rule_files["ca102"], ca102,
         "--samples", 300, "--seed", seed] for seed in range(4)])
    assert all(code == 0 for code, _ in outputs)
    assert digest(outputs) == POSITIVE_VERIFY


def test_decompose_reports_and_stages_are_pinned(capsys, tmp_path):
    xor_left = resources.files("casweep.data").joinpath("xor_left.json")
    outputs = []
    for seed in range(4):
        out = tmp_path / f"seed{seed}"
        [[code, report]] = cli_outputs(capsys, [
            ["decompose", xor_left, out, "--samples", 300, "--seed", seed]])
        stages = [(out / f"stage{k}.json").read_text() for k in (1, 2)]
        outputs.append([code, report.replace(str(out), "{OUT}"), *stages])
    assert all(code == 0 for code, *_ in outputs)
    assert digest(outputs) == DECOMPOSE
