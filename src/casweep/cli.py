"""Command line front end.

Every subcommand returns its exit code, its JSON report and its summary;
`main` alone prints them, the report to stdout and the summary to stderr.
Reports carry a fixed schema tag and the command's name, and are
serialized with sorted keys so they are stable under golden-file
comparison.

Exit codes: 0 for an affirmative verdict, 1 for a negative one, 2 for
usage or input errors, 3 when a resource cap was hit, 4 for an internal
error (a failed self-check or an unexpected exception), which is a bug in
casweep and no verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from .blockrule import (BlockRule, representation_eval, sweep_range,
                        sweeper_eval)
from .ca import LocalRule, apply_ep
from .closing import NotClosingError, left_closing_decide, right_closing_decide
from .core import (
    MAX_AUTOMATON_STATES,
    EpConfig,
    IntegrityError,
    ResourceCapError,
    check_cap,
    ep_equal,
    ep_from_json,
    ep_to_json,
    ep_unzip,
    ep_zip,
    ep_zip_layout,
    prime_factors,
    vp,
)
from .hierarchy import decompose_biclosing, verify_decomposition
from .mealy import check_good_states_cap, good_states, mealy_from_block
from .stairs import MAX_STAIR_BOUND, check_stair_cap, slider_exists
from .synthesis import synthesis_manifest, synthesize, verify_slider
from .zautomata import (
    ZAutomaton,
    graph_mismatch_automaton,
    intersect,
    is_slider_rule_for,
    member,
    nonempty_witness,
    slider_relation_automaton,
    sweeper_relation_automaton,
)

SCHEMA = "casweep-report-v1"

# cells `sweep` may build: each slider limit spans the anchor and the
# configuration's center, and each trace row moves the sweep on by one
# position and prints that span
SWEEP_CELLS_CAP = 1 << 18


class InputError(ValueError):
    """Bad file contents or arguments that violate a command precondition."""


# ---------------------------------------------------------------------------
# I/O helpers

def _load(path: str, parse, kind: str):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    try:
        return parse(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: not a {kind}: {exc}") from exc


def load_local_rule(path: str) -> LocalRule:
    return _load(path, LocalRule.from_json, "local rule")


def load_block_rule(path: str) -> BlockRule:
    return _load(path, BlockRule.from_json, "block rule")


def load_config(path: str) -> EpConfig:
    return _load(path, ep_from_json, "configuration")


def _dumps(obj: dict) -> str:
    """The one JSON form of reports and written files."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_json(path: str, obj: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_dumps(obj) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _check_out_dir(path: str) -> None:
    """Refuse an output path whose directory is missing, or that is itself
    a directory, before any work."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise InputError(f"cannot write {path}: {parent} is not a directory")
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: it is a directory")


def _check_dir_path(path: str) -> None:
    """Refuse a directory path that is, or lies under, an existing
    non-directory, before any work; the directory itself need not exist."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise InputError(f"cannot write {path}: {head} is not a directory")


# ---------------------------------------------------------------------------
# Subcommands: each returns (exit code, report, summary)

def _analysis_report(f, max_psi: int):
    left = left_closing_decide(f)
    if left:
        # stairs over the cap are refused before the right pair graph is built
        check_stair_cap(f.q, left.strong_radius, max_psi)
    # the right side before the stairs, so its scan never runs while they
    # are held
    right = right_closing_decide(f)
    verdict = slider_exists(f, cap=max_psi, left=left)
    report = {
        "rule": f.to_json(),
        "left_closing": verdict.left_closing.to_json(),
        "right_closing": right.to_json(),
        "slider": verdict.to_json(),
    }
    if verdict.left_closing:
        # slider_exists checks that every prime of lambda divides q
        report["lambda_valuations"] = {str(p): vp(verdict.lam, p)
                                       for p in prime_factors(f.q)}
        report["shift_offset"] = verdict.shift_offset
    return report, verdict


def cmd_analyze(args: argparse.Namespace) -> tuple[int, dict, str]:
    f = load_local_rule(args.rule)
    report, verdict = _analysis_report(f, args.max_psi)
    if verdict:
        return 0, report, f"slider exists at block length {3 * verdict.m + 1}"
    if not verdict.left_closing:
        return 1, report, "no slider: rule is not left-closing"
    primes = ", ".join(map(str, verdict.violating_primes))
    return 1, report, f"no slider: lambda has positive valuation at {primes}"


def cmd_synthesize(args: argparse.Namespace) -> tuple[int, dict, str]:
    f = load_local_rule(args.rule)
    _check_out_dir(args.out)
    report, verdict = _analysis_report(f, args.max_psi)
    if not verdict:
        return 1, report, "no slider exists for this rule"
    chi = synthesize(f, verdict)
    if not is_slider_rule_for(chi, f, max_states=args.max_automaton_states):
        raise IntegrityError("synthesized rule failed its own exact check")
    payload = chi.to_json()
    payload["manifest"] = synthesis_manifest(verdict.stairs)
    _write_json(args.out, payload)
    report["block_length"] = chi.block_length
    report["self_check"] = "exact"
    report["out"] = args.out
    return 0, report, f"wrote block rule of length {chi.block_length} to {args.out}"


def cmd_verify(args: argparse.Namespace) -> tuple[int, dict, str]:
    chi = load_block_rule(args.block)
    f = load_local_rule(args.rule)
    # the input faults; a ValueError from the checks below is a bug
    if chi.q != f.q:
        raise InputError("alphabet mismatch")
    if not chi.is_bijective():
        raise InputError("candidate block rule is not bijective")
    if args.exact:
        ok = is_slider_rule_for(chi, f, max_states=args.max_automaton_states)
        report = {
            "mode": "exact",
            "block_length": chi.block_length,
            "verified": ok,
        }
        if ok:
            return 0, report, "exact check passed"
        return 1, report, "exact check failed"
    result = verify_slider(chi, f, samples=args.samples, seed=args.seed)
    verified = result.ok and result.sweeper_agreement
    report = {
        "mode": "sample",
        "samples": args.samples,
        "seed": args.seed,
        "slider_samples_ok": result.ok,
        "sweeper_agreement": result.sweeper_agreement,
        "verified": verified,
    }
    if result.counterexample is not None:
        x, i, y, z = result.counterexample
        report["counterexample"] = {
            "input": ep_to_json(x),
            "anchor": i,
            "backward_limit": ep_to_json(y),
            "forward_limit": ep_to_json(z),
        }
    if verified:
        return 0, report, "sampling check passed"
    return 1, report, "sampling check failed"


def _trace_rows(chi: BlockRule, x: EpConfig, anchor: int, steps: int) -> list[str]:
    """The cells [anchor - 2, anchor + steps + m + 2) before each of the
    first `steps` positions of one sweep from the anchor, and after them."""
    lo, hi = anchor - 2, anchor + steps + chi.block_length + 2
    rows = ["".join(map(str, x.window(lo, hi)))]
    for p in range(anchor, anchor + steps):
        x = sweep_range(chi, x, p, p + 1)
        rows.append("".join(map(str, x.window(lo, hi))))
    return rows


def cmd_sweep(args: argparse.Namespace) -> tuple[int, dict, str]:
    chi = load_block_rule(args.block)
    x = load_config(args.config)
    if chi.q != x.q:
        raise InputError("block rule and configuration use different alphabets")
    if args.mode == "slider" and not chi.is_bijective():
        raise InputError("slider sweeps need a bijective block rule")
    lo = min(args.anchor - 2, x.center_start)
    hi = max(args.anchor + args.trace + chi.block_length + 2, x.center_end)
    rows = (args.trace + 1 if args.trace else 0) + (args.mode == "slider")
    # sweeper_eval searches one cycle per residue of the left period P, each
    # crossing at least one P-cell copy of it: P^2 cells at the least
    sweeps = len(x.left_period) ** 2 if args.mode == "sweeper" else 0
    check_cap((hi - lo) * rows + sweeps, SWEEP_CELLS_CAP, "sweep cells")
    report: dict = {
        "mode": args.mode,
        "anchor": args.anchor,
        "input": ep_to_json(x),
    }
    if args.trace:
        report["trace"] = _trace_rows(chi, x, args.anchor, args.trace)
    if args.mode == "slider":
        y, z = representation_eval(chi, x, args.anchor)
        report["backward_limit"] = ep_to_json(y)
        report["forward_limit"] = ep_to_json(z)
        code, summary = 0, "both limit sweeps converge"
    else:
        outcome = sweeper_eval(chi, x)
        report["outcome"] = outcome.to_json()
        code, summary = (0, "forward sweeps converge") if outcome.converges \
            else (1, "forward sweeps oscillate between two limits")
    # the trace grid goes to stderr above the summary
    return code, report, "\n".join([*report.get("trace", ()), summary])


def cmd_mealy(args: argparse.Namespace) -> tuple[int, dict, str]:
    chi = load_block_rule(args.block)
    check_good_states_cap(chi.q ** chi.block_length, args.max_automaton_states)
    machine = mealy_from_block(chi, cap=args.max_automaton_states)
    good = good_states(machine, cap=args.max_automaton_states)
    bad = sorted(set(range(machine.size)) - good)
    report = {
        "states": machine.size,
        "good": sorted(good),
        "bad": bad,
        "all_good": not bad,
    }
    return (1 if bad else 0), report, \
        f"{len(good)} of {machine.size} states are good"


def cmd_decompose(args: argparse.Namespace) -> tuple[int, dict, str]:
    f = load_local_rule(args.rule)
    _check_dir_path(args.out_dir)
    try:
        decomposition = decompose_biclosing(f)
    except NotClosingError as exc:
        report = {
            "rule": f.to_json(),
            "biclosing": False,
            "failing_side": exc.verdict.side,
            "witness": exc.verdict.to_json()["witness"],
        }
        return 1, report, str(exc)
    if not verify_decomposition(decomposition, samples=args.samples,
                                seed=args.seed):
        raise IntegrityError("decomposition failed its own sampled check")
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {args.out_dir}: {exc}") from exc
    stage_files = []
    for idx, stage in enumerate(decomposition.stages, start=1):
        name = f"stage{idx}.json"
        _write_json(os.path.join(args.out_dir, name), stage.rule.to_json())
        stage_files.append({"direction": stage.direction.value, "rule_file": name})
    _write_json(os.path.join(args.out_dir, "decomposition.json"),
                {"claimed_ca_file": os.path.relpath(args.rule, args.out_dir),
                 "stages": stage_files})
    report = {
        "rule": f.to_json(),
        "biclosing": True,
        "shift_offset": decomposition.shift_offset,
        "stages": [
            {"direction": stage.direction.value, "block_length": stage.rule.block_length}
            for stage in decomposition.stages
        ],
        "samples": args.samples,
        "seed": args.seed,
        "verified": True,
        "out_dir": args.out_dir,
    }
    return 0, report, "decomposition verified"


def cmd_closing(args: argparse.Namespace) -> tuple[int, dict, str]:
    f = load_local_rule(args.rule)
    left = left_closing_decide(f)
    right = right_closing_decide(f)
    report = {
        "rule": f.to_json(),
        "left": left.to_json(),
        "right": right.to_json(),
        "biclosing": bool(left) and bool(right),
    }
    sides = [side for side, v in (("left", left), ("right", right)) if v]
    return (0 if left and right else 1), report, \
        f"closing sides: {', '.join(sides) if sides else 'none'}"


def _build_automaton(args: argparse.Namespace
                     ) -> tuple[ZAutomaton, LocalRule | None]:
    """The automaton the arguments name, and the --vs rule or None."""
    if args.kind == "mismatch":
        if args.vs is not None:
            raise InputError("--vs only applies to slider and sweeper automata")
        return graph_mismatch_automaton(load_local_rule(args.source),
                                        args.max_automaton_states), None
    chi = load_block_rule(args.source)
    f = None if args.vs is None else load_local_rule(args.vs)
    if f is not None and f.q != chi.q:
        raise InputError("block rule and --vs rule use different alphabets")
    if args.kind == "slider":
        if not chi.is_bijective():
            raise InputError("slider relations need a bijective block rule")
        auto = slider_relation_automaton(
            chi, max_states=args.max_automaton_states)
    else:
        auto = sweeper_relation_automaton(
            chi, max_states=args.max_automaton_states)
    if f is not None:
        mismatch = graph_mismatch_automaton(f, args.max_automaton_states)
        auto = intersect(auto, mismatch, args.max_automaton_states)
    return auto, f


def cmd_automata(args: argparse.Namespace) -> tuple[int, dict, str]:
    if args.action == "dump":
        _check_out_dir(args.out)
    auto, f = _build_automaton(args)
    base = {
        "action": args.action,
        "kind": args.kind,
        "states": len(auto.states),
        "edges": len(auto.edges),
    }
    if args.action == "dump":
        _write_json(args.out, auto.to_json())
        base["out"] = args.out
        return 0, base, \
            f"wrote automaton with {len(auto.states)} states to {args.out}"
    if args.action == "inspect":
        base["initial"] = len(auto.initial)
        base["final"] = len(auto.final)
        base["alphabet"] = auto.q
        base["arity"] = auto.arity
        return 0, base, f"{len(auto.states)} states, {len(auto.edges)} edges"
    if args.action == "member":
        y = load_config(args.input)
        z = load_config(args.output)
        if y.q != z.q:
            raise InputError("alphabet mismatch in zip")
        if y.q * z.q != auto.label_count:
            raise InputError("word alphabet does not match the label space")
        cs, ce, lper, rper = ep_zip_layout(y, z)
        check_cap(ce - cs + lper + rper, args.max_automaton_states,
                  "member word cells")
        accepted = member(auto, ep_zip(y, z), args.max_automaton_states)
        base["member"] = accepted
        if accepted:
            return 0, base, "pair accepted"
        return 1, base, "pair rejected"
    witness = nonempty_witness(auto)
    empty = witness is None
    base["empty"] = empty
    if not empty:
        wy, wz = ep_unzip(witness)
        if f is not None and ep_equal(apply_ep(f, wy), wz):
            raise IntegrityError("witness pair agrees with the --vs rule")
        base["witness"] = {"input": ep_to_json(wy), "output": ep_to_json(wz)}
    if empty:
        return 0, base, "language is empty"
    return 1, base, "language is nonempty"


# ---------------------------------------------------------------------------
# Parser

def positive_int(text: str) -> int:
    """Argument type for counts and caps: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-automaton-states", type=positive_int,
                        default=MAX_AUTOMATON_STATES,
                        help="abort with exit code 3 beyond this many states")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="casweep",
        description="decide, synthesize, and verify single-sweep block "
                    "realizations of one-dimensional cellular automata")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closing structure and slider existence")
    p.add_argument("rule", help="local rule JSON file")
    p.add_argument("--max-psi", type=positive_int, default=MAX_STAIR_BOUND,
                   help="cap on the stair enumeration")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="build a block rule realizing the CA")
    p.add_argument("rule", help="local rule JSON file")
    p.add_argument("out", help="output block rule JSON file")
    p.add_argument("--max-psi", type=positive_int, default=MAX_STAIR_BOUND,
                   help="cap on the stair enumeration")
    _add_cap(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="check a block rule against a CA")
    p.add_argument("block", help="block rule JSON file")
    p.add_argument("rule", help="local rule JSON file")
    p.add_argument("--exact", action="store_true",
                   help="decide equality exactly instead of sampling")
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_cap(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run limit sweeps on a configuration")
    p.add_argument("block", help="block rule JSON file")
    p.add_argument("config", help="configuration JSON file")
    p.add_argument("--mode", choices=("slider", "sweeper"), default="slider")
    p.add_argument("--anchor", type=int, default=0)
    p.add_argument("--trace", type=positive_int, default=0, metavar="STEPS",
                   help="print the first STEPS partial sweeps as a grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mealy", help="classify sweep states as good or bad")
    p.add_argument("block", help="block rule JSON file")
    _add_cap(p)
    p.set_defaults(func=cmd_mealy)

    p = sub.add_parser("decompose", help="two-stage sweep factorization")
    p.add_argument("rule", help="local rule JSON file")
    p.add_argument("out_dir", help="directory for stage files")
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("closing", help="left and right closing verdicts")
    p.add_argument("rule", help="local rule JSON file")
    p.set_defaults(func=cmd_closing)

    p = sub.add_parser("automata", help="work with relation automata")
    p.add_argument("action", choices=("dump", "inspect", "member", "empty"))
    p.add_argument("--kind", choices=("slider", "sweeper", "mismatch"),
                   default="slider")
    p.add_argument("source", help="block rule file (slider, sweeper) or "
                                  "local rule file (mismatch)")
    p.add_argument("--vs", metavar="RULE", default=None,
                   help="intersect with the mismatch automaton of this CA")
    p.add_argument("--out", help="output file for dump")
    p.add_argument("--input", help="backward-limit configuration for member")
    p.add_argument("--output", help="forward-limit configuration for member")
    _add_cap(p)
    p.set_defaults(func=cmd_automata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "automata":
        if args.action == "dump" and not args.out:
            parser.error("dump requires --out")
        if args.action == "member" and not (args.input and args.output):
            parser.error("member requires --input and --output")
    try:
        code, report, summary = args.func(args)
        print(_dumps({"schema": SCHEMA, "command": args.command, **report}))
        print(summary, file=sys.stderr)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
