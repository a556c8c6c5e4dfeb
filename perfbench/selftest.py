"""Quick self-test of the benchmark (about half a minute).

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs only the cheap cases, untraced and traced: the golden reports of the
bundled rules and block rules (every analyze, closing and mealy golden
except the slow q=6 analyze) and the 256-rule ECA census.  Asserts that
every case passes its check, that BENCHMARK.json declares exactly the
metric names below, and that each is emitted with its declared unit.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import (ECA_LEFT_CLOSING, ECA_RIGHT_CLOSING, ECA_SLIDERS,
                       Plan, golden_case)

# The metric names are fixed from the benchmark's first version on.
END_TO_END = ("run_s", "cpu_s", "case_s.max", "peak_rss_mb", "setup_s")
PER_LAYER = (
    "zautomata.is_slider_rule_for.calls", "zautomata.is_slider_rule_for.s",
    "zautomata.is_slider_rule_for.self_s", "zautomata.slider_relation_automaton.s",
    "zautomata.slider_states", "zautomata.slider_edges",
    "zautomata.graph_mismatch_automaton.s", "zautomata.trim.calls",
    "zautomata.trim.s", "zautomata.trimmed_states",
    "closing.left_closing_decide.calls", "closing.left_closing_decide.self_s",
    "closing.is_strong_left_closing_radius.calls",
    "closing.is_strong_left_closing_radius.s", "closing.radius_words",
    "closing.pair_graph_vertices",
    "stairs.enumerate_stairs.calls", "stairs.enumerate_stairs.s",
    "stairs.slider_exists.calls", "stairs.words_scanned",
    "synthesis.synthesize.calls", "synthesis.synthesize.self_s",
    "synthesis.stair_index.calls", "synthesis.verify_slider.s",
    "mealy.good_states.s", "mealy.mealy_from_block.s",
    "mealy.good_states.product_nodes", "mealy.sweeper_eval.calls",
    "mealy.sweeper_eval.s",
    "blockrule.representation_eval.calls", "blockrule.representation_eval.s",
    "ca.apply_ep.calls", "ca.apply_ep.s",
    "hierarchy.decompose_biclosing.self_s", "hierarchy.verify_decomposition.self_s",
    "cli.main.self_s", "trace.overhead",
)


def cheap_goldens(plan: Plan) -> list:
    golden_dir = run.ROOT / "tests" / "golden"
    data = run.ROOT / "src" / "casweep" / "data"
    cases = [golden_case(path, data) for path in sorted(golden_dir.glob("*.json"))
             if path.stem.split("_")[0] in ("analyze", "closing", "mealy")
             and path.stem != "analyze_sigma2_x_sigma3inv"]
    return cases + [c for c in plan.cases if c.id.startswith("analyze:eca")]


def main() -> int:
    assert len(ECA_LEFT_CLOSING) == 22
    assert len(ECA_LEFT_CLOSING & ECA_RIGHT_CLOSING) == 14
    assert ECA_SLIDERS == {51, 85, 102, 153, 170, 204}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key, names in ((False, "end_to_end", END_TO_END),
                              (True, "per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert sorted(declared) == sorted(names), f"{key} names differ"
        result = run.measure("analyze-q6", seed=0, seconds=0, trace=trace,
                             pick=cheap_goldens)
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 256 + 12, result["attempted"]
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared, f"{key}: emitted {emitted}"
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        print(f"{key}: {len(emitted)} metrics, {result['attempted']} cases checked")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
