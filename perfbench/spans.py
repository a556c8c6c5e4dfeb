"""Tracing from outside the program: spans around public casweep functions.

`Tracer.install` rebinds each traced function's name in every loaded
``casweep.*`` module namespace that holds it, so calls through the CLI and
calls between modules both pass through the wrapper; the program's source
is not edited.  Per-cell helpers (``sweep_step``, ``word_index``,
``all_words``) are deliberately not traced: their call counts are in the
millions and the wrapper would dominate the time.

Each span is (name, start, end, parent span index, case id), kept in memory
and written out once at the end.  Start and end are readings of the
worker's clock, which excludes its host-speed samples; per-layer times are
scaled to reference seconds (`worker.HostSpeed`).  A layer's self time is
its span minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys

TIME_SUFFIXES = ("calls", "s", "self_s")


class Tracer:
    """Collects spans for one pass; see the module docstring.

    `metrics` are the per-layer metric names to report (those BENCHMARK.json
    declares, less ``trace.overhead``), and they alone decide what is
    traced: ``<layer>.<function>.{calls,s,self_s}`` wraps
    ``casweep.<layer>.<function>``, and a size counter wraps the function
    it is read from (`SIZES`).
    """

    def __init__(self, metrics, clock):
        self.metrics = list(metrics)
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent, case]
        self.case: str | None = None
        self._stack: list[int] = []
        # sizes recorded at call time: (metric name, value) per call
        self.sizes: list[tuple[str, int]] = []
        # call arguments whose sizes are derived after the pass, off the clock
        self.deferred: list[tuple[str, tuple, dict]] = []
        self.functions: dict[str, list[str]] = {}   # function -> its size metrics
        for metric in self.metrics:
            if metric in SIZES:
                self.functions.setdefault(SIZES[metric][0], []).append(metric)
                continue
            function, _, suffix = metric.rpartition(".")
            if suffix not in TIME_SUFFIXES:
                raise ValueError(f"unknown per-layer metric {metric!r}")
            self.functions.setdefault(function, [])

    def install(self) -> None:
        for function, size_metrics in self.functions.items():
            layer, name = function.split(".")
            original = getattr(sys.modules[f"casweep.{layer}"], name)
            wrapped = self._wrap(function, original, size_metrics)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "casweep" or mod_name.startswith("casweep.")) \
                        and getattr(mod, name, None) is original:
                    setattr(mod, name, wrapped)

    def _wrap(self, span_name: str, fn, size_metrics: list[str]):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.case]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for metric in size_metrics:
                if metric in DEFERRED:
                    self.deferred.append((metric, args, kwargs))
                else:
                    self.sizes.append((metric, SIZES[metric][1](args, kwargs, result)))
            return result

        return traced

    # -- results -----------------------------------------------------------

    def layer_metrics(self, scale: float) -> dict[str, float]:
        """The requested metrics: per-function calls, inclusive seconds and
        self seconds (times `scale`), and the size counters; 0 for a
        function not called."""
        out: dict[str, float] = dict.fromkeys(self.metrics, 0)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            took = (end - start) * scale
            values = {"calls": 1, "self_s": took - child_time[idx] * scale,
                      "s": 0 if self._nested_in_same(idx) else took}
            for suffix, value in values.items():
                if f"{name}.{suffix}" in out:
                    out[f"{name}.{suffix}"] += value
        for metric, value in self.sizes:
            _accumulate(out, metric, value)
        for metric, args, kwargs in self.deferred:
            _accumulate(out, metric, SIZES[metric][1](args, kwargs, None))
        return out

    def _nested_in_same(self, idx: int) -> bool:
        """Is this span inside another span of the same function?  Inclusive
        time counts only the outermost one, so recursion is not doubled."""
        name = self.spans[idx][0]
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans}, handle)


# ---------------------------------------------------------------------------
# Size counters.  Automaton sizes are read from the returned automaton and
# reported as the largest one built; the computed work counts (marked
# "computed" in NOTES.md) are derived from the call's arguments after the
# pass and summed over calls.

MAXIMA = {"zautomata.slider_states", "zautomata.slider_edges",
          "zautomata.trimmed_states"}


def _accumulate(out: dict, metric: str, value: int) -> None:
    if metric in MAXIMA:
        out[metric] = max(out[metric], value)
    else:
        out[metric] += value


def _radius(f) -> int:
    """Radius of the symmetric neighborhood the closing analysis uses."""
    from casweep.ca import minimize_neighborhood
    return max(minimize_neighborhood(f).radius, 1)


def _radius_words(args, kwargs, _) -> int:
    """Windows scanned by the strong-radius test: q^(2m+2r+1) when m >= 2r."""
    f, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
    r = _radius(f)
    return f.q ** (2 * m + 2 * r + 1) if m >= 2 * r else 0


def _pair_graph_vertices(args, kwargs, _) -> int:
    """Pairs of 2r-windows: q^(4r)."""
    return args[0].q ** (4 * _radius(args[0]))


def _stair_words(args, kwargs, _) -> int:
    """Assignments scanned by the stair enumeration: q^(3m+r)."""
    f, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
    return f.q ** (3 * m + _radius(f))


def _product_nodes(args, kwargs, _) -> int:
    """Nodes of good_states' product graph: Q(Q+1)."""
    return args[0].size * (args[0].size + 1)


# size metric -> (traced function it is read from, value of one call)
SIZES = {
    "zautomata.slider_states": ("zautomata.slider_relation_automaton",
                                lambda args, kwargs, auto: len(auto.states)),
    "zautomata.slider_edges": ("zautomata.slider_relation_automaton",
                               lambda args, kwargs, auto: len(auto.edges)),
    "zautomata.trimmed_states": ("zautomata.trim",
                                 lambda args, kwargs, auto: len(auto.states)),
    "closing.radius_words": ("closing.is_strong_left_closing_radius", _radius_words),
    "closing.pair_graph_vertices": ("closing.left_closing_decide", _pair_graph_vertices),
    "stairs.words_scanned": ("stairs.enumerate_stairs", _stair_words),
    "mealy.good_states.product_nodes": ("mealy.good_states", _product_nodes),
}
DEFERRED = {"closing.radius_words", "closing.pair_graph_vertices",
            "stairs.words_scanned"}
