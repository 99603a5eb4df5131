"""Tracing the layers from outside the program.

The tracer patches each layer's public functions at the name their caller
looks up (for example `lbfrechet.cli.decide_lb` and
`lbfrechet.lower_bound._mm_h_r`) and restores them afterwards; `src/` is
never edited.  Two kinds of wrapper:

- spanned functions record a span (name, start, end, parent, operation id)
  in flat arrays that stay in memory until the run writes them out;
- counted functions are the per-cell kernels, which run in well under a
  microsecond: a span each would cost more than the call, so they only
  count calls and empty (None) results and keep a bounded, evenly strided
  sample of their arguments.  `replay_ns` times that sample in a loop.

A span name is "<layer>.<function>"; the layer is charged with the span's
self time, which is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array

LAYERS = (
    "model", "regions", "lower_bound", "precise",
    "weak_uncertain", "oracle", "reductions", "cli",
)

# (module whose global the caller reads, attribute, span name)
SPANNED = (
    ("lbfrechet.cli", "load_curve", "model.load_curve"),
    ("lbfrechet.cli", "parse_dimacs", "reductions.parse_dimacs"),
    ("lbfrechet.cli", "decide_lb", "lower_bound.decide_lb"),
    ("lbfrechet.cli", "extract_witness", "lower_bound.extract_witness"),
    ("lbfrechet.cli", "compute_lb", "lower_bound.compute_lb"),
    ("lbfrechet.lower_bound", "decide_lb", "lower_bound.decide_lb"),
    # extract_witness imports it at call time; frechet_value calls it too
    ("lbfrechet.precise", "frechet_decide", "precise.frechet_decide"),
    ("lbfrechet.oracle", "frechet_value", "precise.frechet_value"),
    ("lbfrechet.oracle", "discrete_frechet", "precise.discrete_frechet"),
    ("lbfrechet.oracle", "weak_frechet_1d", "precise.weak_frechet_1d"),
    ("lbfrechet.oracle", "discrete_weak", "precise.discrete_weak"),
    ("lbfrechet.reductions", "frechet_value", "precise.frechet_value"),
    ("lbfrechet.reductions", "discrete_frechet", "precise.discrete_frechet"),
    ("lbfrechet.cli", "bound_oracle", "oracle.bound_oracle"),
    ("lbfrechet.reductions", "bound_oracle", "oracle.bound_oracle"),
    ("lbfrechet.reductions", "enumerate_realisations", "oracle.enumerate_realisations"),
    ("lbfrechet.cli", "wfr_min_value", "weak_uncertain.wfr_min_value"),
    ("lbfrechet.weak_uncertain", "wfr_min_decide", "weak_uncertain.wfr_min_decide"),
    ("lbfrechet.weak_uncertain", "candidate_deltas", "weak_uncertain.candidate_deltas"),
    ("lbfrechet.weak_uncertain", "candidate_positions", "weak_uncertain.candidate_positions"),
    ("lbfrechet.weak_uncertain", "_weak_dp", "weak_uncertain._weak_dp"),
    ("lbfrechet.cli", "build_ub_sat", "reductions.build_ub_sat"),
    ("lbfrechet.cli", "build_weak_discrete_indecisive", "reductions.build_weak_discrete_indecisive"),
    ("lbfrechet.cli", "build_weak_discrete_imprecise", "reductions.build_weak_discrete_imprecise"),
    ("lbfrechet.reductions", "build_ub_sat", "reductions.build_ub_sat"),
    ("lbfrechet.cli", "verify_reduction", "reductions.verify_reduction"),
    ("lbfrechet.reductions", "satisfiable", "reductions.satisfiable"),
)

# Spans whose arguments (or a digest of the result) the metrics need.
KEPT = {
    "lower_bound.decide_lb": lambda args, kwargs, result: (args, kwargs),
    "oracle.bound_oracle": lambda args, kwargs, result: (args, kwargs),
    "weak_uncertain.candidate_deltas": lambda args, kwargs, result: len(result),
    "weak_uncertain.wfr_min_value": lambda args, kwargs, result: (args, result),
}

KERNELS = ("_mm_h_r", "_mm_h_l", "_mm_h_u", "_mm_h_d", "_mm_q_ru", "_mm_q_lu", "_mm_q_rd", "_mm_q_ld")
CLEANUPS = ("_two", "_three", "_reduce")

# All read from lower_bound's globals, where the sweep looks them up.
COUNTED = tuple(
    ("lbfrechet.lower_bound", fn, f"regions.{fn}")
    for fn in KERNELS + ("close_bounds", "meet_bounds", "mink_bounds", "normalize_pieces", "bounds_lexmin")
) + tuple(("lbfrechet.lower_bound", fn, f"lower_bound.{fn}") for fn in CLEANUPS)

SAMPLE_CAP = 2048


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.kept: dict[int, object] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.counters: dict[str, object] = {}
        self.originals: dict[str, object] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.op.append(self.op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        tracer = self
        keep = KEPT.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if keep is not None:
                tracer.kept[idx] = keep(args, kwargs, result)
            return result

        return wrapper

    def install(self, counters: bool) -> None:
        """Patch every spanned function, and the counted ones if asked."""
        targets = [(m, a, n, self._spanned) for m, a, n in SPANNED]
        if counters:
            targets += [(m, a, n, self._counted) for m, a, n in COUNTED]
        for module_name, attr, name, make in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.originals.setdefault(name, original)
            self._patched.append((module, attr, original))
            setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _counted(self, name: str, fn):
        calls = 0
        empties = 0
        stride = 1
        samples: list = []

        def wrapper(*args):
            nonlocal calls, empties, stride
            calls += 1
            if calls % stride == 0:
                samples.append(args)
                if len(samples) >= SAMPLE_CAP:
                    del samples[::2]
                    stride *= 2
            result = fn(*args)
            if result is None:
                empties += 1
            return result

        self.counters[name] = lambda: (calls, empties, samples)
        return wrapper

    def count(self, name: str) -> tuple:
        """(calls, empty results, argument sample) of a counted function."""
        get = self.counters.get(name)
        return get() if get is not None else (0, 0, [])

    def spans(self):
        """(name, op, parent, start, end) per span, in opening order."""
        names = self.names
        return [
            (names[self.name[i]], self.op[i], self.parent[i], self.start[i], self.end[i])
            for i in range(len(self.start))
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\top\tparent\tstart_ns\tend_ns\n")
            for i, (name, op, parent, start, end) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{op}\t{parent}\t{start}\t{end}\n")


def self_times(parent, start, end) -> list:
    """Self time of every span: its duration minus its children's."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_self_ns(names, parent, start, end) -> dict:
    """Self time summed per layer."""
    out = {layer: 0 for layer in LAYERS}
    for name, own in zip(names, self_times(parent, start, end)):
        layer = layer_of(name)
        out[layer] = out.get(layer, 0) + own
    return out


def replay_ns(fn, samples, repeats: int = 7) -> float:
    """Median ns per call of fn over its captured arguments, net of the
    bare loop."""
    if not samples:
        return 0.0
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for args in samples:
            fn(*args)
        t1 = time.perf_counter_ns()
        for args in samples:
            pass
        t2 = time.perf_counter_ns()
        per_call.append(((t1 - t0) - (t2 - t1)) / len(samples))
    return statistics.median(per_call)
