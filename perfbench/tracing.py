"""Spans around calls into heatrect's modules, recorded from benchmark code.

``install`` rebinds the public functions of each module (in every heatrect
module that imported them) to wrappers that record a span per call, and
the Liouvillian's superoperator properties to wrappers that record the
first access per generator.  heatrect itself is not modified.  Spans are
kept in memory; ``layer_metrics`` folds them into per-layer numbers and
``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> (module, public functions) whose calls it covers
LAYERS = {
    "scenarios": ("scenarios", ("run_scenario",)),
    "circuits.build": ("circuits", ("build_circuit", "build_bridge_halves")),
    "lindblad.assemble": ("lindblad", ("build_generator", "build_bridge_half_generators")),
    "spaces.embed": ("spaces", ("embed",)),
    "steady.averaged": ("steady", ("steady_state_averaged",)),
    "steady.direct": ("steady", ("steady_state_direct",)),
    "observables": ("observables", (
        "mode_report", "fidelity", "thermal_state_matrix",
        "markov_current_parallel", "markov_current_series", "bath_exchange_current",
        "emission_current_functional", "net_bath_current_functional", "bath_exchange_functional",
    )),
}
SUPEROP_PROPERTIES = ("static_superop", "drive_superops")

# per-layer metric -> span whose self time it reports
SELF_TIME_METRICS = {
    "scenarios.self_s": "scenarios",
    "circuits.build_s": "circuits.build",
    "lindblad.assemble_s": "lindblad.assemble",
    "lindblad.superop_s": "lindblad.superop",
    "spaces.embed_s": "spaces.embed",
    "steady.averaged_s": "steady.averaged",
    "steady.direct_s": "steady.direct",
    "observables.s": "observables",
}


class Tracer:
    """In-memory spans: name, start, end, parent span and request id."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._materialized: dict[str, list] = {name: [] for name in SUPEROP_PROPERTIES}

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list):
        record[2] = time.perf_counter()
        self._stack.pop()

    def finish_request(self):
        """Forget the generators whose superoperators this request built."""
        for seen in self._materialized.values():
            seen.clear()

    def bump_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def self_times(self) -> Counter:
        """Total self time per span name: duration minus direct children."""
        totals: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def dump(self, path: Path):
        keys = ("name", "start", "end", "parent", "request")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        record = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(record)
        if after is not None:
            after(args, out)
        return out

    return traced


def _superop_property(tracer: Tracer, prop_name: str, prop: property) -> property:
    seen = tracer._materialized[prop_name]

    def getter(self):
        if any(g is self for g in seen):
            return prop.fget(self)
        seen.append(self)
        record = tracer.begin("lindblad.superop")
        try:
            value = prop.fget(self)
        finally:
            tracer.end(record)
        if prop_name == "static_superop":
            nnz = value.nnz
            tracer.bump_max("lindblad.superop_dim", value.shape[0])
        else:
            nnz = sum(s.nnz for _, s in value)
        tracer.counts["lindblad.superop_nnz"] += nnz
        return value

    return property(getter, doc=prop.__doc__)


def install(tracer: Tracer):
    """Rebind heatrect's public functions to span-recording wrappers."""
    import heatrect

    counts = tracer.counts

    def after_embed(args, out):
        counts["spaces.embed_calls"] += 1

    def after_direct(args, out):
        counts["steady.direct_calls"] += 1
        tracer.bump_max("steady.direct_dim", args[0].dim ** 2)

    def after_averaged(args, result):
        counts["steady.blocks"] += result.blocks_used

    def after_scenario(args, result):
        counts["scenarios.bytes_written"] += sum(
            (Path(result.out_dir) / f).stat().st_size for f in result.files
        )

    hooks = {"spaces.embed": after_embed, "steady.direct": after_direct,
             "steady.averaged": after_averaged, "scenarios": after_scenario}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "heatrect" or name.startswith("heatrect."))]
    for span_name, (module_name, functions) in LAYERS.items():
        home = sys.modules.get(f"heatrect.{module_name}")
        for fn_name in functions:
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            traced = _wrap(tracer, span_name, original, hooks.get(span_name))
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, traced)

    _install_dense_work(tracer, sys.modules["heatrect.steady"])

    observables = sys.modules["heatrect.observables"]
    functional = getattr(observables, "CurrentFunctional", None)
    if functional is not None:
        functional.value = _wrap(tracer, "observables", functional.value)

    liouvillian = heatrect.Liouvillian
    for prop_name in SUPEROP_PROPERTIES:
        prop = liouvillian.__dict__.get(prop_name)
        if isinstance(prop, property):
            setattr(liouvillian, prop_name, _superop_property(tracer, prop_name, prop))


def squaring_matmuls(n_p: int, n_w: int) -> int:
    """Dense side x side products that ``_block_map_and_window_row`` forms
    for n_p units per block and n_w units per window (its bit walk)."""
    top, s_top = n_p.bit_length(), n_w.bit_length()
    count, have_w, have_p = 0, False, False
    for k in range(top):
        if (n_w >> k) & 1:
            count += 2 if have_w else 0
            have_w = True
        if (n_p >> k) & 1:
            count += 1 if have_p else 0
            have_p = True
        if k + 1 < top:
            count += 2 if k + 1 < s_top else 1
    return count


def _install_dense_work(tracer: Tracer, steady):
    """Count the computed (not measured) work of the compiled block map
    from the matrices its two dense kernels actually receive.

    ``_build_unit_map(l0, drives, c_row, grid)``: per RK4 step four
    right-hand sides, each a sparse-times-dense product per superoperator
    term (2 nnz side) plus the scale-and-add of each drive term
    (2 side^2), then about 15 side^2 of stage updates and the observable
    row.  ``_block_map_and_window_row(unit, c_avg, n_p, n_w)``: 2 side^3
    per dense product.  A kernel that is renamed or removed stops being
    counted, and its metrics read 0.
    """
    counts = tracer.counts
    build_unit_map = getattr(steady, "_build_unit_map", None)
    if build_unit_map is not None:
        @functools.wraps(build_unit_map)
        def traced_unit_map(l0, drives, c_row, grid):
            side = l0.shape[0]
            nnz = l0.nnz + sum(l1.nnz for _, l1 in drives)
            per_step = 4 * (2.0 * nnz * side + 2.0 * len(drives) * side * side) + 15.0 * side * side
            counts["steady.rk4_steps"] += grid.n_steps
            counts["steady.dense_gflop"] += grid.n_steps * per_step / 1e9
            return build_unit_map(l0, drives, c_row, grid)

        steady._build_unit_map = traced_unit_map
    block_map = getattr(steady, "_block_map_and_window_row", None)
    if block_map is not None:
        @functools.wraps(block_map)
        def traced_block_map(unit, c_avg, n_p, n_w):
            side = unit.shape[0]
            counts["steady.dense_gflop"] += squaring_matmuls(n_p, n_w) * 2.0 * side ** 3 / 1e9
            tracer.bump_max("averaged_side", side)
            return block_map(unit, c_avg, n_p, n_w)

        steady._block_map_and_window_row = traced_block_map


def dgemm_gflop_s(side: int, min_seconds: float = 0.3) -> float:
    """Median rate of a numpy float64 matmul of two side x side matrices."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((side, side))
    b = rng.standard_normal((side, side))
    a @ b
    rates = []
    started = time.perf_counter()
    while len(rates) < 5 or time.perf_counter() - started < min_seconds:
        t0 = time.perf_counter()
        a @ b
        rates.append(2.0 * side ** 3 / (time.perf_counter() - t0) / 1e9)
    rates.sort()
    return rates[len(rates) // 2]


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer metrics, per request where they accumulate."""
    selfs = tracer.self_times()
    out = {metric: selfs.get(span, 0.0) / requests for metric, span in SELF_TIME_METRICS.items()}
    for key in ("scenarios.bytes_written", "spaces.embed_calls", "lindblad.superop_nnz",
                "steady.blocks", "steady.rk4_steps", "steady.dense_gflop", "steady.direct_calls"):
        out[key] = tracer.counts.get(key, 0) / requests
    out["lindblad.superop_dim"] = tracer.maxima.get("lindblad.superop_dim", 0)
    out["steady.direct_dim"] = tracer.maxima.get("steady.direct_dim", 0)
    averaged_s = selfs.get("steady.averaged", 0.0)
    gflop = tracer.counts.get("steady.dense_gflop", 0.0)
    out["steady.gflop_per_s"] = gflop / averaged_s if averaged_s > 0 else 0.0
    side = tracer.maxima.get("averaged_side", 0)
    out["machine.dgemm_gflop_s"] = dgemm_gflop_s(side) if side else 0.0
    return out
