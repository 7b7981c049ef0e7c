"""Workloads of the heatrect benchmark: candidate grids, seeded request
order, the request each grid point sends, and the reference check.

Every request is one grid point sent through heatrect's public API.  The
candidate grids are fixed here, not read from heatrect's scenario
defaults, so that a later change to those defaults cannot move the
benchmark's inputs.  ``refs/<workload>.json`` holds the reference row of
every candidate point; the worker reads its candidates from that file.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

WORKLOADS = ("bridge-driven", "bridge-static-dense", "sweep-small", "bridge-static")

# Tolerance rule for comparing a row with its reference value.  Floats
# agree when |got - ref| <= RTOL * |ref| + ATOL: RTOL admits float
# reassociation (a state-space reduction moved currents by 1.8e-10
# relative) with a wide margin, ATOL covers entries that are zero up to
# round-off.  Integers (converged block, blocks used), booleans and
# strings must match exactly, so a moved converged block is rejected.
RTOL = 1e-7
ATOL = 1e-12

BRIDGE_DRIVEN_TRUNCATION = 4   # d = 36, d^2 = 1296 on the driven trio
BRIDGE_STATIC_DENSE_TRUNCATION = 4  # d = 36, d^2 = 1296: dense-SVD direct route
BRIDGE_STATIC_TRUNCATION = 8   # d = 72, d^2 = 5184: sparse-LU direct route
BRIDGE_TEMPERATURES = (1.0, 0.1)


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    return [float(x) for x in np.geomspace(lo, hi, points)]


def candidate_points(workload: str) -> list[dict]:
    """The fixed candidate grid of a workload (used to build the references)."""
    if workload == "sweep-small":
        d2_parallel = _log_grid(50.0, 500.0, 40)
        ratio = 2.0 ** 0.1
        d2_series = sorted(set(
            _log_grid(50.0, 500.0, 40)
            + [c * f for c in (150.0, 300.0) for f in (1 / ratio, 1.0, ratio)]
            + [450.0]
        ))
        return (
            [{"scenario": "parallel-sweep", "delta_omega_d1": d1, "delta_omega_d2": d2}
             for d1 in (100.0, 200.0, 300.0) for d2 in d2_parallel]
            + [{"scenario": "series-sweep", "delta_omega_d1": d1, "delta_omega_d2": d2}
               for d1 in (100.0, 200.0, 300.0) for d2 in d2_series]
        )
    if workload == "bridge-driven":
        return [{"delta_omega": dw} for dw in _log_grid(50.0, 500.0, 40)]
    if workload in ("bridge-static", "bridge-static-dense"):
        return [{"delta_omega": dw, "gamma_dec": gd}
                for dw in (100.0, 200.0, 300.0) for gd in _log_grid(1e-4, 1e-1, 40)]
    raise ValueError(f"unknown workload {workload!r}")


def load_references(workload: str) -> list[dict]:
    """[{"point": ..., "row": ...}, ...] for every candidate point."""
    return json.loads((REFS_DIR / f"{workload}.json").read_text())["points"]


def request_order(workload: str, points: list[dict], seed: int):
    """Endless seeded sequence of indices into ``points``.

    Each round is a fresh seeded permutation of every group of points;
    sweep-small has two groups, parallel and series, and alternates them.
    """
    rng = random.Random(f"{workload}:{seed}")
    indices = list(range(len(points)))
    if workload == "sweep-small":
        groups = [[i for i in indices if points[i]["scenario"] == name]
                  for name in ("parallel-sweep", "series-sweep")]
    else:
        groups = [indices]
    while True:
        shuffled = [rng.sample(g, len(g)) for g in groups]
        for k in range(max(len(g) for g in shuffled)):
            yield from (g[k] for g in shuffled if k < len(g))


def import_heatrect(root: Path):
    """Import heatrect from ``root/src`` and nowhere else."""
    import importlib
    import sys

    src = (root / "src").resolve()
    if not (src / "heatrect" / "__init__.py").is_file():
        raise ImportError(f"no heatrect sources under {src}")
    sys.path.insert(0, str(src))
    module = importlib.import_module("heatrect")
    if not Path(module.__file__).resolve().is_relative_to(src):
        raise ImportError(f"heatrect was imported from {module.__file__}, not from {src}")
    return module


class Requests:
    """Sends workload requests through heatrect's public API."""

    def __init__(self, workload: str, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir

    def send(self, point: dict) -> dict:
        """One request: the result row of one grid point."""
        if self.workload == "sweep-small":
            return self._scenario_row(
                point["scenario"],
                {"delta_omega_d1": [point["delta_omega_d1"]],
                 "delta_omega_d2": [point["delta_omega_d2"]]},
                {},
            )
        if self.workload == "bridge-driven":
            return self._scenario_row(
                "bridge-anharmonicity",
                {"delta_omega": [point["delta_omega"]]},
                {"ho_truncation": BRIDGE_DRIVEN_TRUNCATION},
            )
        if self.workload == "bridge-static-dense":
            return self._static_bridge_row(
                point["delta_omega"], point["gamma_dec"], BRIDGE_STATIC_DENSE_TRUNCATION
            )
        return self._static_bridge_row(point["delta_omega"], point["gamma_dec"], BRIDGE_STATIC_TRUNCATION)

    def warm_up(self) -> dict:
        """One small request of the workload's kind (not counted)."""
        if self.workload == "sweep-small":
            return self._scenario_row(
                "series-sweep", {"delta_omega_d1": [100.0], "delta_omega_d2": [50.0]}, {}
            )
        if self.workload == "bridge-driven":
            return self._scenario_row("bridge-anharmonicity", {"delta_omega": [300.0]}, {"ho_truncation": 2})
        if self.workload == "bridge-static-dense":
            return self._static_bridge_row(300.0, 1e-3, 2)
        # N=6 gives d^2 = 2916, past the direct solver's dense/sparse switch like N=8
        return self._static_bridge_row(300.0, 1e-3, 6)

    def _scenario_row(self, name: str, axes: dict, circuit: dict) -> dict:
        from heatrect.scenarios import run_scenario

        config = {"name": name, "axes": axes}
        if circuit:
            config["circuit"] = circuit
        result = run_scenario(config, out_dir=self.out_dir)
        (row,) = result.rows
        return row

    @staticmethod
    def _static_bridge_row(delta_omega: float, gamma_dec: float, truncation: int) -> dict:
        """The README's library route on the static upper trio D1-M1-D2."""
        from heatrect import CircuitSpec, DensityMatrix, fidelity, mode_report, steady_state_direct
        from heatrect.lindblad import bridge_rate_tables, build_bridge_half_generators
        from heatrect.observables import net_bath_current_functional, thermal_state_matrix

        t_left, t_right = BRIDGE_TEMPERATURES
        spec = CircuitSpec.build(
            "bridge", T_left=t_left, T_right=t_right, delta_omega=delta_omega,
            gamma_dec=gamma_dec, ho_truncation=truncation,
        )
        upper, _ = build_bridge_half_generators(spec)
        rho = steady_state_direct(upper)
        rep = mode_report(rho, "M1")
        thermal = DensityMatrix.from_matrix(
            rep.reduced.layout, thermal_state_matrix(truncation, spec.left_bath.n)
        )
        row = {
            "delta_omega": delta_omega,
            "gamma_dec": gamma_dec,
            "nbar_m1": rep.mean_n,
            "temp_m1": rep.effective_T,
            "fid_left_m1": fidelity(thermal, rep.reduced),
            "current_upper_right": net_bath_current_functional(
                upper.layout, ["D2"], bridge_rate_tables(spec)
            ).value(rho),
        }
        for k in range(truncation):
            row[f"pop{k}_m1"] = float(rep.populations[k])
        return row


def _same(got, want) -> bool:
    if isinstance(want, (bool, str)) or want is None:
        return got == want and type(got) is type(want)
    if isinstance(want, int):
        return isinstance(got, (int, np.integer)) and not isinstance(got, bool) and int(got) == want
    try:
        got = float(got)
    except (TypeError, ValueError):
        return False
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= RTOL * abs(want) + ATOL


def row_problems(row: dict, ref: dict) -> list[str]:
    """Why a result row fails its point, or [] when it passes.

    A row fails if it is flagged ``converged=false`` or if any reference
    column is missing or outside the tolerance rule.  Columns the
    reference does not have are ignored.
    """
    problems = []
    if row.get("converged") is False:
        problems.append("converged=false")
    for key, want in ref.items():
        if key not in row:
            problems.append(f"{key}: missing")
        elif not _same(row[key], want):
            problems.append(f"{key}: got {row[key]!r}, reference {want!r}")
    return problems


def plain_row(row: dict) -> dict:
    """A result row with numpy scalars turned into JSON types."""
    out = {}
    for key, value in row.items():
        if isinstance(value, np.bool_):
            value = bool(value)
        elif isinstance(value, np.integer):
            value = int(value)
        elif isinstance(value, np.floating):
            value = float(value)
        out[key] = value
    return out
