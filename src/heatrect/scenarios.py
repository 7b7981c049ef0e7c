"""Configuration-driven parameter sweeps with CSV output.

A scenario is fully determined by one JSON config (see ``default_config``
for the built-in ones).  Sweeps run over explicit parameter grids, one row
per grid point in deterministic order; rows are computed independently
(optionally by a thread pool) and written as CSV with 12 significant
digits, plus a ``metadata.json`` with every resolved parameter.  Optional
quick-look SVG plots never participate in golden comparisons.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import CircuitSpec, RateMode
from .lindblad import (
    RateTable,
    bridge_rate_tables,
    build_bridge_half_generators,
    build_generator,
    qutrit_rate_table,
    single_qutrit_rate_generator,
)
from .observables import (
    BiasSetting,
    CurrentReport,
    bath_exchange_functional,
    emission_current_functional,
    fidelity,
    markov_current_parallel,
    mode_report,
    net_bath_current_functional,
    thermal_state_matrix,
)
from .spaces import DensityMatrix, projector
from .steady import (
    ConvergenceError,
    ConvergenceProtocol,
    EvolutionResult,
    steady_state_averaged,
    steady_state_direct,
)

OUTPUT_DIR_ENV = "HEATRECT_OUT_DIR"

SCENARIO_SUMMARIES = {
    "parallel-sweep": "two diodes in parallel: currents and rectification over both anharmonicities",
    "series-sweep": "two diodes in series: currents, rectification, and ground-state populations",
    "bridge-anharmonicity": "bridge rectifier: output temperatures and fidelities vs anharmonicity",
    "bridge-decoherence": "bridge rectifier: output temperatures and fidelities vs decoherence rate",
    "convergence-study": "block-averaged current convergence of the series and bridge circuits",
    "single-diode-validation": "full three-mode diode model against the reduced rate model",
}

SCENARIO_NAMES = tuple(SCENARIO_SUMMARIES)


class ConfigError(ValueError):
    """Invalid scenario config; ``path`` points at the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    return [float(x) for x in np.geomspace(lo, hi, points)]


def _series_default_grid() -> list[float]:
    # figure-style log grid, refined so the resonance dips at half and full
    # delta_omega_D1 are bracketed by neighbors one tenth of an octave away
    ratio = 2.0 ** 0.1
    extra = []
    for center in (150.0, 300.0):
        extra += [center / ratio, center, center * ratio]
    grid = sorted(set(_log_grid(50.0, 500.0, 40) + extra + [450.0]))
    return grid


def default_config(name: str) -> dict:
    """Fully explicit default config of a built-in scenario."""
    if name not in SCENARIO_NAMES:
        raise ConfigError("name", f"unknown scenario {name!r}; known: {list(SCENARIO_NAMES)}")
    base = {
        "name": name,
        "threads": 1,
        "plot": False,
        "circuit": {
            "Gamma": 10.0,
            "J": 1.0,
            "J_prime": 0.5,
            "ho_truncation": 8,
            "gamma_dec": 1e-3,
            "bridge_rate_mode": "physical-modulated",
        },
        "protocol": {
            "block_length": 5000.0,
            "average_window": 1000.0,
            "rel_tol": 1e-4,
            "max_blocks": 40,
        },
    }
    if name == "parallel-sweep":
        base["bias"] = {"forward": [0.5, 0.0], "reverse": [0.0, 0.5]}
        base["axes"] = {
            "delta_omega_d1": [100.0, 200.0, 300.0],
            "delta_omega_d2": {"log_range": [50.0, 500.0], "points": 40},
        }
    elif name == "series-sweep":
        base["bias"] = {"forward": [0.5, 0.0], "reverse": [0.0, 0.5]}
        base["axes"] = {
            "delta_omega_d1": [100.0, 200.0, 300.0],
            "delta_omega_d2": _series_default_grid(),
        }
    elif name == "bridge-anharmonicity":
        base["bias"] = {"temperatures": [1.0, 0.1]}
        base["axes"] = {"delta_omega": {"log_range": [50.0, 500.0], "points": 40}}
    elif name == "bridge-decoherence":
        base["bias"] = {"temperatures": [1.0, 0.1]}
        base["axes"] = {
            "delta_omega": [100.0, 200.0, 300.0],
            "gamma_dec": {"log_range": [1e-4, 1e-1], "points": 40},
        }
    elif name == "convergence-study":
        base["bias"] = {"forward": [0.5, 0.0], "reverse": [0.0, 0.5], "temperatures": [1.0, 0.1]}
        base["series_point"] = {"delta_omega_d1": 300.0, "delta_omega_d2": 450.0}
        base["bridge_point"] = {"delta_omega": 300.0}
        base["trajectory_points_per_block"] = 50
    else:  # single-diode-validation
        base["bias"] = {"forward": [0.5, 0.0], "reverse": [0.0, 0.5], "equilibrium": [0.5, 0.5]}
        base["circuit"]["Gamma"] = 20.0
        base["circuit"]["ho_truncation"] = 4
        base["delta_omega"] = 300.0
    return base


def load_config(source) -> dict:
    """Config from a dict, a JSON file path, or a built-in scenario name."""
    if isinstance(source, dict):
        return json.loads(json.dumps(source))
    source = str(source)
    if source in SCENARIO_NAMES:
        return default_config(source)
    path = Path(source)
    if not path.exists():
        raise ConfigError("(file)", f"no such config file or built-in scenario: {source!r}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError("(file)", f"config is not valid JSON: {err}") from err


def _axis_bounds(raw, path: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(path, f"need [lo, hi] ({err})") from err
    return lo, hi


def _axis_values(raw, path: str) -> list[float]:
    if isinstance(raw, (list, tuple)):
        if not raw:
            raise ConfigError(path, "axis grid is empty")
        try:
            return [float(x) for x in raw]
        except (TypeError, ValueError) as err:
            raise ConfigError(path, f"axis entries must be numbers ({err})") from err
    if isinstance(raw, dict):
        points = raw.get("points")
        if not isinstance(points, int) or points < 1:
            raise ConfigError(f"{path}.points", "need a positive integer point count")
        if "log_range" in raw:
            lo, hi = _axis_bounds(raw["log_range"], f"{path}.log_range")
            if not 0 < lo < hi:
                raise ConfigError(f"{path}.log_range", "need 0 < lo < hi")
            return _log_grid(lo, hi, points)
        if "range" in raw:
            lo, hi = _axis_bounds(raw["range"], f"{path}.range")
            return [float(x) for x in np.linspace(lo, hi, points)]
        raise ConfigError(path, "axis dict needs 'log_range' or 'range'")
    raise ConfigError(path, f"cannot interpret axis value {raw!r}")


@dataclass
class ResolvedConfig:
    name: str
    circuit: dict
    protocol: ConvergenceProtocol
    axes: dict[str, list[float]]
    biases: dict[str, BiasSetting]
    threads: int
    plot: bool
    extras: dict


def validate_config(cfg: dict) -> ResolvedConfig:
    if not isinstance(cfg, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    name = cfg.get("name")
    if name not in SCENARIO_NAMES:
        raise ConfigError("name", f"unknown scenario {name!r}; known: {list(SCENARIO_NAMES)}")
    defaults = default_config(name)

    circuit = dict(defaults["circuit"])
    circuit.update(cfg.get("circuit", {}) or {})
    for key in circuit:
        if key not in defaults["circuit"]:
            raise ConfigError(f"circuit.{key}", "unknown circuit parameter")
    try:
        RateMode(circuit["bridge_rate_mode"])
    except ValueError as err:
        raise ConfigError("circuit.bridge_rate_mode", str(err)) from err

    proto_cfg = dict(defaults["protocol"])
    proto_cfg.update(cfg.get("protocol", {}) or {})
    try:
        protocol = ConvergenceProtocol(**proto_cfg)
    except (TypeError, ValueError) as err:
        raise ConfigError("protocol", str(err)) from err

    axes: dict[str, list[float]] = {}
    axes_cfg = cfg.get("axes", defaults.get("axes", {})) or {}
    known_axes = set(defaults.get("axes", {}))
    for key, raw in axes_cfg.items():
        if key not in known_axes:
            raise ConfigError(f"axes.{key}", f"scenario {name!r} supports axes {sorted(known_axes)}")
        axes[key] = _axis_values(raw, f"axes.{key}")
    for key in known_axes - set(axes):
        axes[key] = _axis_values(defaults["axes"][key], f"axes.{key}")

    bias_cfg = dict(defaults["bias"])
    bias_cfg.update(cfg.get("bias", {}) or {})
    biases: dict[str, BiasSetting] = {}
    for label, raw in bias_cfg.items():
        if label == "temperatures":
            try:
                t_left, t_right = (float(x) for x in raw)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"bias.{label}", f"need [T_left, T_right] ({err})") from err
            biases["temperatures"] = BiasSetting.from_temperatures("forward", t_left, t_right)
        else:
            try:
                n_left, n_right = (float(x) for x in raw)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"bias.{label}", f"need [n_left, n_right] ({err})") from err
            biases[label] = BiasSetting(label, n_left, n_right)

    threads = cfg.get("threads", defaults["threads"])
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError("threads", "need a positive integer")

    extras = {}
    for key in ("series_point", "bridge_point", "trajectory_points_per_block", "delta_omega"):
        extras[key] = cfg.get(key, defaults.get(key))

    return ResolvedConfig(
        name=name,
        circuit=circuit,
        protocol=protocol,
        axes=axes,
        biases=biases,
        threads=threads,
        plot=bool(cfg.get("plot", defaults["plot"])),
        extras=extras,
    )


# ---------------------------------------------------------------------------
# per-scenario computations
# ---------------------------------------------------------------------------

def _spec_for(circuit: dict, topology: str, bias: BiasSetting, delta_omega) -> CircuitSpec:
    return CircuitSpec.build(
        topology,
        n_left=bias.n_left,
        n_right=bias.n_right,
        Gamma=circuit["Gamma"],
        delta_omega=delta_omega,
        J=circuit["J"],
        J_prime=circuit["J_prime"],
        gamma_dec=circuit["gamma_dec"],
        ho_truncation=circuit["ho_truncation"],
        bridge_rate_mode=circuit["bridge_rate_mode"],
    )


def _two_diode_tables(spec: CircuitSpec) -> dict[str, dict[str, RateTable]]:
    """Left- and right-side rate tables of a two-diode reduced circuit."""
    g_l, g_r = spec.left_bath.Gamma, spec.right_bath.Gamma
    n_l, n_r = spec.left_bath.n, spec.right_bath.n
    left = {a: qutrit_rate_table(spec.diodes[a], n_l, g_l, modulated=True) for a in spec.diodes}
    right = {a: qutrit_rate_table(spec.diodes[a], n_r, g_r, modulated=False) for a in spec.diodes}
    return {"left": left, "right": right}


def _parallel_point(resolved: ResolvedConfig, dw1: float, dw2: float) -> dict:
    dw = {"D1": dw1, "D2": dw2}
    row = {"delta_omega_d1": dw1, "delta_omega_d2": dw2, "solver": "direct",
           "rate_mode": resolved.circuit["bridge_rate_mode"]}
    spec_f = _spec_for(resolved.circuit, "parallel", resolved.biases["forward"], dw)
    rho_f = steady_state_direct(build_generator(spec_f))
    row["current_forward"] = markov_current_parallel(rho_f, _two_diode_tables(spec_f)["right"], "forward")

    spec_r = _spec_for(resolved.circuit, "parallel", resolved.biases["reverse"], dw)
    rho_r = steady_state_direct(build_generator(spec_r))
    report = CurrentReport.from_currents(
        row["current_forward"],
        markov_current_parallel(rho_r, _two_diode_tables(spec_r)["left"], "reverse"),
    )
    row["current_reverse"] = report.reverse
    row["rectification"] = report.rectification
    for diode in ("D1", "D2"):
        row[f"p0_{diode.lower()}_reverse"] = float(
            np.real(rho_r.expectation(projector(rho_r.layout, diode, 0)))
        )
    row["converged"] = True
    return row


def _series_point(resolved: ResolvedConfig, dw1: float, dw2: float) -> dict:
    dw = {"D1": dw1, "D2": dw2}
    row = {"delta_omega_d1": dw1, "delta_omega_d2": dw2, "solver": "windowed-average",
           "rate_mode": resolved.circuit["bridge_rate_mode"]}
    flagged = False

    spec_f = _spec_for(resolved.circuit, "series", resolved.biases["forward"], dw)
    gen_f = build_generator(spec_f)
    obs_f = emission_current_functional(gen_f.layout, ["D2"], _two_diode_tables(spec_f)["right"])
    try:
        res_f = steady_state_averaged(gen_f, protocol=resolved.protocol, observable=obs_f)
        row["current_forward"] = res_f.converged_value
        row["converged_block_forward"] = res_f.converged_block
        row["blocks_forward"] = res_f.blocks_used
    except ConvergenceError as err:
        row["current_forward"] = err.last_averages[-1]
        row["converged_block_forward"] = -1
        row["blocks_forward"] = resolved.protocol.max_blocks
        flagged = True

    spec_r = _spec_for(resolved.circuit, "series", resolved.biases["reverse"], dw)
    gen_r = build_generator(spec_r)
    obs_r = emission_current_functional(gen_r.layout, ["D1"], _two_diode_tables(spec_r)["left"])
    try:
        res_r = steady_state_averaged(gen_r, protocol=resolved.protocol, observable=obs_r)
        row["current_reverse"] = -res_r.converged_value
        row["converged_block_reverse"] = res_r.converged_block
        row["blocks_reverse"] = res_r.blocks_used
        rho_r = res_r.final_state
        for diode in ("D1", "D2"):
            row[f"p0_{diode.lower()}_reverse"] = float(
                np.real(rho_r.expectation(projector(rho_r.layout, diode, 0)))
            )
    except ConvergenceError as err:
        row["current_reverse"] = -err.last_averages[-1]
        row["converged_block_reverse"] = -1
        row["blocks_reverse"] = resolved.protocol.max_blocks
        row["p0_d1_reverse"] = math.nan
        row["p0_d2_reverse"] = math.nan
        flagged = True

    report = CurrentReport.from_currents(row["current_forward"], row["current_reverse"])
    row["rectification"] = report.rectification
    row["converged"] = not flagged
    return row


def _bridge_point(resolved: ResolvedConfig, delta_omega: float, gamma_dec: float) -> dict:
    bias = resolved.biases["temperatures"]
    spec = _spec_for({**resolved.circuit, "gamma_dec": gamma_dec}, "bridge", bias, delta_omega)
    upper, lower = build_bridge_half_generators(spec)
    tables = bridge_rate_tables(spec)
    n_mid = spec.ho_truncation

    row = {
        "delta_omega": delta_omega,
        "gamma_dec": gamma_dec,
        "n_left": bias.n_left,
        "n_right": bias.n_right,
        "truncation": n_mid,
        "rate_mode": spec.bridge_rate_mode.value,
        "solver_upper": "direct",
        "solver_lower": "windowed-average",
    }

    rho_upper = steady_state_direct(upper)
    rep_m1 = mode_report(rho_upper, "M1")
    ref_left = DensityMatrix.from_matrix(
        rep_m1.reduced.layout, thermal_state_matrix(n_mid, bias.n_left)
    )
    row["nbar_m1"] = rep_m1.mean_n
    row["temp_m1"] = rep_m1.effective_T
    row["fid_left_m1"] = fidelity(ref_left, rep_m1.reduced)
    row["current_upper_right"] = net_bath_current_functional(
        upper.layout, ["D2"], tables
    ).value(rho_upper)

    obs = net_bath_current_functional(lower.layout, ["D4"], tables)
    try:
        res = steady_state_averaged(lower, protocol=resolved.protocol, observable=obs)
        rho_lower = res.final_state
        row["current_lower_right"] = res.converged_value
        row["converged_block"] = res.converged_block
        row["blocks_used"] = res.blocks_used
        row["converged"] = True
    except ConvergenceError as err:
        row["current_lower_right"] = err.last_averages[-1]
        row["converged_block"] = -1
        row["blocks_used"] = resolved.protocol.max_blocks
        row["converged"] = False
        for key in ("nbar_m2", "temp_m2", "fid_right_m2"):
            row[key] = math.nan
        for k in range(n_mid):
            row[f"pop{k}_m1"] = float(rep_m1.populations[k])
            row[f"pop{k}_m2"] = math.nan
        return row

    rep_m2 = mode_report(rho_lower, "M2")
    ref_right = DensityMatrix.from_matrix(
        rep_m2.reduced.layout, thermal_state_matrix(n_mid, bias.n_right)
    )
    row["nbar_m2"] = rep_m2.mean_n
    row["temp_m2"] = rep_m2.effective_T
    row["fid_right_m2"] = fidelity(ref_right, rep_m2.reduced)
    for k in range(n_mid):
        row[f"pop{k}_m1"] = float(rep_m1.populations[k])
        row[f"pop{k}_m2"] = float(rep_m2.populations[k])
    return row


def _convergence_rows(resolved: ResolvedConfig, out_dir: Path | None) -> list[dict]:
    rows: list[dict] = []
    traj_points = resolved.extras.get("trajectory_points_per_block")
    series_point = resolved.extras.get("series_point") or {}
    dw1 = float(series_point.get("delta_omega_d1", 300.0))
    dw2 = float(series_point.get("delta_omega_d2", 450.0))
    bridge_point = resolved.extras.get("bridge_point") or {}
    dw_bridge = float(bridge_point.get("delta_omega", 300.0))

    def emit(circuit: str, bias_label: str, result: EvolutionResult, sign: float, extra: dict):
        for n, avg in enumerate(result.block_averages):
            rows.append({
                "circuit": circuit,
                "bias": bias_label,
                "block_index": n,
                "block_average_current": sign * avg,
                "converged_block": result.converged_block,
                "blocks_used": result.blocks_used,
                "method": result.method,
                **extra,
            })
        if result.trajectory is not None and out_dir is not None:
            path = out_dir / f"trajectory_{circuit}_{bias_label}.csv"
            _write_csv(path, ["time", result.trajectory.name],
                       [{"time": t, result.trajectory.name: sign * v}
                        for t, v in zip(result.trajectory.times, result.trajectory.values)])

    for bias_label in ("forward", "reverse"):
        bias = resolved.biases[bias_label]
        spec = _spec_for(resolved.circuit, "series", bias, {"D1": dw1, "D2": dw2})
        gen = build_generator(spec)
        tables = _two_diode_tables(spec)
        if bias_label == "forward":
            obs = emission_current_functional(gen.layout, ["D2"], tables["right"])
            sign = 1.0
        else:
            obs = emission_current_functional(gen.layout, ["D1"], tables["left"])
            sign = -1.0
        res = steady_state_averaged(
            gen, protocol=resolved.protocol, observable=obs,
            trajectory_points_per_block=traj_points,
        )
        emit("series", bias_label, res, sign,
             {"delta_omega_d1": dw1, "delta_omega_d2": dw2,
              "rate_mode": resolved.circuit["bridge_rate_mode"]})

    temp_bias = resolved.biases["temperatures"]
    for bias_label, bias in (("forward", temp_bias), ("reverse", temp_bias.swapped("reverse"))):
        spec = _spec_for(resolved.circuit, "bridge", bias, dw_bridge)
        _, lower = build_bridge_half_generators(spec)
        tables = bridge_rate_tables(spec)
        obs = net_bath_current_functional(lower.layout, ["D4"], tables)
        res = steady_state_averaged(
            lower, protocol=resolved.protocol, observable=obs,
            trajectory_points_per_block=traj_points,
        )
        emit("bridge-lower", bias_label, res, 1.0,
             {"delta_omega_d1": dw_bridge, "delta_omega_d2": dw_bridge,
              "rate_mode": spec.bridge_rate_mode.value})
    return rows


def validate_single_diode(config) -> dict:
    """Full three-mode model against the reduced single-qutrit rate model.

    Runs both at matched parameters for each configured bias and reports
    currents plus their relative deviation; the full model is the oracle.
    """
    resolved = validate_config(load_config(config) if not isinstance(config, ResolvedConfig) else config)
    if resolved.name != "single-diode-validation":
        raise ConfigError("name", "validate_single_diode needs a single-diode-validation config")
    truncation = resolved.circuit["ho_truncation"]
    if truncation > 4:
        raise ConfigError("circuit.ho_truncation", "full-model validation is limited to N <= 4")
    delta_omega = float(resolved.extras.get("delta_omega") or 300.0)
    gamma = resolved.circuit["Gamma"]

    report = {"delta_omega": delta_omega, "Gamma": gamma, "truncation": truncation, "rows": []}
    for label, bias in resolved.biases.items():
        spec = _spec_for(resolved.circuit, "single-diode", bias, delta_omega)
        gen = build_generator(spec)
        obs = bath_exchange_functional(gen.layout, "R", spec.right_bath)
        res = steady_state_averaged(gen, protocol=resolved.protocol, observable=obs)
        full_current = -res.converged_value  # positive when flowing into the right bath

        params = spec.diodes["D1"]
        table_left = qutrit_rate_table(params, bias.n_left, gamma, modulated=True)
        table_right = qutrit_rate_table(params, bias.n_right, gamma, modulated=False)
        reduced_gen = single_qutrit_rate_generator([table_left, table_right])
        rho_red = steady_state_direct(reduced_gen)
        reduced_current = net_bath_current_functional(
            reduced_gen.layout, ["D1"], {"D1": table_right}
        ).value(rho_red)

        scale = max(abs(full_current), 1e-300)
        report["rows"].append({
            "bias": label,
            "n_left": bias.n_left,
            "n_right": bias.n_right,
            "current_full": full_current,
            "current_reduced": reduced_current,
            "rel_deviation": abs(reduced_current - full_current) / scale,
            "converged_block": res.converged_block,
            "blocks_used": res.blocks_used,
            "converged": True,
        })
    by_bias = {r["bias"]: r for r in report["rows"]}
    if "forward" in by_bias and "reverse" in by_bias:
        reverse = by_bias["reverse"]["current_full"]
        report["forward_reverse_ratio"] = abs(
            by_bias["forward"]["current_full"] / reverse) if reverse else math.inf
    return report


# ---------------------------------------------------------------------------
# sweep driver, CSV, metadata
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    scenario: str
    columns: list[str]
    rows: list[dict]
    flagged_rows: list[int] = field(default_factory=list)
    out_dir: Path | None = None
    files: list[str] = field(default_factory=list)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.11e}"
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: list[dict]):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col, "")) for col in columns))
    path.write_text("\n".join(lines) + "\n")


def _columns_from_rows(rows: list[dict]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def _run_grid(points: list[dict], compute, threads: int) -> list[dict]:
    if threads <= 1:
        return [compute(**p) for p in points]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(compute, **p) for p in points]
        return [f.result() for f in futures]


def run_scenario(
    config,
    out_dir=None,
    threads: int | None = None,
    circuit_overrides: dict | None = None,
    plot: bool | None = None,
) -> SweepResult:
    """Execute a scenario config and write CSV + metadata to the output dir.

    ``config`` may be a dict, a path to a JSON file, or a built-in scenario
    name.  Rows failing the convergence protocol are kept, flagged with
    ``converged=false``; their presence is reported in the result.
    """
    cfg = load_config(config)
    if circuit_overrides:
        cfg.setdefault("circuit", {}).update(circuit_overrides)
    if threads is not None:
        cfg["threads"] = threads
    if plot is not None:
        cfg["plot"] = plot
    resolved = validate_config(cfg)

    if out_dir is None:
        out_dir = cfg.get("out_dir") or os.environ.get(OUTPUT_DIR_ENV) or "heatrect-out"
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    t0 = time.perf_counter()

    name = resolved.name
    if name == "parallel-sweep":
        points = [
            {"resolved": resolved, "dw1": dw1, "dw2": dw2}
            for dw1 in resolved.axes["delta_omega_d1"]
            for dw2 in resolved.axes["delta_omega_d2"]
        ]
        rows = _run_grid(points, _parallel_point, resolved.threads)
    elif name == "series-sweep":
        points = [
            {"resolved": resolved, "dw1": dw1, "dw2": dw2}
            for dw1 in resolved.axes["delta_omega_d1"]
            for dw2 in resolved.axes["delta_omega_d2"]
        ]
        rows = _run_grid(points, _series_point, resolved.threads)
    elif name == "bridge-anharmonicity":
        points = [
            {"resolved": resolved, "delta_omega": dw, "gamma_dec": resolved.circuit["gamma_dec"]}
            for dw in resolved.axes["delta_omega"]
        ]
        rows = _run_grid(points, _bridge_point, resolved.threads)
    elif name == "bridge-decoherence":
        points = [
            {"resolved": resolved, "delta_omega": dw, "gamma_dec": gd}
            for dw in resolved.axes["delta_omega"]
            for gd in resolved.axes["gamma_dec"]
        ]
        rows = _run_grid(points, _bridge_point, resolved.threads)
    elif name == "convergence-study":
        rows = _convergence_rows(resolved, out_path)
    else:  # single-diode-validation
        report = validate_single_diode(cfg)
        rows = [
            {**r, "delta_omega": report["delta_omega"], "Gamma": report["Gamma"],
             "truncation": report["truncation"]}
            for r in report["rows"]
        ]

    flagged = [i for i, row in enumerate(rows) if row.get("converged") is False]
    columns = _columns_from_rows(rows)
    csv_path = out_path / f"{name}.csv"
    _write_csv(csv_path, columns, rows)
    files = [csv_path.name]
    if name == "convergence-study":
        files += sorted(p.name for p in out_path.glob("trajectory_*.csv"))

    metadata = {
        "scenario": name,
        "heatrect_version": __version__,
        "resolved_config": {
            "name": name,
            "circuit": resolved.circuit,
            "protocol": {
                "block_length": resolved.protocol.block_length,
                "average_window": resolved.protocol.average_window,
                "rel_tol": resolved.protocol.rel_tol,
                "max_blocks": resolved.protocol.max_blocks,
            },
            "axes": resolved.axes,
            "biases": {k: [b.n_left, b.n_right] for k, b in resolved.biases.items()},
            "threads": resolved.threads,
            "extras": resolved.extras,
        },
        "rate_mode": resolved.circuit["bridge_rate_mode"],
        "rate_mode_note": (
            "rates of the right-coupled bridge diode D2: physical-modulated keeps the "
            "drive-induced J'^2/Gamma term because D2's bath coupling is modulated; "
            "paper-literal drops it; the D3/D4 rates always use the static (J'-free) form"
        ),
        "row_count": len(rows),
        "flagged_rows": flagged,
        "started": started,
        "runtime_seconds": round(time.perf_counter() - t0, 3),
        "files": files,
    }
    plot_file = None
    if resolved.plot:
        try:
            plot_file = _quick_plot(name, columns, rows, out_path)
        except ImportError as err:
            metadata["plot_skipped"] = f"matplotlib unavailable: {err}"
            warnings.warn(f"quick-look plot skipped ({metadata['plot_skipped']})", stacklevel=2)
    meta_path = out_path / "metadata.json"
    meta_path.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    files.append(meta_path.name)
    if plot_file:
        files.append(plot_file)

    return SweepResult(
        scenario=name, columns=columns, rows=rows, flagged_rows=flagged,
        out_dir=out_path, files=files,
    )


def _quick_plot(name: str, columns: list[str], rows: list[dict], out_path: Path) -> str:
    """Write ``<name>.svg``; raises ImportError when matplotlib is missing."""
    import matplotlib
    matplotlib.use("svg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    try:
        if name in ("parallel-sweep", "series-sweep"):
            d1_values = sorted({row["delta_omega_d1"] for row in rows})
            for dw1 in d1_values:
                xs = [r["delta_omega_d2"] for r in rows if r["delta_omega_d1"] == dw1]
                ys = [r["rectification"] for r in rows if r["delta_omega_d1"] == dw1]
                ax.loglog(xs, ys, label=f"delta_omega_d1={dw1:g}")
            ax.set_xlabel("delta_omega_d2 [J]")
            ax.set_ylabel("rectification")
        elif name in ("bridge-anharmonicity", "bridge-decoherence"):
            x_key = "delta_omega" if name == "bridge-anharmonicity" else "gamma_dec"
            ax.semilogx([r[x_key] for r in rows], [r["temp_m1"] for r in rows], "o-", label="T_M1")
            ax.semilogx([r[x_key] for r in rows], [r["temp_m2"] for r in rows], "s-", label="T_M2")
            ax.set_xlabel(f"{x_key} [J]")
            ax.set_ylabel("effective temperature [omega]")
        elif name == "convergence-study":
            for key in sorted({(r["circuit"], r["bias"]) for r in rows}):
                sub = [r for r in rows if (r["circuit"], r["bias"]) == key]
                ax.semilogy([r["block_index"] for r in sub],
                            [abs(r["block_average_current"]) for r in sub],
                            "o-", label=f"{key[0]} {key[1]}")
            ax.set_xlabel("block index")
            ax.set_ylabel("|block average current| [J]")
        else:
            biases = [r["bias"] for r in rows]
            ax.bar(range(len(rows)), [abs(r["current_full"]) for r in rows], 0.4, label="full")
            ax.bar([i + 0.4 for i in range(len(rows))],
                   [abs(r["current_reduced"]) for r in rows], 0.4, label="reduced")
            ax.set_xticks([i + 0.2 for i in range(len(rows))], biases)
            ax.set_yscale("log")
            ax.set_ylabel("|current| [J]")
        ax.legend(fontsize=8)
        ax.set_title(name)
        fig.tight_layout()
        out_file = f"{name}.svg"
        fig.savefig(out_path / out_file)
        return out_file
    finally:
        plt.close(fig)
