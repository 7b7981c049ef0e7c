"""Configuration-driven parameter sweeps with CSV output.

A scenario is fully determined by one JSON config (see ``default_config``
for the built-in ones, declared in the ``SCENARIOS`` table).  Sweeps run
over explicit parameter grids, one row per grid point in deterministic
order, and are written as CSV with 12 significant digits, plus a
``metadata.json`` with every resolved parameter.  Optional quick-look SVG
plots never participate in golden comparisons.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

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
    Trajectory,
    steady_state_averaged,
    steady_state_direct,
)

OUTPUT_DIR_ENV = "HEATRECT_OUT_DIR"


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


@dataclass
class ResolvedConfig:
    name: str
    circuit: dict
    protocol: ConvergenceProtocol
    axes: dict[str, list[float]]
    biases: dict[str, BiasSetting]
    plot: bool
    extras: dict


# ---------------------------------------------------------------------------
# per-scenario computations
# ---------------------------------------------------------------------------

def _spec_for(circuit: dict, topology: str, bias: BiasSetting, delta_omega) -> CircuitSpec:
    # the circuit section's keys are CircuitSpec.build's keyword arguments
    return CircuitSpec.build(topology, n_left=bias.n_left, n_right=bias.n_right,
                             delta_omega=delta_omega, **circuit)


def _two_diode_tables(spec: CircuitSpec) -> dict[str, dict[str, RateTable]]:
    """Left- and right-side rate tables of a two-diode reduced circuit."""
    g_l, g_r = spec.left_bath.Gamma, spec.right_bath.Gamma
    n_l, n_r = spec.left_bath.n, spec.right_bath.n
    left = {a: qutrit_rate_table(spec.diodes[a], n_l, g_l, modulated=True) for a in spec.diodes}
    right = {a: qutrit_rate_table(spec.diodes[a], n_r, g_r, modulated=False) for a in spec.diodes}
    return {"left": left, "right": right}


@dataclass(frozen=True)
class _Averaged:
    """One windowed-average run; one that missed the threshold has no state."""

    value: float
    converged_block: int
    blocks_used: int
    state: DensityMatrix | None
    block_averages: list[float]
    method: str = ""
    trajectory: Trajectory | None = None

    @property
    def converged(self) -> bool:
        return self.state is not None


def _averaged(generator, observable, protocol: ConvergenceProtocol,
              trajectory_points_per_block: int | None = None) -> _Averaged:
    """``steady_state_averaged``, with non-convergence returned as a flagged run."""
    try:
        res = steady_state_averaged(generator, protocol=protocol, observable=observable,
                                    trajectory_points_per_block=trajectory_points_per_block)
    except ConvergenceError as err:
        return _Averaged(err.last_averages[-1], -1, protocol.max_blocks, None, err.block_averages)
    return _Averaged(res.converged_value, res.converged_block, res.blocks_used, res.final_state,
                     res.block_averages, res.method, res.trajectory)


def _p0_reverse(rho: DensityMatrix | None) -> dict:
    """Ground-state populations of both diodes under reverse bias (NaN without a state)."""
    return {
        f"p0_{diode.lower()}_reverse":
            math.nan if rho is None else float(np.real(rho.expectation(projector(rho.layout, diode, 0))))
        for diode in ("D1", "D2")
    }


def _parallel_rows(resolved: ResolvedConfig, out_dir, delta_omega_d1: float,
                   delta_omega_d2: float) -> list[dict]:
    dw = {"D1": delta_omega_d1, "D2": delta_omega_d2}
    row = {"delta_omega_d1": delta_omega_d1, "delta_omega_d2": delta_omega_d2, "solver": "direct",
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
    row.update(_p0_reverse(rho_r))
    row["converged"] = True
    return [row]


def _series_setup(resolved: ResolvedConfig, bias: str, dw1: float, dw2: float):
    """Generator, emission-current observable and its sign at one series bias:
    D2 into the right bath (forward) or D1 into the left bath, negated."""
    spec = _spec_for(resolved.circuit, "series", resolved.biases[bias], {"D1": dw1, "D2": dw2})
    gen = build_generator(spec)
    tables = _two_diode_tables(spec)
    if bias == "forward":
        return gen, emission_current_functional(gen.layout, ["D2"], tables["right"]), 1.0
    return gen, emission_current_functional(gen.layout, ["D1"], tables["left"]), -1.0


def _series_rows(resolved: ResolvedConfig, out_dir, delta_omega_d1: float,
                 delta_omega_d2: float) -> list[dict]:
    row = {"delta_omega_d1": delta_omega_d1, "delta_omega_d2": delta_omega_d2,
           "solver": "windowed-average", "rate_mode": resolved.circuit["bridge_rate_mode"]}
    runs = {}
    for bias in ("forward", "reverse"):
        gen, obs, sign = _series_setup(resolved, bias, delta_omega_d1, delta_omega_d2)
        run = runs[bias] = _averaged(gen, obs, resolved.protocol)
        row[f"current_{bias}"] = sign * run.value
        row[f"converged_block_{bias}"] = run.converged_block
        row[f"blocks_{bias}"] = run.blocks_used
    row.update(_p0_reverse(runs["reverse"].state))
    report = CurrentReport.from_currents(row["current_forward"], row["current_reverse"])
    row["rectification"] = report.rectification
    row["converged"] = all(run.converged for run in runs.values())
    return [row]


def _bridge_rows(resolved: ResolvedConfig, out_dir, delta_omega: float,
                 gamma_dec: float | None = None) -> list[dict]:
    if gamma_dec is None:
        gamma_dec = resolved.circuit["gamma_dec"]
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

    run = _averaged(lower, net_bath_current_functional(lower.layout, ["D4"], tables),
                    resolved.protocol)
    row["current_lower_right"] = run.value
    row["converged_block"] = run.converged_block
    row["blocks_used"] = run.blocks_used
    row["converged"] = run.converged
    row["nbar_m2"] = row["temp_m2"] = row["fid_right_m2"] = math.nan
    pops_m2 = [math.nan] * n_mid
    if run.converged:
        rep_m2 = mode_report(run.state, "M2")
        ref_right = DensityMatrix.from_matrix(
            rep_m2.reduced.layout, thermal_state_matrix(n_mid, bias.n_right)
        )
        row["nbar_m2"] = rep_m2.mean_n
        row["temp_m2"] = rep_m2.effective_T
        row["fid_right_m2"] = fidelity(ref_right, rep_m2.reduced)
        pops_m2 = rep_m2.populations
    for k in range(n_mid):
        row[f"pop{k}_m1"] = float(rep_m1.populations[k])
        row[f"pop{k}_m2"] = float(pops_m2[k])
    return [row]


def _convergence_rows(resolved: ResolvedConfig, out_dir: Path, circuit: str,
                      bias: str) -> list[dict]:
    """Every block average of one run; writes its trajectory file when one is kept.
    Only a run that missed the threshold adds a ``converged`` column."""
    if circuit == "series":
        point = resolved.extras["series_point"]
        dw1, dw2 = point["delta_omega_d1"], point["delta_omega_d2"]
        gen, obs, sign = _series_setup(resolved, bias, dw1, dw2)
    else:  # the bridge's driven lower half, under the temperature bias and its swap
        dw1 = dw2 = resolved.extras["bridge_point"]["delta_omega"]
        temps = resolved.biases["temperatures"]
        spec = _spec_for(resolved.circuit, "bridge",
                         temps if bias == "forward" else temps.swapped(bias), dw1)
        _, gen = build_bridge_half_generators(spec)
        obs = net_bath_current_functional(gen.layout, ["D4"], bridge_rate_tables(spec))
        sign = 1.0
    run = _averaged(gen, obs, resolved.protocol, resolved.extras["trajectory_points_per_block"])
    rows = [{
        "circuit": circuit,
        "bias": bias,
        "block_index": n,
        "block_average_current": sign * avg,
        "converged_block": run.converged_block,
        "blocks_used": run.blocks_used,
        "method": run.method,
        "delta_omega_d1": dw1,
        "delta_omega_d2": dw2,
        "rate_mode": resolved.circuit["bridge_rate_mode"],
    } for n, avg in enumerate(run.block_averages)]
    if not run.converged:
        for row in rows:
            row["converged"] = False
    traj = run.trajectory
    if traj is not None:
        _write_csv(out_dir / f"trajectory_{circuit}_{bias}.csv", ["time", traj.name],
                   [{"time": t, traj.name: sign * v} for t, v in zip(traj.times, traj.values)])
    return rows


def _single_diode_rows(resolved: ResolvedConfig, out_dir, bias: str) -> list[dict]:
    """Full three-mode model against the reduced single-qutrit rate model at one bias."""
    setting = resolved.biases[bias]
    delta_omega = resolved.extras["delta_omega"]
    gamma = resolved.circuit["Gamma"]
    spec = _spec_for(resolved.circuit, "single-diode", setting, delta_omega)
    gen = build_generator(spec)
    run = _averaged(gen, bath_exchange_functional(gen.layout, "R", spec.right_bath),
                    resolved.protocol)
    full_current = -run.value  # positive when flowing into the right bath

    params = spec.diodes["D1"]
    table_left = qutrit_rate_table(params, setting.n_left, gamma, modulated=True)
    table_right = qutrit_rate_table(params, setting.n_right, gamma, modulated=False)
    reduced_gen = single_qutrit_rate_generator([table_left, table_right])
    rho_red = steady_state_direct(reduced_gen)
    reduced_current = net_bath_current_functional(
        reduced_gen.layout, ["D1"], {"D1": table_right}
    ).value(rho_red)

    scale = max(abs(full_current), 1e-300)
    return [{
        "bias": bias,
        "n_left": setting.n_left,
        "n_right": setting.n_right,
        "current_full": full_current,
        "current_reduced": reduced_current,
        "rel_deviation": abs(reduced_current - full_current) / scale,
        "converged_block": run.converged_block,
        "blocks_used": run.blocks_used,
        "converged": run.converged,
        "delta_omega": delta_omega,
        "Gamma": gamma,
        "truncation": resolved.circuit["ho_truncation"],
    }]


def _plot_rectification(ax, rows: list[dict]):
    for dw1 in sorted({row["delta_omega_d1"] for row in rows}):
        xs = [r["delta_omega_d2"] for r in rows if r["delta_omega_d1"] == dw1]
        ys = [r["rectification"] for r in rows if r["delta_omega_d1"] == dw1]
        ax.loglog(xs, ys, label=f"delta_omega_d1={dw1:g}")
    ax.set_xlabel("delta_omega_d2 [J]")
    ax.set_ylabel("rectification")


def _plot_bridge_temperatures(ax, rows: list[dict], x_key: str):
    ax.semilogx([r[x_key] for r in rows], [r["temp_m1"] for r in rows], "o-", label="T_M1")
    ax.semilogx([r[x_key] for r in rows], [r["temp_m2"] for r in rows], "s-", label="T_M2")
    ax.set_xlabel(f"{x_key} [J]")
    ax.set_ylabel("effective temperature [omega]")


def _plot_block_averages(ax, rows: list[dict]):
    for key in sorted({(r["circuit"], r["bias"]) for r in rows}):
        sub = [r for r in rows if (r["circuit"], r["bias"]) == key]
        ax.semilogy([r["block_index"] for r in sub],
                    [abs(r["block_average_current"]) for r in sub],
                    "o-", label=f"{key[0]} {key[1]}")
    ax.set_xlabel("block index")
    ax.set_ylabel("|block average current| [J]")


def _plot_full_vs_reduced(ax, rows: list[dict]):
    ax.bar(range(len(rows)), [abs(r["current_full"]) for r in rows], 0.4, label="full")
    ax.bar([i + 0.4 for i in range(len(rows))],
           [abs(r["current_reduced"]) for r in rows], 0.4, label="reduced")
    ax.set_xticks([i + 0.2 for i in range(len(rows))], [r["bias"] for r in rows])
    ax.set_yscale("log")
    ax.set_ylabel("|current| [J]")


# ---------------------------------------------------------------------------
# the scenario table and configs
# ---------------------------------------------------------------------------

def _grid_points(resolved: ResolvedConfig) -> list[dict]:
    """Outer product of the resolved axes, first axis outermost."""
    return [dict(zip(resolved.axes, values))
            for values in itertools.product(*resolved.axes.values())]


@dataclass(frozen=True)
class Scenario:
    """One built-in scenario.  ``bias``, ``axes`` (outer-to-inner grid order),
    ``extras`` (its own top-level keys) and ``circuit`` (departures from the
    common circuit) hold defaults; with ``open_bias`` any further bias label
    is one more point.  ``rows(resolved, out_dir, **point)`` computes the CSV
    rows of each of ``points(resolved)`` and may write ``side_files`` into
    ``out_dir``; ``plot(ax, rows)`` draws the quick-look figure."""

    summary: str
    bias: dict
    rows: Callable[..., list[dict]]
    plot: Callable
    axes: dict = field(default_factory=dict)
    points: Callable[[ResolvedConfig], list[dict]] = _grid_points
    extras: dict = field(default_factory=dict)
    circuit: dict = field(default_factory=dict)
    max_truncation: int | None = None
    open_bias: bool = False
    side_files: str | None = None


_TWO_WAY_BIAS = {"forward": [0.5, 0.0], "reverse": [0.0, 0.5]}
_BRIDGE_BIAS = {"temperatures": [1.0, 0.1]}

SCENARIOS = {
    "parallel-sweep": Scenario(
        summary="two diodes in parallel: currents and rectification over both anharmonicities",
        bias=_TWO_WAY_BIAS, rows=_parallel_rows, plot=_plot_rectification,
        axes={"delta_omega_d1": [100.0, 200.0, 300.0],
              "delta_omega_d2": {"log_range": [50.0, 500.0], "points": 40}},
    ),
    "series-sweep": Scenario(
        summary="two diodes in series: currents, rectification, and ground-state populations",
        bias=_TWO_WAY_BIAS, rows=_series_rows, plot=_plot_rectification,
        axes={"delta_omega_d1": [100.0, 200.0, 300.0], "delta_omega_d2": _series_default_grid()},
    ),
    "bridge-anharmonicity": Scenario(
        summary="bridge rectifier: output temperatures and fidelities vs anharmonicity",
        bias=_BRIDGE_BIAS, rows=_bridge_rows,
        plot=functools.partial(_plot_bridge_temperatures, x_key="delta_omega"),
        axes={"delta_omega": {"log_range": [50.0, 500.0], "points": 40}},
    ),
    "bridge-decoherence": Scenario(
        summary="bridge rectifier: output temperatures and fidelities vs decoherence rate",
        bias=_BRIDGE_BIAS, rows=_bridge_rows,
        plot=functools.partial(_plot_bridge_temperatures, x_key="gamma_dec"),
        axes={"delta_omega": [100.0, 200.0, 300.0],
              "gamma_dec": {"log_range": [1e-4, 1e-1], "points": 40}},
    ),
    "convergence-study": Scenario(
        summary="block-averaged current convergence of the series and bridge circuits",
        bias={**_TWO_WAY_BIAS, **_BRIDGE_BIAS}, rows=_convergence_rows, plot=_plot_block_averages,
        points=lambda resolved: [{"circuit": circuit, "bias": bias}
                                 for circuit in ("series", "bridge-lower")
                                 for bias in ("forward", "reverse")],
        extras={"series_point": {"delta_omega_d1": 300.0, "delta_omega_d2": 450.0},
                "bridge_point": {"delta_omega": 300.0},
                "trajectory_points_per_block": 50},
        side_files="trajectory_*.csv",
    ),
    "single-diode-validation": Scenario(
        summary="full three-mode diode model against the reduced rate model",
        bias={**_TWO_WAY_BIAS, "equilibrium": [0.5, 0.5]}, open_bias=True,
        rows=_single_diode_rows, plot=_plot_full_vs_reduced,
        points=lambda resolved: [{"bias": label} for label in resolved.biases],
        extras={"delta_omega": 300.0},
        circuit={"Gamma": 20.0, "ho_truncation": 4}, max_truncation=4,
    ),
}

SCENARIO_SUMMARIES = {name: scenario.summary for name, scenario in SCENARIOS.items()}

SCENARIO_NAMES = tuple(SCENARIOS)

_COMMON_CIRCUIT = {
    "Gamma": 10.0,
    "J": 1.0,
    "J_prime": 0.5,
    "ho_truncation": 8,
    "gamma_dec": 1e-3,
    "bridge_rate_mode": "physical-modulated",
}

_COMMON_KEYS = ("name", "plot", "out_dir", "circuit", "protocol", "bias", "axes")


def _scenario(name) -> Scenario:
    if name not in SCENARIO_NAMES:
        raise ConfigError("name", f"unknown scenario {name!r}; known: {list(SCENARIO_NAMES)}")
    return SCENARIOS[name]


def default_config(name: str) -> dict:
    """Fully explicit default config of a built-in scenario."""
    scenario = _scenario(name)
    return copy.deepcopy({
        "name": name,
        "plot": False,
        "circuit": {**_COMMON_CIRCUIT, **scenario.circuit},
        "protocol": dataclasses.asdict(ConvergenceProtocol()),
        "bias": scenario.bias,
        "axes": scenario.axes,
        **scenario.extras,
    })


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


def _positive_int(raw, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ConfigError(path, f"need a positive integer, got {raw!r}")
    return raw


def _section(cfg: dict, key: str) -> dict:
    raw = cfg.get(key) or {}
    if not isinstance(raw, dict):
        raise ConfigError(key, "need a JSON object")
    return raw


def _pair(raw, path: str, shape: str = "[lo, hi]") -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(path, f"need {shape} ({err})") from err
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
        points = _positive_int(raw.get("points"), f"{path}.points")
        if "log_range" in raw:
            lo, hi = _pair(raw["log_range"], f"{path}.log_range")
            if not 0 < lo < hi:
                raise ConfigError(f"{path}.log_range", "need 0 < lo < hi")
            return _log_grid(lo, hi, points)
        if "range" in raw:
            lo, hi = _pair(raw["range"], f"{path}.range")
            return [float(x) for x in np.linspace(lo, hi, points)]
        raise ConfigError(path, "axis dict needs 'log_range' or 'range'")
    raise ConfigError(path, f"cannot interpret axis value {raw!r}")


def _extra_value(raw, default, path: str):
    """An extras entry checked against its default: an object with some of the
    default's keys, a point count (positive integer or null) or a positive
    anharmonicity."""
    if isinstance(default, dict):
        if not isinstance(raw, dict):
            raise ConfigError(path, f"need an object with keys {sorted(default)}")
        for key in raw:
            if key not in default:
                raise ConfigError(f"{path}.{key}", f"unknown key; known: {sorted(default)}")
        return {key: _extra_value(raw.get(key, value), value, f"{path}.{key}")
                for key, value in default.items()}
    if isinstance(default, int):
        return None if raw is None else _positive_int(raw, path)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not 0 < raw < math.inf:
        raise ConfigError(path, f"need a positive number, got {raw!r}")
    return float(raw)


def validate_config(cfg: dict) -> ResolvedConfig:
    if not isinstance(cfg, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    name = cfg.get("name")
    scenario = _scenario(name)
    for key in cfg:
        if key not in _COMMON_KEYS and key not in scenario.extras:
            known = sorted([*_COMMON_KEYS, *scenario.extras])
            raise ConfigError(key, f"unknown key for scenario {name!r}; known: {known}")

    circuit = {**_COMMON_CIRCUIT, **scenario.circuit, **_section(cfg, "circuit")}
    for key in circuit:
        if key not in _COMMON_CIRCUIT:
            raise ConfigError(f"circuit.{key}", "unknown circuit parameter")
    try:
        RateMode(circuit["bridge_rate_mode"])
    except ValueError as err:
        raise ConfigError("circuit.bridge_rate_mode", str(err)) from err
    truncation = _positive_int(circuit["ho_truncation"], "circuit.ho_truncation")
    if scenario.max_truncation is not None and truncation > scenario.max_truncation:
        raise ConfigError("circuit.ho_truncation",
                          f"scenario {name!r} is limited to N <= {scenario.max_truncation}")

    try:
        protocol = ConvergenceProtocol(**_section(cfg, "protocol"))
    except (TypeError, ValueError) as err:
        raise ConfigError("protocol", str(err)) from err

    axes_cfg = _section(cfg, "axes")
    for key in axes_cfg:
        if key not in scenario.axes:
            raise ConfigError(f"axes.{key}", f"scenario {name!r} supports axes {sorted(scenario.axes)}")
    # declared order, whatever the config's key order: it fixes the row order
    axes = {key: _axis_values(axes_cfg.get(key, default), f"axes.{key}")
            for key, default in scenario.axes.items()}

    biases: dict[str, BiasSetting] = {}
    for label, raw in {**scenario.bias, **_section(cfg, "bias")}.items():
        if label not in scenario.bias and not scenario.open_bias:
            raise ConfigError(f"bias.{label}", f"scenario {name!r} reads biases {sorted(scenario.bias)}")
        if label == "temperatures":
            t_left, t_right = _pair(raw, f"bias.{label}", "[T_left, T_right]")
            biases[label] = BiasSetting.from_temperatures("forward", t_left, t_right)
        else:
            biases[label] = BiasSetting(label, *_pair(raw, f"bias.{label}", "[n_left, n_right]"))

    plot = cfg.get("plot", False)
    if not isinstance(plot, bool):
        raise ConfigError("plot", f"need true or false, got {plot!r}")

    extras = {key: _extra_value(cfg.get(key, default), default, key)
              for key, default in scenario.extras.items()}

    return ResolvedConfig(name=name, circuit=circuit, protocol=protocol, axes=axes,
                          biases=biases, plot=plot, extras=extras)


def validate_single_diode(config) -> dict:
    """Full three-mode model against the reduced single-qutrit rate model.

    Runs both at matched parameters for each configured bias and reports
    currents plus their relative deviation; the full model is the oracle.
    """
    resolved = config if isinstance(config, ResolvedConfig) else validate_config(load_config(config))
    if SCENARIOS[resolved.name].rows is not _single_diode_rows:
        raise ConfigError("name", "validate_single_diode needs a single-diode-validation config")
    rows = [row for label in resolved.biases for row in _single_diode_rows(resolved, None, label)]
    report = {"delta_omega": resolved.extras["delta_omega"], "Gamma": resolved.circuit["Gamma"],
              "truncation": resolved.circuit["ho_truncation"], "rows": rows}
    by_bias = {r["bias"]: r for r in rows}
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


def run_scenario(
    config,
    out_dir=None,
    circuit_overrides: dict | None = None,
    plot: bool | None = None,
) -> SweepResult:
    """Execute a scenario config and write CSV + metadata to the output dir.

    ``config`` may be a dict, a path to a JSON file, or a built-in scenario
    name.  Grid points run one after another in grid order.  Rows failing
    the convergence protocol are kept, flagged with ``converged=false``;
    their presence is reported in the result.
    """
    cfg = load_config(config)
    if circuit_overrides:
        cfg.setdefault("circuit", {}).update(circuit_overrides)
    if plot is not None:
        cfg["plot"] = plot
    resolved = validate_config(cfg)
    scenario = SCENARIOS[resolved.name]

    if out_dir is None:
        out_dir = cfg.get("out_dir") or os.environ.get(OUTPUT_DIR_ENV) or "heatrect-out"
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    t0 = time.perf_counter()

    name = resolved.name
    rows = [row for point in scenario.points(resolved)
            for row in scenario.rows(resolved, out_path, **point)]

    flagged = [i for i, row in enumerate(rows) if row.get("converged") is False]
    columns = _columns_from_rows(rows)
    csv_path = out_path / f"{name}.csv"
    _write_csv(csv_path, columns, rows)
    files = [csv_path.name]
    if scenario.side_files:
        files += sorted(p.name for p in out_path.glob(scenario.side_files))

    metadata = {
        "scenario": name,
        "heatrect_version": __version__,
        "resolved_config": {
            "name": name,
            "circuit": resolved.circuit,
            "protocol": dataclasses.asdict(resolved.protocol),
            "axes": resolved.axes,
            "biases": {k: [b.n_left, b.n_right] for k, b in resolved.biases.items()},
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
            plot_file = _quick_plot(name, scenario.plot, rows, out_path)
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


def _quick_plot(name: str, draw, rows: list[dict], out_path: Path) -> str:
    """Write ``<name>.svg``; raises ImportError when matplotlib is missing."""
    import matplotlib
    matplotlib.use("svg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    try:
        draw(ax, rows)
        ax.legend(fontsize=8)
        ax.set_title(name)
        fig.tight_layout()
        out_file = f"{name}.svg"
        fig.savefig(out_path / out_file)
        return out_file
    finally:
        plt.close(fig)
