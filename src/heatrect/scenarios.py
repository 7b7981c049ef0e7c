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
import logging
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .circuits import TOPOLOGIES, CircuitSpec, RateMode, Topology
from .lindblad import (
    SUPEROP_MATERIALIZE_DIM,
    _mode_operator,
    build_bridge_half_generators,
    build_generator,
    build_reduced_generator,
)
from .observables import (
    BiasSetting,
    bath_current_functional,
    fidelity,
    mode_report,
    rectification,
    thermal_state_matrix,
)
from .spaces import DensityMatrix, projector
from .steady import (
    AVERAGED_METHOD,
    CONVERGENCE_ABS_FLOOR,
    ConvergenceError,
    ConvergenceProtocol,
    Trajectory,
    steady_state_averaged,
    steady_state_direct,
)

logger = logging.getLogger("heatrect")

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


@dataclass(frozen=True)
class _Run:
    """One steady-state run: its solver, the observable's value, the state (``None``
    when a windowed average missed the threshold) and, for a windowed average, its blocks."""

    solver: str
    value: float
    state: DensityMatrix | None
    converged_block: int | None = None
    blocks_used: int | None = None
    block_averages: list[float] = field(default_factory=list)
    trajectory: Trajectory | None = None

    @property
    def converged(self) -> bool:
        return self.state is not None

    def block_columns(self, converged_block: str = "converged_block",
                      blocks: str = "blocks_used") -> dict:
        """The block fields under the given column names; none for a direct solve."""
        if self.converged_block is None:
            return {}
        return {converged_block: self.converged_block, blocks: self.blocks_used}


def _averaged(out: _Output, generator, observable, protocol: ConvergenceProtocol,
              trajectory_points_per_block: int | None = None) -> _Run:
    """``steady_state_averaged``, with non-convergence returned as a flagged run;
    ``out`` records the block dimension of a converged run."""
    try:
        res = steady_state_averaged(generator, protocol=protocol, observable=observable,
                                    trajectory_points_per_block=trajectory_points_per_block)
    except ConvergenceError as err:
        return _Run("windowed-average", err.last_averages[-1], None, -1, protocol.max_blocks,
                    err.block_averages)
    out.block_dims.add(res.block_dim)
    return _Run("windowed-average", res.converged_value, res.final_state, res.converged_block,
                res.blocks_used, res.block_averages, res.trajectory)


def _steady(out: _Output, generator, observable, protocol: ConvergenceProtocol) -> _Run:
    """The route rule: the direct null-space solve for a time-independent
    generator, the windowed average for a driven one."""
    if generator.drive_frequencies:
        return _averaged(out, generator, observable, protocol)
    rho = steady_state_direct(generator)
    return _Run("direct", observable.value(rho), rho)


# forward bias reports the net current into the right bath, reverse minus
# the net current into the left bath
_BIAS_SIDES = {"forward": ("right", 1.0), "reverse": ("left", -1.0)}


def _two_way_setup(resolved: ResolvedConfig, topology: str, bias: str, dw1: float, dw2: float):
    """Generator, bath-current observable and its sign at one two-diode bias."""
    spec = _spec_for(resolved.circuit, topology, resolved.biases[bias], {"D1": dw1, "D2": dw2})
    gen = build_generator(spec)
    side, sign = _BIAS_SIDES[bias]
    return gen, bath_current_functional(spec, gen.layout, side), sign


def _two_way_rows(resolved: ResolvedConfig, out, delta_omega_d1: float,
                  delta_omega_d2: float, *, topology: str) -> list[dict]:
    """Both bias currents of a two-diode circuit and its reverse-bias ground-state populations."""
    runs, signs = {}, {}
    for bias in _BIAS_SIDES:
        gen, obs, signs[bias] = _two_way_setup(resolved, topology, bias,
                                               delta_omega_d1, delta_omega_d2)
        runs[bias] = _steady(out, gen, obs, resolved.protocol)
    # both biases build the same generator terms, so they take one route
    (solver,) = {run.solver for run in runs.values()}
    row = {"delta_omega_d1": delta_omega_d1, "delta_omega_d2": delta_omega_d2, "solver": solver,
           "rate_mode": resolved.circuit["bridge_rate_mode"]}
    for bias, run in runs.items():
        row[f"current_{bias}"] = signs[bias] * run.value
        row.update(run.block_columns(f"converged_block_{bias}", f"blocks_{bias}"))
    rho = runs["reverse"].state
    for diode in ("D1", "D2"):
        row[f"p0_{diode.lower()}_reverse"] = math.nan if rho is None else float(
            np.real(rho.expectation(_mode_operator(rho.layout, projector, diode, 0))))
    row["rectification"] = rectification(row["current_forward"], row["current_reverse"])
    row["converged"] = all(run.converged for run in runs.values())
    return [row]


# each bridge trio: its half, its middle oscillator and the bath whose thermal
# state that oscillator is compared with
_BRIDGE_TRIOS = (("upper", "M1", "left"), ("lower", "M2", "right"))


def _bridge_rows(resolved: ResolvedConfig, out, delta_omega: float,
                 gamma_dec: float | None = None) -> list[dict]:
    if gamma_dec is None:
        gamma_dec = resolved.circuit["gamma_dec"]
    bias = resolved.biases["temperatures"]
    spec = _spec_for({**resolved.circuit, "gamma_dec": gamma_dec}, "bridge", bias, delta_omega)
    n_mid = spec.ho_truncation
    row = {
        "delta_omega": delta_omega,
        "gamma_dec": gamma_dec,
        "n_left": bias.n_left,
        "n_right": bias.n_right,
        "truncation": n_mid,
        "rate_mode": spec.bridge_rate_mode.value,
    }
    runs = []
    for gen, (half, mode, side) in zip(build_bridge_half_generators(spec), _BRIDGE_TRIOS):
        run = _steady(out, gen, bath_current_functional(spec, gen.layout, "right"), resolved.protocol)
        runs.append(run)
        row[f"solver_{half}"] = run.solver
        row[f"current_{half}_right"] = run.value
        row.update(run.block_columns())
        nbar = temp = fid = math.nan
        pops = [math.nan] * n_mid
        if run.converged:
            rep = mode_report(run.state, mode)
            thermal = DensityMatrix.from_matrix(
                rep.reduced.layout, thermal_state_matrix(n_mid, getattr(bias, f"n_{side}")))
            nbar, temp, pops = rep.mean_n, rep.effective_T, rep.populations
            fid = fidelity(thermal, rep.reduced)
        m = mode.lower()
        row.update({f"nbar_{m}": nbar, f"temp_{m}": temp, f"fid_{side}_{m}": fid})
        row.update({f"pop{k}_{m}": float(p) for k, p in enumerate(pops)})
    row["converged"] = all(run.converged for run in runs)
    return [row]


def _convergence_rows(resolved: ResolvedConfig, out: _Output, circuit: str,
                      bias: str) -> list[dict]:
    """Every block average of one run; writes its trajectory file when one is kept.
    Only a run that missed the threshold adds a ``converged`` column."""
    if circuit == "series":
        point = resolved.extras["series_point"]
        dw1, dw2 = point["delta_omega_d1"], point["delta_omega_d2"]
        gen, obs, sign = _two_way_setup(resolved, "series", bias, dw1, dw2)
    else:  # the bridge's driven lower half, under the temperature bias and its swap
        dw1 = dw2 = resolved.extras["bridge_point"]["delta_omega"]
        temps = resolved.biases["temperatures"]
        spec = _spec_for(resolved.circuit, "bridge",
                         temps if bias == "forward" else temps.swapped(bias), dw1)
        _, gen = build_bridge_half_generators(spec)
        obs = bath_current_functional(spec, gen.layout, "right")
        sign = 1.0
    run = _averaged(out, gen, obs, resolved.protocol,
                    resolved.extras["trajectory_points_per_block"])
    rows = [{
        "circuit": circuit,
        "bias": bias,
        "block_index": n,
        "block_average_current": sign * avg,
        "converged_block": run.converged_block,
        "blocks_used": run.blocks_used,
        "method": AVERAGED_METHOD,
        "delta_omega_d1": dw1,
        "delta_omega_d2": dw2,
        "rate_mode": resolved.circuit["bridge_rate_mode"],
    } for n, avg in enumerate(run.block_averages)]
    if not run.converged:
        for row in rows:
            row["converged"] = False
    traj = run.trajectory
    if traj is not None:
        out.write_csv(f"trajectory_{circuit}_{bias}.csv", ["time", traj.name],
                      [{"time": t, traj.name: sign * v} for t, v in zip(traj.times, traj.values)])
    return rows


def _single_diode_rows(resolved: ResolvedConfig, out, bias: str) -> list[dict]:
    """Full three-mode model against the reduced single-qutrit rate model at one bias."""
    setting = resolved.biases[bias]
    delta_omega = resolved.extras["delta_omega"]
    spec = _spec_for(resolved.circuit, "single-diode", setting, delta_omega)
    full, reduced = (_steady(out, gen, bath_current_functional(spec, gen.layout, "right"),
                             resolved.protocol)
                     for gen in (build_generator(spec), build_reduced_generator(spec)))

    # both currents vanish at equilibrium; the stopping rule's floor keeps
    # their round-off from reading as a 100% deviation
    scale = max(abs(full.value), CONVERGENCE_ABS_FLOOR)
    return [{
        "bias": bias,
        "n_left": setting.n_left,
        "n_right": setting.n_right,
        "current_full": full.value,
        "current_reduced": reduced.value,
        "rel_deviation": abs(reduced.value - full.value) / scale,
        **full.block_columns(),
        "converged": full.converged and reduced.converged,
        "delta_omega": delta_omega,
        "Gamma": resolved.circuit["Gamma"],
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
    """One built-in scenario, building the circuits ``topologies``.  ``bias``,
    ``axes`` (outer-to-inner grid order), ``extras`` (its own top-level keys)
    and ``circuit`` (departures from the common circuit) hold defaults; with
    ``open_bias`` any further bias label is one more point.
    ``rows(resolved, out, **point)`` computes the CSV rows of each of
    ``points(resolved)`` and may write side files through ``out.write_csv``;
    ``plot(ax, rows)`` draws the quick-look figure."""

    summary: str
    topologies: tuple[Topology, ...]
    bias: dict
    rows: Callable[..., list[dict]]
    plot: Callable
    axes: dict = field(default_factory=dict)
    points: Callable[[ResolvedConfig], list[dict]] = _grid_points
    extras: dict = field(default_factory=dict)
    circuit: dict = field(default_factory=dict)
    open_bias: bool = False


_TWO_WAY_BIAS = {"forward": [0.5, 0.0], "reverse": [0.0, 0.5]}
_BRIDGE_BIAS = {"temperatures": [1.0, 0.1]}

SCENARIOS = {
    "parallel-sweep": Scenario(
        summary="two diodes in parallel: currents and rectification over both anharmonicities",
        topologies=(Topology.PARALLEL,),
        bias=_TWO_WAY_BIAS, rows=functools.partial(_two_way_rows, topology="parallel"),
        plot=_plot_rectification,
        axes={"delta_omega_d1": [100.0, 200.0, 300.0],
              "delta_omega_d2": {"log_range": [50.0, 500.0], "points": 40}},
    ),
    "series-sweep": Scenario(
        summary="two diodes in series: currents, rectification, and ground-state populations",
        topologies=(Topology.SERIES,),
        bias=_TWO_WAY_BIAS, rows=functools.partial(_two_way_rows, topology="series"),
        plot=_plot_rectification,
        axes={"delta_omega_d1": [100.0, 200.0, 300.0], "delta_omega_d2": _series_default_grid()},
    ),
    "bridge-anharmonicity": Scenario(
        summary="bridge rectifier: output temperatures and fidelities vs anharmonicity",
        topologies=(Topology.BRIDGE,),
        bias=_BRIDGE_BIAS, rows=_bridge_rows,
        plot=functools.partial(_plot_bridge_temperatures, x_key="delta_omega"),
        axes={"delta_omega": {"log_range": [50.0, 500.0], "points": 40}},
    ),
    "bridge-decoherence": Scenario(
        summary="bridge rectifier: output temperatures and fidelities vs decoherence rate",
        topologies=(Topology.BRIDGE,),
        bias=_BRIDGE_BIAS, rows=_bridge_rows,
        plot=functools.partial(_plot_bridge_temperatures, x_key="gamma_dec"),
        axes={"delta_omega": [100.0, 200.0, 300.0],
              "gamma_dec": {"log_range": [1e-4, 1e-1], "points": 40}},
    ),
    "convergence-study": Scenario(
        summary="block-averaged current convergence of the series and bridge circuits",
        topologies=(Topology.SERIES, Topology.BRIDGE),
        bias={**_TWO_WAY_BIAS, **_BRIDGE_BIAS}, rows=_convergence_rows, plot=_plot_block_averages,
        points=lambda resolved: [{"circuit": circuit, "bias": bias}
                                 for circuit in ("series", "bridge-lower")
                                 for bias in ("forward", "reverse")],
        extras={"series_point": {"delta_omega_d1": 300.0, "delta_omega_d2": 450.0},
                "bridge_point": {"delta_omega": 300.0},
                "trajectory_points_per_block": 50},
    ),
    "single-diode-validation": Scenario(
        summary="full three-mode diode model against the reduced rate model",
        topologies=(Topology.SINGLE_DIODE,),
        bias={**_TWO_WAY_BIAS, "equilibrium": [0.5, 0.5]}, open_bias=True,
        rows=_single_diode_rows, plot=_plot_full_vs_reduced,
        points=lambda resolved: [{"bias": label} for label in resolved.biases],
        extras={"delta_omega": 300.0},
        circuit={"Gamma": 20.0, "ho_truncation": 4},
    ),
}

SCENARIO_NAMES = tuple(SCENARIOS)

_COMMON_CIRCUIT = {
    "Gamma": 10.0,
    "J": 1.0,
    "J_prime": 0.5,
    "ho_truncation": 8,
    "gamma_dec": 1e-3,
    "bridge_rate_mode": "physical-modulated",
}

# circuit values checked as finite reals: True for positive, False for nonnegative
_CIRCUIT_REALS = {"Gamma": True, "J": True, "J_prime": False, "gamma_dec": False}

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
    except OSError as err:
        raise ConfigError("(file)", f"cannot read config {source!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("(file)", f"config is not valid JSON: {err}") from err


def _positive_int(raw, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ConfigError(path, f"need a positive integer, got {raw!r}")
    return raw


def _real(raw, path: str, positive: bool = True) -> float:
    """A finite, non-bool number that is positive (or, if not ``positive``, nonnegative)."""
    if (isinstance(raw, bool) or not isinstance(raw, (int, float)) or not math.isfinite(raw)
            or raw < 0 or (positive and raw == 0)):
        sign = "positive" if positive else "nonnegative"
        raise ConfigError(path, f"need a finite {sign} number, got {raw!r}")
    return float(raw)


def _section(cfg: dict, key: str) -> dict:
    raw = cfg.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(key, "need a JSON object")
    return raw


def _pair(raw, path: str, shape: str = "[lo, hi]", positive: bool = True) -> tuple[float, float]:
    """Two ``_real`` values, both positive (or, if not ``positive``, nonnegative)."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(path, f"need {shape}, got {raw!r}")
    return _real(raw[0], path, positive), _real(raw[1], path, positive)


def _axis_values(raw, path: str, positive: bool) -> list[float]:
    """An axis grid of ``_real`` values: an explicit list, or ``points``
    over a ``range`` or ``log_range``."""
    if isinstance(raw, (list, tuple)):
        if not raw:
            raise ConfigError(path, "axis grid is empty")
        return [_real(x, path, positive) for x in raw]
    if isinstance(raw, dict):
        points = _positive_int(raw.get("points"), f"{path}.points")
        if "log_range" in raw:
            lo, hi = _pair(raw["log_range"], f"{path}.log_range", positive=positive)
            if not 0 < lo < hi:
                raise ConfigError(f"{path}.log_range", "need 0 < lo < hi")
            return _log_grid(lo, hi, points)
        if "range" in raw:
            lo, hi = _pair(raw["range"], f"{path}.range", positive=positive)
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
    return _real(raw, path)


def _root(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    return cfg


def validate_config(cfg: dict) -> ResolvedConfig:
    name = _root(cfg).get("name")
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
    for key, positive in _CIRCUIT_REALS.items():
        circuit[key] = _real(circuit[key], f"circuit.{key}", positive)
    truncation = _positive_int(circuit["ho_truncation"], "circuit.ho_truncation")
    if truncation < 2:  # CircuitSpec's bound: an oscillator keeps at least two levels
        raise ConfigError("circuit.ho_truncation", f"need an integer >= 2, got {truncation}")
    for topology in scenario.topologies:
        dim = max(layout.total_dim for layout in TOPOLOGIES[topology].block_layouts(truncation))
        if dim > SUPEROP_MATERIALIZE_DIM:
            raise ConfigError("circuit.ho_truncation",
                              f"N = {truncation} gives the {topology.value} circuit a block of "
                              f"dimension {dim} > SUPEROP_MATERIALIZE_DIM = {SUPEROP_MATERIALIZE_DIM}")

    protocol_defaults = dataclasses.asdict(ConvergenceProtocol())
    protocol_values = {}
    for key, raw in _section(cfg, "protocol").items():
        path = f"protocol.{key}"
        if key not in protocol_defaults:
            raise ConfigError(path, f"unknown protocol parameter; known: {sorted(protocol_defaults)}")
        check = _positive_int if isinstance(protocol_defaults[key], int) else _real
        protocol_values[key] = check(raw, path)
    try:
        protocol = ConvergenceProtocol(**protocol_values)
    except ValueError as err:
        raise ConfigError("protocol", str(err)) from err

    axes_cfg = _section(cfg, "axes")
    for key in axes_cfg:
        if key not in scenario.axes:
            raise ConfigError(f"axes.{key}", f"scenario {name!r} supports axes {sorted(scenario.axes)}")
    # declared order, whatever the config's key order: it fixes the row order
    axes = {key: _axis_values(axes_cfg.get(key, default), f"axes.{key}",
                              _CIRCUIT_REALS.get(key, True))
            for key, default in scenario.axes.items()}

    biases: dict[str, BiasSetting] = {}
    for label, raw in {**scenario.bias, **_section(cfg, "bias")}.items():
        if label not in scenario.bias and not scenario.open_bias:
            raise ConfigError(f"bias.{label}", f"scenario {name!r} reads biases {sorted(scenario.bias)}")
        if label == "temperatures":
            t_left, t_right = _pair(raw, f"bias.{label}", "[T_left, T_right]")
            biases[label] = BiasSetting.from_temperatures("forward", t_left, t_right)
        else:
            n_left, n_right = _pair(raw, f"bias.{label}", "[n_left, n_right]", positive=False)
            biases[label] = BiasSetting(label, n_left, n_right)

    if not isinstance(cfg.get("out_dir", ""), str):
        raise ConfigError("out_dir", f"need a string, got {cfg['out_dir']!r}")

    plot = cfg.get("plot", False)
    if not isinstance(plot, bool):
        raise ConfigError("plot", f"need true or false, got {plot!r}")

    extras = {key: _extra_value(cfg.get(key, default), default, key)
              for key, default in scenario.extras.items()}

    return ResolvedConfig(name=name, circuit=circuit, protocol=protocol, axes=axes,
                          biases=biases, plot=plot, extras=extras)


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


@dataclass
class _Output:
    """Output directory of one run, the side files the run wrote into it and
    the block dimensions its windowed averages ran on."""

    path: Path
    files: list[str] = field(default_factory=list)
    block_dims: set[int] = field(default_factory=set)

    def write_csv(self, name: str, columns: list[str], rows: list[dict]):
        _write_csv(self.path / name, columns, rows)
        self.files.append(name)


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
    cfg = _root(load_config(config))
    if circuit_overrides:
        cfg["circuit"] = {**_section(cfg, "circuit"), **circuit_overrides}
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
    out = _Output(out_path)
    points = scenario.points(resolved)
    rows = []
    for i, point in enumerate(points, 1):
        rows.extend(scenario.rows(resolved, out, **point))
        logger.info("%s: grid point %d/%d done", name, i, len(points))

    flagged = [i for i, row in enumerate(rows) if row.get("converged") is False]
    columns = _columns_from_rows(rows)
    csv_path = out_path / f"{name}.csv"
    _write_csv(csv_path, columns, rows)
    files = [csv_path.name, *out.files]

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
        "block_dims": sorted(out.block_dims),
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
