import csv
import dataclasses
import inspect
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from heatrect.circuits import CircuitSpec, bose_occupation
from heatrect.cli import main
from heatrect.lindblad import build_generator, qutrit_rate_table
from heatrect.observables import bath_current_functional
from heatrect.scenarios import (
    ConfigError,
    SCENARIO_NAMES,
    _COMMON_CIRCUIT,
    _quick_plot,
    default_config,
    load_config,
    run_scenario,
    validate_config,
)
from heatrect.spaces import partial_trace
from heatrect.steady import CONVERGENCE_ABS_FLOOR, ConvergenceProtocol, steady_state_averaged, steady_state_direct

T_DRIVE = 2.0 * math.pi / 300.0

FAST_PROTOCOL = {
    "block_length": 60 * T_DRIVE,
    "average_window": 15 * T_DRIVE,
    "rel_tol": 1e-3,
    "max_blocks": 30,
}


def tiny_parallel_config(**overrides):
    cfg = {
        "name": "parallel-sweep",
        "axes": {
            "delta_omega_d1": [200.0, 300.0],
            "delta_omega_d2": [100.0, 250.0, 400.0],
        },
    }
    cfg.update(overrides)
    return cfg


def test_all_default_configs_validate():
    for name in SCENARIO_NAMES:
        resolved = validate_config(default_config(name))
        assert resolved.name == name


def test_paper_defaults_agree_wherever_they_are_stated():
    # the scenarios' common circuit, the keyword defaults of CircuitSpec.build
    # and the dataclass defaults of CircuitSpec each state the paper's parameters
    build = {name: p.default for name, p in inspect.signature(CircuitSpec.build).parameters.items()
             if p.default is not inspect.Parameter.empty}
    spec = {f.name: f.default for f in dataclasses.fields(CircuitSpec) if f.default is not dataclasses.MISSING}
    assert sorted(_COMMON_CIRCUIT) == sorted(spec)
    for key, default in _COMMON_CIRCUIT.items():
        assert (build[key], spec[key]) == (default, default), key
    assert build["delta_omega"] == 300.0


def test_config_errors_carry_key_paths():
    with pytest.raises(ConfigError, match="name"):
        validate_config({"name": "unknown-sweep"})
    with pytest.raises(ConfigError, match="axes.delta_omega_d2"):
        validate_config(tiny_parallel_config(axes={"delta_omega_d2": []}))
    with pytest.raises(ConfigError, match="axes.bogus"):
        validate_config(tiny_parallel_config(axes={"bogus": [1.0]}))
    with pytest.raises(ConfigError, match="circuit.frobnicate"):
        validate_config(tiny_parallel_config(circuit={"frobnicate": 1}))
    with pytest.raises(ConfigError, match="circuit.bridge_rate_mode"):
        validate_config(tiny_parallel_config(circuit={"bridge_rate_mode": "banana"}))
    with pytest.raises(ConfigError, match=r"axes\.delta_omega_d2\.log_range"):
        validate_config(tiny_parallel_config(
            axes={"delta_omega_d2": {"log_range": [50, 100, 200], "points": 3}}))
    with pytest.raises(ConfigError, match=r"axes\.delta_omega_d2\.range"):
        validate_config(tiny_parallel_config(
            axes={"delta_omega_d2": {"range": [1.0], "points": 3}}))
    with pytest.raises(ConfigError, match=r"axes\.delta_omega_d2\.log_range"):
        validate_config(tiny_parallel_config(
            axes={"delta_omega_d2": {"log_range": ["a", 2], "points": 3}}))
    with pytest.raises(ConfigError, match=r"axes\.delta_omega_d2\.points"):
        validate_config(tiny_parallel_config(
            axes={"delta_omega_d2": {"log_range": [50, 100], "points": True}}))
    with pytest.raises(ConfigError, match="plot"):
        validate_config(tiny_parallel_config(plot="false"))
    with pytest.raises(ConfigError, match="threads"):
        validate_config(tiny_parallel_config(threads=0))
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(tiny_parallel_config(bogus=1))
    with pytest.raises(ConfigError, match=r"bias\.temperatures"):
        validate_config(tiny_parallel_config(bias={"temperatures": [1.0, 0.1]}))
    with pytest.raises(ConfigError, match="series_point"):
        validate_config(tiny_parallel_config(series_point={"delta_omega_d1": 300.0}))
    with pytest.raises(ConfigError, match=r"series_point\.delta_omega_d2"):
        validate_config({"name": "convergence-study", "series_point": {"delta_omega_d2": "x"}})
    with pytest.raises(ConfigError, match=r"series_point\.bogus"):
        validate_config({"name": "convergence-study", "series_point": {"bogus": 1.0}})
    with pytest.raises(ConfigError, match="bridge_point"):
        validate_config({"name": "convergence-study", "bridge_point": [300.0]})
    with pytest.raises(ConfigError, match=r"circuit\.ho_truncation"):
        validate_config({"name": "single-diode-validation", "circuit": {"ho_truncation": 14}})
    # CircuitSpec's bound: an oscillator keeps at least two levels, whether
    # or not the scenario's circuit has one
    for name, truncation in (("parallel-sweep", 1), ("bridge-anharmonicity", 1),
                             ("single-diode-validation", 0)):
        with pytest.raises(ConfigError, match=r"^circuit\.ho_truncation: need"):
            validate_config({"name": name, "circuit": {"ho_truncation": truncation}})
    for out_dir in (5, ["a"], None):
        with pytest.raises(ConfigError, match="^out_dir: need a string"):
            validate_config(tiny_parallel_config(out_dir=out_dir))
    with pytest.raises(ConfigError, match="protocol"):
        validate_config(tiny_parallel_config(protocol={"rel_tol": -1.0}))
    with pytest.raises(ConfigError, match=r"circuit\.Gamma"):
        validate_config(tiny_parallel_config(circuit={"Gamma": "10"}))
    with pytest.raises(ConfigError, match=r"circuit\.Gamma"):
        validate_config(tiny_parallel_config(circuit={"Gamma": -1}))
    with pytest.raises(ConfigError, match=r"circuit\.J:"):
        validate_config(tiny_parallel_config(circuit={"J": True}))
    with pytest.raises(ConfigError, match=r"circuit\.J_prime"):
        validate_config(tiny_parallel_config(circuit={"J_prime": -0.5}))
    with pytest.raises(ConfigError, match=r"circuit\.gamma_dec"):
        validate_config(tiny_parallel_config(circuit={"gamma_dec": math.nan}))
    with pytest.raises(ConfigError, match="^circuit: need a JSON object"):
        validate_config(tiny_parallel_config(circuit=[]))
    with pytest.raises(ConfigError, match="^protocol: need a JSON object"):
        validate_config(tiny_parallel_config(protocol=0))
    with pytest.raises(ConfigError, match=r"protocol\.max_blocks"):
        validate_config(tiny_parallel_config(protocol={"max_blocks": 2.5}))
    with pytest.raises(ConfigError, match=r"protocol\.block_length"):
        validate_config(tiny_parallel_config(protocol={"block_length": math.inf}))
    with pytest.raises(ConfigError, match=r"protocol\.bogus"):
        validate_config(tiny_parallel_config(protocol={"bogus": 1.0}))
    # values that pass one by one but not as a protocol
    for protocol, field in (({"average_window": 6000.0}, "average_window"), ({"max_blocks": 1}, "max_blocks")):
        with pytest.raises(ConfigError, match=rf"^protocol: {field} must"):
            validate_config(tiny_parallel_config(protocol=protocol))
    # bias entries: occupations finite and nonnegative, temperatures finite and positive
    for bias in ({"forward": [True, 0.0]}, {"forward": [0.5, "0.5"]},
                 {"reverse": [-0.5, 0.0]}, {"forward": [0.5, math.inf]}):
        label = next(iter(bias))
        with pytest.raises(ConfigError, match=rf"^bias\.{label}: need a finite nonnegative"):
            validate_config(tiny_parallel_config(bias=bias))
    for temperatures in ([0, 0.1], [-1, 0.1], [1.0, math.nan], [1.0, "0.1"], [1.0]):
        with pytest.raises(ConfigError, match=r"^bias\.temperatures"):
            validate_config({"name": "bridge-anharmonicity", "bias": {"temperatures": temperatures}})
    # axis entries and range bounds: anharmonicities positive, gamma_dec nonnegative
    for values in (["300", True], [math.nan], [-300.0], [0.0]):
        with pytest.raises(ConfigError, match=r"^axes\.delta_omega_d1: need a finite positive"):
            validate_config(tiny_parallel_config(axes={"delta_omega_d1": values}))
    with pytest.raises(ConfigError, match=r"^axes\.delta_omega_d2\.range: need a finite positive"):
        validate_config(tiny_parallel_config(
            axes={"delta_omega_d2": {"range": [-300, 100], "points": 3}}))
    for axis, message in (({"log_range": [100.0, 50.0], "points": 3}, r"\.log_range: need 0 < lo < hi"),
                          ({"log_range": [100.0, 100.0], "points": 3}, r"\.log_range: need 0 < lo < hi"),
                          ({"points": 3}, ": axis dict needs 'log_range' or 'range'"),
                          ("300", ": cannot interpret axis value '300'")):
        with pytest.raises(ConfigError, match=rf"^axes\.delta_omega_d2{message}"):
            validate_config(tiny_parallel_config(axes={"delta_omega_d2": axis}))
    with pytest.raises(ConfigError, match=r"^axes\.gamma_dec: need a finite nonnegative"):
        validate_config({"name": "bridge-decoherence", "axes": {"gamma_dec": [-1e-3]}})
    assert validate_config(
        {"name": "bridge-decoherence", "axes": {"gamma_dec": [0, 1e-3]}}).axes["gamma_dec"] == [0.0, 1e-3]
    with pytest.raises(ConfigError, match="no such config"):
        load_config("does-not-exist.json")
    with pytest.raises(ConfigError, match=r"^\(file\): cannot read config"):
        load_config(Path(__file__).parent)


def test_truncation_above_the_sector_guard_is_a_config_error(tmp_path, capsys):
    # the guard bounds each block's excitation-number sector, which bounds the
    # real block that the dense routes hold; a bridge trio's is 81 N - 104 from N = 4
    for name in ("bridge-anharmonicity", "bridge-decoherence", "convergence-study"):
        assert validate_config({"name": name, "circuit": {"ho_truncation": 26}}).circuit["ho_truncation"] == 26
        with pytest.raises(ConfigError, match=r"^circuit\.ho_truncation: .*excitation sector is 2083 > "):
            validate_config({"name": name, "circuit": {"ho_truncation": 27}})
    # the full single diode's sector is 2001 at N = 7; at N = 13 its dimension
    # 3 N^2 = 507 is below SUPEROP_MATERIALIZE_DIM, but its sector is 13071
    assert validate_config({"name": "single-diode-validation",
                            "circuit": {"ho_truncation": 7}}).circuit["ho_truncation"] == 7
    for n, sector in ((8, 3006), (13, 13071)):
        with pytest.raises(ConfigError, match=rf"^circuit\.ho_truncation: .*excitation sector is {sector} > "):
            validate_config({"name": "single-diode-validation", "circuit": {"ho_truncation": n}})
    # refused before anything runs
    for truncation in ("27", "1"):
        assert main(["run", "bridge-anharmonicity", "--truncation", truncation,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error at circuit.ho_truncation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_axis_forms():
    cfg = tiny_parallel_config(axes={
        "delta_omega_d1": {"log_range": [100.0, 400.0], "points": 3},
        "delta_omega_d2": {"range": [100.0, 200.0], "points": 5},
    })
    resolved = validate_config(cfg)
    assert resolved.axes["delta_omega_d1"] == pytest.approx([100.0, 200.0, 400.0])
    assert resolved.axes["delta_omega_d2"] == pytest.approx([100.0, 125.0, 150.0, 175.0, 200.0])


def test_parallel_sweep_runs_and_is_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    r1 = run_scenario(tiny_parallel_config(), out_dir=out1)
    r2 = run_scenario(tiny_parallel_config(), out_dir=out2)
    assert len(r1.rows) == 6
    assert not r1.flagged_rows
    body1 = (out1 / "parallel-sweep.csv").read_bytes()
    body2 = (out2 / "parallel-sweep.csv").read_bytes()
    assert body1 == body2

    meta = json.loads((out1 / "metadata.json").read_text())
    assert meta["scenario"] == "parallel-sweep"
    assert meta["rate_mode"] == "physical-modulated"
    assert meta["row_count"] == 6
    assert len(meta["resolved_config"]["axes"]["delta_omega_d2"]) == 3
    # the parallel circuit is never driven: its direct solves record their block too
    assert meta["block_dims"] == [9]


def test_row_order_follows_declared_axes(tmp_path):
    declared = tiny_parallel_config()
    reordered = tiny_parallel_config(axes=dict(reversed(list(declared["axes"].items()))))
    assert list(reordered["axes"]) == ["delta_omega_d2", "delta_omega_d1"]
    run_scenario(declared, out_dir=tmp_path / "declared")
    run_scenario(reordered, out_dir=tmp_path / "reordered")
    body_d = (tmp_path / "declared" / "parallel-sweep.csv").read_bytes()
    body_r = (tmp_path / "reordered" / "parallel-sweep.csv").read_bytes()
    assert body_d == body_r


def test_parallel_rows_monotone_rectification(tmp_path):
    result = run_scenario(tiny_parallel_config(), out_dir=tmp_path)
    by_d1 = {}
    for row in result.rows:
        by_d1.setdefault(row["delta_omega_d1"], []).append(row)
    for rows in by_d1.values():
        currents = [abs(r["current_reverse"]) for r in rows]
        assert currents == sorted(currents, reverse=True)


def test_series_sweep_small_grid(tmp_path):
    cfg = {
        "name": "series-sweep",
        "axes": {"delta_omega_d1": [300.0], "delta_omega_d2": [250.0, 300.0]},
    }
    result = run_scenario(cfg, out_dir=tmp_path)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["current_forward"] > 0
        assert row["current_reverse"] <= 0
        assert row["rectification"] > 0
        assert 0 <= row["p0_d1_reverse"] <= 1
        assert row["converged_block_forward"] >= 1
    csv_text = (tmp_path / "series-sweep.csv").read_text()
    assert csv_text.splitlines()[0].startswith("delta_omega_d1,delta_omega_d2")
    assert json.loads((tmp_path / "metadata.json").read_text())["block_dims"] == [18]


def test_bridge_point_small(tmp_path):
    cfg = {
        "name": "bridge-anharmonicity",
        "axes": {"delta_omega": [300.0]},
        "circuit": {"ho_truncation": 3},
    }
    result = run_scenario(cfg, out_dir=tmp_path)
    row = result.rows[0]
    assert row["truncation"] == 3
    assert row["rate_mode"] == "physical-modulated"
    assert row["solver_upper"] == "direct"
    assert 0 < row["fid_left_m1"] <= 1
    assert 0 < row["fid_right_m2"] <= 1
    assert row["temp_m1"] > row["temp_m2"]
    pops = [row[f"pop{k}_m1"] for k in range(3)]
    assert pytest.approx(sum(pops), abs=1e-9) == 1.0
    # the direct upper trio and the windowed-average lower trio share one block size
    assert row["solver_lower"] == "windowed-average"
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["block_dims"] == [141]
    # each bias as [n_left, n_right]
    assert meta["resolved_config"]["biases"] == {"temperatures": [bose_occupation(1.0), bose_occupation(10.0)]}


def test_convergence_study_writes_trajectories(tmp_path):
    cfg = {
        "name": "convergence-study",
        "series_point": {"delta_omega_d1": 300.0, "delta_omega_d2": 300.0},
        "bridge_point": {"delta_omega": 300.0},
        "circuit": {"ho_truncation": 3},
        "trajectory_points_per_block": 5,
    }
    result = run_scenario(cfg, out_dir=tmp_path)
    circuits = {row["circuit"] for row in result.rows}
    assert circuits == {"series", "bridge-lower"}
    for name in (
        "trajectory_series_forward.csv",
        "trajectory_series_reverse.csv",
        "trajectory_bridge-lower_forward.csv",
        "trajectory_bridge-lower_reverse.csv",
    ):
        assert (tmp_path / name).exists(), name
    assert sorted(result.files) == sorted([
        "convergence-study.csv", "metadata.json",
        "trajectory_series_forward.csv", "trajectory_series_reverse.csv",
        "trajectory_bridge-lower_forward.csv", "trajectory_bridge-lower_reverse.csv",
    ])
    # block indices are contiguous from zero for each run
    series_fwd = [r for r in result.rows if r["circuit"] == "series" and r["bias"] == "forward"]
    assert [r["block_index"] for r in series_fwd] == list(range(len(series_fwd)))
    assert json.loads((tmp_path / "metadata.json").read_text())["block_dims"] == [18, 141]


def test_files_list_only_what_the_run_wrote(tmp_path):
    stale = tmp_path / "trajectory_series_forward.csv"
    stale.write_text("time,emission_current\n")
    cfg = {"name": "convergence-study", "circuit": {"ho_truncation": 2},
           "protocol": FAST_PROTOCOL, "trajectory_points_per_block": None}
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.files == ["convergence-study.csv", "metadata.json"]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["files"] == ["convergence-study.csv"]
    assert stale.read_text() == "time,emission_current\n"


def test_single_diode_validation_report(tmp_path):
    # further bias labels that hold a comma and a quote are quoted in the CSV
    odd = ("hot, left", 'say "q"')
    cfg = {
        "name": "single-diode-validation",
        "circuit": {"ho_truncation": 2, "Gamma": 20.0},
        "bias": {odd[0]: [0.5, 0.1], odd[1]: [0.1, 0.5]},
    }
    rows = {row["bias"]: row for row in run_scenario(cfg, out_dir=tmp_path).rows}
    assert set(rows) == {"forward", "reverse", "equilibrium", *odd}
    with (tmp_path / "single-diode-validation.csv").open(newline="") as f:
        header, *table = csv.reader(f)
    assert all(len(line) == len(header) for line in table)
    assert [line[header.index("bias")] for line in table] == list(rows)
    assert all(row["truncation"] == 2 for row in rows.values())
    assert abs(rows["forward"]["current_full"] / rows["reverse"]["current_full"]) > 1.0
    # both equilibrium currents are round-off of zero, below the stopping
    # rule's floor, so they deviate by nothing
    eq = rows["equilibrium"]
    assert max(abs(eq["current_full"]), abs(eq["current_reduced"])) < CONVERGENCE_ABS_FLOOR
    assert eq["rel_deviation"] == 0.0
    # the reduced qutrit's direct solve and the full model's windowed average
    assert json.loads((tmp_path / "metadata.json").read_text())["block_dims"] == [3, 36]
    # N = 14 gives the full model an excitation sector of 16344, above the guard
    with pytest.raises(ConfigError, match="ho_truncation"):
        validate_config({
            "name": "single-diode-validation",
            "circuit": {"ho_truncation": 14},
        })


def _current_from_bath(rho, tables) -> float:
    """Test-side net excitation current from a bath into the system through
    its rate contacts: absorption r01 P0 + r12 P1 minus emission r10 P1 + r21 P2."""
    total = 0.0
    for label, t in tables.items():
        p = np.real(np.diag(partial_trace(rho, [label]).data))
        total += t.get(0, 1) * p[0] + t.get(1, 2) * p[1] - t.get(1, 0) * p[1] - t.get(2, 1) * p[2]
    return total


def test_parallel_currents_are_net_at_a_warm_receiving_bath(tmp_path):
    # forward reports the net current into the right bath, reverse minus the
    # net current into the left one; the direct solve conserves excitations,
    # so each equals the current the other bath feeds in.  A decay-only
    # current misses the warm receiving bath's absorption (9.5e-2 vs 5.8e-2)
    bias = {"forward": [0.5, 0.1], "reverse": [0.1, 0.5]}
    dw = {"D1": 100.0, "D2": 150.0}
    cfg = tiny_parallel_config(bias=bias, axes={"delta_omega_d1": [dw["D1"]],
                                                "delta_omega_d2": [dw["D2"]]})
    row = run_scenario(cfg, out_dir=tmp_path).rows[0]
    for label, source, sign in (("forward", "left", 1.0), ("reverse", "right", -1.0)):
        n_left, n_right = bias[label]
        spec = CircuitSpec.build("parallel", n_left=n_left, n_right=n_right, delta_omega=dw)
        rho = steady_state_direct(build_generator(spec))
        # each diode meets the left bath through a modulated coupling
        n = spec.bath(source).n
        fed = _current_from_bath(rho, {label: qutrit_rate_table(spec.delta_omega[label], spec.J, spec.J_prime, n, spec.Gamma,
                                                                 source == "left") for label in ("D1", "D2")})
        assert row[f"current_{label}"] == pytest.approx(sign * fed, rel=1e-12)


def test_cli_scenarios_and_validate(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIO_NAMES:
        assert name in out

    assert main(["validate", "parallel-sweep"]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out

    for name, points in (("parallel-sweep", 120), ("convergence-study", 4),
                         ("single-diode-validation", 3), ("bridge-anharmonicity", 40)):
        assert main(["validate", name]) == 0
        summary = json.loads(capsys.readouterr().out.rsplit("config ok", 1)[0])
        assert summary["grid_points"] == points, name
        if name == "bridge-anharmonicity":
            assert summary["biases"] == {"temperatures": [bose_occupation(1.0), bose_occupation(10.0)]}


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_parallel_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "parallel-sweep.csv").exists()
    assert "grid point" not in capsys.readouterr().err

    # -v routes the log records to stderr for the run, and only for it
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out_v"), "-v"]) == 0
    assert "INFO heatrect: parallel-sweep: grid point 6/6 done" in capsys.readouterr().err
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out_q")]) == 0
    assert "grid point" not in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "parallel-sweep", "axes": {"delta_omega_d1": []}}))
    assert main(["run", str(bad), "--out", str(tmp_path / "out2")]) == 2
    err = capsys.readouterr().err
    assert "axes.delta_omega_d1" in err

    leftover = tmp_path / "threads.json"
    leftover.write_text(json.dumps(tiny_parallel_config(threads=2)))
    assert main(["run", str(leftover), "--out", str(tmp_path / "out3")]) == 2
    assert "config error at threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("config, path", [
    ({"name": "parallel-sweep", "circuit": {"ho_truncation": 1}}, "circuit.ho_truncation"),
    (tiny_parallel_config(out_dir=5), "out_dir"),
    (None, "(file)"),  # the config path names a directory
    (b"\xff", "(file)"),  # the config file is not UTF-8
    (b"{not json", "(file)"),
], ids=["truncation", "out-dir", "directory", "not-utf8", "not-json"])
def test_cli_reports_bad_truncation_out_dir_and_config_path_as_config_errors(
        tmp_path, capsys, command, config, path):
    source = tmp_path / "config"
    if config is None:
        source.mkdir()
    elif isinstance(config, bytes):
        source.write_bytes(config)
    else:
        source.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, str(source), *(["--out", str(out)] if command == "run" else [])]) == 2
    assert f"config error at {path}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_an_out_dir_that_names_a_file_as_a_config_error(tmp_path, capsys):
    source = tmp_path / "parallel.json"
    source.write_text(json.dumps(tiny_parallel_config()))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(source), "--out", str(taken)]) == 2
    assert "config error at out_dir" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_cli_truncation_and_rate_mode_overrides(tmp_path, capsys):
    cfg = {
        "name": "bridge-anharmonicity",
        "axes": {"delta_omega": [300.0]},
        "circuit": {"ho_truncation": 3},
    }
    cfg_path = tmp_path / "bridge.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main([
        "run", str(cfg_path), "--out", str(tmp_path / "out"),
        "--truncation", "3", "--rate-mode", "paper",
    ])
    assert code == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["rate_mode"] == "paper-literal"
    assert meta["resolved_config"]["circuit"]["ho_truncation"] == 3


@pytest.mark.parametrize("cfg, path", [
    ({"name": "bridge-anharmonicity", "circuit": [1]}, "circuit"),
    ({"name": "bridge-anharmonicity", "circuit": None}, "circuit"),
    (["bridge-anharmonicity"], "(root)"),
], ids=["circuit-list", "circuit-null", "root-list"])
def test_cli_overrides_on_a_malformed_config_are_config_errors(tmp_path, capsys, cfg, path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    for flags in ([], ["--truncation", "3"], ["--rate-mode", "paper", "--plot"]):
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), *flags]) == 2
        assert f"config error at {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_undriven_bridge_takes_the_direct_solve(tmp_path):
    # at J' = 0 neither trio is driven, so both take the exact direct solve and
    # mirror each other; a windowed average of the lower trio is 7e-8 off
    cfg = {"name": "bridge-anharmonicity", "axes": {"delta_omega": [300.0]},
           "circuit": {"ho_truncation": 3, "J_prime": 0}}
    result = run_scenario(cfg, out_dir=tmp_path)
    (row,) = result.rows
    assert row["solver_upper"] == row["solver_lower"] == "direct"
    assert "converged_block" not in result.columns and "blocks_used" not in result.columns
    assert row["converged"] is True
    assert row["current_lower_right"] == pytest.approx(row["current_upper_right"], rel=1e-12)
    assert row["temp_m2"] == pytest.approx(row["temp_m1"], rel=1e-12)


def test_undriven_series_takes_the_direct_solve(tmp_path):
    point = {"D1": 300.0, "D2": 150.0}
    cfg = {"name": "series-sweep", "circuit": {"J_prime": 0},
           "axes": {"delta_omega_d1": [point["D1"]], "delta_omega_d2": [point["D2"]]}}
    (row,) = run_scenario(cfg, out_dir=tmp_path).rows
    assert row["solver"] == "direct"
    assert "converged_block_forward" not in row and "blocks_reverse" not in row
    # the windowed average of the same generators agrees within its own rel_tol
    protocol = ConvergenceProtocol()
    for label, (side, sign) in (("forward", ("right", 1.0)), ("reverse", ("left", -1.0))):
        n_left, n_right = default_config("series-sweep")["bias"][label]
        spec = CircuitSpec.build("series", n_left=n_left, n_right=n_right, delta_omega=point,
                                 J_prime=0.0)
        gen = build_generator(spec)
        assert not gen.drive_frequencies
        averaged = steady_state_averaged(
            gen, protocol=protocol, observable=bath_current_functional(gen, side))
        assert row[f"current_{label}"] == pytest.approx(sign * averaged.value,
                                                        rel=protocol.rel_tol)


def test_route_rule_at_j_prime_zero(tmp_path):
    # with no drive every two-diode row takes the direct solve and writes no
    # block columns, while the convergence study still steps every run
    circuit = {"J_prime": 0, "ho_truncation": 2}
    series = run_scenario({"name": "series-sweep", "circuit": circuit,
                           "axes": {"delta_omega_d1": [300.0], "delta_omega_d2": [150.0]}},
                          out_dir=tmp_path / "series")
    (row,) = series.rows
    assert row["solver"] == "direct" and row["converged"] is True
    assert not [k for k in series.columns if k.startswith(("converged_block", "blocks"))]
    study = run_scenario({"name": "convergence-study", "circuit": circuit}, out_dir=tmp_path / "study")
    assert len(study.rows) == 57 and not study.flagged_rows
    assert all(r["method"] == "compiled-block-map" and r["blocks_used"] >= 2 for r in study.rows)
    meta = json.loads((tmp_path / "study" / "metadata.json").read_text())
    assert meta["block_dims"] == [18, 70]


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("HEATRECT_OUT_DIR", str(tmp_path / "envout"))
    result = run_scenario(tiny_parallel_config())
    assert result.out_dir == tmp_path / "envout"
    assert (tmp_path / "envout" / "parallel-sweep.csv").exists()


def test_quick_plot_svg(tmp_path):
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        with pytest.warns(UserWarning, match="plot skipped"):
            result = run_scenario(tiny_parallel_config(plot=True), out_dir=tmp_path)
        assert "parallel-sweep.svg" not in result.files
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert "matplotlib" in meta["plot_skipped"]
        return
    result = run_scenario(tiny_parallel_config(plot=True), out_dir=tmp_path)
    assert "parallel-sweep.svg" in result.files
    assert (tmp_path / "parallel-sweep.svg").stat().st_size > 0


class _Recorder:
    """Stand-in for a matplotlib figure or axes: every method call is
    appended to ``calls`` as (owner, method, args)."""

    def __init__(self, owner: str, calls: list):
        self._owner, self._calls = owner, calls

    def __getattr__(self, method):
        def call(*args, **kwargs):
            self._calls.append((self._owner, method, args))
            if method == "savefig":
                Path(args[0]).write_text("<svg/>")
        return call


@pytest.fixture
def stub_pyplot(monkeypatch):
    """Stub ``matplotlib`` and ``matplotlib.pyplot`` modules, so the plot
    path runs without matplotlib: the figure and axes record their calls."""
    calls = []
    fig, ax = _Recorder("fig", calls), _Recorder("ax", calls)
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda **kwargs: (fig, ax)
    pyplot.close = lambda figure: calls.append(("plt", "close", (figure,)))
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: calls.append(("matplotlib", "use", (backend,)))
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return types.SimpleNamespace(calls=calls, fig=fig)


# a small config of each scenario, the axes method its draw function calls
# once per curve, and the number of curves of that config
_PLOT_CASES = {
    "parallel-sweep": ({"axes": {"delta_omega_d1": [200.0, 300.0], "delta_omega_d2": [100.0, 400.0]}},
                       "loglog", 2),
    "series-sweep": ({"axes": {"delta_omega_d1": [300.0], "delta_omega_d2": [150.0, 450.0]}}, "loglog", 1),
    "bridge-anharmonicity": ({"circuit": {"ho_truncation": 2}, "axes": {"delta_omega": [150.0, 300.0]}},
                             "semilogx", 2),
    "bridge-decoherence": ({"circuit": {"ho_truncation": 2},
                            "axes": {"delta_omega": [300.0], "gamma_dec": [1e-3, 1e-2]}}, "semilogx", 2),
    "convergence-study": ({"circuit": {"ho_truncation": 2}, "trajectory_points_per_block": None},
                          "semilogy", 4),
    "single-diode-validation": ({"circuit": {"ho_truncation": 2}}, "bar", 2),
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_quick_plot_draws_every_scenario(name, tmp_path, stub_pyplot):
    overrides, curve, count = _PLOT_CASES[name]
    result = run_scenario({"name": name, "plot": True, **overrides}, out_dir=tmp_path)
    svg = f"{name}.svg"
    assert svg in result.files and (tmp_path / svg).exists()
    assert svg in json.loads((tmp_path / "metadata.json").read_text())["files"]
    ax_calls = [(method, args) for owner, method, args in stub_pyplot.calls if owner == "ax"]
    assert sum(method == curve for method, _ in ax_calls) == count
    assert ("legend", ()) in ax_calls and ("set_title", (name,)) in ax_calls
    assert stub_pyplot.calls[-1] == ("plt", "close", (stub_pyplot.fig,))


def test_bridge_decoherence_plot_draws_one_series_per_delta_omega(tmp_path, stub_pyplot):
    # the rows of each delta_omega form their own curve over gamma_dec, not
    # one line that jumps back at every new delta_omega
    config = {"name": "bridge-decoherence", "plot": True, "circuit": {"ho_truncation": 2},
              "axes": {"delta_omega": [100.0, 300.0], "gamma_dec": [1e-3, 1e-2]}}
    run_scenario(config, out_dir=tmp_path)
    curves = [args for owner, method, args in stub_pyplot.calls if method == "semilogx"]
    assert len(curves) == 4
    assert all(list(xs) == [1e-3, 1e-2] for xs, *_ in curves)


def test_quick_plot_closes_the_figure_when_drawing_fails(tmp_path, stub_pyplot):
    def draw(ax, rows):
        raise RuntimeError("draw failed")

    with pytest.raises(RuntimeError, match="draw failed"):
        _quick_plot("parallel-sweep", draw, [], tmp_path)
    assert stub_pyplot.calls[-1] == ("plt", "close", (stub_pyplot.fig,))
    assert not (tmp_path / "parallel-sweep.svg").exists()


def test_dict_config_takes_numpy_scalars(tmp_path):
    # list(np.arange(...)) holds np.int64, which json cannot write
    cfg = {"name": "parallel-sweep", "plot": np.bool_(False),
           "axes": {"delta_omega_d1": list(np.arange(100, 301, 100)),
                    "delta_omega_d2": [np.float32(150.0)]}}
    resolved = validate_config(load_config(cfg))
    assert resolved.axes == {"delta_omega_d1": [100.0, 200.0, 300.0], "delta_omega_d2": [150.0]}
    assert resolved.plot is False
    numpy_rows = run_scenario(cfg, out_dir=tmp_path / "numpy").rows
    plain = {"name": "parallel-sweep", "axes": {"delta_omega_d1": [100, 200, 300], "delta_omega_d2": [150.0]}}
    assert numpy_rows == run_scenario(plain, out_dir=tmp_path / "plain").rows
    # anything else that is not JSON data is a config error, not a bare TypeError
    for bad in ({"delta_omega_d1": {100.0}}, {"delta_omega_d1": np.array([100.0])}, {(1, 2): [100.0]}):
        with pytest.raises(ConfigError, match=r"^\(root\): config is not JSON data"):
            load_config({"name": "parallel-sweep", "axes": bad})


NONCONVERGENT_PROTOCOL = {
    "block_length": 60 * T_DRIVE,
    "average_window": 15 * T_DRIVE,
    "rel_tol": 1e-12,
    "max_blocks": 2,
}


# the flagged run's state-derived columns, which are NaN: the bridge's upper
# trio takes the direct solve and keeps its own
@pytest.mark.parametrize("cfg, flagged, nan_columns", [
    ({"name": "series-sweep",
      "axes": {"delta_omega_d1": [300.0], "delta_omega_d2": [500.0]}}, [0],
     ["p0_d1_reverse", "p0_d2_reverse"]),
    ({"name": "bridge-anharmonicity", "axes": {"delta_omega": [300.0]},
      "circuit": {"ho_truncation": 2}}, [0],
     ["nbar_m2", "temp_m2", "fid_right_m2", "pop0_m2", "pop1_m2"]),
    # every block average of the four runs is kept: 2 blocks each
    ({"name": "convergence-study", "circuit": {"ho_truncation": 2}}, list(range(8)), []),
    ({"name": "single-diode-validation", "circuit": {"ho_truncation": 2}}, [0, 1, 2], []),
], ids=["series-sweep", "bridge-anharmonicity", "convergence-study", "single-diode-validation"])
def test_nonconvergent_rows_are_flagged(tmp_path, capsys, cfg, flagged, nan_columns):
    cfg = {**cfg, "protocol": NONCONVERGENT_PROTOCOL}
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.flagged_rows == flagged
    for i in flagged:
        row = result.rows[i]
        assert row["converged"] is False
        block_columns = [k for k in row if k.startswith(("converged_block", "blocks"))]
        assert block_columns
        for key in block_columns:
            expected = -1 if key.startswith("converged_block") else NONCONVERGENT_PROTOCOL["max_blocks"]
            assert row[key] == expected, key
        assert all(math.isnan(row[key]) for key in nan_columns)
    if cfg["name"] == "bridge-anharmonicity":
        assert all(math.isfinite(result.rows[0][key]) for key in ("temp_m1", "fid_left_m1"))
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["flagged_rows"] == flagged
    if cfg["name"] == "convergence-study":
        assert all(row["method"] == "compiled-block-map" for row in result.rows)
        # a run out of blocks keeps its trajectory, sampled through its last
        # block: 2 blocks of 60 periods (block_length_effective) at 300
        trajectories = [f"trajectory_{c}_{b}.csv" for c in ("series", "bridge-lower")
                        for b in ("forward", "reverse")]
        assert set(trajectories) <= set(result.files) and set(trajectories) <= set(meta["files"])
        for name in trajectories:
            times = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 0]
            assert times[-1] == pytest.approx(120 * T_DRIVE, rel=1e-11), name

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
    assert "did not meet" in capsys.readouterr().err
