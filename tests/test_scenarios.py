import json
import math

import pytest

from heatrect.cli import main
from heatrect.scenarios import (
    ConfigError,
    SCENARIO_NAMES,
    default_config,
    load_config,
    run_scenario,
    validate_config,
    validate_single_diode,
)

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
        validate_config({"name": "single-diode-validation", "circuit": {"ho_truncation": 5}})
    with pytest.raises(ConfigError, match="protocol"):
        validate_config(tiny_parallel_config(protocol={"rel_tol": -1.0}))
    with pytest.raises(ConfigError, match="no such config"):
        load_config("does-not-exist.json")


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
    # block indices are contiguous from zero for each run
    series_fwd = [r for r in result.rows if r["circuit"] == "series" and r["bias"] == "forward"]
    assert [r["block_index"] for r in series_fwd] == list(range(len(series_fwd)))


def test_single_diode_validation_report():
    cfg = {
        "name": "single-diode-validation",
        "circuit": {"ho_truncation": 2, "Gamma": 20.0},
    }
    report = validate_single_diode(cfg)
    assert report["truncation"] == 2
    biases = {row["bias"] for row in report["rows"]}
    assert biases == {"forward", "reverse", "equilibrium"}
    assert report["forward_reverse_ratio"] > 1.0
    with pytest.raises(ConfigError, match="ho_truncation"):
        validate_single_diode({
            "name": "single-diode-validation",
            "circuit": {"ho_truncation": 6},
        })


def test_cli_scenarios_and_validate(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIO_NAMES:
        assert name in out

    assert main(["validate", "parallel-sweep"]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out

    for name, points in (("parallel-sweep", 120), ("convergence-study", 4),
                         ("single-diode-validation", 3)):
        assert main(["validate", name]) == 0
        summary = json.loads(capsys.readouterr().out.rsplit("config ok", 1)[0])
        assert summary["grid_points"] == points, name


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_parallel_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "parallel-sweep.csv").exists()
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "parallel-sweep", "axes": {"delta_omega_d1": []}}))
    assert main(["run", str(bad), "--out", str(tmp_path / "out2")]) == 2
    err = capsys.readouterr().err
    assert "axes.delta_omega_d1" in err

    leftover = tmp_path / "threads.json"
    leftover.write_text(json.dumps(tiny_parallel_config(threads=2)))
    assert main(["run", str(leftover), "--out", str(tmp_path / "out3")]) == 2
    assert "config error at threads" in capsys.readouterr().err


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
            result = run_scenario(tiny_parallel_config(), out_dir=tmp_path, plot=True)
        assert "parallel-sweep.svg" not in result.files
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert "matplotlib" in meta["plot_skipped"]
        return
    result = run_scenario(tiny_parallel_config(), out_dir=tmp_path, plot=True)
    assert "parallel-sweep.svg" in result.files
    assert (tmp_path / "parallel-sweep.svg").stat().st_size > 0


NONCONVERGENT_PROTOCOL = {
    "block_length": 60 * T_DRIVE,
    "average_window": 15 * T_DRIVE,
    "rel_tol": 1e-12,
    "max_blocks": 2,
}


@pytest.mark.parametrize("cfg, flagged", [
    ({"name": "series-sweep",
      "axes": {"delta_omega_d1": [300.0], "delta_omega_d2": [500.0]}}, [0]),
    ({"name": "bridge-anharmonicity", "axes": {"delta_omega": [300.0]},
      "circuit": {"ho_truncation": 2}}, [0]),
    # every block average of the four runs is kept: 2 blocks each
    ({"name": "convergence-study", "circuit": {"ho_truncation": 2}}, list(range(8))),
    ({"name": "single-diode-validation", "circuit": {"ho_truncation": 2}}, [0, 1, 2]),
], ids=["series-sweep", "bridge-anharmonicity", "convergence-study", "single-diode-validation"])
def test_nonconvergent_rows_are_flagged(tmp_path, capsys, cfg, flagged):
    cfg = {**cfg, "protocol": NONCONVERGENT_PROTOCOL}
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.flagged_rows == flagged
    for i in flagged:
        assert result.rows[i]["converged"] is False
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["flagged_rows"] == flagged

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
    assert "did not meet" in capsys.readouterr().err
