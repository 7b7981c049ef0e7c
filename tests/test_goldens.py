"""Golden CSVs of the six built-in scenarios at small sizes, checked cell by cell.

Each scenario runs at N=3 (the single diode at N=2) with three points per
axis and no trajectory files, and its CSV is compared with the committed
one in ``tests/goldens``.  Regenerate every golden with

    PYTHONPATH=src python tests/test_goldens.py

A regeneration changes test data: name the old and new values of every
moved cell in CHANGES.md.
"""

import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from heatrect.scenarios import SCENARIO_NAMES, run_scenario
from heatrect.steady import CONVERGENCE_ABS_FLOOR

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

GOLDEN_CONFIGS = {
    "parallel-sweep": {"axes": {"delta_omega_d1": [100.0, 200.0, 300.0],
                                "delta_omega_d2": [50.0, 150.0, 450.0]}},
    "series-sweep": {"axes": {"delta_omega_d1": [100.0, 200.0, 300.0],
                              "delta_omega_d2": [50.0, 150.0, 450.0]}},
    # delta_omega = 50 is a point where the RK4 stability bound, not the
    # drive, sets the step
    "bridge-anharmonicity": {"circuit": {"ho_truncation": 3},
                             "axes": {"delta_omega": [50.0, 150.0, 450.0]}},
    "bridge-decoherence": {"circuit": {"ho_truncation": 3},
                           "axes": {"delta_omega": [100.0, 200.0, 300.0],
                                    "gamma_dec": [1e-4, 1e-2, 1e-1]}},
    "convergence-study": {"circuit": {"ho_truncation": 3}, "trajectory_points_per_block": None},
    "single-diode-validation": {"circuit": {"ho_truncation": 2}},
}

# Floats agree when |got - ref| <= RTOL |ref| + ATOL.  Rerunning the goldens
# with one and two BLAS threads moved no cell, and under OpenBLAS's
# Prescott, Nehalem and SandyBridge kernels (OPENBLAS_CORETYPE) no cell
# that is not a round-off zero moved by more than 2.6e-11 relative, and
# keeping the direct solve's column order per real table moved four cells
# by up to 3.1e-11 (a 12-digit cell's last digit alone is up to 1e-11 of
# it); RTOL leaves a factor of 300 above that spread.  ATOL covers cells
# that are zero up to round-off, such as the equilibrium ``current_full``,
# which moved from -8.3e-16 to -1.6e-15 under those kernels.
RTOL = 1e-8
ATOL = 1e-12


def _atol(column: str, ref_row: dict) -> float:
    """ATOL, except for ``rel_deviation``, which is a current difference
    over max(|current_full|, CONVERGENCE_ABS_FLOOR) and so inherits ATOL
    divided by that scale; at equilibrium, where both currents are
    round-off below that floor, it is written as 0."""
    if column == "rel_deviation":
        return ATOL / max(abs(ref_row["current_full"]), CONVERGENCE_ABS_FLOOR)
    return ATOL


def golden_config(name: str) -> dict:
    return {"name": name, **GOLDEN_CONFIGS[name]}


def _cell(text: str):
    """A CSV cell as the value that ``scenarios._format_cell`` wrote."""
    if text in ("true", "false"):
        return text == "true"
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _same(got, ref, atol: float = ATOL) -> bool:
    if type(got) is not type(ref):
        return False
    if isinstance(ref, float):
        if not math.isfinite(ref):
            return got == ref or math.isnan(got) and math.isnan(ref)
        return abs(got - ref) <= RTOL * abs(ref) + atol
    return got == ref


def csv_differences(got_path: Path, ref_path: Path) -> list[str]:
    """Every cell of ``got_path`` that differs from ``ref_path``, or [] when they agree."""
    got, ref = (path.read_text().splitlines() for path in (got_path, ref_path))
    if got[0] != ref[0]:
        return [f"header: got {got[0]!r}, golden {ref[0]!r}"]
    if len(got) != len(ref):
        return [f"got {len(got) - 1} rows, golden {len(ref) - 1}"]
    columns = ref[0].split(",")
    problems = []
    for i, (got_line, ref_line) in enumerate(zip(got[1:], ref[1:]), 1):
        got_cells, ref_cells = got_line.split(","), ref_line.split(",")
        if len(got_cells) != len(ref_cells):
            problems.append(f"row {i}: got {len(got_cells)} cells, golden {len(ref_cells)}")
            continue
        got_row, ref_row = (dict(zip(columns, map(_cell, cells))) for cells in (got_cells, ref_cells))
        for column, r in ref_row.items():
            if not _same(got_row[column], r, _atol(column, ref_row)):
                problems.append(f"row {i} {column}: got {got_row[column]!r}, golden {r!r}")
    return problems


def test_every_scenario_has_a_golden():
    assert sorted(GOLDEN_CONFIGS) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_matches_its_golden_csv(name, tmp_path):
    result = run_scenario(golden_config(name), out_dir=tmp_path)
    assert result.files == [f"{name}.csv", "metadata.json"]
    problems = csv_differences(tmp_path / f"{name}.csv", GOLDEN_DIR / f"{name}.csv")
    assert not problems, "\n".join(problems[:20])


def test_cell_rule_keeps_types_and_tolerance():
    assert _same(_cell("3"), _cell("3")) and not _same(_cell("3"), _cell("3.00000000000e+00"))
    assert not _same(_cell("true"), _cell("1"))
    assert not _same(_cell("forward"), _cell("reverse"))
    assert _same(_cell("1.00000000500e+00"), _cell("1.00000000000e+00"))
    assert not _same(_cell("1.00000002000e+00"), _cell("1.00000000000e+00"))
    assert _same(_cell("-2.81000000000e-15"), _cell("0.00000000000e+00"))
    assert _same(_cell("inf"), _cell("inf")) and not _same(_cell("inf"), _cell("-inf"))
    assert _same(_cell("nan"), _cell("nan"))
    equilibrium = {"current_full": -8.25e-16}
    assert _same(1.6e-7, 8.3e-8, _atol("rel_deviation", equilibrium))
    assert not _same(1.000001, 1.0, _atol("rel_deviation", {"current_full": 8.6e-3}))


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in SCENARIO_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            run_scenario(golden_config(name), out_dir=tmp)
            shutil.copyfile(Path(tmp) / f"{name}.csv", GOLDEN_DIR / f"{name}.csv")
        print(f"wrote {GOLDEN_DIR / name}.csv", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
