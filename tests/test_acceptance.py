"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v`.  The bridge and
single-diode criteria run full windowed-average protocols and take a few
minutes each; everything else completes in seconds.
"""

import math

import numpy as np
import pytest

from heatrect.circuits import CircuitSpec, DiodeParams, bose_occupation, thermal_occupation
from heatrect.lindblad import (
    bridge_rate_tables,
    build_bridge_half_generators,
    build_generator,
    qutrit_rate_table,
    vectorize,
)
from heatrect.observables import (
    bath_current_functional,
    effective_temperature,
    fidelity,
    mode_report,
    net_bath_current_functional,
    rectification,
    thermal_state_matrix,
)
from heatrect.scenarios import default_config, run_scenario
from heatrect.spaces import DensityMatrix, partial_trace
from heatrect.steady import evolve, steady_state_averaged, steady_state_direct

GAMMA = 10.0
BRIDGE_BIAS = {"n_left": thermal_occupation("T_left", 1.0), "n_right": thermal_occupation("T_right", 0.1)}
GAMMA_DEC_GRID = [10 ** e for e in (-4.0, -3.5, -3.0, -2.5, -2.0, -1.5, -1.0)]


# ---------------------------------------------------------------------------
# shared expensive computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def parallel_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("parallel")
    return run_scenario(default_config("parallel-sweep"), out_dir=out)


@pytest.fixture(scope="module")
def series_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("series")
    return run_scenario(default_config("series-sweep"), out_dir=out)


@pytest.fixture(scope="module")
def bridge_gamma_rows():
    """F(rho_L, rho_M1) at N=8 (direct) and F(rho_R, rho_M2) at N=6
    (windowed average) over the decoherence grid at delta_omega = 300."""
    rows = []
    for gamma_dec in GAMMA_DEC_GRID:
        spec8 = CircuitSpec.build(
            "bridge", **BRIDGE_BIAS,
            gamma_dec=gamma_dec, ho_truncation=8,
        )
        upper, _ = build_bridge_half_generators(spec8)
        rho_upper = steady_state_direct(upper)
        rep_m1 = mode_report(rho_upper, "M1")
        ref_left = DensityMatrix.from_matrix(
            rep_m1.reduced.layout, thermal_state_matrix(8, BRIDGE_BIAS["n_left"])
        )
        fid_left = fidelity(ref_left, rep_m1.reduced)

        spec6 = CircuitSpec.build(
            "bridge", **BRIDGE_BIAS,
            gamma_dec=gamma_dec, ho_truncation=6,
        )
        _, lower = build_bridge_half_generators(spec6)
        tables = bridge_rate_tables(spec6)
        obs = net_bath_current_functional(lower.layout, ["D4"], tables)
        res = steady_state_averaged(lower, observable=obs)
        rep_m2 = mode_report(res.state, "M2")
        ref_right = DensityMatrix.from_matrix(
            rep_m2.reduced.layout, thermal_state_matrix(6, BRIDGE_BIAS["n_right"])
        )
        fid_right = fidelity(ref_right, rep_m2.reduced)
        rows.append({
            "gamma_dec": gamma_dec,
            "fid_left_m1": fid_left,
            "fid_right_m2": fid_right,
            "temp_m1": rep_m1.effective_T,
            "temp_m2": rep_m2.effective_T,
            "blocks": res.blocks_used,
        })
    return rows


def _independent_rates(delta_omega, J, J_prime, Gamma, n, modulated):
    """Criterion-1 oracle: the four rates written out one by one."""
    lorentz_up = n * J * J * Gamma / (delta_omega * delta_omega + Gamma * Gamma / 4.0)
    lorentz_down = (1.0 + n) * J * J * Gamma / (delta_omega * delta_omega + Gamma * Gamma / 4.0)
    g01 = lorentz_up + (n * J_prime * J_prime / Gamma if modulated else 0.0)
    g10 = lorentz_down + ((1.0 + n) * J_prime * J_prime / Gamma if modulated else 0.0)
    g12 = 8.0 * n * J * J / Gamma
    g21 = 8.0 * (1.0 + n) * J * J / Gamma
    return g01, g10, g12, g21


def test_criterion_1_rate_table_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        delta_omega = float(rng.uniform(30.0, 600.0))
        J = float(rng.uniform(0.2, 2.0))
        J_prime = float(rng.uniform(0.0, 1.5))
        Gamma = float(rng.uniform(2.0, 40.0))
        n = float(rng.uniform(0.0, 3.0))
        modulated = bool(rng.integers(0, 2))
        table = qutrit_rate_table(
            DiodeParams(delta_omega=delta_omega, J=J, J_prime=J_prime), n, Gamma, modulated
        )
        expected = _independent_rates(delta_omega, J, J_prime, Gamma, n, modulated)
        got = (table.get(0, 1), table.get(1, 0), table.get(1, 2), table.get(2, 1))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
    assert worst < 1e-12
    print(f"\nACCEPTANCE  1 rate-table exactness: PASS (worst deviation {worst:.2e} over 100 draws)")


def test_criterion_2_parallel_decoupling(parallel_sweep):
    grid = {(row["delta_omega_d1"], row["delta_omega_d2"]) for row in parallel_sweep.rows}
    worst = 1.0
    for dw1, dw2 in sorted(grid):
        for bias in ({"n_left": 0.5, "n_right": 0.0}, {"n_left": 0.0, "n_right": 0.5}):
            spec = CircuitSpec.build("parallel", **bias, delta_omega={"D1": dw1, "D2": dw2})
            rho = steady_state_direct(build_generator(spec))
            product = DensityMatrix.from_mode_states(
                rho.layout,
                [partial_trace(rho, ["D1"]).data, partial_trace(rho, ["D2"]).data],
            )
            worst = min(worst, fidelity(rho, product))
    assert worst > 1.0 - 1e-8
    print(f"\nACCEPTANCE  2 parallel decoupling: PASS (min fidelity {worst:.12f} over {2 * len(grid)} states)")


def test_criterion_3_parallel_qualitative_map(parallel_sweep):
    rows300 = sorted(
        (r for r in parallel_sweep.rows if r["delta_omega_d1"] == 300.0),
        key=lambda r: r["delta_omega_d2"],
    )
    reverse_mag = [abs(r["current_reverse"]) for r in rows300]
    assert all(b < a for a, b in zip(reverse_mag, reverse_mag[1:])), \
        "reverse current magnitude must decrease strictly in delta_omega_d2"

    by_d1 = {}
    for r in parallel_sweep.rows:
        by_d1.setdefault(r["delta_omega_d1"], {})[r["delta_omega_d2"]] = r["rectification"]
    for dw2 in by_d1[100.0]:
        if dw2 >= 100.0:
            assert by_d1[100.0][dw2] < by_d1[200.0][dw2]
            assert by_d1[100.0][dw2] < by_d1[300.0][dw2]
    print(f"\nACCEPTANCE  3 parallel qualitative map: PASS "
          f"(|J_r| strictly decreasing over {len(rows300)} points; "
          f"R(100J, .) smallest row for delta_omega_d2 >= 100J)")


def test_criterion_4_series_rectification_magnitude(series_sweep):
    assert not series_sweep.flagged_rows
    best = max(series_sweep.rows, key=lambda r: r["rectification"])
    assert best["rectification"] > 1e3
    print(f"\nACCEPTANCE  4 series rectification: PASS (max R = {best['rectification']:.1f} "
          f"at delta_omega_d1={best['delta_omega_d1']:g}, delta_omega_d2={best['delta_omega_d2']:g})")


def test_criterion_5_series_resonance_dips(series_sweep):
    rows300 = sorted(
        (r for r in series_sweep.rows if r["delta_omega_d1"] == 300.0),
        key=lambda r: r["delta_omega_d2"],
    )
    grid = [r["delta_omega_d2"] for r in rows300]
    mags = [abs(r["current_reverse"]) for r in rows300]
    # grid denser than 10 points per octave around both dips
    for center in (150.0, 300.0):
        i = grid.index(center)
        for j in (i - 1, i + 1):
            assert abs(math.log2(grid[j] / center)) <= 0.1 + 1e-9
        assert mags[i] > mags[i - 1] and mags[i] > mags[i + 1], center
    print("\nACCEPTANCE  5 series resonance dips: PASS "
          f"(|J_r| peaks at 150J and 300J against neighbors "
          f"{grid[grid.index(150.0) - 1]:.1f}/{grid[grid.index(150.0) + 1]:.1f} and "
          f"{grid[grid.index(300.0) - 1]:.1f}/{grid[grid.index(300.0) + 1]:.1f})")


def test_criterion_6_bridge_hot_output():
    spec = CircuitSpec.build(
        "bridge", **BRIDGE_BIAS,
        gamma_dec=1e-3, ho_truncation=8,
    )
    upper, _ = build_bridge_half_generators(spec)
    rho = steady_state_direct(upper)
    rep = mode_report(rho, "M1")
    ref = DensityMatrix.from_matrix(rep.reduced.layout, thermal_state_matrix(8, BRIDGE_BIAS["n_left"]))
    fid = fidelity(ref, rep.reduced)
    assert abs(rep.effective_T - 1.0) < 0.10
    assert fid > 0.95
    print(f"\nACCEPTANCE  6 bridge hot output: PASS (T_M1 = {rep.effective_T:.4f} omega vs T_L = 1, "
          f"F(rho_L, rho_M1) = {fid:.6f}; truncation N=8, direct solve of the static half)")


def test_criterion_7_bridge_decoherence_tradeoff(bridge_gamma_rows):
    fid_left = [r["fid_left_m1"] for r in bridge_gamma_rows]
    fid_right = [r["fid_right_m2"] for r in bridge_gamma_rows]
    assert all(b <= a + 1e-12 for a, b in zip(fid_left, fid_left[1:])), fid_left
    assert all(b >= a - 1e-12 for a, b in zip(fid_right, fid_right[1:])), fid_right
    print("\nACCEPTANCE  7 bridge decoherence tradeoff: PASS "
          f"(F(L,M1) {fid_left[0]:.4f}->{fid_left[-1]:.4f} non-increasing; "
          f"F(R,M2) {fid_right[0]:.4f}->{fid_right[-1]:.4f} non-decreasing over "
          f"gamma_dec in [1e-4, 1e-1]; M1 at N=8 direct, M2 at N=6 windowed average)")


def test_criterion_8_convergence_asymmetry(series_sweep):
    # the slow reverse-bias convergence appears off the inter-diode
    # resonances; 450J sits between the 300J and 600J dips
    row = next(
        r for r in series_sweep.rows
        if r["delta_omega_d1"] == 300.0 and r["delta_omega_d2"] == 450.0
    )
    assert row["converged_block_forward"] <= 3
    assert row["converged_block_reverse"] >= 5
    print(f"\nACCEPTANCE  8 convergence asymmetry: PASS (series at delta_omega_d2=450J: "
          f"forward block n={row['converged_block_forward']}, "
          f"reverse block n={row['converged_block_reverse']} at T=5000/J, T_av=1000/J)")


def test_criterion_9_full_vs_reduced_oracle(tmp_path):
    result = run_scenario({
        "name": "single-diode-validation",
        "circuit": {"ho_truncation": 4, "Gamma": 20.0},
    }, out_dir=tmp_path)
    rows = {r["bias"]: r for r in result.rows}
    fwd = rows["forward"]
    ratio = abs(fwd["current_full"] / rows["reverse"]["current_full"])
    assert fwd["rel_deviation"] <= 0.20
    eq = rows["equilibrium"]
    assert abs(eq["current_full"]) < 1e-8
    assert abs(eq["current_reduced"]) < 1e-8
    print(f"\nACCEPTANCE  9 full-vs-reduced oracle: PASS (forward deviation "
          f"{fwd['rel_deviation']:.1%}; equilibrium currents {eq['current_full']:.2e} / "
          f"{eq['current_reduced']:.2e}; fwd/rev ratio {ratio:.1f})")


def test_criterion_10_structural_invariants():
    # trace and Hermiticity preservation under evolution
    spec = CircuitSpec.build("series", n_left=0.5, n_right=0.0)
    gen = build_generator(spec)
    out = evolve(gen, DensityMatrix.ground_state(gen.layout), 0.0, 5.0)
    trace_drift = abs(np.trace(out.data) - 1.0)
    herm_drift = float(np.max(np.abs(out.data - out.data.conj().T)))
    assert trace_drift < 1e-9
    assert herm_drift < 1e-9

    # generator annihilates the trace
    annih = 0.0
    generators = [
        gen,
        build_generator(CircuitSpec.build("parallel", n_left=0.5, n_right=0.0)),
        build_generator(CircuitSpec.build("single-diode", n_left=0.5, n_right=0.2, ho_truncation=3)),
        *build_bridge_half_generators(CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=3)),
    ]
    for g in generators:
        tr_row = vectorize(np.eye(g.dim, dtype=complex)).conj()
        static, drives = g.superops()
        annih = max(annih, float(np.max(np.abs(tr_row @ static))))
        for _, s in drives:
            annih = max(annih, float(np.max(np.abs(tr_row @ s))))
    assert annih < 1e-12

    # detailed balance: bit-identical to the defining products
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = float(rng.uniform(0.01, 3.0))
        params = DiodeParams(delta_omega=float(rng.uniform(50, 500)))
        for modulated in (True, False):
            t = qutrit_rate_table(params, n, GAMMA, modulated)
            drive = params.J_prime ** 2 / GAMMA if modulated else 0.0
            lorentz = params.J ** 2 * GAMMA / (params.delta_omega ** 2 + GAMMA ** 2 / 4.0)
            assert t.get(0, 1) == n * (drive + lorentz)
            assert t.get(1, 0) == (1.0 + n) * (drive + lorentz)
            assert t.get(1, 2) / t.get(2, 1) == pytest.approx(n / (1.0 + n), rel=1e-14)

    # effective-temperature / Bose round trip
    for T in (0.1, 0.5, 1.0, 2.0, 10.0):
        assert effective_temperature(bose_occupation(1.0 / T)) == pytest.approx(T, abs=1e-12)

    # fidelity bounds and symmetry
    layout = generators[1].layout
    worst_sym = 0.0
    for _ in range(10):
        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        r1 = x @ x.conj().T
        r1 /= np.trace(r1)
        y = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        r2 = y @ y.conj().T
        r2 /= np.trace(r2)
        s1 = DensityMatrix.from_matrix(layout, r1)
        s2 = DensityMatrix.from_matrix(layout, r2)
        f12, f21 = fidelity(s1, s2), fidelity(s2, s1)
        assert 0.0 <= f12 <= 1.0
        worst_sym = max(worst_sym, abs(f12 - f21))
    assert worst_sym < 1e-8

    # rectification identity
    for j in (0.3, 1.0, 4.2):
        assert rectification(j, -j) == pytest.approx(1.0, rel=1e-15)

    print(f"\nACCEPTANCE 10 structural invariants: PASS (trace drift {trace_drift:.1e}, "
          f"hermiticity drift {herm_drift:.1e}, trace annihilation {annih:.1e}, "
          f"detailed balance exact, round trips 1e-12, fidelity symmetry {worst_sym:.1e})")


def test_criterion_11_bridge_rectifies_both_polarities():
    # the bridge's headline claim: M1 is the hot output and M2 the cold one
    # whichever bath is hot; library route at N=4, static upper trio by the
    # direct solve, driven lower trio by the windowed average
    diode_sets = {
        "equal": {label: 300.0 for label in ("D1", "D2", "D3", "D4")},
        "D=(300,200,300,150)": {"D1": 300.0, "D2": 200.0, "D3": 300.0, "D4": 150.0},
    }
    lines = []
    for name, delta_omega in diode_sets.items():
        temps = {}
        for t_left, t_right in ((1.0, 0.1), (0.1, 1.0)):
            spec = CircuitSpec.build("bridge", T_left=t_left, T_right=t_right,
                                     delta_omega=delta_omega, ho_truncation=4)
            upper, lower = build_bridge_half_generators(spec)
            res = steady_state_averaged(
                lower, observable=bath_current_functional(lower, "right"))
            t_m1 = mode_report(steady_state_direct(upper), "M1").effective_T
            t_m2 = mode_report(res.state, "M2").effective_T
            assert t_m1 > t_m2, (name, t_left, t_right, t_m1, t_m2)
            temps[t_left, t_right] = (t_m1, t_m2)
        (f1, f2), (r1, r2) = temps[1.0, 0.1], temps[0.1, 1.0]
        lines.append(f"{name}: T_M1 {f1:.4f}/{r1:.4f}, T_M2 {f2:.4f}/{r2:.4f} "
                     f"(reverse minus forward {r1 - f1:+.1e}, {r2 - f2:+.1e})")
    print("\nACCEPTANCE 11 bridge rectifies both polarities: PASS (T_M1 > T_M2 under "
          "(T_L, T_R) = (1.0, 0.1) / (0.1, 1.0); N=4; " + "; ".join(lines) + ")")
