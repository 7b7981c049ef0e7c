import math

import numpy as np
import pytest

from heatrect.circuits import CircuitSpec, DiodeParams, bose_occupation
from heatrect.lindblad import (
    bridge_rate_tables,
    build_bridge_half_generators,
    build_generator,
    qutrit_rate_table,
)
from heatrect.observables import (
    BiasSetting,
    bath_current_functional,
    effective_temperature,
    fidelity,
    mode_report,
    net_bath_current_functional,
    rectification,
    thermal_population,
    thermal_state_matrix,
)
from heatrect.spaces import (
    DensityMatrix,
    HarmonicOscillator,
    Qutrit,
    SpaceLayout,
)


def two_qutrits():
    return SpaceLayout.of(("D1", Qutrit()), ("D2", Qutrit()))


def random_density(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def single_diode(n_left, truncation):
    """Full single-diode spec and its layout [L, D1, R]."""
    spec = CircuitSpec.build("single-diode", n_left=n_left, n_right=0.0, Gamma=10.0,
                             ho_truncation=truncation)
    return spec, build_generator(spec).layout


def filter_state(layout, left_filter):
    """Product state: ``left_filter`` on L, D1 and R in their ground states."""
    ground = [np.diag(np.eye(dim)[0]).astype(complex) for dim in layout.dims]
    return DensityMatrix.from_mode_states(layout, [left_filter, *ground[1:]])


def test_bath_exchange_current_vacuum():
    spec, layout = single_diode(0.5, 6)
    rho = DensityMatrix.ground_state(layout)
    # <a a†> = 1 and <a† a> = 0 in vacuum: the bath pumps Gamma n = 5 into L
    left = bath_current_functional(spec, layout, "left")
    assert left.value(rho) == pytest.approx(-5.0, abs=1e-13)


def test_bath_exchange_current_detailed_balance_zero():
    spec, layout = single_diode(0.5, 8)
    r = 0.5 / 1.5
    g = r ** np.arange(8)
    rho = filter_state(layout, np.diag(g / g.sum()).astype(complex))
    assert abs(bath_current_functional(spec, layout, "left").value(rho)) < 1e-12


def test_bath_exchange_current_sign():
    spec, layout = single_diode(0.0, 4)
    excited = np.zeros((4, 4), dtype=complex)
    excited[1, 1] = 1.0
    rho = filter_state(layout, excited)
    # system hotter than the bath: the current flows into it
    assert bath_current_functional(spec, layout, "left").value(rho) > 0


def test_bath_current_needs_a_contact_of_the_bath():
    spec = CircuitSpec.build("series", n_left=0.5, n_right=0.0)
    d1_only = SpaceLayout.of(("D1", Qutrit()))
    assert bath_current_functional(spec, d1_only, "left").name == "net_bath_current_D1"
    with pytest.raises(ValueError, match="no contact of the right bath"):
        bath_current_functional(spec, d1_only, "right")


def test_net_bath_current_needs_a_rate_table_for_every_label():
    # no labels gave an always-zero current, a label without a table a bare KeyError
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=2)
    upper, _ = build_bridge_half_generators(spec)
    tables = bridge_rate_tables(spec)
    for labels in ([], ["D9"], ["M1"], ["D2", "M1"]):
        with pytest.raises(ValueError, match=r"the tables hold \['D1', 'D2', 'D3', 'D4'\]") as err:
            net_bath_current_functional(upper.layout, labels, tables)
        assert f"got {labels} (none for {[label for label in labels if label != 'D2']})" in str(err.value)
    current = net_bath_current_functional(upper.layout, ["D2"], tables)
    m = current.observable.matrix
    assert current.name == "net_bath_current_D2" and m.has_canonical_format
    assert m.nnz == np.count_nonzero(m.diagonal()) and np.all(m.diagonal().imag == 0)


def _tables(n, modulated):
    return {
        "D1": qutrit_rate_table(DiodeParams(), n, 10.0, modulated),
        "D2": qutrit_rate_table(DiodeParams(), n, 10.0, modulated),
    }


def test_emission_current_parallel_values():
    # the parallel circuit's forward current into the empty right bath:
    # decay of both qutrits
    layout = two_qutrits()
    ground = DensityMatrix.ground_state(layout)
    tables = _tables(0.0, modulated=False)
    emission = net_bath_current_functional(layout, ("D1", "D2"), tables)
    assert emission.value(ground) == 0.0

    mixed = DensityMatrix.from_matrix(layout, np.eye(9, dtype=complex) / 9)
    expected = 2 * ((1 / 3) * tables["D1"].get(1, 0) + (1 / 3) * tables["D1"].get(2, 1))
    assert emission.value(mixed) == pytest.approx(expected, rel=1e-12)

    # a warm bath also feeds the ground state: minus the absorption rates
    warm = _tables(0.5, modulated=False)
    expected = -(warm["D1"].get(0, 1) + warm["D2"].get(0, 1))
    assert net_bath_current_functional(layout, ("D1", "D2"), warm).value(ground) == pytest.approx(
        expected, rel=1e-12)


def test_emission_current_series_sign():
    # the series circuit reports D2's current into the empty right bath
    # forward and minus D1's into the empty left bath in reverse
    layout = two_qutrits()
    rng = np.random.default_rng(2)
    tables = _tables(0.0, modulated=True)
    forward = net_bath_current_functional(layout, ("D2",), tables)
    reverse = net_bath_current_functional(layout, ("D1",), tables)
    for _ in range(10):
        rho = DensityMatrix.from_matrix(layout, random_density(rng, 9))
        assert -reverse.value(rho) <= 0.0
        assert forward.value(rho) >= 0.0


def test_rectification_values():
    assert rectification(5.0, -0.005) == pytest.approx(1000.0)
    assert rectification(1.0, -1.0) == pytest.approx(1.0)
    assert rectification(1.0, 0.0) == math.inf
    for j in (0.1, 2.0, 17.0):
        assert rectification(j, -j) == pytest.approx(1.0, rel=1e-15)


def test_effective_temperature_round_trip():
    assert effective_temperature(1.0 / (math.e - 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert effective_temperature(0.0) == 0.0
    assert effective_temperature(-0.5) == 0.0
    for T in (0.1, 1.0, 10.0):
        assert effective_temperature(bose_occupation(1.0 / T)) == pytest.approx(T, abs=1e-12)
    # strictly increasing in the occupation
    grid = np.linspace(0.01, 3.0, 50)
    temps = [effective_temperature(n) for n in grid]
    assert all(b > a for a, b in zip(temps, temps[1:]))


def test_thermal_population_values():
    assert thermal_population(0.5, 0) == pytest.approx(1 / 1.5, rel=1e-15)
    for n in range(6):
        assert thermal_population(1.0, n) == pytest.approx(2.0 ** -(n + 1), rel=1e-14)
    assert thermal_population(0.0, 0) == 1.0
    assert thermal_population(0.0, 3) == 0.0
    total = sum(thermal_population(1.0, n) for n in range(64))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_thermal_state_matrix_normalized():
    m = thermal_state_matrix(8, 0.5)
    assert np.trace(m).real == pytest.approx(1.0, rel=1e-15)
    assert np.all(np.diag(m).real > 0)


def test_fidelity_basic_cases():
    layout = SpaceLayout.of(("A", HarmonicOscillator(2)))
    ground = DensityMatrix.ground_state(layout)
    excited = DensityMatrix.from_matrix(layout, np.diag([0.0, 1.0]).astype(complex))
    mixed = DensityMatrix.from_matrix(layout, np.eye(2, dtype=complex) / 2)
    assert fidelity(ground, ground) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(ground, excited) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(ground, mixed) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetry_and_range():
    layout = SpaceLayout.of(("A", Qutrit()))
    rng = np.random.default_rng(9)
    for _ in range(10):
        r1 = DensityMatrix.from_matrix(layout, random_density(rng, 3))
        r2 = DensityMatrix.from_matrix(layout, random_density(rng, 3))
        f12 = fidelity(r1, r2)
        f21 = fidelity(r2, r1)
        assert 0.0 <= f12 <= 1.0
        assert abs(f12 - f21) < 1e-8


def test_mode_report_thermal_product():
    layout = SpaceLayout.of(("M1", HarmonicOscillator(8)), ("Q", Qutrit()))
    mean_n = 0.4
    rho = DensityMatrix.from_mode_states(
        layout, [thermal_state_matrix(8, mean_n), np.diag([1.0, 0, 0]).astype(complex)]
    )
    rep = mode_report(rho, "M1")
    # populations agree with the geometric law up to the truncation tail
    for k in range(6):
        assert rep.populations[k] == pytest.approx(
            thermal_population(mean_n, k), rel=1e-3
        )
    assert rep.effective_T_defined
    assert rep.effective_T == pytest.approx(effective_temperature(rep.mean_n), rel=1e-14)

    ground = mode_report(DensityMatrix.ground_state(layout), "M1")
    assert ground.mean_n == pytest.approx(0.0, abs=1e-15)
    assert not ground.effective_T_defined
    assert ground.effective_T == 0.0


def test_bias_setting_helpers():
    temps = BiasSetting.from_temperatures("forward", 1.0, 0.1)
    assert temps.n_left == pytest.approx(bose_occupation(1.0))
    assert temps.n_right == pytest.approx(bose_occupation(10.0))
    swapped = temps.swapped("reverse")
    assert swapped.n_left == temps.n_right and swapped.n_right == temps.n_left
    # a zero temperature used to end in a bare ZeroDivisionError
    for t_left, t_right, name in ((1.0, 0.0, "T_right"), (0.0, 1.0, "T_left"), (-1.0, 0.1, "T_left"),
                                  (1.0, math.inf, "T_right"), (math.nan, 0.1, "T_left")):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            BiasSetting.from_temperatures("forward", t_left, t_right)
