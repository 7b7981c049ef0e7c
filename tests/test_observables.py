import math

import numpy as np
import pytest

from heatrect import lindblad
from heatrect.circuits import CircuitSpec, bose_occupation, thermal_occupation
from heatrect.lindblad import (
    Liouvillian,
    bridge_rate_tables,
    build_bridge_half_generators,
    build_generator,
    build_reduced_generator,
    qutrit_rate_table,
)
from heatrect.observables import (
    CurrentFunctional,
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
    SpaceLayout,
    SparseOperator,
    lowering_op,
    number_op,
    projector,
)
from heatrect.steady import steady_state_averaged, steady_state_direct

from helpers import random_density


def two_qutrits():
    return SpaceLayout.of(("D1", 3), ("D2", 3))


def single_diode(n_left, truncation):
    """Full single-diode generator on its layout [L, D1, R]."""
    return build_generator(CircuitSpec.build("single-diode", n_left=n_left, n_right=0.0, Gamma=10.0,
                                             ho_truncation=truncation))


def filter_state(layout, left_filter):
    """Product state: ``left_filter`` on L, D1 and R in their ground states."""
    ground = [np.diag(np.eye(dim)[0]).astype(complex) for dim in layout.dims]
    return DensityMatrix.from_mode_states(layout, [left_filter, *ground[1:]])


def test_bath_exchange_current_vacuum():
    gen = single_diode(0.5, 6)
    rho = DensityMatrix.ground_state(gen.layout)
    # <a a†> = 1 and <a† a> = 0 in vacuum: the bath pumps Gamma n = 5 into L
    left = bath_current_functional(gen, "left")
    assert left.value(rho) == pytest.approx(-5.0, abs=1e-13)


def test_bath_exchange_current_detailed_balance_zero():
    gen = single_diode(0.5, 8)
    r = 0.5 / 1.5
    g = r ** np.arange(8)
    rho = filter_state(gen.layout, np.diag(g / g.sum()).astype(complex))
    assert abs(bath_current_functional(gen, "left").value(rho)) < 1e-12


def test_bath_exchange_current_sign():
    gen = single_diode(0.0, 4)
    excited = np.zeros((4, 4), dtype=complex)
    excited[1, 1] = 1.0
    rho = filter_state(gen.layout, excited)
    # system hotter than the bath: the current flows into it
    assert bath_current_functional(gen, "left").value(rho) > 0


def wired_baths() -> list:
    """(spec, generator, {side: (labels, contact)}) for every generator a
    scenario builds, each bath's contacts written out by hand: ``contact``
    is "filter" for a kept filter oscillator, and otherwise says whether
    the qutrits' contacts carry the drive-induced rates ("modulated") or
    not ("static")."""
    par = CircuitSpec.build("parallel", n_left=0.4, n_right=0.15, delta_omega={"D1": 100.0, "D2": 150.0})
    ser = CircuitSpec.build("series", n_left=0.4, n_right=0.15, delta_omega={"D1": 300.0, "D2": 450.0})
    bridge = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=3,
                               delta_omega={"D1": 300.0, "D2": 200.0, "D3": 300.0, "D4": 150.0})
    literal = CircuitSpec.build("bridge", T_left=0.1, T_right=1.0, ho_truncation=3,
                                bridge_rate_mode="paper-literal")
    one = CircuitSpec.build("single-diode", n_left=0.5, n_right=0.2, Gamma=20.0, ho_truncation=4)
    upper, lower = build_bridge_half_generators(bridge)
    return [
        (par, build_generator(par), {"left": (["D1", "D2"], "modulated"), "right": (["D1", "D2"], "static")}),
        (ser, build_generator(ser), {"left": (["D1"], "modulated"), "right": (["D2"], "static")}),
        (bridge, upper, {"left": (["D1"], "modulated"), "right": (["D2"], "modulated")}),
        # paper-literal reads D2's right-bath rates without the drive term
        (literal, build_bridge_half_generators(literal)[0],
         {"left": (["D1"], "modulated"), "right": (["D2"], "static")}),
        (bridge, lower, {"left": (["D3"], "static"), "right": (["D4"], "static")}),
        (one, build_generator(one), {"left": (["L"], "filter"), "right": (["R"], "filter")}),
        (one, build_reduced_generator(one), {"left": (["D1"], "modulated"), "right": (["D1"], "static")}),
    ]


def hand_current(spec, layout, side, labels, contact) -> np.ndarray:
    """Dense operator of the net excitation current into the ``side`` bath,
    written out by hand: Gamma (n+1) a†a - Gamma n a a† on a kept filter,
    diag(-r01, r10 - r12, r21) on each qutrit of a rate contact."""
    n, Gamma = spec.bath(side).n, spec.Gamma
    if contact == "filter":
        (label,) = labels
        a = lowering_op(layout, label).matrix.toarray()
        return Gamma * (n + 1.0) * (a.conj().T @ a) - Gamma * n * (a @ a.conj().T)
    w = np.zeros((layout.total_dim,) * 2, dtype=complex)
    for label in labels:
        t = qutrit_rate_table(spec.delta_omega[label], spec.J, spec.J_prime, n, Gamma, contact == "modulated")
        for level, rate in enumerate((-t.get(0, 1), t.get(1, 0) - t.get(1, 2), t.get(2, 1))):
            w += rate * projector(layout, label, level).matrix.toarray()
    return w


def test_bath_currents_match_the_hand_formulas():
    # every bath current of every generator a scenario builds, read from the
    # generator's side-tagged dissipators, against the formulas written out
    # here from the wiring by hand; the bound is 1e-14 of the largest weight
    rng = np.random.default_rng(23)
    for spec, gen, baths in wired_baths():
        for side, (labels, contact) in baths.items():
            current = bath_current_functional(gen, side)
            assert current.name == "net_bath_current_" + "_".join(labels)
            w = hand_current(spec, gen.layout, side, labels, contact)
            scale = np.max(np.abs(w))
            assert np.max(np.abs(current.observable.matrix.toarray() - w)) <= 1e-14 * scale
            for _ in range(3):
                rho = DensityMatrix.from_matrix(gen.layout, random_density(rng, gen.dim))
                assert abs(current.value(rho) - np.trace(w @ rho.data).real) <= 1e-14 * scale


# Every Hamiltonian here conserves the excitation number, so in a steady
# state what the two baths feed in the decoherence takes out:
# I_left + I_right + gamma_dec sum_m <n_m> = 0.  Bounds on the residual over
# the larger current: direct solves met it to 2.1e-11 (bridge upper half,
# N=3, gamma_dec = 0); the windowed average to 1.3e-8 (lower half, N=3), as
# its state still drifts over the averaging window.
BALANCE_BOUND_DIRECT = 1e-9
BALANCE_BOUND_AVERAGED = 1e-6


def excitation_loss(layout, gamma_dec) -> np.ndarray:
    """gamma_dec sum_m n_m: the excitations that every mode's decay takes out."""
    return gamma_dec * sum(number_op(layout, label).matrix.toarray() for label in layout.labels)


def balance_cases() -> list:
    """(spec, time-independent generator, {side: (labels, contact)}, gamma_dec)."""
    cases = []
    for n_left, n_right in ((0.5, 0.1), (0.1, 0.5)):
        spec = CircuitSpec.build("parallel", n_left=n_left, n_right=n_right,
                                 delta_omega={"D1": 100.0, "D2": 150.0})
        cases.append((spec, build_generator(spec),
                      {"left": (["D1", "D2"], "modulated"), "right": (["D1", "D2"], "static")}, 0.0))
    for truncation in (3, 4):
        for gamma_dec in (0.0, 1e-3, 1e-1):
            spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=truncation,
                                     gamma_dec=gamma_dec)
            cases.append((spec, build_bridge_half_generators(spec)[0],
                          {"left": (["D1"], "modulated"), "right": (["D2"], "modulated")}, gamma_dec))
    return cases


def test_excitation_balance_of_direct_steady_states():
    for spec, gen, baths, gamma_dec in balance_cases():
        rho = steady_state_direct(gen).data
        currents = [np.trace(hand_current(spec, gen.layout, side, *bath) @ rho).real
                    for side, bath in baths.items()]
        lost = np.trace(excitation_loss(gen.layout, gamma_dec) @ rho).real
        assert abs(sum(currents) + lost) <= BALANCE_BOUND_DIRECT * max(map(abs, currents))


def test_excitation_balance_of_a_driven_steady_state():
    # three windowed averages of the driven lower half, one per term
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=3, gamma_dec=1e-3)
    _, lower = build_bridge_half_generators(spec)
    terms = [hand_current(spec, lower.layout, "left", ["D3"], "static"),
             hand_current(spec, lower.layout, "right", ["D4"], "static"),
             excitation_loss(lower.layout, 1e-3)]
    left, right, lost = (steady_state_averaged(lower, CurrentFunctional(
        f"term_{k}", SparseOperator.wrap(lower.layout, w))).value for k, w in enumerate(terms))
    assert abs(left + right + lost) <= BALANCE_BOUND_AVERAGED * max(abs(left), abs(right))


def test_bath_current_needs_a_contact_of_the_bath():
    spec = CircuitSpec.build("series", n_left=0.5, n_right=0.0)
    # D1 alone carries the left contact of the series circuit and no right one
    d1_only = lindblad._generator(spec, SpaceLayout.of(("D1", 3)))
    assert bath_current_functional(d1_only, "left").name == "net_bath_current_D1"
    with pytest.raises(ValueError, match="no contact of the 'right' bath"):
        bath_current_functional(d1_only, "right")
    with pytest.raises(ValueError, match="no contact of the 'top' bath"):
        bath_current_functional(build_generator(spec), "top")
    # an operator-built generator tags no jump with a bath
    layout = d1_only.layout
    built = Liouvillian(layout, None, ((1.0, lowering_op(layout, "D1")), (0.5, lowering_op(layout, "D1"))))
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="no contact"):
            bath_current_functional(built, side)


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
        "D1": qutrit_rate_table(300.0, 1.0, 0.5, n, 10.0, modulated),
        "D2": qutrit_rate_table(300.0, 1.0, 0.5, n, 10.0, modulated),
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
    layout = SpaceLayout.of(("A", 2))
    ground = DensityMatrix.ground_state(layout)
    excited = DensityMatrix.from_matrix(layout, np.diag([0.0, 1.0]).astype(complex))
    mixed = DensityMatrix.from_matrix(layout, np.eye(2, dtype=complex) / 2)
    assert fidelity(ground, ground) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(ground, excited) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(ground, mixed) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetry_and_range():
    layout = SpaceLayout.of(("A", 3))
    rng = np.random.default_rng(9)
    for _ in range(10):
        r1 = DensityMatrix.from_matrix(layout, random_density(rng, 3))
        r2 = DensityMatrix.from_matrix(layout, random_density(rng, 3))
        f12 = fidelity(r1, r2)
        f21 = fidelity(r2, r1)
        assert 0.0 <= f12 <= 1.0
        assert abs(f12 - f21) < 1e-8


def test_mode_report_thermal_product():
    layout = SpaceLayout.of(("M1", 8), ("Q", 3))
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
    assert rep.mean_n > 0.0
    assert rep.effective_T == pytest.approx(effective_temperature(rep.mean_n), rel=1e-14)

    ground = mode_report(DensityMatrix.ground_state(layout), "M1")
    assert ground.mean_n == pytest.approx(0.0, abs=1e-15)
    assert ground.mean_n <= 0.0
    assert ground.effective_T == 0.0


def test_bias_setting_helpers():
    # a bias is the n_left/n_right of CircuitSpec.build; temperatures become
    # occupations through thermal_occupation
    n_left, n_right = thermal_occupation("T_left", 1.0), thermal_occupation("T_right", 0.1)
    assert n_left == pytest.approx(bose_occupation(1.0))
    assert n_right == pytest.approx(bose_occupation(10.0))
    swapped = CircuitSpec.build("bridge", T_left=0.1, T_right=1.0)
    assert swapped.left_bath.n == n_right and swapped.right_bath.n == n_left
    # a zero temperature used to end in a bare ZeroDivisionError
    for t_left, t_right, name, message in (
            (1.0, 0.0, "T_right", "positive"), (0.0, 1.0, "T_left", "positive"), (-1.0, 0.1, "T_left", "positive"),
            (1.0, math.inf, "T_right", "a real number"), (math.nan, 0.1, "T_left", "a real number")):
        with pytest.raises(ValueError, match=f"{name} must be finite and {message}"):
            for side, T in (("T_left", t_left), ("T_right", t_right)):
                thermal_occupation(side, T)
