import math

import numpy as np
import pytest

from heatrect.circuits import CircuitSpec, DiodeParams
from heatrect.lindblad import (
    Liouvillian,
    RateTable,
    build_generator,
    qutrit_rate_table,
    single_qutrit_rate_generator,
    vectorize,
)
from heatrect.observables import CurrentFunctional, emission_current_functional, fidelity
from heatrect.spaces import (
    DensityMatrix,
    HarmonicOscillator,
    Qutrit,
    SpaceLayout,
    SparseOperator,
    identity_op,
    lowering_op,
    number_op,
    projector,
    raising_op,
)
from heatrect.steady import (
    ConvergenceError,
    ConvergenceProtocol,
    DegenerateSteadyStateError,
    evolve,
    hermitian_basis_transform,
    steady_state_averaged,
    steady_state_direct,
)

T_DRIVE = 2.0 * math.pi / 300.0


def decay_generator(dim=8, Gamma=1.0, n=0.0):
    layout = SpaceLayout.of(("L", HarmonicOscillator(dim)))
    jumps = [(Gamma * (n + 1.0), lowering_op(layout, "L"))]
    if n > 0:
        jumps.append((Gamma * n, raising_op(layout, "L")))
    return Liouvillian(layout, None, tuple(jumps))


def series_generator(n_left=0.5, n_right=0.0, dw2=300.0):
    spec = CircuitSpec.build("series", n_left=n_left, n_right=n_right,
                             delta_omega={"D1": 300.0, "D2": dw2})
    return spec, build_generator(spec)


def test_evolve_zero_generator_is_identity():
    layout = SpaceLayout.of(("A", Qutrit()))
    gen = Liouvillian(layout, None, ())
    rho0 = DensityMatrix.ground_state(layout)
    out = evolve(gen, rho0, 0.0, 2.0, dt=0.1)
    np.testing.assert_array_equal(out.data, rho0.data)


def test_evolve_decay_matches_analytic():
    gen = decay_generator(dim=8, Gamma=1.0)
    layout = gen.layout
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[1, 1] = 1.0
    rho = DensityMatrix.from_matrix(layout, rho0)
    n_op = number_op(layout, "L")
    for t in (0.5, 1.5, 3.0):
        out = evolve(gen, rho, 0.0, t, dt=1e-2)
        mean_n = float(np.real(out.expectation(n_op)))
        assert mean_n == pytest.approx(math.exp(-t), abs=1e-6)


def test_evolve_reaches_qutrit_fixed_point():
    table = qutrit_rate_table(DiodeParams(), n=0.5, Gamma=10.0, modulated=True)
    gen = single_qutrit_rate_generator([table])
    rho0 = DensityMatrix.ground_state(gen.layout)
    out = evolve(gen, rho0, 0.0, 400.0)
    np.testing.assert_allclose(
        np.real(np.diag(out.data)), [9 / 13, 3 / 13, 1 / 13], atol=1e-6
    )


def test_evolve_conserves_trace_and_hermiticity():
    _, gen = series_generator()
    rho0 = DensityMatrix.ground_state(gen.layout)
    out = evolve(gen, rho0, 0.0, 5.0)
    assert abs(np.trace(out.data) - 1.0) < 1e-9
    assert np.max(np.abs(out.data - out.data.conj().T)) < 1e-9


def test_evolve_rejects_coarse_dt_with_drives():
    _, gen = series_generator()
    rho0 = DensityMatrix.ground_state(gen.layout)
    with pytest.raises(ValueError, match="resolve"):
        evolve(gen, rho0, 0.0, 1.0, dt=T_DRIVE / 5.0)
    with pytest.raises(ValueError, match="precede"):
        evolve(gen, rho0, 1.0, 0.0)


def test_evolve_fourth_order_convergence():
    # halving dt must shrink the error by ~2^4; fit the observed order
    _, gen = series_generator()
    layout = gen.layout
    rho0 = DensityMatrix.from_matrix(
        layout, np.diag([0.4, 0.3, 0.0, 0.2, 0.1, 0, 0, 0, 0]).astype(complex)
    )
    t_end = 0.5
    reference = evolve(gen, rho0, 0.0, t_end, dt=T_DRIVE / 1024).data
    errors = []
    for steps in (32, 64, 128):
        out = evolve(gen, rho0, 0.0, t_end, dt=T_DRIVE / steps).data
        errors.append(np.max(np.abs(out - reference)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) > 3.5


def test_direct_thermal_populations():
    gen = decay_generator(dim=8, Gamma=10.0, n=0.5)
    rho = steady_state_direct(gen)
    r = 0.5 / 1.5
    expected = np.array([(1 - r) / (1 - r ** 8) * r ** k for k in range(8)])
    np.testing.assert_allclose(np.real(np.diag(rho.data)), expected, atol=1e-10)


def test_direct_parallel_factorizes():
    spec = CircuitSpec.build("parallel", n_left=0.5, n_right=0.0)
    rho = steady_state_direct(build_generator(spec))
    singles = []
    for label in ("D1", "D2"):
        tabs = [
            qutrit_rate_table(spec.diodes[label], 0.5, 10.0, True),
            qutrit_rate_table(spec.diodes[label], 0.0, 10.0, False),
        ]
        singles.append(steady_state_direct(single_qutrit_rate_generator(tabs)).data)
    np.testing.assert_allclose(rho.data, np.kron(singles[0], singles[1]), atol=1e-10)


def test_direct_rejects_driven_generator():
    _, gen = series_generator()
    with pytest.raises(ValueError, match="drive"):
        steady_state_direct(gen)


def coherent_generator(h: np.ndarray) -> Liouvillian:
    from heatrect.circuits import TimeDependentOperator

    layout = SpaceLayout.of(("A", HarmonicOscillator(h.shape[0])))
    return Liouvillian(layout, TimeDependentOperator(SparseOperator.wrap(layout, h)), ())


def random_hermitian(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


@pytest.mark.parametrize(
    "make_generator",
    [
        # purely coherent: every energy eigenstate projector is stationary
        lambda: coherent_generator(np.diag([0.0, 1.0]).astype(complex)),
        # dense random H: no factor is exactly singular, the two trace
        # slices must disagree
        lambda: coherent_generator(random_hermitian(3, seed=3)),
        lambda: coherent_generator(random_hermitian(5, seed=5)),
        lambda: coherent_generator(random_hermitian(8, seed=8)),
        # qutrit with two absorbing states, |0> and |2>
        lambda: single_qutrit_rate_generator([RateTable({(1, 0): 1.0, (1, 2): 2.0})]),
    ],
    ids=["coherent-diag-2", "coherent-random-3", "coherent-random-5", "coherent-random-8",
         "qutrit-two-absorbing"],
)
def test_direct_reports_degenerate_null_space(make_generator):
    with pytest.raises(DegenerateSteadyStateError):
        steady_state_direct(make_generator())


def test_direct_agrees_with_long_time_evolution():
    table = qutrit_rate_table(DiodeParams(), n=0.3, Gamma=10.0, modulated=True)
    gen = single_qutrit_rate_generator([table])
    direct = steady_state_direct(gen)
    evolved = evolve(gen, DensityMatrix.ground_state(gen.layout), 0.0, 2000.0)
    assert fidelity(direct, evolved) > 1.0 - 1e-8


def test_averaged_synthetic_exponential_observable():
    # pure decay observed through W = I + |1><1| gives J(t) = 1 + exp(-t);
    # the window average is within 1e-4 of its limit already in block 1
    gen = decay_generator(dim=2, Gamma=1.0)
    layout = gen.layout
    rho0 = DensityMatrix.from_matrix(layout, np.diag([0.0, 1.0]).astype(complex))
    w = identity_op(layout) + projector(layout, "L", 1)
    obs = CurrentFunctional("one_plus_decay", w)
    res = steady_state_averaged(gen, rho0, observable=obs)
    assert res.converged_block == 1
    assert res.blocks_used == 2
    assert res.converged_value == pytest.approx(1.0, abs=1e-12)


def test_averaged_compiled_matches_stepping():
    _, gen = series_generator()
    protocol = ConvergenceProtocol(
        block_length=95 * T_DRIVE, average_window=20 * T_DRIVE, rel_tol=0.05, max_blocks=30
    )
    spec, _ = series_generator()
    tables = {"D2": qutrit_rate_table(spec.diodes["D2"], 0.0, 10.0, modulated=False)}
    obs = emission_current_functional(gen.layout, ["D2"], tables)
    compiled = steady_state_averaged(gen, protocol=protocol, observable=obs, compiled=True)
    stepping = steady_state_averaged(gen, protocol=protocol, observable=obs, compiled=False)
    assert compiled.method == "compiled-block-map"
    assert stepping.method == "stepping"
    assert compiled.converged_block == stepping.converged_block
    assert compiled.converged_value == pytest.approx(stepping.converged_value, abs=1e-12)
    assert np.max(np.abs(compiled.final_state.data - stepping.final_state.data)) < 1e-10


def test_averaged_nonconvergence_carries_last_averages():
    _, gen = series_generator()
    protocol = ConvergenceProtocol(
        block_length=40 * T_DRIVE, average_window=10 * T_DRIVE, rel_tol=1e-12, max_blocks=3
    )
    spec, _ = series_generator()
    tables = {"D2": qutrit_rate_table(spec.diodes["D2"], 0.0, 10.0, modulated=False)}
    obs = emission_current_functional(gen.layout, ["D2"], tables)
    with pytest.raises(ConvergenceError) as err:
        steady_state_averaged(gen, protocol=protocol, observable=obs)
    assert len(err.value.last_averages) == 2
    assert all(np.isfinite(v) for v in err.value.last_averages)
    assert len(err.value.block_averages) == protocol.max_blocks
    assert tuple(err.value.block_averages[-2:]) == err.value.last_averages


def test_averaged_matches_direct_for_time_independent_generator():
    table = qutrit_rate_table(DiodeParams(), n=0.4, Gamma=10.0, modulated=True)
    gen = single_qutrit_rate_generator([table])
    direct = steady_state_direct(gen)
    obs = CurrentFunctional("p2", projector(gen.layout, "D1", 2))
    res = steady_state_averaged(gen, observable=obs)
    direct_value = obs.value(direct)
    assert res.converged_value == pytest.approx(direct_value, abs=1e-6)
    assert fidelity(res.final_state, direct) > 1.0 - 1e-8


def test_averaged_trajectory_sampling():
    _, gen = series_generator()
    protocol = ConvergenceProtocol(
        block_length=60 * T_DRIVE, average_window=15 * T_DRIVE, rel_tol=0.5, max_blocks=10
    )
    spec, _ = series_generator()
    tables = {"D2": qutrit_rate_table(spec.diodes["D2"], 0.0, 10.0, modulated=False)}
    obs = emission_current_functional(gen.layout, ["D2"], tables)
    res = steady_state_averaged(
        gen, protocol=protocol, observable=obs, trajectory_points_per_block=6
    )
    traj = res.trajectory
    assert traj is not None and traj.name == obs.name
    assert len(traj.times) == len(traj.values) > 0
    assert np.all(np.diff(traj.times) > 0)


def test_hermitian_basis_transform_is_unitary_and_real():
    rng = np.random.default_rng(17)
    for d in (2, 3, 5):
        t = hermitian_basis_transform(d)
        dense = t.toarray()
        np.testing.assert_allclose(dense @ dense.conj().T, np.eye(d * d), atol=1e-12)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        herm = x + x.conj().T
        coords = dense @ vectorize(herm)
        assert np.max(np.abs(coords.imag)) < 1e-12


def test_averaged_needs_observable():
    gen = decay_generator(dim=2)
    with pytest.raises(ValueError, match="observable"):
        steady_state_averaged(gen)


def test_averaged_rejects_coarse_dt_with_drives():
    spec, gen = series_generator()
    tables = {"D2": qutrit_rate_table(spec.diodes["D2"], 0.0, 10.0, modulated=False)}
    obs = emission_current_functional(gen.layout, ["D2"], tables)
    with pytest.raises(ValueError, match="resolve"):
        steady_state_averaged(gen, observable=obs, dt=T_DRIVE / 5.0)


def test_evolve_full_bridge_matrix_free_matches_half_evolutions():
    # dim 729 exceeds the materialization limit, forcing the matrix-free
    # path; the reduced bridge factorizes, so evolving the product state
    # must agree with the product of the independently evolved halves
    from heatrect.lindblad import build_bridge_half_generators

    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=3)
    full = build_generator(spec)
    assert full.dim == 729
    upper, lower = build_bridge_half_generators(spec)
    rho_full = DensityMatrix.ground_state(full.layout)
    t_end = 3.2e-3
    out_full = evolve(full, rho_full, 0.0, t_end)
    out_u = evolve(upper, DensityMatrix.ground_state(upper.layout), 0.0, t_end)
    out_l = evolve(lower, DensityMatrix.ground_state(lower.layout), 0.0, t_end)
    np.testing.assert_allclose(
        out_full.data, np.kron(out_u.data, out_l.data), atol=1e-8
    )
    assert abs(np.trace(out_full.data) - 1.0) < 1e-9
