import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order, connected_components

from heatrect import lindblad, steady
from heatrect.circuits import CircuitSpec, TimeDependentOperator
from heatrect.lindblad import (
    Liouvillian,
    RateTable,
    _to_real_superop,
    bridge_rate_tables,
    build_bridge_half_generators,
    build_generator,
    qutrit_rate_table,
    hermitian_basis_transform,
    transition_op,
    unvectorize,
    vectorize,
)
from heatrect.observables import (
    CurrentFunctional,
    bath_current_functional,
    fidelity,
    net_bath_current_functional,
)
from heatrect.spaces import (
    DensityMatrix,
    SpaceLayout,
    SparseOperator,
    lowering_op,
    number_op,
    projector,
    raising_op,
)
from heatrect.steady import (
    ConvergenceProtocol,
    DegenerateSteadyStateError,
    _block_map_and_window_row,
    _build_unit_map,
    _generator_norm_bound,
    _make_rhs,
    _real_observable,
    _rk4_steps,
    _unit_grid,
    drive_limited_dt,
    evolve,
    stability_limited_dt,
    steady_state,
    steady_state_averaged,
    steady_state_direct,
)

from helpers import qutrit_rate_generator

T_DRIVE = 2.0 * math.pi / 300.0


def decay_generator(dim=8, Gamma=1.0, n=0.0):
    layout = SpaceLayout.of(("L", dim))
    jumps = [(Gamma * (n + 1.0), lowering_op(layout, "L"))]
    if n > 0:
        jumps.append((Gamma * n, raising_op(layout, "L")))
    return Liouvillian(layout, None, tuple(jumps))


def series_generator(n_left=0.5, n_right=0.0, dw2=300.0):
    spec = CircuitSpec.build("series", n_left=n_left, n_right=n_right,
                             delta_omega={"D1": 300.0, "D2": dw2})
    return spec, build_generator(spec)


def test_evolve_zero_generator_is_identity():
    layout = SpaceLayout.of(("A", 3))
    gen = Liouvillian(layout, None, ())
    rho0 = DensityMatrix.ground_state(layout)
    out = evolve(gen, rho0, 0.0, 2.0, dt=0.1)
    np.testing.assert_array_equal(out.data, rho0.data)


def test_evolve_over_an_empty_interval_returns_a_copy():
    # t1 == t0 takes no step: the result is rho0, but not rho0's array
    _, gen = series_generator()
    weights = np.random.default_rng(5).random(gen.dim)
    rho0 = DensityMatrix.from_matrix(gen.layout, np.diag(weights / weights.sum()).astype(complex))
    before = rho0.data.copy()
    out = evolve(gen, rho0, 1.5, 1.5)
    assert out.layout == rho0.layout
    np.testing.assert_array_equal(out.data, before)
    out.data[0, 0] = 7.0
    np.testing.assert_array_equal(rho0.data, before)
    # a state on another layout is refused before the empty interval returns
    with pytest.raises(ValueError, match="initial state layout does not match"):
        evolve(gen, DensityMatrix.ground_state(SpaceLayout.of(("A", 3))), 1.5, 1.5)


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
    table = qutrit_rate_table(300.0, 1.0, 0.5, n=0.5, Gamma=10.0, modulated=True)
    gen = qutrit_rate_generator([table])
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


@pytest.mark.parametrize("t0, t1, dt, name", [
    (math.nan, 1.0, None, "t0"), (-math.inf, 1.0, None, "t0"),
    (0.0, math.nan, None, "t1"), (0.0, math.inf, None, "t1"),
    (0.0, 1.0, math.nan, "dt"), (0.0, 1.0, math.inf, "dt"),
], ids=["t0-nan", "t0-minus-inf", "t1-nan", "t1-inf", "dt-nan", "dt-inf"])
def test_evolve_rejects_non_finite_times(t0, t1, dt, name):
    # a nan or infinite time used to reach math.ceil (an unnamed ValueError
    # or an OverflowError), and an infinite dt ran one step of length t1 - t0
    gen = decay_generator(dim=2, Gamma=1.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        evolve(gen, DensityMatrix.ground_state(gen.layout), t0, t1, dt)


def _count_validations(monkeypatch) -> list:
    """The states that ``DensityMatrix.validate`` is called on, in order."""
    checked = []

    def counted(self, _original=DensityMatrix.validate):
        checked.append(self)
        return _original(self)

    monkeypatch.setattr(DensityMatrix, "validate", counted)
    return checked


def test_averaged_and_evolve_validate_the_state_they_return(monkeypatch):
    _, gen = series_generator()
    rho0 = DensityMatrix.ground_state(gen.layout)
    obs = bath_current_functional(gen, "right")
    checked = _count_validations(monkeypatch)
    out = evolve(gen, rho0, 0.0, 0.5)
    assert len(checked) == 1 and checked[0] is out
    result = steady_state_averaged(gen, obs, ConvergenceProtocol(block_length=200.0, average_window=50.0))
    assert len(checked) == 2 and checked[1] is result.state


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


def test_evolve_and_rk4_steps_leave_their_input_unchanged():
    _, gen = series_generator()
    rng = np.random.default_rng(3)
    weights = rng.random(gen.dim)
    rho0 = DensityMatrix.from_matrix(gen.layout, np.diag(weights / weights.sum()).astype(complex))
    before = rho0.data.copy()
    out = evolve(gen, rho0, 0.0, 0.05)
    np.testing.assert_array_equal(rho0.data, before)
    assert not np.array_equal(out.data, before)

    # the stepper updates a private copy in place and yields that copy
    state = rho0.vec()[:, None]
    start = state.copy()
    rhs = _make_rhs(*gen.superops())
    stepped = list(_rk4_steps(rhs, state, 0.0, 1e-3, 3))
    np.testing.assert_array_equal(state, start)
    assert all(s is stepped[0] for s in stepped)


def drive_outside_static_generator() -> Liouvillian:
    """A generator whose 300 drive is an exchange that the static Hamiltonian
    lacks (every wiring-table drive lies inside its static pattern)."""
    layout = SpaceLayout.of(("A", 3), ("B", 2))
    exchange = (lowering_op(layout, "A") @ raising_op(layout, "B")
                + raising_op(layout, "A") @ lowering_op(layout, "B"))
    hamiltonian = TimeDependentOperator(
        -300.0 * projector(layout, "A", 0),
        ((300.0, 2.5 * exchange), (600.0, 0.7 * number_op(layout, "B"))),
    )
    return Liouvillian(layout, hamiltonian,
                       ((1.0, lowering_op(layout, "A")), (0.5, lowering_op(layout, "B"))))


def test_make_rhs_on_the_union_pattern_matches_separate_products():
    # the superoperators share the term table's pattern, the union of the
    # terms' patterns; the static one holds explicit zeros where only the
    # exchange drive is nonzero
    gen = drive_outside_static_generator()
    static, drives = gen.superops()
    assert static.shape == (36, 36) and np.iscomplexobj(static.data)
    for _, s in drives:
        assert np.array_equal(s.indptr, static.indptr) and np.array_equal(s.indices, static.indices)
    assert np.any((static.data == 0) & (drives[0][1].data != 0))

    rhs = _make_rhs(static, drives)
    rng = np.random.default_rng(11)
    for shape in ((36, 1), (36, 5)):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for t in (0.0, 1.3e-3, 7.9e-3, 0.41):
            expected = static @ v
            for nu, s in drives:
                expected = expected + math.cos(nu * t) * (s @ v)
            got = np.zeros_like(expected)
            rhs(v, t, 1.0, got)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_make_rhs_adds_the_scaled_product_into_out(real):
    # the kernel adds scale * L(t) v to an out that already holds values,
    # as csr_array @ computes it, for vectors and matrices of them
    gen = drive_outside_static_generator()
    if real:
        _, static, drives = gen.real_superops()
    else:
        static, drives = gen.superops()
    dtype = static.dtype
    assert np.iscomplexobj(static.data) != real and len(drives) == 2
    rhs = _make_rhs(static, drives)
    n = static.shape[0]
    rng = np.random.default_rng(5)

    def sample(shape):
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)

    for shape in ((n, 1), (n, 4)):
        for t in (0.0, 2.1e-3, 1.7e-2, 0.93):
            v, out = sample(shape), sample(shape)
            product = static @ v
            for nu, s in drives:
                product = product + math.cos(nu * t) * (s @ v)
            expected = out + 0.37 * product
            rhs(v, t, 0.37, out)
            assert out.dtype == dtype
            assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))

    # an out the kernel cannot write in place, or of another dtype, raises
    v = sample((n, 4))
    with pytest.raises(ValueError, match="C-contiguous"):
        rhs(v, 0.0, 1.0, np.asfortranarray(sample((n, 4))))
    other = np.complex128 if real else np.float64
    with pytest.raises(ValueError, match="one dtype"):
        rhs(v, 0.0, 1.0, np.zeros((n, 4), dtype=other))
    with pytest.raises(ValueError, match="one dtype"):
        rhs(np.zeros((n, 4), dtype=other), 0.0, 1.0, np.zeros((n, 4), dtype=dtype))
    with pytest.raises(ValueError, match="cannot hold"):
        rhs(v, 0.0, 1.0, np.zeros((n, 3), dtype=dtype))


def test_make_rhs_takes_a_matrix_of_states_only():
    # one private kernel, csr_matvecs, with one shape rule: a single state
    # is one column, and a 1-D state vector is refused
    static, drives = drive_outside_static_generator().superops()
    rhs = _make_rhs(static, drives)
    v = np.ones(36, dtype=complex)
    with pytest.raises(ValueError, match="a matrix of states"):
        rhs(v, 0.0, 1.0, np.zeros(36, dtype=complex))
    out = np.zeros((36, 1), dtype=complex)
    rhs(v[:, None], 0.0, 1.0, out)
    expected = static @ v + sum(s @ v for _, s in drives)  # cos(nu * 0) = 1
    np.testing.assert_allclose(out[:, 0], expected, rtol=0, atol=1e-12)


def test_rk4_steps_allocate_no_state_sized_array_per_step():
    import tracemalloc

    _, (_, lower) = bridge_halves(3)
    _, l0, drives = lower.real_superops()
    side = l0.shape[0]
    assert side == 141
    steps = _rk4_steps(_make_rhs(l0, drives), np.eye(side), 0.0, 1e-3, 6)
    tracemalloc.start()
    try:
        next(steps)
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        for _ in steps:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < side * side * 8 // 4


def test_make_rhs_rejects_superoperators_on_different_patterns():
    # with their explicit zeros dropped, the exchange drive lies partly
    # outside the static pattern
    gen = drive_outside_static_generator()
    static, drives = gen.superops()
    for m in (static, *(s for _, s in drives)):
        m.eliminate_zeros()
    with pytest.raises(ValueError, match="share one sparsity pattern"):
        _make_rhs(static, drives)
    static, drives = gen.superops()
    shifted = drives[0][1].copy()
    shifted.indices = (shifted.indices + 1) % 36
    with pytest.raises(ValueError, match="share one sparsity pattern"):
        _make_rhs(static, ((300.0, shifted),))


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
            qutrit_rate_table(spec.delta_omega[label], spec.J, spec.J_prime, 0.5, 10.0, True),
            qutrit_rate_table(spec.delta_omega[label], spec.J, spec.J_prime, 0.0, 10.0, False),
        ]
        singles.append(steady_state_direct(qutrit_rate_generator(tabs)).data)
    np.testing.assert_allclose(rho.data, np.kron(singles[0], singles[1]), atol=1e-10)


def test_direct_rejects_driven_generator():
    _, gen = series_generator()
    with pytest.raises(ValueError, match="drive"):
        steady_state_direct(gen)


def coherent_generator(h: np.ndarray) -> Liouvillian:
    layout = SpaceLayout.of(("A", h.shape[0]))
    return Liouvillian(layout, TimeDependentOperator(SparseOperator.wrap(layout, h)), ())


def random_hermitian(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


DEGENERATE_CASES = [
    # purely coherent: every energy eigenstate projector is stationary
    lambda: coherent_generator(np.diag([0.0, 1.0]).astype(complex)),
    # dense random H: no factor is exactly singular, the two trace
    # slices must disagree
    lambda: coherent_generator(random_hermitian(3, seed=3)),
    lambda: coherent_generator(random_hermitian(5, seed=5)),
    lambda: coherent_generator(random_hermitian(8, seed=8)),
    lambda: coherent_generator(random_hermitian(12, seed=12)),
    # qutrit with two absorbing states, |0> and |2>
    lambda: qutrit_rate_generator([RateTable({(1, 0): 1.0, (1, 2): 2.0})]),
    # qutrit whose one jump |0><2| + |1><2| leaves every state of |0> and |1>
    # stationary: the coherence level Re rho_01 is singular
    lambda: jump_only_generator((0, 2), (1, 2)),
]


@pytest.mark.parametrize(
    "make_generator", DEGENERATE_CASES,
    ids=["coherent-diag-2", "coherent-random-3", "coherent-random-5", "coherent-random-8",
         "coherent-random-12", "qutrit-two-absorbing", "qutrit-jump-into-a-free-qubit"],
)
def test_direct_reports_degenerate_null_space(make_generator):
    with pytest.raises(DegenerateSteadyStateError):
        steady_state_direct(make_generator())


def jump_only_generator(*entries) -> Liouvillian:
    """A qutrit with no Hamiltonian and the one jump sum |k><l| over ``entries``."""
    layout = SpaceLayout.of(("A", 3))
    jump = np.zeros((3, 3))
    for k, l in entries:
        jump[k, l] = 1.0
    return Liouvillian(layout, None, ((1.0, SparseOperator.wrap(layout, jump)),))


def test_direct_reports_a_singular_coherence_level():
    # the jump feeds Re rho_01 from |2>, so it is the one coherence level, and
    # nothing drains it, so its diagonal block is zero
    gen = jump_only_generator((0, 2), (1, 2))
    assert gen._real().bounds == (0, 3, 4)
    with pytest.raises(DegenerateSteadyStateError, match="a coherence level is singular"):
        steady_state_direct(gen)


def two_slice_reference(gen: Liouvillian) -> np.ndarray:
    """The state by two sparse LU solves, the trace row in place of row 0
    and then of row d-1, each with SuperLU's own column order; the two must
    agree."""
    d = gen.dim
    transform, lb, _ = gen.real_superops()
    lb.eliminate_zeros()
    solutions = []
    for row in (0, d - 1):
        system = lb.tolil()
        system[row] = 0.0
        system[row, :d] = 1.0
        rhs = np.zeros(lb.shape[0])
        rhs[row] = 1.0
        x = spla.splu(sp.csc_array(system)).solve(rhs)
        solutions.append(x / x[:d].sum())
    np.testing.assert_allclose(solutions[0], solutions[1], rtol=0, atol=1e-10)
    rho = unvectorize(transform.conj().T @ solutions[0].astype(complex), d)
    return rho / np.trace(rho)


def refined_dense_reference(gen: Liouvillian, steps: int = 3) -> np.ndarray:
    """The state by a dense float64 solve of M_0, the real block with the
    trace row in place of row 0, refined by ``steps`` solves against
    residuals formed in ``np.longdouble``."""
    d = gen.dim
    transform, lb, _ = gen.real_superops()
    system = lb.toarray()
    system[0] = 0.0
    system[0, :d] = 1.0
    rhs = np.zeros(lb.shape[0], dtype=np.longdouble)
    rhs[0] = 1.0
    exact = system.astype(np.longdouble)
    x = np.linalg.solve(system, rhs.astype(np.float64)).astype(np.longdouble)
    for _ in range(steps):
        x += np.linalg.solve(system, (rhs - exact @ x).astype(np.float64))
    u = (x / x[:d].sum()).astype(np.float64)
    return unvectorize(transform.conj().T @ u.astype(complex), d)


def pumped_two_level_generator() -> Liouvillian:
    """A two-level oscillator pumped out of its ground state by a+ at rate 1:
    the steady state |1><1| leaves the ground population empty."""
    layout = SpaceLayout.of(("L", 2))
    return Liouvillian(layout, None, ((1.0, raising_op(layout, "L")),))


def direct_solve_cases():
    bridge = [build_bridge_half_generators(CircuitSpec.build(
        "bridge", T_left=1.0, T_right=0.1, delta_omega=dw, gamma_dec=gd, ho_truncation=n))[0]
        for n in (2, 4, 8) for dw, gd in ((300.0, 1e-3), (120.0, 1e-1))]
    # without decoherence, the paper's literal rates, reversed and equal bath temperatures
    bridge += [build_bridge_half_generators(CircuitSpec.build(
        "bridge", T_left=t_left, T_right=t_right, gamma_dec=gd, bridge_rate_mode=mode, ho_truncation=n))[0]
        for n, t_left, t_right, gd, mode in (
            (2, 1.0, 0.1, 0.0, "physical-modulated"), (4, 1.0, 0.1, 0.0, "physical-modulated"),
            (4, 1.0, 0.1, 1e-3, "paper-literal"), (4, 0.1, 1.0, 1e-3, "physical-modulated"),
            (4, 0.5, 0.5, 1e-3, "physical-modulated"))]
    parallel = build_generator(CircuitSpec.build(
        "parallel", n_left=0.5, n_right=0.0, delta_omega={"D1": 300.0, "D2": 150.0}))
    series = build_generator(CircuitSpec.build(
        "series", n_left=0.5, n_right=0.1, J_prime=0.0, delta_omega={"D1": 300.0, "D2": 450.0}))
    single = lindblad.build_reduced_generator(CircuitSpec.build(
        "single-diode", T_left=1.0, T_right=0.1, J_prime=0.0, ho_truncation=4))
    return [*bridge, parallel, series, single, pumped_two_level_generator()]


def test_direct_route_assembles_one_complex_superoperator(monkeypatch):
    # the residual reads superops()[0], once a solve, and nothing else on the
    # direct route assembles a complex superoperator; a degenerate generator
    # fails before its residual
    calls = []
    superops = Liouvillian.superops

    def counted(self):
        calls.append(self)
        return superops(self)

    monkeypatch.setattr(Liouvillian, "superops", counted)
    lindblad._real_table.cache_clear()
    # a delta_omega sweep of one layout shares one real table
    for delta_omega in np.geomspace(50.0, 500.0, 6):
        upper, _ = build_bridge_half_generators(CircuitSpec.build(
            "bridge", T_left=1.0, T_right=0.1, delta_omega=delta_omega, ho_truncation=3))
        steady_state_direct(upper)
    assert lindblad._real_table.cache_info().currsize == 1
    cases = direct_solve_cases()
    for gen in cases:
        rho = steady_state_direct(gen)
        assert abs(np.trace(rho.data) - 1.0) < 1e-12
    assert len(calls) == 6 + len(cases)
    for make_generator in DEGENERATE_CASES:
        with pytest.raises(DegenerateSteadyStateError):
            steady_state_direct(make_generator())
    assert len(calls) == 6 + len(cases)


def test_direct_matches_two_factorization_reference():
    for gen in direct_solve_cases():
        rho = steady_state_direct(gen).data
        np.testing.assert_allclose(rho, two_slice_reference(gen), rtol=0, atol=1e-13)


def test_direct_matches_refined_dense_reference():
    # the bridge halves at gamma_dec = 0 and J' = 0, where M_0 is
    # ill-conditioned, miss this bound (1.2e-13 off at N=4) and are left out
    for gen in direct_solve_cases():
        rho = steady_state_direct(gen).data
        np.testing.assert_allclose(rho, refined_dense_reference(gen), rtol=0, atol=1e-13)


def test_direct_reports_a_singular_population_slice():
    # |0> and |1> exchange coherently and |1> decays to |0>, so the one
    # coherence level, Im rho_01, is regular; Re rho_01, which no real entry
    # joins to the populations, is outside the block; |2> is left alone, so
    # its population is free and the 3 x 3 population system is singular in
    # both trace slices
    layout = SpaceLayout.of(("A", 3))
    swap = transition_op(layout, "A", 0, 1) + transition_op(layout, "A", 1, 0)
    gen = Liouvillian(layout, TimeDependentOperator(swap), ((1.0, transition_op(layout, "A", 1, 0)),))
    assert gen._real().bounds == (0, 3, 4)
    with pytest.raises(DegenerateSteadyStateError, match="trace slice of the population system is singular"):
        steady_state_direct(gen)


def test_normalization_rejects_a_nan_residual(monkeypatch):
    # a nan residual compares False with the 1e-10 bound, so it must be
    # rejected explicitly; the residual reads the complex static superoperator
    gen = decay_generator(dim=2, Gamma=1.0)
    assert steady_state_direct(gen).data[0, 0] == 1.0
    superops = Liouvillian.superops

    def poisoned(self):
        static, drives = superops(self)
        static.data[0] = np.nan
        return static, drives

    monkeypatch.setattr(Liouvillian, "superops", poisoned)
    with pytest.raises(ArithmeticError, match="residual nan"):
        steady_state_direct(gen)


def test_direct_agrees_with_long_time_evolution():
    table = qutrit_rate_table(300.0, 1.0, 0.5, n=0.3, Gamma=10.0, modulated=True)
    gen = qutrit_rate_generator([table])
    direct = steady_state_direct(gen)
    evolved = evolve(gen, DensityMatrix.ground_state(gen.layout), 0.0, 2000.0)
    assert fidelity(direct, evolved) > 1.0 - 1e-8


def test_averaged_synthetic_exponential_observable():
    # a two-level oscillator pumped out of its ground state by a+ at rate 1,
    # observed through W = I + |0><0|, gives J(t) = 1 + exp(-t); the window
    # average is within 1e-4 of its limit already in block 1
    gen = pumped_two_level_generator()
    layout = gen.layout
    w = SparseOperator.wrap(layout, sp.eye_array(layout.total_dim)) + projector(layout, "L", 0)
    obs = CurrentFunctional("one_plus_decay", w)
    res = steady_state_averaged(gen, obs)
    assert res.converged_block == 1
    assert res.blocks_used == 2
    assert res.value == pytest.approx(1.0, abs=1e-12)


def stepped_protocol_reference(gen, protocol, obs, h, period):
    """The windowed-average protocol by one ``evolve`` step at a time.

    Each step starts at its drive-phase-local time (t mod period), as every
    unit of the compiled map does; the window is averaged with the trapezoid
    rule.  ``dt`` sits a hair above ``h`` so that ``evolve`` takes exactly
    one step.  Starts from the ground state and returns the converged block,
    its average and the state after it.
    """
    steps_per_period = round(period / h)
    steps_per_block = round(protocol.block_length / period) * steps_per_period
    window_steps = round(protocol.average_window / period) * steps_per_period
    rho = DensityMatrix.ground_state(gen.layout)
    averages = []
    for block in range(protocol.max_blocks):
        values = []
        for k in range(steps_per_block):
            if k >= steps_per_block - window_steps:
                values.append(obs.value(rho))
            t = (k % steps_per_period) * h
            rho = evolve(gen, rho, t, t + h, dt=h * (1.0 + 1e-13))
        values.append(obs.value(rho))
        averages.append((sum(values) - 0.5 * (values[0] + values[-1])) / window_steps)
        if block >= 1 and abs(averages[-1] - averages[-2]) <= protocol.rel_tol * max(
            abs(averages[-2]), 1e-8
        ):
            return block, averages[-1], rho
    raise AssertionError("reference protocol did not converge")


def test_averaged_compiled_matches_stepping():
    _, gen = series_generator()
    protocol = ConvergenceProtocol(
        block_length=95 * T_DRIVE, average_window=20 * T_DRIVE, rel_tol=0.05, max_blocks=30
    )
    obs = bath_current_functional(gen, "right")
    compiled = steady_state_averaged(gen, protocol=protocol, observable=obs)
    block, value, state = stepped_protocol_reference(gen, protocol, obs, compiled.dt, T_DRIVE)
    assert compiled.converged_block == block
    assert compiled.value == pytest.approx(value, abs=1e-12)
    assert np.max(np.abs(compiled.state.data - state.data)) < 1e-10


@pytest.mark.parametrize("n_p, n_w", [
    (1, 1), (2, 1), (2, 2), (7, 3), (8, 8), (64, 1), (95, 20), (255, 128), (1000, 200),
])
def test_block_map_and_window_row_match_unit_by_unit_loop(n_p, n_w):
    """The squaring kernel against n_p explicit unit steps.

    The window row is a difference of two running sums, s_n_p - s_(n_p-n_w),
    which loses round-off relative to n_p |c|, not to the window sum.  That
    is harmless only because P keeps the trace, as every block map here
    does; a column-stochastic P stands in for one.
    """
    rng = np.random.default_rng(7)
    unit = rng.random((7, 7))
    unit /= unit.sum(axis=0)
    c_avg = rng.standard_normal(7)
    block_map, window_row = _block_map_and_window_row(unit, c_avg, n_p, n_w)

    power, row, window_sum = np.eye(7), c_avg.copy(), np.zeros(7)
    for i in range(n_p):
        if i >= n_p - n_w:
            window_sum += row
        power = unit @ power
        row = row @ unit
    assert np.max(np.abs(block_map - power)) < 1e-13
    assert np.max(np.abs(window_row - window_sum / n_w)) < 1e-13


def bridge_halves(truncation):
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=truncation)
    return spec, build_bridge_half_generators(spec)


def order_zero_pairs(layout) -> np.ndarray:
    """d x d mask of the entries (k, l) whose product states carry the same
    total excitation number (mode level indices summed)."""
    n = np.sum(np.unravel_index(np.arange(layout.total_dim), layout.dims), axis=0)
    return n[:, None] == n[None, :]


def order_zero_cases():
    _, (upper3, lower3) = bridge_halves(3)
    _, (upper4, lower4) = bridge_halves(4)
    single = build_generator(CircuitSpec.build(
        "single-diode", n_left=0.5, n_right=0.0, delta_omega=300.0, ho_truncation=2))
    return [(upper3, 141), (lower3, 141), (upper4, 220), (lower4, 220), (single, 36)]


def assembled_pattern(gen) -> sp.csr_array:
    """The pattern of the generator's assembled static and drive
    superoperators, explicit zeros dropped."""
    static, drives = gen.superops()
    pattern = abs(static)
    for _, s in drives:
        pattern = pattern + abs(s)
    pattern.eliminate_zeros()
    return pattern


def assembled_trace_block(gen) -> np.ndarray:
    """Mask over vec(rho) of the weakly connected components of the
    generator's assembled complex pattern that hold a diagonal entry."""
    d = gen.dim
    _, labels = connected_components(assembled_pattern(gen), directed=True, connection="weak")
    return np.isin(labels, labels[np.arange(d) * (d + 1)])


def order_zero_rows(layout) -> np.ndarray:
    """The rows of ``hermitian_basis_transform`` inside the coherence-order-0
    sector, in their order."""
    full = hermitian_basis_transform(layout.total_dim)
    return np.flatnonzero(abs(full) @ vectorize(order_zero_pairs(layout)).astype(float))


def basis_rows(transform, reference) -> np.ndarray:
    """The row of ``reference`` that each row of ``transform`` is: it must be
    a subset of the rows of ``reference``, entry for entry."""
    order = np.abs((transform @ reference.conj().T).toarray()).argmax(axis=1)
    assert np.unique(order).size == order.size
    assert (transform != reference[order]).nnz == 0
    return order


def real_term_patterns(gen) -> list:
    """|T S_t T^dagger| of every live term on the full real Hermitian basis,
    explicit zeros dropped, as COO matrices."""
    table, full = gen._table(), hermitian_basis_transform(gen.dim)
    patterns = []
    for t in _live_terms(gen):
        s = table.assemble(np.eye(1, table.coefficients.shape[1], t).ravel())
        real = abs((full @ s @ full.conj().T).real)
        real.eliminate_zeros()
        patterns.append(real.tocoo())
    return patterns


@pytest.mark.parametrize("make_generators, sector", [
    (lambda: [*bridge_halves(2)[1], *bridge_halves(3)[1], *bridge_halves(4)[1]], True),
    (lambda: [series_generator()[1]], False),
    (lambda: [build_generator(CircuitSpec.build("parallel", n_left=0.5, n_right=0.0))], False),
    (lambda: [lindblad.build_reduced_generator(CircuitSpec.build(
        "single-diode", T_left=1.0, T_right=0.1, ho_truncation=4))], False),
    (lambda: [coherent_generator(random_hermitian(5, seed=5)), drive_outside_static_generator()], False),
], ids=["bridge-halves-N2-N4", "series", "parallel", "reduced-single-diode", "operator-built"])
def test_levels_make_the_real_block_block_tridiagonal(make_generators, sector):
    for gen in make_generators():
        d, block = gen.dim, gen._real()
        terms, bounds = block.terms, block.bounds
        full = hermitian_basis_transform(d)
        # T is a row subset of the full Hermitian basis, the populations
        # first and in order, and they are level 0
        rows = basis_rows(block.transform, full)
        np.testing.assert_array_equal(rows[:d], np.arange(d))
        assert bounds[:2] == (0, d) and bounds[-1] == terms.side
        # the block is what a walk over the symmetrized full-space real
        # pattern of the live terms reaches from the populations
        patterns = real_term_patterns(gen)
        links = sum((sp.csr_array(p) for p in patterns), sp.csr_array((d * d, d * d)))
        reached = np.zeros(d * d, bool)
        for i in range(d):
            reached[breadth_first_order(links, i, directed=False, return_predecessors=False)] = True
        np.testing.assert_array_equal(np.sort(rows), np.flatnonzero(reached))
        # no live term joins a reached coordinate to an unreached one
        for p in patterns:
            assert not np.any(reached[p.row] != reached[p.col])
        # every real-table entry joins levels at most one apart, and each
        # level keeps the basis order
        level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        entry_rows = np.repeat(np.arange(terms.side), np.diff(terms.indptr))
        assert np.max(np.abs(level[entry_rows] - level[terms.indices])) <= 1
        assert np.all(np.diff(rows)[np.diff(level) == 0] > 0)
        # a bridge half's block is its coherence-order-0 sector
        if sector:
            np.testing.assert_array_equal(np.sort(rows), order_zero_rows(gen.layout))


def test_solves_load_no_scipy_linear_algebra():
    # neither route needs SciPy's sparse or dense linear algebra, so a
    # process that ran both has not loaded it
    src = str(Path(lindblad.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = Path(__file__).with_name("no_scipy_linalg.py")
    subprocess.run([sys.executable, str(script)], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": path})


def test_trace_block_is_the_coherence_order_zero_sector():
    for gen, size in order_zero_cases():
        d = gen.dim
        pairs = order_zero_pairs(gen.layout)
        block = assembled_trace_block(gen)
        np.testing.assert_array_equal(block, vectorize(pairs))
        t_full = hermitian_basis_transform(d)
        t_block = t_full[order_zero_rows(gen.layout)]
        assert t_block.shape == (size, d * d)
        np.testing.assert_allclose((t_block @ t_block.conj().T).toarray(), np.eye(size), atol=1e-12)
        # no generator entry leads from the block to any coordinate outside it
        outside = (abs(t_full) @ vectorize(pairs).astype(float)) == 0
        assert outside.sum() == d * d - size
        static, drives = gen.superops()
        for superop in (static, *(s for _, s in drives)):
            leak = (t_full @ superop @ t_block.conj().T).toarray()[outside]
            assert np.all(leak == 0)


@pytest.mark.parametrize("truncation", [2, 3, 4])
def test_lifted_real_basis_states_are_exactly_hermitian(truncation):
    # T^dagger u of a real u, by the real block's one lift, is Hermitian to
    # the last bit, so neither solver symmetrizes the states it lifts
    rng = np.random.default_rng(truncation)
    halves = bridge_halves(truncation)[1]
    for gen in halves:
        block = gen._real()
        assert (block.lift != block.transform.conj().T).nnz == 0
        u = rng.standard_normal(block.transform.shape[0])
        rho = unvectorize(block.lift @ u.astype(complex), gen.dim)
        assert np.array_equal(rho, rho.conj().T)
    rho = steady_state_direct(halves[0]).data
    assert np.array_equal(rho, rho.conj().T)


def full_space_steady_state(gen) -> np.ndarray:
    """Oracle: sparse LU on the full static superoperator, trace row in place of row 0."""
    d = gen.dim
    trace_row = np.zeros(d * d, dtype=complex)
    trace_row[np.arange(d) * (d + 1)] = 1.0
    static = gen.superops()[0]
    static.eliminate_zeros()
    system = sp.vstack([sp.csr_array(trace_row[None, :]), static[1:]], format="csc")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = spla.splu(system).solve(rhs).reshape((d, d), order="F")
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize(
    "make_generator",
    [
        lambda: bridge_halves(4)[1][0],
        lambda: build_generator(CircuitSpec.build(
            "single-diode", n_left=0.5, n_right=0.0, delta_omega=300.0, ho_truncation=2,
            J_prime=0.0)),
        lambda: build_generator(CircuitSpec.build("series", n_left=0.5, n_right=0.0, J_prime=0.0)),
    ],
    ids=["bridge-upper-N4", "single-diode-N2", "series"],
)
def test_direct_block_solve_matches_full_space_oracle(make_generator):
    gen = make_generator()
    assert gen._real().transform.shape[0] < gen.dim ** 2
    rho = steady_state_direct(gen)
    np.testing.assert_allclose(rho.data, full_space_steady_state(gen), rtol=0, atol=1e-12)


def test_direct_residual_check_guards_the_real_block_solve(monkeypatch):
    # a real table that disagrees with the complex superoperator in one
    # coherence equation: both trace slices agree, the lifted state fails
    gen = bridge_halves(2)[1][0]
    real_tables = Liouvillian._real

    def perturbed(self):
        block = real_tables(self)
        real = block.terms
        row = gen.dim
        entry = real.indptr[row] + np.searchsorted(real.indices[real.indptr[row]:real.indptr[row + 1]], row)
        assert real.indices[entry] == row
        scale = np.ones(real.indices.size)
        scale[entry] = 1.001
        coefficients = sp.csc_array(sp.diags_array(scale) @ real.coefficients)
        terms = lindblad._TermTable(real.side, real.indptr, real.indices, coefficients)
        return dataclasses.replace(block, terms=terms)

    monkeypatch.setattr(Liouvillian, "_real", perturbed)
    with pytest.raises(ArithmeticError, match="residual"):
        steady_state_direct(gen)


def test_averaged_rejects_drives_that_are_not_integer_multiples():
    # a qutrit driven at 300 and 450: commensurate, but 450 is not an integer
    # multiple of 300, so no one-period map of the lowest drive exists
    layout = SpaceLayout.of(("D1", 3))
    drive = projector(layout, "D1", 1)
    hamiltonian = TimeDependentOperator(projector(layout, "D1", 2), ((300.0, drive), (450.0, drive)))
    gen = Liouvillian(layout, hamiltonian, ((1.0, lowering_op(layout, "D1")),))
    obs = CurrentFunctional("p1", projector(layout, "D1", 1))
    protocol = ConvergenceProtocol(block_length=1.0, average_window=0.5, max_blocks=2)
    with pytest.raises(ValueError, match="not integer multiples of the lowest drive frequency"):
        steady_state_averaged(gen, protocol=protocol, observable=obs)


def test_averaged_nonconvergence_carries_last_averages():
    _, gen = series_generator()
    protocol = ConvergenceProtocol(
        block_length=40 * T_DRIVE, average_window=10 * T_DRIVE, rel_tol=1e-12, max_blocks=3
    )
    obs = bath_current_functional(gen, "right")
    flagged = steady_state_averaged(gen, protocol=protocol, observable=obs)
    assert len(flagged.block_averages) == protocol.max_blocks
    assert all(np.isfinite(v) for v in flagged.block_averages[-2:])
    # the flagged record: no state, the last average as its value
    assert not flagged.converged and flagged.state is None
    assert flagged.value == flagged.block_averages[-1]
    assert (flagged.solver, flagged.converged_block, flagged.blocks_used) == (
        "windowed-average", -1, protocol.max_blocks)
    assert flagged.trajectory is None


def test_steady_state_takes_each_route_and_flags_a_run_out_of_blocks():
    undriven = build_generator(CircuitSpec.build(
        "series", n_left=0.5, n_right=0.1, J_prime=0.0, delta_omega={"D1": 300.0, "D2": 450.0}))
    _, driven = series_generator()
    assert not undriven.drive_frequencies and driven.drive_frequencies
    for gen in (undriven, driven):
        obs = bath_current_functional(gen, "right")
        res = steady_state(gen, obs)
        averaged = steady_state_averaged(gen, obs)
        assert res.converged and res.block_dim == averaged.block_dim == 18
        if gen is undriven:
            direct = steady_state_direct(gen)
            assert res.solver == "direct"
            assert res.value == obs.value(direct)
            np.testing.assert_array_equal(res.state.data, direct.data)
            assert (res.converged_block, res.blocks_used, res.block_averages, res.dt,
                    res.block_length_effective, res.window_effective, res.trajectory) == (None,) * 7
        else:
            assert res.solver == averaged.solver == "windowed-average"
            assert (res.value, res.converged_block, res.blocks_used, res.block_averages) == (
                averaged.value, averaged.converged_block, averaged.blocks_used, averaged.block_averages)
            np.testing.assert_array_equal(res.state.data, averaged.state.data)

    # a run out of blocks comes back flagged, the same record from either
    # entry; an undriven generator is never stepped, so it still takes the
    # direct solve
    protocol = ConvergenceProtocol(
        block_length=40 * T_DRIVE, average_window=10 * T_DRIVE, rel_tol=1e-12, max_blocks=3)
    obs = bath_current_functional(driven, "right")
    averaged = steady_state_averaged(driven, obs, protocol)
    flagged = steady_state(driven, obs, protocol)
    assert not flagged.converged and flagged.state is None
    assert not averaged.converged and averaged.state is None
    assert flagged.block_averages == averaged.block_averages
    assert (flagged.value, flagged.converged_block, flagged.blocks_used, flagged.block_dim) == (
        averaged.value, averaged.converged_block, averaged.blocks_used, averaged.block_dim)
    assert (flagged.value, flagged.converged_block, flagged.blocks_used, flagged.block_dim) == (
        flagged.block_averages[-1], -1, protocol.max_blocks, 18)
    assert steady_state(undriven, bath_current_functional(undriven, "right"), protocol).converged


def test_averaged_matches_direct_for_time_independent_generator():
    table = qutrit_rate_table(300.0, 1.0, 0.5, n=0.4, Gamma=10.0, modulated=True)
    gen = qutrit_rate_generator([table])
    direct = steady_state_direct(gen)
    obs = CurrentFunctional("p2", projector(gen.layout, "D1", 2))
    res = steady_state_averaged(gen, observable=obs)
    direct_value = obs.value(direct)
    assert res.value == pytest.approx(direct_value, abs=1e-6)
    assert fidelity(res.state, direct) > 1.0 - 1e-8


def test_averaged_trajectory_sampling():
    _, gen = series_generator()
    protocol = ConvergenceProtocol(
        block_length=60 * T_DRIVE, average_window=15 * T_DRIVE, rel_tol=0.5, max_blocks=10
    )
    obs = bath_current_functional(gen, "right")
    res = steady_state_averaged(
        gen, protocol=protocol, observable=obs, trajectory_points_per_block=6
    )
    traj = res.trajectory
    assert traj is not None and traj.name == obs.name
    assert len(traj.times) == len(traj.values) > 0
    assert np.all(np.diff(traj.times) > 0)
    same = steady_state_averaged(gen, protocol=protocol, observable=obs,
                                 trajectory_points_per_block=np.int64(6))
    assert np.array_equal(same.trajectory.values, traj.values)


@pytest.mark.parametrize("points", [0, -3, 2.5, True, "6"])
def test_averaged_rejects_a_trajectory_count_that_is_not_a_positive_integer(points):
    # -3 used to run and record 14 325 samples; 2.5 and True ran as well
    _, gen = series_generator()
    obs = bath_current_functional(gen, "right")
    with pytest.raises(ValueError, match="trajectory_points_per_block must be None or a positive integer"):
        steady_state_averaged(gen, obs, trajectory_points_per_block=points)


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
    with pytest.raises(TypeError, match="observable"):
        steady_state_averaged(gen)


def test_averaged_rejects_an_observable_on_another_layout():
    # the upper trio's right-bath current has the lower trio's dimension but
    # reads D2's contacts, so it is no current of the lower trio
    _, (upper, lower) = bridge_halves(3)
    obs = bath_current_functional(upper, "right")
    assert obs.observable.matrix.shape == (lower.dim, lower.dim)
    with pytest.raises(ValueError, match="layout"):
        steady_state_averaged(lower, obs)


@pytest.mark.parametrize("route", ["direct", "windowed-average"])
def test_steady_state_rejects_an_observable_on_another_layout_before_solving(route, monkeypatch):
    # the bridge halves cross-wired: each half's observable has the other
    # half's dimension; the direct route used to solve first
    def refused(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(steady, "steady_state_direct", refused)
    monkeypatch.setattr(steady, "steady_state_averaged", refused)
    _, (upper, lower) = bridge_halves(2)
    gen, other = (upper, lower) if route == "direct" else (lower, upper)
    assert bool(gen.drive_frequencies) == (route == "windowed-average")
    obs = bath_current_functional(other, "right")
    assert obs.observable.matrix.shape == (gen.dim, gen.dim)
    with pytest.raises(ValueError, match="observable layout does not match generator layout"):
        steady_state(gen, obs)


@pytest.mark.parametrize("field, value", [
    ("block_length", math.nan), ("block_length", math.inf),
    ("average_window", math.nan), ("average_window", math.inf),
    ("rel_tol", math.nan), ("rel_tol", math.inf),
    ("max_blocks", 2.5), ("max_blocks", 3.0), ("max_blocks", True),
    ("block_length", True), ("average_window", True), ("rel_tol", True),
    ("block_length", "5"), ("average_window", "5"), ("rel_tol", "1e-4"),
    ("max_blocks", 1), ("average_window", 6000.0),
])
def test_protocol_rejects_non_finite_lengths_and_non_integer_block_counts(field, value):
    # 6000 is a finite window, but longer than the default 5000 block
    message = "not exceed block_length" if (field, value) == ("average_window", 6000.0) else "be"
    with pytest.raises(ValueError, match=rf"^{field} must {message}"):
        ConvergenceProtocol(**{field: value})
    assert ConvergenceProtocol(max_blocks=np.int64(3)).max_blocks == 3


def test_evolve_full_bridge_matches_half_evolutions():
    # the reduced bridge factorizes, so evolving the product state with the
    # full six-mode generator must agree with the product of the
    # independently evolved halves
    from heatrect.lindblad import build_bridge_half_generators

    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=2)
    full = build_generator(spec)
    assert full.dim == 324
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


def test_norm_bound_and_step_are_bit_identical_with_cached_jump_norms():
    # values from the bound that re-derived every jump norm at every point
    bridge = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=4)
    upper, lower = build_bridge_half_generators(bridge)
    # at delta_omega = 50 the stability bound, not the drive, sets the step
    _, lower50 = build_bridge_half_generators(CircuitSpec.build(
        "bridge", T_left=1.0, T_right=0.1, delta_omega=50.0, ho_truncation=4))
    expected = [
        (upper, 1212.1975791151945, 0.0011136798350854572),
        (lower, 1219.5034785194462, 0.0010471975511965976),
        (lower50, 219.52783733014437, 0.0061495617886936),
        (series_generator()[1], 1207.729093606279, 0.0010471975511965976),
        (build_generator(CircuitSpec.build("single-diode", n_left=0.5, n_right=0.2, ho_truncation=3)),
         744.4852813742386, 0.0010471975511965976),
    ]
    for _ in range(2):  # the second pass reads the cached norms
        for gen, bound, dt in expected:
            assert _generator_norm_bound(gen) == bound
            assert stability_limited_dt(gen) == dt
    assert stability_limited_dt(lower50) < drive_limited_dt(lower50.drive_frequencies)
    assert _unit_grid(lower50, ConvergenceProtocol()).n_steps == 21
    # a second generator on the same layout shares the cached jump operators
    again, _ = build_bridge_half_generators(bridge)
    assert all(a is b for (_, a), (_, b) in zip(again.jumps, upper.jumps))


@pytest.mark.parametrize("d4", [150.0, 100.0])
def test_unit_grid_steps_resolve_every_drive_frequency(d4):
    # the lower half driven at D3 = 300 and D4 = 150 or 100: the unit is one
    # period of the lowest drive, in whole steps of at most the stability
    # step, which resolves the fastest drive with 20 steps a period
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=3,
                             delta_omega={"D1": 300.0, "D2": 200.0, "D3": 300.0, "D4": d4})
    _, lower = build_bridge_half_generators(spec)
    assert sorted(lower.drive_frequencies) == [d4, 300.0]
    grid = _unit_grid(lower, ConvergenceProtocol())
    period = 2.0 * math.pi / d4
    assert grid.duration == period
    assert grid.n_steps == math.ceil(period / stability_limited_dt(lower) - 1e-12)
    assert grid.n_steps >= steady.DRIVE_STEPS_PER_PERIOD * round(300.0 / d4)
    assert grid.dt == period / grid.n_steps


def reference_unit_map(l0, drives, c_row, grid):
    """Plain RK4 with fresh stage arrays and one sparse product per
    superoperator, the reference for the in-place one-product stepper."""

    def rhs(v, t):
        out = l0 @ v
        for nu, s in drives:
            out += math.cos(nu * t) * (s @ v)
        return out

    h = grid.dt
    unit = np.eye(l0.shape[0])
    c_avg = 0.5 / grid.n_steps * c_row
    for k in range(grid.n_steps):
        t = k * h
        k1 = rhs(unit, t)
        k2 = rhs(unit + (0.5 * h) * k1, t + 0.5 * h)
        k3 = rhs(unit + (0.5 * h) * k2, t + 0.5 * h)
        k4 = rhs(unit + h * k3, t + h)
        unit = unit + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c_avg += (0.5 if k == grid.n_steps - 1 else 1.0) / grid.n_steps * (c_row @ unit)
    return unit, c_avg


def test_unit_map_matches_allocating_two_product_rk4():
    spec, (_, lower) = bridge_halves(3)
    obs = net_bath_current_functional(lower.layout, ["D4"], bridge_rate_tables(spec))
    transform, l0, drives = lower.real_superops()
    rows = basis_rows(transform, hermitian_basis_transform(lower.dim))
    np.testing.assert_array_equal(np.sort(rows), order_zero_rows(lower.layout))
    c_row = _real_observable(transform, obs.observable)
    grid = _unit_grid(lower, ConvergenceProtocol())
    assert len(drives) == 1 and grid.n_steps == 20

    unit, c_avg = _build_unit_map(l0, drives, c_row, grid)
    ref_unit, ref_c = reference_unit_map(l0, drives, c_row, grid)
    assert unit.shape == (141, 141)
    assert np.max(np.abs(unit - ref_unit)) < 1e-12
    assert np.max(np.abs(c_avg - ref_c)) < 1e-12 * max(1.0, np.max(np.abs(ref_c)))


def _generators(topology, **kwargs):
    spec = CircuitSpec.build(topology, **kwargs)
    if topology == "bridge":
        return list(build_bridge_half_generators(spec))
    return [build_generator(spec)]


# both bridge halves, the full single diode, series and parallel, with the
# zero-weight corners: gamma_dec = 0, an empty receiving bath (n = 0), J' = 0
_REAL_TABLE_CASES = {
    "bridge-N3": lambda: _generators("bridge", T_left=1.0, T_right=0.1, ho_truncation=3),
    "bridge-N4": lambda: _generators("bridge", T_left=1.0, T_right=0.1, ho_truncation=4),
    "bridge-N3-no-dec-empty-bath-no-drive": lambda: _generators(
        "bridge", n_left=0.5, n_right=0.0, gamma_dec=0.0, J_prime=0.0, ho_truncation=3),
    "single-diode-N2": lambda: _generators("single-diode", n_left=0.5, n_right=0.0, ho_truncation=2),
    "series": lambda: _generators("series", n_left=0.5, n_right=0.0),
    "series-no-drive": lambda: _generators("series", n_left=0.2, n_right=0.5, J_prime=0.0),
    "parallel": lambda: _generators("parallel", n_left=0.0, n_right=0.5),
    "operator-built-zero-weight-jump": lambda: [_zero_weight_jump_generator()],
}


def _zero_weight_jump_generator() -> Liouvillian:
    # the jump (|0> + |1>)<1| would join the coherences of |0> and |1> to
    # the populations; at weight zero the block is the populations alone
    layout = SpaceLayout.of(("A", 3))
    joining = np.zeros((3, 3))
    joining[:2, 1] = 1.0
    return Liouvillian(layout, None, ((1.0, lowering_op(layout, "A")),
                                      (0.0, SparseOperator.wrap(layout, joining))))


def assert_real_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs((got - want).toarray()), initial=0.0) <= 1e-13


@pytest.mark.parametrize("case", sorted(_REAL_TABLE_CASES))
def test_real_table_matches_assembled_generator(case):
    for gen in _REAL_TABLE_CASES[case]():
        transform, l0, drives = gen.real_superops()
        # the cached block is a row subset of the full Hermitian basis
        basis_rows(transform, hermitian_basis_transform(gen.dim))
        static, complex_drives = gen.superops()
        assert_real_close(l0, _to_real_superop(transform, static, "static"))
        assert [nu for nu, _ in drives] == [nu for nu, _ in complex_drives]
        for (_, got), (_, s) in zip(drives, complex_drives):
            assert_real_close(got, _to_real_superop(transform, s, "drive"))


def _live_terms(gen) -> tuple:
    nonzero = gen._static != 0
    for _, w in gen._drives:
        nonzero = nonzero | (w != 0)
    return tuple(np.flatnonzero(nonzero).tolist())


def _table_arrays(table) -> list:
    c = table.coefficients
    return [table.indptr, table.indices, c.data, c.indices, c.indptr]


def _count_real_table_builds(monkeypatch) -> Counter:
    """Calls of the two steps that build a real table, counted by name."""
    calls = Counter()
    for name in ("hermitian_basis_transform", "_to_real_superop"):
        def counted(*args, _original=getattr(lindblad, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(lindblad, name, counted)
    return calls


def test_real_tables_are_built_once_per_layout_and_stay_unchanged(monkeypatch):
    for cache in (lindblad._term_table, lindblad._real_table, lindblad._operator_table):
        cache.cache_clear()
    calls = _count_real_table_builds(monkeypatch)

    points = [(300.0, 1e-3, 1.0, 0.1), (120.0, 5e-2, 0.1, 1.0), (200.0, 1e-2, 0.5, 0.2)]
    for k, (delta_omega, gamma_dec, t_left, t_right) in enumerate(points):
        before = sum(calls.values())
        spec = CircuitSpec.build("bridge", T_left=t_left, T_right=t_right, delta_omega=delta_omega,
                                 gamma_dec=gamma_dec, ho_truncation=3)
        upper, lower = build_bridge_half_generators(spec)
        steady_state_direct(upper)
        bath_current_functional(upper, "right")
        # the lower half's Hamiltonian, for the step bound, and its current
        # read one operator table
        steady_state_averaged(lower, observable=bath_current_functional(lower, "right"))
        # the first point builds one real table and one operator table per
        # half, later points none
        if k == 0:
            assert calls["hermitian_basis_transform"] == 2
            assert calls["_to_real_superop"] > 0
            assert lindblad._operator_table.cache_info().misses == 2
        else:
            assert sum(calls.values()) == before
            assert lindblad._operator_table.cache_info().misses == 2
        # in-place edits of what a point gets back reach no table
        for gen in (upper, lower):
            static, drives = gen.superops()
            for m in (static, *(s for _, s in drives)):
                m.data[:] = 0.0
                m.eliminate_zeros()
            transform, l0, drives = gen.real_superops()
            for m in (transform, l0, *(s for _, s in drives)):
                m.data[:] = 0.0
                m.eliminate_zeros()
    monkeypatch.undo()

    for gen in (upper, lower):
        keys, live = gen._keys, _live_terms(gen)
        fresh = lindblad._term_table.__wrapped__(gen.layout, keys)
        table = lindblad._term_table(gen.layout, keys)
        hits = lindblad._real_table.cache_info().hits
        block = lindblad._real_table(table, live)
        assert lindblad._real_table.cache_info().hits == hits + 1
        fresh_block = lindblad._real_table.__wrapped__(fresh, live)
        pairs = list(zip(_table_arrays(table), _table_arrays(fresh)))
        for m, m_fresh in ((block.transform, fresh_block.transform), (block.lift, fresh_block.lift)):
            pairs += [(m.data, m_fresh.data), (m.indices, m_fresh.indices), (m.indptr, m_fresh.indptr)]
        pairs += list(zip(_table_arrays(block.terms), _table_arrays(fresh_block.terms)))
        for cached, built in pairs:
            assert cached.dtype == built.dtype and cached.tobytes() == built.tobytes()


def test_operator_built_generator_builds_its_real_table_once(monkeypatch):
    # the real table is cached by the generator's own term table
    gen = drive_outside_static_generator()
    first = gen.real_superops()
    calls = _count_real_table_builds(monkeypatch)
    second = gen.real_superops()
    assert not calls
    for got, want in zip((second[0], second[1], *(s for _, s in second[2])),
                         (first[0], first[1], *(s for _, s in first[2]))):
        assert got is not want and (got != want).nnz == 0


@pytest.mark.parametrize("h", [
    np.triu(np.ones((3, 3)), 1),  # real, not symmetric
    np.array([[0.0, 1j, 0.0], [1j, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # complex symmetric
], ids=["upper-triangular", "complex-symmetric"])
def test_non_hermitian_hamiltonian_fails_the_hermiticity_check(h):
    layout = SpaceLayout.of(("A", 3))
    gen = Liouvillian(layout, TimeDependentOperator(SparseOperator.wrap(layout, h)),
                      ((1.0, lowering_op(layout, "A")),))
    with pytest.raises(ArithmeticError, match="not Hermiticity-preserving"):
        steady_state_direct(gen)
    protocol = ConvergenceProtocol(block_length=1.0, average_window=0.5, max_blocks=3)
    with pytest.raises(ArithmeticError, match="not Hermiticity-preserving"):
        steady_state_averaged(gen, protocol=protocol,
                              observable=CurrentFunctional("p1", projector(layout, "A", 1)))
