import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from heatrect import lindblad
from heatrect.circuits import CircuitSpec, DiodeParams, TimeDependentOperator
from heatrect.lindblad import (
    Liouvillian,
    RateTable,
    _to_real_superop,
    _trace_block,
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
    _block_map_and_window_row,
    _build_unit_map,
    _complex_state,
    _generator_norm_bound,
    _make_rhs,
    _real_observable,
    _rk4_steps,
    _unit_grid,
    evolve,
    stability_limited_dt,
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


def qutrit_rate_generator(tables) -> Liouvillian:
    """A qutrit under summed rate tables, built from operators: one
    |to><from| jump per positive rate, table by table."""
    layout = SpaceLayout.of(("D1", Qutrit()))
    return Liouvillian(layout, None, tuple(
        (table.get(*t), transition_op(layout, "D1", *t))
        for table in tables for t in lindblad._ALLOWED_TRANSITIONS if table.get(*t) > 0))


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
    state = rho0.vec()
    start = state.copy()
    rhs = _make_rhs(*gen.superops())
    stepped = list(_rk4_steps(rhs, state, 0.0, 1e-3, 3))
    np.testing.assert_array_equal(state, start)
    assert all(s is stepped[0] for s in stepped)


def drive_outside_static_generator() -> Liouvillian:
    """A generator whose 300 drive is an exchange that the static Hamiltonian
    lacks (every wiring-table drive lies inside its static pattern)."""
    layout = SpaceLayout.of(("A", Qutrit()), ("B", HarmonicOscillator(2)))
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
    for shape in ((36,), (36, 5)):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for t in (0.0, 1.3e-3, 7.9e-3, 0.41):
            expected = gen.static_superop @ v
            for nu, s in gen.drive_superops:
                expected = expected + math.cos(nu * t) * (s @ v)
            got = rhs(v, t)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_make_rhs_rejects_superoperators_on_different_patterns():
    # the canonical superoperators drop their zeros, so the exchange drive
    # lies partly outside the static pattern
    gen = drive_outside_static_generator()
    with pytest.raises(ValueError, match="share one sparsity pattern"):
        _make_rhs(gen.static_superop, gen.drive_superops)
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
            qutrit_rate_table(spec.diodes[label], 0.5, 10.0, True),
            qutrit_rate_table(spec.diodes[label], 0.0, 10.0, False),
        ]
        singles.append(steady_state_direct(qutrit_rate_generator(tabs)).data)
    np.testing.assert_allclose(rho.data, np.kron(singles[0], singles[1]), atol=1e-10)


def test_direct_rejects_driven_generator():
    _, gen = series_generator()
    with pytest.raises(ValueError, match="drive"):
        steady_state_direct(gen)


def coherent_generator(h: np.ndarray) -> Liouvillian:
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
        lambda: qutrit_rate_generator([RateTable({(1, 0): 1.0, (1, 2): 2.0})]),
    ],
    ids=["coherent-diag-2", "coherent-random-3", "coherent-random-5", "coherent-random-8",
         "qutrit-two-absorbing"],
)
def test_direct_reports_degenerate_null_space(make_generator):
    with pytest.raises(DegenerateSteadyStateError):
        steady_state_direct(make_generator())


def test_direct_agrees_with_long_time_evolution():
    table = qutrit_rate_table(DiodeParams(), n=0.3, Gamma=10.0, modulated=True)
    gen = qutrit_rate_generator([table])
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


def stepped_protocol_reference(gen, protocol, obs, h, period, rho0=None):
    """The windowed-average protocol by one ``evolve`` step at a time.

    Each step starts at its drive-phase-local time (t mod period), as every
    unit of the compiled map does; the window is averaged with the trapezoid
    rule.  ``dt`` sits a hair above ``h`` so that ``evolve`` takes exactly
    one step.  Starts from ``rho0`` (default: the ground state) and returns
    the converged block, its average and the state after it.
    """
    steps_per_period = round(period / h)
    steps_per_block = round(protocol.block_length / period) * steps_per_period
    window_steps = round(protocol.average_window / period) * steps_per_period
    rho = DensityMatrix.ground_state(gen.layout) if rho0 is None else rho0
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
    spec, gen = series_generator()
    protocol = ConvergenceProtocol(
        block_length=95 * T_DRIVE, average_window=20 * T_DRIVE, rel_tol=0.05, max_blocks=30
    )
    obs = bath_current_functional(spec, gen.layout, "right")
    compiled = steady_state_averaged(gen, protocol=protocol, observable=obs)
    assert compiled.method == "compiled-block-map"
    block, value, state = stepped_protocol_reference(gen, protocol, obs, compiled.dt, T_DRIVE)
    assert compiled.converged_block == block
    assert compiled.converged_value == pytest.approx(value, abs=1e-12)
    assert np.max(np.abs(compiled.final_state.data - state.data)) < 1e-10


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


def assembled_trace_block(gen, rho0=None) -> np.ndarray:
    """``_trace_block`` on the pattern of the generator's assembled static
    and drive superoperators, seeded with the support of ``rho0``."""
    pattern = abs(gen.static_superop)
    for _, s in gen.drive_superops:
        pattern = pattern + abs(s)
    support = () if rho0 is None else np.flatnonzero(rho0.vec())
    return _trace_block(pattern, gen.dim, support)


def test_trace_block_is_the_coherence_order_zero_sector():
    for gen, size in order_zero_cases():
        d = gen.dim
        pairs = order_zero_pairs(gen.layout)
        block = assembled_trace_block(gen)
        np.testing.assert_array_equal(block, vectorize(pairs))
        t_block = hermitian_basis_transform(d, pairs)
        assert t_block.shape == (size, d * d)
        np.testing.assert_allclose((t_block @ t_block.conj().T).toarray(), np.eye(size), atol=1e-12)
        # no generator entry leads from the block to any coordinate outside it
        t_full = hermitian_basis_transform(d, np.ones((d, d), bool))
        outside = (abs(t_full) @ vectorize(pairs).astype(float)) == 0
        assert outside.sum() == d * d - size
        for superop in (gen.static_superop, *(s for _, s in gen.drive_superops)):
            leak = (t_full @ superop @ t_block.conj().T).toarray()[outside]
            assert np.all(leak == 0)


def test_averaged_block_takes_in_rho0_support():
    # (|0> + |1>)/sqrt(2) on D3 carries coherence order +-1, outside the
    # order-0 block the ground state starts in
    spec, (_, lower) = bridge_halves(2)
    obs = net_bath_current_functional(lower.layout, ["D4"], bridge_rate_tables(spec))
    plus = np.zeros((3, 3), dtype=complex)
    plus[:2, :2] = 0.5
    ground_m2, ground_d4 = np.diag([1.0, 0.0]), np.diag([1.0, 0.0, 0.0])
    rho0 = DensityMatrix.from_mode_states(lower.layout, [plus, ground_m2, ground_d4])
    protocol = ConvergenceProtocol(
        block_length=95 * T_DRIVE, average_window=20 * T_DRIVE, rel_tol=0.05, max_blocks=30
    )
    order_zero = int(order_zero_pairs(lower.layout).sum())
    res = steady_state_averaged(lower, rho0, protocol=protocol, observable=obs)
    assert res.block_dim > order_zero
    assert np.all(assembled_trace_block(lower, rho0)[np.flatnonzero(rho0.vec())])
    assert steady_state_averaged(lower, protocol=protocol, observable=obs).block_dim == order_zero
    block, value, state = stepped_protocol_reference(lower, protocol, obs, res.dt, T_DRIVE, rho0)
    assert res.converged_block == block
    assert res.converged_value == pytest.approx(value, abs=1e-12)
    assert np.max(np.abs(res.final_state.data - state.data)) < 1e-10


def test_averaged_rejects_an_initial_state_with_an_anti_hermitian_part():
    # rho_01 = rho_10 = 0.3i is anti-Hermitian: the real basis has no
    # coordinate for it, so it would be dropped without a word
    spec, (_, lower) = bridge_halves(2)
    obs = net_bath_current_functional(lower.layout, ["D4"], bridge_rate_tables(spec))
    rho = np.zeros((lower.dim, lower.dim), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    rho[0, 1] = rho[1, 0] = 0.3j
    rho0 = DensityMatrix.from_matrix(lower.layout, rho, validate=False)
    protocol = ConvergenceProtocol(block_length=10 * T_DRIVE, average_window=5 * T_DRIVE,
                                   rel_tol=1.0, max_blocks=3)
    with pytest.raises(ValueError, match="initial state must be Hermitian"):
        steady_state_averaged(lower, rho0, protocol=protocol, observable=obs)
    # a Hermitian state on the same entries is taken
    rho[1, 0] = -0.3j
    rho0 = DensityMatrix.from_matrix(lower.layout, rho, validate=False)
    steady_state_averaged(lower, rho0, protocol=protocol, observable=obs)


@pytest.mark.parametrize("truncation", [2, 3, 4])
def test_lifted_real_basis_states_are_exactly_hermitian(truncation):
    # T^dagger u of a real u is Hermitian to the last bit, so neither solver
    # symmetrizes the states it lifts
    rng = np.random.default_rng(truncation)
    halves = bridge_halves(truncation)[1]
    for gen in halves:
        transform, _, _ = gen.real_superops()
        rho = _complex_state(transform, rng.standard_normal(transform.shape[0]), gen.dim)
        assert np.array_equal(rho, rho.conj().T)
    rho = steady_state_direct(halves[0]).data
    assert np.array_equal(rho, rho.conj().T)


def full_space_steady_state(gen) -> np.ndarray:
    """Oracle: sparse LU on the full static superoperator, trace row in place of row 0."""
    d = gen.dim
    trace_row = np.zeros(d * d, dtype=complex)
    trace_row[np.arange(d) * (d + 1)] = 1.0
    system = sp.vstack([sp.csr_array(trace_row[None, :]), gen.static_superop[1:]], format="csc")
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
    assert int(assembled_trace_block(gen).sum()) < gen.dim ** 2
    rho = steady_state_direct(gen)
    np.testing.assert_allclose(rho.data, full_space_steady_state(gen), rtol=0, atol=1e-12)


def test_direct_residual_check_guards_the_real_block_solve(monkeypatch):
    # a real static block that disagrees with the complex superoperator in
    # one coherence equation: both trace slices agree, the lifted state fails
    gen = bridge_halves(2)[1][0]
    real_superops = Liouvillian.real_superops

    def perturbed(self, rho0=None):
        transform, l0, drives = real_superops(self, rho0)
        row = gen.dim
        l0[row, row] *= 1.001
        return transform, l0, drives

    monkeypatch.setattr(Liouvillian, "real_superops", perturbed)
    with pytest.raises(ArithmeticError, match="residual"):
        steady_state_direct(gen)


def test_averaged_rejects_drives_that_are_not_integer_multiples():
    # a qutrit driven at 300 and 450: commensurate, but 450 is not an integer
    # multiple of 300, so no one-period map of the lowest drive exists
    layout = SpaceLayout.of(("D1", Qutrit()))
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
    spec, _ = series_generator()
    obs = bath_current_functional(spec, gen.layout, "right")
    with pytest.raises(ConvergenceError) as err:
        steady_state_averaged(gen, protocol=protocol, observable=obs)
    assert len(err.value.last_averages) == 2
    assert all(np.isfinite(v) for v in err.value.last_averages)
    assert len(err.value.block_averages) == protocol.max_blocks
    assert tuple(err.value.block_averages[-2:]) == err.value.last_averages


def test_averaged_matches_direct_for_time_independent_generator():
    table = qutrit_rate_table(DiodeParams(), n=0.4, Gamma=10.0, modulated=True)
    gen = qutrit_rate_generator([table])
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
    obs = bath_current_functional(spec, gen.layout, "right")
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
        t = hermitian_basis_transform(d, np.ones((d, d), bool))
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
    obs = bath_current_functional(spec, gen.layout, "right")
    with pytest.raises(ValueError, match="resolve"):
        steady_state_averaged(gen, observable=obs, dt=T_DRIVE / 5.0)


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
    expected = [
        (upper, 1212.1975791151945, 0.0011136798350854572),
        (lower, 1219.5034785194462, 0.0010471975511965976),
        (series_generator()[1], 1207.729093606279, 0.0010471975511965976),
        (build_generator(CircuitSpec.build("single-diode", n_left=0.5, n_right=0.2, ho_truncation=3)),
         744.4852813742386, 0.0010471975511965976),
    ]
    for _ in range(2):  # the second pass reads the cached norms
        for gen, bound, dt in expected:
            assert _generator_norm_bound(gen) == bound
            assert stability_limited_dt(gen) == dt
    # a second generator on the same layout shares the cached jump operators
    again, _ = build_bridge_half_generators(bridge)
    assert all(a is b for (_, a), (_, b) in zip(again.jumps, upper.jumps))


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
    assert (transform != hermitian_basis_transform(lower.dim, order_zero_pairs(lower.layout))).nnz == 0
    c_row = _real_observable(transform, obs.observable)
    grid = _unit_grid(lower, ConvergenceProtocol(), stability_limited_dt(lower))
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
    layout = SpaceLayout.of(("A", Qutrit()))
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
        d = gen.dim
        transform, l0, drives = gen.real_superops()
        # the cached block is the trace block of the assembled superoperators
        t_ref = hermitian_basis_transform(d, unvectorize(assembled_trace_block(gen), d))
        assert transform.shape == t_ref.shape and (transform != t_ref).nnz == 0
        assert_real_close(l0, _to_real_superop(t_ref, gen.static_superop, "static"))
        assert [nu for nu, _ in drives] == [nu for nu, _ in gen.drive_superops]
        for (_, got), (_, s) in zip(drives, gen.drive_superops):
            assert_real_close(got, _to_real_superop(t_ref, s, "drive"))


def _live_terms(gen) -> tuple:
    nonzero = gen._terms.static != 0
    for _, w in gen._terms.drives:
        nonzero = nonzero | (w != 0)
    return tuple(np.flatnonzero(nonzero).tolist())


def _table_arrays(table) -> list:
    c = table.coefficients
    return [table.indptr, table.indices, c.data, c.indices, c.indptr]


def _count_real_table_builds(monkeypatch) -> Counter:
    """Calls of the three steps that build a real table, counted by name."""
    calls = Counter()
    for name in ("_trace_block", "hermitian_basis_transform", "_to_real_superop"):
        def counted(*args, _original=getattr(lindblad, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(lindblad, name, counted)
    return calls


def test_real_tables_are_built_once_per_layout_and_stay_unchanged(monkeypatch):
    lindblad._term_table.cache_clear()
    lindblad._real_table.cache_clear()
    calls = _count_real_table_builds(monkeypatch)

    points = [(300.0, 1e-3, 1.0, 0.1), (120.0, 5e-2, 0.1, 1.0), (200.0, 1e-2, 0.5, 0.2)]
    for k, (delta_omega, gamma_dec, t_left, t_right) in enumerate(points):
        before = sum(calls.values())
        spec = CircuitSpec.build("bridge", T_left=t_left, T_right=t_right, delta_omega=delta_omega,
                                 gamma_dec=gamma_dec, ho_truncation=3)
        upper, lower = build_bridge_half_generators(spec)
        steady_state_direct(upper)
        steady_state_averaged(lower, observable=bath_current_functional(spec, lower.layout, "right"))
        # the first point builds one real table per half, later points none
        if k == 0:
            assert calls["_trace_block"] == calls["hermitian_basis_transform"] == 2
            assert calls["_to_real_superop"] > 0
        else:
            assert sum(calls.values()) == before
        # in-place edits of what a point gets back reach no table
        for gen in (upper, lower):
            for m in (gen.static_superop, *(s for _, s in gen.drive_superops)):
                m.data[:] = 0.0
                m.eliminate_zeros()
            transform, l0, drives = gen.real_superops()
            for m in (transform, l0, *(s for _, s in drives)):
                m.data[:] = 0.0
                m.eliminate_zeros()
    monkeypatch.undo()

    for gen in (upper, lower):
        keys, live = gen._terms.keys, _live_terms(gen)
        fresh = lindblad._term_table.__wrapped__(gen.layout, keys)
        table = lindblad._term_table(gen.layout, keys)
        hits = lindblad._real_table.cache_info().hits
        t, cached_terms = lindblad._real_table(table, gen.dim, live, ())
        assert lindblad._real_table.cache_info().hits == hits + 1
        t_fresh, fresh_terms = lindblad._real_table.__wrapped__(fresh, gen.dim, live, ())
        pairs = list(zip(_table_arrays(table), _table_arrays(fresh)))
        pairs += [(t.data, t_fresh.data), (t.indices, t_fresh.indices), (t.indptr, t_fresh.indptr)]
        pairs += list(zip(_table_arrays(cached_terms), _table_arrays(fresh_terms)))
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
    layout = SpaceLayout.of(("A", Qutrit()))
    gen = Liouvillian(layout, TimeDependentOperator(SparseOperator.wrap(layout, h)),
                      ((1.0, lowering_op(layout, "A")),))
    with pytest.raises(ArithmeticError, match="not Hermiticity-preserving"):
        steady_state_direct(gen)
    protocol = ConvergenceProtocol(block_length=1.0, average_window=0.5, max_blocks=3)
    with pytest.raises(ArithmeticError, match="not Hermiticity-preserving"):
        steady_state_averaged(gen, protocol=protocol,
                              observable=CurrentFunctional("p1", projector(layout, "A", 1)))
