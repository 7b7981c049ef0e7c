import functools
import math
import operator

import numpy as np
import pytest
import scipy.sparse as sp

from heatrect import lindblad
from heatrect.circuits import (
    TOPOLOGIES,
    CircuitSpec,
    CircuitTopology,
    TimeDependentOperator,
)
from heatrect.lindblad import (
    Liouvillian,
    RateTable,
    bridge_rate_tables,
    build_bridge_half_generators,
    build_generator,
    build_reduced_generator,
    qutrit_rate_table,
    sector_dim,
    transition_op,
    unvectorize,
    vectorize,
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
from heatrect.observables import bath_current_functional, net_bath_current_functional
from heatrect.scenarios import _grid_points, validate_config
from heatrect.steady import (
    _generator_norm_bound,
    evolve,
    stability_limited_dt,
    steady_state_averaged,
    steady_state_direct,
)

from helpers import qutrit_rate_generator, random_density


def random_operator(rng, layout):
    d = layout.total_dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return SparseOperator.wrap(layout, m)


def dense_lindblad_term(a, rho):
    ad = a.conj().T
    return a @ rho @ ad - 0.5 * (ad @ a @ rho + rho @ ad @ a)


def generator_action(gen, rho, t=0.0):
    """d(rho)/dt through the materialized superoperators: (L0 + sum cos(nu t) L_nu) vec(rho)."""
    v = vectorize(rho)
    static, drives = gen.superops()
    out = static @ v
    for nu, s in drives:
        out = out + math.cos(nu * t) * (s @ v)
    return unvectorize(out, gen.dim)


def dense_generator_action(gen, rho, t):
    """-i[H(t), rho] + sum w (A rho A† - {A†A, rho}/2), written out with dense matrices."""
    out = np.zeros_like(rho, dtype=complex)
    if gen.hamiltonian is not None:
        h = gen.hamiltonian.static_part.matrix.toarray()
        for nu, v in gen.hamiltonian.drive_terms:
            h = h + math.cos(nu * t) * v.matrix.toarray()
        out += -1j * (h @ rho - rho @ h)
    for weight, op in gen.jumps:
        out += weight * dense_lindblad_term(op.matrix.toarray(), rho)
    return out


def dissipator(op, weight=1.0):
    """Superoperator of weight * M[A] through a one-jump generator."""
    return Liouvillian(op.layout, None, ((weight, op),)).superops()[0]


def test_dissipator_two_level_example():
    layout = SpaceLayout.of(("A", 2))
    a = SparseOperator.wrap(layout, np.array([[0, 1], [0, 0]], dtype=complex))
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = unvectorize(dissipator(a) @ vectorize(rho), 2)
    np.testing.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-14)


def test_dissipator_matches_dense_formula():
    rng = np.random.default_rng(11)
    layout = SpaceLayout.of(("A", 3))
    # the annihilation operator on I/3, then random operators on random states
    a = lowering_op(layout, "A")
    rho = np.eye(3, dtype=complex) / 3
    out = unvectorize(dissipator(a) @ vectorize(rho), 3)
    np.testing.assert_allclose(out, dense_lindblad_term(a.matrix.toarray(), rho), atol=1e-13)

    for _ in range(5):
        op = random_operator(rng, layout)
        rho = random_density(rng, 3)
        out = unvectorize(dissipator(op) @ vectorize(rho), 3)
        np.testing.assert_allclose(out, dense_lindblad_term(op.matrix.toarray(), rho), atol=1e-12)
        assert abs(np.trace(out)) < 1e-12


def test_rate_table_values_modulated():
    t = qutrit_rate_table(300.0, 1.0, 0.5, n=0.5, Gamma=10.0, modulated=True)
    assert t.get(0, 1) == pytest.approx(0.0125 + 5.0 / 90025.0, abs=1e-15)
    assert t.get(1, 2) == pytest.approx(0.4, abs=1e-15)
    assert t.get(2, 1) == pytest.approx(1.2, abs=1e-15)
    assert t.get(0, 2) == 0.0 and t.get(2, 0) == 0.0


def test_rate_table_values_static():
    t = qutrit_rate_table(300.0, 1.0, 0.5, n=0.0, Gamma=10.0, modulated=False)
    assert t.get(0, 1) == 0.0
    assert t.get(1, 2) == 0.0
    assert t.get(2, 1) == pytest.approx(0.8, abs=1e-15)
    assert t.get(1, 0) == pytest.approx(10.0 / 90025.0, abs=1e-18)

    empty = qutrit_rate_table(300.0, 1.0, 0.5, n=0.0, Gamma=10.0, modulated=True)
    assert empty.get(0, 1) == 0.0  # nothing pumps from an empty bath


def test_rate_table_detailed_balance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = float(rng.uniform(0.01, 3.0))
        delta_omega, J_prime = float(rng.uniform(50, 500)), float(rng.uniform(0.0, 1.0))
        for modulated in (True, False):
            t = qutrit_rate_table(delta_omega, 1.0, J_prime, n, 10.0, modulated)
            assert t.get(0, 1) / t.get(1, 0) == pytest.approx(n / (1 + n), rel=1e-14)
            assert t.get(1, 2) / t.get(2, 1) == pytest.approx(n / (1 + n), rel=1e-14)


def test_rate_table_validation():
    # every number is checked by name, as CircuitSpec checks it
    good = {"delta_omega": 300.0, "J": 1.0, "J_prime": 0.5, "n": 0.5, "Gamma": 10.0}
    for name, bad, match in (("n", -0.1, "must be nonnegative"), ("Gamma", 0.0, "must be positive"),
                             ("delta_omega", math.nan, "must be finite"), ("delta_omega", 0.0, "must be positive"),
                             ("J", True, "must be finite"), ("J", -1.0, "must be positive"),
                             ("J_prime", math.inf, "must be finite"), ("J_prime", -0.5, "must be nonnegative"),
                             ("n", math.nan, "must be finite")):
        with pytest.raises(ValueError, match=f"^{name} {match}"):
            qutrit_rate_table(**{**good, name: bad}, modulated=True)
    with pytest.raises(ValueError, match="not allowed"):
        RateTable({(0, 2): 1.0})
    with pytest.raises(ValueError, match="negative"):
        RateTable({(0, 1): -1.0})


def test_bath_dissipator_pure_decay_at_zero_occupation():
    # an empty bath only damps its filter: one decay jump of rate Gamma each
    spec = CircuitSpec.build("single-diode", n_left=0.0, n_right=0.0, Gamma=2.0, ho_truncation=4)
    gen = build_generator(spec)
    assert [w for w, _ in gen.jumps] == [2.0, 2.0]
    for (_, op), label in zip(gen.jumps, ("L", "R")):
        assert (op.matrix != lowering_op(gen.layout, label).matrix).nnz == 0

    layout = SpaceLayout.of(("L", 4))
    a = lowering_op(layout, "L")
    rho = random_density(np.random.default_rng(3), 4)
    out = unvectorize(dissipator(a, 2.0) @ vectorize(rho), 4)
    np.testing.assert_allclose(out, 2.0 * dense_lindblad_term(a.matrix.toarray(), rho), atol=1e-13)


def test_bath_dissipator_requires_oscillator():
    with pytest.raises(ValueError, match="harmonic oscillator"):
        CircuitTopology(blocks=((("Q", "qutrit"),),), filters=(("Q", "left"),))


def test_bath_dissipator_thermal_fixed_point():
    # the truncated ladder satisfies detailed balance exactly, so its fixed
    # point is the truncated (renormalized) geometric distribution
    layout = SpaceLayout.of(("L", 8))
    n, Gamma = 0.5, 10.0

    def thermal_bath(layout):
        return Liouvillian(layout, None, (
            (Gamma * (n + 1.0), lowering_op(layout, "L")),
            (Gamma * n, raising_op(layout, "L")),
        ))

    rho = steady_state_direct(thermal_bath(layout))
    r = n / (1.0 + n)
    geometric = r ** np.arange(8)
    geometric /= geometric.sum()
    np.testing.assert_allclose(np.real(np.diag(rho.data)), geometric, atol=1e-10)
    mean_n = float(np.real(np.trace(rho.data @ np.diag(np.arange(8.0)))))
    assert mean_n == pytest.approx(float(np.arange(8) @ geometric), abs=1e-10)
    assert abs(mean_n - 0.5) < 2e-3  # truncation tail of the N=8 ladder

    # untruncated two-level case: the thermal state is annihilated exactly
    d2 = thermal_bath(SpaceLayout.of(("L", 2))).superops()[0]
    th = np.diag([1.0, r]).astype(complex)
    th /= np.trace(th)
    assert np.max(np.abs(d2 @ vectorize(th))) < 1e-15


def test_single_qutrit_fixed_point_populations():
    table = qutrit_rate_table(300.0, 1.0, 0.5, n=0.5, Gamma=10.0, modulated=True)
    rho = steady_state_direct(qutrit_rate_generator([table]))
    r = 0.5 / 1.5
    expected = np.array([1.0, r, r ** 2])
    expected /= expected.sum()
    np.testing.assert_allclose(np.real(np.diag(rho.data)), expected, atol=1e-12)
    np.testing.assert_allclose(expected, [9 / 13, 3 / 13, 1 / 13], atol=1e-15)


def _generators_for_property_tests():
    specs = [
        CircuitSpec.build("parallel", n_left=0.5, n_right=0.0),
        CircuitSpec.build("series", n_left=0.0, n_right=0.5),
        CircuitSpec.build("single-diode", n_left=0.5, n_right=0.2, ho_truncation=3),
    ]
    gens = [build_generator(s) for s in specs]
    upper, lower = build_bridge_half_generators(
        CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=3)
    )
    return gens + [upper, lower]


def test_generator_annihilates_trace():
    for gen in _generators_for_property_tests():
        d = gen.dim
        tr_row = vectorize(np.eye(d, dtype=complex)).conj()
        static, drives = gen.superops()
        assert np.max(np.abs(tr_row @ static)) < 1e-12
        for _, s in drives:
            assert np.max(np.abs(tr_row @ s)) < 1e-12


def test_generator_preserves_hermiticity_and_trace_pointwise():
    rng = np.random.default_rng(23)
    for gen in _generators_for_property_tests():
        rho = random_density(rng, gen.dim)
        for t in (0.0, 0.37):
            out = generator_action(gen, rho, t)
            assert np.max(np.abs(out - out.conj().T)) < 1e-10
            assert abs(np.trace(out)) < 1e-10


def test_generator_action_matches_materialized_superoperator():
    rng = np.random.default_rng(31)
    for gen in _generators_for_property_tests():
        d = gen.dim
        arbitrary = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for rho in (random_density(rng, d), arbitrary):
            for t in (0.0, 0.61):
                np.testing.assert_allclose(
                    generator_action(gen, rho, t), dense_generator_action(gen, rho, t), atol=1e-12
                )


def test_parallel_generator_acts_factor_by_factor():
    spec = CircuitSpec.build("parallel", n_left=0.5, n_right=0.0,
                             delta_omega={"D1": 300.0, "D2": 200.0})
    gen = build_generator(spec)
    assert gen.hamiltonian is None

    def one_qutrit(label):
        tabs = [
            qutrit_rate_table(spec.delta_omega[label], spec.J, spec.J_prime, spec.left_bath.n, 10.0, True),
            qutrit_rate_table(spec.delta_omega[label], spec.J, spec.J_prime, spec.right_bath.n, 10.0, False),
        ]
        return qutrit_rate_generator(tabs)

    rng = np.random.default_rng(4)
    rho_a, rho_b = random_density(rng, 3), random_density(rng, 3)
    product = np.kron(rho_a, rho_b)
    left = generator_action(one_qutrit("D1"), rho_a)
    right = generator_action(one_qutrit("D2"), rho_b)
    expected = np.kron(left, rho_b) + np.kron(rho_a, right)
    np.testing.assert_allclose(generator_action(gen, product), expected, atol=1e-13)


def test_bridge_generator_factorizes_over_halves():
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=2)
    full = build_generator(spec)
    upper, lower = build_bridge_half_generators(spec)
    rng = np.random.default_rng(6)
    rho_u = random_density(rng, upper.dim)
    rho_l = random_density(rng, lower.dim)
    product = np.kron(rho_u, rho_l)
    for t in (0.0, 0.19):
        expected = (np.kron(generator_action(upper, rho_u, t), rho_l)
                    + np.kron(rho_u, generator_action(lower, rho_l, t)))
        np.testing.assert_allclose(generator_action(full, product, t), expected, atol=1e-12)


def test_bridge_rate_mode_changes_only_d2():
    base = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1)
    phys = bridge_rate_tables(base)
    lit = bridge_rate_tables(CircuitSpec.build(
        "bridge", T_left=1.0, T_right=0.1, bridge_rate_mode="paper-literal"
    ))
    assert phys["D1"].rates == lit["D1"].rates
    assert phys["D3"].rates == lit["D3"].rates
    assert phys["D4"].rates == lit["D4"].rates
    assert phys["D2"].get(0, 1) > lit["D2"].get(0, 1)
    # difference is exactly the drive-channel contribution
    n_r = base.right_bath.n
    assert phys["D2"].get(0, 1) - lit["D2"].get(0, 1) == pytest.approx(
        n_r * 0.25 / 10.0, rel=1e-12
    )


@pytest.mark.parametrize("ho_truncation", [2, 3, 4, 6])
def test_sector_dim_bounds_every_real_block(ho_truncation):
    # the config guard's bound: no block outgrows its excitation-number
    # sector, and the bridge trios and the full single diode fill it
    for topology in TOPOLOGIES:
        spec = CircuitSpec.build(topology, n_left=0.5, n_right=0.1, ho_truncation=ho_truncation)
        generators = build_bridge_half_generators(spec) if topology == "bridge" else (build_generator(spec),)
        for gen in generators:
            side, sector = gen._real().terms.side, sector_dim(gen.layout)
            assert side == sector if topology in ("bridge", "single-diode") else side <= sector
    reduced = build_reduced_generator(CircuitSpec.build("single-diode", n_left=0.5, n_right=0.1,
                                                        ho_truncation=ho_truncation))
    assert reduced._real().terms.side == sector_dim(reduced.layout) == 3


def test_rate_mode_leaves_other_circuits_unchanged():
    # no right-side contact outside the bridge has a modulated coupling
    for topology, kwargs in (
        ("parallel", dict(n_left=0.5, n_right=0.3)),
        ("series", dict(n_left=0.3, n_right=0.5)),
        ("single-diode", dict(n_left=0.5, n_right=0.2, ho_truncation=3)),
    ):
        phys, lit = (CircuitSpec.build(topology, bridge_rate_mode=mode, **kwargs)
                     for mode in ("physical-modulated", "paper-literal"))
        (static_p, drives_p), (static_l, drives_l) = (build_generator(spec).superops() for spec in (phys, lit))
        assert (static_p != static_l).nnz == 0
        assert [nu for nu, _ in drives_p] == [nu for nu, _ in drives_l]
        for (_, a), (_, b) in zip(drives_p, drives_l):
            assert (a != b).nnz == 0


def test_bridge_gamma_dec_jumps_cover_all_modes():
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=2)
    gen = build_generator(spec)
    # 4 diodes x 4 transitions (one table has ~0 rates but n_R > 0 keeps them) plus
    # 6 modes x 2 decoherence jumps
    assert len(gen.jumps) == 16 + 12


def test_full_bridge_superoperator_is_not_materialized():
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=8)
    gen = build_generator(spec)
    assert gen.dim == 5184
    refused = "refusing to materialize"
    misses = [cache.cache_info().misses for cache in (lindblad._term_table, lindblad._real_table)]
    with pytest.raises(ValueError, match=refused):
        gen.superops()
    with pytest.raises(ValueError, match=refused):
        gen.real_superops()
    rho0 = DensityMatrix.ground_state(gen.layout)
    with pytest.raises(ValueError, match=refused):
        evolve(gen, rho0, 0.0, 1e-3)
    obs = net_bath_current_functional(gen.layout, ["D4"], bridge_rate_tables(spec))
    with pytest.raises(ValueError, match=refused):
        steady_state_averaged(gen, obs)
    with pytest.raises(ValueError, match=refused):
        steady_state_direct(build_generator(CircuitSpec.build(
            "bridge", T_left=1.0, T_right=0.1, ho_truncation=8, J_prime=0.0)))
    # the guard fires before any table is built
    assert [cache.cache_info().misses for cache in (lindblad._term_table, lindblad._real_table)] == misses


def test_single_diode_equilibrium_state_is_stationary():
    # with equal occupations the product of per-mode geometric states is an
    # exact fixed point of the full model (all couplings conserve excitations)
    spec = CircuitSpec.build("single-diode", n_left=0.5, n_right=0.5, ho_truncation=4)
    gen = build_generator(spec)
    r = 0.5 / 1.5
    modes = []
    for dim in (4, 3, 4):
        g = r ** np.arange(dim)
        modes.append(np.diag(g / g.sum()).astype(complex))
    rho = DensityMatrix.from_mode_states(gen.layout, modes)
    for t in (0.0, 0.83):
        assert np.max(np.abs(generator_action(gen, rho.data, t))) < 1e-12


def test_transition_op_and_jump_terms():
    layout = SpaceLayout.of(("D1", 3))
    op = transition_op(layout, "D1", 1, 0).matrix.toarray()
    assert op[0, 1] == 1.0 and np.count_nonzero(op) == 1
    # an empty right bath zeroes D1's 0->1 and 1->2 rates there: the reduced
    # model keeps all eight transitions as terms but only six as jumps
    gen = build_reduced_generator(CircuitSpec.build("single-diode", n_left=0.5, n_right=0.0))
    assert gen.layout == layout and len(gen._keys) == 8
    assert len(gen.jumps) == 6 and all(rate > 0 for rate, _ in gen.jumps)


@pytest.mark.parametrize("n_left, n_right", [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5), (0.3, 0.1)])
def test_reduced_single_diode_matches_the_rate_table_assembly(n_left, n_right):
    # the reduced model as the rate tables give it: one transition jump per
    # positive rate, the left table's then the right one's
    spec = CircuitSpec.build("single-diode", n_left=n_left, n_right=n_right, Gamma=20.0, ho_truncation=4)
    # D1 reaches the left filter through its modulated coupling
    tables = [qutrit_rate_table(spec.delta_omega["D1"], spec.J, spec.J_prime, spec.bath(side).n, 20.0,
                                side == "left")
              for side in ("left", "right")]
    reference = qutrit_rate_generator(tables)
    gen = build_reduced_generator(spec)
    assert gen.layout == reference.layout and gen.drive_frequencies == ()
    rho, rho_ref = steady_state_direct(gen), steady_state_direct(reference)
    assert np.array_equal(rho.data, rho_ref.data)
    obs = bath_current_functional(gen, "right")
    assert obs.value(rho) == obs.value(rho_ref)


def kron_superops(gen):
    """Reference assembly of (static, drives) by nested krons of the whole
    effective Hamiltonian H - (i/2) sum_k w_k A_k†A_k and of every jump."""
    def superop(pairs):
        parts = [sp.kron(b, a, format="coo") for b, a in pairs]
        out = sp.csr_array((np.concatenate([p.data for p in parts]),
                            (np.concatenate([p.row for p in parts]), np.concatenate([p.col for p in parts]))),
                           shape=parts[0].shape)
        out.sum_duplicates()
        out.eliminate_zeros()
        return out

    d = gen.dim
    eye = sp.eye_array(d, format="csr")
    h_eff = (sp.csr_array((d, d), dtype=np.complex128) if gen.hamiltonian is None
             else gen.hamiltonian.static_part.matrix)
    for weight, op in gen.jumps:
        h_eff = h_eff - (0.5j * weight) * (op.matrix.conj().T @ op.matrix)
    pairs = [(eye, -1j * h_eff), (1j * h_eff.conj(), eye)]
    pairs += [(weight * op.matrix.conj(), op.matrix) for weight, op in gen.jumps]
    drives = () if gen.hamiltonian is None else gen.hamiltonian.drive_terms
    return superop(pairs), tuple((nu, superop([(eye, -1j * v.matrix), (1j * v.matrix.conj(), eye)]))
                                 for nu, v in drives)


def assert_same_superop(got, want):
    """Same sparsity pattern and nnz, entries within 1e-14 relative."""
    got = got.copy()
    got.sort_indices()
    assert got.nnz == want.nnz
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert np.all(np.abs(got.data - want.data) <= 1e-14 * np.abs(want.data))


def assert_matches_kron_reference(gen):
    static, drives = kron_superops(gen)
    # the reference stores no explicit zero, so the compared pattern drops them
    got_static, got_drives = gen.superops()
    for m in (got_static, *(s for _, s in got_drives)):
        m.eliminate_zeros()
    assert_same_superop(got_static, static)
    assert [nu for nu, _ in got_drives] == [nu for nu, _ in drives]
    for (_, got), (_, want) in zip(got_drives, drives):
        assert_same_superop(got, want)


def _two_drives_at_one_frequency():
    layout = SpaceLayout.of(("D", 3), ("L", 3))
    exchange = lindblad._exchange_op(layout, "D", "L")
    hamiltonian = TimeDependentOperator(
        -300.0 * projector(layout, "D", 0) + 0.5 * exchange,
        ((30.0, 0.25 * exchange), (30.0, 0.1 * number_op(layout, "L"))))
    return layout, hamiltonian, ((15.0, lowering_op(layout, "L")), (5.0, raising_op(layout, "L")))


def _static_and_drive():
    # the drive's pattern lies outside the static part's
    layout = SpaceLayout.of(("A", 3), ("B", 3))
    hamiltonian = TimeDependentOperator(
        -200.0 * projector(layout, "A", 0) - 150.0 * projector(layout, "B", 0)
        + lindblad._exchange_op(layout, "A", "B"),
        ((150.0, 0.3 * (lowering_op(layout, "A") + raising_op(layout, "A"))),))
    return layout, hamiltonian, ((0.1, lowering_op(layout, "A")), (0.02, number_op(layout, "B")))


def _zero_weight_jump():
    layout = SpaceLayout.of(("A", 3))
    return layout, TimeDependentOperator(-250.0 * projector(layout, "A", 0)), (
        (1.0, lowering_op(layout, "A")), (0.0, raising_op(layout, "A")), (0.3, number_op(layout, "A")))


# (layout, hamiltonian, jumps) of each operator-built fixture
_OPERATOR_BUILT = {
    "two-drives-one-frequency": _two_drives_at_one_frequency,
    "static-and-drive": _static_and_drive,
    "zero-weight-jump": _zero_weight_jump,
}

# float.hex of stability_limited_dt of each fixture, computed from the row
# sums of the given operators themselves
_OPERATOR_BUILT_DT = {
    "two-drives-one-frequency": "0x1.02fca44ba03c0p-9",
    "static-and-drive": "0x1.f81df09d54713p-10",
    "zero-weight-jump": "0x1.5d6bfb259c831p-9",
}


@pytest.mark.parametrize("name", sorted(_OPERATOR_BUILT))
def test_operator_built_generator_keeps_its_operators(name):
    # its Hamiltonian, read back from the term weights, holds the given
    # operators bit for bit, its jumps are the given ones of nonzero
    # weight, and its step bound is the one computed from those operators
    layout, hamiltonian, jumps = _OPERATOR_BUILT[name]()
    gen = Liouvillian(layout, hamiltonian, jumps)
    h = gen.hamiltonian
    assert tuple(nu for nu, _ in h.drive_terms) == tuple(nu for nu, _ in hamiltonian.drive_terms) \
        == gen.drive_frequencies
    assert len(h.drive_terms) == len(hamiltonian.drive_terms)
    for got, want in zip((h.static_part, *(v for _, v in h.drive_terms)),
                         (hamiltonian.static_part, *(v for _, v in hamiltonian.drive_terms))):
        for a, b in ((got.matrix.indptr, want.matrix.indptr), (got.matrix.indices, want.matrix.indices)):
            assert np.array_equal(a, b)
        assert got.matrix.data.dtype == want.matrix.data.dtype
        assert got.matrix.data.tobytes() == want.matrix.data.tobytes()
    assert gen.jumps == tuple((w, op) for w, op in jumps if w != 0)
    assert stability_limited_dt(gen).hex() == _OPERATOR_BUILT_DT[name]


def test_operators_from_another_layout_are_rejected():
    layout = SpaceLayout.of(("A", 3), ("B", 3))
    oscillator = SpaceLayout.of(("L", 4))
    swapped = SpaceLayout.of(("B", 3), ("A", 3))  # one dimension, other modes
    for hamiltonian, jumps in (
        (None, ((1.0, lowering_op(oscillator, "L")),)),
        (None, ((1.0, lowering_op(layout, "A")), (0.5, lowering_op(swapped, "A")))),
        (TimeDependentOperator(projector(swapped, "A", 0)), ()),
        (TimeDependentOperator(projector(oscillator, "L", 1)), ((1.0, lowering_op(layout, "A")),)),
    ):
        with pytest.raises(ValueError, match="layout"):
            Liouvillian(layout, hamiltonian, jumps)
    # a time-dependent operator keeps its drives on its static part's layout,
    # at positive frequencies
    with pytest.raises(ValueError, match="drive term layout differs"):
        TimeDependentOperator(projector(layout, "A", 0), ((1.0, projector(swapped, "A", 0)),))
    for nu in (0.0, -1.0):
        with pytest.raises(ValueError, match="drive frequency must be positive"):
            TimeDependentOperator(projector(layout, "A", 0), ((nu, projector(layout, "B", 0)),))


# every topology, with the zero-weight corners: an empty receiving bath
# (n = 0), gamma_dec = 0 and J' = 0
_ORACLE_CASES = {
    "parallel-forward": lambda **m: [build_generator(CircuitSpec.build("parallel", n_left=0.5, n_right=0.0, **m))],
    "parallel-warm": lambda **m: [build_generator(CircuitSpec.build(
        "parallel", n_left=0.2, n_right=0.7, delta_omega={"D1": 300.0, "D2": 120.0}, **m))],
    "series-reverse": lambda **m: [build_generator(CircuitSpec.build("series", n_left=0.0, n_right=0.5, **m))],
    "series-no-drive": lambda **m: [build_generator(CircuitSpec.build(
        "series", n_left=0.5, n_right=0.1, J_prime=0.0, delta_omega={"D1": 300.0, "D2": 450.0}, **m))],
    "single-diode-full": lambda **m: [build_generator(CircuitSpec.build(
        "single-diode", n_left=0.5, n_right=0.0, Gamma=20.0, ho_truncation=3, **m))],
    "single-diode-equilibrium": lambda **m: [build_generator(CircuitSpec.build(
        "single-diode", n_left=0.5, n_right=0.5, ho_truncation=2, **m))],
    "single-diode-reduced": lambda **m: [build_reduced_generator(CircuitSpec.build(
        "single-diode", n_left=0.5, n_right=0.0, **m))],
    "bridge-halves": lambda **m: list(build_bridge_half_generators(CircuitSpec.build(
        "bridge", T_left=1.0, T_right=0.1, ho_truncation=3, **m))),
    "bridge-halves-unequal": lambda **m: list(build_bridge_half_generators(CircuitSpec.build(
        "bridge", T_left=0.1, T_right=1.0, ho_truncation=3, gamma_dec=0.02,
        delta_omega={"D1": 300.0, "D2": 200.0, "D3": 300.0, "D4": 150.0}, **m))),
    "bridge-halves-no-dec-no-drive": lambda **m: list(build_bridge_half_generators(CircuitSpec.build(
        "bridge", T_left=1.0, T_right=0.1, ho_truncation=2, gamma_dec=0.0, J_prime=0.0, **m))),
    "bridge-full": lambda **m: [build_generator(CircuitSpec.build(
        "bridge", T_left=1.0, T_right=0.1, ho_truncation=2, **m))],
    # generators built from operators; the rate mode does not reach them
    **{f"operator-built-{name}": lambda _name=name, **_: [Liouvillian(*_OPERATOR_BUILT[_name]())]
       for name in _OPERATOR_BUILT},
}


@pytest.mark.parametrize("mode", ["physical-modulated", "paper-literal"])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_weighted_sum_matches_kron_reference(case, mode):
    for gen in _ORACLE_CASES[case](bridge_rate_mode=mode):
        assert_matches_kron_reference(gen)


def _dense_row_sum(m):
    return float(np.abs(m.toarray()).sum(axis=1).max())


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_coherent_row_sums_match_the_built_hamiltonian(case):
    # the norm bound behind the RK4 step takes its coherent row sums from the
    # Hamiltonian the generator builds from its term table, one for H_0 and
    # one for each drive's V: they are the infinity norms of the dense
    # matrices, and each jump enters with its dense infinity and 1-norms
    for gen in _ORACLE_CASES[case]():
        h = gen.hamiltonian
        parts = () if h is None else (h.static_part, *(v for _, v in h.drive_terms))
        assert len(parts) == (h is not None) + len(gen.drive_frequencies)
        coherent = sum(_dense_row_sum(op.matrix) for op in parts)
        jumps = sum(w * _dense_row_sum(op.matrix) * _dense_row_sum(op.matrix.conj().T)
                    for w, op in gen.jumps)
        assert _generator_norm_bound(gen) == pytest.approx(2.0 * (coherent + jumps), rel=1e-14)


def _bridge_point(delta_omega, gamma_dec, T_left, T_right, ho_truncation=3):
    return build_bridge_half_generators(CircuitSpec.build(
        "bridge", T_left=T_left, T_right=T_right, delta_omega=delta_omega,
        gamma_dec=gamma_dec, ho_truncation=ho_truncation))


def test_generators_on_one_layout_do_not_share_superoperators():
    first = _bridge_point(300.0, 1e-3, 1.0, 0.1)
    before = [g.superops() for g in first]
    second = _bridge_point(120.0, 5e-2, 0.1, 1.0)
    for g in second:
        assert_matches_kron_reference(g)
    for g, (static, drives) in zip(first, before):
        now_static, now_drives = g.superops()
        assert (now_static != static).nnz == 0
        assert all((s != d).nnz == 0 for (_, s), (_, d) in zip(now_drives, drives))
        assert_matches_kron_reference(g)

    # an in-place edit of a returned superoperator reaches no later generator
    for g in second:
        static, drives = g.superops()
        static.data[:] = 0.0
        static.indices[:] = 0
        for _, s in drives:
            s.data[:] = 0.0
    for g in _bridge_point(120.0, 5e-2, 0.1, 1.0):
        assert_matches_kron_reference(g)


def test_layout_cache_stays_bounded_over_truncations():
    for n in range(2, 8):
        for g in _bridge_point(300.0, 1e-3, 1.0, 0.1, ho_truncation=n):
            g.superops()
    for cache in (lindblad._mode_operator, lindblad._term_table):
        info = cache.cache_info()
        assert info.currsize == info.maxsize
    # the last truncation's two halves hit the cache
    hits = lindblad._term_table.cache_info().hits
    for g in _bridge_point(200.0, 1e-2, 1.0, 0.1, ho_truncation=7):
        g.superops()
        # a table keeps no structural zero of a term
        assert np.all(lindblad._term_table(g.layout, g._keys).coefficients.data != 0)
    assert lindblad._term_table.cache_info().hits == hits + 4


def eager_hamiltonian(spec, layout) -> TimeDependentOperator | None:
    """The Hamiltonian as the wiring-table builder used to assemble it for
    every generator: anharmonicity of each coupled diode, every retained
    coupling, drives grouped by frequency, summed in wiring order."""
    topology = TOPOLOGIES[spec.topology]
    labels = layout.labels
    couplings = [c for c in topology.couplings if c.a in labels and c.b in labels]
    coupled = {mode for c in couplings for mode in (c.a, c.b)}
    pieces = [(-spec.delta_omega[label], projector(layout, label, 0))
              for label in labels if label in coupled and label in spec.delta_omega]
    drives = {}
    for c in couplings:
        pieces.append((spec.J, lindblad._exchange_op(layout, c.a, c.b)))
        if c.modulated and spec.J_prime > 0:
            drives.setdefault(spec.delta_omega[c.diode], []).append(
                (spec.J_prime, lindblad._exchange_op(layout, c.a, c.b)))
    if not pieces:
        return None

    def combine(parts):
        return SparseOperator.wrap(layout, functools.reduce(operator.add, (c * op.matrix for c, op in parts)))

    return TimeDependentOperator(combine(pieces), tuple((nu, combine(parts)) for nu, parts in sorted(drives.items())))


def _generators_of(spec):
    if spec.topology == "bridge":
        return list(build_bridge_half_generators(spec))
    return [build_generator(spec)]


def test_hamiltonian_is_built_on_first_read(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return TimeDependentOperator(*args)

    monkeypatch.setattr(lindblad, "TimeDependentOperator", counted)
    cases = [
        CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=3),
        CircuitSpec.build("bridge", T_left=0.1, T_right=1.0, ho_truncation=2, J_prime=0.0,
                          delta_omega={"D1": 300.0, "D2": 200.0, "D3": 300.0, "D4": 150.0}),
        CircuitSpec.build("single-diode", n_left=0.5, n_right=0.0, ho_truncation=2),
    ]
    for spec in cases:
        gens = _generators_of(spec)
        if spec.topology == "bridge":
            # building both halves assembles no Hamiltonian, nor does solving
            # a static half; averaging a driven half builds its Hamiltonian
            # once, for the RK4 step bound, and keeps it
            for gen in _generators_of(spec):
                before = len(built)
                if gen.drive_frequencies:
                    steady_state_averaged(gen, bath_current_functional(gen, "right"))
                    assert len(built) == before + 1 and "hamiltonian" in vars(gen)
                    assert gen.hamiltonian is vars(gen)["hamiltonian"] and len(built) == before + 1
                else:
                    steady_state_direct(gen)
                    assert len(built) == before and "hamiltonian" not in vars(gen)
            assert not any("hamiltonian" in vars(gen) for gen in gens)
        for gen in gens:
            before = len(built)
            h, eager = gen.hamiltonian, eager_hamiltonian(spec, gen.layout)
            assert len(built) == before + 1 and gen.hamiltonian is h
            assert (h.static_part.matrix != eager.static_part.matrix).nnz == 0
            assert tuple(nu for nu, _ in h.drive_terms) == tuple(nu for nu, _ in eager.drive_terms) \
                == gen.drive_frequencies
            for (_, v), (_, w) in zip(h.drive_terms, eager.drive_terms):
                assert (v.matrix != w.matrix).nnz == 0
            assert stability_limited_dt(gen) == stability_limited_dt(Liouvillian(gen.layout, eager, gen.jumps))


@pytest.mark.parametrize("name, circuit", [
    ("bridge-anharmonicity", {}),
    ("bridge-anharmonicity", {"ho_truncation": 4}),
    ("series-sweep", {}),
])
def test_step_bound_is_bit_identical_to_the_built_hamiltonians_on_default_grids(name, circuit):
    # the row sums of the Hamiltonian that the generator builds from its
    # operator table give the step of the Hamiltonian summed from the
    # weighted operators, bit for bit, at every point of the default sweep;
    # the stability step is within 1.06x of the drive step at
    # delta_omega = 500, so a looser bound would change the step count
    resolved = validate_config({"name": name, "circuit": circuit})
    specs = []
    for point in _grid_points(resolved):
        if name == "series-sweep":
            specs += [CircuitSpec.build("series", **resolved.biases[bias], **resolved.circuit,
                                        delta_omega={"D1": point["delta_omega_d1"],
                                                     "D2": point["delta_omega_d2"]})
                      for bias in ("forward", "reverse")]
        else:
            specs.append(CircuitSpec.build("bridge", **resolved.biases["temperatures"], **resolved.circuit,
                                           delta_omega=point["delta_omega"]))
    driven = 0
    for spec in specs:
        for gen in _generators_of(spec):
            reference = Liouvillian(gen.layout, eager_hamiltonian(spec, gen.layout), gen.jumps)
            assert stability_limited_dt(gen) == stability_limited_dt(reference)
            assert "hamiltonian" in vars(gen)
            driven += bool(gen.drive_frequencies)
    assert driven == len(specs)
