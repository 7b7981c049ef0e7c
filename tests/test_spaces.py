import math

import numpy as np
import pytest
import scipy.sparse as sp

from heatrect.spaces import (
    DensityMatrix,
    SpaceLayout,
    SparseOperator,
    embed,
    lowering_op,
    number_op,
    partial_trace,
    projector,
    transition_op,
)

from helpers import random_density

SQ2 = np.sqrt(2.0)


def single(dim, label="A"):
    return SpaceLayout.of((label, dim))


def test_qutrit_lowering_matrix():
    a = lowering_op(single(3), "A").matrix.toarray()
    expected = np.array([[0, 1, 0], [0, 0, SQ2], [0, 0, 0]], dtype=complex)
    np.testing.assert_array_equal(a, expected)


def test_ho2_lowering_matrix():
    a = lowering_op(single(2), "A").matrix.toarray()
    np.testing.assert_array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_embedding_matches_dense_kronecker():
    # independent oracle: explicit dense Kronecker product
    layout = SpaceLayout.of(("H", 3), ("Q", 3))
    a_q = np.array([[0, 1, 0], [0, 0, SQ2], [0, 0, 0]], dtype=complex)
    embedded = lowering_op(layout, "Q").matrix.toarray()
    assert embedded.shape == (9, 9)
    np.testing.assert_allclose(embedded, np.kron(np.eye(3), a_q), atol=0)

    a_h = np.diag(np.sqrt([1.0, 2.0]), k=1)
    np.testing.assert_allclose(
        lowering_op(layout, "H").matrix.toarray(), np.kron(a_h, np.eye(3)), atol=0
    )


def test_embed_matches_sparse_kronecker_on_mixed_layouts():
    # oracle: identity (x) local (x) identity through nested sp.kron, canonicalized
    # the same way; the comparison is of the stored CSR arrays, dtypes included
    rng = np.random.default_rng(7)
    layouts = [
        SpaceLayout.of(("Q", 3)),
        SpaceLayout.of(("L", 4), ("D", 3), ("R", 2)),
        SpaceLayout.of(("D1", 3), ("M", 5), ("D2", 3),
                       ("X", 3)),
    ]
    for layout in layouts:
        dims = layout.dims
        for idx, label in enumerate(layout.labels):
            dim = dims[idx]
            local = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            local[rng.random((dim, dim)) < 0.5] = 0.0
            local[0, 0] = 0.0
            oracle = sp.csr_array(sp.kron(
                sp.kron(sp.eye_array(math.prod(dims[:idx])), sp.csr_array(local)),
                sp.eye_array(math.prod(dims[idx + 1:]))), dtype=np.complex128)
            oracle.sum_duplicates()
            oracle.eliminate_zeros()
            oracle.sort_indices()
            got = embed(layout, label, local).matrix
            for field in ("indptr", "indices", "data"):
                want = getattr(oracle, field)
                assert getattr(got, field).dtype == want.dtype, (label, field)
                np.testing.assert_array_equal(getattr(got, field), want)
        with pytest.raises(ValueError, match="does not match mode"):
            embed(layout, layout.labels[0], np.eye(dims[0] + 1))


def test_number_op_values():
    np.testing.assert_array_equal(
        number_op(single(4), "A").matrix.toarray(),
        np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex),
    )
    # qutrit: multiply dagger(lowering) by lowering by hand
    layout = single(3)
    a = lowering_op(layout, "A").matrix.toarray()
    np.testing.assert_allclose(number_op(layout, "A").matrix.toarray(), a.conj().T @ a, atol=0)


def test_ops_on_disjoint_modes_commute_exactly():
    layout = SpaceLayout.of(("A", 3), ("B", 3))
    n_a = number_op(layout, "A").matrix
    n_b = number_op(layout, "B").matrix
    diff = (n_a @ n_b - n_b @ n_a).toarray()
    assert np.max(np.abs(diff)) == 0.0

    a = lowering_op(layout, "A").matrix
    b = lowering_op(layout, "B").matrix
    assert np.max(np.abs((a @ b - b @ a).toarray())) == 0.0


def test_qutrit_ladder_commutator():
    layout = single(3)
    a = lowering_op(layout, "A")
    n = number_op(layout, "A")
    comm = (n @ a - a @ n).matrix.toarray()
    np.testing.assert_allclose(comm, -a.matrix.toarray(), atol=1e-12)


def test_projector_values_and_completeness():
    layout = SpaceLayout.of(("Q", 3), ("H", 4))
    p0 = projector(layout, "Q", 0)
    assert abs(np.trace(p0.matrix.toarray()) - layout.total_dim / 3) < 1e-12
    total = sum((projector(layout, "Q", k).matrix.toarray() for k in range(3)))
    np.testing.assert_allclose(total, np.eye(layout.total_dim), atol=0)

    np.testing.assert_array_equal(
        projector(single(3), "A", 0).matrix.toarray(), np.diag([1.0, 0, 0]).astype(complex)
    )


def test_projector_level_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        projector(single(3), "A", 3)
    # projector is the diagonal transition_op, which checks both levels
    for levels in ((3, 0), (0, 3), (-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="out of range for mode 'A' of dim 3"):
            transition_op(single(3), "A", *levels)
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 2] = 1.0  # |1><2|
    np.testing.assert_array_equal(transition_op(single(3), "A", 2, 1).matrix.toarray(), expected)


def test_unknown_label_is_reported():
    layout = single(3, "D1")
    with pytest.raises(ValueError, match="X"):
        lowering_op(layout, "X")


def test_layout_validation():
    with pytest.raises(ValueError, match="duplicate"):
        SpaceLayout.of(("A", 3), ("A", 3))
    for dim in (1, 2.0, True):
        with pytest.raises(ValueError, match="mode 'A' needs an integer dim >= 2"):
            SpaceLayout.of(("A", dim))
    assert SpaceLayout.of(("A", np.int64(3))) == SpaceLayout.of(("A", 3))


def test_construction_is_deterministic():
    layout = SpaceLayout.of(("A", 5), ("B", 3))
    m1 = lowering_op(layout, "B").matrix
    m2 = lowering_op(layout, "B").matrix
    assert m1.data.tobytes() == m2.data.tobytes()
    assert m1.indices.tobytes() == m2.indices.tobytes()
    assert m1.indptr.tobytes() == m2.indptr.tobytes()


def test_partial_trace_product_state():
    layout = SpaceLayout.of(("A", 3), ("B", 4))
    rng = np.random.default_rng(7)
    rho_a = random_density(rng, 3)
    rho_b = random_density(rng, 4)
    rho = DensityMatrix.from_mode_states(layout, [rho_a, rho_b])
    np.testing.assert_allclose(partial_trace(rho, ["A"]).data, rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, ["B"]).data, rho_b, atol=1e-12)


def test_partial_trace_entangled_state():
    # (|00> + |11>)/sqrt(2) on two 2-level modes: either marginal is I/2
    layout = SpaceLayout.of(("A", 2), ("B", 2))
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = DensityMatrix.from_matrix(layout, np.outer(psi, psi.conj()))
    np.testing.assert_allclose(partial_trace(rho, ["A"]).data, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace_and_composes():
    layout = SpaceLayout.of(("A", 3), ("B", 2), ("C", 3))
    rng = np.random.default_rng(3)
    rho = DensityMatrix.from_matrix(layout, random_density(rng, layout.total_dim))
    reduced = partial_trace(rho, ["B"])
    assert abs(np.trace(reduced.data) - 1.0) < 1e-12

    two_step = partial_trace(partial_trace(rho, ["A", "C"]), ["C"])
    one_step = partial_trace(rho, ["C"])
    np.testing.assert_allclose(two_step.data, one_step.data, atol=1e-12)


def test_partial_trace_empty_keep_rejected():
    layout = SpaceLayout.of(("A", 3))
    rho = DensityMatrix.ground_state(layout)
    with pytest.raises(ValueError, match="empty"):
        partial_trace(rho, [])
    with pytest.raises(ValueError, match="'A' more than once"):
        partial_trace(rho, ["A", "A"])


def test_density_matrix_validation():
    layout = single(2)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix.from_matrix(layout, np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix.from_matrix(layout, np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix.from_matrix(layout, np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.5, math.nan)],
                         ids=["nan", "inf", "nan-imaginary"])
def test_density_matrix_rejects_non_finite_entries(entry):
    # every comparison with nan is False, so without the finiteness check a
    # nan state passed the Hermiticity, trace and eigenvalue checks
    layout = single(2)
    data = np.diag([0.5, 0.5]).astype(complex)
    data[0, 0] = entry
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix.from_matrix(layout, data)


def test_vec_is_column_stacking():
    layout = single(2)
    rho = DensityMatrix.from_matrix(layout, np.array([[0.75, 0.1j], [-0.1j, 0.25]]))
    v = rho.vec()
    assert v[0] == 0.75 and v[1] == -0.1j and v[2] == 0.1j and v[3] == 0.25


def _random_state(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("layout", [
    single(3),
    SpaceLayout.of(("D1", 3), ("M1", 2), ("D2", 3)),
], ids=["qutrit", "bridge-trio-N2"])
def test_expectation_matches_dense_trace(layout):
    # Tr(W rho) from W's stored entries against the dense trace, for complex
    # non-Hermitian W of every fill, an empty and a diagonal one included
    d = layout.total_dim
    rng = np.random.default_rng(d)
    rho = DensityMatrix.from_matrix(layout, _random_state(rng, d))
    cases = [sp.csr_array((d, d)), sp.diags_array(rng.standard_normal(d) + 1j * rng.standard_normal(d))]
    for density in (0.05, 0.3, 1.0):
        mask = rng.random((d, d)) < density
        cases.append(sp.csr_array(mask * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))))
    for w in cases:
        op = SparseOperator.wrap(layout, w)
        got, want = rho.expectation(op), np.trace(w.toarray() @ rho.data)
        assert isinstance(got, complex)
        assert abs(got - want) <= 1e-14 * abs(want)
    assert rho.expectation(SparseOperator.wrap(layout, cases[0])) == 0.0
