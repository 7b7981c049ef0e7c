"""Tensor-product Hilbert spaces, sparse mode operators, and density matrices.

A mode is a label and its number of levels; a qutrit diode is a three-level
mode with the oscillator's lowering operator.  The mode order of a
:class:`SpaceLayout` fixes the Kronecker convention: the leftmost mode is
the slowest-varying index of the product basis.  All operators built here
are embedded in the full product space (identity on every other mode) and
stored as canonical CSR matrices, so identical inputs always produce
bit-identical sparse structures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered ``(label, number of levels)`` pairs spanning a tensor-product
    space, e.g. ``SpaceLayout.of(("L", 2), ("D1", 3))``."""

    modes: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.modes:
            raise ValueError("layout needs at least one mode")
        labels = [label for label, _ in self.modes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels in layout: {labels}")
        for label, dim in self.modes:
            if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 2:
                raise ValueError(f"mode {label!r} needs an integer dim >= 2, got {dim!r}")

    @classmethod
    def of(cls, *modes: tuple[str, int]) -> "SpaceLayout":
        return cls(tuple(modes))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.modes)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def index_of(self, label: str) -> int:
        for i, (name, _) in enumerate(self.modes):
            if name == label:
                return i
        raise ValueError(f"unknown mode label {label!r}; layout has {list(self.labels)}")

    def dim_of(self, label: str) -> int:
        return self.modes[self.index_of(label)][1]

    def sub_layout(self, keep) -> "SpaceLayout":
        """Layout restricted to the modes in ``keep``, in layout order."""
        keep = set(keep)
        unknown = keep - set(self.labels)
        if unknown:
            raise ValueError(f"unknown mode labels {sorted(unknown)}; layout has {list(self.labels)}")
        return SpaceLayout(tuple(m for m in self.modes if m[0] in keep))


def _canonical_csr(matrix) -> sp.csr_array:
    a = sp.csr_array(matrix, dtype=np.complex128)
    a.sum_duplicates()
    a.eliminate_zeros()
    a.sort_indices()
    return a


def largest_row_sum(m: sp.csr_array) -> float:
    """Largest row sum of |m|, its infinity norm."""
    return float(abs(m).sum(axis=1).max()) if m.nnz else 0.0


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Sparse complex operator tied to a layout.

    The stored matrix is canonical CSR: sorted indices, duplicates summed,
    explicit zeros removed.  Treat instances as immutable.  An operator
    compares and hashes by identity, so it can key a cache.
    """

    layout: SpaceLayout
    matrix: sp.csr_array

    @classmethod
    def wrap(cls, layout: SpaceLayout, matrix) -> "SparseOperator":
        m = _canonical_csr(matrix)
        d = layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"operator shape {m.shape} does not match layout dim {d}")
        return cls(layout, m)

    @functools.cached_property
    def row_sum_norms(self) -> tuple[float, float]:
        """Largest row sum of |A| and of |A†|, the infinity- and 1-norms."""
        return largest_row_sum(self.matrix), largest_row_sum(self.matrix.conj().T.tocsr())

    def _check_layout(self, other: "SparseOperator"):
        if self.layout != other.layout:
            raise ValueError("operators live on different layouts")

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_layout(other)
        return SparseOperator(self.layout, _canonical_csr(self.matrix + other.matrix))

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_layout(other)
        return SparseOperator(self.layout, _canonical_csr(self.matrix - other.matrix))

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_layout(other)
        return SparseOperator(self.layout, _canonical_csr(self.matrix @ other.matrix))

    def __mul__(self, scalar) -> "SparseOperator":
        return SparseOperator(self.layout, _canonical_csr(self.matrix * complex(scalar)))

    __rmul__ = __mul__


def _local_lowering(dim: int) -> np.ndarray:
    """Oscillator lowering operator on ``dim`` levels; at dim 3 the qutrit's."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(np.complex128)


def embed(layout: SpaceLayout, label: str, local_matrix) -> SparseOperator:
    """Embed a single-mode matrix into the full product space."""
    idx = layout.index_of(label)
    dims = layout.dims
    if np.shape(local_matrix) != (dims[idx], dims[idx]):
        raise ValueError(
            f"local matrix shape {np.shape(local_matrix)} does not match mode "
            f"{label!r} of dim {dims[idx]}"
        )
    # entry (a, b) of the local matrix sits at row (i, a, k) and column
    # (i, b, k) for every outer index i and inner index k
    local = np.asarray(local_matrix, dtype=np.complex128)
    a, b = np.nonzero(local)
    left, inner = math.prod(dims[:idx]), math.prod(dims[idx + 1:])
    outer = np.arange(left)[:, None, None] * dims[idx]
    # int32 indices, as ``sp.kron`` gives them at any dimension a dense state fits
    rows, cols = (((outer + x[:, None]) * inner + np.arange(inner)).astype(np.int32).ravel()
                  for x in (a, b))
    data = np.broadcast_to(local[a, b][:, None], (left, len(a), inner)).ravel()
    full = sp.coo_array((data, (rows, cols)), shape=(layout.total_dim,) * 2)
    return SparseOperator.wrap(layout, full)


def lowering_op(layout: SpaceLayout, label: str) -> SparseOperator:
    """Lowering operator of one mode, identity on all others."""
    return embed(layout, label, _local_lowering(layout.dim_of(label)))


def raising_op(layout: SpaceLayout, label: str) -> SparseOperator:
    return embed(layout, label, _local_lowering(layout.dim_of(label)).conj().T)


def number_op(layout: SpaceLayout, label: str) -> SparseOperator:
    """Excitation-number operator a†a of one mode (diag(0, 1, ...))."""
    dim = layout.dim_of(label)
    return embed(layout, label, np.diag(np.arange(dim, dtype=np.complex128)))


def transition_op(layout: SpaceLayout, label: str, from_level: int, to_level: int) -> SparseOperator:
    """Jump operator |to><from| of one mode, identity on the other modes."""
    dim = layout.dim_of(label)
    for level in (from_level, to_level):
        if not 0 <= level < dim:
            raise ValueError(f"level {level} out of range for mode {label!r} of dim {dim}")
    local = np.zeros((dim, dim), dtype=np.complex128)
    local[to_level, from_level] = 1.0
    return embed(layout, label, local)


def projector(layout: SpaceLayout, label: str, level: int) -> SparseOperator:
    """Projector |level><level| onto one level of a mode, identity on the other modes."""
    return transition_op(layout, label, level, level)


@dataclass
class DensityMatrix:
    """Finite, Hermitian, unit-trace, positive-semidefinite state on a layout."""

    layout: SpaceLayout
    data: np.ndarray

    @classmethod
    def from_matrix(cls, layout: SpaceLayout, matrix) -> "DensityMatrix":
        """The state of ``matrix`` on ``layout``, validated (``validate``)."""
        data = np.asarray(matrix, dtype=np.complex128)
        d = layout.total_dim
        if data.shape != (d, d):
            raise ValueError(f"state shape {data.shape} does not match layout dim {d}")
        rho = cls(layout, data)
        rho.validate()
        return rho

    @classmethod
    def ground_state(cls, layout: SpaceLayout) -> "DensityMatrix":
        d = layout.total_dim
        data = np.zeros((d, d), dtype=np.complex128)
        data[0, 0] = 1.0
        return cls(layout, data)

    @classmethod
    def from_mode_states(cls, layout: SpaceLayout, mode_states) -> "DensityMatrix":
        """Product state from per-mode density matrices given in layout order."""
        mats = [np.asarray(m, dtype=np.complex128) for m in mode_states]
        if len(mats) != len(layout.modes):
            raise ValueError("need one state per mode")
        for m, dim in zip(mats, layout.dims):
            if m.shape != (dim, dim):
                raise ValueError(f"mode state shape {m.shape} does not match dim {dim}")
        data = mats[0]
        for m in mats[1:]:
            data = np.kron(data, m)
        return cls.from_matrix(layout, data)

    def validate(self):
        if not np.all(np.isfinite(self.data)):
            raise ValueError("state has non-finite entries")
        herm = np.max(np.abs(self.data - self.data.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"state is not Hermitian: max |rho - rho†| = {herm:.3e}")
        tr = self.data.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"state trace {tr} deviates from 1 beyond {TRACE_TOL}")
        eigmin = float(np.linalg.eigvalsh(self.data)[0])
        if eigmin < EIGENVALUE_FLOOR:
            raise ValueError(f"state has negative eigenvalue {eigmin:.3e}")

    def vec(self) -> np.ndarray:
        """Column-stacked vector view: vec[i + d*j] = rho[i, j]."""
        return self.data.flatten(order="F")

    def expectation(self, op: SparseOperator) -> complex:
        """Tr(W rho): the sum of W[i, j] rho[j, i] over the stored entries of W."""
        if op.layout != self.layout:
            raise ValueError("operator layout does not match state layout")
        m = op.matrix
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        return complex(m.data @ self.data[m.indices, rows])

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.layout, self.data.copy())


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every mode not in ``keep``.

    The result lives on the sub-layout of kept modes in layout order; the
    trace is preserved exactly.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must not be empty")
    for label in keep:
        if keep.count(label) > 1:
            raise ValueError(f"keep names mode {label!r} more than once")
    layout = rho.layout
    keep_indices = sorted(layout.index_of(label) for label in keep)
    dims = layout.dims
    n = len(dims)

    tensor = rho.data.reshape(dims + dims)
    # row index i, column index n + i; a traced mode's column index is its row index
    col = [n + i if i in keep_indices else i for i in range(n)]
    reduced = np.einsum(tensor, [*range(n), *col], [*keep_indices, *(n + i for i in keep_indices)])

    sub = layout.sub_layout(keep)
    d = sub.total_dim
    return DensityMatrix(sub, reduced.reshape((d, d)))
