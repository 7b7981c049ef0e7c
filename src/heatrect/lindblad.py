"""Qutrit rate tables and the Liouvillian generators of every circuit.

One builder makes every Hamiltonian, rate table and generator from the
wiring table ``circuits.TOPOLOGIES``, the reduced models included: a bath
acts through its filter oscillator when the layout keeps it, and otherwise
through the rate contacts of ``CircuitTopology.reduced_contacts``.

Vectorization is column-stacking throughout: vec(rho)[i + d*j] = rho[i, j],
so vec(A rho B) = (B^T kron A) vec(rho).  The generator acts only through
its sparse superoperator matrices, which are built up to dimension
``SUPEROP_MATERIALIZE_DIM``; larger layouts (the six-mode bridge at N >= 3)
are refused.

Every superoperator is one weighted sum of term superoperators: the
commutator term -i[H_j, rho] of each Hamiltonian piece, weighted by its
coefficient (-delta_omega on a coupled diode's |0><0|, J on an exchange, J'
in a drive), and the dissipator of each jump operator, weighted by its
rate.  The terms' union CSR pattern and a sparse (nnz x terms) coefficient
matrix form a term table, so a superoperator is one sparse product of that
matrix with the weights.  A generator built from the wiring table lists
every jump its wiring allows, zero rates included, so every point of a
sweep at one truncation shares one table.  Two LRU caches keep the
embedded one-mode operators, keyed on (layout, constructor, arguments), and
the tables, keyed on (layout, term keys); each is bounded to a few
layouts' worth of entries.

Both steady-state routes solve on the invariant block that carries the
trace, in a real Hermitian basis of that block.  The block, its basis
transform T and every term's real superoperator T S_t T^dagger depend only
on the term table and which of its terms have a nonzero weight, so a third
LRU cache, keyed by the term table itself, keeps them as a real table: the
real terms on one shared real CSR pattern, each checked to preserve
Hermiticity when the table is built.  A point's real static and drive
superoperators are then one sparse product each of that table with the
point's weights, written onto the table's fixed pattern.  A Liouvillian
built directly from operators keeps its own term table, so its real table
is built once too.  A wiring-table generator builds its Hamiltonian only
when ``hamiltonian`` is first read.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .circuits import (
    TOPOLOGIES,
    CircuitSpec,
    Contact,
    DiodeParams,
    RateMode,
    TimeDependentOperator,
    Topology,
)
from .spaces import (
    DensityMatrix,
    SpaceLayout,
    SparseOperator,
    embed,
    lowering_op,
    number_op,
    projector,
    raising_op,
)

# largest dimension for which d^2 x d^2 superoperator matrices are built
SUPEROP_MATERIALIZE_DIM = 512

_ALLOWED_TRANSITIONS = ((0, 1), (1, 0), (1, 2), (2, 1))


@dataclass(frozen=True)
class RateTable:
    """Transition rates of one qutrit; only 0<->1 and 1<->2 are allowed."""

    rates: dict[tuple[int, int], float]

    def __post_init__(self):
        for key, value in self.rates.items():
            if key not in _ALLOWED_TRANSITIONS:
                raise ValueError(f"transition {key} is not allowed (only 0<->1 and 1<->2)")
            if value < 0:
                raise ValueError(f"rate for transition {key} is negative: {value}")

    def get(self, from_level: int, to_level: int) -> float:
        """Rate of from_level -> to_level; unlisted transitions are zero."""
        return self.rates.get((from_level, to_level), 0.0)


def qutrit_rate_table(params: DiodeParams, n: float, Gamma: float, modulated: bool) -> RateTable:
    """Effective bath-induced transition rates of one qutrit diode.

    The diode sees a bath of occupation ``n`` through a strongly damped
    filter oscillator of linewidth ``Gamma``.  The 1<->2 transition is
    resonant with the filter, giving rates 8 J^2 / Gamma scaled by n or
    1+n.  The 0<->1 transition is detuned by the anharmonicity and keeps a
    Lorentzian tail of the static coupling; with ``modulated`` the cosine
    drive re-resonates it and adds J'^2 / Gamma.
    """
    if n < 0:
        raise ValueError(f"occupation must be nonnegative, got {n}")
    if Gamma <= 0:
        raise ValueError(f"Gamma must be positive, got {Gamma}")
    lorentz = params.J ** 2 * Gamma / (params.delta_omega ** 2 + Gamma ** 2 / 4.0)
    drive = params.J_prime ** 2 / Gamma if modulated else 0.0
    resonant = 8.0 * params.J ** 2 / Gamma
    return RateTable({
        (0, 1): n * (drive + lorentz),
        (1, 0): (1.0 + n) * (drive + lorentz),
        (1, 2): n * resonant,
        (2, 1): (1.0 + n) * resonant,
    })


def vectorize(matrix: np.ndarray) -> np.ndarray:
    """Column-stacked vector of a matrix."""
    return np.asarray(matrix).flatten(order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vec).reshape((dim, dim), order="F")


def _coherent_term(h: sp.csr_array) -> list:
    """Kron pairs of the commutator -i[H, rho] = -i (H rho - rho H); it
    preserves Hermiticity only for Hermitian H."""
    eye = sp.eye_array(h.shape[0], format="coo")
    return [(eye, -1j * h), (1j * h.T, eye)]


def _dissipator_term(a: sp.csr_array) -> list:
    """Kron pairs of A rho A† - (A†A rho + rho A†A) / 2."""
    eye = sp.eye_array(a.shape[0], format="coo")
    ada = a.conj().T @ a
    return [(eye, -0.5 * ada), (-0.5 * ada.conj(), eye), (a.conj(), a)]


@dataclass(frozen=True, eq=False)
class _TermTable:
    """Term superoperators S_t on one shared CSR pattern (``indptr``,
    ``indices``): entry e of the weighted sum sum_t w_t S_t is
    (coefficients @ w)[e], with ``coefficients`` a sparse (nnz x terms) matrix.
    A table compares and hashes by identity, so it keys the real-table cache."""

    side: int
    indptr: np.ndarray
    indices: np.ndarray
    coefficients: sp.csc_array

    @classmethod
    def of(cls, terms: Iterable[list], side: int) -> "_TermTable":
        """Table of the terms, each a list of kron pairs (B_k, A_k): S_t is
        sum_k B_k kron A_k, which maps rho to sum_k A_k rho B_k^T.  The
        terms are read one at a time."""
        flats, datas = [], []
        for pairs in terms:
            flat, data = [np.zeros(0, np.int64)], [np.zeros(0, np.complex128)]
            for b, a in pairs:
                b, a, d = b.tocoo(), a.tocoo(), a.shape[0]
                # row-major linear index of every entry of kron(b, a)
                rows = (b.row[:, None] * d + a.row).astype(np.int64)
                flat.append((rows * side + (b.col[:, None] * d + a.col)).ravel())
                data.append((b.data[:, None] * a.data).ravel())
            flat, data = np.concatenate(flat), np.concatenate(data)
            # the entries of the canonical CSR term: duplicates summed in the
            # order of the pairs, exact zeros dropped
            order = np.argsort(flat, kind="stable")
            flat, data = flat[order], data[order]
            start = np.flatnonzero(np.diff(flat, prepend=-1))
            data = np.add.reduceat(data, start)
            keep = data != 0
            flats.append(flat[start][keep])
            datas.append(data[keep])
        return cls.of_entries(flats, datas, side, np.complex128)

    @classmethod
    def of_entries(cls, flats: list, datas: list, side: int, dtype) -> "_TermTable":
        """Table of terms given by their entries: term t holds ``datas[t]`` at
        the sorted, distinct row-major linear indices ``flats[t]``."""
        pattern = np.unique(np.concatenate([np.zeros(0, np.int64), *flats]))
        # column t holds the entries of term t at their pattern positions
        coefficients = sp.csc_array(
            (np.concatenate([np.zeros(0, dtype), *datas]),
             np.concatenate([np.zeros(0, np.int32), *(np.searchsorted(pattern, f).astype(np.int32) for f in flats)]),
             np.cumsum([0, *(f.size for f in flats)]).astype(np.int32)),
            shape=(pattern.size, len(flats)))
        indptr = np.searchsorted(pattern // side, np.arange(side + 1)).astype(np.int32)
        return cls(side, indptr, (pattern % side).astype(np.int32), coefficients)

    def assemble(self, weights: np.ndarray) -> sp.csr_array:
        """CSR matrix of sum_t weights[t] S_t on the table's pattern, explicit
        zeros kept; it shares no array with the table."""
        return sp.csr_array((self.coefficients @ weights, self.indices.copy(), self.indptr.copy()),
                            shape=(self.side, self.side))


def _exchange_op(layout: SpaceLayout, a: str, b: str) -> SparseOperator:
    """Excitation exchange a_a a_b† + a_a† a_b between two modes."""
    return lowering_op(layout, a) @ raising_op(layout, b) + raising_op(layout, a) @ lowering_op(layout, b)


# Both caches hold a few layouts' worth: a sweep runs one truncation at a
# time, on one or two blocks and at most two circuits.
@functools.lru_cache(maxsize=64)
def _mode_operator(layout: SpaceLayout, make, *args) -> SparseOperator:
    """make(layout, *args), built once for every generator on the layout."""
    return make(layout, *args)


@functools.lru_cache(maxsize=4)
def _term_table(layout: SpaceLayout, keys: tuple) -> _TermTable:
    """Table of the terms ``keys``, each (term constructor, operator key)."""
    terms = (term(_mode_operator(layout, *op).matrix) for term, op in keys)
    return _TermTable.of(terms, layout.total_dim ** 2)


def _trace_block(pattern: sp.csr_array, d: int, support=()) -> np.ndarray:
    """Mask over vec(rho) of the invariant block that carries the trace.

    ``pattern`` is the sparsity pattern of a generator's static and drive
    superoperators together.  The block is the union of its weakly
    connected components that hold a diagonal index i + d*i or an index in
    ``support``.  No generator entry joins it to the rest of the space, so
    it is invariant by construction; a generator without symmetry gets the
    whole space.
    """
    _, labels = connected_components(pattern, directed=True, connection="weak")
    seeds = np.union1d(np.arange(d) * (d + 1), np.asarray(support, dtype=np.int64))
    return np.isin(labels, labels[seeds])


def hermitian_basis_transform(d: int, pairs: np.ndarray) -> sp.csr_array:
    """Isometry T mapping vec(rho) to real coordinates in a Hermitian basis.

    ``pairs`` is a symmetric d x d boolean mask of the entries (k, l) the
    basis spans; the all-true mask makes T unitary.  Basis
    order: the kept diagonal projectors first, then for each kept pair
    k < l the symmetric and antisymmetric (i-weighted) combinations, both
    normalized under the Hilbert-Schmidt inner product.  For Hermitian rho
    supported on the mask the coordinates T @ vec(rho) are real and
    T^dagger T vec(rho) = vec(rho).
    """
    pairs = np.asarray(pairs, dtype=bool)
    if pairs.shape != (d, d) or not np.array_equal(pairs, pairs.T):
        raise ValueError(f"pair mask must be a symmetric {d} x {d} boolean array")
    diag = np.flatnonzero(np.diagonal(pairs))
    k, l = np.nonzero(np.triu(pairs, 1))
    n_diag, n_pairs = len(diag), len(k)
    re_rows = n_diag + 2 * np.arange(n_pairs)
    upper, lower = k + d * l, l + d * k
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    rows = np.concatenate([np.arange(n_diag), re_rows, re_rows, re_rows + 1, re_rows + 1])
    cols = np.concatenate([diag * (d + 1), upper, lower, upper, lower])
    data = np.concatenate([
        np.ones(n_diag, dtype=np.complex128),
        # u = sqrt(2) Re rho_kl, then u = sqrt(2) Im rho_kl
        np.full(2 * n_pairs, inv_sqrt2, dtype=np.complex128),
        np.full(n_pairs, -1j * inv_sqrt2),
        np.full(n_pairs, 1j * inv_sqrt2),
    ])
    t = sp.csr_array((data, (rows, cols)), shape=(n_diag + 2 * n_pairs, d * d))
    t.sort_indices()
    return t


def _to_real_superop(transform: sp.csr_array, superop: sp.csr_array, what: str) -> sp.csr_array:
    m = (transform @ superop @ transform.conj().T).tocsr()
    m.sum_duplicates()
    if m.nnz:
        imag_max = float(np.max(np.abs(m.data.imag)))
        scale = max(float(np.max(np.abs(m.data.real))), 1.0)
        if imag_max > 1e-10 * scale:
            raise ArithmeticError(
                f"{what} is not Hermiticity-preserving (imaginary residue {imag_max:.3e})"
            )
    out = sp.csr_array((m.data.real.astype(np.float64), m.indices, m.indptr), shape=m.shape)
    out.eliminate_zeros()
    return out


@functools.lru_cache(maxsize=4)
def _real_table(table: _TermTable, d: int, live: tuple, support: tuple) -> tuple[sp.csr_array, _TermTable]:
    """``table`` in the real Hermitian basis of the invariant block that
    carries the trace, as (T, real terms): the block of the terms ``live``
    (those with a nonzero weight) and the vec indices ``support``, the
    isometry T onto its real coordinates, and every live term's real
    superoperator T S_t T^dagger on one shared real CSR pattern, each checked
    to preserve Hermiticity; the other terms keep empty columns."""
    parts = [table.assemble(np.eye(1, table.coefficients.shape[1], t).ravel()) for t in live]
    for s in parts:
        s.eliminate_zeros()
    pattern = sum((abs(s) for s in parts), sp.csr_array((table.side, table.side)))
    transform = hermitian_basis_transform(d, unvectorize(_trace_block(pattern, d, support), d))
    side = transform.shape[0]
    flats = [np.zeros(0, np.int64)] * table.coefficients.shape[1]
    datas = [np.zeros(0)] * len(flats)
    for t, s in zip(live, parts):
        real = _to_real_superop(transform, s, f"term {t} of the generator").tocoo()
        flats[t], datas[t] = real.row.astype(np.int64) * side + real.col, real.data
    return transform, _TermTable.of_entries(flats, datas, side, np.float64)


def transition_op(layout: SpaceLayout, label: str, from_level: int, to_level: int) -> SparseOperator:
    """Jump operator |to><from| of one qutrit, embedded in the layout."""
    dim = layout.dim_of(label)
    local = np.zeros((dim, dim), dtype=np.complex128)
    local[to_level, from_level] = 1.0
    return embed(layout, label, local)


@dataclass(frozen=True)
class _WeightedTerms:
    """A generator as weights on the cached term table of its layout: one
    weight vector over ``keys`` for the static part and one per drive."""

    keys: tuple
    static: np.ndarray
    drives: tuple[tuple[float, np.ndarray], ...]


def _operator_terms(side: int, hamiltonian: TimeDependentOperator | None, jumps):
    """Term table and weights of a generator given by its operators: one term
    for the static Hamiltonian, one per drive and one per jump."""
    static_ops = [] if hamiltonian is None else [(1.0, hamiltonian.static_part)]
    drive_ops = [] if hamiltonian is None else list(hamiltonian.drive_terms)
    terms = ([_coherent_term(op.matrix) for _, op in static_ops + drive_ops]
             + [_dissipator_term(op.matrix) for _, op in jumps])
    unit = np.eye(len(terms))
    static = np.array([w for w, _ in static_ops] + [0.0] * len(drive_ops) + [w for w, _ in jumps])
    drives = tuple((nu, unit[len(static_ops) + k]) for k, (nu, _) in enumerate(drive_ops))
    return _TermTable.of(terms, side), static, drives


def _coherent_part(layout: SpaceLayout, terms: _WeightedTerms) -> TimeDependentOperator | None:
    """H(t) of a wiring-table generator: its coherent terms' operators summed
    with the static weights and, per drive, with that drive's nonzero weights."""
    coherent = [k for k, (term, _) in enumerate(terms.keys) if term is _coherent_term]
    if not coherent:
        return None

    def combine(weights, columns) -> SparseOperator:
        return SparseOperator.wrap(layout, functools.reduce(operator.add, (
            float(weights[k]) * _mode_operator(layout, *terms.keys[k][1]).matrix for k in columns)))

    return TimeDependentOperator(combine(terms.static, coherent), tuple(
        (nu, combine(w, [k for k in coherent if w[k]])) for nu, w in terms.drives))


class Liouvillian:
    """Generator of a Lindblad master equation on a layout.

    Holds the coherent part and the weighted jump operators.  Its sparse
    superoperator matrices (static part plus one cosine-modulated part per
    drive frequency), and their real forms on the invariant block that
    carries the trace, are built lazily and only below the size guard, each
    as one weighted sum of term superoperators.

    ``_terms``, set by the wiring-table builder, gives the generator as
    weights on the cached term table of its layout; its Hamiltonian is then
    built from those weights on the first read of ``hamiltonian``, and the
    ``hamiltonian`` argument is None.  Without ``_terms`` the generator
    builds its own term table from ``hamiltonian`` and ``jumps`` on first
    use.  Either way the real table is cached by the term table.
    """

    def __init__(self, layout: SpaceLayout, hamiltonian: TimeDependentOperator | None,
                 jumps: tuple[tuple[float, SparseOperator], ...], _terms: _WeightedTerms | None = None):
        self.layout = layout
        self.jumps = jumps
        self._terms = _terms
        if _terms is None:
            self.hamiltonian = hamiltonian
        self._own_terms = None
        self._static: sp.csr_array | None = None
        self._drives: tuple[tuple[float, sp.csr_array], ...] | None = None

    @functools.cached_property
    def hamiltonian(self) -> TimeDependentOperator | None:
        """Coherent part H(t) = static + sum_nu cos(nu t) V_nu, or None."""
        return _coherent_part(self.layout, self._terms)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def drive_frequencies(self) -> tuple[float, ...]:
        if self._terms is not None:
            return tuple(nu for nu, _ in self._terms.drives)
        return () if self.hamiltonian is None else self.hamiltonian.frequencies

    def _table(self) -> tuple[_TermTable, np.ndarray, tuple[tuple[float, np.ndarray], ...]]:
        """(term table, static weights, (frequency, drive weights) per drive)."""
        if self.dim > SUPEROP_MATERIALIZE_DIM:
            raise ValueError(
                f"refusing to materialize a {self.dim ** 2} x {self.dim ** 2} superoperator "
                f"(dim {self.dim} > SUPEROP_MATERIALIZE_DIM = {SUPEROP_MATERIALIZE_DIM})"
            )
        if self._terms is not None:
            return _term_table(self.layout, self._terms.keys), self._terms.static, self._terms.drives
        if self._own_terms is None:
            self._own_terms = _operator_terms(self.dim ** 2, self.hamiltonian, self.jumps)
        return self._own_terms

    def superops(self) -> tuple[sp.csr_array, tuple[tuple[float, sp.csr_array], ...]]:
        """(L0, ((nu, L_nu), ...)): the static and drive superoperators on the
        one CSR pattern of the generator's term table, explicit zeros kept.
        Each returned matrix owns its arrays."""
        table, static, drives = self._table()
        return table.assemble(static), tuple((nu, table.assemble(w)) for nu, w in drives)

    def _materialize(self):
        self._static, self._drives = self.superops()
        for m in (self._static, *(s for _, s in self._drives)):
            m.eliminate_zeros()

    @property
    def static_superop(self) -> sp.csr_array:
        """Static superoperator -i[H, rho] + sum_k w_k (A_k rho A_k† - {A_k†A_k, rho}/2)."""
        if self._static is None:
            self._materialize()
        return self._static

    @property
    def drive_superops(self) -> tuple[tuple[float, sp.csr_array], ...]:
        """(frequency, superoperator) per cosine drive of the coherent part."""
        if self._drives is None:
            self._materialize()
        return self._drives

    def real_superops(self, rho0: DensityMatrix | None = None):
        """(T, L0, ((nu, L_nu), ...)): the isometry T onto the real Hermitian
        basis of the invariant block that carries the trace and the support
        of ``rho0`` (``_trace_block``), and the static and drive
        superoperators in that basis, T L T^dagger, as real CSR matrices on
        the real table's one pattern, explicit zeros kept.

        The block, T and every term's real superoperator depend only on the
        term table and which of its terms have a nonzero weight; they come
        from an LRU cache of a few such real tables, so a point assembles
        only the weighted sums.  Each returned matrix owns its arrays, so
        none is shared with the cache.
        """
        table, static, drives = self._table()
        d = self.dim
        support = () if rho0 is None else np.flatnonzero(rho0.vec())
        # the diagonal always seeds the block; only the off-diagonal support widens it
        support = tuple(int(i) for i in support if i % (d + 1))
        nonzero = static != 0
        for _, w in drives:
            nonzero = nonzero | (w != 0)
        live = tuple(int(t) for t in np.flatnonzero(nonzero))
        transform, real = _real_table(table, d, live, support)
        return (transform.copy(), real.assemble(static),
                tuple((nu, real.assemble(w)) for nu, w in drives))


def _contact_table(spec: CircuitSpec, contact: Contact) -> RateTable:
    # paper-literal reads the right-bath rate symbol at face value: no J' term
    modulated = contact.modulated and not (
        contact.side == "right" and spec.bridge_rate_mode is RateMode.PAPER_LITERAL)
    bath = spec.bath(contact.side)
    return qutrit_rate_table(spec.diodes[contact.diode], bath.n, bath.Gamma, modulated)


def rate_tables(spec: CircuitSpec) -> dict[str, dict[str, RateTable]]:
    """Rate table of every bath contact of the spec's reduced model, as
    {side: {diode: table}}.  Under PAPER_LITERAL a right-side contact takes
    the static (J'-free) rate form."""
    tables: dict[str, dict[str, RateTable]] = {"left": {}, "right": {}}
    for contact in TOPOLOGIES[spec.topology].reduced_contacts:
        tables[contact.side][contact.diode] = _contact_table(spec, contact)
    return tables


def bridge_rate_tables(spec: CircuitSpec) -> dict[str, RateTable]:
    """Per-diode view of ``rate_tables`` for the bridge, each of whose diodes
    faces one bath."""
    if spec.topology is not Topology.BRIDGE:
        raise ValueError("bridge rate tables are only defined for the bridge topology")
    tables = rate_tables(spec)
    return {**tables["left"], **tables["right"]}


def _generator(spec: CircuitSpec, layout: SpaceLayout) -> Liouvillian:
    """Generator of the modes of ``layout``, wired as the spec's topology declares.

    The Hamiltonian holds the retained couplings among these modes, with
    drives grouped by frequency, and the anharmonicity of every diode they
    touch; a diode with no retained coupling sits in its own rotating frame,
    which leaves its rate dissipators unchanged.  A bath acts through its
    filter oscillator when ``layout`` keeps it, and otherwise through the
    rate contacts of its side in ``reduced_contacts``; the gamma_dec
    decoherence acts on every mode of a topology that decoheres.
    """
    topology = TOPOLOGIES[spec.topology]
    labels = layout.labels
    kept = {side: label for label, side in topology.filters if label in labels}

    # (coefficient, operator key) of every Hamiltonian piece, and of every drive piece by frequency
    couplings = [c for c in topology.couplings if c.a in labels and c.b in labels]
    coupled = {mode for c in couplings for mode in (c.a, c.b)}
    pieces = [(-spec.diodes[label].delta_omega, (projector, label, 0))
              for label in labels if label in coupled and label in spec.diodes]
    drives: dict[float, list] = {}
    for c in couplings:
        params = spec.diodes[c.diode]
        pieces.append((params.J, (_exchange_op, c.a, c.b)))
        if c.modulated and params.J_prime > 0:
            drives.setdefault(params.delta_omega, []).append((params.J_prime, (_exchange_op, c.a, c.b)))

    # (rate, operator key) of every jump the wiring allows, zero rates
    # included, so that every point of a sweep shares one term table
    rates = []
    for contact in topology.reduced_contacts:
        if contact.diode in labels and contact.side not in kept:
            table = _contact_table(spec, contact)
            rates += [(table.get(*t), (transition_op, contact.diode, *t)) for t in _ALLOWED_TRANSITIONS]
    for side, label in kept.items():
        bath = spec.bath(side)
        rates += [(bath.Gamma * (bath.n + 1.0), (lowering_op, label)),
                  (bath.Gamma * bath.n, (raising_op, label))]
    if topology.decoherence:
        for label in labels:
            rates += [(spec.gamma_dec, (lowering_op, label)), (spec.gamma_dec, (number_op, label))]

    jumps = tuple((rate, _mode_operator(layout, *key)) for rate, key in rates if rate > 0)

    keys = (tuple((_coherent_term, key) for _, key in pieces)
            + tuple((_dissipator_term, key) for _, key in rates))
    column = {key: k for k, (_, key) in enumerate(pieces)}
    drive_weights = []
    for nu, parts in sorted(drives.items()):
        weights = np.zeros(len(keys))
        for c, key in parts:
            weights[column[key]] += c
        drive_weights.append((nu, weights))
    static = np.array([c for c, _ in pieces] + [rate for rate, _ in rates])
    return Liouvillian(layout, None, jumps, _WeightedTerms(keys, static, tuple(drive_weights)))


def build_generator(spec: CircuitSpec) -> Liouvillian:
    """Liouvillian of the whole circuit, every block of its topology on one layout."""
    blocks = TOPOLOGIES[spec.topology].block_layouts(spec.ho_truncation)
    return _generator(spec, SpaceLayout(tuple(mode for layout in blocks for mode in layout.modes)))


def build_reduced_generator(spec: CircuitSpec) -> Liouvillian:
    """Liouvillian of the circuit's reduced model: its modes minus its filter
    oscillators, each bath acting through its rate contacts."""
    topology = TOPOLOGIES[spec.topology]
    filters = {label for label, _ in topology.filters}
    return _generator(spec, SpaceLayout(tuple(
        mode for layout in topology.block_layouts(spec.ho_truncation)
        for mode in layout.modes if mode[0] not in filters)))


def build_bridge_half_generators(spec: CircuitSpec) -> tuple[Liouvillian, Liouvillian]:
    """Generators of the two blocks of the reduced bridge, (upper, lower).

    The upper trio [D1, M1, D2] is time-independent, the lower trio
    [D3, M2, D4] is driven.  No coupling or dissipator joins the trios, so
    the tensor product of their steady states is the steady state of the
    full bridge generator.
    """
    if spec.topology is not Topology.BRIDGE:
        raise ValueError("bridge halves are only defined for the bridge topology")
    upper, lower = (_generator(spec, layout)
                    for layout in TOPOLOGIES[spec.topology].block_layouts(spec.ho_truncation))
    return upper, lower

