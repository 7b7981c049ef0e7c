"""Rate tables of the qutrit diodes and the Liouvillian generators of every circuit.

One builder makes every Hamiltonian, rate table and generator from the
wiring table ``circuits.TOPOLOGIES``, the reduced models included: a bath
acts through its filter oscillator when the layout keeps it, and otherwise
through the rate contacts of ``CircuitTopology.reduced_contacts``.  Every
jump of a filter or a contact carries its bath's side.

Vectorization is column-stacking throughout: vec(rho)[i + d*j] = rho[i, j],
so vec(A rho B) = (B^T kron A) vec(rho).  The generator acts only through
its sparse superoperator matrices, which are built up to dimension
``SUPEROP_MATERIALIZE_DIM``; larger layouts (the six-mode bridge at N >= 3)
are refused.

A generator is its layout and its weights: a tuple of term keys, one
weight vector over them per part (static, and each drive) and the bath
side of each key, all held by ``Liouvillian`` itself.  Every
superoperator is one weighted sum of term superoperators: the commutator
term -i[H_j, rho] of each Hamiltonian piece, weighted by its coefficient
(-delta_omega on a coupled diode's |0><0|, J on an exchange, J' in a
drive), and the dissipator of each jump operator, weighted by its rate.
A key names its operator by (layout, constructor, arguments); an operator
handed to ``Liouvillian`` directly is its own key, and operators hash by
identity.  The terms' union CSR pattern and a sparse (nnz x terms)
coefficient matrix form a term table, so a superoperator is one sparse
product of that matrix with the weights.
A generator built from the wiring table lists every jump its wiring
allows, zero rates included, so every point of a sweep at one truncation
shares one table.  Four LRU caches, each bounded to a few layouts' worth
of entries, keep the embedded one-mode operators, keyed on (layout,
constructor, arguments); the term tables and the operator tables, both
keyed on (layout, term keys); and the real blocks below.

Both steady-state routes solve on one real block, which one walk
defines: every live term is transformed to the full real Hermitian basis
of vec(rho), where each is checked to preserve Hermiticity, and the block
is the set of real coordinates that a walk over those real terms reaches
from the d populations, in the walk's level order.  The block, its basis
transform T and every term's real superoperator T S_t T^dagger depend
only on the term table and which of its terms have a nonzero weight, so
the real-table cache, keyed by those two, keeps them as one real block
(``_RealBlock``): T, its lift T^dagger back to vec(rho), built once, the
real terms cut to the block on one shared real CSR pattern, and the
bounds of the levels, in which the block is block-tridiagonal.  A point's
real static and drive superoperators are then one sparse product each of
those terms with the point's weights, written onto their fixed pattern,
and both routes lift their block coordinates to a state through the
block's one T^dagger.  A generator builds its Hamiltonian when
``hamiltonian`` is first read, and a bath current its operator, from the
operator table of each term's d x d operator (a coherent term's own, a
jump's emission operator); the integrator's step bound reads the
Hamiltonian's row sums.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .circuits import (
    TOPOLOGIES,
    CircuitSpec,
    Contact,
    DiodeParams,
    RateMode,
    TimeDependentOperator,
)
from .spaces import (
    SpaceLayout,
    SparseOperator,
    lowering_op,
    number_op,
    projector,
    raising_op,
    transition_op,
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


# The caches hold a few layouts' worth: a sweep runs one truncation at a
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


def _levels(pattern: sp.sparray, sources: np.ndarray) -> np.ndarray:
    """Breadth-first level of every index over the symmetrized sparsity
    pattern of ``pattern``, walked from ``sources`` at level 0, or -1 where
    no path reaches the index; an explicit zero counts as an entry."""
    pattern = sp.csr_array(pattern)
    # float ones, not bool, so that the product is a plain numeric sum
    links = sp.csr_array((np.ones(pattern.indices.size), pattern.indices, pattern.indptr),
                         shape=pattern.shape)
    links = links + links.T
    level = np.full(pattern.shape[0], -1)
    level[sources] = 0
    frontier = (level == 0).astype(np.float64)
    depth = 0
    while frontier.any():
        depth += 1
        reached = (links @ frontier > 0) & (level < 0)
        level[reached] = depth
        frontier = reached.astype(np.float64)
    return level


def hermitian_basis_transform(d: int) -> sp.csr_array:
    """Unitary T mapping vec(rho) to real coordinates in a Hermitian basis.

    Basis order: the d diagonal projectors first, then for each pair
    k < l, in row-major order, the symmetric and antisymmetric (i-weighted)
    combinations, both normalized under the Hilbert-Schmidt inner product.
    For Hermitian rho the coordinates T @ vec(rho) are real.
    """
    k, l = np.triu_indices(d, 1)
    n_pairs = len(k)
    re_rows = d + 2 * np.arange(n_pairs)
    upper, lower = k + d * l, l + d * k
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    rows = np.concatenate([np.arange(d), re_rows, re_rows, re_rows + 1, re_rows + 1])
    cols = np.concatenate([np.arange(d) * (d + 1), upper, lower, upper, lower])
    data = np.concatenate([
        np.ones(d, dtype=np.complex128),
        # u = sqrt(2) Re rho_kl, then u = sqrt(2) Im rho_kl
        np.full(2 * n_pairs, inv_sqrt2, dtype=np.complex128),
        np.full(n_pairs, -1j * inv_sqrt2),
        np.full(n_pairs, 1j * inv_sqrt2),
    ])
    t = sp.csr_array((data, (rows, cols)), shape=(d * d, d * d))
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


@dataclass(frozen=True, eq=False)
class _RealBlock:
    """A term table's real form on the block that a walk from the
    populations reaches, in level order: the isometry ``transform`` T onto
    the block's real coordinates, its ``lift`` T^dagger back to vec(rho),
    the real ``terms`` T S_t T^dagger, and the level ``bounds``: level k is
    coordinates bounds[k]:bounds[k+1], and a real entry joins levels at most
    one apart."""

    transform: sp.csr_array
    lift: sp.csc_array
    terms: _TermTable
    bounds: tuple[int, ...]


@functools.lru_cache(maxsize=4)
def _real_table(table: _TermTable, live: tuple) -> _RealBlock:
    """The real block of ``table`` for the terms ``live`` (those with a
    nonzero weight).  Every live term is transformed on the full real
    Hermitian basis and checked there, on every entry, to preserve
    Hermiticity.  A walk over those real terms from the d populations
    (``_levels``) defines the block: exactly the coordinates it reaches, in
    stable level order.  No real entry joins a reached coordinate to an
    unreached one, so each term is cut to the block by indexing; other
    terms stay empty."""
    d = math.isqrt(table.side)
    full = hermitian_basis_transform(d)
    reals = [_to_real_superop(full, table.assemble(np.eye(1, table.coefficients.shape[1], t).ravel()),
                              f"term {t} of the generator") for t in live]
    level = _levels(sum((abs(r) for r in reals), sp.csr_array((table.side, table.side))), np.arange(d))
    # the unreached coordinates, at level -1, sort first and are dropped
    order = np.argsort(level, kind="stable")[np.count_nonzero(level < 0):]
    side = order.size
    flats = [np.zeros(0, np.int64)] * table.coefficients.shape[1]
    datas = [np.zeros(0)] * len(flats)
    for t, real in zip(live, reals):
        cut = real[order][:, order].tocoo()
        flat = cut.row.astype(np.int64) * side + cut.col
        by_index = np.argsort(flat)
        flats[t], datas[t] = flat[by_index], cut.data[by_index]
    transform = full[order]
    bounds = np.searchsorted(level[order], np.arange(level.max() + 2))
    return _RealBlock(transform, transform.conj().T,
                      _TermTable.of_entries(flats, datas, side, np.float64), tuple(bounds.tolist()))


def _given(layout: SpaceLayout, op: SparseOperator) -> SparseOperator:
    """The operator itself: the key (_given, op) of an operator handed to
    ``Liouvillian`` holds it, and operators hash by identity, so a cached
    table is never found for another operator's key."""
    return op


@functools.lru_cache(maxsize=4)
def _operator_table(layout: SpaceLayout, keys: tuple) -> _TermTable:
    """The d x d operator of each of ``keys`` as a table, in key order: O_k
    of a coherent term, and of the dissipator of a jump A on a named mode
    its emission operator W_k = {A†A, n}/2 - A† n A, n that mode's number
    operator, so that Tr(W_k rho) is the excitation flow out of the system
    through that dissipator; an operator handed to ``Liouvillian`` as a jump
    is an empty column."""
    def pairs(term, op):
        if term is _coherent_term:
            return [(eye, _mode_operator(layout, *op).matrix)]
        if op[0] is _given:
            return []
        a, n = _mode_operator(layout, *op).matrix, _mode_operator(layout, number_op, op[1]).matrix
        ada = a.conj().T @ a
        return [(eye, 0.5 * (ada @ n + n @ ada) - a.conj().T @ n @ a)]

    eye = sp.eye_array(1, format="coo")
    return _TermTable.of((pairs(*key) for key in keys), layout.total_dim)


class Liouvillian:
    """Generator of a Lindblad master equation on a layout.

    Every generator is its ``layout`` and weights on the cached term table
    of that layout: the term keys ``_keys``, one weight vector over them for
    the static part (``_static``) and one per drive (``_drives``, as
    (nu, weights) pairs), and the bath side of each key (``_sides``: "left",
    "right", or None off the baths).  Each view of it has one accessor:
    ``superops()`` gives the complex sparse superoperators (static part
    plus one cosine-modulated part per drive) and ``real_superops()`` their
    real forms on the block that a walk from the populations reaches, both
    built on each call, only below the size guard, each as one weighted sum
    of term superoperators.  ``hamiltonian`` is built from the weights when
    first read, and ``jumps`` are the dissipator terms of nonzero weight.

    ``Liouvillian(layout, hamiltonian, jumps)`` gives each operator, which
    must live on ``layout``, its own term: the static Hamiltonian at weight
    1, each drive at weight 1 in its own drive, and each (weight, A) jump
    at its weight.
    """

    def __init__(self, layout: SpaceLayout, hamiltonian: TimeDependentOperator | None,
                 jumps: tuple[tuple[float, SparseOperator], ...]):
        static_part = () if hamiltonian is None else (hamiltonian.static_part,)
        drive_terms = () if hamiltonian is None else hamiltonian.drive_terms
        coherent = (*static_part, *(v for _, v in drive_terms))
        for op in (*coherent, *(op for _, op in jumps)):
            if op.layout != layout:
                raise ValueError(f"operator on layout {list(op.layout.labels)} {op.layout.dims} "
                                 f"given to a generator on {list(layout.labels)} {layout.dims}")
        keys = (tuple((_coherent_term, (_given, op)) for op in coherent)
                + tuple((_dissipator_term, (_given, op)) for _, op in jumps))
        unit = np.eye(len(keys))
        static = np.array([1.0] * len(static_part) + [0.0] * len(drive_terms) + [w for w, _ in jumps])
        drives = tuple((nu, unit[len(static_part) + k]) for k, (nu, _) in enumerate(drive_terms))
        self._init(layout, keys, static, drives, (None,) * len(keys))

    def _init(self, layout: SpaceLayout, keys: tuple, static: np.ndarray,
              drives: tuple[tuple[float, np.ndarray], ...], sides: tuple) -> "Liouvillian":
        """Set the generator's layout and weights; both builders end here."""
        self.layout, self._keys, self._static, self._drives, self._sides = layout, keys, static, drives, sides
        return self

    @functools.cached_property
    def hamiltonian(self) -> TimeDependentOperator | None:
        """Coherent part H(t) = static + sum_nu cos(nu t) V_nu, or None:
        H_0, then V_nu of each drive, are the coherent operators weighted by
        the static weights, or by that drive's, and summed in key order,
        which gives every entry the value that the sparse sum of the
        weighted operators gives it."""
        coherent = np.array([term is _coherent_term for term, _ in self._keys])
        if not coherent.any():
            return None
        table = _operator_table(self.layout, self._keys)
        h0, *vs = (SparseOperator.wrap(self.layout, table.assemble(w))
                   for w in (np.where(coherent, self._static, 0.0), *(w for _, w in self._drives)))
        return TimeDependentOperator(h0, tuple((nu, v) for (nu, _), v in zip(self._drives, vs)))

    @functools.cached_property
    def jumps(self) -> tuple[tuple[float, SparseOperator], ...]:
        """(weight, A) of every dissipator term with a nonzero weight, in key order."""
        return tuple((float(w), _mode_operator(self.layout, *op))
                     for (term, op), w in zip(self._keys, self._static)
                     if term is _dissipator_term and w != 0)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def drive_frequencies(self) -> tuple[float, ...]:
        return tuple(nu for nu, _ in self._drives)

    def _table(self) -> _TermTable:
        if self.dim > SUPEROP_MATERIALIZE_DIM:
            raise ValueError(
                f"refusing to materialize a {self.dim ** 2} x {self.dim ** 2} superoperator "
                f"(dim {self.dim} > SUPEROP_MATERIALIZE_DIM = {SUPEROP_MATERIALIZE_DIM})"
            )
        return _term_table(self.layout, self._keys)

    def _assemble(self, table: _TermTable):
        """(L0, ((nu, L_nu), ...)): the static and drive weights assembled on
        ``table``, explicit zeros kept; each matrix owns its arrays."""
        return table.assemble(self._static), tuple((nu, table.assemble(w)) for nu, w in self._drives)

    def superops(self) -> tuple[sp.csr_array, tuple[tuple[float, sp.csr_array], ...]]:
        """(L0, ((nu, L_nu), ...)): the static superoperator
        -i[H_0, rho] + sum_k w_k (A_k rho A_k† - {A_k†A_k, rho}/2) and each
        cosine drive's -i[V_nu, rho], on the one CSR pattern of the
        generator's term table, explicit zeros kept.  Each call assembles
        them anew, and each returned matrix owns its arrays."""
        return self._assemble(self._table())

    def real_superops(self):
        """(T, L0, ((nu, L_nu), ...)): the isometry T onto the real
        coordinates that a walk over the real terms reaches from the
        populations, and the static and drive superoperators on them,
        T L T^dagger, as real CSR matrices on one pattern, explicit zeros
        kept, assembled on the cached real block (``_real``); each returned
        matrix owns its arrays.  T is a row subset of
        ``hermitian_basis_transform``: the populations first and in order,
        then the other reached coordinates level by level (``_real_table``).
        """
        block = self._real()
        return (block.transform.copy(), *self._assemble(block.terms))

    def _real(self) -> _RealBlock:
        """The cached real block of the generator's term table for its terms
        of nonzero weight."""
        nonzero = self._static != 0
        for _, w in self._drives:
            nonzero = nonzero | (w != 0)
        return _real_table(self._table(), tuple(int(t) for t in np.flatnonzero(nonzero)))


def _contact_table(spec: CircuitSpec, contact: Contact) -> RateTable:
    # paper-literal reads the right-bath rate symbol at face value: no J' term
    modulated = contact.modulated and not (
        contact.side == "right" and spec.bridge_rate_mode is RateMode.PAPER_LITERAL)
    bath = spec.bath(contact.side)
    return qutrit_rate_table(spec.diodes[contact.diode], bath.n, bath.Gamma, modulated)


def bridge_rate_tables(spec: CircuitSpec) -> dict[str, RateTable]:
    """Rate table of each bridge diode's one bath contact, by diode."""
    if spec.topology != "bridge":
        raise ValueError("bridge rate tables are only defined for the bridge topology")
    return {c.diode: _contact_table(spec, c) for c in TOPOLOGIES[spec.topology].reduced_contacts}


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

    # (rate, operator key, bath side) of every jump the wiring allows, zero
    # rates included, so that every point of a sweep shares one term table
    rates = []
    for contact in topology.reduced_contacts:
        if contact.diode in labels and contact.side not in kept:
            table = _contact_table(spec, contact)
            rates += [(table.get(*t), (transition_op, contact.diode, *t), contact.side)
                      for t in _ALLOWED_TRANSITIONS]
    for side, label in kept.items():
        bath = spec.bath(side)
        rates += [(bath.Gamma * (bath.n + 1.0), (lowering_op, label), side),
                  (bath.Gamma * bath.n, (raising_op, label), side)]
    if topology.decoherence:
        for label in labels:
            rates += [(spec.gamma_dec, (lowering_op, label), None), (spec.gamma_dec, (number_op, label), None)]

    keys = (tuple((_coherent_term, key) for _, key in pieces)
            + tuple((_dissipator_term, key) for _, key, _ in rates))
    column = {key: k for k, (_, key) in enumerate(pieces)}
    drive_weights = []
    for nu, parts in sorted(drives.items()):
        weights = np.zeros(len(keys))
        for c, key in parts:
            weights[column[key]] += c
        drive_weights.append((nu, weights))
    static = np.array([c for c, _ in pieces] + [rate for rate, _, _ in rates])
    sides = (None,) * len(pieces) + tuple(side for _, _, side in rates)
    return Liouvillian.__new__(Liouvillian)._init(layout, keys, static, tuple(drive_weights), sides)


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
    if spec.topology != "bridge":
        raise ValueError("bridge halves are only defined for the bridge topology")
    upper, lower = (_generator(spec, layout)
                    for layout in TOPOLOGIES[spec.topology].block_layouts(spec.ho_truncation))
    return upper, lower

