"""Qutrit rate tables and the Liouvillian generators of every circuit.

One builder makes every Hamiltonian, rate table and generator from the
wiring table ``circuits.TOPOLOGIES``.

Vectorization is column-stacking throughout: vec(rho)[i + d*j] = rho[i, j],
so vec(A rho B) = (B^T kron A) vec(rho).  The generator acts only through
its sparse superoperator matrices, which are built up to dimension
``SUPEROP_MATERIALIZE_DIM``; larger layouts (the six-mode bridge at N >= 3)
are refused.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
    Qutrit,
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


def _superop(pairs) -> sp.csr_array:
    """Canonical CSR superoperator of rho -> sum_k A_k rho B_k^T from (B_k, A_k) pairs."""
    parts = [sp.kron(b, a, format="coo") for b, a in pairs]
    out = sp.csr_array((np.concatenate([p.data for p in parts]),
                        (np.concatenate([p.row for p in parts]), np.concatenate([p.col for p in parts]))),
                       shape=parts[0].shape)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def _coherent_superop(h: sp.csr_array) -> sp.csr_array:
    """Superoperator of -i (H rho - rho H†); the commutator -i[H, rho] for Hermitian H."""
    eye = sp.eye_array(h.shape[0], format="csr")
    return _superop([(eye, -1j * h), (1j * h.conj(), eye)])


def transition_op(layout: SpaceLayout, label: str, from_level: int, to_level: int) -> SparseOperator:
    """Jump operator |to><from| of one qutrit, embedded in the layout."""
    dim = layout.dim_of(label)
    local = np.zeros((dim, dim), dtype=np.complex128)
    local[to_level, from_level] = 1.0
    return embed(layout, label, local)


def rate_jump_terms(layout: SpaceLayout, label: str, table: RateTable) -> list[tuple[float, SparseOperator]]:
    """Weighted jump operators (rate, |to><from|) for every listed transition."""
    terms = []
    for (a, b) in _ALLOWED_TRANSITIONS:
        rate = table.get(a, b)
        if rate > 0:
            terms.append((rate, transition_op(layout, label, a, b)))
    return terms


@dataclass
class Liouvillian:
    """Generator of a Lindblad master equation on a layout.

    Holds the coherent part and the weighted jump operators; the sparse
    superoperator matrices (static part plus one cosine-modulated part per
    drive frequency) are materialized lazily and only below the size guard.
    """

    layout: SpaceLayout
    hamiltonian: TimeDependentOperator | None
    jumps: tuple[tuple[float, SparseOperator], ...]
    _static: sp.csr_array | None = field(default=None, repr=False)
    _drives: tuple[tuple[float, sp.csr_array], ...] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def drive_frequencies(self) -> tuple[float, ...]:
        if self.hamiltonian is None:
            return ()
        return self.hamiltonian.frequencies

    def _check_materializable(self):
        if self.dim > SUPEROP_MATERIALIZE_DIM:
            raise ValueError(
                f"refusing to materialize a {self.dim ** 2} x {self.dim ** 2} superoperator "
                f"(dim {self.dim} > SUPEROP_MATERIALIZE_DIM = {SUPEROP_MATERIALIZE_DIM})"
            )

    @property
    def static_superop(self) -> sp.csr_array:
        """Static superoperator -i (H_eff rho - rho H_eff†) + sum_k w_k A_k rho A_k†,
        with the effective Hamiltonian H_eff = H - (i/2) sum_k w_k A_k† A_k."""
        if self._static is None:
            self._check_materializable()
            d = self.dim
            h_eff = (sp.csr_array((d, d), dtype=np.complex128) if self.hamiltonian is None
                     else self.hamiltonian.static_part.matrix)
            for weight, op in self.jumps:
                h_eff = h_eff - (0.5j * weight) * (op.matrix.conj().T @ op.matrix)
            eye = sp.eye_array(d, format="csr")
            pairs = [(eye, -1j * h_eff), (1j * h_eff.conj(), eye)]
            pairs += [(weight * op.matrix.conj(), op.matrix) for weight, op in self.jumps]
            self._static = _superop(pairs)
        return self._static

    @property
    def drive_superops(self) -> tuple[tuple[float, sp.csr_array], ...]:
        """(frequency, superoperator) per cosine drive of the coherent part."""
        if self._drives is None:
            self._check_materializable()
            terms = () if self.hamiltonian is None else self.hamiltonian.drive_terms
            self._drives = tuple((nu, _coherent_superop(v.matrix)) for nu, v in terms)
        return self._drives


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
    which leaves its rate dissipators unchanged.  The jumps are the rate
    contacts, the thermal filter baths and the gamma_dec decoherence.
    """
    topology = TOPOLOGIES[spec.topology]
    labels = layout.labels

    @functools.cache
    def op(make, label: str, *args) -> SparseOperator:
        return make(layout, label, *args)

    couplings = [c for c in topology.couplings if c.a in labels and c.b in labels]
    coupled = {mode for c in couplings for mode in (c.a, c.b)}
    static = [(-spec.diodes[label].delta_omega) * op(projector, label, 0)
              for label in labels if label in coupled and label in spec.diodes]
    drives: dict[float, SparseOperator] = {}
    for c in couplings:
        params = spec.diodes[c.diode]
        hop = op(lowering_op, c.a) @ op(raising_op, c.b) + op(raising_op, c.a) @ op(lowering_op, c.b)
        static.append(params.J * hop)
        if c.modulated and params.J_prime > 0:
            nu, v = params.delta_omega, params.J_prime * hop
            drives[nu] = drives[nu] + v if nu in drives else v
    hamiltonian = None
    if static:
        hamiltonian = TimeDependentOperator(functools.reduce(SparseOperator.__add__, static),
                                            tuple(sorted(drives.items())))

    jumps: list[tuple[float, SparseOperator]] = []
    for contact in topology.contacts:
        if contact.diode in labels:
            # as rate_jump_terms, with each |to><from| embedded once for all contacts
            table = _contact_table(spec, contact)
            jumps += [(table.get(*t), op(transition_op, contact.diode, *t))
                      for t in _ALLOWED_TRANSITIONS if table.get(*t) > 0]
    for label, side in topology.filters:
        if label in labels:
            bath = spec.bath(side)
            jumps.append((bath.Gamma * (bath.n + 1.0), op(lowering_op, label)))
            if bath.n > 0:
                jumps.append((bath.Gamma * bath.n, op(raising_op, label)))
    if topology.decoherence and spec.gamma_dec > 0:
        for label in labels:
            jumps += [(spec.gamma_dec, op(lowering_op, label)), (spec.gamma_dec, op(number_op, label))]
    return Liouvillian(layout, hamiltonian, tuple(jumps))


def build_generator(spec: CircuitSpec) -> Liouvillian:
    """Liouvillian of the whole circuit, every block of its topology on one layout."""
    blocks = TOPOLOGIES[spec.topology].block_layouts(spec.ho_truncation)
    return _generator(spec, SpaceLayout(tuple(mode for layout in blocks for mode in layout.modes)))


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


def single_qutrit_rate_generator(tables: list[RateTable]) -> Liouvillian:
    """Purely dissipative generator of one qutrit under summed rate tables."""
    layout = SpaceLayout.of(("D1", Qutrit()))
    jumps: list[tuple[float, SparseOperator]] = []
    for table in tables:
        jumps += rate_jump_terms(layout, "D1", table)
    return Liouvillian(layout, None, tuple(jumps))
