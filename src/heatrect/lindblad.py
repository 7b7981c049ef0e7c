"""Dissipators, qutrit rate tables, and Liouvillian generators.

Vectorization is column-stacking throughout: vec(rho)[i + d*j] = rho[i, j],
so vec(A rho B) = (B^T kron A) vec(rho).  The generator acts only through
its sparse superoperator matrices, which are built up to dimension
``SUPEROP_MATERIALIZE_DIM``; larger layouts (the six-mode bridge at N >= 3)
are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .circuits import (
    BathParams,
    CircuitSpec,
    DiodeParams,
    RateMode,
    TimeDependentOperator,
    Topology,
    build_circuit,
)
from .spaces import (
    HarmonicOscillator,
    SpaceLayout,
    SparseOperator,
    lowering_op,
    number_op,
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


def _spre(a: sp.csr_array) -> sp.csr_array:
    d = a.shape[0]
    return sp.kron(sp.eye_array(d, format="csr"), a, format="csr")


def _spost(a: sp.csr_array) -> sp.csr_array:
    d = a.shape[0]
    return sp.kron(a.T, sp.eye_array(d, format="csr"), format="csr")


def dissipator(op: SparseOperator) -> sp.csr_array:
    """Superoperator of M[A, rho] = A rho A† - {A†A, rho}/2 on vec(rho)."""
    a = op.matrix
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"jump operator must be square, got shape {a.shape}")
    ad = a.conj().T.tocsr()
    ada = (ad @ a).tocsr()
    out = sp.kron(a.conj(), a, format="csr") - 0.5 * (_spre(ada) + _spost(ada))
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def _commutator_superop(h: sp.csr_array) -> sp.csr_array:
    """Superoperator of -i [H, rho]."""
    out = -1j * (_spre(h) - _spost(h))
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def bath_dissipator(layout: SpaceLayout, label: str, bath: BathParams) -> sp.csr_array:
    """Thermal-bath superoperator Gamma(n+1) M[a] + Gamma n M[a†] for an oscillator mode."""
    if not isinstance(layout.kind_of(label), HarmonicOscillator):
        raise ValueError(f"mode {label!r} is not a harmonic oscillator")
    out = bath.Gamma * (bath.n + 1.0) * dissipator(lowering_op(layout, label))
    if bath.n > 0:
        out = out + bath.Gamma * bath.n * dissipator(raising_op(layout, label))
    return out.tocsr()


def transition_op(layout: SpaceLayout, label: str, from_level: int, to_level: int) -> SparseOperator:
    """Jump operator |to><from| of one qutrit, embedded in the layout."""
    dim = layout.dim_of(label)
    local = np.zeros((dim, dim), dtype=np.complex128)
    local[to_level, from_level] = 1.0
    from .spaces import embed

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
        """Static superoperator: coherent static part plus all dissipators."""
        if self._static is None:
            self._check_materializable()
            d = self.dim
            total = sp.csr_array((d * d, d * d), dtype=np.complex128)
            if self.hamiltonian is not None:
                total = total + _commutator_superop(self.hamiltonian.static_part.matrix)
            for weight, op in self.jumps:
                total = total + weight * dissipator(op)
            total.sum_duplicates()
            total.eliminate_zeros()
            self._static = total.tocsr()
        return self._static

    @property
    def drive_superops(self) -> tuple[tuple[float, sp.csr_array], ...]:
        """(frequency, superoperator) per cosine drive of the coherent part."""
        if self._drives is None:
            self._check_materializable()
            terms = []
            if self.hamiltonian is not None:
                for nu, v in self.hamiltonian.drive_terms:
                    terms.append((nu, _commutator_superop(v.matrix)))
            self._drives = tuple(terms)
        return self._drives


def build_generator(spec: CircuitSpec) -> Liouvillian:
    """Liouvillian of a circuit spec.

    parallel/series/bridge produce the reduced generators in which the
    bath-facing couplings act as qutrit rate dissipators; single-diode
    produces the full model with thermal-bath dissipators on both filter
    oscillators.
    """
    build = build_circuit(spec)
    layout = build.layout
    n_left = spec.left_bath.n
    n_right = spec.right_bath.n
    G_left = spec.left_bath.Gamma
    G_right = spec.right_bath.Gamma
    topology = Topology(spec.topology)

    jumps: list[tuple[float, SparseOperator]] = []

    if topology is Topology.SINGLE_DIODE:
        for label, bath in (("L", spec.left_bath), ("R", spec.right_bath)):
            jumps.append((bath.Gamma * (bath.n + 1.0), lowering_op(layout, label)))
            if bath.n > 0:
                jumps.append((bath.Gamma * bath.n, raising_op(layout, label)))
        return Liouvillian(layout, build.coherent, tuple(jumps))

    if topology is Topology.PARALLEL:
        for label in ("D1", "D2"):
            params = spec.diodes[label]
            jumps += rate_jump_terms(layout, label, qutrit_rate_table(params, n_left, G_left, modulated=True))
            jumps += rate_jump_terms(layout, label, qutrit_rate_table(params, n_right, G_right, modulated=False))
        return Liouvillian(layout, None, tuple(jumps))

    if topology is Topology.SERIES:
        jumps += rate_jump_terms(
            layout, "D1", qutrit_rate_table(spec.diodes["D1"], n_left, G_left, modulated=True)
        )
        jumps += rate_jump_terms(
            layout, "D2", qutrit_rate_table(spec.diodes["D2"], n_right, G_right, modulated=False)
        )
        return Liouvillian(layout, build.coherent, tuple(jumps))

    # bridge
    for label, table in bridge_rate_tables(spec).items():
        jumps += rate_jump_terms(layout, label, table)
    jumps += decoherence_jump_terms(layout, spec.gamma_dec, layout.labels)
    return Liouvillian(layout, build.coherent, tuple(jumps))


def bridge_rate_tables(spec: CircuitSpec) -> dict[str, RateTable]:
    """Per-diode rate tables of the bridge.

    D1 faces the left bath through a modulated coupling, D3/D4 face their
    baths through static couplings.  D2 also couples to the right bath
    through a modulated coupling; whether its rates carry the J'^2 term is
    selected by ``spec.bridge_rate_mode``.
    """
    n_left, n_right = spec.left_bath.n, spec.right_bath.n
    G_left, G_right = spec.left_bath.Gamma, spec.right_bath.Gamma
    d2_modulated = RateMode(spec.bridge_rate_mode) is RateMode.PHYSICAL_MODULATED
    return {
        "D1": qutrit_rate_table(spec.diodes["D1"], n_left, G_left, modulated=True),
        "D2": qutrit_rate_table(spec.diodes["D2"], n_right, G_right, modulated=d2_modulated),
        "D3": qutrit_rate_table(spec.diodes["D3"], n_left, G_left, modulated=False),
        "D4": qutrit_rate_table(spec.diodes["D4"], n_right, G_right, modulated=False),
    }


def decoherence_jump_terms(
    layout: SpaceLayout, gamma_dec: float, labels
) -> list[tuple[float, SparseOperator]]:
    """Decay plus number-operator dephasing, gamma_dec * (M[a] + M[a†a]), per mode."""
    terms = []
    if gamma_dec <= 0:
        return terms
    for label in labels:
        terms.append((gamma_dec, lowering_op(layout, label)))
        terms.append((gamma_dec, number_op(layout, label)))
    return terms


def build_bridge_half_generators(spec: CircuitSpec) -> tuple[Liouvillian, Liouvillian]:
    """Generators of the two decoupled trios of the reduced bridge.

    Returns (upper, lower): the upper trio [D1, M1, D2] is time-independent
    and carries the D1/D2 rate dissipators; the lower trio [D3, M2, D4] is
    driven and carries the D3/D4 rate dissipators.  Both include the
    gamma_dec terms of their own modes.  The tensor product of the two
    trio steady states is the steady state of the full bridge generator.
    """
    from .circuits import build_bridge_halves

    upper_build, lower_build = build_bridge_halves(spec)
    tables = bridge_rate_tables(spec)

    upper_jumps: list[tuple[float, SparseOperator]] = []
    upper_jumps += rate_jump_terms(upper_build.layout, "D1", tables["D1"])
    upper_jumps += rate_jump_terms(upper_build.layout, "D2", tables["D2"])
    upper_jumps += decoherence_jump_terms(upper_build.layout, spec.gamma_dec, upper_build.layout.labels)

    lower_jumps: list[tuple[float, SparseOperator]] = []
    lower_jumps += rate_jump_terms(lower_build.layout, "D3", tables["D3"])
    lower_jumps += rate_jump_terms(lower_build.layout, "D4", tables["D4"])
    lower_jumps += decoherence_jump_terms(lower_build.layout, spec.gamma_dec, lower_build.layout.labels)

    upper = Liouvillian(upper_build.layout, upper_build.coherent, tuple(upper_jumps))
    lower = Liouvillian(lower_build.layout, lower_build.coherent, tuple(lower_jumps))
    return upper, lower


def single_qutrit_rate_generator(tables: list[RateTable]) -> Liouvillian:
    """Purely dissipative generator of one qutrit under summed rate tables."""
    from .spaces import Qutrit

    layout = SpaceLayout.of(("D1", Qutrit()))
    jumps: list[tuple[float, SparseOperator]] = []
    for table in tables:
        jumps += rate_jump_terms(layout, "D1", table)
    return Liouvillian(layout, None, tuple(jumps))
