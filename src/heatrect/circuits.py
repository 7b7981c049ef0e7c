"""Circuit specifications and the wiring table of every circuit topology.

All energies are quoted in units of the static inter-mode coupling J and
times in 1/J.  Hamiltonians are built in the rotating frame of the common
filter frequency: every coupling conserves the total excitation number and
every dissipator is invariant under that frame change, so the uniform
omega * (sum of number operators) term is dropped.  What remains per diode
is the anharmonicity term -delta_omega |0><0| plus the static couplings,
and a cosine drive at frequency delta_omega on a modulated coupling with
amplitude J_prime.

``TOPOLOGIES`` declares each circuit once, under its name: its modes in
independent blocks, its retained couplings, its bath contacts and whether
it decoheres.  ``lindblad`` builds every Hamiltonian, rate table and
generator from that table.  A bath is its occupation n (``BathParams``); a
bias is ``CircuitSpec.build``'s ``n_left``/``n_right`` or ``T_left``/``T_right``.
"""

from __future__ import annotations

import enum
import math
import numbers
import warnings
from dataclasses import dataclass

from .spaces import SpaceLayout, SparseOperator

ANHARMONICITY_WARN_RATIO = 20.0


def bose_occupation(omega_over_T: float) -> float:
    """Mean thermal occupation 1/(exp(omega/T) - 1) of a bath mode."""
    if not omega_over_T > 0:
        raise ValueError(f"omega/T must be positive, got {omega_over_T}")
    return 1.0 / math.expm1(omega_over_T)


def _finite_real(name: str, v) -> float:
    """``v`` as a float; ``ValueError`` naming ``name`` unless it is a finite real (a bool is none)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"{name} must be finite and a real number, got {v!r}")
    return float(v)


def _require_finite(params, *names: str):
    """Check each named field of ``params`` with ``_finite_real``."""
    for name in names:
        _finite_real(name, getattr(params, name))


@dataclass(frozen=True)
class DiodeParams:
    """Physical parameters of one qutrit diode (in units of J)."""

    delta_omega: float = 300.0
    J: float = 1.0
    J_prime: float = 0.5

    def __post_init__(self):
        _require_finite(self, "delta_omega", "J", "J_prime")
        if self.delta_omega <= 0:
            raise ValueError(f"delta_omega must be positive, got {self.delta_omega}")
        if self.J <= 0:
            raise ValueError(f"J must be positive, got {self.J}")
        if self.J_prime < 0:
            raise ValueError(f"J_prime must be nonnegative, got {self.J_prime}")
        if self.delta_omega < ANHARMONICITY_WARN_RATIO * self.J:
            warnings.warn(
                f"delta_omega = {self.delta_omega} is below {ANHARMONICITY_WARN_RATIO} J; "
                "the weak-coupling rate formulas assume delta_omega >> J",
                stacklevel=2,
            )


def thermal_occupation(name: str, T: float) -> float:
    """Bose occupation at temperature ``T`` (units of the filter frequency);
    a ``T`` that is not a finite positive real raises ``ValueError`` naming ``name``."""
    if _finite_real(name, T) <= 0:
        raise ValueError(f"{name} must be finite and positive, got {T!r}")
    return bose_occupation(1.0 / T)


@dataclass(frozen=True)
class BathParams:
    """Thermal bath of mean occupation ``n``, attached through a filter
    oscillator of linewidth ``Gamma``."""

    n: float
    Gamma: float = 10.0

    def __post_init__(self):
        _require_finite(self, "n", "Gamma")
        if self.Gamma <= 0:
            raise ValueError(f"Gamma must be positive, got {self.Gamma}")
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")


class RateMode(str, enum.Enum):
    """Which rate form a right-side bath contact with a modulated coupling uses.

    PHYSICAL_MODULATED applies the J'-containing rates to every contact whose
    bath-facing coupling is modulated.  PAPER_LITERAL drops the J' term on
    the right side, reading the right-bath rate symbol at face value.  Of
    the built-in circuits only the bridge's D2 has such a contact.
    """

    PHYSICAL_MODULATED = "physical-modulated"
    PAPER_LITERAL = "paper-literal"


QUTRIT = "qutrit"
OSCILLATOR = "oscillator"


@dataclass(frozen=True)
class Coupling:
    """Retained exchange J (a_a a_b† + a_a† a_b) between modes ``a`` and ``b``.

    ``diode`` is the qutrit whose J, J' and delta_omega set the coupling; a
    ``modulated`` coupling also carries the drive J' cos(delta_omega t).
    """

    a: str
    b: str
    diode: str
    modulated: bool


@dataclass(frozen=True)
class Contact:
    """A diode's bath contact in a reduced model: the rate dissipator of the
    ``side`` bath, with the drive-induced J'^2/Gamma rates when ``modulated``."""

    diode: str
    side: str
    modulated: bool


@dataclass(frozen=True)
class CircuitTopology:
    """Wiring of one circuit.

    ``blocks`` lists the modes, (label, QUTRIT or OSCILLATOR), grouped into
    blocks that no coupling or dissipator connects.  ``couplings`` are the
    retained coherent couplings.  A reduced model lists its rate ``contacts``;
    a full model instead keeps filter oscillators, each damped by its bath as
    ``filters`` (oscillator, side) says.  ``decoherence`` adds gamma_dec decay
    and dephasing on every mode.
    """

    blocks: tuple[tuple[tuple[str, str], ...], ...]
    couplings: tuple[Coupling, ...] = ()
    contacts: tuple[Contact, ...] = ()
    filters: tuple[tuple[str, str], ...] = ()
    decoherence: bool = False

    def __post_init__(self):
        blocks = [dict(block) for block in self.blocks]
        kinds = {label: kind for block in blocks for label, kind in block.items()}
        if set(kinds.values()) - {QUTRIT, OSCILLATOR}:
            raise ValueError(f"mode kinds must be {QUTRIT!r} or {OSCILLATOR!r}")
        for c in self.couplings:
            if not any({c.a, c.b} <= block.keys() for block in blocks):
                raise ValueError(f"coupling {c.a}-{c.b} must join two modes of one block")
            if c.diode not in (c.a, c.b) or kinds[c.diode] != QUTRIT:
                raise ValueError(f"coupling {c.a}-{c.b} must be set by its qutrit end")
        if any(kinds.get(c.diode) != QUTRIT for c in self.contacts):
            raise ValueError("every bath contact needs a qutrit diode")
        if any(kinds.get(label) != OSCILLATOR for label, _ in self.filters):
            raise ValueError("every filter needs a harmonic oscillator")

    @property
    def diodes(self) -> tuple[str, ...]:
        return tuple(label for block in self.blocks for label, kind in block if kind == QUTRIT)

    @property
    def reduced_contacts(self) -> tuple[Contact, ...]:
        """The rate contacts of the reduced model.  A full model's filter
        passes its side to every diode it couples to, modulated as that
        coupling is."""
        derived = tuple(Contact(c.diode, side, c.modulated)
                        for label, side in self.filters
                        for c in self.couplings if label in (c.a, c.b))
        return self.contacts + derived

    def block_layouts(self, ho_truncation: int) -> tuple[SpaceLayout, ...]:
        """One layout per block: 3 levels per qutrit, ``ho_truncation`` per
        oscillator.  The only place where a mode's kind becomes its levels."""
        return tuple(SpaceLayout(tuple((label, 3 if kind == QUTRIT else ho_truncation)
                                       for label, kind in block))
                     for block in self.blocks)


TOPOLOGIES = {
    # the full model: both filter oscillators kept; D1 reaches the left
    # filter through its modulated coupling and the right one statically
    "single-diode": CircuitTopology(
        blocks=((("L", OSCILLATOR), ("D1", QUTRIT), ("R", OSCILLATOR)),),
        couplings=(Coupling("L", "D1", "D1", modulated=True),
                   Coupling("D1", "R", "D1", modulated=False)),
        filters=(("L", "left"), ("R", "right")),
    ),
    # the reduced models: each bath-facing coupling becomes a rate contact
    "parallel": CircuitTopology(
        blocks=((("D1", QUTRIT), ("D2", QUTRIT)),),
        contacts=(Contact("D1", "left", modulated=True), Contact("D1", "right", modulated=False),
                  Contact("D2", "left", modulated=True), Contact("D2", "right", modulated=False)),
    ),
    "series": CircuitTopology(
        blocks=((("D1", QUTRIT), ("D2", QUTRIT)),),
        couplings=(Coupling("D1", "D2", "D2", modulated=True),),
        contacts=(Contact("D1", "left", modulated=True), Contact("D2", "right", modulated=False)),
    ),
    # the upper trio D1-M1-D2 keeps the static couplings of D1 and D2 to
    # M1, the lower trio D3-M2-D4 the modulated couplings of D3 and D4 to M2
    "bridge": CircuitTopology(
        blocks=((("D1", QUTRIT), ("M1", OSCILLATOR), ("D2", QUTRIT)),
                (("D3", QUTRIT), ("M2", OSCILLATOR), ("D4", QUTRIT))),
        couplings=(Coupling("D1", "M1", "D1", modulated=False),
                   Coupling("D2", "M1", "D2", modulated=False),
                   Coupling("M2", "D3", "D3", modulated=True),
                   Coupling("M2", "D4", "D4", modulated=True)),
        contacts=(Contact("D1", "left", modulated=True), Contact("D2", "right", modulated=True),
                  Contact("D3", "left", modulated=False), Contact("D4", "right", modulated=False)),
        decoherence=True,
    ),
}


def _wiring(topology: str) -> CircuitTopology:
    """The ``TOPOLOGIES`` entry named ``topology``; an unknown name raises ``ValueError``."""
    if not isinstance(topology, str) or topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}; known: {list(TOPOLOGIES)}")
    return TOPOLOGIES[topology]


@dataclass(frozen=True)
class CircuitSpec:
    """One circuit, named by its key of ``TOPOLOGIES``, and all its parameters."""

    topology: str
    diodes: dict[str, DiodeParams]
    left_bath: BathParams
    right_bath: BathParams
    gamma_dec: float = 1e-3
    ho_truncation: int = 8
    bridge_rate_mode: RateMode = RateMode.PHYSICAL_MODULATED

    def __post_init__(self):
        object.__setattr__(self, "bridge_rate_mode", RateMode(self.bridge_rate_mode))
        required = _wiring(self.topology).diodes
        if sorted(self.diodes) != sorted(required):
            raise ValueError(
                f"topology {self.topology!r} needs diodes {list(required)}, "
                f"got {sorted(self.diodes)}"
            )
        _require_finite(self, "gamma_dec")
        if self.gamma_dec < 0:
            raise ValueError(f"gamma_dec must be nonnegative, got {self.gamma_dec}")
        n = self.ho_truncation
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise ValueError(f"ho_truncation must be an integer >= 2, got {n!r}")

    @classmethod
    def build(
        cls,
        topology: str,
        *,
        n_left: float | None = None,
        n_right: float | None = None,
        T_left: float | None = None,
        T_right: float | None = None,
        Gamma: float = 10.0,
        delta_omega=300.0,
        J: float = 1.0,
        J_prime: float = 0.5,
        gamma_dec: float = 1e-3,
        ho_truncation: int = 8,
        bridge_rate_mode: RateMode | str = RateMode.PHYSICAL_MODULATED,
    ) -> "CircuitSpec":
        """Convenience constructor; ``delta_omega`` may be a scalar or a
        per-diode mapping like {"D1": 300.0, "D2": 150.0}.  Each bath takes
        exactly one of its occupation ``n_<side>`` or its temperature
        ``T_<side>`` (``thermal_occupation``)."""
        labels = _wiring(topology).diodes
        if isinstance(delta_omega, dict):
            per_diode = dict(delta_omega)
        else:
            per_diode = dict.fromkeys(labels, _finite_real("delta_omega", delta_omega))
        missing = set(labels) - set(per_diode)
        if missing:
            raise ValueError(f"missing delta_omega for diodes {sorted(missing)}")
        unknown = set(per_diode) - set(labels)
        if unknown:
            raise ValueError(f"delta_omega for unknown diodes {sorted(unknown)}; "
                             f"topology {topology!r} has {list(labels)}")
        diodes = {
            label: DiodeParams(delta_omega=per_diode[label], J=J, J_prime=J_prime)
            for label in labels
        }
        baths = {}
        for side, n, T in (("left", n_left, T_left), ("right", n_right, T_right)):
            if (n is None) == (T is None):
                raise ValueError(f"give exactly one of n_{side} or T_{side}")
            baths[side] = BathParams(thermal_occupation(f"T_{side}", T) if n is None else n, Gamma)
        return cls(
            topology=topology,
            diodes=diodes,
            left_bath=baths["left"],
            right_bath=baths["right"],
            gamma_dec=gamma_dec,
            ho_truncation=ho_truncation,
            bridge_rate_mode=RateMode(bridge_rate_mode),
        )

    def bath(self, side: str) -> BathParams:
        """The bath on ``side`` ("left" or "right")."""
        return {"left": self.left_bath, "right": self.right_bath}[side]


@dataclass(frozen=True)
class TimeDependentOperator:
    """H(t) = static + sum_k cos(nu_k t) V_k, all parts on one layout."""

    static_part: SparseOperator
    drive_terms: tuple[tuple[float, SparseOperator], ...] = ()

    def __post_init__(self):
        for nu, v in self.drive_terms:
            if v.layout != self.static_part.layout:
                raise ValueError("drive term layout differs from static part")
            if nu <= 0:
                raise ValueError(f"drive frequency must be positive, got {nu}")

    def at(self, t: float) -> SparseOperator:
        op = self.static_part
        for nu, v in self.drive_terms:
            op = op + math.cos(nu * t) * v
        return op
