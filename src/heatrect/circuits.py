"""Circuit specifications and Hamiltonian assembly.

All energies are quoted in units of the static inter-mode coupling J and
times in 1/J.  Hamiltonians are built in the rotating frame of the common
filter frequency: every coupling conserves the total excitation number and
every dissipator is invariant under that frame change, so the uniform
omega * (sum of number operators) term is dropped.  What remains per diode
is the anharmonicity term -delta_omega |0><0| plus the static couplings,
and a cosine drive at frequency delta_omega on the bath-side coupling with
amplitude J_prime.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from .spaces import (
    HarmonicOscillator,
    Qutrit,
    SpaceLayout,
    SparseOperator,
    lowering_op,
    projector,
    raising_op,
)

ANHARMONICITY_WARN_RATIO = 20.0


def bose_occupation(omega_over_T: float) -> float:
    """Mean thermal occupation 1/(exp(omega/T) - 1) of a bath mode."""
    if not omega_over_T > 0:
        raise ValueError(f"omega/T must be positive, got {omega_over_T}")
    return 1.0 / math.expm1(omega_over_T)


@dataclass(frozen=True)
class DiodeParams:
    """Physical parameters of one qutrit diode (in units of J)."""

    delta_omega: float = 300.0
    J: float = 1.0
    J_prime: float = 0.5

    def __post_init__(self):
        for name in ("delta_omega", "J", "J_prime"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
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

    def coupling_at(self, t: float) -> float:
        """Modulated bath-side coupling J + J' cos(delta_omega * t)."""
        return self.J + self.J_prime * math.cos(self.delta_omega * t)


@dataclass(frozen=True)
class BathParams:
    """Thermal bath attached through a filter oscillator.

    Exactly one of ``occupation`` (mean excitation number) or
    ``temperature`` (in units of the filter frequency omega) must be given.
    """

    Gamma: float = 10.0
    occupation: float | None = None
    temperature: float | None = None

    def __post_init__(self):
        if self.Gamma <= 0:
            raise ValueError(f"Gamma must be positive, got {self.Gamma}")
        if (self.occupation is None) == (self.temperature is None):
            raise ValueError("give exactly one of occupation or temperature")
        if self.occupation is not None and self.occupation < 0:
            raise ValueError(f"occupation must be nonnegative, got {self.occupation}")
        if self.temperature is not None and self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def n(self) -> float:
        """Mean occupation, from the Bose function if a temperature was given."""
        if self.occupation is not None:
            return self.occupation
        return bose_occupation(1.0 / self.temperature)


class Topology(str, enum.Enum):
    SINGLE_DIODE = "single-diode"
    PARALLEL = "parallel"
    SERIES = "series"
    BRIDGE = "bridge"


class RateMode(str, enum.Enum):
    """Which rate form the right-coupled bridge diode D2 uses.

    PHYSICAL_MODULATED applies the J'-containing rates to every diode whose
    bath-facing coupling is modulated (D2 couples to the right filter
    through a modulated coupling).  PAPER_LITERAL drops the J' term there,
    reading the right-bath rate symbol at face value.
    """

    PHYSICAL_MODULATED = "physical-modulated"
    PAPER_LITERAL = "paper-literal"


_REQUIRED_DIODES = {
    Topology.SINGLE_DIODE: ("D1",),
    Topology.PARALLEL: ("D1", "D2"),
    Topology.SERIES: ("D1", "D2"),
    Topology.BRIDGE: ("D1", "D2", "D3", "D4"),
}


@dataclass(frozen=True)
class CircuitSpec:
    """Declarative description of one circuit topology plus all parameters."""

    topology: Topology
    diodes: dict[str, DiodeParams]
    left_bath: BathParams
    right_bath: BathParams
    gamma_dec: float = 1e-3
    ho_truncation: int = 8
    bridge_rate_mode: RateMode = RateMode.PHYSICAL_MODULATED

    def __post_init__(self):
        object.__setattr__(self, "topology", Topology(self.topology))
        object.__setattr__(self, "bridge_rate_mode", RateMode(self.bridge_rate_mode))
        required = _REQUIRED_DIODES[self.topology]
        if tuple(sorted(self.diodes)) != tuple(sorted(required)):
            raise ValueError(
                f"topology {self.topology.value!r} needs diodes {list(required)}, "
                f"got {sorted(self.diodes)}"
            )
        if self.gamma_dec < 0:
            raise ValueError(f"gamma_dec must be nonnegative, got {self.gamma_dec}")
        if self.ho_truncation < 2:
            raise ValueError(f"ho_truncation must be >= 2, got {self.ho_truncation}")

    @classmethod
    def build(
        cls,
        topology: Topology | str,
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
        per-diode mapping like {"D1": 300.0, "D2": 150.0}."""
        topology = Topology(topology)
        labels = _REQUIRED_DIODES[topology]
        if isinstance(delta_omega, dict):
            per_diode = dict(delta_omega)
        else:
            per_diode = {label: float(delta_omega) for label in labels}
        missing = set(labels) - set(per_diode)
        if missing:
            raise ValueError(f"missing delta_omega for diodes {sorted(missing)}")
        diodes = {
            label: DiodeParams(delta_omega=per_diode[label], J=J, J_prime=J_prime)
            for label in labels
        }
        left = BathParams(Gamma=Gamma, occupation=n_left, temperature=T_left)
        right = BathParams(Gamma=Gamma, occupation=n_right, temperature=T_right)
        return cls(
            topology=topology,
            diodes=diodes,
            left_bath=left,
            right_bath=right,
            gamma_dec=gamma_dec,
            ho_truncation=ho_truncation,
            bridge_rate_mode=RateMode(bridge_rate_mode),
        )

    def to_dict(self) -> dict:
        def bath(b: BathParams) -> dict:
            out = {"Gamma": b.Gamma}
            if b.occupation is not None:
                out["occupation"] = b.occupation
            else:
                out["temperature"] = b.temperature
            return out

        return {
            "topology": self.topology.value,
            "diodes": {
                label: {"delta_omega": d.delta_omega, "J": d.J, "J_prime": d.J_prime}
                for label, d in sorted(self.diodes.items())
            },
            "left_bath": bath(self.left_bath),
            "right_bath": bath(self.right_bath),
            "gamma_dec": self.gamma_dec,
            "ho_truncation": self.ho_truncation,
            "bridge_rate_mode": self.bridge_rate_mode.value,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CircuitSpec":
        diodes = {
            label: DiodeParams(**params) for label, params in payload["diodes"].items()
        }
        return cls(
            topology=Topology(payload["topology"]),
            diodes=diodes,
            left_bath=BathParams(**payload["left_bath"]),
            right_bath=BathParams(**payload["right_bath"]),
            gamma_dec=payload.get("gamma_dec", 1e-3),
            ho_truncation=payload.get("ho_truncation", 8),
            bridge_rate_mode=RateMode(payload.get("bridge_rate_mode", "physical-modulated")),
        )


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

    @property
    def layout(self) -> SpaceLayout:
        return self.static_part.layout

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(nu for nu, _ in self.drive_terms)

    def at(self, t: float) -> SparseOperator:
        op = self.static_part
        for nu, v in self.drive_terms:
            op = op + math.cos(nu * t) * v
        return op


def _hop(layout: SpaceLayout, a_label: str, b_label: str) -> SparseOperator:
    """Excitation-conserving exchange a_A a_B† + a_A† a_B."""
    a_A = lowering_op(layout, a_label)
    a_B = lowering_op(layout, b_label)
    return a_A @ raising_op(layout, b_label) + raising_op(layout, a_label) @ a_B


def build_diode_hamiltonian(
    layout: SpaceLayout,
    diode_label: str,
    a_label: str,
    b_label: str,
    params: DiodeParams,
) -> TimeDependentOperator:
    """Hamiltonian of one qutrit diode connecting modes A -> B.

    Static part: -delta_omega |0><0| on the diode, plus static couplings of
    strength J to both neighbours.  The A-side coupling additionally carries
    a cosine drive at frequency delta_omega with amplitude J_prime.
    """
    if not isinstance(layout.kind_of(diode_label), Qutrit):
        raise ValueError(f"diode mode {diode_label!r} must be a qutrit")
    if len({diode_label, a_label, b_label}) != 3:
        raise ValueError("diode and neighbour labels must be distinct")
    bath_side = _hop(layout, a_label, diode_label)
    out_side = _hop(layout, diode_label, b_label)
    static = (
        (-params.delta_omega) * projector(layout, diode_label, 0)
        + params.J * bath_side
        + params.J * out_side
    )
    drives = ()
    if params.J_prime > 0:
        drives = ((params.delta_omega, params.J_prime * bath_side),)
    return TimeDependentOperator(static, drives)


@dataclass(frozen=True)
class CircuitBuild:
    """Layout plus retained coherent generator of one circuit."""

    layout: SpaceLayout
    coherent: TimeDependentOperator | None


def _merge_time_dependent(parts) -> TimeDependentOperator:
    static = parts[0].static_part
    drives: list[tuple[float, SparseOperator]] = list(parts[0].drive_terms)
    for p in parts[1:]:
        static = static + p.static_part
        drives.extend(p.drive_terms)
    # combine drive terms sharing a frequency so each frequency appears once
    merged: dict[float, SparseOperator] = {}
    for nu, v in drives:
        merged[nu] = merged[nu] + v if nu in merged else v
    terms = tuple((nu, merged[nu]) for nu in sorted(merged))
    return TimeDependentOperator(static, terms)


def _anharmonicity_term(layout: SpaceLayout, label: str, params: DiodeParams) -> TimeDependentOperator:
    return TimeDependentOperator((-params.delta_omega) * projector(layout, label, 0))


def _coupling(
    layout: SpaceLayout, a_label: str, b_label: str, params: DiodeParams, modulated: bool
) -> TimeDependentOperator:
    hop = _hop(layout, a_label, b_label)
    drives = ()
    if modulated and params.J_prime > 0:
        drives = ((params.delta_omega, params.J_prime * hop),)
    return TimeDependentOperator(params.J * hop, drives)


def build_circuit(spec: CircuitSpec) -> CircuitBuild:
    """Assemble the layout and retained coherent part of a circuit.

    single-diode: the full three-mode model [L, D1, R] with both filter
    oscillators kept.  parallel: two decoupled qutrits, no coherent part
    (the reduced equation is purely dissipative).  series/bridge: the
    reduced models on qutrits (and middle oscillators for the bridge) with
    the bath-facing couplings removed, since those are absorbed into the
    effective rate dissipators.
    """
    t = Topology(spec.topology)
    if t is Topology.SINGLE_DIODE:
        ho = HarmonicOscillator(spec.ho_truncation)
        layout = SpaceLayout.of(("L", ho), ("D1", Qutrit()), ("R", ho))
        return CircuitBuild(layout, build_diode_hamiltonian(layout, "D1", "L", "R", spec.diodes["D1"]))

    if t is Topology.PARALLEL:
        layout = SpaceLayout.of(("D1", Qutrit()), ("D2", Qutrit()))
        return CircuitBuild(layout, None)

    if t is Topology.SERIES:
        layout = SpaceLayout.of(("D1", Qutrit()), ("D2", Qutrit()))
        d1, d2 = spec.diodes["D1"], spec.diodes["D2"]
        coherent = _merge_time_dependent([
            _anharmonicity_term(layout, "D1", d1),
            _anharmonicity_term(layout, "D2", d2),
            _coupling(layout, "D1", "D2", d2, modulated=True),
        ])
        return CircuitBuild(layout, coherent)

    # bridge: upper trio D1-M1-D2 keeps its static couplings, lower trio
    # D3-M2-D4 keeps the modulated couplings of D3 and D4 to M2
    ho = HarmonicOscillator(spec.ho_truncation)
    layout = SpaceLayout.of(
        ("D1", Qutrit()), ("M1", ho), ("D2", Qutrit()),
        ("D3", Qutrit()), ("M2", ho), ("D4", Qutrit()),
    )
    coherent = _merge_time_dependent(_bridge_parts(layout, spec, upper=True) + _bridge_parts(layout, spec, upper=False))
    return CircuitBuild(layout, coherent)


def _bridge_parts(layout: SpaceLayout, spec: CircuitSpec, upper: bool) -> list[TimeDependentOperator]:
    if upper:
        d1, d2 = spec.diodes["D1"], spec.diodes["D2"]
        return [
            _anharmonicity_term(layout, "D1", d1),
            _anharmonicity_term(layout, "D2", d2),
            _coupling(layout, "D1", "M1", d1, modulated=False),
            _coupling(layout, "D2", "M1", d2, modulated=False),
        ]
    d3, d4 = spec.diodes["D3"], spec.diodes["D4"]
    return [
        _anharmonicity_term(layout, "D3", d3),
        _anharmonicity_term(layout, "D4", d4),
        _coupling(layout, "M2", "D3", d3, modulated=True),
        _coupling(layout, "M2", "D4", d4, modulated=True),
    ]


def build_bridge_halves(spec: CircuitSpec) -> tuple[CircuitBuild, CircuitBuild]:
    """The two decoupled halves of the reduced bridge.

    The retained coherent part and every dissipator act within either the
    upper trio (D1, M1, D2) or the lower trio (D3, M2, D4), so the reduced
    bridge dynamics factorizes exactly over the two trios.  The upper half
    is time-independent; the lower half carries the drives.
    """
    if Topology(spec.topology) is not Topology.BRIDGE:
        raise ValueError("bridge halves are only defined for the bridge topology")
    ho = HarmonicOscillator(spec.ho_truncation)
    upper_layout = SpaceLayout.of(("D1", Qutrit()), ("M1", ho), ("D2", Qutrit()))
    lower_layout = SpaceLayout.of(("D3", Qutrit()), ("M2", ho), ("D4", Qutrit()))
    upper = _merge_time_dependent(_bridge_parts(upper_layout, spec, upper=True))
    lower = _merge_time_dependent(_bridge_parts(lower_layout, spec, upper=False))
    return CircuitBuild(upper_layout, upper), CircuitBuild(lower_layout, lower)
