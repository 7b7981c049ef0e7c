"""Scalar diagnostics: bath currents, rectification, effective temperature,
thermal populations, fidelity, and per-mode reports.

Every current is the net excitation current into one bath (emission minus
absorption), read by ``bath_current_functional`` from the generator's own
dissipators of that bath, the jumps its builder tagged with the bath's
side; ``net_bath_current_functional`` is its form for explicit rate
tables.  Both weight the emission operators of ``lindblad``'s cached
operator table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lindblad import (
    _ALLOWED_TRANSITIONS,
    Liouvillian,
    _dissipator_term,
    _mode_operator,
    _operator_table,
    transition_op,
)
from .spaces import DensityMatrix, SpaceLayout, SparseOperator, number_op, partial_trace

RECTIFICATION_CURRENT_FLOOR = 1e-14


@dataclass(frozen=True)
class CurrentFunctional:
    """Named linear current observable: value(rho) = Re tr(W rho)."""

    name: str
    observable: SparseOperator

    def value(self, rho: DensityMatrix) -> float:
        return float(np.real(rho.expectation(self.observable)))


def net_bath_current_functional(layout: SpaceLayout, labels, tables) -> CurrentFunctional:
    """Net excitation current into a bath through the rate contacts of the
    qutrits ``labels``, whose rate tables ``tables`` holds by label: the
    emission operators of each qutrit's four transition jumps, weighted by
    its table's rates, which sum to diag(-r01, r10 - r12, r21).  No labels,
    or a label without a rate table, raise ``ValueError``.
    """
    labels = list(labels)
    missing = [label for label in labels if label not in tables]
    if missing or not labels:
        raise ValueError(f"bath current needs labels with rate tables, got {labels} (none for {missing}); "
                         f"the tables hold {sorted(tables)}")
    transitions = [(label, t) for label in labels for t in _ALLOWED_TRANSITIONS]
    keys = tuple((_dissipator_term, (transition_op, label, *t)) for label, t in transitions)
    weights = np.array([tables[label].get(*t) for label, t in transitions])
    return CurrentFunctional("net_bath_current_" + "_".join(labels),
                             SparseOperator.wrap(layout, _operator_table(layout, keys).assemble(weights)))


def bath_current_functional(generator: Liouvillian, side: str) -> CurrentFunctional:
    """Net excitation current into the ``side`` bath; positive when the
    system heats that bath.  The heat current is this times the filter
    frequency.

    It is the excitation flow out of the system through that bath's own
    dissipators, -Tr(n L_side rho): the jumps tagged ``side``, each its rate
    times its emission operator, which sum to diag(-r01, r10 - r12, r21)
    through a qutrit's rate contact and to Gamma (n+1) a†a - Gamma n a a†
    through a kept filter.  It is named after the modes of those jumps; a
    generator with none, as an operator-built one, raises ``ValueError``.
    """
    layout, keys = generator.layout, generator._keys
    tagged = np.array([s == side for s in generator._sides], dtype=bool)
    if not tagged.any():
        raise ValueError(f"generator on {list(layout.labels)} has no contact of the {side!r} bath")
    labels = dict.fromkeys(op[1] for (_, op), t in zip(keys, tagged) if t)
    table = _operator_table(layout, keys)
    return CurrentFunctional("net_bath_current_" + "_".join(labels),
                             SparseOperator.wrap(layout, table.assemble(np.where(tagged, generator._static, 0.0))))


def rectification(j_forward: float, j_reverse: float) -> float:
    """Diode quality -J_f / J_r; +inf when the reverse current vanishes."""
    if abs(j_reverse) < RECTIFICATION_CURRENT_FLOOR:
        return math.inf
    return -j_forward / j_reverse


def effective_temperature(mean_n: float) -> float:
    """Temperature (units of the mode frequency) of a thermal state with
    occupation ``mean_n``; returns 0 for mean_n <= 0 (log divergence)."""
    if mean_n <= 0:
        return 0.0
    return 1.0 / (math.log(mean_n + 1.0) - math.log(mean_n))


def thermal_population(mean_n: float, n: int) -> float:
    """Fock-level population <n|rho|n> of a thermal state with mean ``mean_n``."""
    if mean_n < 0:
        raise ValueError(f"mean_n must be nonnegative, got {mean_n}")
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    if mean_n == 0:
        return 1.0 if n == 0 else 0.0
    return mean_n ** n / (1.0 + mean_n) ** (n + 1)


def thermal_state_matrix(dim: int, mean_n: float) -> np.ndarray:
    """Thermal density matrix truncated to ``dim`` levels and renormalized."""
    pops = np.array([thermal_population(mean_n, k) for k in range(dim)])
    return np.diag(pops / pops.sum()).astype(np.complex128)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    if vals[0] < -1e-8:
        raise ValueError(f"matrix has negative eigenvalue {vals[0]:.3e}; not a state")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Uhlmann fidelity [tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2 in [0, 1]."""
    if rho1.layout != rho2.layout:
        raise ValueError("states live on different layouts")
    s1 = _psd_sqrt(rho1.data)
    inner = s1 @ rho2.data @ s1
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if vals[0] < -1e-8:
        raise ValueError(f"fidelity kernel has negative eigenvalue {vals[0]:.3e}")
    root_sum = float(np.sqrt(np.clip(vals, 0.0, None)).sum())
    return min(root_sum ** 2, 1.0)


@dataclass
class ModeReport:
    """Occupation, effective temperature, and populations of one mode."""

    mean_n: float
    effective_T: float
    populations: np.ndarray
    reduced: DensityMatrix


def mode_report(rho: DensityMatrix, label: str) -> ModeReport:
    reduced = partial_trace(rho, [label])
    mean_n = float(np.real(reduced.expectation(_mode_operator(reduced.layout, number_op, label))))
    pops = np.real(np.diag(reduced.data)).copy()
    return ModeReport(
        mean_n=mean_n,
        effective_T=effective_temperature(mean_n),
        populations=pops,
        reduced=reduced,
    )
