"""heatrect: steady-state simulator for qutrit-diode heat-transport circuits."""

from .circuits import (
    BathParams,
    CircuitSpec,
    DiodeParams,
    RateMode,
    TimeDependentOperator,
    Topology,
    bose_occupation,
)
from .lindblad import (
    Liouvillian,
    RateTable,
    bridge_rate_tables,
    build_bridge_half_generators,
    build_generator,
    build_reduced_generator,
    qutrit_rate_table,
    rate_tables,
)
from .observables import (
    BiasSetting,
    CurrentFunctional,
    ModeReport,
    bath_current_functional,
    effective_temperature,
    fidelity,
    mode_report,
    rectification,
    thermal_population,
    thermal_state_matrix,
)
from .spaces import (
    DensityMatrix,
    HarmonicOscillator,
    ModeKind,
    Qutrit,
    SpaceLayout,
    SparseOperator,
    lowering_op,
    number_op,
    partial_trace,
    projector,
    raising_op,
)
from .steady import (
    ConvergenceError,
    ConvergenceProtocol,
    DegenerateSteadyStateError,
    EvolutionResult,
    evolve,
    steady_state_averaged,
    steady_state_direct,
)

__version__ = "0.1.0"
