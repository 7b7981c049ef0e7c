"""Time evolution and steady-state extraction.

``steady_state`` is the one entry to a steady state: it applies the route
rule, the direct solve for a generator without drive terms and the
windowed average for a driven one, and returns one ``SteadyStateResult``
either way; a windowed average that ran out of blocks is returned too,
flagged and with no state.  ``steady_state_direct`` solves the null space
of a time-independent generator in real arithmetic with NumPy alone: the
real block comes ordered by the levels of a walk from the populations, in
which it is block-tridiagonal, its coherence levels are eliminated from
the outermost inward with one dense solve each, and the d x d population
system that remains is solved twice, with the trace constraint in place
of one diagonal row and then of another; the two must agree, which
detects a degenerate null space.  ``steady_state_averaged`` runs the
windowed-average convergence protocol for driven generators: the state is
evolved in blocks of length T, after each block the observable is averaged
over the trailing window T_av, and the run stops once the relative change
of consecutive block averages falls below the threshold, or after
``max_blocks`` blocks.

Both steady-state routes work on the generator's real block
(``lindblad._real_table``): the real Hermitian coordinates that a walk
over the real terms, static and drive together, reaches from the
populations, so it holds the ground state that the protocol starts from.
No real entry leaves that block.  Every generator here conserves the
total excitation number up to a fixed shift per jump, so a bridge half's
block is its coherence-order-0 sector (544 of the 5184 real coordinates
at N=8); a generator without such a symmetry gets the whole space through
the same code.  Both routes take that block from ``Liouvillian._real``,
which returns the cached real block alone: the block's real Hermitian
basis T, its lift T^dagger, through which both routes turn real
coordinates into a state, and the real terms, on which each route
assembles the generator's own weights, so a point recomputes neither the
block nor the basis.  ``DensityMatrix.from_matrix`` validates each state,
as it does the state of ``evolve``.

Both ``evolve`` and the protocol integrate with a fixed-step classical
4th-order scheme; each stage is one sparse product with
L(t) = L0 + sum cos(nu t) L_nu, written onto the one CSR pattern that the
static and drive superoperators share: the pattern of the generator's term
table, fixed per layout.  SciPy's CSR kernel ``csr_matvecs`` adds each
product, scaled by its share of the step, straight into a stage array
allocated once per run, so no step allocates an array of the state's size;
the step is classical RK4 reassociated.  The state is a matrix, one column
for ``evolve``.  The protocol composes the one-period integrator map:
block and window lengths are snapped to whole periods of the lowest drive
frequency (every drive frequency must be an integer multiple of it), a
period holds whole steps of at most ``stability_limited_dt``, the dense
period map is built once in the real Hermitian basis of the block, and one
squaring ladder gives the block map and the window row: the unit-averaged
observable rides along as an extra row of the period map, whose powers
carry the running sum of unit averages.  Above ``SUPEROP_MATERIALIZE_DIM``
every route raises ``ValueError``.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .lindblad import Liouvillian, unvectorize
from .observables import CurrentFunctional
from .spaces import DensityMatrix, SparseOperator, largest_row_sum

logger = logging.getLogger("heatrect")

DEFAULT_DT = 1e-2
DRIVE_STEPS_PER_PERIOD = 20
TRACE_DRIFT_TOL = 1e-10
# currents smaller than this are treated as zero by the stopping rule, so
# unbiased (zero-current) runs terminate instead of dividing noise by noise
CONVERGENCE_ABS_FLOOR = 1e-8


class DegenerateSteadyStateError(RuntimeError):
    """The generator's null space has dimension > 1; no state is singled out."""


@dataclass(frozen=True)
class ConvergenceProtocol:
    """Block length T, trailing window T_av, and stopping threshold."""

    block_length: float = 5000.0
    average_window: float = 1000.0
    rel_tol: float = 1e-4
    max_blocks: int = 40

    def __post_init__(self):
        for name in ("block_length", "average_window", "rel_tol"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not (math.isfinite(value) and value > 0)):
                raise ValueError(f"{name} must be a finite and positive number, got {value!r}")
        if self.average_window > self.block_length:
            raise ValueError("average_window must not exceed block_length")
        if isinstance(self.max_blocks, bool) or not isinstance(self.max_blocks, numbers.Integral):
            raise ValueError(f"max_blocks must be an integer, got {self.max_blocks!r}")
        if self.max_blocks < 2:
            raise ValueError("max_blocks must be at least 2")


@dataclass
class Trajectory:
    name: str
    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SteadyStateResult:
    """One steady-state solve: its ``solver`` (``"direct"`` or
    ``"windowed-average"``), the observable's ``value``, the ``state``
    (``None`` when a windowed average ran out of blocks; its value is then
    the last block average, and ``converged`` is false) and the real
    dimension ``block_dim`` of the invariant block the solve ran on.  The
    windowed average's own fields are ``None`` for a direct solve: the
    converged block and the blocks used (-1 and ``max_blocks`` when it ran
    out), every block average, the step, the snapped block and window
    lengths, and the sampled trajectory (when requested, on either
    outcome)."""

    solver: str
    value: float
    state: DensityMatrix | None
    block_dim: int
    converged_block: int | None = None
    blocks_used: int | None = None
    block_averages: tuple[float, ...] | None = None
    dt: float | None = None
    block_length_effective: float | None = None
    window_effective: float | None = None
    trajectory: Trajectory | None = None

    @property
    def converged(self) -> bool:
        return self.state is not None


def steady_state(generator: Liouvillian, observable: CurrentFunctional,
                 protocol: ConvergenceProtocol | None = None) -> SteadyStateResult:
    """The steady state by the route rule: ``steady_state_direct`` for a
    generator without drive terms, ``steady_state_averaged`` under
    ``protocol`` for a driven one, flagged when it ran out of blocks.  An
    observable on another layout than the generator's raises ``ValueError``
    before either route runs."""
    if observable.observable.layout != generator.layout:
        raise ValueError("observable layout does not match generator layout")
    if generator.drive_frequencies:
        return steady_state_averaged(generator, observable, protocol)
    state = steady_state_direct(generator)
    return SteadyStateResult("direct", observable.value(state), state, generator._real().terms.side)


# fixed-step RK4 is stable for |lambda * dt| up to ~2.8; stay well inside
RK4_STABILITY_SAFETY = 1.35


def drive_limited_dt(frequencies, default: float = DEFAULT_DT) -> float:
    """Largest admissible step: default, or 1/20 of the fastest drive period."""
    freqs = [f for f in frequencies if f > 0]
    if not freqs:
        return default
    return min(default, (2.0 * math.pi / max(freqs)) / DRIVE_STEPS_PER_PERIOD)


def _generator_norm_bound(generator: Liouvillian) -> float:
    """Upper bound on the sup-norm of L(t), for the integrator stability limit.

    The coherent part enters through the largest row sums of H_0 and then
    of each drive's V_nu in ``generator.hamiltonian``; the jumps of a
    wiring-table generator come from the layout's operator cache, so their
    norms are computed once per layout, not once per point."""
    total = 0.0
    hamiltonian = generator.hamiltonian
    if hamiltonian is not None:
        h = largest_row_sum(hamiltonian.static_part.matrix)
        for _, v in hamiltonian.drive_terms:
            h += largest_row_sum(v.matrix)
        total += 2.0 * h
    for weight, op in generator.jumps:
        na, nad = op.row_sum_norms
        total += weight * 2.0 * na * nad
    return total


def stability_limited_dt(generator: Liouvillian) -> float:
    """``DEFAULT_DT``, bounded by both the drive-resolution rule and RK4 stability.

    The stability bound matters for time-independent generators whose
    coherent part carries a large anharmonicity scale; for driven circuits
    the drive-resolution rule is the tighter one at the usual parameters.
    """
    bound = _generator_norm_bound(generator)
    dt = drive_limited_dt(generator.drive_frequencies)
    if bound > 0:
        dt = min(dt, RK4_STABILITY_SAFETY / bound)
    return dt


def _rk4_steps(rhs, state: np.ndarray, t0: float, h: float, n_steps: int):
    """Yield the state after each of ``n_steps`` classical RK4 steps of size h.

    ``rhs(v, t, scale, out)`` adds scale * L(t) v to ``out`` (``_make_rhs``).
    The state is a private C-ordered copy of ``state``, updated in place, so
    every yield hands out the same array.  Each stage input is formed by one
    product added into a copy of the state, s2 = v + h/2 k1,
    s3 = v + h/2 k2, s4 = v + h k3, and the step is
    v' = (s2 + 2 s3 + s4 - v) / 3 + h/6 L(t + h) s4, which is classical RK4
    reassociated.  The stage arrays are allocated once, so no step
    allocates an array of the state's size.
    """
    state = np.array(state, order="C")
    s2, s3, s4 = (np.empty_like(state) for _ in range(3))
    for k in range(n_steps):
        t = t0 + k * h
        np.copyto(s2, state)
        rhs(state, t, 0.5 * h, s2)
        np.copyto(s3, state)
        rhs(s2, t + 0.5 * h, 0.5 * h, s3)
        np.copyto(s4, state)
        rhs(s3, t + 0.5 * h, h, s4)
        np.subtract(s2, state, out=state)
        state += s3
        state += s3
        state += s4
        state /= 3.0
        rhs(s4, t + h, h / 6.0, state)
        yield state


def _make_rhs(static: sp.csr_array, drives: tuple[tuple[float, sp.csr_array], ...]):
    """``rhs(v, t, scale, out)``, which adds scale * L(t) v to ``out``, with
    L(t) = L0 + sum cos(nu t) L_nu for the sparse superoperators
    L0 = ``static`` and (nu, L_nu) in ``drives``, which must share one CSR
    pattern; v is a matrix of states, one per column.

    A call writes the entries of scale * L(t) into one array on that pattern
    and makes one product with SciPy's CSR kernel ``csr_matvecs``, the
    kernel behind ``csr_array @`` on a matrix, which adds into ``out``
    instead of allocating a zeroed result.  The kernel is private SciPy API
    that writes through the raw buffer, so v must be 2-D, and ``out``
    C-contiguous, of the product's shape, and of one dtype with v and the
    superoperators; otherwise ``ValueError`` is raised.
    """
    for _, s in drives:
        if not (s.shape == static.shape and np.array_equal(s.indptr, static.indptr)
                and np.array_equal(s.indices, static.indices)):
            raise ValueError("static and drive superoperators must share one sparsity pattern")
    n_row, n_col = static.shape
    indptr, indices = static.indptr, static.indices
    entries = np.empty_like(static.data)
    modulated = tuple((nu, s.data) for nu, s in drives)

    def rhs(v, t, scale, out):
        if v.ndim != 2 or v.shape[0] != n_col or out.shape != (n_row, v.shape[1]):
            raise ValueError(f"out {out.shape} cannot hold the product with v {v.shape}, "
                             "a matrix of states")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if not v.dtype == out.dtype == entries.dtype:
            raise ValueError(f"v ({v.dtype}), out ({out.dtype}) and L ({entries.dtype}) must share one dtype")
        np.multiply(static.data, scale, out=entries)
        for nu, drive in modulated:
            np.add(entries, (scale * math.cos(nu * t)) * drive, out=entries)
        _sparsetools.csr_matvecs(n_row, n_col, v.shape[1], indptr, indices, entries,
                                 v.ravel(), out.ravel())

    return rhs


def evolve(
    generator: Liouvillian,
    rho0: DensityMatrix,
    t0: float,
    t1: float,
    dt: float | None = None,
) -> DensityMatrix:
    """Propagate rho from t0 to t1 with fixed-step 4th-order integration.

    The step defaults to ``stability_limited_dt``.  A non-finite ``t0``,
    ``t1`` or ``dt`` raises ``ValueError``, as does an explicit ``dt`` that
    is not positive or does not resolve the fastest drive (at least 20
    steps per period).  The trace is renormalized once at the end if the
    accumulated drift exceeds 1e-10 (and the drift logged).
    """
    if rho0.layout != generator.layout:
        raise ValueError("initial state layout does not match generator layout")
    for name, value in (("t0", t0), ("t1", t1), ("dt", dt)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t1 < t0:
        raise ValueError(f"t1 = {t1} must not precede t0 = {t0}")
    if dt is None:
        dt = stability_limited_dt(generator)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    limit = drive_limited_dt(generator.drive_frequencies, default=math.inf)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"dt = {dt} does not resolve the fastest drive; need dt <= {limit:.6g}"
        )
    if t1 == t0:
        return rho0.copy()

    n_steps = max(1, math.ceil((t1 - t0) / dt))
    h = (t1 - t0) / n_steps
    rhs = _make_rhs(*generator.superops())
    for k, state in enumerate(_rk4_steps(rhs, rho0.vec()[:, None], t0, h, n_steps)):
        if k % 1000 == 999 and not np.all(np.isfinite(state)):
            raise ArithmeticError(f"state became non-finite at t = {t0 + (k + 1) * h}")
    if not np.all(np.isfinite(state)):
        raise ArithmeticError("state became non-finite during evolution")

    rho = unvectorize(state[:, 0], generator.dim)
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > TRACE_DRIFT_TOL:
        logger.info("trace drift %.3e after evolve; renormalizing once", trace - 1.0)
        rho /= trace
    return DensityMatrix.from_matrix(generator.layout, rho)


# ---------------------------------------------------------------------------
# direct (null-space) steady state
# ---------------------------------------------------------------------------

def steady_state_direct(generator: Liouvillian) -> DensityMatrix:
    """Steady state of a time-independent generator via its null space.

    The solve runs in real arithmetic on the generator's real block, whose
    first d coordinates are the diagonal of rho, followed by the levels of
    the walk from them that defines the block (``lindblad._real_table``).  A
    level couples only to its neighbours, so the block L, scattered into one
    dense array, is block-tridiagonal, and the block's ``bounds`` cut each
    level's left, diagonal and right blocks out of it.  Each row is scaled
    by its largest entry, and the coherence levels are eliminated from the
    outermost inward, each by ``np.linalg.solve`` on its block S_k, the
    level's diagonal block less what the levels beyond it feed back.  What
    is left is the exact d x d population system S_0.  Its two trace slices,
    the trace row tau (ones) in place of row 0 and then of row d-1, are
    solved and back-substituted; each replaced row is a diagonal one, since
    the diagonal rows of L sum to zero and the trace row lifts that
    dependence.  A singular S_k or slice (``LinAlgError``), a non-finite
    solution, or slices that disagree by more than 1e-8 mean a degenerate
    stationary manifold within the block and raise
    :class:`DegenerateSteadyStateError`.  Uniqueness is certified only on
    the block reached from the populations: stationary coherences outside it
    carry no trace and are not states.  The first slice's solution takes one
    refinement step against M_0, L with tau in place of row 0: its residual,
    one product with L, is folded inward through the same S_k.  The state,
    lifted by the block's T^dagger, must pass a 1e-10 residual against the
    complex static superoperator, ``generator.superops()[0]``, and the state
    validation.
    Above ``SUPEROP_MATERIALIZE_DIM`` ``ValueError`` is raised.
    """
    if generator.drive_frequencies:
        raise ValueError("direct solve requires a generator without drive terms")
    d, block = generator.dim, generator._real()
    terms, bounds = block.terms, block.bounds
    # the block L, dense in the block's level order, every row scaled by its
    # largest entry
    entries, counts = terms.coefficients @ generator._static, np.diff(terms.indptr)
    scale = np.maximum.reduceat(np.abs(entries), terms.indptr[:-1][counts > 0])
    m = np.zeros((terms.side, terms.side))
    m[np.repeat(np.arange(terms.side), counts), terms.indices] = (
        entries / np.repeat(np.where(scale > 0, scale, 1.0), counts[counts > 0]))
    # the coordinates of each level, then an empty level beyond the last
    n = len(bounds) - 1
    at = [slice(lo, hi) for lo, hi in zip(bounds, (*bounds[1:], bounds[-1]))]
    # S_k and C_k = S_k^-1 (left block of level k), outermost level first;
    # C_n is an empty stand-in beyond the last level
    schur, couple = [None] * n, [None] * n + [np.zeros((0, bounds[n] - bounds[n - 1]))]
    try:
        for k in range(n - 1, 0, -1):
            schur[k] = m[at[k], at[k]] - m[at[k], at[k + 1]] @ couple[k + 1]
            couple[k] = np.linalg.solve(schur[k], m[at[k], at[k - 1]])
    except np.linalg.LinAlgError as err:
        raise DegenerateSteadyStateError(
            f"a coherence level is singular ({err}); the stationary state is not unique"
        ) from err
    slices = np.stack([m[at[0], at[0]] - m[at[0], at[1]] @ couple[1]] * 2)
    slices[0, 0] = slices[1, d - 1] = 1.0
    ends = np.zeros((2, d, 1))
    ends[0, 0] = ends[1, d - 1] = 1.0
    try:
        x = [np.linalg.solve(slices, ends)[..., 0].T]
    except np.linalg.LinAlgError as err:
        raise DegenerateSteadyStateError(
            f"a trace slice of the population system is singular ({err}); "
            "the stationary state is not unique"
        ) from err
    for k in range(1, n):
        x.append(-couple[k] @ x[-1])
    x = np.concatenate(x)
    if not np.all(np.isfinite(x)):
        raise DegenerateSteadyStateError("the level solve produced non-finite entries")
    # written so that a nan disagreement fails too
    if not np.max(np.abs(x[:, 0] - x[:, 1])) <= 1e-8:
        raise DegenerateSteadyStateError(
            "two independent trace slices disagree; steady state is not unique"
        )
    # one refinement step, M_0 dx = e_0 - M_0 x, through the same levels: the
    # residual's levels are folded inward through each S_k, as L's were
    x = x[:, 0]
    r = -(m @ x)
    r[0] = 1.0 - x[:d].sum()  # row 0 of M_0 is the trace row
    y = [None] * n + [np.zeros(0)]
    for k in range(n - 1, 0, -1):
        y[k] = np.linalg.solve(schur[k], r[at[k]] - m[at[k], at[k + 1]] @ y[k + 1])
    top = r[at[0]] - m[at[0], at[1]] @ y[1]
    top[0] = r[0]  # the trace row has no right block
    dx = [np.linalg.solve(slices[0], top)]
    for k in range(1, n):
        dx.append(y[k] - couple[k] @ dx[-1])
    x = x + np.concatenate(dx)
    vec = block.lift @ (x / x[:d].sum()).astype(np.complex128)
    residual = float(np.max(np.abs(generator.superops()[0] @ vec)))
    if not residual <= 1e-10:  # a nan residual fails too
        raise ArithmeticError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    return DensityMatrix.from_matrix(generator.layout, unvectorize(vec, d))


def _real_observable(transform: sp.csr_array, op: SparseOperator) -> np.ndarray:
    """Row c with c @ u = Tr(W rho): conj(T) vec(W^T), and W in row-major order
    is vec(W^T).  Its imaginary residue must stay within 1e-10 of
    max(|c.real|, 1), or W is not Hermitian and ``ValueError`` is raised."""
    c = transform.conj() @ op.matrix.toarray().ravel()
    if np.max(np.abs(c.imag), initial=0.0) > 1e-10 * max(np.max(np.abs(c.real), initial=0.0), 1.0):
        raise ValueError("observable must be Hermitian")
    return np.ascontiguousarray(c.real)


# ---------------------------------------------------------------------------
# compiled block map
# ---------------------------------------------------------------------------

@dataclass
class _UnitGrid:
    duration: float
    n_steps: int
    dt: float
    units_per_block: int
    window_units: int


def _unit_grid(generator: Liouvillian, protocol: ConvergenceProtocol) -> _UnitGrid:
    """Unit, step and block and window lengths in units: one period of the
    lowest drive in whole steps no longer than ``stability_limited_dt``,
    which resolves the fastest drive (at least 20 steps per its period); one
    such step without drives."""
    dt = stability_limited_dt(generator)
    freqs = sorted(set(generator.drive_frequencies))
    if freqs:
        base = freqs[0]
        ratios = [f / base for f in freqs]
        if any(abs(r - round(r)) > 1e-9 for r in ratios):
            raise ValueError(
                f"drive frequencies {freqs} are not integer multiples of the "
                f"lowest drive frequency {base}"
            )
        duration = 2.0 * math.pi / base
        n_steps = math.ceil(duration / dt - 1e-12)
    else:
        duration = dt
        n_steps = 1
    units_per_block = max(1, round(protocol.block_length / duration))
    window_units = min(units_per_block, max(1, round(protocol.average_window / duration)))
    return _UnitGrid(duration, n_steps, duration / n_steps, units_per_block, window_units)


def _build_unit_map(
    l0: sp.csr_array,
    drives: tuple[tuple[float, sp.csr_array], ...],
    c_row: np.ndarray,
    grid: _UnitGrid,
):
    """Dense map over one unit plus the unit-averaged observable row.

    Propagates the identity through ``n_steps`` RK4 steps (the unit starts
    at drive phase zero, which block boundaries always hit) and accumulates
    the trapezoid average of the observable over the unit.
    """
    h = grid.dt
    rhs = _make_rhs(l0, drives)
    weights = np.full(grid.n_steps + 1, 1.0 / grid.n_steps)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    c_avg = weights[0] * c_row.copy()
    for k, unit in enumerate(_rk4_steps(rhs, np.eye(l0.shape[0]), 0.0, h, grid.n_steps)):
        c_avg += weights[k + 1] * (c_row @ unit)
    if not np.all(np.isfinite(unit)):
        raise ArithmeticError("unit propagator is non-finite; decrease dt")
    return unit, c_avg


def _block_map_and_window_row(unit: np.ndarray, c_avg: np.ndarray, n_p: int, n_w: int):
    """P^n_p and the row y with y @ u = window average of a block from u.

    The augmented map A = [[P, 0], [c_avg, 1]] carries the running sum of
    unit averages in its last row: A^n = [[P^n, 0], [s_n, 1]] with
    s_n = sum_(i<n) c_avg P^i.  One squaring ladder forms A^n_p and, on the
    same squares, the last row of A^(n_p - n_w); y = (s_n_p - s_(n_p-n_w)) / n_w.
    The difference loses round-off relative to n_p |c_avg|, not to the
    window sum: harmless here because P keeps the trace, so no term decays.
    """
    side = unit.shape[0]
    augmented = np.block([[unit, np.zeros((side, 1))], [c_avg, 1.0]])
    power, head = _matrix_power(augmented, n_p, row_exponent=n_p - n_w)
    return power[:side, :side], (power[side, :side] - head[:side]) / n_w


def _matrix_power(m: np.ndarray, n: int, row_exponent: int = 0):
    """(m^n, last row of m^row_exponent) for 0 <= row_exponent <= n, n >= 1.

    Repeated squaring; the row is formed as a row vector on the same squares.
    """
    out = None
    row = np.zeros(m.shape[0])
    row[-1] = 1.0
    base = m
    for k in range(n.bit_length()):
        if k:
            base = base @ base
        if (n >> k) & 1:
            out = base.copy() if out is None else out @ base
        if (row_exponent >> k) & 1:
            row = row @ base
    return out, row


def _stop(prev: float, current: float, rel_tol: float) -> bool:
    return abs(current - prev) <= rel_tol * max(abs(prev), CONVERGENCE_ABS_FLOOR)


def steady_state_averaged(
    generator: Liouvillian,
    observable: CurrentFunctional,
    protocol: ConvergenceProtocol | None = None,
    *,
    trajectory_points_per_block: int | None = None,
) -> SteadyStateResult:
    """Windowed-average steady state of a (possibly driven) generator.

    Starts from the ground state and evolves block by block, averaging
    ``observable`` over the trailing window of each block, and stops at the
    first block n whose average differs from block n-1 by less than rel_tol
    in relative terms (with an absolute floor so exactly-zero currents
    converge too).  When ``max_blocks`` is exhausted, the result comes back
    flagged: ``converged`` is false, ``state`` is ``None``, ``value`` is the
    last block average and ``converged_block`` is -1.  The trajectory, when
    requested, is kept on both outcomes.

    The blocks are advanced with a precomputed dense map over one period of
    the lowest drive frequency (over one step without drives), and block and
    window lengths are snapped to whole periods.  The map acts on the
    generator's real block, the real Hermitian coordinates that a walk over
    its real terms reaches from the populations, whose T^dagger lifts the
    final coordinates to the result's ``state``, which is validated;
    ``block_dim`` of the result is its real dimension.  Every drive
    frequency must be an integer multiple of the lowest one; otherwise
    ``ValueError`` is raised.  The step divides the period into whole steps
    no longer than ``stability_limited_dt``, at least 20 per period of the
    fastest drive.  An observable on another layout than the generator's, or
    a ``trajectory_points_per_block`` that is neither None nor a positive
    integer, raises ``ValueError``.
    """
    if observable.observable.layout != generator.layout:
        raise ValueError("observable layout does not match generator layout")
    points = trajectory_points_per_block
    if points is not None and (isinstance(points, bool) or not isinstance(points, numbers.Integral)
                               or points < 1):
        raise ValueError(f"trajectory_points_per_block must be None or a positive integer, got {points!r}")
    if protocol is None:
        protocol = ConvergenceProtocol()
    grid = _unit_grid(generator, protocol)
    d = generator.dim
    real_block = generator._real()
    l0, drives = generator._assemble(real_block.terms)
    # the ground state |0><0|: vec index 0, so its real coordinates are column 0 of T
    u = real_block.transform[:, [0]].toarray().real.ravel()
    c_row = _real_observable(real_block.transform, observable.observable)
    unit, c_avg = _build_unit_map(l0, drives, c_row, grid)
    block_map, window_row = _block_map_and_window_row(
        unit, c_avg, grid.units_per_block, grid.window_units
    )

    sample_map = None
    if points is not None:
        sample_stride = max(1, grid.units_per_block // int(points))
        sample_map, _ = _matrix_power(unit, sample_stride)

    averages: list[float] = []
    times: list[float] = []
    samples: list[float] = []
    converged = -1
    for block in range(protocol.max_blocks):
        averages.append(float(window_row @ u))
        if block >= 1 and _stop(averages[-2], averages[-1], protocol.rel_tol):
            converged = block
        if sample_map is not None:
            t0 = block * grid.units_per_block * grid.duration
            v = u
            for done in range(sample_stride, grid.units_per_block + 1, sample_stride):
                v = sample_map @ v
                times.append(t0 + done * grid.duration)
                samples.append(float(c_row @ v))
        u = block_map @ u
        trace = float(u[:d].sum())  # the block holds every diagonal, and they come first
        if abs(trace - 1.0) > TRACE_DRIFT_TOL:
            logger.info("trace drift %.3e at block %d; renormalizing", trace - 1.0, block)
            u = u / trace
        if converged >= 0:
            break

    state = None
    if converged >= 0:
        # the loop left u's trace within TRACE_DRIFT_TOL, and T^dagger copies u[:d]
        # onto the diagonal; T^dagger u is exactly Hermitian for every real u
        rho = unvectorize(real_block.lift @ u.astype(np.complex128), d)
        state = DensityMatrix.from_matrix(generator.layout, rho)
    trajectory = None
    if points is not None:
        trajectory = Trajectory(observable.name, np.asarray(times, dtype=np.float64),
                                np.asarray(samples, dtype=np.float64))
    return SteadyStateResult("windowed-average", averages[-1], state, l0.shape[0],
                             converged_block=converged, blocks_used=len(averages),
                             block_averages=tuple(averages), dt=grid.dt,
                             block_length_effective=grid.units_per_block * grid.duration,
                             window_effective=grid.window_units * grid.duration,
                             trajectory=trajectory)
