"""Time evolution and steady-state extraction.

Two steady-state routes are provided.  ``steady_state_direct`` solves the
null space of a time-independent generator by sparse LU, with the trace
constraint in place of one row; a second solve with another row replaced
detects a degenerate null space.  ``steady_state_averaged`` runs the
windowed-average convergence protocol for driven generators: the
state is evolved in blocks of length T, after each block the observable is
averaged over the trailing window T_av, and the run stops once the
relative change of consecutive block averages falls below the threshold.

The protocol is integrated with a fixed-step classical 4th-order scheme.
For periodic drives the block and window lengths are snapped to integer
multiples of the drive period so the one-period integrator map can be
composed exactly (repeated squaring of the dense period map in a real
Hermitian operator basis); this reproduces the plain step-by-step
integration bit-for-bit up to float reassociation, at a tiny fraction of
the cost.  A plain stepping path is kept both as a fallback for very
large or incommensurately driven generators and as an independent check.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lindblad import Liouvillian, SUPEROP_MATERIALIZE_DIM, unvectorize, vectorize
from .observables import CurrentFunctional
from .spaces import DensityMatrix, SparseOperator

logger = logging.getLogger("heatrect")

DEFAULT_DT = 1e-2
DRIVE_STEPS_PER_PERIOD = 20
TRACE_DRIFT_TOL = 1e-10
# currents smaller than this are treated as zero by the stopping rule, so
# unbiased (zero-current) runs terminate instead of dividing noise by noise
CONVERGENCE_ABS_FLOOR = 1e-8


class ConvergenceError(RuntimeError):
    """Windowed-average protocol ran out of blocks; carries every block average."""

    def __init__(self, message: str, block_averages: list[float]):
        super().__init__(message)
        self.block_averages = list(block_averages)
        self.last_averages = tuple(self.block_averages[-2:])


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
        if self.block_length <= 0 or self.average_window <= 0:
            raise ValueError("block_length and average_window must be positive")
        if self.average_window > self.block_length:
            raise ValueError("average_window must not exceed block_length")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_blocks < 2:
            raise ValueError("max_blocks must be at least 2")


@dataclass
class Trajectory:
    name: str
    times: np.ndarray
    values: np.ndarray


@dataclass
class EvolutionResult:
    """Outcome of the windowed-average protocol."""

    final_state: DensityMatrix
    converged_value: float
    converged_block: int
    blocks_used: int
    block_averages: list[float]
    observable_name: str
    method: str
    block_length_effective: float
    window_effective: float
    dt: float
    trajectory: Trajectory | None = None


# fixed-step RK4 is stable for |lambda * dt| up to ~2.8; stay well inside
RK4_STABILITY_SAFETY = 1.35


def drive_limited_dt(frequencies, default: float = DEFAULT_DT) -> float:
    """Largest admissible step: default, or 1/20 of the fastest drive period."""
    freqs = [f for f in frequencies if f > 0]
    if not freqs:
        return default
    return min(default, (2.0 * math.pi / max(freqs)) / DRIVE_STEPS_PER_PERIOD)


def _generator_norm_bound(generator: Liouvillian) -> float:
    """Upper bound on the sup-norm of L(t), for the integrator stability limit."""
    def op_norm(matrix) -> float:
        m = abs(matrix)
        return float(m.sum(axis=1).max()) if m.nnz else 0.0

    total = 0.0
    if generator.hamiltonian is not None:
        h = op_norm(generator.hamiltonian.static_part.matrix)
        for _, v in generator.hamiltonian.drive_terms:
            h += op_norm(v.matrix)
        total += 2.0 * h
    for weight, op in generator.jumps:
        na = op_norm(op.matrix)
        nad = op_norm(op.matrix.conj().T.tocsr())
        total += weight * 2.0 * na * nad
    return total


def stability_limited_dt(generator: Liouvillian, default: float = DEFAULT_DT) -> float:
    """Step bounded by both the drive-resolution rule and RK4 stability.

    The stability bound matters for time-independent generators whose
    coherent part carries a large anharmonicity scale; for driven circuits
    the drive-resolution rule is the tighter one at the usual parameters.
    """
    bound = _generator_norm_bound(generator)
    dt = drive_limited_dt(generator.drive_frequencies, default)
    if bound > 0:
        dt = min(dt, RK4_STABILITY_SAFETY / bound)
    return dt


def _rk4_step(rhs, state: np.ndarray, t: float, h: float) -> np.ndarray:
    k1 = rhs(state, t)
    k2 = rhs(state + (0.5 * h) * k1, t + 0.5 * h)
    k3 = rhs(state + (0.5 * h) * k2, t + 0.5 * h)
    k4 = rhs(state + h * k3, t + h)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_DENSE_SUPEROP_MAX = 10_000  # densify the superoperator only up to this many entries per axis


def _make_rhs(generator: Liouvillian):
    """Fastest admissible right-hand side: dense or sparse superoperator
    acting on vec(rho) when materializable, matrix-free otherwise.

    Returns (mode, rhs) with mode one of "vec" or "matrix"; all variants
    compute the same generator action.
    """
    if generator.dim <= SUPEROP_MATERIALIZE_DIM:
        static = generator.static_superop
        drives = generator.drive_superops
        if generator.dim ** 2 <= _DENSE_SUPEROP_MAX:
            static = static.toarray()
            drives = tuple((nu, s.toarray()) for nu, s in drives)
        if drives:
            def rhs(v, t):
                out = static @ v
                for nu, s in drives:
                    out += math.cos(nu * t) * (s @ v)
                return out
        else:
            def rhs(v, t):
                return static @ v
        return "vec", rhs
    return "matrix", generator.apply


def evolve(
    generator: Liouvillian,
    rho0: DensityMatrix,
    t0: float,
    t1: float,
    dt: float | None = None,
) -> DensityMatrix:
    """Propagate rho from t0 to t1 with fixed-step 4th-order integration.

    The step must resolve the fastest drive (at least 20 steps per period);
    a coarser explicit ``dt`` raises.  The trace is renormalized once at
    the end if the accumulated drift exceeds 1e-10 (and the drift logged).
    """
    if rho0.layout != generator.layout:
        raise ValueError("initial state layout does not match generator layout")
    if t1 < t0:
        raise ValueError(f"t1 = {t1} must not precede t0 = {t0}")
    limit = drive_limited_dt(generator.drive_frequencies, default=math.inf)
    if dt is None:
        dt = stability_limited_dt(generator)
    elif dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    elif dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"dt = {dt} does not resolve the fastest drive; need dt <= {limit:.6g}"
        )
    if t1 == t0:
        return rho0.copy()

    n_steps = max(1, math.ceil((t1 - t0) / dt))
    h = (t1 - t0) / n_steps
    mode, rhs = _make_rhs(generator)
    state = rho0.vec() if mode == "vec" else rho0.data.copy()
    for k in range(n_steps):
        state = _rk4_step(rhs, state, t0 + k * h, h)
        if k % 1000 == 999 and not np.all(np.isfinite(state)):
            raise ArithmeticError(f"state became non-finite at t = {t0 + (k + 1) * h}")
    if not np.all(np.isfinite(state)):
        raise ArithmeticError("state became non-finite during evolution")

    rho = unvectorize(state, generator.dim) if mode == "vec" else state
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > TRACE_DRIFT_TOL:
        logger.info("trace drift %.3e after evolve; renormalizing once", trace - 1.0)
        rho /= trace
    return DensityMatrix.from_matrix(generator.layout, rho, validate=False)


# ---------------------------------------------------------------------------
# direct (null-space) steady state
# ---------------------------------------------------------------------------

def _trace_row(d: int) -> np.ndarray:
    row = np.zeros(d * d, dtype=np.complex128)
    row[np.arange(d) * (d + 1)] = 1.0
    return row


def _normalize_steady_vec(layout, L, v) -> DensityMatrix:
    d = layout.total_dim
    rho = unvectorize(v, d)
    rho = 0.5 * (rho + rho.conj().T)
    trace = complex(np.trace(rho))
    if abs(trace) < 1e-12:
        raise DegenerateSteadyStateError(
            "null vector is traceless; the stationary manifold contains no normalizable state"
        )
    rho = rho / trace
    residual = float(np.max(np.abs(L @ vectorize(rho))))
    if residual > 1e-10:
        raise ArithmeticError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    return DensityMatrix.from_matrix(layout, rho, validate=True)


def steady_state_direct(generator: Liouvillian) -> DensityMatrix:
    """Steady state of a time-independent generator via its null space.

    Sparse LU solves the superoperator with the trace constraint in place
    of its first row, and again in place of its last row.  A degenerate
    stationary manifold makes a factor singular or the two solutions
    disagree; either raises :class:`DegenerateSteadyStateError`.  Above
    ``SUPEROP_MATERIALIZE_DIM`` the superoperator is not built and
    ``ValueError`` is raised.
    """
    if generator.drive_frequencies:
        raise ValueError("direct solve requires a generator without drive terms")
    d = generator.dim
    L = generator.static_superop

    lil = L.tolil(copy=True)
    solutions = []
    for row in (0, d * d - 1):
        system = lil.copy()
        system[row, :] = _trace_row(d)
        rhs = np.zeros(d * d, dtype=np.complex128)
        rhs[row] = 1.0
        try:
            lu = spla.splu(system.tocsc())
            x = lu.solve(rhs)
        except RuntimeError as err:
            raise DegenerateSteadyStateError(
                f"sparse solve failed ({err}); the stationary state is likely not unique"
            ) from err
        if not np.all(np.isfinite(x)):
            raise DegenerateSteadyStateError("sparse solve produced non-finite entries")
        solutions.append(x / (_trace_row(d) @ x))
    if np.max(np.abs(solutions[0] - solutions[1])) > 1e-8:
        raise DegenerateSteadyStateError(
            "two independent trace slices disagree; steady state is not unique"
        )
    return _normalize_steady_vec(generator.layout, L, solutions[0])


# ---------------------------------------------------------------------------
# real Hermitian-basis representation
# ---------------------------------------------------------------------------

def hermitian_basis_transform(d: int) -> sp.csr_array:
    """Unitary T mapping vec(rho) to real coordinates in a Hermitian basis.

    Basis order: the d diagonal projectors first, then for each pair k < l
    the symmetric and antisymmetric (i-weighted) combinations, both
    normalized under the Hilbert-Schmidt inner product.  For Hermitian rho
    the coordinates T @ vec(rho) are real.
    """
    rows, cols, data = [], [], []
    m = 0
    for k in range(d):
        rows.append(m)
        cols.append(k + d * k)
        data.append(1.0 + 0.0j)
        m += 1
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for k in range(d):
        for l in range(k + 1, d):
            # u = sqrt(2) Re rho_kl
            rows += [m, m]
            cols += [k + d * l, l + d * k]
            data += [inv_sqrt2, inv_sqrt2]
            m += 1
            # u = sqrt(2) Im rho_kl
            rows += [m, m]
            cols += [k + d * l, l + d * k]
            data += [-1j * inv_sqrt2, 1j * inv_sqrt2]
            m += 1
    t = sp.csr_array((np.array(data), (np.array(rows), np.array(cols))), shape=(d * d, d * d))
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


def _real_state(transform: sp.csr_array, rho: np.ndarray) -> np.ndarray:
    u = transform @ vectorize(rho)
    return np.ascontiguousarray(u.real)


def _complex_state(transform: sp.csr_array, u: np.ndarray, d: int) -> np.ndarray:
    return unvectorize(transform.conj().T @ u.astype(np.complex128), d)


def _real_observable(transform: sp.csr_array, op: SparseOperator) -> np.ndarray:
    w = op.matrix.tocoo()
    d = op.shape[0]
    vec_wt = sp.csr_array(
        (w.data, (w.col + d * w.row, np.zeros_like(w.row))), shape=(d * d, 1)
    )
    c = (transform.conj() @ vec_wt).toarray().ravel()
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


def _unit_grid(generator: Liouvillian, protocol: ConvergenceProtocol, dt: float | None) -> _UnitGrid:
    freqs = sorted(set(generator.drive_frequencies))
    base_dt = dt if dt is not None else stability_limited_dt(generator)
    if freqs:
        base = freqs[0]
        ratios = [f / base for f in freqs]
        if any(abs(r - round(r)) > 1e-9 for r in ratios):
            raise ValueError(f"drive frequencies {freqs} are not commensurate")
        period = 2.0 * math.pi / base
        n_steps = max(
            math.ceil(period / base_dt - 1e-12),
            DRIVE_STEPS_PER_PERIOD * int(round(max(ratios))),
        )
        duration = period
    else:
        duration = base_dt
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
    d2 = l0.shape[0]
    h = grid.dt

    def rhs(t: float, m: np.ndarray) -> np.ndarray:
        out = l0 @ m
        for nu, l1 in drives:
            out += math.cos(nu * t) * (l1 @ m)
        return out

    unit = np.eye(d2)
    weights = np.full(grid.n_steps + 1, 1.0 / grid.n_steps)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    c_avg = weights[0] * c_row.copy()
    for k in range(grid.n_steps):
        t = k * h
        k1 = rhs(t, unit)
        k2 = rhs(t + 0.5 * h, unit + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, unit + (0.5 * h) * k2)
        k4 = rhs(t + h, unit + h * k3)
        unit += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c_avg += weights[k + 1] * (c_row @ unit)
    if not np.all(np.isfinite(unit)):
        raise ArithmeticError("unit propagator is non-finite; decrease dt")
    return unit, c_avg


def _block_map_and_window_row(unit: np.ndarray, c_avg: np.ndarray, n_p: int, n_w: int):
    """P^n_p and the row y with y @ u = window average of a block from u.

    Single pass over the bits of the involved counts, sharing the squaring
    stream: base powers P^(2^k) and partial geometric sums S_(2^k) are
    advanced together, while accumulators pick up the set bits of the
    block count n_p, the window count n_w, and (as a cheap row vector) the
    window offset n_p - n_w.
    """
    j0 = n_p - n_w
    base_q = unit.copy()
    base_s = np.eye(unit.shape[0])
    row = c_avg.copy()
    acc_wq = None
    acc_ws = None
    acc_p = None
    top = n_p.bit_length()
    s_top = n_w.bit_length()
    for k in range(top):
        if (j0 >> k) & 1:
            row = row @ base_q
        if (n_w >> k) & 1:
            if acc_ws is None:
                acc_ws = base_s.copy()
                acc_wq = base_q.copy()
            else:
                acc_ws = acc_ws + acc_wq @ base_s
                acc_wq = acc_wq @ base_q
        if (n_p >> k) & 1:
            acc_p = base_q.copy() if acc_p is None else acc_p @ base_q
        if k + 1 < top:
            if k + 1 < s_top:
                base_s = base_s + base_q @ base_s
            base_q = base_q @ base_q
    y = (row @ acc_ws) / n_w
    return acc_p, y


def _compiled_protocol(
    generator: Liouvillian,
    rho0: DensityMatrix,
    protocol: ConvergenceProtocol,
    observable: CurrentFunctional,
    grid: _UnitGrid,
    trajectory_points_per_block: int | None,
):
    d = generator.dim
    transform = hermitian_basis_transform(d)
    l0 = _to_real_superop(transform, generator.static_superop, "static generator")
    drives = tuple(
        (nu, _to_real_superop(transform, s, f"drive at frequency {nu}"))
        for nu, s in generator.drive_superops
    )
    c_row = _real_observable(transform, observable.observable)
    unit, c_avg = _build_unit_map(l0, drives, c_row, grid)
    block_map, window_row = _block_map_and_window_row(
        unit, c_avg, grid.units_per_block, grid.window_units
    )

    sample_stride = None
    sample_map = None
    if trajectory_points_per_block:
        sample_stride = max(1, grid.units_per_block // int(trajectory_points_per_block))
        sample_map = _matrix_power(unit, sample_stride)

    trace_idx = np.arange(d)
    u = _real_state(transform, rho0.data)
    averages: list[float] = []
    times: list[float] = []
    samples: list[float] = []
    converged = None
    for block in range(protocol.max_blocks):
        averages.append(float(window_row @ u))
        if block >= 1 and _stop(averages[-2], averages[-1], protocol.rel_tol):
            converged = block
        if sample_map is not None:
            t0 = block * grid.units_per_block * grid.duration
            v = u
            done = 0
            while done + sample_stride <= grid.units_per_block:
                v = sample_map @ v
                done += sample_stride
                times.append(t0 + done * grid.duration)
                samples.append(float(c_row @ v))
            u = v if done == grid.units_per_block else block_map @ u
        else:
            u = block_map @ u
        trace = float(u[trace_idx].sum())
        if abs(trace - 1.0) > TRACE_DRIFT_TOL:
            logger.info("trace drift %.3e at block %d; renormalizing", trace - 1.0, block)
            u = u / trace
        if converged is not None:
            break
    return u, transform, averages, converged, times, samples


def _matrix_power(m: np.ndarray, n: int) -> np.ndarray:
    out = None
    base = m
    while n:
        if n & 1:
            out = base.copy() if out is None else out @ base
        n >>= 1
        if n:
            base = base @ base
    return out


def _stop(prev: float, current: float, rel_tol: float) -> bool:
    return abs(current - prev) <= rel_tol * max(abs(prev), CONVERGENCE_ABS_FLOOR)


def _stepping_protocol(
    generator: Liouvillian,
    rho0: DensityMatrix,
    protocol: ConvergenceProtocol,
    observable: CurrentFunctional,
    dt: float,
    trajectory_points_per_block: int | None,
):
    """Plain step-by-step version of the protocol (fallback and cross-check)."""
    steps_per_block = max(1, round(protocol.block_length / dt))
    h = protocol.block_length / steps_per_block
    window_steps = min(steps_per_block, max(1, round(protocol.average_window / h)))
    window_start = steps_per_block - window_steps
    sample_stride = None
    if trajectory_points_per_block:
        sample_stride = max(1, steps_per_block // int(trajectory_points_per_block))

    d = generator.dim
    mode, rhs = _make_rhs(generator)
    if mode == "vec":
        state = rho0.vec()
        w_row = vectorize(observable.observable.to_dense().T)

        def value(s: np.ndarray) -> float:
            return float(np.real(w_row @ s))

        def trace_of(s: np.ndarray) -> float:
            return float(np.real(s[:: d + 1].sum()))
    else:
        state = rho0.data.copy()
        w_op = observable.observable

        def value(s: np.ndarray) -> float:
            return float(np.real((w_op.matrix.multiply(s.T)).sum()))

        def trace_of(s: np.ndarray) -> float:
            return float(np.real(np.trace(s)))

    averages: list[float] = []
    times: list[float] = []
    samples: list[float] = []
    converged = None

    for block in range(protocol.max_blocks):
        t_block = block * protocol.block_length
        acc = 0.0
        for k in range(steps_per_block):
            if k >= window_start:
                weight = 0.5 if k == window_start else 1.0
                acc += weight * value(state)
            state = _rk4_step(rhs, state, t_block + k * h, h)
            if sample_stride and (k + 1) % sample_stride == 0:
                times.append(t_block + (k + 1) * h)
                samples.append(value(state))
        acc += 0.5 * value(state)
        averages.append(acc / window_steps)
        if not np.all(np.isfinite(state)):
            raise ArithmeticError(f"state became non-finite in block {block}")
        trace = trace_of(state)
        if abs(trace - 1.0) > TRACE_DRIFT_TOL:
            logger.info("trace drift %.3e at block %d; renormalizing", trace - 1.0, block)
            state /= trace
        if block >= 1 and _stop(averages[-2], averages[-1], protocol.rel_tol):
            converged = block
            break
    rho = unvectorize(state, d) if mode == "vec" else state
    return rho, averages, converged, times, samples


def steady_state_averaged(
    generator: Liouvillian,
    rho0: DensityMatrix | None = None,
    protocol: ConvergenceProtocol | None = None,
    observable: CurrentFunctional | None = None,
    *,
    dt: float | None = None,
    compiled: bool = True,
    trajectory_points_per_block: int | None = None,
) -> EvolutionResult:
    """Windowed-average steady state of a (possibly driven) generator.

    Evolves block by block, averaging ``observable`` over the trailing
    window of each block, and stops at the first block n whose average
    differs from block n-1 by less than rel_tol in relative terms (with an
    absolute floor so exactly-zero currents converge too).  Raises
    :class:`ConvergenceError` carrying the block averages when
    ``max_blocks`` is exhausted.

    With ``compiled=True`` (and a generator small enough to materialize)
    the blocks are advanced with a precomputed dense map over one drive
    period; block and window lengths are then snapped to whole periods.
    """
    if observable is None:
        raise ValueError("steady_state_averaged needs a current observable")
    if protocol is None:
        protocol = ConvergenceProtocol()
    if rho0 is None:
        rho0 = DensityMatrix.ground_state(generator.layout)
    if rho0.layout != generator.layout:
        raise ValueError("initial state layout does not match generator layout")
    if dt is not None:
        limit = drive_limited_dt(generator.drive_frequencies, default=math.inf)
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {dt} does not resolve the fastest drive; need dt <= {limit:.6g}"
            )

    dt_eff = dt if dt is not None else stability_limited_dt(generator)
    use_compiled = compiled and generator.dim <= SUPEROP_MATERIALIZE_DIM
    grid = None
    if use_compiled:
        try:
            grid = _unit_grid(generator, protocol, dt)
        except ValueError as err:
            logger.warning("falling back to stepping protocol: %s", err)
            use_compiled = False

    if use_compiled:
        u, transform, averages, converged, times, samples = _compiled_protocol(
            generator, rho0, protocol, observable, grid, trajectory_points_per_block
        )
        rho = _complex_state(transform, u, generator.dim)
        method = "compiled-block-map"
        block_eff = grid.units_per_block * grid.duration
        window_eff = grid.window_units * grid.duration
        dt_used = grid.dt
    else:
        if generator.dim > SUPEROP_MATERIALIZE_DIM:
            logger.warning(
                "generator dim %d exceeds the materialization limit; stepping directly "
                "(this can be very slow)", generator.dim,
            )
        rho, averages, converged, times, samples = _stepping_protocol(
            generator, rho0, protocol, observable, dt_eff, trajectory_points_per_block
        )
        method = "stepping"
        steps_per_block = max(1, round(protocol.block_length / dt_eff))
        dt_used = protocol.block_length / steps_per_block
        block_eff = protocol.block_length
        window_eff = min(steps_per_block, max(1, round(protocol.average_window / dt_used))) * dt_used

    if converged is None:
        raise ConvergenceError(
            f"current did not converge within {protocol.max_blocks} blocks "
            f"(last averages {averages[-2]:.6e}, {averages[-1]:.6e})",
            averages,
        )

    rho = 0.5 * (rho + rho.conj().T)
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > TRACE_DRIFT_TOL:
        rho = rho / trace
    final = DensityMatrix.from_matrix(generator.layout, rho, validate=False)
    trajectory = None
    if trajectory_points_per_block:
        trajectory = Trajectory(
            name=observable.name,
            times=np.asarray(times, dtype=np.float64),
            values=np.asarray(samples, dtype=np.float64),
        )
    return EvolutionResult(
        final_state=final,
        converged_value=averages[converged],
        converged_block=converged,
        blocks_used=converged + 1,
        block_averages=averages,
        observable_name=observable.name,
        method=method,
        block_length_effective=block_eff,
        window_effective=window_eff,
        dt=dt_used,
        trajectory=trajectory,
    )
