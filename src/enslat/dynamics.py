"""Exact time propagation of lattice states.

The operator is large, sparse and Hermitian, so states are advanced with a
Chebyshev expansion of the propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967, 1984).  Gershgorin discs give the centre c and half-width a of an
interval holding the spectrum, and for either sign of tau

    exp(-i H tau) phi = e^{-i c tau} sum_k (2 - delta_k0) (-i)^k J_k(a tau) T_k((H - c)/a) phi.

One recurrence serves a window of consecutive output times: the vectors
T_k phi are shared and only the Bessel coefficients differ, so each term
costs one product with the operator, two vector updates for the recurrence
and one per output of the window.  The series is cut where the Bessel tail
bound 2 sum_{k >= K} |J_k(a tau)| meets the budget, an a-priori error bound
that needs no inner products.

Only the trace over the node index is read from the lattice, so each output
is reduced to its density matrix as soon as it is made and then dropped: at
most one window's outputs are alive at a time.

Truncation error of the finite lattice is monitored separately, as the
population of the boundary shell; once the wavefront reaches the boundary the
dynamics are no longer those of the semi-infinite lattice, so crossing the
leakage threshold raises :class:`~enslat.errors.LeakageExceeded`.
:func:`lattice_at` sets up a lattice: the recurrence tables, the operator
built from them and the initial state expanded over the same tables.
:func:`auto_depth` turns the leakage monitor into a depth-selection loop over
such lattices and hands back the one it accepts, ready for :func:`propagate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.blas import zaxpy
from scipy.special import jv

from .errors import DepthCapExceeded, KrylovBreakdown, LeakageExceeded
from .lattice import LatticeBasis, LatticeOperator, boundary_shell, build_general, table_orders
# same function as build_general, unused here: perfbench/tracing.py rebinds it in this module
from .lattice import build_linear  # noqa: F401
from .measures import recurrence_table
from .reduction import partial_trace
from .states import LatticeState

__all__ = [
    "PropagationPlan",
    "LeakageReport",
    "propagate",
    "evolve",
    "propagate_dense",
    "lattice_at",
    "auto_depth",
]

_WINDOW = 32.0   # largest a * (t_last - t_start) that one recurrence serves
_TAIL = 1e-3     # Bessel tail bound of the expansion, in units of the tolerance


@dataclass(frozen=True)
class PropagationPlan:
    """Time grid and numerical controls for one propagation run.

    ``times`` must be strictly increasing and start at 0; ``tol`` is the
    error budget per Chebyshev window (the expansion is cut where its Bessel
    tail bound reaches ``1e-3 * tol``).
    """

    times: np.ndarray
    tol: float = 1e-12
    leakage_threshold: float = 1e-8

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a 1-D grid")
        if times[0] != 0.0:
            raise ValueError("times must start at 0")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "times", times)

    @classmethod
    def linspace(cls, t_max: float, n_steps: int, **kw) -> "PropagationPlan":
        return cls(np.linspace(0.0, t_max, n_steps), **kw)


@dataclass
class LeakageReport:
    """Boundary-shell population and reduced density matrix along the
    trajectory, plus propagator counters.

    ``rho`` holds the partial trace of each output, shape (T, N, N).
    ``centre`` and ``half_width`` describe the Gershgorin interval the
    expansion was scaled to; ``norm_drift`` is the largest
    |‖psi(t_j)‖ - ‖psi(0)‖| over the outputs (‖psi(t_j)‖ - 1 for a
    normalized start).
    """

    times: np.ndarray
    leakage: np.ndarray
    threshold: float
    centre: float = 0.0
    half_width: float = 0.0
    windows: int = 0
    matvecs: int = 0
    norm_drift: float = 0.0
    rho: np.ndarray | None = None

    @property
    def max_leakage(self) -> float:
        return float(np.max(self.leakage)) if self.leakage.size else 0.0

    @property
    def exceeded(self) -> bool:
        return self.max_leakage > self.threshold


def _as_csr(h) -> sp.csr_matrix:
    if isinstance(h, LatticeOperator):
        return h.to_csr()
    return sp.csr_matrix(h)


def _spectral_bounds(h) -> tuple[float, float]:
    """Centre and half-width of the Gershgorin interval holding the spectrum of h."""
    if isinstance(h, LatticeOperator):
        on = h.rows == h.cols
        diag = np.bincount(h.rows[on], h.vals[on].real, minlength=h.dim)
        mag = np.abs(h.vals[~on])
        radius = (np.bincount(h.rows[~on], mag, minlength=h.dim)
                  + np.bincount(h.cols[~on], mag, minlength=h.dim))
    else:
        m = sp.csr_matrix(h)
        diag = m.diagonal().real
        radius = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(m.diagonal())
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise KrylovBreakdown("non-finite operator entries")
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _coefficients(tau: float, centre: float, half: float, budget: float) -> np.ndarray:
    """e^{-i c tau} (2 - delta_k0) (-1)^k J_k(a tau) for k < K.

    These expand exp(-i H tau) phi in the vectors p_k = i^k T_k((H - c)/a) phi;
    K is the smallest order whose tail bound 2 sum_{k >= K} |J_k(a tau)| is
    within ``budget``.
    """
    x = half * tau
    n = int(abs(x)) + 32
    while True:
        bessel = jv(np.arange(n), x)
        if abs(bessel[-1]) <= 1e-3 * budget:   # past k = |x| the terms fall off monotonically
            break
        n *= 2
    tail = 2.0 * np.cumsum(np.abs(bessel[::-1]))[::-1]
    order = max(int(np.argmax(tail <= budget)), 1)
    coef = bessel[:order] * np.exp(-1j * centre * tau)
    coef[1:] *= 2.0
    coef[1::2] *= -1.0
    return coef


def _chebyshev(mat, phi: np.ndarray, taus, centre: float, half: float,
               budget: float) -> tuple[list[np.ndarray], list[float], int]:
    """exp(-i H tau) phi for every tau of one window, from one recurrence.

    ``mat`` is only applied with ``@``.  The recurrence runs on
    p_k = i^k T_k((H - c)/a) phi, which obeys p_{k+1} = p_{k-1} + (2i/a)(H - c) p_k:
    two ``axpy`` updates per term and no separate scaling pass.  Returns the
    vectors, their norms and the number of products with ``mat``.
    """
    coefs = [_coefficients(tau, centre, half, budget) for tau in taus]
    outs = [c[0] * phi for c in coefs]     # with a == 0 (H = c I) this is all: a pure phase
    order = max(c.size for c in coefs)
    if order > 1:
        prev = phi.copy()
        cur = zaxpy(phi, (1j / half) * (mat @ phi), a=-1j * centre / half)
        for k in range(1, order):
            for i, c in enumerate(coefs):
                if k < c.size:
                    outs[i] = zaxpy(cur, outs[i], a=c[k])
            if k + 1 < order:
                prev = zaxpy(mat @ cur, prev, a=2j / half)
                prev = zaxpy(cur, prev, a=-2j * centre / half)
                prev, cur = cur, prev
    norms = [float(np.linalg.norm(v)) for v in outs]
    if not np.all(np.isfinite(norms)):
        raise KrylovBreakdown("non-finite values during propagation")
    return outs, norms, order - 1


def evolve(h, psi: np.ndarray, dt: float, tol: float = 1e-12) -> np.ndarray:
    """Apply exp(-i H dt) to a vector (dt of either sign); one Chebyshev window.

    Low-level kernel behind :func:`propagate`; returns a new vector.
    """
    centre, half = _spectral_bounds(h)
    (out,), _, _ = _chebyshev(_as_csr(h), np.asarray(psi, dtype=complex), [float(dt)],
                              centre, half, _TAIL * tol)
    return out


def propagate(h, psi0: LatticeState, plan: PropagationPlan, *, keep_states: bool = False
              ) -> tuple[list[LatticeState], LeakageReport]:
    """Propagate psi0 over the plan's time grid under the lattice operator.

    Returns the states psi(t_j) = exp(-i H t_j) psi0 (an empty list unless
    ``keep_states``) together with a :class:`LeakageReport` holding the
    partial trace of each state, the boundary-shell population at each grid
    time and the propagator's counters.  Each output is reduced as soon as
    its window is computed, so without ``keep_states`` at most one window's
    states are alive at a time.  Consecutive grid times are grouped into
    windows with a * (t_last - t_start) <= 32, each served by one Chebyshev
    recurrence from the state at t_start.  The norm is preserved to the
    expansion tolerance (the evolution is unitary; leakage is *monitored*,
    not absorbed).

    Raises
    ------
    LeakageExceeded
        When the shell population crosses ``plan.leakage_threshold``; the
        exception's report carries the partial trajectory.
    """
    basis = psi0.basis
    csr = _as_csr(h)
    if csr.shape[0] != basis.size:
        raise ValueError(f"operator dim {csr.shape[0]} != basis size {basis.size}")
    centre, half = _spectral_bounds(h)
    shell = boundary_shell(basis)
    times = plan.times
    stats = {"windows": 0, "matvecs": 0, "norm_drift": 0.0}

    def report(n: int) -> LeakageReport:
        return LeakageReport(times[:n].copy(), leak[:n].copy(), plan.leakage_threshold,
                             centre, half, **stats, rho=rho[:n].copy())

    states: list[LatticeState] = []
    leak = np.zeros(times.size)
    rho = np.zeros((times.size, basis.n_system, basis.n_system), dtype=complex)
    cur = psi0.amplitudes.astype(complex)
    norm0 = float(np.linalg.norm(cur))
    start, block, norms = 0, [cur], [norm0]
    while True:
        for j, (vec, nrm) in enumerate(zip(block, norms), start):
            state = LatticeState(basis, vec)
            leak[j] = float(np.sum(np.abs(vec[shell]) ** 2))
            rho[j] = partial_trace(state)
            stats["norm_drift"] = max(stats["norm_drift"], abs(nrm - norm0))
            if keep_states:
                states.append(state)
            if leak[j] > plan.leakage_threshold:
                raise LeakageExceeded(
                    f"boundary-shell population {leak[j]:.3e} > {plan.leakage_threshold:.1e} "
                    f"at t = {times[j]:g}: lattice depth too small for this horizon",
                    time=times[j], leakage=leak[j], report=report(j + 1))
        base = start + len(block) - 1
        if base + 1 == times.size:
            return states, report(times.size)
        stop = base + 2
        while stop < times.size and half * (times[stop] - times[base]) <= _WINDOW:
            stop += 1
        phi = block[-1]
        del block            # drop this window's outputs; only the next base stays alive
        block, norms, used = _chebyshev(csr, phi, times[base + 1:stop] - times[base],
                                        centre, half, _TAIL * plan.tol)
        stats["windows"] += 1
        stats["matvecs"] += used
        start = base + 1


def propagate_dense(h, psi0: LatticeState, times) -> list[LatticeState]:
    """Reference path: exact evolution by dense eigendecomposition.

    Cross-check for the Chebyshev propagator; refuses dimensions above 2000.
    """
    basis = psi0.basis
    hd = h.to_dense() if isinstance(h, LatticeOperator) else np.asarray(h)
    if hd.shape[0] > 2000:
        raise ValueError("dense path limited to dimension <= 2000")
    evals, vecs = eigh(hd)
    c0 = vecs.conj().T @ psi0.amplitudes
    return [LatticeState(basis, vecs @ (np.exp(-1j * evals * t) * c0))
            for t in np.asarray(times, dtype=float)]


def lattice_at(spec, psi0_builder, depths) -> tuple[LatticeOperator, LatticeState]:
    """Operator and initial state of the lattice truncated at ``depths``.

    The operator is assembled by :func:`build_general` from the
    :func:`~enslat.measures.recurrence_table` of each distribution, at the
    orders :func:`~enslat.lattice.table_orders` gives; ``psi0_builder(basis,
    tables)`` returns the initial :class:`LatticeState`, given those same
    tables.
    """
    tables = [recurrence_table(dist, order)
              for dist, order in zip(spec.distributions, table_orders(spec, depths))]
    # the state before the operator: built after it, the 2-D dimer peaks one
    # state vector (~5 MB) higher
    psi0 = psi0_builder(LatticeBasis(spec.n, depths), tables)
    return build_general(spec, tables, depths), psi0


def auto_depth(spec, psi0_builder, plan: PropagationPlan, *, start: int = 16,
               cap: int = 4096) -> tuple[tuple, LatticeOperator, LatticeState]:
    """Choose truncation depths by doubling until the dynamics are stable.

    Per-dimension depth starts at `start` and doubles until (a) the boundary
    leakage at the plan's last time is below the plan threshold and (b) the
    reduced density matrix at that time changes by less than
    ``10 * plan.tol`` in max entry between successive depths.  Each depth is
    set up by :func:`lattice_at` and probed by one propagation to the last
    time of the plan, with the plan's tolerance and threshold.

    Parameters
    ----------
    psi0_builder : callable
        ``(basis, tables) -> LatticeState``, as for :func:`lattice_at`.

    Returns
    -------
    depths, op, psi0
        The accepted depths and the operator and initial state of that
        lattice, ready for :func:`propagate` over the full plan.

    Raises
    ------
    DepthCapExceeded
        If the cap is reached without satisfying both criteria.
    """
    probe = PropagationPlan(np.array([0.0, plan.times[-1]]), tol=plan.tol,
                            leakage_threshold=plan.leakage_threshold)
    prev_rho = None
    depth = start
    while depth <= cap:
        depths = (depth,) * spec.l
        op, psi0 = lattice_at(spec, psi0_builder, depths)
        try:
            _, report = propagate(op, psi0, probe)
        except LeakageExceeded:
            prev_rho = None
            depth *= 2
            continue
        if report.leakage[-1] == 0.0:
            return depths, op, psi0      # nothing reached the boundary: no transport
        rho = report.rho[-1]
        if prev_rho is not None and np.max(np.abs(rho - prev_rho)) < 10 * plan.tol:
            return depths, op, psi0
        prev_rho = rho
        depth *= 2
    raise DepthCapExceeded(f"no stable depth found up to cap {cap}")
