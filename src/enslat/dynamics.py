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

The wavefront moves out from the origin at a finite speed, so each window
runs on the box of the lattice it occupies, the nodes with max_i k_i up to
some radius: the smaller of the window's light cone, where the result is
exact, and the measured front plus its projected advance.  The box leaves at
most (1e-3 * tol)**2 of the population outside; a window whose outputs put
more than that on the box's outer shells is run again on a wider box.  The
lattice basis lays its nodes out by that radius, so every box is a prefix of
the vectors and a block of leading rows of one CSR matrix.

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
_SHELLS = 4      # shells a box keeps beyond the front's projected advance
_GROW = 2.0      # factor a redo widens that margin by


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
    normalized start).  ``op_dim`` is the dimension of the whole operator
    and ``op_nnz`` the nonzeros of the matrix it runs on; for a
    :class:`~enslat.lattice.LatticeOperator` that is the CSR matrix of its
    Hermitian completion (1,184,260 on the shipped dimer).  It is not
    :attr:`LatticeOperator.nnz <enslat.lattice.LatticeOperator.nnz>`, the
    stored upper-triangle triplets (740,355 there), which
    ``perfbench/tracing.py`` reports as ``lattice.op_nnz``.  The box record:
    ``box`` holds the per-axis depths of the last box the windows ran on,
    ``box_growths`` how often it grew, ``redos`` how many windows were run
    again on a larger box, and ``active_fraction`` the products' share of the
    work a whole-lattice run would do, sum(box size * products) / (operator
    dim * products).
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
    op_dim: int = 0
    op_nnz: int = 0
    box: tuple = ()
    box_growths: int = 0
    redos: int = 0
    active_fraction: float = 1.0

    @property
    def max_leakage(self) -> float:
        return float(np.max(self.leakage)) if self.leakage.size else 0.0

    @property
    def exceeded(self) -> bool:
        return self.max_leakage > self.threshold


def _as_csr(h) -> sp.csr_matrix:
    if isinstance(h, LatticeOperator):
        return h.to_csr()
    return h if isinstance(h, sp.csr_matrix) else sp.csr_matrix(h)


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


def _chebyshev(mat, phi: np.ndarray, coefs, centre: float, half: float
               ) -> tuple[list[np.ndarray], list[float], int]:
    """exp(-i H tau) phi for every tau of one window, from one recurrence.

    ``coefs`` holds the :func:`_coefficients` of each tau.  Of ``mat`` only
    ``shape`` is read and ``@`` applied.  It may be the leading block of rows
    of H, of shape (m, n), n <= len(phi): a box (see :class:`_Boxes`).  Then
    only the first n entries of each vector are computed, and the rest, zero
    in ``phi``, stay zero.  The recurrence runs on p_k = i^k T_k((H - c)/a) phi, which
    obeys p_{k+1} = p_{k-1} + (2i/a)(H - c) p_k: two ``axpy`` updates per term,
    in place on those leading entries, and no separate scaling pass.  It takes
    ``phi`` over as p_0, so ``phi`` is overwritten.  Returns the vectors,
    their norms and the number of products with ``mat``.
    """
    rows, act = mat.shape
    outs = [np.zeros_like(phi) for _ in coefs]
    heads = [out[:act] for out in outs]
    for head, c in zip(heads, coefs):  # with a == 0 (H = c I) this is all: a pure phase
        np.multiply(c[0], phi[:act], out=head)
    order = max(c.size for c in coefs)
    if order > 1:
        # views of the leading entries, which zaxpy updates in place; an update
        # by a product (m entries) reaches the first m
        prev, cur = phi[:act], np.zeros_like(phi)[:act]
        np.multiply(1j / half, mat @ prev, out=cur[:rows])
        zaxpy(prev, cur, a=-1j * centre / half)
        for k in range(1, order):
            for head, c in zip(heads, coefs):
                if k < c.size:
                    zaxpy(cur, head, a=c[k])
            if k + 1 < order:
                zaxpy(mat @ cur, prev, a=2j / half)
                zaxpy(cur, prev, a=-2j * centre / half)
                prev, cur = cur, prev
    norms = [float(np.linalg.norm(head)) for head in heads]
    if not np.all(np.isfinite(norms)):
        raise KrylovBreakdown("non-finite values during propagation")
    return outs, norms, order - 1


def evolve(h, psi: np.ndarray, dt: float, tol: float = 1e-12) -> np.ndarray:
    """Apply exp(-i H dt) to a vector (dt of either sign); one Chebyshev window.

    Low-level kernel behind :func:`propagate`; returns a new vector.
    """
    centre, half = _spectral_bounds(h)
    coefs = [_coefficients(float(dt), centre, half, _TAIL * tol)]
    (out,), _, _ = _chebyshev(_as_csr(h), np.array(psi, dtype=complex), coefs, centre, half)
    return out


class _Boxes:
    """The lattice as nested boxes, for :func:`propagate`.

    The basis lays its nodes out by shell s = max_i k_i, so the box of radius
    r, every node with s <= r, is a prefix of the flat layout, and its
    operator a block of leading rows of one CSR matrix, built once.  One
    product moves amplitude across at most ``band`` shells, so the rows of
    box r reach only the columns of box r + band.  Vectors keep the whole
    lattice's length, zero outside the box: a box limits which entries are
    computed, not what is allocated, so every vector has one size.  An
    operator that is not a :class:`LatticeOperator` is one shell: its only box
    is the whole lattice.
    """

    def __init__(self, h, basis: LatticeBasis):
        self.basis = basis
        if isinstance(h, LatticeOperator):
            shells = basis.node_multi_indices().max(axis=1)
            self.band = _shell_band(h, shells)
            counts = np.bincount(shells)
            self.csr = h.to_csr()
            self.nnz = self.csr.nnz
        else:
            self.band, self.csr, counts = 0, h, [basis.node_count]
            self.nnz = h.nnz if sp.issparse(h) else int(np.count_nonzero(h))
        self.starts = basis.n_system * np.concatenate([[0], np.cumsum(counts)])
        self.outer = len(counts) - 1    # radius of the whole lattice

    def rows(self, r: int) -> int:
        """Size of box r."""
        return int(self.starts[min(r, self.outer) + 1])

    def depths(self, r: int) -> tuple:
        """Per-axis depths of box r."""
        if r >= self.outer:             # also the one shell of an operator given as a matrix
            return self.basis.depths
        return tuple(min(r, d) for d in self.basis.depths)

    def op(self, r: int):
        """The operator of box r, through :func:`_as_csr`: the box's rows and
        the columns they reach, as views of the whole CSR matrix."""
        if r >= self.outer:
            return _as_csr(self.csr)
        m, cols = self.rows(r), self.rows(r + self.band)
        end = self.csr.indptr[m]
        box = sp.csr_matrix((m, cols), dtype=self.csr.dtype)
        # assigned, not passed to the constructor, which copies arrays under half their base
        box.indptr, box.indices, box.data = (
            self.csr.indptr[:m + 1], self.csr.indices[:end], self.csr.data[:end])
        return _as_csr(box)

    def populations(self, vec: np.ndarray, r: int) -> np.ndarray:
        """Population of each shell of box r."""
        return np.add.reduceat(np.abs(vec[:self.rows(r)]) ** 2,
                               self.starts[:min(r, self.outer) + 1])

    def edge(self, vec: np.ndarray, r: int) -> float:
        """Population on the outer ``band`` shells of box r."""
        outer = vec[self.starts[max(r - self.band + 1, 0)]:self.rows(r)]
        return float(np.vdot(outer, outer).real)


def _shell_band(op: LatticeOperator, shells: np.ndarray) -> int:
    """Largest shell difference between the two nodes of an operator entry."""
    n, step, band = op.dim // shells.size, 1 << 16, 0
    for lo in range(0, op.nnz, step):       # in pieces: no temporaries the operator's size
        rows, cols = op.rows[lo:lo + step] // n, op.cols[lo:lo + step] // n
        band = max(band, int(np.max(np.abs(shells[rows] - shells[cols]))))
    return band


def _front(pops: np.ndarray, floor: float) -> int:
    """Smallest shell beyond which the population is at most ``floor``."""
    beyond = np.cumsum(pops[::-1])[::-1]        # population on shells >= s
    above = np.flatnonzero(beyond > floor)
    return int(above[-1]) if above.size else 0


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

    Each window of a :class:`LatticeOperator` runs on the box of the lattice
    the wavefront occupies (see :class:`_Boxes`), leaving at most
    (``_TAIL`` * tol)**2 of the population outside.  The box is the smaller
    of the light cone (the base state's support plus the window's products
    times the band width), inside which the result is exact, and the
    measured front plus its projected advance and ``_SHELLS`` shells.  A
    window whose outputs put more than that population on the box's outer
    band shells is run again on a wider box.  The start keeps its shells out
    to its front.  The Gershgorin interval, and so every window's order, is
    that of the whole operator.

    Raises
    ------
    LeakageExceeded
        When the shell population crosses ``plan.leakage_threshold``; the
        exception's report carries the partial trajectory.
    """
    basis = psi0.basis
    dim = h.dim if isinstance(h, LatticeOperator) else np.shape(h)[0]
    if dim != basis.size:
        raise ValueError(f"operator dim {dim} != basis size {basis.size}")
    boxes = _Boxes(h, basis)
    centre, half = _spectral_bounds(h)
    shell = boundary_shell(basis)
    floor = (_TAIL * plan.tol) ** 2             # population a box may leave outside
    times = plan.times
    stats = {"windows": 0, "matvecs": 0, "norm_drift": 0.0, "box_growths": 0, "redos": 0}
    work = 0                                    # sum of box size * products

    def report(n: int) -> LeakageReport:
        active = work / (dim * stats["matvecs"]) if stats["matvecs"] else 1.0
        return LeakageReport(times[:n].copy(), leak[:n].copy(), plan.leakage_threshold,
                             centre, half, **stats, rho=rho[:n].copy(), op_dim=dim,
                             op_nnz=boxes.nnz, box=boxes.depths(r), active_fraction=active)

    states: list[LatticeState] = []
    leak = np.zeros(times.size)
    rho = np.zeros((times.size, basis.n_system, basis.n_system), dtype=complex)
    cur = psi0.amplitudes.copy()
    norm0 = float(np.linalg.norm(cur))
    r = _front(boxes.populations(cur, boxes.outer), floor)
    cur[boxes.rows(r):] = 0.0                   # the start keeps its shells out to its front
    start, block, norms = 0, [cur], [norm0]
    del cur
    mat, last = None, None
    while True:
        for j, (vec, nrm) in enumerate(zip(block, norms), start):
            state = LatticeState(basis, vec)
            leak[j] = float(np.sum(np.abs(vec[shell]) ** 2))
            rho[j] = partial_trace(state)
            stats["norm_drift"] = max(stats["norm_drift"], abs(nrm - norm0))
            if keep_states:
                states.append(LatticeState(basis, vec.copy()))
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
        coefs = [_coefficients(tau, centre, half, _TAIL * plan.tol)
                 for tau in times[base + 1:stop] - times[base]]
        products = max(c.size for c in coefs) - 1
        phi = block[-1]
        del block            # drop this window's outputs; only the next base stays alive
        pops = boxes.populations(phi, r)
        front = _front(pops, floor)
        support = np.flatnonzero(pops)
        cone = min(int(support[-1] if support.size else 0) + products * boxes.band, boxes.outer)
        if last is None:     # no measured advance yet: the front may move as far as the cone
            margin = products * boxes.band + _SHELLS
        else:
            speed = max(front - last[0], 0) / (times[base] - last[1])
            margin = int(np.ceil(speed * (times[stop - 1] - times[base]))) + _SHELLS
        last = (front, times[base])
        while True:
            box = max(r, min(front + margin, cone))
            stats["box_growths"] += box != r
            if mat is None or box != r:
                r, mat = box, boxes.op(box)
            # the recurrence overwrites its start: a copy, while a redo may need it
            block, norms, used = _chebyshev(mat, phi if r >= cone else phi.copy(), coefs,
                                            centre, half)
            stats["matvecs"] += used
            work += boxes.rows(r) * used
            if r >= cone or all(boxes.edge(vec, r) <= floor for vec in block):
                break
            stats["redos"] += 1  # the front outran the box: widen it and run the window again
            margin = int(np.ceil(_GROW * margin))
        stats["windows"] += 1
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
