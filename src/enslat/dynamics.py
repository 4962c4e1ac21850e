"""Exact time propagation of lattice states.

The operator, a :class:`~enslat.lattice.LatticeOperator`, is large, sparse
and Hermitian, so states are advanced with a Chebyshev expansion of the
propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).  Gershgorin
discs give the centre c and half-width a of an interval holding the
spectrum, and

    exp(-i H tau) phi = e^{-i c tau} sum_k (2 - delta_k0) (-i)^k J_k(a tau) T_k((H - c)/a) phi.

One recurrence serves a window of consecutive output times: the vectors
T_k phi are shared, and one pass of Miller's recurrence gives the window's
Bessel coefficients.  Each term costs one product with the operator and two
vector updates for the recurrence; the outputs take the terms two at a time,
in one matrix product (ZGEMM) that reads the pair once and updates every
output in place, so each output is read and written once per two terms.
The series is cut where the Bessel tail bound 2 sum_{k >= K} |J_k(a tau)|
meets the budget, an a-priori error bound that needs no inner products.

Only the trace over the node index is read from the lattice, so each output
is reduced to its density matrix as soon as it is made and then dropped: at
most one window's outputs are alive at a time, each of its box's length.

The wavefront moves out from the origin at a finite speed, a band of shells
sum_i k_i per product, so each window runs on the box of the lattice it
occupies, the nodes with sum_i k_i up to some radius (on a 2-D lattice a
diamond, not its bounding square): the smaller of the window's light cone,
where the result is exact, and the measured front plus its projected
advance.  The box leaves at most (1e-3 * tol)**2 of the population outside;
a window whose outputs put more than that on the box's outer shells is run
again on a wider box.  The lattice basis lays its nodes out by that radius,
so every box is a prefix of the vectors and a block of leading rows of one
CSR matrix.

Truncation error of the finite lattice is monitored separately, as the
population of the boundary shell; once the wavefront reaches the boundary the
dynamics are no longer those of the semi-infinite lattice, so crossing the
leakage threshold raises :class:`~enslat.errors.LeakageExceeded`.
:func:`auto_depth` propagates once, on a lattice that grows toward a cap as
the wavefront needs it; a pinned depth is a lattice that starts at its cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import zaxpy, zgemm

from .errors import LeakageExceeded, NormDefectExceeded, NumericalBreakdown
from .lattice import LatticeBasis, LatticeOperator, boundary_shell, build_general, table_orders
from .lattice import build_linear  # noqa: F401  unused; perfbench/tracing.py rebinds it here
from .measures import recurrence_table
from .reduction import partial_trace
from .states import LatticeState

__all__ = [
    "PropagationPlan",
    "LeakageReport",
    "propagate",
    "auto_depth",
]

_WINDOW = 32.0   # largest a * (t_last - t_start) that one recurrence serves
_TAIL = 1e-3     # Bessel tail bound of the expansion, in units of the tolerance
_SHELLS = 4      # shells a box keeps beyond the front's projected advance
_GROW = 2        # factor a redo widens that margin by


@dataclass(frozen=True)
class PropagationPlan:
    """Time grid and numerical controls for one propagation run.

    ``times`` must be strictly increasing and start at 0; ``tol`` is the
    error budget per Chebyshev window (the expansion is cut where its Bessel
    tail bound reaches ``1e-3 * tol``), positive and finite.  A boundary-shell
    population above ``leakage_threshold`` (>= 0; inf for no check) raises.
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
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if not self.leakage_threshold >= 0:
            raise ValueError(f"leakage_threshold must be >= 0, got {self.leakage_threshold!r}")
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
    normalized start), each ‖psi(t_j)‖ read from its partial trace as
    sqrt(tr rho(t_j)).  ``growth`` holds the per-axis depths of each lattice
    the run used; the interval and ``op_dim``, the dimension of the whole
    operator, and ``op_nnz``, the entries of its matrix, both triangles
    (1,184,260 on the shipped dimer), are the last one's.  The box record:
    ``box`` holds the per-axis reach min(r, D_i) of the last box the windows
    ran on, the l1 ball sum_i k_i <= r, ``box_growths`` how often it grew,
    ``redos`` how many windows were run again on a larger box, and
    ``active_fraction`` the products' share of the work a whole-lattice run
    would do, sum(box size * products) / (operator dim * products).
    ``initial_norm_defect`` is the Parseval norm defect of an expanded start
    (see :func:`~enslat.states.expanded_initial`), None for a localized one.
    """

    times: np.ndarray
    leakage: np.ndarray
    centre: float = 0.0
    half_width: float = 0.0
    windows: int = 0
    matvecs: int = 0
    norm_drift: float = 0.0
    rho: np.ndarray | None = None
    op_dim: int = 0
    op_nnz: int = 0
    growth: tuple = ()
    box: tuple = ()
    box_growths: int = 0
    redos: int = 0
    active_fraction: float = 1.0
    initial_norm_defect: float | None = None

    @property
    def max_leakage(self) -> float:
        return float(np.max(self.leakage)) if self.leakage.size else 0.0


def _as_csr(m: sp.csr_matrix) -> sp.csr_matrix:
    return m        # as given: perfbench/tracing.py rebinds this name to count products


def _spectral_bounds(m: sp.csr_matrix) -> tuple[float, float]:
    """Centre and half-width of the Gershgorin interval of the CSR matrix m.

    Each row's entries above and below the diagonal are summed apart, in
    column order; rows are taken in pieces, so no temporaries the matrix's size.
    """
    lo, hi = np.inf, -np.inf
    for start in range(0, m.shape[0], 1 << 15):
        ptr = m.indptr[start:start + (1 << 15) + 1]
        rows = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
        side, vals = m.indices[ptr[0]:ptr[-1]] - rows - start, m.data[ptr[0]:ptr[-1]]
        diag = np.bincount(rows[side == 0], vals[side == 0].real, minlength=ptr.size - 1)
        radius = sum(np.bincount(rows[s], np.abs(vals[s]), minlength=ptr.size - 1)
                     for s in (side > 0, side < 0))
        lo, hi = min(lo, float(np.min(diag - radius))), max(hi, float(np.max(diag + radius)))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalBreakdown("non-finite operator entries")
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _coefficients(taus: np.ndarray, centre: float, half: float, budget: float) -> tuple:
    """The coefficient table of one window, terms x outputs, and each output's order.

    Column j holds e^{-i c tau_j} (2 - delta_k0) (-1)^k J_k(a tau_j) for k < K_j, then
    zeros, in an even number of rows: the coefficients of exp(-i H tau_j) phi in
    p_k = i^k T_k((H - c)/a) phi.  K_j is the smallest order whose tail bound
    2 sum_{k >= K} |J_k(a tau_j)| is within ``budget``.  One pass of Miller's
    recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, from past the table and |x| and
    normalized by J_0 + 2 sum_k J_2k = 1, serves every x = a tau.  It gives J_k for
    k <= n, the first n with (|x|/2)^n/n! <= 1e-3 * budget, a bound on |J_n(x)|, so
    every tail is within budget by row n.  Up to |x| = 100 each J_k is within a few
    units of rounding of max |J|; scipy's ``jv`` is off by 17 at x = 30, in every
    window of that step.
    """
    x = half * taus
    big = float(np.max(np.abs(x), initial=0.0))
    n = 1
    while big and n * math.log(big / 2) - math.lgamma(n + 1) > math.log(1e-3 * budget):
        n += 1
    bessel = np.zeros((n + 1, x.size))
    bessel[0] = 1.0                     # where J_1 = x/2 is below any rounding of J_0 = 1
    run = np.flatnonzero(np.abs(x) >= 1e-100)
    if run.size:
        top = n + 33 + int(big) // 4
        vals = np.zeros((top + 2, run.size))    # J_{top+1} = 0, J_top = 1 unnormalized
        vals[top] = 1.0
        ratio = (2.0 * np.arange(top + 1))[:, None] / x[run]
        for k in range(top, 0, -1):
            np.multiply(ratio[k], vals[k], out=vals[k - 1])
            vals[k - 1] -= vals[k + 1]
            if np.abs(vals[k - 1]).max() > 1e150:   # rescale; what it shrinks away is negligible
                vals[k - 1:, np.abs(vals[k - 1]) > 1e150] *= 1e-150
        bessel[:, run] = vals[:n + 1] / [2.0 * math.fsum(v) - v[0] for v in vals[::2].T.tolist()]
    tail = 2.0 * np.cumsum(np.abs(bessel[::-1]), axis=0)[::-1]
    orders = np.maximum(np.argmax(tail <= budget, axis=0), 1)
    rows = int(orders.max())
    table = bessel[:rows + rows % 2] * np.exp(-1j * centre * taus)
    table[1:] *= 2.0
    table[1::2] *= -1.0
    table[np.arange(table.shape[0])[:, None] >= orders] = 0.0
    return table, orders


def _add_terms(outs: np.ndarray, terms: np.ndarray, coef: np.ndarray) -> None:
    """outs += coef^T terms, in place, with one ZGEMM.

    The outputs are the rows of ``outs``, the terms those of ``terms``, and
    ``coef`` holds a coefficient per (term, output).  f2py quietly copies a
    ``c`` that is not Fortran-contiguous and updates the copy, so ``outs``
    must be C-contiguous: anything else would lose every update, and raises.
    """
    acc = outs.T
    if zgemm(1.0, terms.T, coef, beta=1.0, c=acc, overwrite_c=1) is not acc:
        raise ValueError("outputs must be the rows of a C-contiguous array, to update in place")


def _start_pair(phi: np.ndarray, n: int) -> np.ndarray:
    """The (2, n) recurrence array of :func:`_chebyshev` for the start phi:
    phi's first n entries in row 0, zero past its end, and zeros in row 1."""
    pair = np.zeros((2, n), complex)
    pair[0, :phi.size] = phi[:n]
    return pair


def _chebyshev(mat, pair: np.ndarray, table: np.ndarray, orders: np.ndarray, centre: float,
               half: float) -> tuple[np.ndarray, int]:
    """exp(-i H tau) phi for every tau of one window, from one recurrence.

    ``table`` and ``orders`` are the window's :func:`_coefficients`.  Of ``mat`` only
    ``shape`` is read and ``@`` applied.  It may be the leading block of rows
    of H, of shape (m, n): a box (see :class:`_Boxes`).  Every vector has the
    box's length n.  ``pair`` is the :func:`_start_pair` of phi, and the
    recurrence overwrites it, so a caller that drops phi holds no second copy
    of the start.  The recurrence runs on p_k = i^k T_k((H - c)/a) phi, which
    obeys p_{k+1} = p_{k-1} + (2i/a)(H - c) p_k: two ``axpy`` updates per term,
    in place over the older row of ``pair`` (p_k in row k % 2), and no
    separate scaling pass.  After each pair of terms one ZGEMM adds both into
    every output whose series has not ended (:func:`_add_terms`), by the table's
    two rows.  Returns the outputs as the rows of one (len(orders), n) array and
    the number of products with ``mat``.
    """
    order = int(orders.max())
    outs = np.zeros((orders.size, mat.shape[1]), complex)
    for k in range(0, order, 2):
        # p_j over p_{j-2}, and p_1 = (i/a)(H - c) p_0 over zeros; an update by a
        # product (m entries) reaches the first m.  With a == 0 (H = c I) there
        # is no p_1: the outputs are a pure phase.
        for j in range(max(k, 1), min(k + 2, order)):
            new, old, step = pair[j % 2], pair[1 - j % 2], 1j if j == 1 else 2j
            zaxpy(mat @ old, new, a=step / half)
            zaxpy(old, new, a=-step * centre / half)
        live = int(np.argmax(orders > k))   # the outputs before it have ended
        _add_terms(outs[live:], pair, table[k:k + 2, live:])
    return outs, order - 1


class _Boxes:
    """The lattice as nested boxes, for :func:`propagate`.

    The basis lays its nodes out by shell s = sum_i k_i, so the box of radius
    r, every node with s <= r, is a prefix of the flat layout, and its
    operator a block of leading rows of the operator's CSR matrix.  One
    product moves amplitude across at most ``band`` shells, so the rows of
    box r reach only the columns of box r + band.  A window's vectors have
    the length of those columns, the prefix of the lattice's vectors that can
    be nonzero; the rest are zero and not stored.  ``outer``, the radius of
    the whole lattice, is sum_i D_i, and a box of radius r > D_i already
    meets the boundary k_i = D_i.  ``h`` is the :class:`LatticeOperator` of
    the lattice ``basis`` lays out.
    """

    def __init__(self, h: LatticeOperator, basis: LatticeBasis):
        shells = basis.node_shells()
        self.basis, self.csr, self.nnz = basis, h.csr, h.nnz
        self.band, counts = _shell_band(h.csr, shells), np.bincount(shells)
        self.starts = basis.n_system * np.concatenate([[0], np.cumsum(counts)])
        self.outer = len(counts) - 1    # radius of the whole lattice
        self.centre, self.half = _spectral_bounds(self.csr)   # the Gershgorin interval
        self.shell = boundary_shell(basis)

    def rows(self, r: int) -> int:
        """Size of box r."""
        return int(self.starts[min(r, self.outer) + 1])

    def op(self, r: int):
        """The operator of box r, through :func:`_as_csr`: the box's rows and
        the columns they reach, as views of the whole CSR matrix."""
        m, cols = self.rows(r), self.rows(r + self.band)
        end = self.csr.indptr[m]
        box = sp.csr_matrix((m, cols), dtype=self.csr.dtype)
        # assigned, not passed to the constructor, which copies arrays under half their base
        box.indptr, box.indices, box.data = (
            self.csr.indptr[:m + 1], self.csr.indices[:end], self.csr.data[:end])
        return _as_csr(box)

    def weights(self, vec: np.ndarray, r: int) -> np.ndarray:
        """Population of each shell of box r."""
        return np.add.reduceat(np.abs(vec[:self.rows(r)]) ** 2,
                               self.starts[:min(r, self.outer) + 1])

    def edge(self, vec: np.ndarray, r: int) -> float:
        """Population on the outer ``band`` shells of box r."""
        outer = vec[self.starts[max(r - self.band + 1, 0)]:self.rows(r)]
        return float(np.vdot(outer, outer).real)


def _shell_band(csr: sp.csr_matrix, shells: np.ndarray) -> int:
    """Largest shell difference between the two nodes of a stored entry.  Nodes
    are laid out by shell and the matrix is Hermitian with sorted columns, so
    each row's last column reaches farthest."""
    n = csr.shape[0] // shells.size
    rows = np.flatnonzero(np.diff(csr.indptr))
    last = csr.indices[csr.indptr[rows + 1] - 1]
    return int(np.max(shells[last // n] - shells[rows // n], initial=0))


def _relabel(vec: np.ndarray, old: LatticeBasis, new: LatticeBasis) -> np.ndarray:
    """A prefix of ``old``'s layout as the same state in ``new``'s, a lattice
    with every node of ``old``: the shortest prefix of ``new``'s layout that
    holds its nodes.  Each node keeps its shell, so a box stays a box."""
    n = old.n_system
    nodes = new.node_index(old.node_multi_indices()[:vec.size // n])
    out = np.zeros((int(nodes.max(initial=-1)) + 1, n), complex)
    out[nodes] = vec.reshape(-1, n)
    return out.ravel()


def _front(pops: np.ndarray, floor: float) -> int:
    """Smallest shell beyond which the population is at most ``floor``."""
    beyond = np.cumsum(pops[::-1])[::-1]        # population on shells >= s
    above = np.flatnonzero(beyond > floor)
    return int(above[-1]) if above.size else 0


def propagate(h: LatticeOperator, psi0: LatticeState, plan: PropagationPlan, *,
              keep_states: bool = False, grow=None) -> tuple[list[LatticeState], LeakageReport]:
    """Propagate psi0 over the plan's time grid under the lattice operator h.

    ``h`` is the :class:`LatticeOperator` of the lattice ``psi0.basis`` lays
    out; anything else raises TypeError.  Returns the states
    psi(t_j) = exp(-i H t_j) psi0 (an empty list unless ``keep_states``)
    together with a :class:`LeakageReport` holding the partial trace of each
    state, the boundary-shell population at each grid time and the
    propagator's counters.  Each output is reduced as soon as its window is
    computed, so without ``keep_states`` at most one window's states are
    alive at a time.  An output has its box's length (see :class:`_Boxes`):
    the trace and the leakage read that prefix, past which the state is
    zero, and ``keep_states`` pads each state to the lattice.  Consecutive
    grid times are grouped into windows with a * (t_last - t_start) <= 32,
    each served by one Chebyshev recurrence from the state at t_start and by
    one table of coefficients (:func:`_coefficients`), made whenever the
    window is planned: once, and again on a grown lattice or for a redo.  The
    norm is preserved to the expansion tolerance (the evolution is unitary;
    leakage is *monitored*, not absorbed).

    Each window runs on the box of the lattice the wavefront occupies (see
    :class:`_Boxes`), leaving at most (``_TAIL`` * tol)**2 of the population
    outside.  The box is the smaller of the light cone (the base state's
    support plus the window's products times the band width), inside which
    the result is exact, and the measured front plus its projected advance
    and ``_SHELLS`` shells.  A window whose outputs put more than that
    population on the box's outer band shells is run again on a wider box.
    The start keeps its shells out to its front.  The Gershgorin interval,
    and so every window's order, is that of the whole operator.

    Before a window whose box and band pass shell min_i D_i, where a box
    first meets a boundary, ``grow(radius)`` may return the operator and
    basis of a lattice with every node of this one, as deep as the radius
    along each axis that is not at its final depth, to plan the window on;
    None keeps this lattice.  The state moves to the larger lattice node by
    node (:func:`_relabel`): the two layouts agree only through shell
    min_i D_i over the axes that deepen.

    Raises
    ------
    LeakageExceeded
        When the shell population crosses ``plan.leakage_threshold``; the
        exception's report carries the partial trajectory.
    """
    if not isinstance(h, LatticeOperator):
        raise TypeError(f"propagate takes a LatticeOperator, not {type(h).__name__}")
    basis = psi0.basis
    if h.dim != basis.size:
        raise ValueError(f"operator dim {h.dim} != basis size {basis.size}")
    boxes = _Boxes(h, basis)
    growth = [basis.depths]
    floor = (_TAIL * plan.tol) ** 2             # population a box may leave outside
    times = plan.times
    stats = {"windows": 0, "matvecs": 0, "norm_drift": 0.0, "box_growths": 0, "redos": 0}
    work = 0                                    # sum of box size * products

    def report(n: int) -> LeakageReport:
        dim = boxes.basis.size
        active = work / (dim * stats["matvecs"]) if stats["matvecs"] else 1.0
        return LeakageReport(times[:n].copy(), leak[:n].copy(), boxes.centre, boxes.half,
                             **stats, rho=rho[:n].copy(), op_dim=dim, op_nnz=boxes.nnz,
                             growth=tuple(growth), box=tuple(min(r, d) for d in boxes.basis.depths),
                             active_fraction=active,
                             initial_norm_defect=psi0.info.get("norm_defect"))

    states: list[LatticeState] = []
    leak = np.zeros(times.size)
    rho = np.zeros((times.size, basis.n_system, basis.n_system), dtype=complex)
    norm0 = float(np.linalg.norm(psi0.amplitudes))
    if not np.isfinite(norm0):      # before _front, which drops what lies past the front
        raise NumericalBreakdown("non-finite values in the initial state")
    r = _front(boxes.weights(psi0.amplitudes, boxes.outer), floor)
    # the start keeps its shells out to its front
    start, block = 0, psi0.amplitudes[None, :boxes.rows(r)].copy()
    mat, last = None, None
    while True:
        # the boundary shell's entries within the box; past it the outputs are zero
        edge = boxes.shell[:np.searchsorted(boxes.shell, block.shape[1])]
        for j, vec in enumerate(block, start):
            leak[j] = float(np.sum(np.abs(vec[edge]) ** 2))
            rho[j] = partial_trace(vec.reshape(-1, basis.n_system))
            if not np.isfinite(rho[j]).all():
                raise NumericalBreakdown("non-finite values during propagation")
            stats["norm_drift"] = max(stats["norm_drift"],      # ||psi_j|| = sqrt(tr rho_j)
                                      abs(math.sqrt(np.trace(rho[j]).real) - norm0))
            if keep_states:
                full = np.zeros(boxes.basis.size, complex)
                full[:vec.size] = vec
                states.append(LatticeState(boxes.basis, full))
            if leak[j] > plan.leakage_threshold:
                raise LeakageExceeded(
                    f"boundary-shell population {leak[j]:.3e} > {plan.leakage_threshold:.1e} "
                    f"at t = {times[j]:g}: lattice depth too small for this horizon",
                    time=times[j], leakage=leak[j], report=report(j + 1))
        base = start + len(block) - 1
        if base + 1 == times.size:
            return states, report(times.size)
        # a copy, and no view of the block left: a view would keep the whole block alive
        phi = block[-1].copy()
        del block, vec
        pops = boxes.weights(phi, r)
        front = _front(pops, floor)
        reach = int(np.flatnonzero(pops).max(initial=0))     # the base state's support
        # no measured advance before the first window: the front may move as far as the cone
        speed = None if last is None else max(front - last[0], 0) / (times[base] - last[1])
        last = (front, times[base])
        redone = 0
        while True:          # plan the window on the current lattice, then run it
            stop = base + 2
            while stop < times.size and boxes.half * (times[stop] - times[base]) <= _WINDOW:
                stop += 1
            table, orders = _coefficients(times[base + 1:stop] - times[base], boxes.centre,
                                          boxes.half, _TAIL * plan.tol)
            products = int(orders.max()) - 1
            cone = reach + products * boxes.band
            margin = (products * boxes.band if speed is None
                      else int(np.ceil(speed * (times[stop - 1] - times[base])))) + _SHELLS
            box = max(r, min(front + margin * _GROW ** redone, cone))
            # past shell min_i D_i the box meets a boundary that a deeper lattice moves out
            bigger = (grow(box + boxes.band)
                      if grow and box + boxes.band > min(boxes.basis.depths) else None)
            if bigger is not None:
                smaller, boxes, mat = boxes.basis, _Boxes(*bigger), None
                phi = _relabel(phi, smaller, boxes.basis)
                growth.append(boxes.basis.depths)
                continue
            cone, box = min(cone, boxes.outer), min(box, boxes.outer)
            stats["box_growths"] += box != r
            if mat is None or box != r:
                r, mat = box, boxes.op(box)
            pair = _start_pair(phi, mat.shape[1])
            if r >= cone:
                del phi         # no redo can need the start: the pair holds its one copy
            block, used = _chebyshev(mat, pair, table, orders, boxes.centre, boxes.half)
            del pair
            stats["matvecs"] += used
            work += boxes.rows(r) * used
            if r >= cone or all(boxes.edge(vec, r) <= floor for vec in block):
                break
            stats["redos"] += 1  # the front outran the box: widen it and run the window again
            redone += 1
            del block            # from the same phi, which the recurrence does not write
        stats["windows"] += 1
        start = base + 1


def _tables(spec, depths) -> list:
    """The recurrence tables of the lattice at ``depths``, each at the order
    :func:`~enslat.lattice.table_orders` gives, and exact to that order."""
    return [recurrence_table(dist, order)
            for dist, order in zip(spec.distributions, table_orders(spec, depths))]


def auto_depth(spec, psi0_builder, plan: PropagationPlan, *, start: int = 16,
               cap=4096) -> tuple[tuple, LeakageReport]:
    """Propagate over the plan once, on a lattice that grows with the wavefront.

    The depths are min(cap_i, D) (``cap``: an int or one per axis).  D
    starts at ``start``, doubled while the state
    ``psi0_builder(basis, tables)`` puts more than a box's floor on the
    ``boundary_shell`` as wide as the largest coupling ``degree`` (read from
    the coefficients, whatever built the coupling), or raises
    :class:`NormDefectExceeded` below ``cap`` (at ``cap`` it propagates);
    the operator is assembled only for the accepted start.  D is then
    doubled whenever a window's box and band would pass shell D, the depth
    of every axis below its cap, so no box meets a boundary that a deeper
    lattice would move.  An axis at its cap stays where it is, and a box
    past it meets its boundary as on the pinned lattice; there, and once
    every axis is at ``cap``, :class:`LeakageExceeded` may be raised.  Every
    lattice, the start and each grown one, is assembled from recurrence
    tables made at the orders its own depths need, so it is bitwise the
    lattice pinned at those depths.  ``start >= max(cap)`` pins the depths
    at ``cap``.  Returns the last depths and the :class:`LeakageReport`.
    """
    caps = tuple(int(c) for c in (cap if np.iterable(cap) else [cap] * spec.l))
    band = max(1, *(c.degree for c in spec.couplings))
    depth = start
    while True:
        depths = tuple(min(c, depth) for c in caps)
        tables = _tables(spec, depths)
        try:
            psi0 = psi0_builder(LatticeBasis(spec.n, depths), tables)
        except NormDefectExceeded:
            if depths == caps:
                raise
            depth *= 2          # the expansion lost norm: rejected, as a populated shell is
            continue
        if depths == caps:
            break
        edge = psi0.amplitudes[boundary_shell(psi0.basis, min(band, *depths))]
        if np.vdot(edge, edge).real <= (_TAIL * plan.tol) ** 2:
            break
        depth *= 2

    def grow(radius):
        nonlocal depth, depths
        while depth < min(radius, max(caps)):
            depth *= 2
        deeper = tuple(min(c, depth) for c in caps)
        if deeper == depths:
            return None         # every axis is at its cap or already reaches the radius
        depths = deeper
        return build_general(spec, _tables(spec, depths), depths), LatticeBasis(spec.n, depths)

    _, report = propagate(build_general(spec, tables, depths), psi0, plan, grow=grow)
    return report.growth[-1], report
