"""Initial lattice wavefunctions for the ensemble.

The ensemble state |Psi_0> = int dlam sqrt(p(lam)) |psi_0(lam), lam> expands
over the lattice basis with coefficients

    d_{n,K} = int dlam p(lam) phi_K(lam) c_n(lam),

where c_n(lam) are the per-realization amplitudes.  A disorder-independent
initial state collapses to the single origin node K = 0
(:func:`localized_initial`); a disorder-dependent one spreads over K and is
computed by quadrature (:func:`expanded_initial`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce
from operator import iadd

import numpy as np

from .errors import DimensionMismatch, NormDefectExceeded, NotNormalized
from .lattice import LatticeBasis
from .measures import discretize, grid_size, orthonormal_values

__all__ = [
    "LatticeState",
    "localized_initial",
    "expanded_initial",
    "NORM_TOL",
]

NORM_TOL = 1e-10            # how far from 1 an initial state's norm may be, on every route

_SLICE_BYTES = 1 << 24      # what one slice of points holds: polynomial values, points, c
_WARN_DEFECT = 1e-8         # Parseval norm defect an expansion warns about
_MAX_DEFECT = 1e-6          # and the one it raises NormDefectExceeded above


@dataclass(eq=False)
class LatticeState:
    """Wavefunction over a truncated lattice basis.

    Amplitudes are indexed by the basis flat layout: node-major, with the
    nodes in the basis's shell order (see :class:`LatticeBasis`).  States
    produced by the constructors below are normalized to 1 within NORM_TOL,
    except for truncated expansions, whose norm defect is the truncation
    diagnostic reported in ``info["norm_defect"]``.
    """

    basis: LatticeBasis
    amplitudes: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.size,):
            raise DimensionMismatch(
                f"amplitudes have shape {amps.shape}, basis size is {self.basis.size}")
        self.amplitudes = amps

    def node_amplitudes(self) -> np.ndarray:
        """Amplitudes reshaped to (node_count, N)."""
        return self.amplitudes.reshape(self.basis.node_count, self.basis.n_system)


def localized_initial(c, basis: LatticeBasis) -> LatticeState:
    """State with amplitudes c_n on the origin node (n, K = 0), zero elsewhere.

    This is the lattice image of any disorder-independent initial state; the
    whole ensemble sits on the single node at the origin.  Requires ||c|| = 1
    within NORM_TOL (NotNormalized otherwise).
    """
    c = np.asarray(c, dtype=complex)
    if c.shape != (basis.n_system,):
        raise DimensionMismatch(f"c has shape {c.shape}, expected ({basis.n_system},)")
    if not abs(np.linalg.norm(c) - 1.0) <= NORM_TOL:
        raise NotNormalized(f"||c|| = {float(np.linalg.norm(c))}, expected 1 within {NORM_TOL:g}")
    amps = np.zeros(basis.size, dtype=complex)
    amps[: basis.n_system] = c      # node 0 is K = 0
    return LatticeState(basis, amps)


def expanded_initial(c_fn, dists, tables, basis: LatticeBasis) -> LatticeState:
    """Expand a disorder-dependent initial state over the lattice basis.

    Parameters
    ----------
    c_fn : callable
        Per-realization amplitudes, as accepted by
        :func:`realization_amplitudes`: a vectorized callable mapping an
        (M, l) array of disorder points to an (M, N) complex array.  Each
        row must have unit norm within NORM_TOL (NotNormalized otherwise), as
        the oracles require; the Parseval defect then checks the norm of the
        whole expansion.
    dists, tables : sequences, one per disorder variable
        The measures (for the quadrature grid) and their recurrence tables
        (for the orthonormal polynomial values).

    An axis of depth D is integrated on :func:`grid_size` (D) points, the
    rule of the Stieltjes tables, a slice of points at a time: c is
    evaluated on one slice of the first axis times the whole sub-grid of the
    others, so neither the tensor grid nor a (D+1) x M array of polynomial
    values is held.

    The Parseval norm defect ``|sum |d|^2 - 1|`` measures exactly the weight
    lost to the K-truncation (plus quadrature error); it is reported in
    ``info["norm_defect"]``, warned about above 1e-8 and raised as
    NormDefectExceeded above 1e-6.
    """
    dists = tuple(dists)
    tables = tuple(tables)
    if len(dists) != basis.l or len(tables) != basis.l:
        raise DimensionMismatch(
            f"basis has {basis.l} axes; got {len(dists)} distributions, {len(tables)} tables")
    axes = [discretize(dist, grid_size(depth)) for dist, depth in zip(dists, basis.depths)]
    n = basis.n_system

    def c_on(s):    # c on the points s of the first axis times the sub-grid, (|s|, ..., N)
        # one copy of the points, stacked from broadcast views of the axes
        pts = np.stack(np.broadcast_arrays(*np.ix_(axes[0][0][s], *[x for x, _ in axes[1:]])),
                       axis=-1)
        return realization_amplitudes(c_fn, pts.reshape(-1, basis.l), n).reshape(
            pts.shape[:-1] + (n,))

    # d_{n,K} = sum_q (prod_i w_i phi_{k_i}) c_n(q): contract one axis at a time
    shape = tuple(x.size for x, _ in axes)
    sub = int(np.prod(shape[1:]))
    work = None
    for (x, w), table, depth in zip(axes, tables, basis.depths):
        # fold quadrature weight into the polynomial values and contract axis 0
        # a slice of points at a time (one slice is the whole contraction, bitwise).
        # Per point of a slice: the values, weighted, and their complex cast in
        # the product; on the first axis the sub-grid's points and values of c,
        # counted twice for c's own work; on the others the copy of the slice
        # of ``work`` (a transposed view) the product makes
        per_point = 32 * (depth + 1) + (
            (8 * basis.l + 32 * n) * sub if work is None else work[0].nbytes)
        step = max(1, _SLICE_BYTES // per_point)
        block = c_on if work is None else work.__getitem__
        parts = (np.tensordot(orthonormal_values(table, x[s:s + step], depth) * w[s:s + step],
                              block(slice(s, s + step)), axes=([1], [0]))
                 for s in range(0, x.size, step))
        # summed in place; park the new k_i axis just before N; K axes accumulate in reverse
        work = np.moveaxis(reduce(iadd, parts), 0, len(shape) - 1)
        shape = shape[1:]
    work = work.transpose(*range(basis.l - 1, -1, -1), basis.l)
    # shape (D_1+1, ..., D_l+1, N): pick the nodes in the basis's order
    d = work[tuple(basis.node_multi_indices().T)].ravel()

    defect = abs(float(np.sum(np.abs(d) ** 2)) - 1.0)
    if not defect <= _MAX_DEFECT:
        raise NormDefectExceeded(
            f"norm defect {defect:.3e} > {_MAX_DEFECT:.1e}: "
            "increase the truncation depth or quadrature resolution")
    if defect > _WARN_DEFECT:
        warnings.warn(f"initial-state norm defect {defect:.3e}", stacklevel=2)
    return LatticeState(basis, d, info={"norm_defect": defect})


def realization_amplitudes(c, pts: np.ndarray, n: int) -> np.ndarray:
    """Initial amplitudes c(lam) of every realization, for (M, l) disorder points.

    The one per-realization evaluation: :func:`expanded_initial` and both
    averaging oracles form their amplitudes here, so every route refuses
    the same c.  ``c`` is either a constant (N,) vector, the same state in
    every realization, or a vectorized callable mapping the (M, l) points to
    an (M, N) array.  Returns (M, N) complex amplitudes, each row of unit
    norm within NORM_TOL (NotNormalized otherwise, a NaN row included).
    Exceptions raised by the callable propagate; any other shape raises
    ValueError.
    """
    m = pts.shape[0]
    if c is None:
        raise ValueError("an initial state (vector or callable) is required")
    if not callable(c):
        c = np.asarray(c, dtype=complex)
        if c.shape != (n,):
            raise ValueError(f"initial amplitudes have shape {c.shape}, expected ({n},)")
        out = np.broadcast_to(c, (m, n))
    else:
        out = np.asarray(c(pts), dtype=complex)
        if out.shape != (m, n):
            raise ValueError(
                f"initial-state callable returned shape {out.shape}, expected {(m, n)}")
    worst = float(np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0), initial=0.0))
    if not worst <= NORM_TOL:
        raise NotNormalized(f"per-realization initial state off by {worst:.3e}")
    return out
