"""Semi-infinite lattice construction for disordered ensembles.

An :class:`EnsembleSpec` describes a family of N-level Hamiltonians
``H = H0 + sum_i f_i(lambda_i)`` with independent disorder variables
``lambda_i``.  Expanding over polynomials orthonormal under each disorder
measure turns the continuum of realizations into a single lattice whose nodes
carry a multi-index K = (k_1, ..., k_l): the disorder-free part H0 lands on
every node, and a coupling ``f_i(lambda_i)`` acts along axis i as f_i(J_i),
where J_i is the Jacobi matrix of the axis's measure (``alpha_k`` on the
diagonal, ``sqrt(beta_{k+1})`` beside it).  A linear coupling ``C * lambda_i``
thus produces nearest-neighbour hops ``C * sqrt(beta_{k_i+1})`` plus on-node
shifts ``C * alpha_{k_i}``, and a degree-d polynomial coupling produces bands
of width d.  :class:`PolynomialCoupling` is the one coupling type: a linear
coupling is the polynomial with coefficients (0, C), and a tabulated one is
fitted by a polynomial once, by :meth:`PolynomialCoupling.fit`.

The assembled operator is Hermitian and sparse: :class:`LatticeOperator`
holds it as one CSR matrix of both triangles, whose ``nnz`` is its one entry
count.  Its rows and columns follow the node order of :class:`LatticeBasis`,
the one place that order is decided: by shell sum_i k_i, the l1 distance
from the origin, so that the nodes within any distance come first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NotHermitian, TableTooShort
from .measures import DisorderDistribution, RecurrenceTable

__all__ = [
    "PolynomialCoupling",
    "EnsembleSpec",
    "LatticeBasis",
    "LatticeOperator",
    "build_general",
    "table_orders",
    "boundary_shell",
]


def _check_hermitian(mat: np.ndarray, name: str) -> np.ndarray:
    """(A + A^dag) / 2 of a matrix A within 1e-12 of it: one matrix, whichever
    triangle is read, and A itself, bit for bit, when A is Hermitian."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} has non-finite entries")
    defect = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if defect > 1e-12:
        raise NotHermitian(f"{name} is not Hermitian (max |A - A^dag| = {defect:.3e})")
    return (mat + mat.conj().T) / 2


@dataclass(frozen=True, eq=False)
class PolynomialCoupling:
    """Disorder enters as ``sum_p matrices[p] * lambda**p`` (p = 0..degree).

    The one coupling type: :meth:`linear` and :meth:`fit` build the linear
    and the tabulated couplings, and every route reads only the coefficients.
    ``fit_residual`` is the largest deviation of a fit from its samples, and
    None for an exact coupling.
    """

    matrices: tuple
    fit_residual: float | None = None

    def __post_init__(self):
        mats = tuple(_check_hermitian(m, f"polynomial coefficient {d}")
                     for d, m in enumerate(self.matrices))
        if not mats:
            raise ValueError("polynomial coupling needs at least one coefficient matrix")
        object.__setattr__(self, "matrices", mats)

    @property
    def degree(self) -> int:
        return len(self.matrices) - 1

    @classmethod
    def linear(cls, matrix) -> "PolynomialCoupling":
        """``matrix * lambda``: the coefficients ``(0, matrix)``."""
        return cls((np.zeros_like(matrix, dtype=complex), matrix))

    @classmethod
    def fit(cls, lam, values, degree: int = 8) -> "PolynomialCoupling":
        """Matrix-valued disorder function sampled on a grid, fitted entry-wise.

        ``values`` (M, N, N) are Hermitian samples at the strictly increasing
        ``lam`` (M,).  The fit is a least-squares polynomial of degree
        ``min(degree, M - 1)`` with Hermitized coefficients; every route uses
        it, and the samples are not kept.
        """
        lam = np.asarray(lam, dtype=float)
        vals = np.asarray(values, dtype=complex)
        if lam.ndim != 1 or vals.shape[0] != lam.size or vals.ndim != 3:
            raise ValueError("need lam (M,) and values (M, N, N)")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("tabulated coupling grid must be strictly increasing")
        if degree < 0:
            raise ValueError(f"fit degree must be non-negative, got {degree}")
        for i in range(lam.size):
            _check_hermitian(vals[i], f"tabulated coupling sample {i}")
        vander = np.vander(lam, min(degree, lam.size - 1) + 1, increasing=True)
        flat = vals.reshape(lam.size, -1)
        coef, *_ = np.linalg.lstsq(vander, flat, rcond=None)
        n = vals.shape[1]
        return cls(tuple(0.5 * (c.reshape(n, n) + c.reshape(n, n).conj().T) for c in coef),
                   float(np.max(np.abs(vander @ coef - flat))) if flat.size else 0.0)


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Ensemble of N-level systems with l independent disorder variables.

    Attributes
    ----------
    h0 : ndarray (N, N)
        Disorder-independent Hermitian part (energy units).
    couplings : tuple of PolynomialCoupling
        One per disorder variable, the polynomial ``sum_p matrices[p] * lambda**p``.
    distributions : tuple of DisorderDistribution
        One measure per disorder variable.
    """

    h0: np.ndarray
    couplings: tuple
    distributions: tuple

    def __post_init__(self):
        object.__setattr__(self, "h0", _check_hermitian(self.h0, "h0"))
        couplings = tuple(self.couplings)
        dists = tuple(self.distributions)
        if len(couplings) < 1:
            raise ValueError("need at least one disorder variable")
        if len(couplings) != len(dists):
            raise DimensionMismatch(
                f"{len(couplings)} couplings vs {len(dists)} distributions")
        n = self.h0.shape[0]
        for i, c in enumerate(couplings):
            for mat in c.matrices:
                if mat.shape != (n, n):
                    raise DimensionMismatch(
                        f"coupling {i} has shape {mat.shape}, expected {(n, n)}")
            if not isinstance(dists[i], DisorderDistribution):
                raise TypeError(f"distributions[{i}] is not a DisorderDistribution")
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "distributions", dists)

    @property
    def n(self) -> int:
        """System dimension N."""
        return self.h0.shape[0]

    @property
    def l(self) -> int:
        """Number of disorder variables."""
        return len(self.couplings)

    def hamiltonian(self, lam) -> np.ndarray:
        """H(lambda) of a (B, l) batch of realizations, as a (B, N, N) array.

        The one realization Hamiltonian: every oracle evolves these matrices.
        """
        lam = np.asarray(lam, dtype=float)
        if lam.ndim != 2 or lam.shape[1] != self.l:
            raise DimensionMismatch(
                f"expected a (B, {self.l}) batch of disorder values, got shape {lam.shape}")
        h = np.broadcast_to(self.h0, (lam.shape[0], self.n, self.n)).copy()
        for i, c in enumerate(self.couplings):
            for p, m in enumerate(c.matrices):
                if m.any():         # e.g. the zero constant term of a linear coupling
                    h += (lam[:, i] ** p)[:, None, None] * m
        return h


@dataclass(frozen=True)
class LatticeBasis:
    """Truncated basis |n, K> with K = (k_1..k_l), 0 <= k_i <= depths[i].

    Flat layout is node-major: ``flat = node * N + n``.  Nodes are ordered by
    shell s = sum_i k_i, lexicographically within a shell, so the box of
    radius r (every node with s <= r, the l1 ball a wavefront from the
    origin fills) is a prefix of the layout.  A deeper lattice keeps this
    one's nodes in place through shell min_i D_i over the axes it deepens;
    past it, it adds nodes within shells.  The origin K = 0 is node 0, and
    in 1-D node k is k_1.  Only the trace over the node index is read from a
    lattice, and it does not depend on this order.
    """

    n_system: int
    depths: tuple

    def __post_init__(self):
        depths = tuple(int(d) for d in self.depths)
        if self.n_system < 1 or any(d < 0 for d in depths):
            raise ValueError("need n_system >= 1 and depths >= 0")
        object.__setattr__(self, "depths", depths)

    @property
    def l(self) -> int:
        return len(self.depths)

    @property
    def node_count(self) -> int:
        return int(np.prod([d + 1 for d in self.depths]))

    @property
    def size(self) -> int:
        return self.n_system * self.node_count

    @property
    def shape(self) -> tuple:
        """Per-axis node counts (D_i + 1)."""
        return tuple(d + 1 for d in self.depths)

    @cached_property
    def _multi(self) -> np.ndarray:
        grid = np.indices(self.shape).reshape(self.l, -1).T     # row-major
        multi = grid[np.argsort(grid.sum(axis=1), kind="stable")]
        multi.setflags(write=False)
        return multi

    @cached_property
    def _node_of(self) -> np.ndarray:
        """Node of each multi-index, at the multi-index's row-major position."""
        node = np.empty(self.node_count, dtype=np.int64)
        node[np.ravel_multi_index(tuple(self._multi.T), self.shape)] = np.arange(self.node_count)
        return node

    def node_index(self, multi):
        """Node of a multi-index, or of each row of an (M, l) array of them."""
        k = np.asarray(multi, dtype=np.int64)
        node = self._node_of[np.ravel_multi_index(tuple(np.moveaxis(k, -1, 0)), self.shape)]
        return int(node) if k.ndim == 1 else node

    def node_multi_indices(self) -> np.ndarray:
        """(node_count, l) array of multi-indices in node order (read-only)."""
        return self._multi

    def node_shells(self) -> np.ndarray:
        """Shell sum_i k_i of each node, in node order: never decreasing."""
        return self._multi.sum(axis=1)


class LatticeOperator:
    """Sparse Hermitian operator, held as one CSR matrix of both triangles.

    ``blocks()`` returns ``(rows, cols, vals)`` arrays of upper-triangle
    entries (row <= col, each (row, col) at most once), made afresh on each
    call; the lower triangle is their conjugate.  One pass over the blocks
    counts each row's entries and a second places them, so only one block
    need be alive at a time.  Columns are sorted within rows, and exact
    zeros dropped.
    """

    def __init__(self, dim: int, blocks):
        per_row = (_row_counts(dim, *block) for block in blocks())
        indptr = np.concatenate([[0], np.cumsum(sum(per_row, np.zeros(dim, np.int64)))])
        index = np.int32 if max(dim, indptr[-1]) < 2 ** 31 else np.int64
        indices, data = np.empty(indptr[-1], index), np.empty(indptr[-1], complex)
        free = indptr[:-1].copy()           # next free place of each row
        for block in blocks():
            _place(*block, free, indices, data)
        self.csr = sp.csr_matrix((data, indices, indptr.astype(index)), shape=(dim, dim))
        self.csr.sort_indices()

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        """Stored entries of the CSR matrix, both triangles."""
        return self.csr.nnz


def _row_counts(dim: int, rows, cols, vals) -> np.ndarray:
    """Check a block of upper-triangle entries and count its nonzeros per row."""
    if not rows.shape == cols.shape == vals.shape:
        raise ValueError("rows, cols, vals must have identical shapes")
    if np.any(rows > cols) or rows.size and (rows.min() < 0 or cols.max() >= dim):
        raise ValueError(f"upper-triangle entries need 0 <= row <= col < {dim}")
    if np.any(np.abs(vals[rows == cols].imag) > 1e-14):
        raise NotHermitian("diagonal entries must be real to 1e-14")
    keep = vals != 0
    return (np.bincount(rows[keep], minlength=dim)
            + np.bincount(cols[keep & (rows != cols)], minlength=dim))


def _place(rows, cols, vals, free, indices, data):
    """Put the nonzero entries of a block, and below the diagonal their
    conjugates, in the next free places of their rows, in entry order."""
    keep = vals != 0
    # + 0.0 turns negative zeros positive, so the CSR's bytes do not depend on signed zeros
    rows, cols, vals = rows[keep], cols[keep], vals[keep] + 0.0
    off = rows != cols
    for r, c, v in ((rows, cols, vals), (cols[off], rows[off], vals[off].conj())):
        counts = np.bincount(r, minlength=free.size)
        slot = free[r]
        if counts.max(initial=0) > 1:   # a row repeats: rank its entries, in entry order
            order = np.argsort(r, kind="stable")
            ranked = r[order]
            slot[order] += np.arange(r.size) - np.searchsorted(ranked, ranked)
        free += counts
        indices[slot], data[slot] = c, v


def table_orders(spec: EnsembleSpec, depths) -> list:
    """Recurrence-table order each axis needs to assemble the lattice at ``depths``.

    The blocks of a degree-d coupling at depth D are entries of powers of the
    Jacobi matrix truncated to D + d // 2 + 1 rows (see :func:`build_general`).
    """
    return [int(d) + c.degree // 2 + 1 for c, d in zip(spec.couplings, depths)]


def _check_tables(spec: EnsembleSpec, tables, min_order):
    tables = tuple(tables)
    if len(tables) != spec.l:
        raise DimensionMismatch(f"{spec.l} disorder variables but {len(tables)} tables")
    for i, (t, need) in enumerate(zip(tables, min_order)):
        if not isinstance(t, RecurrenceTable):
            raise TypeError(f"tables[{i}] is not a RecurrenceTable")
        if t.order < need:
            raise TableTooShort(f"table {i} has order {t.order}, need >= {need}")
    return tables


def _axis_bands(coupling, table: RecurrenceTable, depth: int) -> list:
    """Bands of the coupling block f(J) along one axis.

    ``bands[o][a, b][k] = sum_p M_p[a, b] (J^p)[k, k + o]`` for o = 0..min(degree,
    depth) and k + o <= depth, kept only for the entries (a, b) with a nonzero
    coefficient.  J is truncated to m = depth + degree // 2 + 1 rows: a path of
    p <= degree steps between two indices <= depth never climbs above
    depth + p // 2, so the entries read from the truncated powers are exact.
    """
    m = depth + coupling.degree // 2 + 1
    hop = np.sqrt(table.beta[:m - 1])
    jac = sp.diags([hop, table.alpha[:m], hop], [-1, 0, 1], format="csr")
    power = sp.identity(m, format="csr")
    width = min(coupling.degree, depth)
    bands = [{} for _ in range(width + 1)]
    for p, mat in enumerate(coupling.matrices):
        if p:
            power = power @ jac
        for o in range(min(p, width) + 1):
            diag = power.diagonal(o)[:depth + 1 - o]
            for a, b in zip(*np.nonzero(mat)):
                term = mat[a, b] * diag
                bands[o][a, b] = bands[o][a, b] + term if (a, b) in bands[o] else term
    return bands


def build_general(spec: EnsembleSpec, tables, depths) -> LatticeOperator:
    """Assemble the lattice operator of an ensemble.

    Along axis i the coupling ``f_i = sum_p M_p lambda**p`` acts on the node
    index as f_i(J_i), J_i the Jacobi matrix of the axis's measure, so the
    block between K and K' differing only in k_i is
    ``<phi_k|f_i|phi_k'> = sum_p M_p (J_i^p)[k, k']`` (Gautschi, *Orthogonal
    Polynomials*, 2004): exact, with no quadrature.  On-node blocks are
    ``H0 + sum_i f_i(J_i)[k_i, k_i]``; a degree-d coupling adds bands of
    width d along its axis, and entries beyond the band are not stored.  For
    a linear coupling C these are the on-node shifts ``alpha_i[k_i] C`` and
    the hops ``sqrt(beta_i[k_i + 1]) C``: a chain for l = 1 and an
    l-dimensional nearest-neighbour lattice in general.

    Parameters
    ----------
    tables : sequence of RecurrenceTable
        One per disorder variable, of at least the orders
        :func:`table_orders` gives.
    depths : sequence of int
        Truncation depth D_i per axis (k_i = 0..D_i).
    """
    depths = tuple(int(d) for d in (depths if np.iterable(depths) else [depths]))
    if len(depths) != spec.l:
        raise DimensionMismatch(f"{spec.l} disorder variables but {len(depths)} depths")
    tables = _check_tables(spec, tables, table_orders(spec, depths))
    bands = [_axis_bands(c, t, d) for c, t, d in zip(spec.couplings, tables, depths)]

    basis = LatticeBasis(spec.n, depths)
    n = spec.n
    multi = basis.node_multi_indices()          # (nodes, l)
    node = np.arange(basis.node_count)
    unit = np.eye(spec.l, dtype=np.int64)

    def blocks():
        # on-node blocks: upper triangle of H0 + sum_i f_i(J_i)[k_i, k_i] per node
        for a in range(n):
            for b in range(a, n):
                per_node = np.full(basis.node_count, spec.h0[a, b], dtype=complex)
                for i, axis in enumerate(bands):
                    if (a, b) in axis[0]:
                        per_node = per_node + axis[0][a, b][multi[:, i]]
                yield node * n + a, node * n + b, per_node
        # inter-node bands along each axis, between K and K + o along axis i
        for i, axis in enumerate(bands):
            for o in range(1, len(axis)):
                sel = multi[:, i] + o <= depths[i]
                src, dst = node[sel], basis.node_index(multi[sel] + o * unit[i])
                for (a, b), band in axis[o].items():
                    yield src * n + a, dst * n + b, band[multi[sel, i]]

    return LatticeOperator(basis.size, blocks)


build_linear = build_general   # not exported: cli and dynamics import it for the tracer to rebind


def boundary_shell(basis: LatticeBasis, width: int = 1) -> np.ndarray:
    """Flat indices of all states whose multi-index has any k_i > D_i - width.

    The population on this shell is the truncation-leakage monitor used by the
    propagator.  On an axis of depth 0 every node lies on the boundary.
    """
    if not 1 <= width <= max(1, min(basis.depths)):
        raise ValueError(f"width must be in [1, {max(1, min(basis.depths))}]")
    inner = np.subtract(basis.depths, width)      # the largest k_i off the boundary, per axis
    nodes = np.flatnonzero(np.any(basis.node_multi_indices() > inner, axis=1))
    return (nodes[:, None] * basis.n_system + np.arange(basis.n_system)).ravel()
