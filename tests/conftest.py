"""Shared builders for the test suite."""

import os

# one BLAS thread, set before NumPy loads its BLAS: the suite's matrices are
# small, and threads only contend for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from enslat import (DisorderDistribution, EnsembleSpec, LatticeBasis, LatticeOperator,
                    LatticeState, PolynomialCoupling, build_general)
from enslat.dynamics import _tables


def qubit_spec(dist, e0=0.0, e1=1.0) -> EnsembleSpec:
    """Dephasing qubit: H = diag(e0, e1 + lambda)."""
    return EnsembleSpec(np.diag([e0, e1]).astype(complex),
                        (PolynomialCoupling.linear(np.diag([0.0, 1.0])),),
                        (dist,))


def dimer_spec(e1, e2, v, sigma, cutoff_sigmas=None) -> EnsembleSpec:
    """Two sites with independent gaussian site-energy disorder and coupling v."""
    h0 = np.array([[e1, v], [v, e2]], dtype=complex)
    cut = None if cutoff_sigmas is None else (-cutoff_sigmas * sigma, cutoff_sigmas * sigma)
    dist = DisorderDistribution.gaussian(sigma, cutoff=cut)
    p1 = np.diag([1.0, 0.0])
    p2 = np.diag([0.0, 1.0])
    return EnsembleSpec(h0, (PolynomialCoupling.linear(p1), PolynomialCoupling.linear(p2)),
                        (dist, dist))


def flat_index(basis: LatticeBasis, n: int, multi) -> int:
    """Flat index of level n on the node of a multi-index: node-major."""
    return basis.node_index(multi) * basis.n_system + n


def as_operator(h) -> LatticeOperator:
    """The LatticeOperator of a Hermitian sparse matrix, built from its upper triangle."""
    up = sp.triu(h, format="coo")
    return LatticeOperator(h.shape[0], lambda: [(up.row, up.col, up.data)])


def lattice_at(spec, psi0_builder, depths) -> tuple[LatticeOperator, LatticeState]:
    """Operator and initial state of the lattice truncated at ``depths``: the
    operator :func:`build_general` assembles from the lattice's recurrence
    tables, and the state ``psi0_builder(basis, tables)`` returns, given those
    same tables.  A lattice :func:`auto_depth` grows to is this one, bitwise."""
    tables = _tables(spec, depths)
    # the state before the operator: built after it, the 2-D dimer peaks one
    # state vector (~5 MB) higher
    psi0 = psi0_builder(LatticeBasis(spec.n, depths), tables)
    return build_general(spec, tables, depths), psi0


def propagate_dense(h: np.ndarray, psi0: LatticeState, times) -> list[LatticeState]:
    """Reference path: exact evolution by dense eigendecomposition.

    Cross-check for the Chebyshev propagator.  ``h`` is the dense Hermitian
    matrix it diagonalizes, such as ``op.csr.toarray()`` of a
    :class:`LatticeOperator`; dimensions above 2000 are refused.
    """
    basis = psi0.basis
    if len(h) > 2000:
        raise ValueError("dense path limited to dimension <= 2000")
    evals, vecs = eigh(h)
    c0 = vecs.conj().T @ psi0.amplitudes
    return [LatticeState(basis, vecs @ (np.exp(-1j * evals * t) * c0))
            for t in np.asarray(times, dtype=float)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
