"""Shared builders for the test suite."""

import os

# one BLAS thread, set before NumPy loads its BLAS: the suite's matrices are
# small, and threads only contend for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from enslat import DisorderDistribution, EnsembleSpec, LinearCoupling


def qubit_spec(dist, e0=0.0, e1=1.0) -> EnsembleSpec:
    """Dephasing qubit: H = diag(e0, e1 + lambda)."""
    return EnsembleSpec(np.diag([e0, e1]).astype(complex),
                        (LinearCoupling(np.diag([0.0, 1.0])),),
                        (dist,))


def dimer_spec(e1, e2, v, sigma, cutoff_sigmas=None) -> EnsembleSpec:
    """Two sites with independent gaussian site-energy disorder and coupling v."""
    h0 = np.array([[e1, v], [v, e2]], dtype=complex)
    cut = None if cutoff_sigmas is None else (-cutoff_sigmas * sigma, cutoff_sigmas * sigma)
    dist = DisorderDistribution.gaussian(sigma, cutoff=cut)
    p1 = np.diag([1.0, 0.0])
    p2 = np.diag([0.0, 1.0])
    return EnsembleSpec(h0, (LinearCoupling(p1), LinearCoupling(p2)), (dist, dist))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
