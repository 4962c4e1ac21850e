"""Disorder-averaged quantities from lattice states.

Tracing out the lattice index recovers the ensemble-averaged density matrix:
rho_{nm} = sum_K psi_{n,K} psi*_{m,K}.  Coherence between different lattice
nodes is invisible to the trace; that loss is the geometric picture of
ensemble dephasing, with strictly unitary global dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm

from .states import LatticeState

__all__ = [
    "DensityTrajectory",
    "partial_trace",
    "trajectory_from_states",
]


@dataclass(eq=False)
class DensityTrajectory:
    """Time grid plus N x N density matrices, with optional per-entry errors.

    ``errors`` holds the standard error of the mean per entry for Monte Carlo
    results and is absent (None) for deterministic ones.  ``info`` carries
    method metadata.
    """

    times: np.ndarray
    rho: np.ndarray            # (T, N, N) complex
    errors: np.ndarray | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.ndim != 3 or self.rho.shape[0] != self.times.size \
                or self.rho.shape[1] != self.rho.shape[2]:
            raise ValueError("rho must have shape (len(times), N, N)")
        if self.errors is not None:
            self.errors = np.asarray(self.errors, dtype=float)
            if self.errors.shape != self.rho.shape:
                raise ValueError("errors must match rho's shape")

    @property
    def n(self) -> int:
        return self.rho.shape[1]


def partial_trace(state: LatticeState | np.ndarray) -> np.ndarray:
    """Average density matrix: rho_{nm} = sum_K psi_{n,K} psi*_{m,K}.

    ``state`` is a :class:`LatticeState` or its node amplitudes, a node-major
    (nodes, N) array, which may hold only a leading block of the nodes: the
    rest count as zero.  Trailing zero nodes are dropped, so a state and any
    zero-padded copy of it give the same bits (how BLAS splits a sum depends
    on its length); then one ZGEMM forms a^T conj(a), with no conjugated copy.
    The sum runs over the truncated K range only; the propagator's leakage
    report quantifies the omitted tail.  The result is Hermitized (averaged
    with its adjoint) to scrub float-roundoff asymmetry.
    """
    a = _support(state.node_amplitudes() if isinstance(state, LatticeState) else state)
    rho = zgemm(1.0, a.T, a.T, trans_b=2)
    return 0.5 * (rho + rho.conj().T)


def _support(a: np.ndarray) -> np.ndarray:
    """The leading rows of ``a`` up to its last nonzero one (at least one row),
    found from the end in growing steps."""
    end, step = len(a), 64
    while end > 1:
        lo = max(end - step, 1)
        nonzero = np.flatnonzero(np.any(a[lo:end], axis=1))
        if nonzero.size:
            return a[:lo + nonzero[-1] + 1]
        end, step = lo, 2 * step
    return a[:1]


def trajectory_from_states(times, states, **info) -> DensityTrajectory:
    """Bundle propagated states into a DensityTrajectory (no error bars)."""
    rho = np.array([partial_trace(s) for s in states])
    return DensityTrajectory(np.asarray(times, float), rho, info=dict(info))
