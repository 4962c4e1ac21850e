"""Independent reference computations for cross-validation.

Three routes to the disorder-averaged density matrix that never touch the
lattice machinery:

* :func:`mc_average` samples realizations and evolves each one exactly by
  dense eigendecomposition (with per-entry standard errors);
* :func:`quad_average` replaces random samples with tensor-product Gauss
  nodes of the disorder measures (deterministic, spectrally convergent);
* :func:`analytic_qubit` is the closed form for the dephasing qubit, where
  the coherence is the characteristic function of the disorder.

:func:`chain_to_ensemble` is the reverse map: a constant-coupling
semi-infinite lattice is the chain image of semicircle-distributed disorder,
so lattice dynamics can be reproduced by averaging over an ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, SystemTooLarge
from .lattice import EnsembleSpec, LinearCoupling
from .measures import (
    DisorderDistribution,
    characteristic_function,
    gauss_rule,
    quantile,
    recurrence_table,
)
from .reduction import DensityTrajectory
from .states import realization_amplitudes

__all__ = [
    "OracleConfig",
    "mc_average",
    "quad_average",
    "analytic_qubit",
    "chain_to_ensemble",
]

_MAX_DENSE_N = 64
_CHUNK = 4096       # fixed chunk size keeps the summation order reproducible
_TILE_BYTES = 1 << 18   # per-tile temporaries of evolution and accumulation stay in cache
_UNIFORM_ULPS = 4       # a time grid this close to t_0 + j dt gets factorized phases


@dataclass(frozen=True)
class OracleConfig:
    """Controls for the oracle routes.

    ``seed`` keys the counter-based per-sample random streams, so mc_average
    output is bitwise reproducible and independent of execution order.
    """

    samples: int = 10_000
    seed: int = 0
    quad_order: int = 40

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.quad_order < 1:
            raise ValueError("quad_order must be >= 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


# ---------------------------------------------------------------------------
# counter-based draws
# ---------------------------------------------------------------------------

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # key increments (Weyl)
_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit product m * x, via 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    lo_lo = x_lo * m_lo
    lo_hi = x_lo * m_hi
    hi_lo = x_hi * m_lo
    carry = ((lo_lo >> _S32) + (lo_hi & _LO32) + (hi_lo & _LO32)) >> _S32
    hi = x_hi * m_hi + (lo_hi >> _S32) + (hi_lo >> _S32) + carry
    return hi, x * np.uint64(m)


def _philox_uniforms(seed: int, start: int, stop: int, l: int) -> np.ndarray:
    """Uniforms of samples start..stop-1, as a (stop - start, l) array.

    Row i holds ``np.random.Generator(np.random.Philox(key=[seed, i])).random(l)``
    bit for bit, computed for all samples at once: Philox4x64-10 with key
    (seed, i) is evaluated at counters 1, 2, ... (NumPy increments the counter
    before each block), each counter yields four 64-bit words in order, and a
    word u becomes the double (u >> 11) * 2**-53.
    """
    idx = np.arange(start, stop, dtype=np.uint64)
    blocks = -(-l // 4)
    out = np.empty((idx.size, 4 * blocks))
    zero = np.zeros_like(idx)
    for blk in range(blocks):
        x0, x1, x2, x3 = np.full_like(idx, blk + 1), zero, zero, zero
        k0, k1 = int(seed), idx
        for r in range(10):
            if r:
                k0 = (k0 + _PHILOX_W[0]) & _MASK64
                k1 = k1 + np.uint64(_PHILOX_W[1])
            hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
        for j, word in enumerate((x0, x1, x2, x3)):
            out[:, 4 * blk + j] = (word >> np.uint64(11)) * 2.0 ** -53
    return out[:, :l]


# ---------------------------------------------------------------------------
# dense per-realization evolution
# ---------------------------------------------------------------------------

def _time_tiles(nt: int, row_bytes: int):
    """Slices of a time axis whose temporaries, at row_bytes per time, fit a cache tile."""
    step = max(1, _TILE_BYTES // row_bytes)
    return [slice(t0, t0 + step) for t0 in range(0, nt, step)]


def _fine_length(times: np.ndarray):
    """b = ceil(sqrt(T)) if the T times are uniform to a few ulp, else None.

    Uniform means every t_j lies within _UNIFORM_ULPS ulp (of the grid's
    largest |t|) of t_0 + j (t_{T-1} - t_0) / (T - 1).
    """
    nt = times.size
    if nt > 2:
        ramp = times[0] + np.arange(nt) * ((times[-1] - times[0]) / (nt - 1))
        slack = _UNIFORM_ULPS * np.spacing(np.abs(times).max())
        if not np.all(np.abs(times - ramp) <= slack):
            return None
    return math.isqrt(nt - 1) + 1 if nt else None


def _phase_rows(times: np.ndarray, g: np.ndarray):
    """Phases exp(-i t g) of one gap per realization, g of shape (B,).

    Returns ``phase(tile)``, the (tile, B) phases of a slice of the times.
    On a uniform grid t_j = t_0 + j dt the phase factorizes: with j = q b + r
    and b = ceil(sqrt(T)),

        exp(-i g t_j) = exp(-i g t_{qb}) exp(-i g (t_r - t_0)),

    so a realization costs ceil(T / b) + b ``exp`` calls, not T, and only
    those two tables are held.  The coarse factor is the direct phase of the
    grid's own times t_{qb}, and the fine factor of r = 0 is exactly 1, so
    at every j = q b (t_0 included) the phase equals the direct one bitwise.
    Elsewhere it is off by a few ulp of g t.  Any other grid takes the direct
    ``exp`` per tile.
    """
    b = _fine_length(times)
    if b is None:
        return lambda tile: np.exp(-1j * np.multiply.outer(times[tile], g))
    coarse = np.multiply.outer(times[::b], -1j * g)
    fine = np.multiply.outer(times[:b] - times[0], -1j * g)
    np.exp(coarse, out=coarse)          # in place: no second table-sized temporary
    np.exp(fine, out=fine)
    q, r = np.divmod(np.arange(times.size), b)
    return lambda tile: coarse[q[tile]] * fine[r[tile]]


def _evolve_batch(hb: np.ndarray, c0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """psi_lambda(t) for a batch: (B, N, N), (B, N) -> amplitudes (T, N, B).

    Phases run relative to each realization's lowest eigenvalue; the global
    phase dropped that way cancels in rho.  They come from
    :func:`_phase_rows` one gap and one time tile at a time, so no (T, B)
    phase array is held.
    """
    evals, vecs = np.linalg.eigh(hb)
    vecs = vecs.transpose(1, 2, 0)                          # (N, N, B)
    ceig = (vecs.conj() * c0.T[:, None, :]).sum(axis=0)     # (N, B): V^H c
    n, b = ceig.shape
    amps = np.empty((times.size, n, b), dtype=complex)
    amps[...] = vecs[:, 0] * ceig[0]
    tiles = _time_tiles(times.size, 16 * n * b)
    for m in range(1, n):
        phase = _phase_rows(times, evals[:, m] - evals[:, 0])
        for tile in tiles:
            amps[tile] += vecs[:, m] * (phase(tile) * ceig[m])[:, None, :]
    return amps


def mc_average(spec: EnsembleSpec, c_fn, times, cfg: OracleConfig) -> DensityTrajectory:
    """Monte Carlo disorder average with exact per-realization evolution.

    Each sample draws its disorder vector from its own counter-based stream
    (Philox keyed by ``(seed, sample_index)``), so the result is independent
    of chunking or execution order.  The ``errors`` field holds the per-entry
    standard error of the mean.

    ``c_fn`` may be a constant amplitude vector or a vectorized callable of
    the disorder (see :func:`~enslat.states.realization_amplitudes`);
    per-realization vectors must be normalized.
    """
    if spec.n > _MAX_DENSE_N:
        raise SystemTooLarge(f"dense oracle limited to N <= {_MAX_DENSE_N}")
    times = np.asarray(times, dtype=float)
    s, l, n = int(cfg.samples), spec.l, spec.n
    rows, cols = np.triu_indices(n)

    # chunked Welford/Chan accumulation over the entries n <= m: robust to
    # cancellation, exactly zero spread for degenerate (zero-variance) ensembles
    mean = np.zeros((times.size, rows.size), dtype=complex)
    m2 = np.zeros((times.size, rows.size))
    cmean, cm2 = np.empty_like(mean), np.empty_like(m2)
    count = 0
    for s0 in range(0, s, _CHUNK):
        u = _philox_uniforms(cfg.seed, s0, min(s0 + _CHUNK, s), l)
        lam = np.column_stack([quantile(spec.distributions[j], u[:, j]) for j in range(l)])
        c0 = realization_amplitudes(c_fn, lam, n)
        worst = np.max(np.abs(np.linalg.norm(c0, axis=1) - 1.0))
        if worst > 1e-8:
            raise NotNormalized(f"per-realization initial state off by {worst:.3e}")
        amps = _evolve_batch(spec.hamiltonian(lam), c0, times)
        nb = amps.shape[-1]
        for tile in _time_tiles(times.size, 16 * rows.size * nb):
            dev = np.conj(amps[tile, cols])                     # (tile, P, B)
            dev *= amps[tile, rows]                             # rho entries
            cmean[tile] = dev.mean(axis=-1)
            dev -= cmean[tile, :, None]
            # corrected two-pass sum of squares (exact zero for identical samples)
            sq = dev.view(float)
            cm2[tile] = np.einsum("tpb,tpb->tp", sq, sq) - np.abs(dev.sum(axis=-1)) ** 2 / nb
        # free this chunk's amplitudes before the next chunk's are made: with
        # both alive, peak memory doubled and depended on heap layout
        del amps
        np.clip(cm2, 0.0, None, out=cm2)
        delta = cmean - mean
        total = count + nb
        mean += delta * (nb / total)
        m2 += cm2 + np.abs(delta) ** 2 * (count * nb / total)
        count = total
    sem = np.sqrt(m2 / s) / np.sqrt(s)
    # rounding residue of an exactly constant entry: its spread is a few eps
    # in units of the answer, so its standard error scales as eps * |rho| / sqrt(s)
    sem[sem <= 8 * np.finfo(float).eps * np.abs(mean).max() / np.sqrt(s)] = 0.0
    info = {"method": "mc", "samples": s, "seed": int(cfg.seed),
            "degenerate_distribution": bool(s > 1 and float(sem.max()) == 0.0)}
    return DensityTrajectory(times, _hermitian(mean, rows, cols, n),
                             errors=_hermitian(sem, rows, cols, n), info=info)


def _hermitian(upper: np.ndarray, rows, cols, n: int) -> np.ndarray:
    """(T, N, N) Hermitian matrices from their (T, P) entries n <= m."""
    out = np.empty((upper.shape[0], n, n), dtype=upper.dtype)
    out[:, cols, rows] = upper.conj()
    out[:, rows, cols] = upper          # after the conjugate, so the diagonal is kept as is
    return out


def quad_average(spec: EnsembleSpec, c_fn, times, cfg: OracleConfig) -> DensityTrajectory:
    """Disorder average over tensor-product Gauss nodes (deterministic).

    Nodes and weights per dimension come from the recurrence tables of the
    disorder measures.  Exact realization evolution at every node, weighted
    mean; no error bars.
    """
    if spec.n > _MAX_DENSE_N:
        raise SystemTooLarge(f"dense oracle limited to N <= {_MAX_DENSE_N}")
    times = np.asarray(times, dtype=float)
    orders = cfg.quad_order if np.iterable(cfg.quad_order) else [cfg.quad_order] * spec.l
    tables = [recurrence_table(d, int(q)) for d, q in zip(spec.distributions, orders)]
    rules = [gauss_rule(t, int(q)) for t, q in zip(tables, orders)]

    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    lam = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)

    n = spec.n
    acc = np.zeros((times.size, n, n), dtype=complex)
    for s0 in range(0, lam.shape[0], _CHUNK):
        chunk = lam[s0:s0 + _CHUNK]
        c0 = realization_amplitudes(c_fn, chunk, n)
        amps = _evolve_batch(spec.hamiltonian(chunk), c0, times)   # (T, N, B)
        acc += (amps * weights[s0:s0 + _CHUNK]) @ amps.conj().transpose(0, 2, 1)
    info = {"method": "quad", "quad_order": list(int(q) for q in orders)}
    return DensityTrajectory(times, acc, info=info)


def analytic_qubit(a: complex, b: complex, e0: float, e1: float,
                   dist: DisorderDistribution, times) -> DensityTrajectory:
    """Closed-form dephasing of a disordered qubit ensemble.

    For H(lam) = diag(e0, e1 + lam) and initial state a|0> + b|1>, the
    populations are constant and the coherence is

        rho_01(t) = a b* exp(-i (e0 - e1) t) phi(t),

    with phi the characteristic function of the disorder.  Valid for the four
    named families without cutoff (UnsupportedFamily otherwise).
    """
    times = np.asarray(times, dtype=float)
    phi = np.atleast_1d(characteristic_function(dist, times))
    rho = np.zeros((times.size, 2, 2), dtype=complex)
    rho[:, 0, 0] = abs(a) ** 2
    rho[:, 1, 1] = abs(b) ** 2
    rho[:, 0, 1] = a * np.conj(b) * np.exp(-1j * (e0 - e1) * times) * phi
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    return DensityTrajectory(times, rho, info={"method": "analytic"})


def chain_to_ensemble(g: float, unit_cell: np.ndarray, attach: int) -> EnsembleSpec:
    """Reverse map: constant-coupling lattice -> semicircle-disordered ensemble.

    A semi-infinite lattice of `unit_cell` copies whose neighbours couple with
    amplitude g through component `attach` has constant recurrence
    coefficients beta = g^2, i.e. it is the chain image of a single disorder
    variable with a Wigner semicircle distribution of width w = 2g coupling
    linearly to that component.  Ensemble-averaging over that disorder
    reproduces the lattice dynamics traced to the unit cell.
    """
    if not g > 0:
        raise ValueError("coupling g must be positive")
    unit_cell = np.asarray(unit_cell, dtype=complex)
    n = unit_cell.shape[0]
    if not 0 <= attach < n:
        raise ValueError(f"attach index {attach} outside 0..{n - 1}")
    proj = np.zeros((n, n), dtype=complex)
    proj[attach, attach] = 1.0
    return EnsembleSpec(unit_cell, (LinearCoupling(proj),),
                        (DisorderDistribution.semicircle(2.0 * g),))
