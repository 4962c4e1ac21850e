"""Independent reference computations for cross-validation.

Three routes to the disorder-averaged density matrix that never touch the
lattice machinery:

* :func:`mc_average` samples realizations and evolves each one exactly by
  eigendecomposition (with per-entry standard errors);
* :func:`quad_average` replaces random samples with tensor-product Gauss
  nodes of the disorder measures (deterministic, spectrally convergent);
* :func:`analytic_qubit` is the closed form for the dephasing qubit, where
  the coherence is the characteristic function of the disorder.

Both averaging routes ask a chunk of realizations for the rho entries they
need, one time tile at a time, and fold each tile while it is in cache, so
no (T, N, B) array is held.  A chunk evolves block by block: its levels
split into the blocks that no H(lambda) of the chunk couples, each block of
two or more levels is diagonalized on its own, and a level alone in its
block is its own eigenvector, one phase with no ``eigh``.  A coherence
between two levels alone (under pure dephasing, every coherence) is then
one phase per realization, written straight from its own factor tables;
any other entry is a product of amplitudes.  A dense ensemble is one
block.  :func:`mc_average` runs each chunk as one task, from its draws to
its fold, on up to one thread per available core; the calling thread
merges their moments in chunk order, so its output is bitwise the same for
any number of threads.  The population of a level that h0 and every
coupling leave uncoupled (under pure dephasing, every level) is the same at
every time: a chunk folds it once, from the initial amplitudes, and only
the entries that move are folded per time.

:func:`chain_to_ensemble` is the reverse map: a constant-coupling
semi-infinite lattice is the chain image of semicircle-distributed disorder,
so lattice dynamics can be reproduced by averaging over an ensemble.
"""

from __future__ import annotations

import collections
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SystemTooLarge
from .lattice import EnsembleSpec, PolynomialCoupling
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
    "MAX_DENSE_N",
]

MAX_DENSE_N = 64    # largest N the dense oracles evolve; the CLI's pre-flight reads it too
_CHUNK = 4096       # fixed chunk size keeps the summation order reproducible
# A time tile is sized by its amplitudes and rho entries.  It stays in a
# core's cache, and its tiles are few enough that pool threads seldom trade
# the GIL: at 256 KB two threads ran slower than one, and 4 MB spilled the cache.
_TILE_BYTES = 1 << 20
_UNIFORM_ULPS = 4       # a time grid this close to t_0 + j dt gets factorized phases


@dataclass(frozen=True)
class OracleConfig:
    """Controls for the oracle routes.

    ``seed`` keys the counter-based per-sample random streams, so mc_average
    output is bitwise reproducible and independent of execution order.
    ``quad_order`` is the Gauss order of every disorder variable, or a
    sequence of one order per variable.
    """

    samples: int = 10_000
    seed: int = 0
    quad_order: int | tuple = 40

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if np.iterable(self.quad_order):
            object.__setattr__(self, "quad_order", tuple(self.quad_order))
        orders = np.atleast_1d(self.quad_order)
        if orders.size == 0 or np.any(orders < 1):
            raise ValueError("quad_order must be >= 1, for every disorder variable")
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


def _phase_rows(times: np.ndarray, g: np.ndarray, scale=None):
    """Phases exp(-i t g) of one gap per realization, g of shape (B,), each
    times its realization's ``scale`` when one is given.

    Returns ``phase(tile, out=None)``, the (tile, B) rows of a slice of the
    times, written into ``out`` when one is given.  On a uniform grid
    t_j = t_0 + j dt the phase factorizes: with j = q b + r and
    b = ceil(sqrt(T)),

        exp(-i g t_j) = exp(-i g t_{qb}) exp(-i g (t_r - t_0)),

    so a realization costs ceil(T / b) + b ``exp`` calls, not T, and only
    those two tables are held; a tile is one product per coarse time it
    spans, of a coarse row and a slice of fine rows.  The scale is folded
    into the coarse table once, so it costs a tile nothing.  The coarse
    factor is scale times the direct phase of the grid's own times t_{qb},
    and the fine factor of r = 0 is exactly 1, so at every j = q b (t_0
    included) the row equals scale times the direct phase bitwise.
    Elsewhere it is off by a few ulp of g t.  Any other grid takes the
    direct ``exp`` per tile, then the scale.
    """
    b = _fine_length(times)
    if b is None:
        def direct(tile: slice, out=None) -> np.ndarray:
            out = np.exp(-1j * np.multiply.outer(times[tile], g), out=out)
            if scale is not None:
                out *= scale
            return out
        return direct
    coarse = np.multiply.outer(times[::b], -1j * g)
    fine = np.multiply.outer(times[:b] - times[0], -1j * g)
    np.exp(coarse, out=coarse)          # in place: no second table-sized temporary
    np.exp(fine, out=fine)
    if scale is not None:
        coarse *= scale

    def phase(tile: slice, out=None) -> np.ndarray:
        t0, t1, _ = tile.indices(times.size)
        out = np.empty((t1 - t0, g.size), complex) if out is None else out
        for q in range(t0 // b, -(-t1 // b)):           # one product per coarse time
            j0, j1 = max(t0, q * b), min(t1, (q + 1) * b)
            np.multiply(coarse[q], fine[j0 - q * b:j1 - q * b], out=out[j0 - t0:j1 - t0])
        return out
    return phase


def _blocks(mats: np.ndarray) -> list:
    """The levels of a stack of (..., N, N) matrices, split into blocks: the
    connected components of the off-diagonal entries that are exactly nonzero
    in any of them.  Each block is the sorted array of its levels, in the
    order of their lowest levels.  No matrix of the stack couples two blocks.
    """
    n = mats.shape[-1]
    linked = (mats != 0).reshape(-1, n, n).any(axis=0)
    reach = linked | linked.T | np.eye(n, dtype=bool)
    while True:                         # paths of length 2^k, until no level is added
        longer = reach @ reach
        if np.array_equal(longer, reach):
            break
        reach = longer
    blocks, seen = [], np.zeros(n, dtype=bool)
    for r in range(n):
        if seen[r]:
            continue
        blocks.append(np.flatnonzero(reach[r]))
        seen[blocks[-1]] = True
    return blocks


def _evolve_batch(hb: np.ndarray, c0: np.ndarray, times: np.ndarray, rows, cols):
    """The rho entries (rows[p], cols[p]) of a batch (B, N, N), (B, N), one
    time tile at a time.

    Returns ``samples(tile)``, the (tile, P, B) values a_r conj(a_c) of each
    realization's amplitudes a(t) on a slice of the times, so no (T, N, B)
    array is held.  The levels split into the blocks of :func:`_blocks`,
    which no H(lambda) of the batch couples, and an entry takes one of two
    routes:

    * both of its levels are alone in their blocks, so each is its own
      eigenvector and the entry is c_r conj(c_c) exp(-i (E_r - E_c) t): one
      row of :func:`_phase_rows`, which holds c_r conj(c_c) in its coarse
      table.  An entry (r, r) is the constant |c_r|^2, with no table;
    * any other entry is conj(a_c) a_r, from the amplitudes of the levels it
      reads, each column level conjugated once per tile.  A block of two or
      more levels is diagonalized on its own: with its eigenvectors v_m and
      w_m = v_m (V^H c)_m, held as one contiguous (K, K, B) table, its
      amplitudes are sum_m w_m phase_m(tile), written straight into the
      tile.  A level alone is its own eigenvector, with no ``eigh``: its
      amplitude is the phase row with c_r as its scale.

    Only the blocks that the second route reads are evolved, so a batch
    asked for no entry runs no ``eigh`` and builds no table.  Amplitude
    phases run relative to the lowest eigenvalue of the first block read;
    the global phase dropped that way cancels in rho.  For one block (a
    dense ensemble) that is each realization's lowest eigenvalue.  Every
    phase comes from :func:`_phase_rows`, so a time's entries are the same
    bit for bit under any tiling.
    """
    nb, n = c0.shape
    blocks = _blocks(hb)
    alone = np.zeros(n, dtype=bool)
    for levels in blocks:
        alone[levels] = levels.size == 1
    energy = hb.diagonal(axis1=1, axis2=2).real        # a level alone's eigenvalue
    phased = alone[rows] & alone[cols]
    constant, coherences = [], []
    for p in np.flatnonzero(phased):
        r, c = rows[p], cols[p]
        scale = c0[:, r] * c0[:, c].conj()
        if r == c:
            constant.append((p, scale))
        else:
            coherences.append((p, _phase_rows(times, energy[:, r] - energy[:, c], scale)))

    other = np.flatnonzero(~phased)
    read = np.zeros(n, dtype=bool)
    read[rows[other]] = read[cols[other]] = True
    parts, ref = [], None
    for levels in blocks:
        if not read[levels].any():
            continue
        k = levels.size
        if levels[-1] - levels[0] == k - 1:     # a range of levels: read and written as views
            levels = slice(levels[0], levels[-1] + 1)
        if k == 1:                          # w = c_r: the scale of its phase row
            evals, w = energy[:, levels], np.ascontiguousarray(c0.T[levels])
        else:
            sub = hb if len(blocks) == 1 else hb[:, levels][:, :, levels]
            evals, vecs = np.linalg.eigh(sub)
            ceig = (vecs.transpose(1, 2, 0).conj() * c0.T[levels, None, :]).sum(axis=0)  # V^H c
            w = np.multiply(vecs.transpose(2, 1, 0), ceig[:, None, :],
                            out=np.empty((k, k, nb), complex))
        phases = []
        if ref is None:                     # the reference level: its phase is exactly 1
            ref, phases = evals[:, 0], [None]
        phases += [_phase_rows(times, evals[:, m] - ref, w[0] if k == 1 else None)
                   for m in range(len(phases), k)]
        parts.append((levels, w, phases))
    columns = np.unique(cols[other])

    def amps(tile: slice) -> np.ndarray:
        out = np.empty((times[tile].size, n, nb), complex)
        for levels, w, phases in parts:
            # a block that is no range of levels is summed aside, then scattered
            dst = (out[:, levels] if isinstance(levels, slice)
                   else np.empty((out.shape[0], levels.size, nb), complex))
            for m, phase in enumerate(phases):
                if phase is None:
                    dst[...] = w[m]
                elif len(phases) == 1:      # a level alone: its phase times c_r
                    phase(tile, out=dst[:, 0])
                elif m == 0:
                    np.multiply(w[m], phase(tile)[:, None, :], out=dst)
                else:
                    dst += w[m] * phase(tile)[:, None, :]
            if not isinstance(levels, slice):
                out[:, levels] = dst
        return out

    def samples(tile: slice) -> np.ndarray:
        out = np.empty((times[tile].size, rows.size, nb), complex)
        for p, value in constant:
            out[:, p] = value
        for p, phase in coherences:
            phase(tile, out=out[:, p])
        if other.size:
            a = amps(tile)
            ac = {c: np.conjugate(a[:, c]) for c in columns}
            for p in other:
                np.multiply(ac[cols[p]], a[:, rows[p]], out=out[:, p])
        return out
    return samples


def _workers() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # platforms without CPU affinity
        return os.cpu_count() or 1


def _mc_chunk(spec: EnsembleSpec, c_fn, times, seed: int, start: int, stop: int,
              rows, cols, still):
    """Moments of samples start..stop-1, from their draws to the fold of their
    last time tile: one pool task, which calls NumPy and ``c_fn`` only.

    An entry the mask ``still`` marks (see :func:`_conserved`) is folded
    once, from |c_r|^2, and its moments are given to every time.  Only the
    entries that move are asked of :func:`_evolve_batch` and go through
    :func:`_chunk_moments`, in time tiles sized by the amplitudes and those
    entries; when none moves, no tile is evolved.
    """
    u = _philox_uniforms(seed, start, stop, spec.l)
    lam = np.column_stack([quantile(d, u[:, j]) for j, d in enumerate(spec.distributions)])
    c0 = realization_amplitudes(c_fn, lam, spec.n)
    moves = ~still
    samples = _evolve_batch(spec.hamiltonian(lam), c0, times, rows[moves], cols[moves])
    mean = np.empty((times.size, rows.size), complex)
    m2 = np.empty((times.size, rows.size))
    if moves.any():
        tiles = _time_tiles(times.size, 16 * (spec.n + np.count_nonzero(moves)) * (stop - start))
        mean[:, moves], m2[:, moves] = _chunk_moments(samples, tiles)
    pops = c0.T[rows[still]]
    mean[:, still], m2[:, still] = _moments(pops * pops.conj())
    return stop - start, mean, m2


def _conserved(spec: EnsembleSpec, rows, cols) -> np.ndarray:
    """Which entries (rows[p], cols[p]) every realization conserves: the
    populations of the levels that h0 and every coupling coefficient leave
    uncoupled, the one-level blocks of :func:`_blocks`.

    Such a level r is an eigenvector of every H(lambda), so
    rho_rr(t) = |c_r(lambda)|^2 at all times.  Only exact zeros off the
    diagonal count.
    """
    alone = np.zeros(spec.n, dtype=bool)
    for levels in _blocks(np.array([spec.h0, *(m for c in spec.couplings for m in c.matrices)])):
        alone[levels] = levels.size == 1
    return (rows == cols) & alone[rows]


def _moments(d):
    """Mean and sum of squared deviations over the last axis of the samples d,
    by the corrected two-pass rule (exact zero for identical samples); d is
    overwritten by its deviations."""
    mean = d.mean(axis=-1)
    d -= mean[..., None]
    sq = d.view(float)
    m2 = np.einsum("...b,...b->...", sq, sq) - np.abs(d.sum(axis=-1)) ** 2 / d.shape[-1]
    return mean, np.clip(m2, 0.0, None, out=m2)


def _chunk_moments(samples, tiles):
    """Mean and sum of squared deviations over one chunk's realizations of
    the values ``samples(tile)`` (see :func:`_evolve_batch`), at every time.

    Each time tile is evolved and folded while it is in cache.
    """
    means, m2s = [], []
    for tile in tiles:
        mean, m2 = _moments(samples(tile))
        means.append(mean)
        m2s.append(m2)
    return np.concatenate(means), np.concatenate(m2s)


def mc_average(spec: EnsembleSpec, c_fn, times, cfg: OracleConfig) -> DensityTrajectory:
    """Monte Carlo disorder average with exact per-realization evolution.

    Each sample draws its disorder vector from its own counter-based stream
    (Philox keyed by ``(seed, sample_index)``), so the result is independent
    of chunking or execution order.  The ``errors`` field holds the per-entry
    standard error of the mean.

    Each chunk is one task on up to one pool thread per available core, from
    its draws to the fold of its last time tile.  The calling thread only
    submits the chunks and merges their moments in chunk order, so the output
    is bitwise the same for any number of threads.  A chunk that raises
    cancels the chunks queued behind it.

    Each chunk's realizations evolve block by block (see
    :func:`_evolve_batch`), so a level that no H(lambda) of the chunk
    couples costs no eigendecomposition, and a coherence between two such
    levels is one phase per realization.  The
    population of a level that h0 and every coupling coefficient leave
    uncoupled (each level under pure dephasing) is conserved by every
    realization: it is folded once per chunk and holds one value at every
    time.  ``info["conserved_entries"]`` lists these [r, c] entries.

    ``c_fn`` may be a constant amplitude vector or a vectorized callable of
    the disorder (see :func:`~enslat.states.realization_amplitudes`);
    per-realization vectors must be normalized (NotNormalized otherwise).
    """
    if spec.n > MAX_DENSE_N:
        raise SystemTooLarge(f"dense oracle limited to N <= {MAX_DENSE_N}")
    times = np.asarray(times, dtype=float)
    s, n = int(cfg.samples), spec.n
    rows, cols = np.triu_indices(n)

    # chunked Welford/Chan accumulation over the entries n <= m: robust to
    # cancellation, exactly zero spread for degenerate (zero-variance) ensembles
    mean = np.zeros((times.size, rows.size), dtype=complex)
    m2 = np.zeros((times.size, rows.size))
    still = _conserved(spec, rows, cols)
    count = 0
    starts = range(0, s, _CHUNK)
    workers = min(_workers(), len(starts))
    # futures of chunk moments: one per pool thread and one queued behind them
    running = collections.deque()
    with ThreadPoolExecutor(workers) as pool:
        try:
            for s0 in starts:
                if len(running) > workers:
                    count = _merge(mean, m2, count, *running.popleft().result())
                running.append(pool.submit(_mc_chunk, spec, c_fn, times, cfg.seed,
                                           s0, min(s0 + _CHUNK, s), rows, cols, still))
            while running:
                count = _merge(mean, m2, count, *running.popleft().result())
        except BaseException:
            pool.shutdown(cancel_futures=True)      # a failed chunk: queued ones never start
            raise
    sem = np.sqrt(m2 / s) / np.sqrt(s)
    # rounding residue of an exactly constant entry: its spread is a few eps
    # in units of the answer, so its standard error scales as eps * |rho| / sqrt(s)
    sem[sem <= 8 * np.finfo(float).eps * np.abs(mean).max() / np.sqrt(s)] = 0.0
    info = {"method": "mc", "samples": s, "seed": int(cfg.seed),
            "degenerate_distribution": bool(s > 1 and float(sem.max()) == 0.0),
            "conserved_entries": [[int(r), int(c)] for r, c in
                                  zip(rows[still], cols[still])]}
    return DensityTrajectory(times, _hermitian(mean, rows, cols, n),
                             errors=_hermitian(sem, rows, cols, n), info=info)


def _merge(mean, m2, count: int, nb: int, cmean, cm2) -> int:
    """Fold a chunk's moments over nb samples into (mean, m2) over count, in place.

    Chan, Golub & LeVeque's pairwise update.  Returns the new count.
    """
    delta = cmean - mean
    total = count + nb
    mean += delta * (nb / total)
    m2 += cm2 + np.abs(delta) ** 2 * (count * nb / total)
    return total


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
    mean; no error bars.  ``c_fn`` is as for :func:`mc_average`.  Each
    chunk of nodes asks :func:`_evolve_batch` for every entry n <= m and
    adds their weighted sum, tile by tile, summed pairwise over the nodes;
    rho is filled in from those entries.
    """
    if spec.n > MAX_DENSE_N:
        raise SystemTooLarge(f"dense oracle limited to N <= {MAX_DENSE_N}")
    times = np.asarray(times, dtype=float)
    orders = cfg.quad_order if np.iterable(cfg.quad_order) else [cfg.quad_order] * spec.l
    if len(orders) != spec.l:
        raise DimensionMismatch(f"{spec.l} disorder variables but {len(orders)} quadrature orders")
    tables = [recurrence_table(d, int(q)) for d, q in zip(spec.distributions, orders)]
    rules = [gauss_rule(t, int(q)) for t, q in zip(tables, orders)]

    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    lam = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)

    n = spec.n
    rows, cols = np.triu_indices(n)
    acc = np.zeros((times.size, rows.size), dtype=complex)
    for s0 in range(0, lam.shape[0], _CHUNK):
        chunk = lam[s0:s0 + _CHUNK]
        c0 = realization_amplitudes(c_fn, chunk, n)
        samples = _evolve_batch(spec.hamiltonian(chunk), c0, times, rows, cols)
        w = weights[s0:s0 + _CHUNK]
        for tile in _time_tiles(times.size, 16 * (n + rows.size) * w.size):
            d = samples(tile)
            d *= w
            acc[tile] += d.sum(axis=-1)         # pairwise over the nodes
    info = {"method": "quad", "quad_order": list(int(q) for q in orders)}
    return DensityTrajectory(times, _hermitian(acc, rows, cols, n), info=info)


def analytic_qubit(a: complex, b: complex, e0: float, e1: float,
                   dist: DisorderDistribution, times) -> DensityTrajectory:
    """Closed-form dephasing of a disordered qubit ensemble.

    For H(lam) = diag(e0, e1 + lam) and initial state a|0> + b|1>, the
    populations are constant and the coherence is

        rho_01(t) = a b* exp(-i (e0 - e1) t) phi(t),

    with phi the characteristic function of the disorder.  Valid for the four
    named families without cutoff (UnsupportedFamily otherwise).  The CLI
    runs it on any ensemble whose coefficients are this one's, to 1e-12:
    h0 diagonal and a coupling with ``matrices[1] = diag(0, 1)`` and every
    other coefficient zero, however the coupling was built.
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
    return EnsembleSpec(unit_cell, (PolynomialCoupling.linear(proj),),
                        (DisorderDistribution.semicircle(2.0 * g),))
