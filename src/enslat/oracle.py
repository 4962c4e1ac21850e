"""Independent reference computations for cross-validation.

Three routes to the disorder-averaged density matrix that never touch the
lattice machinery:

* :func:`mc_average` samples realizations and evolves each one exactly by
  eigendecomposition (with per-entry standard errors); its draws come from
  NumPy's Philox generator, keyed by the seed, with a fixed range of
  counters per sample;
* :func:`quad_average` replaces random samples with tensor-product Gauss
  nodes of the disorder measures (deterministic, spectrally convergent);
* :func:`analytic_qubit` is the closed form for the dephasing qubit, where
  the coherence is the characteristic function of the disorder.

Both averaging routes run through one driver, :func:`_average`: Monte
Carlo passes it its draws, quadrature its Gauss nodes, each node's
amplitudes scaled so that the plain mean is the weighted sum.  The driver
runs each chunk of realizations as one task, from its disorder values to
its fold, on up to one thread per available core (a lone chunk on the
calling thread); the calling thread merges their moments in chunk order,
so both outputs are bitwise the same for any number of threads.  The
driver decides each entry's route once, from h0 and the coupling
coefficients (see :func:`_alone`).  The population of a level that none
of them couples to another (under pure dephasing, every level) is the same
at every time: each chunk folds it once, from the initial amplitudes.  A
coherence between two such levels (under pure dephasing, every coherence)
is one phase per realization, and each chunk folds it straight from its two
factor tables (see :func:`_phase_moments`): one matrix product for its mean
at every time, and no (T, B) array of samples.  Any other entry is a
product of the amplitudes of one ``eigh`` of the whole chunk, evolved one
time tile at a time and folded while the tile is in cache, so no (T, N, B)
array is held.

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
_ONE_PASS = 1e9 * 2.0 ** -53    # a one-pass m2 is kept where B u S / m2 <= 1e-9 (_phase_moments)


@dataclass(frozen=True)
class OracleConfig:
    """Controls for the oracle routes.

    ``seed`` keys the counter-based random stream in which each sample owns
    its own counters, so mc_average output is bitwise reproducible and
    independent of execution order.
    ``quad_order`` is the Gauss order of every disorder variable, or a
    sequence of one order per variable.  Every control is a Python or NumPy
    integer: a float or a bool raises ValueError, so nothing is truncated.
    """

    samples: int = 10_000
    seed: int = 0
    quad_order: int | tuple = 40

    def __post_init__(self):
        if np.iterable(self.quad_order):
            object.__setattr__(self, "quad_order", tuple(self.quad_order))
        orders = self.quad_order if np.iterable(self.quad_order) else (self.quad_order,)
        for name, values in (("samples", [self.samples]), ("seed", [self.seed]),
                             ("quad_order", orders)):
            for v in values:        # an int or a NumPy integer; a bool is neither here
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not orders or min(orders) < 1:
            raise ValueError("quad_order must be >= 1, for every disorder variable")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


# ---------------------------------------------------------------------------
# counter-based draws
# ---------------------------------------------------------------------------

def _philox_uniforms(seed: int, start: int, stop: int, l: int) -> np.ndarray:
    """Uniforms of samples start..stop-1, as a (stop - start, l) array.

    One Philox4x64-10 stream, keyed by ``seed``, gives each sample its own
    range of b = ceil(l / 4) counters, so row i holds
    ``np.random.Generator(np.random.Philox(key=seed, counter=i * b)).random(l)``
    bit for bit, whatever the chunk that asks for it.  NumPy's generator
    makes every sample of the range in one call: each counter yields four
    64-bit words, and a word u becomes the double (u >> 11) * 2**-53.
    """
    b = -(-l // 4)
    raw = np.random.Philox(key=seed, counter=start * b).random_raw(4 * b * (stop - start))
    return ((raw >> np.uint64(11)) * 2.0 ** -53).reshape(stop - start, -1)[:, :l]


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


def _direct(times: np.ndarray, g: np.ndarray, scale=None) -> np.ndarray:
    """The (T, B) phases exp(-i t g) of the times, each times its realization's
    ``scale`` when one is given: one ``exp`` per entry."""
    out = np.exp(-1j * np.multiply.outer(times, g))
    if scale is not None:
        out *= scale
    return out


def _phase_tables(times: np.ndarray, g: np.ndarray, scale=None):
    """The two factor tables of the phases exp(-i t g) of one gap per
    realization, g of shape (B,), each times its realization's ``scale``
    when one is given; None unless the grid is uniform.

    On a uniform grid t_j = t_0 + j dt the phase factorizes: with j = q b + r
    and b = ceil(sqrt(T)),

        exp(-i g t_j) = exp(-i g t_{qb}) exp(-i g (t_r - t_0)),

    so row j is coarse[q] * fine[r], of the ceil(T / b) x B coarse table and
    the b x B fine one, and a realization costs ceil(T / b) + b ``exp``
    calls, not T.  The scale is folded into the coarse table once.  The
    coarse factor is scale times the direct phase of the grid's own times
    t_{qb}, and the fine factor of r = 0 is exactly 1, so at every j = q b
    (t_0 included) the row equals scale times the direct phase bitwise.
    Elsewhere it is off by a few ulp of g t.
    """
    b = _fine_length(times)
    if b is None:
        return None
    coarse = np.multiply.outer(times[::b], -1j * g)
    fine = np.multiply.outer(times[:b] - times[0], -1j * g)
    np.exp(coarse, out=coarse)          # in place: no second table-sized temporary
    np.exp(fine, out=fine)
    if scale is not None:
        coarse *= scale
    return coarse, fine


def _phase_rows(times: np.ndarray, g: np.ndarray):
    """Phases exp(-i t g) of one gap per realization, g of shape (B,).

    Returns ``phase(tile)``, the (tile, B) rows of a slice of the times.  On a
    uniform grid a tile is one product per coarse time it spans, of a coarse
    row and a slice of fine rows of :func:`_phase_tables`, and only those two
    tables are held.  Any other grid takes the direct ``exp`` per tile.
    """
    tables = _phase_tables(times, g)
    if tables is None:
        return lambda tile: _direct(times[tile], g)
    coarse, fine = tables
    b = fine.shape[0]

    def phase(tile: slice) -> np.ndarray:
        t0, t1, _ = tile.indices(times.size)
        out = np.empty((t1 - t0, g.size), complex)
        for q in range(t0 // b, -(-t1 // b)):           # one product per coarse time
            j0, j1 = max(t0, q * b), min(t1, (q + 1) * b)
            np.multiply(coarse[q], fine[j0 - q * b:j1 - q * b], out=out[j0 - t0:j1 - t0])
        return out
    return phase


def _phase_moments(times: np.ndarray, g: np.ndarray, scale: np.ndarray):
    """Mean and sum of squared deviations, over B realizations, of the samples
    scale * exp(-i g t) at every time, folded straight from their factor
    tables: g and scale of shape (B,).

    The mean of the times a coarse and a fine table span is one matrix
    product, (coarse @ fine.T) / B, read row-major.  A sample's |.|^2 is
    |scale|^2 at every time, so the sum of squared deviations is
    S - B |mean|^2, with S = sum_b |scale_b|^2.  Chan, Golub & LeVeque
    (Amer. Statist. 37, 242, 1983) bound that one-pass form's relative error
    by about B u S / m2, u = 2**-53: a time keeps it only where that bound is
    at most 1e-9.  Every other time (t = 0 when every realization has one
    scale, as under one initial state; a degenerate or very narrow ensemble)
    has its samples built from the same tables and folded by
    :func:`_moments`, bit for bit as a (T, B) array of them would be.  No (T, B) array is held: on a uniform grid the
    two tables of :func:`_phase_tables` span every time, and any other grid
    is folded one cache tile at a time, with the tile's direct phases as its
    coarse table and one row of ones as its fine table.
    """
    nb = g.size
    s = np.sum(scale.real ** 2 + scale.imag ** 2)
    tables = _phase_tables(times, g, scale)
    if tables is None:
        ones = np.ones((1, nb), complex)
        blocks = ((tile, _direct(times[tile], g, scale), ones)
                  for tile in _time_tiles(times.size, 16 * nb))
    else:
        blocks = [(slice(0, times.size), *tables)]
    mean = np.empty(times.size, complex)
    m2 = np.empty(times.size)
    for tile, coarse, fine in blocks:
        b = fine.shape[0]
        mu = (coarse @ fine.T).ravel()[:times[tile].size] / nb
        dev = s - nb * (mu.real ** 2 + mu.imag ** 2)
        redo = np.flatnonzero(~(dev >= _ONE_PASS * nb * s))       # a NaN too
        if redo.size:
            mu[redo], dev[redo] = _moments(coarse[redo // b] * fine[redo % b])
        mean[tile], m2[tile] = mu, dev
    return mean, m2


def _alone(mats: np.ndarray) -> np.ndarray:
    """Which levels of a stack of (..., N, N) Hermitian matrices are alone: those
    whose row is exact zeros off the diagonal in every matrix, so none couples
    them to another level.  A spec stores Hermitian parts: a row is its column."""
    n = mats.shape[-1]
    off = (mats != 0).reshape(-1, n, n).any(axis=0) & ~np.eye(n, dtype=bool)
    return ~off.any(axis=1)


def _evolve_batch(hb: np.ndarray, c0: np.ndarray, times: np.ndarray, rows, cols):
    """The rho entries (rows[p], cols[p]) of a batch (B, N, N), (B, N), one
    time tile at a time, from the amplitudes of one ``eigh`` of the batch.

    Returns ``samples(tile)``, the (tile, P, B) values a_r conj(a_c) of each
    realization's amplitudes a(t) on a slice of the times, so no (T, N, B)
    array is held.  With eigenvectors v_m and w_m = v_m (V^H c)_m, held as
    one contiguous (N, N, B) table, the amplitudes are sum_m w_m phase_m(tile),
    each column level conjugated once per tile.  Phases run relative to each
    realization's lowest eigenvalue; the global phase dropped that way
    cancels in rho.  Every phase comes from :func:`_phase_rows`, so a time's
    entries are the same bit for bit under any tiling.  Each chunk calls this
    once with its whole batch, the benchmark's tracer counts the realizations
    evolved here, and a batch asked for no entry runs no ``eigh`` and builds
    no table.
    """
    nb, n = c0.shape
    if rows.size:
        evals, vecs = np.linalg.eigh(hb)
        ceig = (vecs.transpose(1, 2, 0).conj() * c0.T[:, None, :]).sum(axis=0)  # V^H c
        w = np.multiply(vecs.transpose(2, 1, 0), ceig[:, None, :],
                        out=np.empty((n, n, nb), complex))
        phases = [_phase_rows(times, evals[:, m] - evals[:, 0]) for m in range(1, n)]
        columns = np.unique(cols)

    def samples(tile: slice) -> np.ndarray:
        a = np.empty((times[tile].size, n, nb), complex)
        a[...] = w[0]                       # the lowest eigenvalue: its phase is exactly 1
        for m, phase in enumerate(phases, 1):
            a += w[m] * phase(tile)[:, None, :]
        ac = {c: np.conjugate(a[:, c]) for c in columns}
        out = np.empty((a.shape[0], rows.size, nb), complex)
        for p, (r, c) in enumerate(zip(rows, cols)):
            np.multiply(ac[c], a[:, r], out=out[:, p])
        return out
    return samples


def _workers() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # platforms without CPU affinity
        return os.cpu_count() or 1


def _moments(d):
    """Mean and sum of squared deviations over the last axis of the samples d,
    by the corrected two-pass rule (exact zero for identical samples); d is
    overwritten by its deviations."""
    mean = d.mean(axis=-1)
    d -= mean[..., None]
    sq = d.view(float)
    m2 = np.einsum("...b,...b->...", sq, sq) - np.abs(d.sum(axis=-1)) ** 2 / d.shape[-1]
    return mean, np.clip(m2, 0.0, None, out=m2)


def _chunk(spec: EnsembleSpec, c_fn, times, points, start: int, stop: int, rows, cols,
           still, phased):
    """Moments of realizations start..stop-1, from their disorder values to
    the fold of their last time tile: one pool task, which calls NumPy,
    ``points`` and ``c_fn`` only.

    ``points(start, stop)`` gives the chunk's (B, l) disorder values and a
    (B,) scale, or None; each realization's amplitudes are multiplied by its
    scale once :func:`~enslat.states.realization_amplitudes` has checked
    their norm.  ``still`` and ``phased`` are the entry masks of
    :func:`_average`.  An entry ``still`` marks is folded once, from
    |c_r|^2, and its moments are given to every time.  Any other phased
    entry, between levels r and c alone, is c_r conj(c_c) exp(-i (E_r - E_c) t)
    with E the diagonal of H(lambda), and :func:`_phase_moments` folds it
    from its two factor tables.  Only the other entries are asked of
    :func:`_evolve_batch`; each time tile, of 16 (N + those entries) B bytes
    per time, is folded while it is in cache.  When there are none, no tile
    is evolved.
    """
    lam, scale = points(start, stop)
    c0 = realization_amplitudes(c_fn, lam, spec.n)
    if scale is not None:
        c0 = c0 * scale[:, None]
    hb = spec.hamiltonian(lam)
    dense = ~phased
    samples = _evolve_batch(hb, c0, times, rows[dense], cols[dense])
    mean = np.empty((times.size, rows.size), complex)
    m2 = np.empty((times.size, rows.size))
    if dense.any():
        row_bytes = 16 * (spec.n + np.count_nonzero(dense)) * (stop - start)
        for tile in _time_tiles(times.size, row_bytes):
            mean[tile, dense], m2[tile, dense] = _moments(samples(tile))
    energy = hb.diagonal(axis1=1, axis2=2).real        # a level alone's eigenvalue
    for p in np.flatnonzero(phased & ~still):
        r, c = rows[p], cols[p]
        mean[:, p], m2[:, p] = _phase_moments(times, energy[:, r] - energy[:, c],
                                              c0[:, r] * c0[:, c].conj())
    pops = c0.T[rows[still]]
    mean[:, still], m2[:, still] = _moments(pops * pops.conj())
    return stop - start, mean, m2


def _average(spec: EnsembleSpec, c_fn, times, total: int, points):
    """Mean and sum of squared deviations of rho over ``total`` realizations,
    whose disorder values ``points(start, stop)`` gives (see :func:`_chunk`).

    The one driver of both averages.  It routes each entry once, from the
    levels that h0 and every coupling coefficient leave alone (see
    :func:`_alone`), each an eigenvector of every H(lambda): the population
    of one is conserved, rho_rr(t) = |c_r(lambda)|^2 (mask ``still``), a
    coherence between two is one phase, folded from its factor tables (mask
    ``phased``, which holds ``still``), and any other entry comes from one
    ``eigh``.  Each chunk of ``_CHUNK`` realizations is one task on up to one
    pool thread per available core, from its disorder values to the fold of
    its last time tile.  The calling thread only submits the chunks and
    merges their moments in chunk order, so the result is bitwise the same
    for any number of threads.  A lone chunk runs on the calling thread, and
    no pool is started.  A chunk that raises cancels the chunks queued behind it.
    Returns the times, the (T, N, N) mean and sum of squared deviations,
    and the [r, c] entries that every realization conserves.
    """
    if spec.n > MAX_DENSE_N:
        raise SystemTooLarge(f"dense oracle limited to N <= {MAX_DENSE_N}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("times must be a non-empty 1-D array of finite values")
    rows, cols = np.triu_indices(spec.n)
    alone = _alone(np.array([spec.h0, *(m for c in spec.couplings for m in c.matrices)]))
    phased = alone[rows] & alone[cols]
    still = phased & (rows == cols)

    # chunked Welford/Chan accumulation over the entries n <= m: robust to
    # cancellation, exactly zero spread for degenerate (zero-variance) ensembles
    mean = np.zeros((times.size, rows.size), dtype=complex)
    m2 = np.zeros((times.size, rows.size))
    count = 0
    starts = range(0, total, _CHUNK)
    if len(starts) == 1:        # a pool thread would only add its start-up
        _merge(mean, m2, count,
               *_chunk(spec, c_fn, times, points, 0, total, rows, cols, still, phased))
    else:
        workers = min(_workers(), len(starts))
        # futures of chunk moments: one per pool thread and one queued behind them
        running = collections.deque()
        with ThreadPoolExecutor(workers) as pool:
            try:
                for s0 in starts:
                    if len(running) > workers:
                        count = _merge(mean, m2, count, *running.popleft().result())
                    running.append(pool.submit(_chunk, spec, c_fn, times, points, s0,
                                               min(s0 + _CHUNK, total), rows, cols, still, phased))
                while running:
                    count = _merge(mean, m2, count, *running.popleft().result())
            except BaseException:
                pool.shutdown(cancel_futures=True)      # a failed chunk: queued ones never start
                raise
    conserved = [[int(r), int(c)] for r, c in zip(rows[still], cols[still])]
    return (times, _hermitian(mean, rows, cols, spec.n), _hermitian(m2, rows, cols, spec.n),
            conserved)


def mc_average(spec: EnsembleSpec, c_fn, times, cfg: OracleConfig) -> DensityTrajectory:
    """Monte Carlo disorder average with exact per-realization evolution.

    Each sample draws its disorder vector from its own range of counters of
    one Philox stream keyed by ``seed`` (see :func:`_philox_uniforms`), so
    the result is independent of chunking or execution order.  The
    ``errors`` field holds the per-entry standard error of the mean.  The
    samples run through :func:`_average`: in chunks, on a thread pool,
    bitwise the same for any number of threads.

    The population of a level that h0 and every coupling coefficient leave
    uncoupled (each level under pure dephasing) is conserved by every
    realization: it is folded once per chunk and holds one value at every
    time.  ``info["conserved_entries"]`` lists these [r, c] entries.

    ``c_fn`` may be a constant amplitude vector or a vectorized callable of
    the disorder (see :func:`~enslat.states.realization_amplitudes`);
    per-realization vectors must be normalized (NotNormalized otherwise).
    ``times`` must be a non-empty 1-D grid of finite times (ValueError).
    """
    s = int(cfg.samples)

    def draws(start: int, stop: int):
        u = _philox_uniforms(cfg.seed, start, stop, spec.l)
        return np.column_stack([quantile(d, u[:, j])
                                for j, d in enumerate(spec.distributions)]), None

    times, mean, m2, conserved = _average(spec, c_fn, times, s, draws)
    sem = np.sqrt(m2 / s) / np.sqrt(s)
    # rounding residue of an exactly constant entry: its spread is a few eps
    # in units of the answer, so its standard error scales as eps * |rho| / sqrt(s)
    sem[sem <= 8 * np.finfo(float).eps * np.abs(mean).max() / np.sqrt(s)] = 0.0
    info = {"method": "mc", "samples": s, "seed": int(cfg.seed),
            "degenerate_distribution": bool(s > 1 and float(sem.max()) == 0.0),
            "conserved_entries": conserved}
    return DensityTrajectory(times, mean, errors=sem, info=info)


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
    disorder measures; no error bars.  The M nodes of the tensor grid run
    through :func:`_average`, as Monte Carlo samples do, so quad shares its
    chunks, pool and merge and is bitwise the same for any number of
    threads.  A node of weight w has its amplitudes scaled by sqrt(M w), so
    the plain mean over the nodes is the weighted sum of rho over them.
    ``c_fn`` and ``times`` are as for :func:`mc_average`.
    """
    orders = cfg.quad_order if np.iterable(cfg.quad_order) else [cfg.quad_order] * spec.l
    if len(orders) != spec.l:
        raise DimensionMismatch(f"{spec.l} disorder variables but {len(orders)} quadrature orders")
    nodes, weights = zip(*(gauss_rule(recurrence_table(d, int(q)), int(q))
                           for d, q in zip(spec.distributions, orders)))
    lam = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=1)
    w = np.prod([g.ravel() for g in np.meshgrid(*weights, indexing="ij")], axis=0)
    scale = np.sqrt(lam.shape[0] * w)
    times, mean, _, _ = _average(spec, c_fn, times, lam.shape[0],
                                 lambda start, stop: (lam[start:stop], scale[start:stop]))
    info = {"method": "quad", "quad_order": [int(q) for q in orders]}
    return DensityTrajectory(times, mean, info=info)


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
