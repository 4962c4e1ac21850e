"""Reference routes: Monte Carlo, Gauss quadrature, closed forms, reverse map."""

import pathlib
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from enslat import oracle
from enslat import (
    DimensionMismatch,
    DisorderDistribution,
    EnsembleSpec,
    LatticeBasis,
    NotNormalized,
    OracleConfig,
    PolynomialCoupling,
    PropagationPlan,
    SystemTooLarge,
    TableTooShort,
    UnsupportedFamily,
    analytic_qubit,
    build_linear,
    chain_to_ensemble,
    characteristic_function,
    expanded_initial,
    gauss_rule,
    localized_initial,
    mc_average,
    propagate,
    quad_average,
    quantile,
    recurrence_analytic,
    recurrence_table,
    trajectory_from_states,
)
from conftest import qubit_spec

C_HALF = np.array([1.0, 1.0]) / np.sqrt(2)
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# gauss nodes
# ---------------------------------------------------------------------------

def test_gauss_nodes_uniform_two_point():
    table = recurrence_analytic(DisorderDistribution.uniform(1.0), 4)
    nodes, weights = gauss_rule(table, 2)
    assert np.allclose(np.sort(nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-14)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-14)


def test_gauss_nodes_semicircle_single():
    table = recurrence_analytic(DisorderDistribution.semicircle(1.0), 2)
    nodes, weights = gauss_rule(table, 1)
    assert abs(nodes[0]) < 1e-15 and abs(weights[0] - 1.0) < 1e-15


def test_gauss_nodes_gaussian_three_point():
    table = recurrence_analytic(DisorderDistribution.gaussian(1.0), 4)
    nodes, weights = gauss_rule(table, 3)
    assert np.allclose(np.sort(nodes), [-np.sqrt(3), 0.0, np.sqrt(3)], atol=1e-13)
    assert np.allclose(np.sort(weights), [1 / 6, 1 / 6, 2 / 3][::1] if False else
                       sorted([1 / 6, 2 / 3, 1 / 6]), atol=1e-13)


def test_gauss_nodes_table_too_short():
    table = recurrence_analytic(DisorderDistribution.uniform(1.0), 3)
    with pytest.raises(TableTooShort):
        gauss_rule(table, 5)


# ---------------------------------------------------------------------------
# monte carlo
# ---------------------------------------------------------------------------

def test_mc_zero_disorder_equals_unitary():
    spec = EnsembleSpec(np.array([[0.0, 0.4], [0.4, 1.0]]),
                        (PolynomialCoupling.linear(np.zeros((2, 2))),),
                        (DisorderDistribution.gaussian(1.0),))
    times = np.linspace(0.0, 3.0, 11)
    traj = mc_average(spec, np.array([1.0, 0.0]), times, OracleConfig(samples=50, seed=3))
    assert traj.errors.max() == 0.0
    assert traj.info.get("degenerate_distribution") is True
    evals, vecs = np.linalg.eigh(spec.h0)
    c0 = vecs.conj().T @ np.array([1.0, 0.0])
    for i, t in enumerate(times):
        psi = vecs @ (np.exp(-1j * evals * t) * c0)
        assert np.abs(traj.rho[i] - np.outer(psi, psi.conj())).max() < 1e-12


def test_mc_gaussian_qubit_within_clt_band():
    dist = DisorderDistribution.gaussian(1.0)
    spec = qubit_spec(dist)
    times = np.linspace(0.0, 5.0, 21)
    traj = mc_average(spec, C_HALF, times, OracleConfig(samples=20_000, seed=7))
    ref = analytic_qubit(C_HALF[0], C_HALF[1], 0.0, 1.0, dist, times)
    assert np.all(np.abs(traj.rho - ref.rho) <= 4.0 * traj.errors + 1e-10)
    # the band is tight enough to be meaningful
    assert np.median(traj.errors[traj.errors > 0]) < 5e-3


def test_mc_seed_determinism_bitwise():
    spec = qubit_spec(DisorderDistribution.semicircle(1.0))
    times = np.linspace(0.0, 2.0, 5)
    a = mc_average(spec, C_HALF, times, OracleConfig(samples=3000, seed=11))
    b = mc_average(spec, C_HALF, times, OracleConfig(samples=3000, seed=11))
    assert np.array_equal(a.rho, b.rho) and np.array_equal(a.errors, b.errors)
    c = mc_average(spec, C_HALF, times, OracleConfig(samples=3000, seed=12))
    assert not np.array_equal(a.rho, c.rho)


def _numpy_philox_uniforms(seed, indices, l):
    """The per-sample reference: one NumPy Philox generator per sample, keyed
    by the seed and started at the sample's own range of ceil(l / 4) counters."""
    b = -(-l // 4)
    return np.array([np.random.Generator(np.random.Philox(
        key=seed, counter=i * b)).random(l) for i in indices])


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("l", [1, 4, 5, 9])
def test_mc_draws_match_numpy_philox_bitwise(seed, l):
    # l = 5 and l = 9 give each sample a second and a third Philox block
    for start, stop in ((0, 3), (4090, 4102)):      # the second straddles a chunk edge
        got = oracle._philox_uniforms(seed, start, stop, l)
        assert np.array_equal(got, _numpy_philox_uniforms(seed, range(start, stop), l))


def test_mc_chunking_invariance(monkeypatch):
    # and quad's: its 500 nodes go through the same chunks
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    times = np.linspace(0.0, 3.0, 7)
    for average in (mc_average, quad_average):
        runs = {}
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            runs[chunk] = average(spec, C_HALF, times,
                                  OracleConfig(samples=500, seed=4, quad_order=500))
        ref = runs[4096]
        for chunk in (1, 7):
            assert np.abs(runs[chunk].rho - ref.rho).max() <= 1e-14
        if average is mc_average:
            assert (ref.errors == 0.0).any() and (ref.errors > 0.0).any()
            for chunk in (1, 7):
                assert np.abs(runs[chunk].errors - ref.errors).max() <= 1e-14
                assert np.array_equal(runs[chunk].errors == 0.0, ref.errors == 0.0)


def _three_level_ensemble():
    """N = 3, l = 2, with a disorder-dependent initial state."""
    rng = np.random.default_rng(8)
    mats = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    h0, v1, v2 = (m + m.conj().T for m in mats)
    spec = EnsembleSpec(h0, (PolynomialCoupling.linear(v1), PolynomialCoupling.linear(v2)),
                        (DisorderDistribution.gaussian(0.7), DisorderDistribution.uniform(1.0)))

    def c_fn(lam):
        c = np.stack([np.cos(lam[:, 0]), np.sin(lam[:, 0]) * np.exp(1j * lam[:, 1]),
                      0.4 + 0 * lam[:, 0]], axis=1)
        return c / np.linalg.norm(c, axis=1)[:, None]
    return spec, c_fn


@pytest.mark.parametrize("case", ["qubit", "three-level"])
def test_mc_bitwise_independent_of_thread_count(monkeypatch, case):
    # and quad's, whose nodes run in chunks of 250
    if case == "qubit":
        spec, c, samples, orders = (qubit_spec(DisorderDistribution.gaussian(1.0)), C_HALF,
                                    3 * 4096 + 17, [767])
    else:
        (spec, c), samples, orders = _three_level_ensemble(), 1900, [38, 50]
    times = np.linspace(0.0, 4.0, 41)
    task, threads = oracle._chunk, []

    def spy(*args):
        threads.append(threading.current_thread())
        return task(*args)
    monkeypatch.setattr(oracle, "_chunk", spy)
    cfg = OracleConfig(samples=samples, seed=6, quad_order=orders)
    for average, total, chunk in ((mc_average, samples, 4096 if case == "qubit" else 250),
                                  (quad_average, int(np.prod(orders)), 250)):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        runs = {}
        for w in (1, 2, 3):
            monkeypatch.setattr(oracle, "_workers", lambda: w)
            threads.clear()
            runs[w] = average(spec, c, times, cfg)
            # every chunk is folded off the calling thread, on at most w threads
            assert len(threads) == -(-total // chunk) > 1
            assert threading.current_thread() not in threads and len(set(threads)) <= w
        for w in (2, 3):
            assert np.array_equal(runs[w].rho, runs[1].rho)
        if average is mc_average:
            assert (runs[1].errors > 0).any()
            for w in (2, 3):
                assert np.array_equal(runs[w].errors, runs[1].errors)


def test_mc_calling_thread_only_merges(monkeypatch):
    # each chunk draws and evolves in its own pool task, and each chunk of
    # quad's nodes evolves in its own; the calling thread only submits chunks
    # and merges their moments
    monkeypatch.setattr(oracle, "_CHUNK", 250)
    spec, samples, order = qubit_spec(DisorderDistribution.gaussian(1.0)), 1900, 767
    seen = {"_philox_uniforms": [], "_evolve_batch": []}
    for name, threads in seen.items():
        def spy(*args, fn=getattr(oracle, name), threads=threads):
            threads.append(threading.current_thread())
            return fn(*args)
        monkeypatch.setattr(oracle, name, spy)
    cfg = OracleConfig(samples=samples, seed=6, quad_order=order)
    for average, total, names in ((mc_average, samples, seen),
                                  (quad_average, order, ["_evolve_batch"])):
        for w in (1, 2, 3):
            monkeypatch.setattr(oracle, "_workers", lambda: w)
            for threads in seen.values():
                threads.clear()
            average(spec, C_HALF, np.linspace(0.0, 4.0, 41), cfg)
            for name, threads in seen.items():
                assert len(threads) == (-(-total // oracle._CHUNK) if name in names else 0)
                assert threading.current_thread() not in threads and len(set(threads)) <= w


def test_single_chunk_runs_on_the_calling_thread(monkeypatch):
    # one chunk of samples or of nodes opens no pool, and its average is
    # bitwise the one it gives when the chunk runs on a pool thread
    (spec, c), times = _three_level_ensemble(), np.linspace(0.0, 4.0, 41)
    cfg = OracleConfig(samples=1900, seed=6, quad_order=[38, 50])
    task, threads = oracle._chunk, []

    def on_a_pool_thread(*args):
        with ThreadPoolExecutor(1) as pool:
            return pool.submit(task, *args).result()

    def spy(*args):
        threads.append(threading.current_thread())
        return task(*args)

    def no_pool(*args):
        raise AssertionError("a pool for one chunk")

    for average in (mc_average, quad_average):
        monkeypatch.setattr(oracle, "_chunk", on_a_pool_thread)
        pooled = average(spec, c, times, cfg)
        monkeypatch.setattr(oracle, "_chunk", spy)
        with monkeypatch.context() as m:
            m.setattr(oracle, "ThreadPoolExecutor", no_pool)
            threads.clear()
            here = average(spec, c, times, cfg)
        assert threads == [threading.current_thread()]
        assert np.array_equal(here.rho, pooled.rho)
        if average is mc_average:
            assert (here.errors > 0).any() and np.array_equal(here.errors, pooled.errors)


@pytest.mark.parametrize("where", ["initial state", "tile loop"])
def test_mc_chunk_failure_propagates_and_leaves_no_thread(monkeypatch, where):
    # the fourth of eight chunks fails in its pool task while others are in
    # flight: its initial state is not normalized, or its tile loop raises
    monkeypatch.setattr(oracle, "_CHUNK", 64)
    monkeypatch.setattr(oracle, "_workers", lambda: 2)
    calls = []

    class Boom(Exception):
        pass

    def c_fn(lam):
        calls.append(lam.shape[0])
        c = np.tile(C_HALF.astype(complex), (lam.shape[0], 1))
        return 2 * c if where == "initial state" and len(calls) == 4 else c

    evolve = oracle._evolve_batch

    def evolve_failing_fourth(hb, c0, times, rows, cols):
        samples = evolve(hb, c0, times, rows, cols)
        if len(calls) < 4:
            return samples

        def tile_loop_fails(tile):
            raise Boom("raised in a tile loop")
        return tile_loop_fails

    if where == "tile loop":
        monkeypatch.setattr(oracle, "_evolve_batch", evolve_failing_fourth)
    spec = qubit_spec(DisorderDistribution.uniform(1.0))
    before = threading.enumerate()
    for average in (mc_average, quad_average):      # 512 samples, or 512 nodes
        calls.clear()
        with pytest.raises(NotNormalized if where == "initial state" else Boom):
            average(spec, c_fn, np.linspace(0.0, 1.0, 5),
                    OracleConfig(samples=64 * 8, seed=3, quad_order=64 * 8))
        # no chunk starts past those in flight with the failing one: its index,
        # itself and one per pool thread
        assert len(calls) <= 3 + 1 + 2
        assert threading.active_count() == len(before)
        assert threading.enumerate() == before


def test_mc_memory_below_one_chunk_of_amplitudes(monkeypatch):
    # the shipped 1e5-sample qubit, two chunks in flight: the peak stays below
    # the (T, N, B) amplitudes a chunk held when it was evolved whole
    from enslat.cli import parse_initial, parse_spec
    monkeypatch.setattr(oracle, "_workers", lambda: 2)
    cfg = yaml.safe_load((CONFIGS / "qubit_gaussian.yaml").read_text())
    spec = parse_spec(cfg, str(CONFIGS))
    c = parse_initial(cfg, spec, str(CONFIGS))[1]
    times = np.linspace(0.0, cfg["time"]["t_max"], cfg["time"]["n_steps"])
    samples = cfg["numeric"]["samples"]
    assert samples == 100_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc_average(spec, c, times, OracleConfig(samples=samples, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * times.size * spec.n * oracle._CHUNK


def test_mc_sem_zero_exactly_on_constant_entries():
    # gaussian qubit config: populations are constant at every time and the
    # coherence at t = 0, so those entries (and no others) have zero SEM at
    # any sample count
    from enslat.cli import parse_initial, parse_spec
    cfg = yaml.safe_load(open(CONFIGS / "qubit_gaussian.yaml"))
    spec = parse_spec(cfg, str(CONFIGS))
    c = parse_initial(cfg, spec, str(CONFIGS))[1]
    times = np.linspace(0.0, cfg["time"]["t_max"], cfg["time"]["n_steps"])
    constant = np.zeros((times.size, 2, 2), dtype=bool)
    constant[:, [0, 1], [0, 1]] = True
    constant[0] = True
    for samples in (500, 100_000):
        traj = mc_average(spec, c, times, OracleConfig(samples=samples, seed=1))
        assert np.array_equal(traj.errors == 0.0, constant)
        assert traj.errors[~constant].min() > 1e-2 / np.sqrt(samples)


def _hermitian_from(draw, n):
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n * n, max_size=2 * n * n))
    m = np.array(vals[:n * n]).reshape(n, n) + 1j * np.array(vals[n * n:]).reshape(n, n)
    return (m + m.conj().T) / 2


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mc_matches_slow_reference(data):
    n = data.draw(st.sampled_from([2, 3]), label="n")
    l = data.draw(st.sampled_from([1, 2]), label="l")
    seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
    families = data.draw(st.lists(st.sampled_from(["gaussian", "uniform", "semicircle"]),
                                  min_size=l, max_size=l), label="families")
    h0 = _hermitian_from(data.draw, n)
    mats = [_hermitian_from(data.draw, n) for _ in range(l)]
    c = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)))
    c = c[:n] + 1j * c[n:]
    if np.linalg.norm(c) < 1e-3:
        c = np.eye(n)[0].astype(complex)
    c = c / np.linalg.norm(c)
    dists = tuple(DisorderDistribution(f, width=0.8) for f in families)
    spec = EnsembleSpec(h0, tuple(PolynomialCoupling.linear(m) for m in mats), dists)
    times = np.linspace(0.0, 2.5, 5)
    samples = 200
    traj = mc_average(spec, c, times, OracleConfig(samples=samples, seed=seed))
    mean, sem = _slow_reference(spec, c, times, samples, seed)
    assert np.abs(traj.rho - mean).max() <= 1e-12
    assert np.abs(traj.errors - sem).max() <= 1e-12


def _slow_reference(spec, c, times, samples, seed):
    """Mean and SEM of rho by per-sample Philox counters, expm per realization
    and plain two-pass moments; c is a vector or a callable of one (1, l)
    disorder row."""
    u = _numpy_philox_uniforms(seed, range(samples), spec.l)
    rhos = np.empty((samples, times.size, spec.n, spec.n), dtype=complex)
    for i in range(samples):
        lam = [float(quantile(d, u[i, j])) for j, d in enumerate(spec.distributions)]
        h = spec.h0 + sum(x ** p * m for x, cp in zip(lam, spec.couplings)
                          for p, m in enumerate(cp.matrices))
        ci = c(np.array([lam]))[0] if callable(c) else c
        for k, t in enumerate(times):
            psi = expm(-1j * h * t) @ ci
            rhos[i, k] = np.outer(psi, psi.conj())
    mean = rhos.mean(axis=0)
    return mean, np.sqrt((np.abs(rhos - mean) ** 2).mean(axis=0) / samples)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mc_conserved_entries_match_slow_reference(data):
    # diagonal or block-diagonal h0 and couplings: the entries that no
    # realization moves are folded once per chunk, the others at every time
    n = data.draw(st.sampled_from([2, 3]), label="n")
    l = data.draw(st.sampled_from([1, 2]), label="l")
    seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
    split = data.draw(st.one_of(st.none(), st.integers(1, n - 1)), label="block split")
    depends = data.draw(st.booleans(), label="c depends on lambda")
    families = data.draw(st.lists(st.sampled_from(["gaussian", "uniform", "semicircle"]),
                                  min_size=l, max_size=l), label="families")
    level = np.arange(n) if split is None else (np.arange(n) >= split)
    block = np.equal.outer(level, level)
    h0 = _hermitian_from(data.draw, n) * block
    mats = [_hermitian_from(data.draw, n) * block for _ in range(l)]
    c = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)))
    c = c[:n] + 1j * c[n:]
    if np.linalg.norm(c) < 1e-3:
        c = np.eye(n)[0].astype(complex)
    c = c / np.linalg.norm(c)
    if depends:
        fixed, tilt = c, np.eye(n)[-1]

        def c(lam):
            rows = fixed + 0.5 * lam[:, :1] * tilt
            return rows / np.linalg.norm(rows, axis=1)[:, None]
    dists = tuple(DisorderDistribution(f, width=0.8) for f in families)
    spec = EnsembleSpec(h0, tuple(PolynomialCoupling.linear(m) for m in mats), dists)
    times = np.linspace(0.0, 2.5, 5)
    samples = 200
    traj = mc_average(spec, c, times, OracleConfig(samples=samples, seed=seed))
    # a level alone in its block is coupled to no other: its population is conserved
    for k in np.flatnonzero(block.sum(axis=1) == 1):
        assert [k, k] in traj.info["conserved_entries"]
    mean, sem = _slow_reference(spec, c, times, samples, seed)
    assert np.abs(traj.rho - mean).max() <= 1e-12
    assert np.abs(traj.errors - sem).max() <= 1e-12


def test_mc_conserved_entries_fold_once(monkeypatch):
    # the shipped gaussian qubit at 500 samples, in chunks of 128: its
    # populations are folded once per chunk, its coherence at every time
    from enslat.cli import parse_initial, parse_spec
    cfg = yaml.safe_load((CONFIGS / "qubit_gaussian.yaml").read_text())
    spec = parse_spec(cfg, str(CONFIGS))
    c = parse_initial(cfg, spec, str(CONFIGS))[1]
    times = np.linspace(0.0, cfg["time"]["t_max"], cfg["time"]["n_steps"])
    samples, seed = 500, cfg["numeric"]["seed"]
    monkeypatch.setattr(oracle, "_CHUNK", 128)
    traj = mc_average(spec, c, times, OracleConfig(samples=samples, seed=seed))
    assert traj.info["conserved_entries"] == [[0, 0], [1, 1]]
    pops = traj.rho[:, [0, 1], [0, 1]]
    assert np.array_equal(pops, np.broadcast_to(pops[0], pops.shape))
    assert np.abs(pops[0] - np.abs(c) ** 2).max() <= 1e-15

    # neither average asks _evolve_batch for a conserved entry: each chunk of
    # realizations or of nodes asks for the coherence alone
    asked = []

    def spy(hb, c0, times, rows, cols, fn=oracle._evolve_batch):
        asked.append((rows.tolist(), cols.tolist()))
        return fn(hb, c0, times, rows, cols)
    monkeypatch.setattr(oracle, "_evolve_batch", spy)
    for average in (mc_average, quad_average):
        asked.clear()
        average(spec, c, times, OracleConfig(samples=samples, seed=seed))
        assert asked and all(entries == ([0], [1]) for entries in asked)

    # against a chunk that evolves all entries at every time: per chunk, the
    # coherence's moments are bitwise equal; over the run, so is every SEM
    rows, cols = np.triu_indices(2)
    none = np.zeros(rows.size, dtype=bool)
    assert oracle._conserved(spec, rows, cols).tolist() == [True, False, True]

    def draws(start, stop):
        u = _numpy_philox_uniforms(seed, range(start, stop), spec.l)
        return quantile(spec.distributions[0], u[:, 0])[:, None], None
    for s0 in range(0, samples, oracle._CHUNK):
        args = (spec, c, times, draws, s0, min(s0 + oracle._CHUNK, samples), rows, cols)
        nb, mean, m2 = oracle._chunk(*args, oracle._conserved(spec, rows, cols))
        ref = oracle._chunk(*args, none)
        assert nb == ref[0]
        assert np.array_equal(mean[:, 1], ref[1][:, 1]) and np.array_equal(m2[:, 1], ref[2][:, 1])
        assert np.array_equal(mean[:, [0, 2]], np.broadcast_to(mean[0, [0, 2]], (times.size, 2)))
    monkeypatch.setattr(oracle, "_conserved", lambda spec, rows, cols: none)
    ref = mc_average(spec, c, times, OracleConfig(samples=samples, seed=seed))
    assert ref.info["conserved_entries"] == []
    assert np.array_equal(traj.rho[:, 0, 1], ref.rho[:, 0, 1])
    assert np.array_equal(traj.errors, ref.errors)
    assert np.abs(traj.rho - ref.rho).max() <= 1e-16

    # a dense three-level ensemble conserves no entry
    monkeypatch.undo()
    spec, c = _three_level_ensemble()
    traj = mc_average(spec, c, times[:5], OracleConfig(samples=300))
    assert traj.info["conserved_entries"] == []


def test_conserved_reads_every_coefficient():
    # level 2 is coupled to level 0 by h0, and level 1 to level 0 by nothing
    # but a 1e-300 lambda**2 coefficient: only level 3 is left alone
    h0 = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    h0[0, 2] = h0[2, 0] = 0.5
    quad = np.zeros((4, 4), complex)
    quad[0, 1] = quad[1, 0] = 1e-300
    couplings = (PolynomialCoupling.linear(np.diag([1.0, 0.0, 0.0, 1.0])),
                 PolynomialCoupling((np.zeros((4, 4)), np.eye(4), quad)))
    spec = EnsembleSpec(h0, couplings, (DisorderDistribution.gaussian(1.0),) * 2)
    rows, cols = np.triu_indices(4)
    assert np.flatnonzero(oracle._conserved(spec, rows, cols)).tolist() == [9]
    traj = mc_average(spec, np.full(4, 0.5), np.linspace(0.0, 1.0, 3), OracleConfig(samples=50))
    assert traj.info["conserved_entries"] == [[3, 3]]


def test_alone_reads_rows_and_columns():
    # an entry on one side of the diagonal couples both of its levels, since
    # the Hermitian check of a spec lets a small one-sided entry through
    mats = np.zeros((2, 3, 3))
    mats[0] = np.diag([1.0, 2.0, 3.0])
    mats[1, 0, 1] = 1e-300
    assert oracle._alone(mats).tolist() == [False, False, True]


def _direct_amplitudes(hb, c0, times):
    """The evolution with one direct exp per time, one time tile at a time."""
    evals, vecs = np.linalg.eigh(hb)
    vecs = vecs.transpose(1, 2, 0)
    ceig = (vecs.conj() * c0.T[:, None, :]).sum(axis=0)
    n, b = ceig.shape
    amps = np.empty((times.size, n, b), dtype=complex)
    amps[...] = vecs[:, 0] * ceig[0]
    for tile in oracle._time_tiles(times.size, 16 * n * b):
        for m in range(1, n):
            phase = np.exp(-1j * np.multiply.outer(times[tile], evals[:, m] - evals[:, 0]))
            amps[tile] += (vecs[:, m] * ceig[m]) * phase[:, None, :]
    return amps


@settings(max_examples=60, deadline=None)
@given(nt=st.integers(1, 300),
       t0=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
       span=st.floats(1e-3, 50.0),
       gt_max=st.floats(1e-3, 200.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(nt=200, t0=0.0, span=6.0, gt_max=200.0, seed=0)      # b = 15, T = 13 b + 5
@example(nt=17, t0=3.5, span=9.0, gt_max=150.0, seed=1)       # b = 5, T = 3 b + 2
def test_factorized_phases_match_direct_exp(nt, t0, span, gt_max, seed):
    times = np.linspace(t0, t0 + span, nt)
    b = oracle._fine_length(times)
    assert (b - 1) ** 2 < nt <= b * b                 # b = ceil(sqrt(T))
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.0, gt_max / (t0 + span), size=(64, 3))
    gaps[0] = 0.0                                   # degenerate levels: phase exactly 1
    scale = rng.uniform(0.0, 1.0, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
    eps = np.finfo(float).eps
    for m in range(gaps.shape[1]):
        phase = oracle._phase_rows(times, gaps[:, m])
        direct = np.exp(-1j * np.multiply.outer(times, gaps[:, m]))
        got = phase(slice(0, nt))
        bound = 8 * eps * np.maximum(1.0, np.abs(np.multiply.outer(times, gaps[:, m])))
        assert np.all(np.abs(got - direct) <= bound)
        # the coarse times, t_0 first, keep the direct phase bit for bit
        assert np.array_equal(got[::b], direct[::b])
        assert np.array_equal(got[:, 0], np.ones(nt))
        # any tiling of the time axis gives the same rows
        tiles = [slice(j, j + 7) for j in range(0, nt, 7)]
        assert np.array_equal(np.concatenate([phase(t) for t in tiles]), got)
        # a scale is folded into the coarse table: there, scale * direct bit for bit
        scaled = oracle._phase_rows(times, gaps[:, m], scale)
        got = scaled(slice(0, nt))
        assert np.all(np.abs(got - scale * direct) <= bound)
        assert np.array_equal(got[::b], direct[::b] * scale)
        assert np.array_equal(np.concatenate([scaled(t) for t in tiles]), got)

    # a grid that is not uniform takes the direct exp: entries bit for bit
    if nt >= 3:
        geom = t0 + np.geomspace(span / 100, span, nt)
        assert oracle._fine_length(geom) is None
        direct = np.exp(-1j * np.multiply.outer(geom, gaps[:, 1]))
        assert np.array_equal(oracle._phase_rows(geom, gaps[:, 1], scale)(slice(0, nt)),
                              direct * scale)
        a = rng.normal(size=(64, 3, 3)) + 1j * rng.normal(size=(64, 3, 3))
        c0 = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        hb, c0 = a + a.conj().transpose(0, 2, 1), c0 / np.linalg.norm(c0, axis=1)[:, None]
        rows, cols = np.triu_indices(3)
        samples = oracle._evolve_batch(hb, c0, geom, rows, cols)
        amps = _direct_amplitudes(hb, c0, geom)
        direct = np.stack([np.conjugate(amps[:, c]) * amps[:, r] for r, c in zip(rows, cols)],
                          axis=1)
        assert np.array_equal(samples(slice(0, nt)), direct)
        tiles = [slice(j, j + 7) for j in range(0, nt, 7)]
        assert np.array_equal(np.concatenate([samples(t) for t in tiles]), direct)


@pytest.mark.parametrize("n, block", [
    *(pytest.param(n, None, id=str(n)) for n in (2, 3, 5, 8)),
    pytest.param(3, [0, 1, 0], id="3-levels-0-2-coupled-1-alone"),
    pytest.param(4, [0, 1, 2, 3], id="4-every-level-alone"),
    pytest.param(4, [0, 1, 0, 2], id="4-levels-0-2-coupled-1-3-alone"),
    pytest.param(1, [0], id="1"),
])
def test_evolve_batch_matches_dense_evolution(monkeypatch, n, block):
    # every entry n <= m is the dense psi psi^H of every realization, on a
    # uniform grid (factorized phases) and a geometric one (direct exp), and
    # a time's entries are the same bit for bit under two tilings.  A
    # block-diagonal batch leaves each level of a one-level block alone; an
    # entry between two levels alone is one phase, any other is dense
    rng = np.random.default_rng(n)
    nb = 12
    a = rng.normal(size=(nb, n, n)) + 1j * rng.normal(size=(nb, n, n))
    hb = (a + a.conj().transpose(0, 2, 1)) / 2
    if block is not None:
        hb *= np.equal.outer(block, block)
    alone = [] if block is None else [k for k in range(n) if block.count(block[k]) == 1]
    assert np.flatnonzero(oracle._alone(hb)).tolist() == alone
    c0 = rng.normal(size=(nb, n)) + 1j * rng.normal(size=(nb, n))
    c0 /= np.linalg.norm(c0, axis=1)[:, None]
    rows, cols = np.triu_indices(n)
    uniform, geometric = np.linspace(0.0, 3.0, 23), 0.01 * np.geomspace(1.0, 300.0, 23)
    assert oracle._fine_length(uniform) is not None and oracle._fine_length(geometric) is None
    for times in (uniform, geometric):
        samples = oracle._evolve_batch(hb, c0, times, rows, cols)
        got = samples(slice(0, times.size))
        assert got.shape == (times.size, rows.size, nb)
        tiles = [slice(j, j + 5) for j in range(0, times.size, 5)]
        assert np.array_equal(np.concatenate([samples(t) for t in tiles]), got)
        for b in range(nb):
            for k, t in enumerate(times):
                psi = expm(-1j * t * hb[b]) @ c0[b]
                rho = np.outer(psi, psi.conj())[rows, cols]
                assert np.abs(got[k, :, b] - rho).max() <= 1e-12
    if n == 1:
        # one level, so no entry moves: the chunks of both averages build no
        # phase table and run no tile loop, and both still give rho = 1
        spec = EnsembleSpec(np.array([[0.3]]), (PolynomialCoupling.linear(np.eye(1)),),
                            (DisorderDistribution.gaussian(1.0),))
        calls = []
        for name in ("_phase_rows", "_time_tiles"):
            def spy(*args, fn=getattr(oracle, name)):
                calls.append(fn)
                return fn(*args)
            monkeypatch.setattr(oracle, name, spy)
        for average in (mc_average, quad_average):
            traj = average(spec, np.ones(1), uniform, OracleConfig(samples=100))
            assert np.abs(traj.rho - 1.0).max() <= 1e-15
            assert calls == []


def test_evolve_batch_holds_no_phase_array():
    # one qubit chunk asked for its coherence, as the Monte Carlo chunks ask,
    # read one time tile at a time: the peak is the two factor tables of the
    # coherence and one (tile, P, B) tile of entries.  A (T, B) phase array
    # is half the (T, N, B) amplitudes, and neither fits
    nb, nt = 4096, 200
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    hb = spec.hamiltonian(np.random.default_rng(5).normal(size=(nb, 1)))
    c0 = np.tile(C_HALF.astype(complex), (nb, 1))
    times = np.linspace(0.0, 6.0, nt)
    rows, cols = np.array([0]), np.array([1])
    b = oracle._fine_length(times)
    tables = 16 * nb * (-(-nt // b) + b)
    tiles = oracle._time_tiles(nt, 16 * rows.size * nb)
    tile = 16 * rows.size * nb * (tiles[0].stop - tiles[0].start)
    assert len(tiles) > 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        samples = oracle._evolve_batch(hb, c0, times, rows, cols)
        shapes = [samples(t).shape for t in tiles]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = tables + 4 * hb.nbytes + 3 * tile
    assert bound < 16 * nt * nb                     # one (T, B) phase array
    assert sum(s[0] for s in shapes) == nt and {s[1:] for s in shapes} == {(rows.size, nb)}
    assert peak <= bound


def test_mc_initial_state_callable_errors_propagate():
    spec = qubit_spec(DisorderDistribution.uniform(1.0))

    class Boom(Exception):
        pass

    def c_fn(lam):
        raise Boom("raised inside c_fn")

    with pytest.raises(Boom, match="raised inside c_fn"):
        mc_average(spec, c_fn, [0.0, 1.0], OracleConfig(samples=10))
    with pytest.raises(ValueError, match=r"shape \(10, 3\), expected \(10, 2\)"):
        mc_average(spec, lambda lam: np.ones((lam.shape[0], 3)) / np.sqrt(3),
                   [0.0, 1.0], OracleConfig(samples=10))


def _expanded(spec, c, times, config):
    """The chain route's consumer of c, called as the oracles are."""
    dist = spec.distributions[0]
    return expanded_initial(c, [dist], [recurrence_table(dist, 9)], LatticeBasis(2, (8,)))


@pytest.mark.parametrize("average", [mc_average, quad_average, _expanded],
                         ids=["mc", "quad", "chain"])
@pytest.mark.parametrize("c, off", [
    (np.array([1.0, 1.0]), "4.142e-01"),
    (lambda lam: np.ones((lam.shape[0], 2)), "4.142e-01"),
    (np.array([np.nan, 0.0]), "nan"),
    (np.array([1.0 + 5e-9, 0.0]), "5.000e-09"),     # within 1e-8, beyond NORM_TOL
], ids=["vector", "callable", "nan", "5e-9"])
def test_oracles_refuse_an_unnormalized_state(average, c, off):
    # both averages and the chain route's expansion form the amplitudes
    # through realization_amplitudes, which checks every realization's norm:
    # none returns a rho of trace 2, or a NaN one.  Cut, as the chain route needs
    spec = qubit_spec(DisorderDistribution.gaussian(1.0, cutoff=(-5.0, 5.0)))
    with pytest.raises(NotNormalized, match=f"per-realization initial state off by {off}"):
        average(spec, c, np.linspace(0.0, 1.0, 5), OracleConfig(samples=64, quad_order=8))


@pytest.mark.parametrize("average", [mc_average, quad_average], ids=["mc", "quad"])
@pytest.mark.parametrize("times", [[], [[0.0, 1.0]], [0.0, np.nan]],
                         ids=["empty", "2-D", "nan"])
def test_averages_refuse_a_time_grid_alike(average, times):
    # both averages run through one driver, which reads the grid once
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    with pytest.raises(ValueError, match="times must be a non-empty 1-D array of finite values"):
        average(spec, C_HALF, times, OracleConfig(samples=10, quad_order=4))


@pytest.mark.parametrize("field, value", [
    ("samples", 2.5), ("samples", True), ("seed", 1.7), ("seed", True),
    ("quad_order", 2.5), ("quad_order", True),
    pytest.param("quad_order", [16, 2.5], id="quad_order-one-axis-2.5"),
])
def test_oracle_config_refuses_a_non_integer(field, value):
    # nothing is truncated: 2.5 samples would run 2, quad_order True order 1
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        OracleConfig(**{field: value})


def test_oracle_config_takes_numpy_integers():
    cfg = OracleConfig(samples=np.int64(3), seed=np.uint64(2 ** 64 - 1),
                       quad_order=np.array([4, 5]))
    assert cfg.quad_order == (4, 5)


def test_mc_system_too_large():
    n = 65
    spec = EnsembleSpec(np.zeros((n, n)), (PolynomialCoupling.linear(np.eye(n)),),
                        (DisorderDistribution.uniform(1.0),))
    with pytest.raises(SystemTooLarge):
        mc_average(spec, np.eye(n)[0], [0.0, 1.0], OracleConfig(samples=2))


def test_mc_lambda_dependent_initial_state():
    # disorder-dependent c: populations become nontrivial averages;
    # cross-check rho(0) against direct quadrature of |c(lam)><c(lam)|
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)

    def c_fn(lam):
        lam = np.atleast_2d(lam)[:, 0]
        return np.stack([lam, np.sqrt(1 - lam ** 2)], axis=1).astype(complex)

    traj = mc_average(spec, c_fn, np.array([0.0, 1.0]), OracleConfig(samples=40_000, seed=5))
    from enslat.measures import discretize
    nodes, w = discretize(dist, 3000)
    c = np.stack([nodes, np.sqrt(1 - nodes ** 2)], axis=1)
    rho0 = np.einsum("q,qa,qb->ab", w, c, c.conj())
    assert np.all(np.abs(traj.rho[0] - rho0) <= 4 * traj.errors[0] + 1e-10)


# ---------------------------------------------------------------------------
# quadrature average
# ---------------------------------------------------------------------------

def test_quad_gaussian_qubit_converges_to_closed_form():
    # degree-(2Q-1)-exact quadrature of e^{i lambda t}: at t <= 2 and Q = 40
    # the remaining error is below 1e-10
    dist = DisorderDistribution.gaussian(1.0)
    spec = qubit_spec(dist)
    times = np.linspace(0.0, 2.0, 9)
    traj = quad_average(spec, C_HALF, times, OracleConfig(quad_order=40))
    ref = analytic_qubit(C_HALF[0], C_HALF[1], 0.0, 1.0, dist, times)
    assert np.abs(traj.rho - ref.rho).max() <= 1e-10
    assert traj.errors is None


def test_quad_order_one_is_disorder_free():
    dist = DisorderDistribution.uniform(1.0)
    spec = qubit_spec(dist)
    times = np.linspace(0.0, 4.0, 7)
    traj = quad_average(spec, C_HALF, times, OracleConfig(quad_order=1))
    # single symmetric node at lambda = 0: plain unitary dynamics of h0
    free = analytic_qubit(C_HALF[0], C_HALF[1], 0.0, 1.0,
                          DisorderDistribution.uniform(1e-12), times)
    assert np.abs(traj.rho - free.rho).max() < 1e-9


def test_quad_order_per_axis():
    # a list names one order per disorder variable; each must be positive
    spec = qubit_spec(DisorderDistribution.semicircle(1.0))
    times = np.linspace(0.0, 6.0, 13)
    one = quad_average(spec, C_HALF, times, OracleConfig(quad_order=16))
    assert np.array_equal(quad_average(spec, C_HALF, times, OracleConfig(quad_order=[16])).rho,
                          one.rho)
    for bad in (0, [16, 0], []):
        with pytest.raises(ValueError):
            OracleConfig(quad_order=bad)
    with pytest.raises(DimensionMismatch):
        quad_average(spec, C_HALF, times, OracleConfig(quad_order=[16, 16]))


def test_quad_convergence_with_order():
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)
    times = np.linspace(0.0, 6.0, 13)
    ref = analytic_qubit(C_HALF[0], C_HALF[1], 0.0, 1.0, dist, times)
    errs = []
    for q in (4, 8, 16, 32):
        traj = quad_average(spec, C_HALF, times, OracleConfig(quad_order=q))
        errs.append(np.abs(traj.rho - ref.rho).max())
    assert errs[-1] < 1e-10
    assert errs[0] > errs[-1]


# ---------------------------------------------------------------------------
# analytic qubit
# ---------------------------------------------------------------------------

def test_analytic_qubit_structure():
    dist = DisorderDistribution.gaussian(0.8)
    times = np.linspace(0.0, 4.0, 9)
    traj = analytic_qubit(0.6, 0.8, 0.2, 1.1, dist, times)
    assert np.allclose(traj.rho[:, 0, 0], 0.36)
    assert np.allclose(traj.rho[:, 1, 1], 0.64)
    want = 0.48 * np.exp(-1j * (0.2 - 1.1) * times) * np.exp(-(0.8 * times) ** 2 / 2)
    assert np.abs(traj.rho[:, 0, 1] - want).max() < 1e-15


def test_analytic_qubit_no_coherence():
    traj = analytic_qubit(1.0, 0.0, 0.0, 1.0, DisorderDistribution.uniform(1.0),
                          np.linspace(0.0, 3.0, 5))
    assert np.abs(traj.rho - np.diag([1.0, 0.0])[None]).max() == 0.0


def test_analytic_qubit_semicircle_bessel_zero():
    from scipy.special import jn_zeros
    j11 = jn_zeros(1, 1)[0]
    dist = DisorderDistribution.semicircle(1.0)
    times = np.array([0.0, j11, j11 + 2.0])
    traj = analytic_qubit(*C_HALF, 0.0, 1.0, dist, times)
    coh = np.abs(traj.rho[:, 0, 1])
    assert coh[1] < 1e-12          # first Bessel zero kills the coherence
    assert coh[2] > 1e-3           # later revival


def test_analytic_qubit_rejects_tabulated():
    with pytest.raises(UnsupportedFamily):
        analytic_qubit(*C_HALF, 0.0, 1.0,
                       DisorderDistribution.tabulated([0, 1], [1, 1]), [0.0, 1.0])


# ---------------------------------------------------------------------------
# reverse map
# ---------------------------------------------------------------------------

def test_chain_to_ensemble_roundtrip_hops():
    g = 0.7
    spec = chain_to_ensemble(g, np.zeros((1, 1)), 0)
    assert spec.distributions[0].family == "semicircle"
    assert spec.distributions[0].width == 2 * g
    d = 10
    table = recurrence_analytic(spec.distributions[0], d + 1)
    h = build_linear(spec, [table], [d]).to_dense()
    off = np.diag(h, 1)
    assert np.allclose(off, g)                    # constant hops, exactly g
    assert np.abs(np.diag(h)).max() == 0.0


def test_chain_survival_amplitude_is_semicircle_cf():
    # single-site survival amplitude of the constant chain equals
    # 2 J1(2 g t) / (2 g t)
    g = 1.0
    spec = chain_to_ensemble(g, np.zeros((1, 1)), 0)
    d = 60
    table = recurrence_analytic(spec.distributions[0], d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(1, (d,))
    psi0 = localized_initial(np.array([1.0]), basis)
    plan = PropagationPlan.linspace(10.0, 21)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    surv = np.array([s.amplitudes[0] for s in states])
    phi = characteristic_function(spec.distributions[0], plan.times)
    assert np.abs(surv - phi).max() < 1e-10


def test_chain_qubit_cell_matches_mc():
    g = 0.5
    cell = np.array([[0.0, 0.25], [0.25, 1.0]])
    spec = chain_to_ensemble(g, cell, 1)
    d = 48
    table = recurrence_analytic(spec.distributions[0], d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(C_HALF, basis)
    plan = PropagationPlan.linspace(8.0, 17)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    chain = trajectory_from_states(plan.times, states)
    mc = mc_average(spec, C_HALF, plan.times, OracleConfig(samples=30_000, seed=21))
    assert np.all(np.abs(chain.rho - mc.rho) <= 4 * mc.errors + 1e-10)


def test_chain_to_ensemble_validation():
    with pytest.raises(ValueError):
        chain_to_ensemble(0.0, np.zeros((1, 1)), 0)
    with pytest.raises(ValueError):
        chain_to_ensemble(1.0, np.zeros((2, 2)), 5)
