"""Reference routes: Monte Carlo, Gauss quadrature, closed forms, reverse map."""

import pathlib
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from enslat import oracle
from enslat import (
    DisorderDistribution,
    EnsembleSpec,
    LatticeBasis,
    LinearCoupling,
    OracleConfig,
    PropagationPlan,
    SystemTooLarge,
    TableTooShort,
    UnsupportedFamily,
    analytic_qubit,
    build_linear,
    chain_to_ensemble,
    characteristic_function,
    gauss_rule,
    localized_initial,
    mc_average,
    propagate,
    quad_average,
    quantile,
    recurrence_analytic,
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
                        (LinearCoupling(np.zeros((2, 2))),),
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
    """The per-sample reference: one NumPy Philox stream per sample."""
    return np.array([np.random.Generator(np.random.Philox(
        key=np.array([seed, i], dtype=np.uint64))).random(l) for i in indices])


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("l", [1, 4, 5])
def test_mc_draws_match_numpy_philox_bitwise(seed, l):
    # l = 5 carries the counter into a second Philox block
    for start, stop in ((0, 3), (4090, 4102)):      # the second straddles a chunk edge
        got = oracle._philox_uniforms(seed, start, stop, l)
        assert np.array_equal(got, _numpy_philox_uniforms(seed, range(start, stop), l))


def test_mc_chunking_invariance(monkeypatch):
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    times = np.linspace(0.0, 3.0, 7)
    runs = {}
    for chunk in (1, 7, 4096):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        runs[chunk] = mc_average(spec, C_HALF, times, OracleConfig(samples=500, seed=4))
    ref = runs[4096]
    assert (ref.errors == 0.0).any() and (ref.errors > 0.0).any()
    for chunk in (1, 7):
        assert np.abs(runs[chunk].rho - ref.rho).max() <= 1e-14
        assert np.abs(runs[chunk].errors - ref.errors).max() <= 1e-14
        assert np.array_equal(runs[chunk].errors == 0.0, ref.errors == 0.0)


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
    spec = EnsembleSpec(h0, tuple(LinearCoupling(m) for m in mats), dists)
    times = np.linspace(0.0, 2.5, 5)
    samples = 200
    traj = mc_average(spec, c, times, OracleConfig(samples=samples, seed=seed))

    # reference: per-sample Philox, expm per realization, plain two-pass moments
    u = _numpy_philox_uniforms(seed, range(samples), l)
    rhos = np.empty((samples, times.size, n, n), dtype=complex)
    for i in range(samples):
        lam = [float(quantile(d, u[i, j])) for j, d in enumerate(dists)]
        h = h0 + sum(x * m for x, m in zip(lam, mats))
        for k, t in enumerate(times):
            psi = expm(-1j * h * t) @ c
            rhos[i, k] = np.outer(psi, psi.conj())
    mean = rhos.mean(axis=0)
    sem = np.sqrt((np.abs(rhos - mean) ** 2).mean(axis=0) / samples)
    assert np.abs(traj.rho - mean).max() <= 1e-12
    assert np.abs(traj.errors - sem).max() <= 1e-12


def _direct_amplitudes(hb, c0, times):
    """The evolution with one direct exp per time, on the tiles of _evolve_batch."""
    evals, vecs = np.linalg.eigh(hb)
    vecs = vecs.transpose(1, 2, 0)
    ceig = (vecs.conj() * c0.T[:, None, :]).sum(axis=0)
    n, b = ceig.shape
    amps = np.empty((times.size, n, b), dtype=complex)
    amps[...] = vecs[:, 0] * ceig[0]
    for tile in oracle._time_tiles(times.size, 16 * n * b):
        for m in range(1, n):
            phase = np.exp(-1j * np.multiply.outer(times[tile], evals[:, m] - evals[:, 0]))
            amps[tile] += vecs[:, m] * (phase * ceig[m])[:, None, :]
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

    # a grid that is not uniform takes the direct exp: amplitudes bit for bit
    if nt >= 3:
        geom = t0 + np.geomspace(span / 100, span, nt)
        assert oracle._fine_length(geom) is None
        a = rng.normal(size=(64, 3, 3)) + 1j * rng.normal(size=(64, 3, 3))
        c0 = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        hb, c0 = a + a.conj().transpose(0, 2, 1), c0 / np.linalg.norm(c0, axis=1)[:, None]
        assert np.array_equal(oracle._evolve_batch(hb, c0, geom),
                              _direct_amplitudes(hb, c0, geom))


def test_evolve_batch_holds_no_phase_array():
    # one qubit chunk: the peak is the (T, N, B) amplitudes, the two factor
    # tables and per-tile temporaries; a whole (T, B) phase array, half the
    # amplitudes' size, would push the peak past the bound
    nb, nt = 4096, 200
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    hb = spec.hamiltonian(np.random.default_rng(5).normal(size=(nb, 1)))
    c0 = np.tile(C_HALF.astype(complex), (nb, 1))
    times = np.linspace(0.0, 6.0, nt)
    b = oracle._fine_length(times)
    tables = 16 * nb * (-(-nt // b) + b)
    phase_array = 16 * nt * nb
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        amps = oracle._evolve_batch(hb, c0, times)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert amps.shape == (nt, 2, nb)
    assert peak <= amps.nbytes + tables + phase_array // 4


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


def test_mc_system_too_large():
    n = 65
    spec = EnsembleSpec(np.zeros((n, n)), (LinearCoupling(np.eye(n)),),
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
