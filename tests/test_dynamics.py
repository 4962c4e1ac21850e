"""Chebyshev propagation: correctness against the dense reference, conservation
laws, leakage, auto depth, and the operator contract the benchmark relies on."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from enslat import dynamics
from enslat import (
    DepthCapExceeded,
    DisorderDistribution,
    LatticeBasis,
    LatticeOperator,
    LeakageExceeded,
    PropagationPlan,
    auto_depth,
    boundary_shell,
    build_linear,
    characteristic_function,
    evolve,
    localized_initial,
    partial_trace,
    propagate,
    propagate_dense,
    recurrence_analytic,
    trajectory_from_states,
)
from conftest import qubit_spec


def random_hermitian_lattice(rng, n_nodes=200, n=2, extra=300):
    """Sparse Hermitian operator on a chain-shaped basis: tridiagonal blocks
    plus a sprinkle of longer-range entries."""
    basis = LatticeBasis(n, (n_nodes - 1,))
    dim = basis.size
    rows, cols, vals = [], [], []
    for i in range(dim):
        rows.append(i); cols.append(i); vals.append(rng.normal())
    for i in range(dim - 1):
        rows.append(i); cols.append(i + 1)
        vals.append(rng.normal() + 1j * rng.normal())
    for _ in range(extra):
        i, j = sorted(rng.integers(0, dim, size=2))
        if i != j:
            rows.append(i); cols.append(j)
            vals.append(0.3 * (rng.normal() + 1j * rng.normal()))
    op = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    op = op + op.conj().T - sp.diags(op.diagonal())
    return basis, sp.csr_matrix(op)


def random_state(rng, basis):
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    amps /= np.linalg.norm(amps)
    from enslat import LatticeState
    return LatticeState(basis, amps)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def test_diagonal_evolution_is_pure_phase():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0), e0=0.3, e1=1.2)
    zero = qubit_spec(DisorderDistribution.gaussian(1.0), e0=0.3, e1=1.2)
    from enslat import EnsembleSpec, LinearCoupling
    zero = EnsembleSpec(spec.h0, (LinearCoupling(np.zeros((2, 2))),), spec.distributions)
    table = recurrence_analytic(zero.distributions[0], 9)
    op = build_linear(zero, [table], [8])
    basis = LatticeBasis(2, (8,))
    psi0 = localized_initial(np.array([0.6, 0.8]), basis)
    plan = PropagationPlan(np.array([0.0, 0.7, 1.9]))
    states, _ = propagate(op, psi0, plan, keep_states=True)
    for t, s in zip(plan.times, states):
        want = psi0.amplitudes.copy()
        want[0] *= np.exp(-1j * 0.3 * t)
        want[1] *= np.exp(-1j * 1.2 * t)
        assert np.abs(s.amplitudes - want).max() < 1e-12
        assert np.abs(np.abs(s.amplitudes) - np.abs(psi0.amplitudes)).max() < 1e-13


@pytest.mark.parametrize("family,width", [("gaussian", 1.0), ("semicircle", 1.0),
                                          ("uniform", 1.0)])
def test_qubit_chain_overlap_is_characteristic_function(family, width):
    # <1,0| exp(-i H t) |1,0> = conj(phi(t)) e^{-i E1 t} on the dephasing chain
    dist = DisorderDistribution(family, width=width)
    spec = qubit_spec(dist, e0=0.0, e1=1.0)
    d = 160
    table = recurrence_analytic(dist, d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([0.0, 1.0]), basis)
    plan = PropagationPlan.linspace(6.0, 31)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    overlap = np.array([s.amplitudes[basis.flat_index(1, (0,))] for s in states])
    phi = characteristic_function(dist, plan.times)
    assert np.abs(overlap - np.conj(phi) * np.exp(-1j * plan.times)).max() < 1e-11


def test_krylov_matches_dense(rng):
    basis, h = random_hermitian_lattice(rng, n_nodes=60, extra=80)
    psi0 = random_state(rng, basis)
    times = np.array([0.0, 0.9, 2.2])
    plan = PropagationPlan(times, leakage_threshold=np.inf)
    krylov, _ = propagate(LatticeOperator(
        basis.size, *sp.triu(h).nonzero(),
        np.asarray(sp.triu(h).tocoo().data)), psi0, plan, keep_states=True)
    dense = propagate_dense(h.toarray(), psi0, times)
    for a, b in zip(krylov, dense):
        assert np.abs(a.amplitudes - b.amplitudes).max() < 5e-12


# ---------------------------------------------------------------------------
# conservation properties (randomized Hermitian lattices, dim <= 500)
# ---------------------------------------------------------------------------

def test_unitarity(rng):
    basis, h = random_hermitian_lattice(rng)
    psi0 = random_state(rng, basis)
    t_max = 5.0
    plan = PropagationPlan.linspace(t_max, 11, leakage_threshold=np.inf)
    states, _ = propagate(h, psi0, plan, keep_states=True)
    for s in states:
        assert abs(s.norm - 1.0) <= 10 * plan.tol * max(t_max, 1.0)


def test_time_reversal(rng):
    basis, h = random_hermitian_lattice(rng)
    psi0 = random_state(rng, basis)
    t = 3.0
    fwd = evolve(h, psi0.amplitudes, t)
    back = evolve(h, fwd, -t)
    assert np.abs(back - psi0.amplitudes).max() <= 1e2 * 1e-12


def test_energy_conservation(rng):
    basis, h = random_hermitian_lattice(rng)
    psi0 = random_state(rng, basis)
    plan = PropagationPlan.linspace(4.0, 9, leakage_threshold=np.inf)
    states, _ = propagate(h, psi0, plan, keep_states=True)
    energies = [np.vdot(s.amplitudes, h @ s.amplitudes).real for s in states]
    scale = max(abs(energies[0]), 1.0)
    assert (max(energies) - min(energies)) / scale < 1e-10


def test_substep_invariance(rng):
    # inserting grid midpoints (halving every step) moves the final state
    # by no more than the per-step tolerance
    basis, h = random_hermitian_lattice(rng)
    psi0 = random_state(rng, basis)
    t_max = 3.0
    coarse = PropagationPlan(np.linspace(0.0, t_max, 7), leakage_threshold=np.inf)
    fine = PropagationPlan(np.linspace(0.0, t_max, 13), leakage_threshold=np.inf)
    a, _ = propagate(h, psi0, coarse, keep_states=True)
    b, _ = propagate(h, psi0, fine, keep_states=True)
    assert np.abs(a[-1].amplitudes - b[-1].amplitudes).max() <= coarse.tol


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def test_leakage_report_clean_run():
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)
    d = 40
    table = recurrence_analytic(dist, d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), basis)
    plan = PropagationPlan.linspace(6.0, 13)
    _, report = propagate(op, psi0, plan)
    assert not report.exceeded
    assert report.leakage[0] == 0.0
    assert report.max_leakage < 1e-12     # ballistic front stays well inside


def test_leakage_exceeded_carries_partial_trajectory():
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)
    d = 4                                  # front reaches the boundary fast
    table = recurrence_analytic(dist, d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([0.0, 1.0]), basis)
    plan = PropagationPlan.linspace(20.0, 41)
    with pytest.raises(LeakageExceeded) as exc:
        propagate(op, psi0, plan)
    err = exc.value
    assert err.leakage > plan.leakage_threshold
    assert err.report is not None and err.report.rho.shape == (err.report.times.size, 2, 2)
    assert err.report.leakage[-1] == err.leakage


# ---------------------------------------------------------------------------
# streaming: each output is traced as it is made
# ---------------------------------------------------------------------------

def test_streamed_trace_equals_traced_states():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    d = 160
    op = build_linear(spec, [recurrence_analytic(spec.distributions[0], d + 1)], [d])
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), LatticeBasis(2, (d,)))
    plan = PropagationPlan.linspace(6.0, 41)
    streamed, report = propagate(op, psi0, plan)
    states, kept = propagate(op, psi0, plan, keep_states=True)
    assert streamed == [] and len(states) == plan.times.size
    assert report.windows > 1
    assert np.array_equal(report.rho, trajectory_from_states(plan.times, states).rho)
    for name in ("times", "leakage", "rho"):
        assert np.array_equal(getattr(report, name), getattr(kept, name))
    for name in ("centre", "half_width", "windows", "matvecs", "norm_drift"):
        assert getattr(report, name) == getattr(kept, name)


def _largest_window(times, half):
    """Outputs in the largest Chebyshev window of a grid, as propagate groups them."""
    sizes, base = [], 0
    while base + 1 < times.size:
        stop = base + 2
        while stop < times.size and half * (times[stop] - times[base]) <= dynamics._WINDOW:
            stop += 1
        sizes.append(stop - base - 1)
        base = stop - 1
    return max(sizes)


def _peak_traced_bytes(fn):
    """Peak memory traced while fn runs; NumPy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_memory_does_not_grow_with_outputs():
    dist = DisorderDistribution.semicircle(1.0)
    d = 9_999                                       # dim 20,000; the front stays far inside
    h = build_linear(qubit_spec(dist), [recurrence_analytic(dist, d + 1)], [d]).to_csr()
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), LatticeBasis(2, (d,)))
    vec = psi0.amplitudes.nbytes
    _, half = dynamics._spectral_bounds(h)
    dt = 2.0 / half                                 # sixteen outputs per window

    def plan(n):
        return PropagationPlan(dt * np.arange(n))

    few = _peak_traced_bytes(lambda: propagate(h, psi0, plan(50)))
    many = _peak_traced_bytes(lambda: propagate(h, psi0, plan(400)))
    assert abs(many - few) < vec
    width = _largest_window(plan(400).times, half)
    assert max(few, many) < (width + 8) * vec
    kept = _peak_traced_bytes(lambda: propagate(h, psi0, plan(50), keep_states=True))
    assert kept >= 50 * vec


# ---------------------------------------------------------------------------
# auto depth
# ---------------------------------------------------------------------------

def test_auto_depth_zero_coupling_accepts_start():
    from enslat import EnsembleSpec, LinearCoupling
    spec = EnsembleSpec(np.diag([0.0, 1.0]),
                        (LinearCoupling(np.zeros((2, 2))),),
                        (DisorderDistribution.gaussian(1.0),))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    depths = auto_depth(spec, lambda b, _: localized_initial(c, b), horizon=5.0)
    assert depths == (16,)


def test_auto_depth_gaussian_qubit_converges():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    depths = auto_depth(spec, lambda b, _: localized_initial(c, b), horizon=6.0)
    assert 16 < depths[0] <= 4096
    # accepted depth carries the horizon without tripping the monitor
    table = recurrence_analytic(spec.distributions[0], depths[0] + 1)
    op = build_linear(spec, [table], depths)
    basis = LatticeBasis(2, depths)
    plan = PropagationPlan.linspace(6.0, 41)
    _, report = propagate(op, localized_initial(c, basis), plan)
    assert not report.exceeded


def test_auto_depth_hands_its_tables_to_the_builder(monkeypatch):
    # a disorder-dependent initial state is expanded over the tables the
    # operator of that depth was built from, not over a second set
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    built, given = [], []
    table_fn = dynamics.recurrence_table
    monkeypatch.setattr(dynamics, "recurrence_table",
                        lambda *args: built.append(table_fn(*args)) or built[-1])

    def builder(basis, tables):
        given.extend(tables)
        return localized_initial(c, basis)

    auto_depth(spec, builder, horizon=3.0)
    assert len(given) == len(built) > 1
    assert all(g is b for g, b in zip(given, built))


def test_auto_depth_cap():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(DepthCapExceeded):
        auto_depth(spec, lambda b, _: localized_initial(c, b), horizon=6.0, cap=32)


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValueError):
        PropagationPlan(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        PropagationPlan(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        PropagationPlan(np.array([0.0, 1.0]), tol=0.0)


# ---------------------------------------------------------------------------
# Chebyshev windows against the dense reference
# ---------------------------------------------------------------------------

@st.composite
def hermitian_lattices(draw):
    """(basis, H, offset): a random sparse complex-Hermitian operator of
    dimension <= 120, either with O(1) entries or dimer-like (entries of a few
    hundred on a diagonal offset of 12,000)."""
    n = draw(st.integers(1, 3))
    nodes = draw(st.integers(2, 120 // n))
    basis = LatticeBasis(n, (nodes - 1,))
    dim = basis.size
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.floats(0.0, 0.2))
    scale, offset = draw(st.sampled_from([(1.0, 0.0), (1.0, 3.0), (300.0, 12_000.0)]))
    upper = sp.random(dim, dim, density=density, random_state=rng, dtype=complex,
                      data_rvs=lambda k: rng.normal(size=k) + 1j * rng.normal(size=k))
    h = sp.triu(upper, 1) + sp.diags(rng.normal(size=dim - 1) + 0j, 1)
    h = h + h.conj().T + sp.diags(rng.normal(size=dim))
    return basis, sp.csr_matrix(scale * h + offset * sp.identity(dim)), offset


@st.composite
def time_grids(draw):
    """Strictly increasing grids from 0 in units of 1/a: short steps share a
    window, long ones (a * dt up to 40) need windows of their own."""
    steps = draw(st.lists(st.one_of(st.floats(1e-3, 2.0), st.floats(2.0, 40.0)),
                          min_size=1, max_size=12))
    return np.concatenate([[0.0], np.cumsum(steps)])


@settings(max_examples=60, deadline=None)
@given(hermitian_lattices(), time_grids(), st.integers(0, 2 ** 32 - 1))
def test_chebyshev_matches_dense(lattice, grid, seed):
    basis, h, offset = lattice
    psi0 = random_state(np.random.default_rng(seed), basis)
    # the offset is an exact global phase; removing it keeps the dense eigenvalues accurate
    shifted = h - offset * sp.identity(h.shape[0])
    times = grid / abs(shifted).sum(axis=1).max()      # a time unit near 1/half-width
    states, report = propagate(h, psi0, PropagationPlan(times, leakage_threshold=np.inf),
                               keep_states=True)
    dense = propagate_dense(shifted.toarray(), psi0, times)
    assert report.norm_drift <= 1e-12
    for t, got, want in zip(times, states, dense):
        assert np.abs(partial_trace(got) - partial_trace(want)).max() <= 1e-12
        if offset <= 3.0:
            want = want.amplitudes * np.exp(-1j * offset * t)
            assert np.abs(got.amplitudes - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# edge cases and the operator contract
# ---------------------------------------------------------------------------

def test_evolve_backward_undoes_forward_with_offset(rng):
    # dt < 0 runs the same expansion; the e^{-i c tau} phase must flip with it
    basis, h = random_hermitian_lattice(rng)
    h = 300.0 * h + 12_000.0 * sp.identity(basis.size, format="csr")
    psi0 = random_state(rng, basis)
    fwd = evolve(h, psi0.amplitudes, 0.02)
    assert np.abs(fwd - psi0.amplitudes).max() > 0.1
    back = evolve(h, fwd, -0.02)
    assert np.abs(back - psi0.amplitudes).max() <= 1e-10


def test_constant_operator_is_pure_phase():
    # H = c I has Gershgorin half-width 0: no products with H, only the phase
    basis = LatticeBasis(2, (8,))
    op = LatticeOperator(basis.size, np.arange(basis.size), np.arange(basis.size),
                         np.full(basis.size, 2.5))
    psi0 = localized_initial(np.array([0.6, 0.8]), basis)
    plan = PropagationPlan(np.array([0.0, 0.7, 1.9, 40.0]))
    states, report = propagate(op, psi0, plan, keep_states=True)
    assert report.half_width == 0.0 and report.centre == 2.5
    assert report.matvecs == 0 and report.norm_drift <= 1e-15
    for t, s in zip(plan.times, states):
        assert np.abs(s.amplitudes - np.exp(-2.5j * t) * psi0.amplitudes).max() <= 1e-14
    back = evolve(op, psi0.amplitudes, -3.0)
    assert np.abs(back - np.exp(7.5j) * psi0.amplitudes).max() <= 1e-14


def test_leakage_exceeded_inside_a_window():
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)
    d = 4
    op = build_linear(spec, [recurrence_analytic(dist, d + 1)], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([0.0, 1.0]), basis)
    plan = PropagationPlan.linspace(6.0, 25, leakage_threshold=1e-3)
    shell = boundary_shell(basis, 1)
    dense = propagate_dense(op, psi0, plan.times)
    leak = np.array([np.sum(np.abs(s.amplitudes[shell]) ** 2) for s in dense])
    first = int(np.argmax(leak > plan.leakage_threshold))
    assert 1 < first < plan.times.size - 1
    with pytest.raises(LeakageExceeded) as exc:
        propagate(op, psi0, plan)
    err = exc.value
    assert err.report.windows == 1          # the whole grid is one window
    assert err.time == plan.times[first]
    assert len(err.report.rho) == first + 1 and err.report.times.size == first + 1
    want = np.array([partial_trace(st) for st in dense[:first + 1]])
    assert np.abs(err.report.rho - want).max() <= 1e-12
    assert abs(err.leakage - leak[first]) <= 1e-12
    assert np.abs(err.report.leakage - leak[:first + 1]).max() <= 1e-12
    assert err.report.matvecs > 0


class _ShapeAndMatmul:
    """What the benchmark's counting wrapper exposes: ``shape`` and ``@``."""

    def __init__(self, matrix):
        self._matrix = matrix
        self.shape = matrix.shape

    def __matmul__(self, vec):
        return self._matrix @ vec


def test_propagator_needs_only_shape_and_matmul(monkeypatch):
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    op = build_linear(spec, [recurrence_analytic(spec.distributions[0], 33)], [32])
    psi0 = localized_initial(c, LatticeBasis(2, (32,)))
    plan = PropagationPlan.linspace(2.0, 9)

    def run():
        states, report = propagate(op, psi0, plan, keep_states=True)
        return ([s.amplitudes for s in states], report.matvecs,
                evolve(op, psi0.amplitudes, -1.3),
                auto_depth(spec, lambda b, _: localized_initial(c, b), horizon=3.0))

    want = run()
    as_csr = dynamics._as_csr
    monkeypatch.setattr(dynamics, "_as_csr", lambda h: _ShapeAndMatmul(as_csr(h)))
    got = run()
    assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
    assert got[1] == want[1] > 0
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3]
