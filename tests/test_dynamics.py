"""Chebyshev propagation: correctness against the dense reference, conservation
laws, leakage, auto depth, and the operator contract the benchmark relies on."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from enslat import dynamics
from enslat import (
    DisorderDistribution,
    LatticeBasis,
    LatticeOperator,
    LatticeState,
    LeakageExceeded,
    NormDefectExceeded,
    NumericalBreakdown,
    PropagationPlan,
    auto_depth,
    boundary_shell,
    build_general,
    characteristic_function,
    expanded_initial,
    localized_initial,
    partial_trace,
    propagate,
    recurrence_analytic,
    trajectory_from_states,
)
from conftest import (as_operator, dimer_spec, flat_index, lattice_at, propagate_dense,
                      qubit_spec)


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
    return LatticeState(basis, amps)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def test_diagonal_evolution_is_pure_phase():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0), e0=0.3, e1=1.2)
    zero = qubit_spec(DisorderDistribution.gaussian(1.0), e0=0.3, e1=1.2)
    from enslat import EnsembleSpec, PolynomialCoupling
    zero = EnsembleSpec(spec.h0, (PolynomialCoupling.linear(np.zeros((2, 2))),),
                        spec.distributions)
    table = recurrence_analytic(zero.distributions[0], 9)
    op = build_general(zero, [table], [8])
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
    op = build_general(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([0.0, 1.0]), basis)
    plan = PropagationPlan.linspace(6.0, 31)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    overlap = np.array([s.amplitudes[flat_index(basis, 1, (0,))] for s in states])
    phi = characteristic_function(dist, plan.times)
    assert np.abs(overlap - np.conj(phi) * np.exp(-1j * plan.times)).max() < 1e-11


def test_chebyshev_propagator_matches_dense(rng):
    basis, h = random_hermitian_lattice(rng, n_nodes=60, extra=80)
    psi0 = random_state(rng, basis)
    times = np.array([0.0, 0.9, 2.2])
    plan = PropagationPlan(times, leakage_threshold=np.inf)
    chebyshev, _ = propagate(as_operator(h), psi0, plan, keep_states=True)
    dense = propagate_dense(h.toarray(), psi0, times)
    for a, b in zip(chebyshev, dense):
        assert np.abs(a.amplitudes - b.amplitudes).max() < 5e-12


# ---------------------------------------------------------------------------
# conservation properties (randomized Hermitian lattices, dim <= 500)
# ---------------------------------------------------------------------------

def test_unitarity(rng):
    basis, h = random_hermitian_lattice(rng)
    psi0 = random_state(rng, basis)
    t_max = 5.0
    plan = PropagationPlan.linspace(t_max, 11, leakage_threshold=np.inf)
    states, _ = propagate(as_operator(h), psi0, plan, keep_states=True)
    for s in states:
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 10 * plan.tol * max(t_max, 1.0)


def _last(op, amps, basis, t):
    """exp(-i H t) amps: the last state of a propagation over (0, t).
    Under the negated operator it is exp(+i H t) amps, the backward step."""
    plan = PropagationPlan(np.array([0.0, t]), leakage_threshold=np.inf)
    states, _ = propagate(op, LatticeState(basis, amps), plan, keep_states=True)
    return states[-1].amplitudes


def test_time_reversal(rng):
    basis, h = random_hermitian_lattice(rng)
    psi0 = random_state(rng, basis)
    t = 3.0
    fwd = _last(as_operator(h), psi0.amplitudes, basis, t)
    back = _last(as_operator(-h), fwd, basis, t)
    assert np.abs(back - psi0.amplitudes).max() <= 1e2 * 1e-12


def test_energy_conservation(rng):
    basis, h = random_hermitian_lattice(rng)
    psi0 = random_state(rng, basis)
    plan = PropagationPlan.linspace(4.0, 9, leakage_threshold=np.inf)
    states, _ = propagate(as_operator(h), psi0, plan, keep_states=True)
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
    op = as_operator(h)
    a, _ = propagate(op, psi0, coarse, keep_states=True)
    b, _ = propagate(op, psi0, fine, keep_states=True)
    assert np.abs(a[-1].amplitudes - b[-1].amplitudes).max() <= coarse.tol


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def test_leakage_report_clean_run():
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)
    d = 40
    table = recurrence_analytic(dist, d + 1)
    op = build_general(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), basis)
    plan = PropagationPlan.linspace(6.0, 13)
    _, report = propagate(op, psi0, plan)
    assert report.max_leakage <= plan.leakage_threshold
    assert report.leakage[0] == 0.0
    assert report.max_leakage < 1e-12     # ballistic front stays well inside


def test_leakage_exceeded_carries_partial_trajectory():
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)
    d = 4                                  # front reaches the boundary fast
    table = recurrence_analytic(dist, d + 1)
    op = build_general(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([0.0, 1.0]), basis)
    plan = PropagationPlan.linspace(20.0, 41)
    with pytest.raises(LeakageExceeded) as exc:
        propagate(op, psi0, plan)
    err = exc.value
    assert err.leakage > plan.leakage_threshold
    assert err.report is not None and err.report.rho.shape == (err.report.times.size, 2, 2)
    assert err.report.leakage[-1] == err.leakage


def test_depth_zero_axis_lies_on_the_boundary():
    # an axis of depth 0 puts every node on the boundary shell: the lattice
    # propagates as the dense reference does, and the monitor trips at t = 0
    spec = dimer_spec(1.0, 0.0, 0.3, 0.5)
    op, psi0 = lattice_at(spec, lambda b, _: localized_initial(np.array([1.0, 0.0]), b), (0, 6))
    assert boundary_shell(psi0.basis).size == psi0.basis.size
    times = np.linspace(0.0, 3.0, 7)
    states, report = propagate(op, psi0, PropagationPlan(times, leakage_threshold=np.inf),
                               keep_states=True)
    for got, want in zip(states, propagate_dense(op.csr.toarray(), psi0, times)):
        assert np.abs(got.amplitudes - want.amplitudes).max() < 1e-13
    assert np.abs(report.leakage - 1.0).max() < 1e-12      # the whole norm
    with pytest.raises(LeakageExceeded) as exc:
        propagate(op, psi0, PropagationPlan(times))
    assert exc.value.time == 0.0


# ---------------------------------------------------------------------------
# streaming: each output is traced as it is made
# ---------------------------------------------------------------------------

def test_streamed_trace_equals_traced_states():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    d = 160
    op = build_general(spec, [recurrence_analytic(spec.distributions[0], d + 1)], [d])
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
    h = build_general(qubit_spec(dist), [recurrence_analytic(dist, d + 1)], [d])
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), LatticeBasis(2, (d,)))
    vec = psi0.amplitudes.nbytes
    _, half = dynamics._spectral_bounds(h.csr)
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
    from enslat import EnsembleSpec, PolynomialCoupling
    spec = EnsembleSpec(np.diag([0.0, 1.0]),
                        (PolynomialCoupling.linear(np.zeros((2, 2))),),
                        (DisorderDistribution.gaussian(1.0),))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    depths, report = auto_depth(spec, lambda b, _: localized_initial(c, b),
                                PropagationPlan.linspace(5.0, 2))
    assert depths == (16,) and report.growth == ((16,),)


def test_auto_depth_gaussian_qubit_converges():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    builder = lambda b, _: localized_initial(c, b)
    plan = PropagationPlan.linspace(6.0, 41)
    depths, report = auto_depth(spec, builder, plan)
    assert 16 < depths[0] <= 4096
    # below the cap the wavefront never reaches the boundary shell
    assert report.max_leakage == 0.0
    # the final lattice carries the horizon without tripping the monitor
    _, pinned = propagate(*lattice_at(spec, builder, depths), plan)
    assert pinned.max_leakage <= plan.leakage_threshold


def test_auto_depth_hands_its_tables_to_the_builder(monkeypatch):
    # a disorder-dependent initial state is expanded over the tables the
    # start operator was built from, not over a second set
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    built, given = [], []
    build_fn = dynamics.build_general
    monkeypatch.setattr(dynamics, "build_general",
                        lambda spec, tables, depths: built.append(tables) or build_fn(
                            spec, tables, depths))

    def builder(basis, tables):
        given.append(tables)
        return localized_initial(c, basis)

    auto_depth(spec, builder, PropagationPlan.linspace(3.0, 2))
    assert len(given) == 1 and len(built) > 1
    assert len(given[0]) == 1 and all(g is b for g, b in zip(given[0], built[0]))


def test_auto_depth_cap():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(LeakageExceeded) as err:
        auto_depth(spec, lambda b, _: localized_initial(c, b), PropagationPlan.linspace(6.0, 2),
                   cap=32)
    assert err.value.report.growth[-1] == (32,)


def _cut_gaussian_dimer():
    from enslat import EnsembleSpec, PolynomialCoupling
    dist = DisorderDistribution.gaussian(1.0, cutoff=(-4.0, 4.0))
    return EnsembleSpec(np.array([[0.5, 0.3], [0.3, -0.5]]),
                        (PolynomialCoupling.linear(np.diag([1.0, 0.0])),
                         PolynomialCoupling.linear(np.diag([0.0, 1.0]))),
                        (dist, dist))


@pytest.mark.parametrize("spec, t_max", [
    (qubit_spec(DisorderDistribution.gaussian(1.0)), 6.0),
    (_cut_gaussian_dimer(), 20.0),
    (_cut_gaussian_dimer(), 30.0),
])
def test_growth_matches_the_pinned_final_lattice(spec, t_max):
    # one propagation on a growing lattice gives the rho of a propagation on
    # the final lattice from the start
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    builder = lambda b, _: localized_initial(c, b)
    plan = PropagationPlan.linspace(t_max, 41)
    depths, grown = auto_depth(spec, builder, plan)
    assert len(grown.growth) > 1 and grown.growth[-1] == depths
    _, pinned = propagate(*lattice_at(spec, builder, depths), plan)
    assert np.abs(grown.rho - pinned.rho).max() <= 1e-13


def _recording_builds(monkeypatch) -> list:
    """Wrap ``dynamics.build_general``; returns the list of (depths, operator) it built."""
    built = []
    build_fn = dynamics.build_general

    def build(spec, tables, depths):
        # a growth that rebuilt the lattice it has would plan on it again, and again
        assert tuple(depths) not in [d for d, _ in built], f"depths {depths} built twice"
        op = build_fn(spec, tables, depths)
        built.append((tuple(depths), op))
        return op

    monkeypatch.setattr(dynamics, "build_general", build)
    return built


def test_grown_lattice_is_the_pinned_lattice(monkeypatch):
    # a lattice grown during the run is the one lattice_at sets up at its
    # depths, entry for entry: one table rule for both
    spec = _cut_gaussian_dimer()
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    builder = lambda b, _: localized_initial(c, b)
    built = _recording_builds(monkeypatch)
    depths, report = auto_depth(spec, builder, PropagationPlan.linspace(20.0, 41))
    assert len(report.growth) > 1 and built[-1][0] == depths
    grown, (pinned, _) = built[-1][1].csr, lattice_at(spec, builder, depths)
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(grown, field), getattr(pinned.csr, field))


def test_growth_past_a_capped_axis_matches_the_pinned_lattice(monkeypatch):
    # axis 0 stops at its cap of 96 while axis 1 grows on: boxes of radius
    # past 96 meet the capped boundary, which no growth moves, and the
    # trigger waits for the growing axis.  No lattice is built twice.
    spec = _cut_gaussian_dimer()
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    builder = lambda b, _: localized_initial(c, b)
    plan = PropagationPlan.linspace(20.0, 41)
    built = _recording_builds(monkeypatch)
    depths, grown = auto_depth(spec, builder, plan, cap=(96, 4096))
    assert depths == (96, 256) and grown.growth == ((16, 16), (96, 128), (96, 256))
    assert [d for d, _ in built] == list(grown.growth)
    assert grown.box[0] == 96 and 0 < grown.max_leakage <= plan.leakage_threshold
    _, pinned = propagate(*lattice_at(spec, builder, depths), plan)
    assert np.abs(grown.rho - pinned.rho).max() <= 1e-13


def test_growth_carries_the_state_node_by_node():
    # an (8, 8) lattice shares with a deeper one only the shells up to 8; a
    # state spread out to shell 12 (as an expanded start can be:
    # exp(0.3 i lam_1 lam_2) reaches shell 34 on auto_depth's (32, 32) start)
    # moves to the deeper lattice by multi-index, not by position
    spec = _cut_gaussian_dimer()
    origin = lambda b, _: localized_initial(np.ones(2) / np.sqrt(2), b)
    (small, psi_small), (big, psi_big) = (lattice_at(spec, origin, d) for d in [(8, 8), (40, 40)])
    multi = psi_small.basis.node_multi_indices()
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(multi.shape[0], 2)) + 1j * rng.normal(size=(multi.shape[0], 2))
    amps[(multi.sum(axis=1) > 12) | (multi.max(axis=1) > 6)] = 0.0
    amps /= np.linalg.norm(amps)
    moved = np.zeros((psi_big.basis.node_count, 2), complex)
    moved[psi_big.basis.node_index(multi)] = amps
    plan = PropagationPlan.linspace(1.0, 11)
    bigger = [(big, psi_big.basis)]
    _, grown = propagate(small, LatticeState(psi_small.basis, amps.ravel()), plan,
                         grow=lambda radius: bigger.pop() if bigger else None)
    _, pinned = propagate(big, LatticeState(psi_big.basis, moved.ravel()), plan)
    assert grown.growth == ((8, 8), (40, 40))
    assert np.abs(grown.rho - pinned.rho).max() <= 1e-13


def test_start_search_builds_no_operator_for_a_rejected_depth(monkeypatch):
    # the start search reads the expanded state's boundary population and
    # assembles an operator only for the start it accepts
    spec = qubit_spec(DisorderDistribution.gaussian(1.0, cutoff=(-5.0, 5.0)))
    c_fn = lambda lam: np.stack([np.cos(lam[:, 0]), np.sin(lam[:, 0])], axis=1)
    builder = lambda basis, tables: expanded_initial(c_fn, spec.distributions, tables, basis)
    built = _recording_builds(monkeypatch)
    _, report = auto_depth(spec, builder, PropagationPlan.linspace(6.0, 41))
    assert report.growth[0] > (16,)        # the start search rejected depth 16
    assert [d for d, _ in built] == list(report.growth)


def test_start_search_doubles_past_a_lossy_expansion():
    # c = (cos 3 lam, sin 3 lam) loses 3.4e-4 of its norm expanded at depth 16:
    # that start is rejected like one with a populated boundary shell, and the
    # same loss at the cap is raised
    spec = qubit_spec(DisorderDistribution.gaussian(1.0, cutoff=(-5.0, 5.0)))
    c_fn = lambda lam: np.stack([np.cos(3 * lam[:, 0]), np.sin(3 * lam[:, 0])], axis=1)
    builder = lambda basis, tables: expanded_initial(c_fn, spec.distributions, tables, basis)
    with pytest.raises(NormDefectExceeded, match="norm defect 3.380e-04"):
        lattice_at(spec, builder, (16,))
    depths, report = auto_depth(spec, builder, PropagationPlan.linspace(2.0, 11))
    assert report.growth[0] > (16,) and depths[0] > 16
    with pytest.raises(NormDefectExceeded):
        auto_depth(spec, builder, PropagationPlan.linspace(2.0, 11), cap=16)


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
    with pytest.raises(ValueError, match="1-D grid"):
        PropagationPlan(np.zeros((2, 2)))


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
    states, report = propagate(as_operator(h), psi0,
                               PropagationPlan(times, leakage_threshold=np.inf), keep_states=True)
    dense = propagate_dense(shifted.toarray(), psi0, times)
    assert report.norm_drift <= 1e-12
    for t, got, want in zip(times, states, dense):
        assert np.abs(partial_trace(got) - partial_trace(want)).max() <= 1e-12
        if offset <= 3.0:
            want = want.amplitudes * np.exp(-1j * offset * t)
            assert np.abs(got.amplitudes - want).max() <= 1e-12


def _window(mat, phi, taus, centre, half):
    coefs = [dynamics._coefficients(tau, centre, half, dynamics._TAIL * 1e-12) for tau in taus]
    outs, used = dynamics._chebyshev(mat, dynamics._start_pair(phi, mat.shape[1]),
                                     coefs, centre, half)
    return outs, used, [c.size for c in coefs]


@pytest.mark.parametrize("taus", [[0.3, 1.7, 4.0], [4.0, 0.3, 2.5, 0.0, 1.1]],
                         ids=["increasing", "non-monotone"])
@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize("box", [False, True], ids=["whole", "box"])
def test_window_matches_expm(taus, parity, box):
    # one window against expm: outputs whose series end at different terms, in
    # any order, a last term of either parity, and a box whose rows are fewer
    # than its columns, whose start and outputs are zero past its rows
    rng = np.random.default_rng(7)
    _, h = random_hermitian_lattice(rng, n_nodes=60, extra=100)
    h = h + 3.0 * sp.identity(h.shape[0], format="csr")
    centre, half = dynamics._spectral_bounds(h)
    rows, act = (70, 90) if box else h.shape
    phi = np.zeros(h.shape[0], complex)
    phi[:rows] = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    taus = np.array(taus) / half * 6.0
    while max(_window(h[:rows, :act], phi, taus, centre, half)[2]) % 2 != parity:
        taus[np.argmax(taus)] *= 1.02
    start = phi.copy()
    outs, used, sizes = _window(h[:rows, :act], phi, taus, centre, half)
    assert np.array_equal(phi, start)                   # the start is not written
    assert outs.shape == (taus.size, act) and used == max(sizes) - 1
    assert len(set(sizes)) == taus.size and (sizes == sorted(sizes)) == (list(taus) == sorted(taus))
    block = h[:rows, :rows].toarray()
    for tau, out in zip(taus, outs):
        want = expm(-1j * tau * block) @ phi[:rows]
        assert np.abs(out[:rows] - want).max() <= 1e-13
        assert not out[rows:].any()


def test_window_of_a_constant_operator_is_a_phase():
    # H = c I: half-width 0, one term per output and no product, no division by a
    centre = 2.5
    h = sp.csr_matrix(centre * np.eye(6))
    phi = np.arange(6) + 1j
    with np.errstate(all="raise"):
        outs, used, sizes = _window(h, phi, [0.0, 3.0, 0.7], *dynamics._spectral_bounds(h))
    assert used == 0 and sizes == [1, 1, 1]
    for tau, out in zip([0.0, 3.0, 0.7], outs):
        assert np.abs(out - np.exp(-1j * centre * tau) * phi).max() <= 1e-15


def test_block_update_refuses_a_strided_output():
    # f2py would add into a copy of outputs that are not the rows of one
    # C-contiguous array, and drop it: every update lost, so it is refused
    rng = np.random.default_rng(3)
    terms = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    coef = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    outs = np.zeros((3, 8), complex)
    with pytest.raises(ValueError, match="in place"):
        dynamics._add_terms(outs[:, :5], terms, coef)
    outs = np.ones((3, 5), complex)
    dynamics._add_terms(outs[1:], terms, coef[:, 1:])
    assert np.array_equal(outs[0], np.ones(5))
    assert np.abs(outs[1:] - 1 - coef[:, 1:].T @ terms).max() <= 1e-14


# ---------------------------------------------------------------------------
# edge cases and the operator contract
# ---------------------------------------------------------------------------

def test_negated_operator_undoes_forward_with_offset(rng):
    # the negated operator runs backward; the e^{-i c tau} phase flips with its centre
    basis, h = random_hermitian_lattice(rng)
    h = 300.0 * h + 12_000.0 * sp.identity(basis.size, format="csr")
    psi0 = random_state(rng, basis)
    fwd = _last(as_operator(h), psi0.amplitudes, basis, 0.02)
    assert np.abs(fwd - psi0.amplitudes).max() > 0.1
    back = _last(as_operator(-h), fwd, basis, 0.02)
    assert np.abs(back - psi0.amplitudes).max() <= 1e-10


def test_propagate_refuses_a_bare_matrix(rng):
    # one operator type: a matrix that is not a LatticeOperator is refused by name
    basis, h = random_hermitian_lattice(rng, n_nodes=20, extra=0)
    psi0 = random_state(rng, basis)
    with pytest.raises(TypeError, match="propagate takes a LatticeOperator, not csr_matrix"):
        propagate(h, psi0, PropagationPlan(np.array([0.0, 1.0])))
    # an operator of another lattice than the state's
    with pytest.raises(ValueError, match=f"operator dim {basis.size - 1} != basis size"):
        propagate(as_operator(h[1:, 1:]), psi0, PropagationPlan(np.array([0.0, 1.0])))


def test_non_finite_operator_raises_krylov_breakdown(rng):
    # the Gershgorin interval of an operator with a NaN entry is not finite
    basis, h = random_hermitian_lattice(rng, n_nodes=20, extra=0)
    h = h.tolil()
    h[3, 3] = np.nan
    psi0 = random_state(rng, basis)
    with pytest.raises(NumericalBreakdown, match="non-finite operator entries"):
        propagate(as_operator(h.tocsr()), psi0, PropagationPlan(np.array([0.0, 1.0])))


@pytest.mark.parametrize("where", ["start at node 0", "start at node 10", "output"])
def test_non_finite_values_are_refused(monkeypatch, where):
    # a NaN at node 10 lies past the front of a start localized at node 0, so
    # the start's box alone would drop it; at node 0 it would reach the
    # series.  An output that is not finite is caught on its reduced rho
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    op, psi0 = lattice_at(spec, lambda basis, _: localized_initial(np.array([0.6, 0.8]), basis),
                          (32,))
    amps = psi0.amplitudes.copy()
    if where == "output":
        chebyshev = dynamics._chebyshev

        def overflowing(*args):
            outs, used = chebyshev(*args)
            outs[-1, 0] = np.inf
            return outs, used
        monkeypatch.setattr(dynamics, "_chebyshev", overflowing)
        match = "during propagation"
    else:
        amps[2 * int(where.split()[-1])] = np.nan
        match = "in the initial state"
    with pytest.raises(NumericalBreakdown, match=f"non-finite values {match}"):
        propagate(op, LatticeState(psi0.basis, amps), PropagationPlan.linspace(1.0, 5))


def test_constant_operator_is_pure_phase():
    # H = c I has Gershgorin half-width 0: no products with H, only the phase
    basis = LatticeBasis(2, (8,))
    op = LatticeOperator(basis.size, lambda: [(np.arange(basis.size), np.arange(basis.size),
                                               np.full(basis.size, 2.5))])
    psi0 = localized_initial(np.array([0.6, 0.8]), basis)
    plan = PropagationPlan(np.array([0.0, 0.7, 1.9, 40.0]))
    states, report = propagate(op, psi0, plan, keep_states=True)
    assert report.half_width == 0.0 and report.centre == 2.5
    assert report.matvecs == 0 and report.norm_drift <= 1e-15
    for t, s in zip(plan.times, states):
        assert np.abs(s.amplitudes - np.exp(-2.5j * t) * psi0.amplitudes).max() <= 1e-14
    back = _last(as_operator(-op.csr), psi0.amplitudes, basis, 3.0)
    assert np.abs(back - np.exp(7.5j) * psi0.amplitudes).max() <= 1e-14


def test_leakage_exceeded_inside_a_window():
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)
    d = 4
    op = build_general(spec, [recurrence_analytic(dist, d + 1)], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([0.0, 1.0]), basis)
    plan = PropagationPlan.linspace(6.0, 25, leakage_threshold=1e-3)
    shell = boundary_shell(basis, 1)
    dense = propagate_dense(op.csr.toarray(), psi0, plan.times)
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
    op = build_general(spec, [recurrence_analytic(spec.distributions[0], 33)], [32])
    psi0 = localized_initial(c, LatticeBasis(2, (32,)))
    plan = PropagationPlan.linspace(2.0, 9)

    def run():
        states, report = propagate(op, psi0, plan, keep_states=True)
        return ([s.amplitudes for s in states], report.matvecs,
                _last(as_operator(-op.csr), psi0.amplitudes, psi0.basis, 1.3),
                auto_depth(spec, lambda b, _: localized_initial(c, b),
                           PropagationPlan.linspace(3.0, 2))[0])

    want = run()
    as_csr = dynamics._as_csr
    monkeypatch.setattr(dynamics, "_as_csr", lambda h: _ShapeAndMatmul(as_csr(h)))
    got = run()
    assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
    assert got[1] == want[1] > 0
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3]


# ---------------------------------------------------------------------------
# windows on the box the wavefront occupies
# ---------------------------------------------------------------------------

@st.composite
def box_lattices(draw):
    """(op, psi0, band) of a build_general lattice: one axis of depth 120 or
    two of depths (80, <= 10); linear or degree-2 couplings, band the largest
    degree; a localized or an expanded initial state."""
    from enslat import EnsembleSpec, PolynomialCoupling
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    l = draw(st.sampled_from([1, 2]))
    n = 1 if l == 2 else draw(st.sampled_from([1, 2]))
    depths = (120,) if l == 1 else (80, draw(st.integers(4, 10)))

    def herm(scale):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return scale * (m + m.conj().T) / 2

    couplings = []
    for _ in range(l):
        mats = [np.zeros((n, n)), herm(0.5)]
        if draw(st.booleans()):
            mats.append(herm(0.1))            # degree 2: bands of width 2
        couplings.append(PolynomialCoupling(tuple(mats)))
    dists = tuple(draw(st.sampled_from([DisorderDistribution.semicircle(1.0),
                                        DisorderDistribution.gaussian(0.5)]))
                  for _ in range(l))
    spec = EnsembleSpec(herm(1.0), tuple(couplings), dists)
    spread = draw(st.sampled_from([0, 3]))

    def builder(basis, tables):
        # on the origin, or spread over the first shells: the image of a
        # disorder-dependent state of low degree in the disorder
        amps = rng.normal(size=(basis.node_count, n)) + 1j * rng.normal(size=(basis.node_count, n))
        amps[basis.node_multi_indices().max(axis=1) > spread] = 0.0
        return LatticeState(basis, (amps / np.linalg.norm(amps)).ravel())

    return (*lattice_at(spec, builder, depths), max(c.degree for c in couplings))


def _band_two_origin_lattice():
    """(op, psi0, band) of a (80, 4) lattice with degree-2 couplings and the
    state on the origin, N = 1.  Unless the horizon is divided by the band,
    a * t = 14 takes 40 products, whose light cone reaches shell 80."""
    from enslat import EnsembleSpec, PolynomialCoupling
    spec = EnsembleSpec(np.array([[0.3]]),
                        (PolynomialCoupling((np.zeros((1, 1)), [[0.5]], [[0.1]])),
                         PolynomialCoupling((np.zeros((1, 1)), [[-0.4]], [[0.05]]))),
                        (DisorderDistribution.semicircle(1.0), DisorderDistribution.gaussian(0.5)))
    return (*lattice_at(spec, lambda b, _: localized_initial(np.ones(1), b), (80, 4)), 2)


@settings(max_examples=25, deadline=None)
@given(box_lattices(), st.lists(st.floats(0.25, 2.0), min_size=1, max_size=8))
@example(_band_two_origin_lattice(), [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
def test_box_windows_match_dense(lattice, steps):
    # a * t * band <= 16 in all: the first window's light cone stays inside the lattice
    op, psi0, band = lattice
    centre, half = dynamics._spectral_bounds(op.csr)
    times = np.concatenate([[0.0], np.cumsum(steps)]) / (half * band)
    states, report = propagate(op, psi0, PropagationPlan(times, leakage_threshold=np.inf),
                               keep_states=True)
    # the centre is an exact global phase; removing it keeps the dense eigenvalues accurate
    dense = propagate_dense(op.csr.toarray() - centre * np.eye(op.dim), psi0, times)
    for t, got, want in zip(times, states, dense):
        assert np.abs(got.amplitudes - np.exp(-1j * centre * t) * want.amplitudes).max() <= 1e-12
    assert report.active_fraction < 1          # the box started smaller than the lattice
    assert report.op_dim == psi0.basis.size


def test_box_redone_when_front_outruns_it():
    # one output just after another measures no advance, so the long window
    # after it starts on a box a few shells past the front; the front reaches
    # the box's edge and the window is run again on wider boxes
    dist = DisorderDistribution.semicircle(1.0)
    d = 150
    op = build_general(qubit_spec(dist), [recurrence_analytic(dist, d + 1)], [d])
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), LatticeBasis(2, (d,)))
    _, half = dynamics._spectral_bounds(op.csr)
    times = np.array([0.0, 40.0, 40.001, 80.0]) / half      # one output per window
    states, report = propagate(op, psi0, PropagationPlan(times), keep_states=True)
    assert report.windows == 3 and report.redos > 0
    assert report.box[0] < d
    for got, want in zip(states, propagate_dense(op.csr.toarray(), psi0, times)):
        assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12


def test_box_stays_on_the_light_cone():
    # no hops: the light cone never leaves the start's support, however far
    # the measured front is projected
    from enslat import EnsembleSpec, PolynomialCoupling
    spec = EnsembleSpec(np.diag([0.0, 1.0]), (PolynomialCoupling.linear(np.zeros((2, 2))),),
                        (DisorderDistribution.gaussian(1.0),))
    op, psi0 = lattice_at(spec, lambda b, _: localized_initial(np.array([0.6, 0.8]), b), (40,))
    times = np.linspace(0.0, 60.0, 7)
    states, report = propagate(op, psi0, PropagationPlan(times), keep_states=True)
    assert report.box == (0,) and report.box_growths == 0
    assert report.active_fraction == 2 / psi0.basis.size
    for t, s in zip(times, states):
        want = psi0.amplitudes * np.exp(-1j * np.array([0.0, 1.0] * 41) * t)
        assert np.abs(s.amplitudes - want).max() <= 1e-13


def test_box_memory_is_one_operator_and_a_window_of_vectors():
    # a 2-D lattice whose box grows: propagate holds the operator once, in the
    # shell layout of the boxes, and at most a window's outputs plus a few
    # working vectors.  One output per window keeps that allowance small
    # enough that a second copy of the operator does not fit in it.
    from enslat import EnsembleSpec, PolynomialCoupling
    spec = EnsembleSpec(np.zeros((1, 1)), (PolynomialCoupling.linear(np.eye(1)),) * 2,
                        (DisorderDistribution.semicircle(1.0),) * 2)
    op, psi0 = lattice_at(spec, lambda b, _: localized_initial(np.ones(1), b), (300, 300))
    csr = op.csr
    csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    del csr
    vec = psi0.amplitudes.nbytes
    _, half = dynamics._spectral_bounds(op.csr)
    plan = PropagationPlan(np.arange(6) * 40.0 / half)
    report = []
    peak = _peak_traced_bytes(lambda: report.append(propagate(op, psi0, plan)[1]))
    assert report[0].box_growths > 1 and report[0].active_fraction < 1
    width = _largest_window(plan.times, half)
    assert width == 1
    assert peak <= csr_bytes + (width + 8) * vec


def test_box_memory_holds_no_earlier_window():
    # as above with eight outputs a window, on a lattice the box comes to fill:
    # the last windows hold whole vectors.  The previous window's outputs must
    # be gone before the next one runs, so the peak is the operator, one
    # window's outputs and four vectors (the start, the recurrence pair and a
    # product); a view of the last output kept as the next start would hold
    # the whole previous window too
    from enslat import EnsembleSpec, PolynomialCoupling
    spec = EnsembleSpec(np.zeros((1, 1)), (PolynomialCoupling.linear(np.eye(1)),) * 2,
                        (DisorderDistribution.semicircle(1.0),) * 2)
    op, psi0 = lattice_at(spec, lambda b, _: localized_initial(np.ones(1), b), (120, 120))
    csr = op.csr
    csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    del csr
    vec = psi0.amplitudes.nbytes
    _, half = dynamics._spectral_bounds(op.csr)
    plan = PropagationPlan(np.arange(41) * 4.0 / half)
    report = []
    peak = _peak_traced_bytes(lambda: report.append(propagate(op, psi0, plan)[1]))
    assert report[0].box_growths > 1 and report[0].active_fraction < 1
    assert report[0].box == (120, 120)
    width = _largest_window(plan.times, half)
    assert width >= 4
    assert peak <= csr_bytes + (width + 4) * vec
