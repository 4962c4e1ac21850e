"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 2b is expected to fail: the +-30 theta
cutoff biases the Cauchy coherence by 1.39e-2 against the uncut closed form
(verified independently by direct quadrature of the cut measure), which no
implementation choice can reduce below the pinned 5e-3 without widening the
cutoff; see the test docstring.
"""

import time

import numpy as np
import pytest

from enslat import (
    DisorderDistribution,
    EnsembleSpec,
    LatticeBasis,
    OracleConfig,
    PolynomialCoupling,
    PropagationPlan,
    analytic_qubit,
    auto_depth,
    build_linear,
    chain_to_ensemble,
    characteristic_function,
    expanded_initial,
    gauss_rule,
    localized_initial,
    mc_average,
    propagate,
    quad_average,
    recurrence_analytic,
    recurrence_stieltjes,
    recurrence_table,
    trajectory_from_states,
)
from conftest import as_operator, qubit_spec

C_HALF = np.array([1.0, 1.0]) / np.sqrt(2)


def _report(tag: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {tag}: {detail}")


def _chain_qubit(dist, times, depths, tol=1e-12):
    spec = qubit_spec(dist, e0=0.0, e1=1.0)
    table = recurrence_table(dist, depths[0] + 1)
    op = build_linear(spec, [table], depths)
    basis = LatticeBasis(2, depths)
    psi0 = localized_initial(C_HALF, basis)
    plan = PropagationPlan(times, tol=tol)
    states, report = propagate(op, psi0, plan, keep_states=True)
    return trajectory_from_states(times, states), report


# ---------------------------------------------------------------------------
# 1. qubit dephasing exactness at auto depth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["gaussian", "semicircle", "uniform"])
def test_criterion_1_qubit_dephasing_exactness(family):
    dist = DisorderDistribution(family, width=1.0)
    spec = qubit_spec(dist, e0=0.0, e1=1.0)
    times = np.linspace(0.0, 6.0, 200)
    t0 = time.perf_counter()
    # the auto-depth run itself: one propagation on a lattice grown as it runs
    depths, report = auto_depth(spec, lambda b, _: localized_initial(C_HALF, b),
                                PropagationPlan(times))
    ref = analytic_qubit(*C_HALF, 0.0, 1.0, dist, times)
    err = float(np.max(np.abs(np.abs(report.rho[:, 0, 1]) - np.abs(ref.rho[:, 0, 1]))))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-10 and elapsed <= 30.0
    _report(f"1 [{family}]", ok,
            f"max | |rho01|_chain - |rho01|_analytic | = {err:.2e} (tol 1e-10), "
            f"auto depth {depths[0]}, runtime {elapsed:.1f}s (limit 30s)")
    assert err <= 1e-10
    assert elapsed <= 30.0


# ---------------------------------------------------------------------------
# 2. Cauchy with cutoff +-30 theta
# ---------------------------------------------------------------------------

def test_criterion_2a_cauchy_chain_vs_cut_mc():
    theta = 1.0
    dist = DisorderDistribution.cauchy(theta, cutoff=(-30.0, 30.0))
    times = np.linspace(0.0, 6.0, 200)
    traj, _ = _chain_qubit(dist, times, (384,))
    spec = qubit_spec(dist, e0=0.0, e1=1.0)
    mc = mc_average(spec, C_HALF, times, OracleConfig(samples=100_000, seed=2026))
    gap = np.abs(traj.rho - mc.rho) - (4.0 * mc.errors + 1e-10)
    worst = float(gap.max())
    ok = worst <= 0.0
    _report("2a cauchy chain vs cut-MC", ok,
            f"worst excess over the 4-SEM band = {worst:.2e} "
            f"(<= 0 required; 1e5 samples)")
    assert ok


def test_criterion_2b_cauchy_chain_vs_uncut_analytic():
    """Pinned at 5e-3, which the +-30 theta cutoff cannot meet.

    The cut tails carry 2.12% of the Cauchy mass, so the renormalized cut
    ensemble's characteristic function deviates from exp(-theta t) by up to
    2.8e-2 (peak near theta t ~ 0.06), i.e. 1.39e-2 on the coherence entry.
    The number is a property of the cutoff, not of the solver: direct
    quadrature of the cut measure gives the same 1.3937e-2, and the chain
    agrees with the cut-ensemble oracles to 1e-13 (criterion 2a and the
    compare pipeline).  Meeting 5e-3 would need a cutoff beyond ~84 theta.
    Kept faithful to the stated tolerance, so this test fails by design.
    """
    theta = 1.0
    dist = DisorderDistribution.cauchy(theta, cutoff=(-30.0, 30.0))
    times = np.linspace(0.0, 6.0, 200)
    traj, _ = _chain_qubit(dist, times, (384,))
    uncut = analytic_qubit(*C_HALF, 0.0, 1.0, DisorderDistribution.cauchy(theta), times)
    err = float(np.max(np.abs(traj.rho - uncut.rho)))
    ok = err <= 5e-3
    _report("2b cauchy chain vs uncut analytic", ok,
            f"max |rho - rho_uncut| = {err:.4e} vs stated tolerance 5e-3 "
            "(cutoff-induced bias; see test docstring)")
    assert err <= 5e-3, (
        f"cut-ensemble bias {err:.4e} exceeds the stated 5e-3; the bias is "
        "intrinsic to the +-30 theta cutoff (independently confirmed by "
        "quadrature of the cut measure), not a solver error")


# ---------------------------------------------------------------------------
# 3. dimer relaxation (2-D lattice)
# ---------------------------------------------------------------------------

def test_criterion_3_dimer_populations():
    sigma, e1, e2, v = 200.0, 12325.0, 12025.0, 273.0
    t_2ps = 2 * np.pi * 2.99792458e10 * 2e-12      # 2 ps in 1/cm^-1 units
    # 5 sigma cutoff keeps the couplings bounded (they saturate at 2.5 sigma)
    # so the wavefront is ballistic and a finite depth carries the horizon
    dist = DisorderDistribution.gaussian(sigma, cutoff=(-5 * sigma, 5 * sigma))
    h0 = np.array([[e1, v], [v, e2]], dtype=complex)
    spec = EnsembleSpec(h0, (PolynomialCoupling.linear(np.diag([1.0, 0.0])),
                             PolynomialCoupling.linear(np.diag([0.0, 1.0]))), (dist, dist))
    d = 384
    table = recurrence_table(dist, d + 1)
    op = build_linear(spec, [table, table], (d, d))
    basis = LatticeBasis(2, (d, d))
    psi0 = localized_initial(np.array([1.0, 0.0]), basis)
    times = np.linspace(0.0, t_2ps, 161)
    states, report = propagate(op, psi0, PropagationPlan(times), keep_states=True)
    traj = trajectory_from_states(times, states)

    quad = quad_average(spec, np.array([1.0, 0.0]), times, OracleConfig(quad_order=384))
    err = float(np.max(np.abs(traj.rho - quad.rho)))
    mc = mc_average(spec, np.array([1.0, 0.0]), times,
                    OracleConfig(samples=40_000, seed=33))
    mc_gap = float((np.abs(traj.rho - mc.rho) - (4 * mc.errors + 1e-10)).max())

    p1 = traj.rho[:, 0, 0].real
    tail = p1[3 * len(p1) // 4:]
    # disorder-free P1 oscillates between 1 and 1 - 4V^2/(dE^2 + 4V^2)
    p_min = 1.0 - 4 * v * v / ((e1 - e2) ** 2 + 4 * v * v)
    ok = (err <= 1e-8 and mc_gap <= 0.0 and tail.var() > 1e-4
          and p_min < tail.mean() < 1.0)
    _report("3 dimer", ok,
            f"max |rho_chain - rho_quad| = {err:.2e} (tol 1e-8, order 384/axis); "
            f"MC band excess {mc_gap:.2e} (<= 0); "
            f"last-quarter var(P1) = {tail.var():.2e} (> 1e-4), "
            f"mean {tail.mean():.3f} in ({p_min:.3f}, 1); "
            f"leakage {report.max_leakage:.1e}")
    assert err <= 1e-8
    assert mc_gap <= 0.0
    assert tail.var() > 1e-4
    assert p_min < tail.mean() < 1.0


# ---------------------------------------------------------------------------
# 4. conservation suite
# ---------------------------------------------------------------------------

def test_criterion_4_conservation():
    worst_diag = worst_trace = worst_eig = 0.0
    cases = []
    # dephasing qubits over two measures
    for family in ("gaussian", "uniform"):
        dist = DisorderDistribution(family, width=1.0)
        cases.append((qubit_spec(dist, e0=0.0, e1=1.0),
                      np.array([0.6, 0.8]), dist))
    # three-level model with a traceless diagonal coupling
    dist = DisorderDistribution.semicircle(1.0)
    spec3 = EnsembleSpec(np.diag([0.0, 0.7, 1.3]).astype(complex),
                         (PolynomialCoupling.linear(np.diag([0.0, 1.0, -1.0])),), (dist,))
    cases.append((spec3, np.array([0.5, 0.5, 1.0 / np.sqrt(2)]), dist))

    for spec, c, dist in cases:
        d = 128
        table = recurrence_table(dist, d + 1)
        op = build_linear(spec, [table], (d,))
        basis = LatticeBasis(spec.n, (d,))
        times = np.linspace(0.0, 6.0, 61)
        states, _ = propagate(op, localized_initial(c, basis), PropagationPlan(times),
                              keep_states=True)
        traj = trajectory_from_states(times, states)
        pops = np.einsum("tnn->tn", traj.rho).real
        worst_diag = max(worst_diag, float(np.abs(pops - np.abs(c) ** 2).max()))
        tr = np.einsum("tnn->t", traj.rho)
        worst_trace = max(worst_trace, float(np.abs(tr - 1.0).max()))
        worst_eig = max(worst_eig, float(-np.linalg.eigvalsh(traj.rho).min()))

    ok = worst_diag <= 1e-10 and worst_trace <= 1e-10 and worst_eig <= 1e-10
    _report("4 conservation", ok,
            f"diag drift {worst_diag:.2e}, trace defect {worst_trace:.2e}, "
            f"eig floor {worst_eig:.2e} (all <= 1e-10)")
    assert worst_diag <= 1e-10
    assert worst_trace <= 1e-10
    assert worst_eig <= 1e-10


# ---------------------------------------------------------------------------
# 5. recurrence correctness
# ---------------------------------------------------------------------------

def test_criterion_5_recurrence_and_quadrature():
    k = np.arange(1, 26)
    errs = {}
    t = recurrence_stieltjes(DisorderDistribution.gaussian(1.0, cutoff=(-16, 16)),
                             26, grid_points=6000)
    errs["gaussian"] = np.abs(t.beta[:25] - k).max()
    t = recurrence_stieltjes(DisorderDistribution.semicircle(1.0), 26)
    errs["semicircle"] = np.abs(t.beta[:25] - 0.25).max()
    t = recurrence_stieltjes(DisorderDistribution.uniform(1.0), 26)
    errs["uniform"] = np.abs(t.beta[:25] - k * k / (4.0 * k * k - 1.0)).max()
    coeff_err = max(errs.values())

    def moment(dist, m):
        if m % 2:
            return 0.0
        j, w = m // 2, dist.width
        if dist.family == "gaussian":
            return w ** m * float(np.prod(np.arange(1, m, 2, dtype=float)))
        if dist.family == "uniform":
            return w ** m / (m + 1)
        from math import comb
        return (w / 2.0) ** m * comb(2 * j, j) / (j + 1)

    quad_err = 0.0
    for dist in (DisorderDistribution.gaussian(1.0), DisorderDistribution.uniform(1.0),
                 DisorderDistribution.semicircle(1.0)):
        for q in (2, 5, 13):
            table = recurrence_analytic(dist, q)
            nodes, weights = gauss_rule(table, q)
            for m in range(0, 2 * q):
                exact = moment(dist, m)
                scale = max(abs(exact), moment(dist, m + (m % 2)))
                quad_err = max(quad_err, abs(np.sum(weights * nodes ** m) - exact) / scale)

    ok = coeff_err <= 1e-10 and quad_err <= 1e-10
    _report("5 recurrence", ok,
            f"stieltjes vs analytic (k <= 25): {coeff_err:.2e}; "
            f"gauss moment error (m <= 2Q-1): {quad_err:.2e} (both <= 1e-10)")
    assert coeff_err <= 1e-10
    assert quad_err <= 1e-10


# ---------------------------------------------------------------------------
# 6. reverse map
# ---------------------------------------------------------------------------

def test_criterion_6_reverse_map():
    g = 1.0
    t_max = 20.0
    spec = chain_to_ensemble(g, np.zeros((1, 1)), 0)
    d = 4 * int(g * t_max)              # depth >= 4 g t_max
    table = recurrence_analytic(spec.distributions[0], d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(1, (d,))
    times = np.linspace(0.0, t_max, 201)
    states, _ = propagate(op, localized_initial(np.array([1.0]), basis),
                          PropagationPlan(times), keep_states=True)
    surv = np.array([s.amplitudes[0] for s in states])
    bessel = characteristic_function(spec.distributions[0], times)  # 2 J1(2gt)/(2gt)
    amp_err = float(np.abs(surv - bessel).max())

    cell = np.array([[0.0, 0.25], [0.25, 1.0]])
    qspec = chain_to_ensemble(0.5, cell, 1)
    dq = 64
    tq = recurrence_analytic(qspec.distributions[0], dq + 1)
    opq = build_linear(qspec, [tq], [dq])
    basq = LatticeBasis(2, (dq,))
    tgrid = np.linspace(0.0, 8.0, 81)
    sts, _ = propagate(opq, localized_initial(C_HALF, basq), PropagationPlan(tgrid),
                       keep_states=True)
    chain = trajectory_from_states(tgrid, sts)
    mc = mc_average(qspec, C_HALF, tgrid, OracleConfig(samples=100_000, seed=66))
    gap = float((np.abs(chain.rho - mc.rho) - (4 * mc.errors + 1e-10)).max())

    ok = amp_err <= 1e-8 and gap <= 0.0
    _report("6 reverse map", ok,
            f"survival vs 2J1(2gt)/(2gt): {amp_err:.2e} (tol 1e-8, depth {d}); "
            f"qubit-cell chain vs MC band excess: {gap:.2e} (<= 0)")
    assert amp_err <= 1e-8
    assert gap <= 0.0


# ---------------------------------------------------------------------------
# 7. propagator properties
# ---------------------------------------------------------------------------

def test_criterion_7_propagator_properties():
    rng = np.random.default_rng(424242)
    basis = LatticeBasis(2, (249,))                  # dim = 500
    dim = basis.size
    import scipy.sparse as sp
    rows = list(range(dim)) + list(range(dim - 1))
    cols = list(range(dim)) + list(range(1, dim))
    vals = list(rng.normal(size=dim)) + list(rng.normal(size=dim - 1)
                                             + 1j * rng.normal(size=dim - 1))
    for _ in range(400):
        i, j = sorted(rng.integers(0, dim, size=2))
        if i != j:
            rows.append(i); cols.append(j)
            vals.append(0.3 * (rng.normal() + 1j * rng.normal()))
    h = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    h = as_operator(sp.csr_matrix(h + h.conj().T - sp.diags(h.diagonal())))

    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    from enslat import LatticeState
    psi0 = LatticeState(basis, amps)
    tol = 1e-12
    t_max = 5.0
    plan = PropagationPlan.linspace(t_max, 11, tol=tol, leakage_threshold=np.inf)
    states, _ = propagate(h, psi0, plan, keep_states=True)

    norm_err = max(abs(s.norm - 1.0) for s in states)
    energies = [np.vdot(s.amplitudes, h.csr @ s.amplitudes).real for s in states]
    energy_err = (max(energies) - min(energies)) / max(abs(energies[0]), 1.0)
    # backward: forward under the negated operator, exp(-i(-H)t) = exp(+iHt)
    reverse = PropagationPlan(np.array([0.0, t_max]), tol=tol, leakage_threshold=np.inf)
    back = propagate(as_operator(-h.csr), LatticeState(basis, states[-1].amplitudes), reverse,
                     keep_states=True)[0][-1].amplitudes
    reversal_err = float(np.abs(back - amps).max())
    halved = PropagationPlan.linspace(t_max, 21, tol=tol, leakage_threshold=np.inf)
    fine, _ = propagate(h, psi0, halved, keep_states=True)
    substep_err = float(np.abs(states[-1].amplitudes - fine[-1].amplitudes).max())

    ok = (norm_err <= 10 * tol * t_max and reversal_err <= 1e2 * tol
          and energy_err <= 1e-10 and substep_err <= tol)
    _report("7 propagator", ok,
            f"norm {norm_err:.1e} (<= {10 * tol * t_max:.0e}), "
            f"reversal {reversal_err:.1e} (<= 1e-10), "
            f"energy {energy_err:.1e} (<= 1e-10), "
            f"substep {substep_err:.1e} (<= 1e-12) at dim {dim}")
    assert norm_err <= 10 * tol * t_max
    assert reversal_err <= 1e2 * tol
    assert energy_err <= 1e-10
    assert substep_err <= tol


# ---------------------------------------------------------------------------
# 8. disorder-dependent initial state
# ---------------------------------------------------------------------------

def test_criterion_8_disorder_dependent_initial_state():
    dist = DisorderDistribution.semicircle(1.0)
    d = 64
    basis = LatticeBasis(2, (d,))
    table = recurrence_analytic(dist, d + 1)

    def c_fn(pts):
        lam = np.atleast_2d(pts)[:, 0]
        return np.stack([lam, np.sqrt(1.0 - lam ** 2)], axis=1).astype(complex)

    psi0 = expanded_initial(c_fn, [dist], [table], basis)
    amps = psi0.node_amplitudes()
    d0, d1 = amps[:, 0].real, amps[:, 1].real
    want0 = np.zeros(d + 1)
    want0[1] = 0.5
    j = np.arange(0, 11)
    want1 = np.zeros(d + 1)
    want1[2 * j] = -(8.0 / np.pi) / ((2 * j + 3) * (4 * j ** 2 - 1.0))
    coeff_err = float(max(np.abs(d0[:21] - want0[:21]).max(),
                          np.abs(d1[:21] - want1[:21]).max()))

    spec = qubit_spec(dist, e0=0.0, e1=1.0)
    op = build_linear(spec, [table], (d,))
    times = np.linspace(0.0, 6.0, 61)
    states, _ = propagate(op, psi0, PropagationPlan(times), keep_states=True)
    chain = trajectory_from_states(times, states)
    mc = mc_average(spec, c_fn, times, OracleConfig(samples=100_000, seed=77))
    gap = float((np.abs(chain.rho - mc.rho) - (4 * mc.errors + 1e-10)).max())

    ok = coeff_err <= 1e-10 and gap <= 0.0
    _report("8 disorder-dependent initial state", ok,
            f"coefficient error (k <= 20): {coeff_err:.2e} (tol 1e-10); "
            f"chain vs per-realization MC band excess: {gap:.2e} (<= 0)")
    assert coeff_err <= 1e-10
    assert gap <= 0.0
