"""Partial trace and disorder-averaged observables."""

import numpy as np
import pytest

from enslat import (
    DensityTrajectory,
    DisorderDistribution,
    LatticeBasis,
    LatticeState,
    PropagationPlan,
    build_linear,
    localized_initial,
    partial_trace,
    propagate,
    recurrence_analytic,
    trajectory_from_states,
)
from conftest import qubit_spec


def test_localized_trace_is_pure_projector():
    basis = LatticeBasis(2, (6,))
    c = np.array([0.6, 0.8j])
    psi = localized_initial(c, basis)
    rho = partial_trace(psi)
    assert np.abs(rho - np.outer(c, c.conj())).max() < 1e-15
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-14


def test_internode_coherence_is_invisible():
    # equal amplitude on (0, k=0) and (0, k=1): the trace sees |0><0| only --
    # the dephasing mechanism is geometric, not dissipative
    basis = LatticeBasis(2, (3,))
    amps = np.zeros(basis.size, complex)
    amps[basis.flat_index(0, (0,))] = 1 / np.sqrt(2)
    amps[basis.flat_index(0, (1,))] = 1 / np.sqrt(2)
    rho = partial_trace(LatticeState(basis, amps))
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-15


def test_observable_average_identity_and_population():
    dist = DisorderDistribution.gaussian(1.0)
    spec = qubit_spec(dist)
    d = 80
    table = recurrence_analytic(dist, d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    b_amp = 0.8
    psi0 = localized_initial(np.array([0.6, b_amp]), basis)
    plan = PropagationPlan.linspace(4.0, 9)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    for s in states:
        rho = partial_trace(s)          # <O> = tr(O rho), the disorder average of O
        assert abs(np.trace(np.eye(2) @ rho).real - 1.0) < 1e-11
        # population of |1> is conserved under diagonal disorder
        assert abs(np.trace(np.diag([0.0, 1.0]) @ rho).real - b_amp ** 2) < 1e-11


def test_coherence_trace_initial_value():
    dist = DisorderDistribution.uniform(1.0)
    spec = qubit_spec(dist)
    d = 60
    table = recurrence_analytic(dist, d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), basis)
    plan = PropagationPlan.linspace(6.0, 25)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    coh = trajectory_from_states(plan.times, states).rho[:, 0, 1]
    assert abs(coh[0] - 0.5) < 1e-12
    # uniform disorder: |rho01| = |sin(t)/t| / 2, revives after the first zero
    assert np.abs(np.abs(coh) - 0.5 * np.abs(np.sinc(plan.times / np.pi))).max() < 1e-11


def test_purity_bounds_and_gaussian_decay():
    dist = DisorderDistribution.gaussian(1.0)
    spec = qubit_spec(dist)
    d = 120
    table = recurrence_analytic(dist, d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), basis)
    plan = PropagationPlan.linspace(5.0, 26)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    purity = np.array([np.trace(partial_trace(s) @ partial_trace(s)).real
                       for s in states])
    assert abs(purity[0] - 1.0) < 1e-12
    assert purity.max() <= 1.0 + 1e-10
    assert np.all(np.diff(purity) <= 1e-10)       # non-increasing for gaussian


def test_purity_revives_for_bounded_support():
    # bounded-support disorder lets purity revive; only the unit ceiling holds
    dist = DisorderDistribution.uniform(1.0)
    spec = qubit_spec(dist)
    d = 70
    table = recurrence_analytic(dist, d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), basis)
    plan = PropagationPlan.linspace(10.0, 51)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    purity = np.array([np.trace(partial_trace(s) @ partial_trace(s)).real
                       for s in states])
    assert abs(purity[0] - 1.0) < 1e-12
    assert purity.max() <= 1.0 + 1e-10
    assert np.any(np.diff(purity) > 1e-4)      # revival after the sinc zero


def test_trajectory_validation():
    dist = DisorderDistribution.semicircle(1.0)
    spec = qubit_spec(dist)
    d = 50
    table = recurrence_analytic(dist, d + 1)
    op = build_linear(spec, [table], [d])
    basis = LatticeBasis(2, (d,))
    psi0 = localized_initial(np.array([1.0, 1.0]) / np.sqrt(2), basis)
    plan = PropagationPlan.linspace(6.0, 13)
    states, _ = propagate(op, psi0, plan, keep_states=True)
    traj = trajectory_from_states(plan.times, states, method="chain")
    rho = traj.rho
    assert np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))) <= 1e-12     # hermitian
    assert np.max(np.abs(np.einsum("tnn->t", rho) - 1.0)) <= 1e-10          # unit trace
    assert np.linalg.eigvalsh(rho).min() >= -1e-10                          # psd
    assert traj.n == 2
    assert np.allclose(np.einsum("tnn->tn", rho).real, 0.5, atol=1e-11)


def test_trajectory_shape_checks():
    with pytest.raises(ValueError):
        DensityTrajectory(np.array([0.0, 1.0]), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        DensityTrajectory(np.array([0.0]), np.zeros((1, 2, 2)),
                          errors=np.zeros((1, 2)))
