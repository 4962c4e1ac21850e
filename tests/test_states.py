"""Initial lattice states: localized, expanded, spectral."""

import tracemalloc

import numpy as np
import pytest

from enslat import (
    DimensionMismatch,
    DisorderDistribution,
    EnsembleSpec,
    LatticeBasis,
    NormDefectExceeded,
    NotNormalized,
    PolynomialCoupling,
    PropagationPlan,
    expanded_initial,
    localized_initial,
    propagate,
    recurrence_analytic,
    recurrence_table,
    trajectory_from_states,
)
from enslat.measures import discretize, grid_size, orthonormal_values
from conftest import lattice_at


def semicircle_d1k(kmax: int) -> np.ndarray:
    """Closed-form d_{1,k} for c_1 = sqrt(1 - lambda^2) under the unit
    semicircle: -(8/pi) / ((2j+3)(4j^2-1)) at k = 2j, zero at odd k."""
    d = np.zeros(kmax + 1)
    j = np.arange(0, kmax // 2 + 1)
    d[2 * j] = -(8.0 / np.pi) / ((2 * j + 3) * (4 * j ** 2 - 1.0))
    return d


def test_localized_qubit_superposition():
    basis = LatticeBasis(2, (5,))
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    psi = localized_initial(c, basis)
    assert abs(psi.norm - 1.0) < 1e-12
    amps = psi.node_amplitudes()
    assert np.allclose(amps[0], c)
    assert np.abs(amps[1:]).max() == 0.0


def test_localized_basis_state():
    basis = LatticeBasis(2, (3,))
    psi = localized_initial(np.array([1.0, 0.0]), basis)
    nz = np.nonzero(psi.amplitudes)[0]
    assert list(nz) == [basis.flat_index(0, (0,))]


def test_localized_dimer_site1():
    basis = LatticeBasis(2, (4, 4))
    psi = localized_initial(np.array([1.0, 0.0]), basis)
    assert psi.amplitudes[basis.flat_index(0, (0, 0))] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_localized_rejects_unnormalized():
    basis = LatticeBasis(2, (2,))
    with pytest.raises(NotNormalized, match=r"^\|\|c\|\| = 1.4142135623730951, expected 1"):
        localized_initial(np.array([1.0, 1.0]), basis)
    with pytest.raises(NotNormalized, match=r"^\|\|c\|\| = nan"):    # NaN fails every comparison
        localized_initial(np.array([np.nan, 0.0]), basis)
    # off by 5e-9: refused here and by every oracle (tests/test_oracle.py), one tolerance
    with pytest.raises(NotNormalized, match=r"expected 1 within 1e-10$"):
        localized_initial(np.array([1.0 + 5e-9, 0.0]), basis)
    with pytest.raises(DimensionMismatch):
        localized_initial(np.array([1.0, 0.0, 0.0]), basis)


def test_expanded_constant_equals_localized():
    dist = DisorderDistribution.uniform(1.0)
    basis = LatticeBasis(2, (12,))
    table = recurrence_analytic(dist, 13)
    c = np.array([0.6, 0.8], dtype=complex)
    psi = expanded_initial(lambda lam: np.broadcast_to(c, (lam.shape[0], 2)),
                           [dist], [table], basis)
    ref = localized_initial(c, basis)
    assert np.abs(psi.amplitudes - ref.amplitudes).max() < 1e-12
    assert psi.info["norm_defect"] < 1e-12


def test_expanded_semicircle_example():
    """c(lambda) = (lambda, sqrt(1 - lambda^2)) under the unit semicircle.

    The |0> amplitudes collapse to d_{0,k} = delta_{1,k}/2; the |1> series is
    the even-k closed form (zero at odd k by parity, including the k = 1 term
    whose generic formula is an indeterminate 0/0).
    """
    dist = DisorderDistribution.semicircle(1.0)
    d = 40
    basis = LatticeBasis(2, (d,))
    table = recurrence_analytic(dist, d + 1)

    def c_fn(pts):
        lam = pts[:, 0]
        return np.stack([lam, np.sqrt(1.0 - lam ** 2)], axis=1).astype(complex)

    psi = expanded_initial(c_fn, [dist], [table], basis)
    amps = psi.node_amplitudes()
    d0, d1 = amps[:, 0].real, amps[:, 1].real

    want0 = np.zeros(d + 1)
    want0[1] = 0.5
    assert np.abs(d0 - want0).max() < 1e-10
    assert np.abs(d1 - semicircle_d1k(d)).max() < 1e-10
    assert abs(d1[0] - 8.0 / (3.0 * np.pi)) < 1e-12
    assert np.abs(d1[1::2]).max() < 1e-12          # odd-k parity zeros
    assert psi.info["norm_defect"] < 1e-7


def test_expanded_parseval():
    # sum |d|^2 = int p ||c||^2 = 1 for normalized per-realization states
    dist = DisorderDistribution.uniform(1.0)
    basis = LatticeBasis(2, (30,))
    table = recurrence_analytic(dist, 31)

    def c_fn(pts):
        th = 0.4 * np.sin(2.0 * pts[:, 0])
        return np.stack([np.cos(th), np.sin(th)], axis=1).astype(complex)

    psi = expanded_initial(c_fn, [dist], [table], basis)
    assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-10


def test_expanded_parity_zeros_even_c():
    # even c under a symmetric measure occupies even k only
    dist = DisorderDistribution.uniform(1.0)
    basis = LatticeBasis(1, (20,))
    table = recurrence_analytic(dist, 21)

    def c_fn(pts):
        out = np.cos(pts[:, 0] ** 2)
        return (out / np.abs(out))[:, None].astype(complex)   # unit modulus, even

    psi = expanded_initial(c_fn, [dist], [table], basis)
    amps = psi.node_amplitudes()[:, 0]
    assert np.abs(amps[1::2]).max() < 1e-13


def test_expanded_two_axes_separable():
    # separable c factorizes into per-axis expansions
    dist = DisorderDistribution.uniform(1.0)
    basis = LatticeBasis(1, (6, 6))
    table = recurrence_analytic(dist, 12)

    def c_fn(pts):
        return np.ones((pts.shape[0], 1), dtype=complex)

    psi = expanded_initial(c_fn, [dist, dist], [table, table], basis)
    amps = psi.node_amplitudes().reshape(7, 7)
    want = np.zeros((7, 7))
    want[0, 0] = 1.0
    assert np.abs(amps - want).max() < 1e-12


def test_expanded_two_axes_linear_c():
    # c_0 = lambda_1 lives on (k1, k2) = (1, 0) only: lambda = sqrt(beta_1) phi_1
    # for a symmetric measure, with beta_1 = 1/3 for uniform(1).  c_1 =
    # sqrt(1 - lambda_1^2) keeps every realization normalized, and it too is
    # constant in lambda_2, so it stays on k2 = 0
    dist = DisorderDistribution.uniform(1.0)
    table = recurrence_analytic(dist, 40)

    def c_fn(pts):
        lam = pts[:, 0]
        return np.stack([lam, np.sqrt(1 - lam ** 2)], axis=1).astype(complex)

    # the kink of c_1 at the support's edges converges slowly in k1
    for d in (4, 16):
        with pytest.raises(NormDefectExceeded):
            expanded_initial(c_fn, [dist, dist], [table, table], LatticeBasis(2, (d, 4)))
    basis = LatticeBasis(2, (32, 4))
    with pytest.warns(UserWarning, match="initial-state norm defect"):
        psi = expanded_initial(c_fn, [dist, dist], [table, table], basis)
    nodes = basis.node_multi_indices()
    amps = psi.node_amplitudes()
    on = (nodes[:, 0] == 1) & (nodes[:, 1] == 0)
    assert abs(amps[on, 0][0] - np.sqrt(1.0 / 3.0)) < 1e-12
    assert np.abs(amps[~on, 0]).max() < 1e-12
    assert np.abs(amps[nodes[:, 1] != 0, 1]).max() < 1e-12


def test_expanded_norm_defect_raises():
    # a needle-like c has a slowly converging expansion: tiny depth must fail
    dist = DisorderDistribution.uniform(1.0)
    basis = LatticeBasis(1, (1,))
    table = recurrence_analytic(dist, 4)

    def c_fn(pts):
        return np.exp(4j * np.sin(6.0 * pts[:, 0]))[:, None]

    with pytest.raises(NormDefectExceeded):
        expanded_initial(c_fn, [dist], [table], basis)


def test_expanded_norm_defect_warns():
    dist = DisorderDistribution.semicircle(1.0)
    basis = LatticeBasis(2, (14,))
    table = recurrence_analytic(dist, 15)

    def c_fn(pts):
        lam = pts[:, 0]
        return np.stack([lam, np.sqrt(1.0 - lam ** 2)], axis=1).astype(complex)

    with pytest.warns(UserWarning, match="norm defect"):
        psi = expanded_initial(c_fn, [dist], [table], basis)
    assert psi.info["norm_defect"] > 1e-12


def test_expanded_callable_errors_propagate():
    dist = DisorderDistribution.uniform(1.0)
    basis = LatticeBasis(2, (4,))
    table = recurrence_analytic(dist, 5)

    class Boom(Exception):
        pass

    def c_fn(pts):
        raise Boom("raised inside c_fn")

    with pytest.raises(Boom, match="raised inside c_fn"):
        expanded_initial(c_fn, [dist], [table], basis)
    # a scalar-only callable, or any other wrong shape, names both shapes
    with pytest.raises(ValueError, match=r"shape \(2,\), expected \(\d+, 2\)"):
        expanded_initial(lambda lam: np.array([1.0, 0.0]), [dist], [table], basis)


@pytest.mark.parametrize("dist", [
    DisorderDistribution.uniform(1.0),
    DisorderDistribution.semicircle(1.0),
    DisorderDistribution.gaussian(1.0, cutoff=(-5.0, 5.0)),
], ids=["uniform", "semicircle", "cut-gaussian"])
def test_deep_expansion_matches_a_finer_grid(dist):
    # at depth 512 the grid rule of the tables resolves every coefficient, two
    # slices of points apart: a grid four times finer moves none by more than 1e-13
    depth = 512

    def c_fn(pts):
        lam = pts[:, 0]
        return np.stack([np.cos(3 * lam), np.sin(3 * lam)], axis=1).astype(complex)

    table = recurrence_table(dist, depth + 1)
    psi = expanded_initial(c_fn, [dist], [table], LatticeBasis(2, (depth,)))
    x, w = discretize(dist, 4 * grid_size(depth))
    ref = (orthonormal_values(table, x, depth) * w) @ c_fn(x[:, None])
    assert np.abs(psi.node_amplitudes() - ref).max() <= 1e-13


def test_two_axis_expansion_never_holds_the_tensor_grid():
    # c is evaluated one slice of the first axis at a time: the peak stays
    # below half the array of c on the whole tensor grid
    dists = (DisorderDistribution.semicircle(1.0), DisorderDistribution.uniform(1.0))
    depths = (128, 128)
    tables = [recurrence_analytic(d, depth + 1) for d, depth in zip(dists, depths)]

    def c_fn(pts):
        a = pts[:, 0] + 0.5 * pts[:, 1]
        return np.stack([np.cos(a), np.sin(a)], axis=1).astype(complex)

    points = np.prod([discretize(d, grid_size(depth))[0].size for d, depth in zip(dists, depths)])
    tracemalloc.start()
    try:
        psi = expanded_initial(c_fn, dists, tables, LatticeBasis(2, depths))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < points * 16
    assert psi.info["norm_defect"] < 1e-13


def eigenstate_lattice(energy, c, depth):
    """An ensemble of eigenstates, set up by hand: the dephasing qubit whose
    disorder measure is the energy measure, with c on its lattice's origin.
    Returns the operator, the state and the energy measure's table."""
    spec = EnsembleSpec(np.diag([0.0, 1.0]), (PolynomialCoupling.linear(np.diag([0.0, 1.0])),),
                        (energy,))
    tables = []
    op, psi = lattice_at(spec, lambda basis, t: tables.extend(t) or localized_initial(c, basis),
                         (depth,))
    return op, psi, tables[0]


def test_spectral_disorder_gaussian_reduces_to_qubit_machinery():
    energy = DisorderDistribution.gaussian(0.5)
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    _, psi, table = eigenstate_lattice(energy, c, 8)
    ref = recurrence_analytic(energy, 9)
    assert np.allclose(table.beta, ref.beta)
    basis = LatticeBasis(2, (8,))
    assert np.abs(psi.amplitudes - localized_initial(c, basis).amplitudes).max() == 0.0


def test_spectral_disorder_narrow_energy_distribution_slows_dephasing():
    # coherence decay timescale scales like 1/sigma of the energy measure
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    cohs = {}
    for sigma in (0.5, 0.05):
        op, psi, _ = eigenstate_lattice(DisorderDistribution.gaussian(sigma), c, 48)
        times = np.array([0.0, 2.0])
        states, _ = propagate(op, psi, PropagationPlan(times), keep_states=True)
        cohs[sigma] = abs(trajectory_from_states(times, states).rho[-1, 0, 1])
    assert abs(cohs[0.5] - 0.5 * np.exp(-0.25 * 4 / 2)) < 1e-10
    assert abs(cohs[0.05] - 0.5 * np.exp(-0.0025 * 4 / 2)) < 1e-10
    assert cohs[0.05] > cohs[0.5]


def test_spectral_disorder_tabulated_scan():
    # a tabulated energy distribution from a precomputed scan yields a valid table
    e = np.linspace(-1.0, 1.0, 401)
    energy = DisorderDistribution.tabulated(e, np.exp(-4 * e ** 2) * (1.1 + e))
    _, _, table = eigenstate_lattice(energy, np.array([1.0, 0.0]), 10)
    assert np.all(table.beta > 0)
    assert table.order == 11
