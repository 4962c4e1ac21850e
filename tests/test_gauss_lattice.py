"""The Gauss-lattice identity: an exact check of the lattice against quadrature.

The eigenvalues of the Jacobi matrix J truncated to D + 1 rows are the
nodes of the Gauss rule of order D + 1, and the squared first components of
its eigenvectors are the weights (Golub & Welsch, Math. Comp. 23, 221,
1969).  On a lattice of a linear coupling truncated at depths D_i, a state
on the origin therefore evolves exactly as the ensemble average over the
tensor Gauss rule of orders D_i + 1, at every time, however much of it has
reached the boundary.  The lattice route and :func:`quad_average` share only
the recurrence tables, so this checks the assembly, the shell layout, the
box propagation and the streamed trace against an independent route with no
convergence tolerance.

A coupling of degree 2 or more breaks the identity, because f(J) truncated
is not f(J truncated); there the lattice is compared with high-order
quadrature inside a horizon the state never leaves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enslat import (
    DisorderDistribution,
    EnsembleSpec,
    OracleConfig,
    PolynomialCoupling,
    PropagationPlan,
    localized_initial,
    propagate,
    quad_average,
)
from conftest import lattice_at

IDENTITY_TOL = 1e-13


def _chain_and_gauss(spec, c, depths, times, **plan):
    op, psi0 = lattice_at(spec, lambda basis, _: localized_initial(c, basis), depths)
    _, report = propagate(op, psi0, PropagationPlan(times, **plan))
    quad = quad_average(spec, c, times, OracleConfig(quad_order=[d + 1 for d in depths]))
    return report, float(np.max(np.abs(report.rho - quad.rho)))


def _tabulated(skew):
    lam = np.linspace(-1.0, 1.5, 41)
    return DisorderDistribution.tabulated(lam, (1.0 + lam) * (1.5 - lam) * np.exp(skew * lam))


_FAMILIES = {
    "gaussian": lambda w: DisorderDistribution.gaussian(w),
    "cut-gaussian": lambda w: DisorderDistribution.gaussian(w, cutoff=(-2.5 * w, 2.0 * w)),
    "semicircle": lambda w: DisorderDistribution.semicircle(w),
    "cut-semicircle": lambda w: DisorderDistribution.semicircle(w, cutoff=(-0.3 * w, 0.5 * w)),
    "uniform": lambda w: DisorderDistribution.uniform(w),
    "cut-uniform": lambda w: DisorderDistribution.uniform(w, cutoff=(-0.5 * w, 0.8 * w)),
    "cut-cauchy": lambda w: DisorderDistribution.cauchy(w, cutoff=(-3.0 * w, 2.0 * w)),
    "tabulated": lambda w: _tabulated(w - 1.0),
}


@st.composite
def _linear_lattices(draw):
    n = draw(st.integers(2, 3))
    l = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return 0.5 * (a + a.conj().T)

    dists = tuple(_FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))](
        draw(st.floats(0.3, 2.0))) for _ in range(l))
    depths = tuple(draw(st.integers(1, 12 if l == 1 else 8)) for _ in range(l))
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    spec = EnsembleSpec(hermitian(),
                        tuple(PolynomialCoupling.linear(hermitian()) for _ in range(l)), dists)
    return spec, depths, c / np.linalg.norm(c)


@settings(max_examples=60, deadline=None)
@given(_linear_lattices())
def test_lattice_equals_gauss_quadrature_of_its_depth(case):
    spec, depths, c = case
    times = np.linspace(0.0, 25.0, 26)      # long past the time the front reaches the edge
    _, err = _chain_and_gauss(spec, c, depths, times, leakage_threshold=np.inf)
    assert err <= IDENTITY_TOL


@pytest.mark.parametrize("seed", [1, 108])
def test_lattice_equals_gauss_quadrature_over_many_windows(seed):
    # 67 and 200 windows of equal steps: an error in the Bessel coefficients
    # repeats in every window and adds up (with scipy's jv these two read
    # 2.6e-13 and 6.7e-13)
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return 0.5 * (a + a.conj().T)

    dists = (_FAMILIES["cut-cauchy"](1.0), _FAMILIES["gaussian"](1.0))
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    h0, v1, v2 = hermitian(), hermitian(), hermitian()
    spec = EnsembleSpec(h0, (PolynomialCoupling.linear(v1), PolynomialCoupling.linear(v2)), dists)
    times = np.linspace(0.0, 200.0, 201)
    report, err = _chain_and_gauss(spec, c / np.linalg.norm(c), (2, 4), times,
                                   leakage_threshold=np.inf)
    assert report.windows >= 67
    assert err <= IDENTITY_TOL


def test_square_lattice_equals_gauss_quadrature():
    # a lattice large enough that the boxes stay well inside it for most of
    # the run: a node layout whose leading block is not a box breaks this
    spec = EnsembleSpec(np.array([[0.2, 0.3], [0.3, -0.1]]),
                        (PolynomialCoupling.linear(np.diag([1.0, 0.0])),
                         PolynomialCoupling.linear(np.diag([0.0, 1.0]))),
                        (DisorderDistribution.semicircle(1.0), DisorderDistribution.uniform(0.8)))
    times = np.linspace(0.0, 150.0, 151)
    report, err = _chain_and_gauss(spec, np.array([1.0, 0.0]), (160, 160), times,
                                   leakage_threshold=np.inf)
    assert report.box_growths > 1 and report.active_fraction < 0.8
    assert err <= IDENTITY_TOL


@pytest.mark.parametrize("dist", [
    DisorderDistribution.gaussian(1.0, cutoff=(-4.0, 3.0)),
    DisorderDistribution.semicircle(1.5),
    DisorderDistribution.uniform(1.0, cutoff=(-0.6, 1.0)),
    _tabulated(0.5),
], ids=["cut-gaussian", "semicircle", "cut-uniform", "tabulated"])
def test_degree_two_lattice_equals_quadrature_inside_its_horizon(dist):
    # f(J) truncated is not f(J truncated): no identity at the lattice's own
    # order, but while nothing reaches the boundary the lattice is the
    # ensemble, which high-order quadrature resolves
    h0 = np.array([[0.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 2.0]])
    coupling = PolynomialCoupling((np.zeros((3, 3)), np.diag([0.0, 1.2, -1.2]),
                                   np.diag([0.3, 0.0, 0.3]) + 0.1 * np.eye(3, k=1)
                                   + 0.1 * np.eye(3, k=-1)))
    spec = EnsembleSpec(h0, (coupling,), (dist,))
    c = np.array([1.0, 0.5j, 0.2]) / np.linalg.norm([1.0, 0.5, 0.2])
    times = np.linspace(0.0, 3.0, 31)
    op, psi0 = lattice_at(spec, lambda basis, _: localized_initial(c, basis), (60,))
    _, report = propagate(op, psi0, PropagationPlan(times, leakage_threshold=1e-20))
    quad = quad_average(spec, c, times, OracleConfig(quad_order=120))
    assert np.max(np.abs(report.rho - quad.rho)) <= 1e-12
