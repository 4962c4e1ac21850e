"""Distributions, recurrence coefficients, cutoffs, sampling."""

import time

import mpmath
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enslat.measures import _trapz, grid_size
import pytest

from enslat import (
    DisorderDistribution,
    EmptySupport,
    InvalidOrder,
    NumericalBreakdown,
    RecurrenceTable,
    UnboundedSupport,
    UnsupportedFamily,
    characteristic_function,
    gauss_rule,
    orthonormal_values,
    quantile,
    recurrence_analytic,
    recurrence_stieltjes,
    recurrence_table,
)


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_families_validate_width():
    with pytest.raises(ValueError):
        DisorderDistribution.gaussian(0.0)
    with pytest.raises(ValueError):
        DisorderDistribution.uniform(-1.0)


def test_tabulated_grid_must_increase():
    with pytest.raises(ValueError):
        DisorderDistribution.tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        DisorderDistribution.tabulated([0.0], [1.0])
    with pytest.raises(ValueError):
        DisorderDistribution.tabulated([0.0, 1.0], [1.0, -0.5])


def test_tabulated_normalizes_to_unit_mass():
    d = DisorderDistribution.tabulated([-1.0, 0.0, 1.0], [3.0, 9.0, 3.0])
    lam, dens = d.grid
    assert abs(_trapz(dens, lam) - 1.0) < 1e-12


@pytest.mark.parametrize("dist", [
    DisorderDistribution.gaussian(1.3, cutoff=(-4.0, 4.0)),
    DisorderDistribution.cauchy(0.7, cutoff=(-21.0, 21.0)),
    DisorderDistribution.semicircle(2.0, cutoff=(-1.5, 1.5)),
    DisorderDistribution.uniform(1.0, cutoff=(-0.25, 0.75)),
    DisorderDistribution.tabulated(np.linspace(-2, 2, 41),
                                   np.exp(-np.linspace(-2, 2, 41) ** 2)),
])
def test_cut_density_integrates_to_one(dist):
    from enslat.measures import discretize
    nodes, w = discretize(dist, 3000)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(dist.pdf(nodes) >= 0.0)


def test_uncut_cauchy_flagged():
    d = DisorderDistribution.cauchy(1.0)
    assert not d.moments_defined
    with pytest.raises(UnboundedSupport):
        recurrence_stieltjes(d, 5)


def test_recurrence_table_invariants():
    with pytest.raises(InvalidOrder):
        RecurrenceTable(0, np.zeros(0), np.zeros(0))
    with pytest.raises(NumericalBreakdown):
        RecurrenceTable(2, np.zeros(2), np.array([1.0, -0.3]))
    t = RecurrenceTable(3, np.zeros(3), np.array([1.0, 2.0, 3.0]))
    zeta = np.concatenate(([1.0], np.cumprod(t.beta)))    # monic norms zeta_k = prod beta_j
    assert zeta[0] == 1.0
    assert np.allclose(zeta, [1.0, 1.0, 2.0, 6.0])


# ---------------------------------------------------------------------------
# analytic recurrence coefficients
# ---------------------------------------------------------------------------

def test_analytic_gaussian():
    t = recurrence_analytic(DisorderDistribution.gaussian(0.5), 3)
    assert np.allclose(t.alpha, 0.0)
    assert np.allclose(t.beta, [0.25, 0.5, 0.75])     # sigma^2 * k


def test_analytic_semicircle():
    # true monic beta is w^2/4 for every k (the coupling sqrt(beta) is w/2)
    t = recurrence_analytic(DisorderDistribution.semicircle(1.0), 3)
    assert np.allclose(t.alpha, 0.0)
    assert np.allclose(t.beta, 0.25)
    assert np.allclose(np.sqrt(t.beta), 0.5)


def test_analytic_uniform():
    t = recurrence_analytic(DisorderDistribution.uniform(1.0), 2)
    assert np.allclose(t.alpha, 0.0)
    assert np.allclose(t.beta, [1.0 / 3.0, 4.0 / 15.0])


def test_analytic_rejects():
    with pytest.raises(UnsupportedFamily):
        recurrence_analytic(DisorderDistribution.cauchy(1.0), 3)
    with pytest.raises(UnsupportedFamily):
        recurrence_analytic(DisorderDistribution.tabulated([0, 1], [1, 1]), 3)
    with pytest.raises(UnsupportedFamily):
        recurrence_analytic(DisorderDistribution.gaussian(1.0, cutoff=(-5, 5)), 3)
    with pytest.raises(InvalidOrder):
        recurrence_analytic(DisorderDistribution.gaussian(1.0), 0)


# ---------------------------------------------------------------------------
# Stieltjes procedure
# ---------------------------------------------------------------------------

def test_stieltjes_semicircle_matches_analytic():
    d = DisorderDistribution.semicircle(1.0)
    t = recurrence_stieltjes(d, 10)
    assert np.abs(t.alpha).max() < 1e-13
    assert np.abs(t.beta - 0.25).max() < 1e-10


def test_stieltjes_uniform_first_beta():
    # second moment of uniform on [-1, 1] is 1/3
    t = recurrence_stieltjes(DisorderDistribution.uniform(1.0), 1)
    assert abs(t.alpha[0]) < 1e-14
    assert abs(t.beta[0] - 1.0 / 3.0) < 1e-13


def test_stieltjes_cut_gaussian_tracks_true_cut_coefficients():
    """A +-8 sigma cutoff genuinely perturbs the higher coefficients.

    Reference values frozen from an independent 40-digit variable-precision
    integration of the truncated measure: the deviation from the uncut
    beta_k = k grows from ~1e-13 at k = 1 to ~1e-3 at k = 10 (tail integrands
    grow polynomially, so the perturbation is far larger than the cut tail
    mass of ~1e-15).  Agreement with the uncut closed form at 1e-10 holds
    only for k <= 2.
    """
    d = DisorderDistribution.gaussian(1.0, cutoff=(-8.0, 8.0))
    t = recurrence_stieltjes(d, 20, grid_points=4000)
    k = np.arange(1, 21)
    assert np.abs(t.beta[:2] - k[:2]).max() < 1e-10
    # frozen from the variable-precision oracle
    assert abs((t.beta[2] - 3.0) - (-1.55327e-10)) < 1e-14
    assert abs((t.beta[7] - 8.0) - (-3.01031e-5)) < 1e-10
    assert abs((t.beta[9] - 10.0) - (-9.24864e-4)) < 1e-9


def test_stieltjes_matches_analytic_wide_cutoff():
    # +-16 sigma leaves k <= 25 untouched at the 1e-10 level
    d = DisorderDistribution.gaussian(1.0, cutoff=(-16.0, 16.0))
    t = recurrence_stieltjes(d, 26, grid_points=6000)
    assert np.abs(t.beta[:25] - np.arange(1, 26)).max() < 1e-10
    assert np.abs(t.alpha).max() < 1e-12


def test_stieltjes_tabulated_gaussian():
    # a finely tabulated gaussian reproduces the hermite coefficients up to
    # the piecewise-linear tabulation error (~3e-6 relative at this spacing)
    x = np.linspace(-10, 10, 4001)
    d = DisorderDistribution.tabulated(x, np.exp(-x * x / 2))
    t = recurrence_stieltjes(d, 6, grid_points=8000)
    assert np.abs(t.beta / np.arange(1, 7) - 1.0).max() < 1e-5
    assert np.abs(t.alpha).max() < 1e-12


@pytest.mark.parametrize("dist, reference", [
    (DisorderDistribution.uniform(1.0, cutoff=(-1.0, 1.0)), DisorderDistribution.uniform(1.0)),
    (DisorderDistribution.semicircle(1.0, cutoff=(-1.0, 1.0)),
     DisorderDistribution.semicircle(1.0)),
    (DisorderDistribution.gaussian(1.0, cutoff=(-5.0, 5.0)), None),
    (DisorderDistribution.cauchy(1.0, cutoff=(-30.0, 30.0)), None),
])
def test_stieltjes_default_grid_is_exact_to_the_full_order(dist, reference):
    # every row of an order-385 table (the pinned 384x384 dimer's) is right,
    # not only the lower part: against the closed form of the same measure,
    # or else against the same table on a grid four times finer than the default
    order = 385
    t = recurrence_stieltjes(dist, order)
    if reference is not None:
        assert np.abs(t.beta / recurrence_analytic(reference, order).beta - 1).max() <= 1e-13
        assert np.abs(t.alpha).max() <= 1e-13
    else:
        fine = recurrence_stieltjes(dist, order, grid_points=40_000)
        assert np.abs(np.sqrt(t.beta) / np.sqrt(fine.beta) - 1).max() <= 1e-13


_LAM = np.linspace(-4.0, 4.0, 161)


@pytest.mark.parametrize("dist, closed_form, tol", [
    (DisorderDistribution.semicircle(1.0, cutoff=(-1.0, 1.0)), (0.0, lambda k: 0.25 + 0 * k),
     1e-14),
    (DisorderDistribution.uniform(1.0, cutoff=(-1.0, 1.0)),
     (0.0, lambda k: k * k / (4 * k * k - 1)), 1e-14),
    # a shifted window: the uniform measure on [-0.6, 1], Legendre on that interval
    (DisorderDistribution.uniform(1.0, cutoff=(-0.6, 1.0)),
     (0.2, lambda k: 0.64 * k * k / (4 * k * k - 1)), 1e-14),
    (DisorderDistribution.gaussian(1.0, cutoff=(-5.0, 5.0)), None, 1e-14),
    (DisorderDistribution.cauchy(1.0, cutoff=(-30.0, 30.0)), None, 1e-14),
    (DisorderDistribution.cauchy(1.0, cutoff=(-100.0, 100.0)), None, 1e-14),
    (DisorderDistribution.tabulated(_LAM, (1 + _LAM ** 2) * np.exp(-_LAM ** 2 / 2)), None, 1e-14),
    # two pieces of support, each with ends of its own; at order 2049 grids
    # 2, 4 and 8 times finer than the default differ among themselves by 1e-14
    (DisorderDistribution.tabulated([-1.0, -0.5, 0.5, 1.0], [1.0, 0.0, 0.0, 1.0]), None, 3e-14),
], ids=["semicircle", "uniform", "shifted-uniform", "gaussian-5", "cauchy-30", "cauchy-100",
        "tabulated", "tabulated-gap"])
def test_default_grid_is_exact_to_order_2049(dist, closed_form, tol):
    # the grid grows linearly in the order and resolves every row of the table:
    # against the closed form, or else the same table on a grid four times finer
    for order in (5, 41, 2049):
        start = time.perf_counter()
        t = recurrence_stieltjes(dist, order)
        elapsed = time.perf_counter() - start
        if closed_form is not None:
            alpha, beta = closed_form
            exact = np.sqrt(beta(np.arange(1.0, order + 1)))
            assert np.abs(np.sqrt(t.beta) / exact - 1).max() <= tol
            assert np.abs(t.alpha - alpha).max() <= tol
        else:
            fine = recurrence_stieltjes(dist, order, grid_points=4 * grid_size(order))
            assert np.abs(np.sqrt(t.beta) / np.sqrt(fine.beta) - 1).max() <= tol
    assert elapsed < 1.0


@st.composite
def _cut_measures(draw):
    family = draw(st.sampled_from(["gaussian", "cauchy", "semicircle", "uniform", "tabulated"]))
    width = draw(st.floats(0.01, 100.0))
    # a window from a tenth of the width to a hundred widths on either side of
    # the peak, or in one tail; a tail window much narrower than its distance
    # from the peak holds its nodes to fewer digits than its width needs
    lo, hi = sorted(width * 10.0 ** np.array(draw(st.tuples(st.floats(-1, 2), st.floats(-1, 2)))))
    lo, hi = (-lo, hi) if draw(st.booleans()) else (lo, hi)
    if family == "tabulated":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
        lam = np.concatenate(([lo], np.sort(rng.uniform(lo, hi, draw(st.integers(0, 200)))), [hi]))
        dens = rng.random(lam.size) * (rng.random(lam.size) > 0.2)     # with gaps of zero density
        assume(np.all(np.diff(lam) > 0) and np.any(dens[:-1] + dens[1:] > 0))
        dist = DisorderDistribution.tabulated(lam, dens)
    else:
        try:
            dist = DisorderDistribution(family, width=width, cutoff=(lo, hi))
            recurrence_stieltjes(dist, 1)   # the grid refuses a gaussian's mass past 37.5 sigma
        except EmptySupport:
            assume(False)
    lo, hi = dist.support()
    assume(lo < 0 or hi >= 2 * lo)
    return dist


@settings(max_examples=60, deadline=None)
@given(dist=_cut_measures(), order=st.integers(1, 600))
def test_default_grid_matches_a_finer_grid(dist, order):
    t = recurrence_stieltjes(dist, order)
    fine = recurrence_stieltjes(dist, order, grid_points=4 * grid_size(order))
    assert np.abs(np.sqrt(t.beta) / np.sqrt(fine.beta) - 1).max() <= 1e-13


def test_stieltjes_grid_validation():
    d = DisorderDistribution.uniform(1.0)
    with pytest.raises(InvalidOrder):
        recurrence_stieltjes(d, 10, grid_points=20)


@pytest.mark.parametrize("dist", [
    DisorderDistribution.gaussian(0.37, cutoff=(-4.0, 4.0)),
    DisorderDistribution.cauchy(1.0, cutoff=(-30.0, 30.0)),
    DisorderDistribution.semicircle(2.5),
    DisorderDistribution.uniform(0.8),
    DisorderDistribution.tabulated(np.linspace(-1, 1, 201),
                                   1.0 + np.cos(np.pi * np.linspace(-1, 1, 201)) ** 2),
])
def test_symmetric_measures_have_zero_alpha(dist):
    t = recurrence_stieltjes(dist, 24)
    scale = dist.support()[1]
    assert np.abs(t.alpha).max() < 1e-12 * max(1.0, scale)


def test_asymmetric_tabulated_has_nonzero_alpha():
    # density 1 + x on [0, 2]: exact mean is (2 + 8/3) / 4 = 7/6 and the
    # breakpoint-aligned quadrature integrates the linear density exactly
    x = np.linspace(0.0, 2.0, 301)
    t = recurrence_stieltjes(DisorderDistribution.tabulated(x, 1.0 + x), 4)
    assert abs(t.alpha[0] - 7.0 / 6.0) < 1e-13


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_cauchy_enables_recurrence():
    d = DisorderDistribution.cauchy(1.0, cutoff=(-30.0, 30.0))
    t = recurrence_stieltjes(d, 40)
    assert np.all(t.beta > 0)
    # couplings saturate near a quarter of the window width (= 15 theta)
    assert abs(np.sqrt(t.beta[-1]) - 15.0) < 0.1


def test_cutoff_gaussian_saturation():
    """sqrt(beta_k) rises, overshoots once, and saturates at c*sigma/2.

    For the +-5 sigma cut the true sequence peaks at k = 9 with a 1.11%
    overshoot above the 2.5 sigma asymptote (grid-independent; verified at
    4000 and 16000 quadrature points), then settles onto the asymptote.
    """
    d = DisorderDistribution.gaussian(1.0, cutoff=(-5.0, 5.0))
    t = recurrence_stieltjes(d, 200, grid_points=4000)
    hops = np.sqrt(t.beta)
    assert hops.max() <= 2.5 * (1 + 2e-2)
    assert abs(hops.max() - 2.527816) < 1e-4        # frozen overshoot value
    assert np.abs(hops[150:] - 2.5).max() < 1e-4    # asymptote reached
    assert hops[0] < 1.1      # early coefficients still follow sigma sqrt(k)


def test_cutoff_uniform_at_native_support_is_identity():
    d0 = DisorderDistribution.uniform(1.0)
    d1 = DisorderDistribution.uniform(1.0, cutoff=(-1.0, 1.0))
    x = np.linspace(-1.2, 1.2, 101)
    assert np.allclose(d0.pdf(x), d1.pdf(x), atol=1e-14)
    assert abs(d1.window_mass() - 1.0) < 1e-12


def test_cutoff_empty_window():
    with pytest.raises(EmptySupport):
        DisorderDistribution.uniform(1.0, cutoff=(2.0, 3.0))
    with pytest.raises(ValueError):
        DisorderDistribution.uniform(1.0, cutoff=(0.5, 0.5))
    with pytest.raises(EmptySupport):
        DisorderDistribution.tabulated([-1.0, 0.0, 2.0], [0.0, 1.0, 0.5], cutoff=(3.0, 4.0))
    with pytest.raises(EmptySupport, match="zero mass"):      # a window with no mass
        DisorderDistribution.gaussian(1.0, cutoff=(40.0, 50.0))
    # a window wider than the support is stored as the support
    assert DisorderDistribution.uniform(1.0, cutoff=(-3.0, 0.5)).support() == (-1.0, 0.5)


def test_gaussian_tail_window_mass_matches_mpmath():
    # a window on one side of 0 takes its mass from the gaussian tail, to
    # 1e-14 relative from 1 sigma out to the 37.5 sigma where it leaves the
    # normal floats, on either side; ndtr's difference was off by 7.1e-2 at
    # (8, 100) above 0, and by 5.7e-14 at (-100, -30) below it
    mpmath.mp.dps = 40
    for a in [*np.arange(1.0, 37.5, 0.75), 37.5]:
        for lo, hi in ((a, 100.0), (a, 2 * a), (a, a + 1)):
            want = mpmath.ncdf(-lo) - mpmath.ncdf(-hi)
            for cut in ((lo, hi), (-hi, -lo)):
                got = DisorderDistribution.gaussian(1.0, cutoff=cut).window_mass()
                assert abs(float((got - want) / want)) <= 1e-14, cut
    # (10, 100), of mass 7.6e-24, is a window; one whose mass is not a normal float is not
    assert DisorderDistribution.gaussian(1.0, cutoff=(10.0, 100.0)).window_mass() > 7e-24
    for cut in ((37.6, 100.0), (-100.0, -37.6)):
        with pytest.raises(EmptySupport):
            DisorderDistribution.gaussian(1.0, cutoff=cut)


def test_far_tail_gaussian_window_is_exact_or_refused():
    # the grid stops at 37.5 sigma, where the density leaves the normal floats,
    # so a window with more than 1e-16 of its mass past that is refused.  Its
    # table, against the mean lambda = phi(a)/Q(a) of the window (a, 100) and
    # its variance, read 1.1e-10 and 2.8e-6 off at a = 37 when clipped
    mpmath.mp.dps = 40
    for a in (30.0, 36.0, 36.6, 37.0, 37.3, 37.45):
        lam = mpmath.npdf(a) / mpmath.ncdf(-a)
        var = 1 + a * lam - lam ** 2
        for cut, mean in (((a, 100.0), lam), ((-100.0, -a), -lam)):
            try:
                table = recurrence_table(DisorderDistribution.gaussian(1.0, cutoff=cut), 4)
            except EmptySupport as err:
                assert a > 36.0 and "past 37.5 sigma" in str(err), cut
                continue
            assert a < 37.0, cut
            assert abs(float((table.alpha[0] - mean) / lam)) <= 1e-14, cut
            assert abs(float((table.beta[0] - var) / var)) <= 1e-12, cut


def test_cutoff_tabulated_clips_and_renormalizes():
    x = np.linspace(-2, 2, 81)
    d = DisorderDistribution.tabulated(x, np.ones_like(x), cutoff=(-1.0, 0.5))
    lam, dens = d.grid
    assert lam[0] == -1.0 and lam[-1] == 0.5
    assert abs(_trapz(dens, lam) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def test_characteristic_values():
    assert characteristic_function(DisorderDistribution.gaussian(2.0), 0.0) == 1.0
    assert abs(characteristic_function(DisorderDistribution.cauchy(1.0), 2.0)
               - np.exp(-2.0)) < 1e-15
    # small-argument limit of 2 J1(wt) / (wt)
    assert abs(characteristic_function(DisorderDistribution.semicircle(1.0), 1e-9) - 1.0) < 1e-12
    assert abs(characteristic_function(DisorderDistribution.uniform(1.0), np.pi)) < 1e-15


def test_characteristic_matches_quadrature():
    from enslat.measures import discretize
    for dist in (DisorderDistribution.semicircle(1.5), DisorderDistribution.uniform(0.8)):
        nodes, w = discretize(dist, 2000)
        ts = np.linspace(0.0, 5.0, 7)
        direct = np.array([np.sum(w * np.exp(1j * nodes * t)) for t in ts])
        assert np.abs(direct - characteristic_function(dist, ts)).max() < 1e-12


def test_characteristic_rejects():
    with pytest.raises(UnsupportedFamily):
        characteristic_function(DisorderDistribution.tabulated([0, 1], [1, 1]), 1.0)
    with pytest.raises(UnsupportedFamily):
        characteristic_function(DisorderDistribution.gaussian(1.0, cutoff=(-5, 5)), 1.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_uniform_mean(rng):
    draws = quantile(DisorderDistribution.uniform(1.0), rng.random(1_000_000))
    # CLT band: 3 * std / sqrt(n) with std = 1/sqrt(3)
    assert abs(draws.mean()) < 3.0 * (1.0 / np.sqrt(3)) / 1e3


def test_sample_semicircle_support(rng):
    draws = quantile(DisorderDistribution.semicircle(1.0), rng.random(20_000))
    assert draws.min() >= -1.0 and draws.max() <= 1.0
    # second moment of the semicircle is w^2/4
    assert abs((draws ** 2).mean() - 0.25) < 5e-3
    # the clip ends reach the edges, the median is 0, and the quantile is
    # odd about it: on dyadic u, 1 - u is exact and so is the reflection
    dist = DisorderDistribution.semicircle(2.5)
    ends = quantile(dist, np.array([0.0, 1e-16, 1.0 - 1e-16, 1.0]))
    assert np.all(np.abs(ends) <= 2.5) and np.all(np.abs(ends) >= 2.5 * (1 - 1e-10))
    assert abs(quantile(dist, 0.5)) <= 2.5 * 1e-16
    u = rng.integers(1, 2 ** 40, size=2000) / 2.0 ** 41
    assert np.array_equal(quantile(dist, 1.0 - u), -quantile(dist, u))


def test_sample_respects_cutoff(rng):
    d = DisorderDistribution.gaussian(1.0, cutoff=(-5.0, 5.0))
    draws = quantile(d, rng.random(50_000))
    assert draws.min() >= -5.0 and draws.max() <= 5.0
    d = DisorderDistribution.cauchy(1.0, cutoff=(-30.0, 30.0))
    draws = quantile(d, rng.random(50_000))
    assert draws.min() >= -30.0 and draws.max() <= 30.0


def test_sample_deterministic():
    d = DisorderDistribution.semicircle(1.0)
    a = quantile(d, np.random.default_rng(5).random(10))
    b = quantile(d, np.random.default_rng(5).random(10))
    assert np.array_equal(a, b)


def test_quantile_matches_cdf(rng):
    # quantile is the exact inverse of the (cut) CDF for every family
    for dist in (DisorderDistribution.gaussian(2.0, cutoff=(-3.0, 7.0)),
                 DisorderDistribution.cauchy(1.0, cutoff=(-30.0, 10.0)),
                 DisorderDistribution.semicircle(1.0, cutoff=(-0.5, 1.0)),
                 DisorderDistribution.semicircle(3.0),
                 # a window ending at the upper edge: u near 1 rounds to 1 there
                 DisorderDistribution.semicircle(1.0, cutoff=(0.5, 2.0)),
                 DisorderDistribution.tabulated([-1.0, 0.0, 2.0], [0.0, 1.0, 0.5]),
                 # cut by the constructor: re-tabulated on the window, drawn only inside it
                 DisorderDistribution("tabulated", grid=([-1.0, 0.0, 2.0], [0.0, 1.0, 0.5]),
                                      cutoff=(0.5, 1.5))):
        # the clip ends and the tails, on top of uniform draws
        u = np.concatenate([rng.random(200), 10.0 ** -rng.uniform(3, 16, 20),
                            1 - 10.0 ** -rng.uniform(3, 15.9, 20), [1e-16, 0.5, 1 - 1e-16]])
        x = quantile(dist, u)
        lo, hi = dist.support()
        assert x.min() >= lo - 1e-12 and x.max() <= hi + 1e-12
        # forward CDF of the draw must recover u (restricted to the window)
        flo, fhi = dist._cdf_native(lo), dist._cdf_native(hi)
        back = (dist._cdf_native(x) - flo) / (fhi - flo)
        assert np.abs(back - u).max() < 1e-12
    assert dist.support() == (0.5, 1.5) and dist.cutoff is None


def test_window_above_zero_is_its_mirror(rng):
    # every named family is symmetric about 0: a window above 0 has its
    # mirror's mass and draws as minus the mirror's draw at 1 - u, bit for bit
    u = np.concatenate([rng.random(2000), [0.0, 1e-16, 0.5, 1 - 1e-16, 1.0]])
    for family, width, cut in (("gaussian", 1.0, (7.0, 100.0)), ("gaussian", 2.0, (1.0, 5.0)),
                               ("cauchy", 1.0, (2.0, 40.0)), ("semicircle", 1.0, (0.2, 0.9)),
                               ("uniform", 1.0, (0.1, 0.8))):
        dist = DisorderDistribution(family, width, cutoff=cut)
        mirror = DisorderDistribution(family, width, cutoff=(-cut[1], -cut[0]))
        assert dist.window_mass() == mirror.window_mass()
        x = quantile(dist, u)
        assert np.array_equal(x, -quantile(mirror, 1.0 - u))
        lo, hi = dist.support()
        assert np.all(np.isfinite(x)) and x.min() >= lo - 1e-12 and x.max() <= hi + 1e-12


def test_far_upper_gaussian_windows_draw_distinct_values():
    # near F = 1 the upper window's CDF values cancelled: 2e5 midpoint
    # uniforms gave 7 distinct draws on (8, 100), some of them infinite
    u = (np.arange(200_000) + 0.5) / 200_000
    for lo in (5.328, 7.0, 8.0, 10.0):
        x = quantile(DisorderDistribution.gaussian(1.0, cutoff=(lo, 100.0)), u)
        assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0) and x[0] >= lo - 1e-12


def test_tabulated_cdf_table_is_built_once(rng):
    # the CDF and the quantile of a tabulated density read one table of
    # trapezoid sums, made on first use and kept
    dist = DisorderDistribution.tabulated([-1.0, 0.0, 2.0], [0.0, 1.0, 0.5])
    quantile(dist, rng.random(5))
    cum = dist._cum
    lam, dens = dist.grid
    assert np.array_equal(cum, np.concatenate(
        ([0.0], np.cumsum(np.diff(lam) * (dens[1:] + dens[:-1]) / 2))))
    dist._cdf_native(rng.random(5))
    quantile(dist, rng.random(5))
    assert dist._cum is cum


# ---------------------------------------------------------------------------
# quadrature consistency (Gauss rules from the tables)
# ---------------------------------------------------------------------------

def _analytic_moment(dist, m):
    if m % 2 == 1:
        return 0.0
    w = dist.width
    j = m // 2
    if dist.family == "gaussian":
        return w ** m * np.prod(np.arange(1, m, 2, dtype=float))
    if dist.family == "uniform":
        return w ** m / (m + 1)
    # semicircle: (w/2)^m * Catalan(m/2)
    from math import comb
    return (w / 2.0) ** m * comb(2 * j, j) / (j + 1)


@pytest.mark.parametrize("dist", [
    DisorderDistribution.gaussian(1.0),
    DisorderDistribution.uniform(1.0),
    DisorderDistribution.semicircle(1.0),
])
def test_gauss_rule_reproduces_moments(dist):
    order = 12
    table = recurrence_analytic(dist, order)
    nodes, weights = gauss_rule(table, order)
    assert abs(weights.sum() - 1.0) < 1e-12
    for m in range(0, 2 * order):
        exact = _analytic_moment(dist, m)
        got = np.sum(weights * nodes ** m)
        # odd moments vanish; measure their residual against the size of the
        # terms actually summed (the neighbouring even moment)
        scale = max(abs(exact), _analytic_moment(dist, m + (m % 2)), 1e-300)
        assert abs(got - exact) / scale < 1e-10, (dist.family, m)


def test_orthonormal_values_orthonormal():
    from enslat.measures import discretize
    d = DisorderDistribution.semicircle(1.0)
    t = recurrence_analytic(d, 12)
    nodes, w = discretize(d, 2000)
    phi = orthonormal_values(t, nodes, 12)
    gram = (phi * w) @ phi.T
    assert np.abs(gram - np.eye(13)).max() < 1e-12
