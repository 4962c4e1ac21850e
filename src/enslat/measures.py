"""Disorder distributions and their orthogonal-polynomial machinery.

A :class:`DisorderDistribution` is a one-dimensional probability measure for a
single disorder variable: one of four named families (gaussian, cauchy,
semicircle, uniform, each centered at zero with a single width parameter) or a
tabulated density, optionally restricted to a hard cutoff window and
renormalized to unit mass.

For a measure ``p(x) dx`` the monic orthogonal polynomials satisfy the
three-term recurrence

    P_{k+1}(x) = (x - alpha_k) P_k(x) - beta_k P_{k-1}(x),

with ``alpha_k = <x P_k, P_k> / <P_k, P_k>`` and
``beta_k = <P_k, P_k> / <P_{k-1}, P_{k-1}>``.  A :class:`RecurrenceTable`
stores these coefficients; ``sqrt(beta_k)`` are the hopping amplitudes of the
equivalent lattice and ``alpha_k`` its node energy shifts.

Coefficients come either from closed forms (:func:`recurrence_analytic`, for
the three classical symmetric families) or from a discretized Stieltjes
procedure (:func:`recurrence_stieltjes`) that runs the recurrence on a
composite Gauss-Legendre grid (:func:`discretize`): one panel layout for every
measure, linear in the order (:func:`grid_size`), which the initial-state
expansions share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfcx, j1, ndtr, ndtri

from .errors import (
    EmptySupport,
    InvalidOrder,
    NumericalBreakdown,
    TableTooShort,
    UnboundedSupport,
    UnsupportedFamily,
)

__all__ = [
    "DisorderDistribution",
    "RecurrenceTable",
    "recurrence_analytic",
    "recurrence_stieltjes",
    "recurrence_table",
    "grid_size",
    "characteristic_function",
    "quantile",
    "orthonormal_values",
    "gauss_rule",
]

_NAMED_FAMILIES = ("gaussian", "cauchy", "semicircle", "uniform")
_SEMICIRCLE_STEPS = 5   # Newton steps of the semicircle quantile; the fourth reaches rounding

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True, eq=False)
class DisorderDistribution:
    """One-dimensional probability measure for a single disorder variable.

    Attributes
    ----------
    family : str
        One of ``gaussian``, ``cauchy``, ``semicircle``, ``uniform``,
        ``tabulated``.
    width : float or None
        Family width parameter (sigma, theta, w, v); None for tabulated.
    grid : tuple(ndarray, ndarray) or None
        For tabulated measures: strictly increasing abscissae and the
        (renormalized) density values, interpolated linearly in between.
    cutoff : tuple(float, float) or None
        Hard support window; the density is renormalized to unit mass on it.
        The constructor intersects it with the native support and raises
        :class:`EmptySupport` when the result is empty or its mass is below
        the smallest normal float.  A tabulated density is re-tabulated on
        the window instead, so its cutoff reads None and its grid spans the
        window.  A cut curbs the growth of the lattice couplings: sqrt(beta_k)
        saturates at a quarter of the window width.
    """

    family: str
    width: float | None = None
    grid: tuple[np.ndarray, np.ndarray] | None = None
    cutoff: tuple[float, float] | None = None

    def __post_init__(self):
        if self.family not in _NAMED_FAMILIES + ("tabulated",):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "tabulated":
            lam, dens = (np.asarray(a, dtype=float) for a in self.grid)
            if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(dens))):
                raise ValueError("tabulated grid and density must be finite")
            if lam.size < 2 or np.any(np.diff(lam) <= 0):
                raise ValueError("tabulated grid must be strictly increasing with >= 2 points")
            if np.any(dens < 0):
                raise ValueError("tabulated density must be nonnegative")
            if self.cutoff is not None:     # re-tabulated on the window, which its grid spans
                lo, hi = self._window(lam[0], lam[-1])
                cut = np.concatenate(([lo], lam[(lam > lo) & (lam < hi)], [hi]))
                lam, dens = cut, np.interp(cut, lam, dens)
            mass = _trapz(dens, lam)
            if mass <= 0:
                raise EmptySupport("tabulated density has zero mass on its window")
            object.__setattr__(self, "grid", (lam, dens / mass))
            object.__setattr__(self, "cutoff", None)
        elif self.width is None or not self.width > 0:
            raise ValueError(f"{self.family} width must be positive")
        elif self.cutoff is not None:
            object.__setattr__(self, "cutoff", self._window(*self.native_support()))
            if not self.window_mass() >= np.finfo(float).tiny:     # a gaussian's past 37.5 sigma
                raise EmptySupport(f"cutoff window {self.cutoff} carries zero mass")

    def _window(self, nlo: float, nhi: float) -> tuple[float, float]:
        """The cutoff intersected with the native support [nlo, nhi]: the one
        place a window is applied.  Raises EmptySupport if it is empty."""
        lo, hi = max(nlo, float(self.cutoff[0])), min(nhi, float(self.cutoff[1]))
        if np.isnan(self.cutoff).any() or not lo < hi:
            raise EmptySupport(
                f"cutoff window {tuple(self.cutoff)} is empty on the support ({nlo}, {nhi})")
        return lo, hi

    # -- constructors ------------------------------------------------------

    @classmethod
    def gaussian(cls, sigma: float, cutoff=None) -> "DisorderDistribution":
        """Gaussian with standard deviation ``sigma``, centered at zero."""
        return cls("gaussian", width=float(sigma), cutoff=cutoff)

    @classmethod
    def cauchy(cls, theta: float, cutoff=None) -> "DisorderDistribution":
        """Cauchy (Lorentzian) with half width ``theta``; moments are undefined
        unless a cutoff is set (a window of +-30*theta is a reasonable default)."""
        return cls("cauchy", width=float(theta), cutoff=cutoff)

    @classmethod
    def semicircle(cls, w: float, cutoff=None) -> "DisorderDistribution":
        """Wigner semicircle on [-w, w]."""
        return cls("semicircle", width=float(w), cutoff=cutoff)

    @classmethod
    def uniform(cls, v: float, cutoff=None) -> "DisorderDistribution":
        """Uniform on [-v, v]."""
        return cls("uniform", width=float(v), cutoff=cutoff)

    @classmethod
    def tabulated(cls, lam, density, cutoff=None) -> "DisorderDistribution":
        """Tabulated density, linearly interpolated and normalized to unit mass
        (on the cutoff window, when one is given)."""
        return cls("tabulated", grid=(lam, density), cutoff=cutoff)

    # -- geometry ----------------------------------------------------------

    def native_support(self) -> tuple[float, float]:
        """Support of the uncut family (may be infinite)."""
        w = self.width
        if self.family in ("gaussian", "cauchy"):
            return (-np.inf, np.inf)
        if self.family in ("semicircle", "uniform"):
            return (-w, w)
        lam = self.grid[0]
        return (float(lam[0]), float(lam[-1]))

    def support(self) -> tuple[float, float]:
        """Effective support: the cutoff window, already intersected with the
        native support, or the native support when uncut."""
        return self.cutoff if self.cutoff is not None else self.native_support()

    @property
    def bounded(self) -> bool:
        lo, hi = self.support()
        return np.isfinite(lo) and np.isfinite(hi)

    @property
    def moments_defined(self) -> bool:
        """False only for the uncut Cauchy, whose moments do not exist."""
        return not (self.family == "cauchy" and self.cutoff is None)

    # -- density -----------------------------------------------------------

    @cached_property
    def _cum(self) -> np.ndarray:
        """Tabulated CDF at the grid points: the trapezoid sums of the density."""
        lam, dens = self.grid
        cum = np.concatenate(([0.0], np.cumsum(np.diff(lam) * (dens[1:] + dens[:-1]) / 2)))
        cum.setflags(write=False)
        return cum

    def _cdf_native(self, x):
        """CDF of the uncut family (used for cutoff renormalization)."""
        w = self.width
        if self.family == "gaussian":
            return ndtr(np.asarray(x, float) / w)
        if self.family == "cauchy":
            return 0.5 + np.arctan(np.asarray(x, float) / w) / np.pi
        if self.family == "semicircle":
            u = np.clip(np.asarray(x, float) / w, -1.0, 1.0)
            return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / np.pi
        if self.family == "uniform":
            return np.clip((np.asarray(x, float) + w) / (2 * w), 0.0, 1.0)
        lam, dens = self.grid
        xs = np.clip(np.asarray(x, float), lam[0], lam[-1])
        cum = self._cum
        idx = np.clip(np.searchsorted(lam, xs, side="right") - 1, 0, lam.size - 2)
        dx, p0 = xs - lam[idx], dens[idx]
        return cum[idx] + dx * (p0 + 0.5 * dx * (dens[idx + 1] - p0) / (lam[idx + 1] - lam[idx]))

    def window_mass(self) -> float:
        """Native probability mass inside the cutoff window (1 if uncut).

        A window above 0 takes its mirror's mass, F(-lo) - F(-hi): every named
        family is symmetric about 0, and below 0 F is small, so the difference
        does not cancel as it does near F = 1.  A gaussian window on one side
        of 0 takes it from the tail, Q(a) - Q(b) (:func:`_gaussian_tail`).
        """
        if self.cutoff is None:
            return 1.0
        lo, hi = self.cutoff if self.cutoff[0] <= 0 else (-self.cutoff[1], -self.cutoff[0])
        if self.family == "gaussian" and hi <= 0:
            return float(_gaussian_tail(-hi / self.width) - _gaussian_tail(-lo / self.width))
        return float(self._cdf_native(hi) - self._cdf_native(lo))

    def pdf(self, x):
        """Normalized density, zero outside the (cut) support."""
        x = np.asarray(x, dtype=float)
        w = self.width
        if self.family == "gaussian":
            d = np.exp(-(x * x) / (2 * w * w)) / (np.sqrt(2 * np.pi) * w)
        elif self.family == "cauchy":
            d = (w / np.pi) / (x * x + w * w)
        elif self.family == "semicircle":
            d = (2 / (np.pi * w * w)) * np.sqrt(np.clip(w * w - x * x, 0.0, None))
        elif self.family == "uniform":
            d = np.where(np.abs(x) <= w, 1.0 / (2 * w), 0.0)
        else:
            lam, dens = self.grid
            d = np.interp(x, lam, dens, left=0.0, right=0.0)
        if self.cutoff is not None:
            lo, hi = self.cutoff
            d = np.where((x >= lo) & (x <= hi), d / self.window_mass(), 0.0)
        return d

    def __repr__(self):
        core = f"{self.family}(width={self.width})" if self.family != "tabulated" \
            else f"tabulated({self.grid[0].size} pts)"
        if self.cutoff is not None:
            core += f", cutoff={self.cutoff}"
        return f"DisorderDistribution[{core}]"


def _gaussian_tail(x: float) -> float:
    """Q(x) = P(X > x) of the unit gaussian for x >= 0, to a few ulp out to 37.5:
    erfcx(x/sqrt 2) exp(-x**2/2) / 2, with x**2 split exactly (Dekker).  ndtr(-x)
    magnifies the rounding of x/sqrt 2 by x**2, to 5.7e-14 relative at x = 30."""
    x = min(x, 40.0)                    # Q(40) underflows; an infinite x would not split
    head = 134217729.0 * x - (134217729.0 * x - x)          # the upper 26 bits of x
    err = ((head * head - x * x) + 2.0 * head * (x - head)) + (x - head) ** 2  # x*x's rounding
    return 0.5 * erfcx(x * np.sqrt(0.5)) * np.exp(-0.5 * (x * x)) * (1.0 - 0.5 * err)


@dataclass(frozen=True, eq=False)
class RecurrenceTable:
    """Monic three-term recurrence coefficients of one measure, to order K.

    ``alpha[k]`` holds alpha_k for k = 0..K-1; ``beta[k-1]`` holds beta_k for
    k = 1..K (all strictly positive).
    """

    order: int
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise InvalidOrder(f"order must be >= 1, got {self.order}")
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != (self.order,) or beta.shape != (self.order,):
            raise ValueError("alpha and beta must both have length `order`")
        if np.any(beta <= 0):
            raise NumericalBreakdown("all beta_k must be positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


# ---------------------------------------------------------------------------
# recurrence coefficients
# ---------------------------------------------------------------------------

def recurrence_analytic(dist: DisorderDistribution, order: int) -> RecurrenceTable:
    """Closed-form monic recurrence coefficients for the classical families.

    gaussian(sigma):   alpha_k = 0,  beta_k = sigma^2 k
    semicircle(w):     alpha_k = 0,  beta_k = w^2 / 4
    uniform(v):        alpha_k = 0,  beta_k = v^2 k^2 / (4 k^2 - 1)

    Raises
    ------
    UnsupportedFamily
        For cauchy/tabulated measures, or when a cutoff is set (a cut measure
        has no closed form; use :func:`recurrence_stieltjes`).
    InvalidOrder
        For order < 1.
    """
    if order < 1:
        raise InvalidOrder(f"order must be >= 1, got {order}")
    if dist.family not in ("gaussian", "semicircle", "uniform") or dist.cutoff is not None:
        raise UnsupportedFamily(f"no closed-form coefficients for {dist!r}; "
                                "use recurrence_stieltjes")
    k = np.arange(1, order + 1, dtype=float)
    w = dist.width
    if dist.family == "gaussian":
        beta = w * w * k
    elif dist.family == "semicircle":
        beta = np.full(order, w * w / 4.0)
    else:
        beta = (w * w) * k * k / (4.0 * k * k - 1.0)
    return RecurrenceTable(order, np.zeros(order), beta)


_GL_POINTS, _POINTS_PER_ORDER, _MIN_PANELS = 24, 6, 16
_END_PANELS, _END_RATIO = 10, 0.25


def _panel_edges(dist: DisorderDistribution, npoints: int) -> np.ndarray:
    """The one panel layout, for every measure and every grid size.

    - On each piece of the support where the density is a normal float (the
      window, within +-37.5 sigma for the gaussian, which raises EmptySupport
      for a window with more than 1e-16 of its mass past that, rather than
      clip it; a tabulated density's runs of segments with mass),
      ceil(npoints / 24) panels, at least 16,
      with Chebyshev-Lobatto edges: they crowd its ends on the 1/k**2 scale
      of a degree-k polynomial there.  The outermost panel at each end is
      graded geometrically, for sqrt-type ends (semicircle).
    - Edges at the density's own scale w: 0, +-w 2**j for j >= -3, and every
      w/2 within +-4w (+-37.5w for the gaussian, whose polynomials oscillate
      below w wherever they live); a tabulated density's breakpoints instead.
    """
    if dist.family == "tabulated":
        lam, dens = dist.grid
        runs = np.flatnonzero(np.diff(np.concatenate(([0], dens[:-1] + dens[1:] > 0, [0]))))
        pieces, edges = [(lam[a], lam[b]) for a, b in zip(runs[::2], runs[1::2])], [lam]
    else:
        (lo, hi), w, reach = dist.support(), dist.width, 4.0
        if dist.family == "gaussian":
            reach = 37.5
            past = sum(_gaussian_tail(max(a / w, reach)) - _gaussian_tail(b / w)
                       for a, b in ((lo, hi), (-hi, -lo)) if b > reach * w)
            if past > 1e-16 * dist.window_mass():
                raise EmptySupport(f"{dist!r} holds {past / dist.window_mass():.1e} of its mass "
                                   "past 37.5 sigma, where its density leaves the normal floats")
            lo, hi = max(lo, -reach * w), min(hi, reach * w)
        octaves = w * 2.0 ** np.arange(-3, max(-2, int(np.ceil(np.log2(max(-lo, hi) / w))) + 1))
        pieces = [(lo, hi)]
        edges = [[0.0], octaves, -octaves, w * np.arange(-2 * reach, 2 * reach + 1) / 2]
    n = max(_MIN_PANELS, int(np.ceil(npoints / _GL_POINTS)))
    for a, b in pieces:
        cheb = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
        grade = (cheb[1] - a) * _END_RATIO ** np.arange(1, _END_PANELS + 1)
        edges += [cheb, a + grade, b - grade]
    edges, lo, hi = np.concatenate(edges), pieces[0][0], pieces[-1][1]
    return np.unique(np.concatenate(([lo, hi], edges[(edges > lo) & (edges < hi)])))


def discretize(dist: DisorderDistribution, npoints: int):
    """Discretize the measure: nodes and weights with sum(w_j f(x_j)) ~ int f dp.

    24-point Gauss-Legendre on every panel of :func:`_panel_edges`: about
    ``npoints`` nodes on the Chebyshev panels of each piece of the support,
    and those of the graded ends and of the density's own scale.  Nodes of
    zero weight are dropped: the polynomials would overflow there.

    Each node is placed from its panel's nearer edge, so it is rounded once,
    to half an ulp; ``mid + half * x`` rounds twice, to up to two ulps.  On a
    narrow piece far from the origin (a tabulated density's island of width
    0.01 at 10) that error is 1e-13 of the piece's width, and the Stieltjes
    table of order 177 moved by 1.4e-13 relative; placed from the edge it
    matches an extended-precision grid to 1e-14.

    Raises
    ------
    UnboundedSupport
        If the support is infinite (no cutoff on gaussian/cauchy).
    EmptySupport
        For a gaussian window with mass past 37.5 sigma (:func:`_panel_edges`).
    """
    if not dist.bounded:
        raise UnboundedSupport(f"{dist.family} support is unbounded; set a cutoff")
    xg, wg = leggauss(_GL_POINTS)
    edges = _panel_edges(dist, npoints)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    nodes = np.where(xg < 0, lo + half * (1 + xg), hi - half * (1 - xg)).ravel()
    weights = (half * wg).ravel() * dist.pdf(nodes)
    return nodes[weights > 0], weights[weights > 0]


def grid_size(order: int) -> int:
    """Points of the :func:`discretize` grid that resolves the orthogonal
    polynomials of a measure to degree ``order`` (Gautschi, *Orthogonal
    Polynomials*, 2004, §2.2), for every Stieltjes table and initial-state
    expansion: linear in the order, since the Chebyshev panels crowd the ends."""
    return _POINTS_PER_ORDER * order


def recurrence_stieltjes(dist: DisorderDistribution, order: int,
                         grid_points: int | None = None) -> RecurrenceTable:
    """Recurrence coefficients via the discretized Stieltjes procedure.

    The measure is discretized on the :func:`grid_size` grid of the order,
    fine enough for every degree the table holds; the monic recurrence is
    then run on the discrete measure, with the polynomial iterates kept
    normalized.  Measured at orders 1 to 2049, the tables of ``uniform(1)``
    and ``semicircle(1)`` cut to their own support match the closed forms to
    4e-15 relative in every sqrt(beta_k), and those of cut gaussians and
    cauchys (+-5 sigma to +-37 sigma, +-30 theta to +-100 theta) and of
    tabulated densities match a grid four times finer to 1.1e-14.  The cost
    grows as order**2: 0.03 s at order 385, 0.09 s at 1025, 0.25 s at 2049.

    Raises
    ------
    UnboundedSupport
        If the support is infinite.  The cutoff is never applied implicitly:
        it changes the physics (e.g. coherence revivals) and must be explicit.
    NumericalBreakdown
        If a computed beta_k is non-positive: `order` too large for the grid.
    """
    if order < 1:
        raise InvalidOrder(f"order must be >= 1, got {order}")
    grid_points = grid_size(order) if grid_points is None else grid_points
    if grid_points < 4 * order:
        raise InvalidOrder(f"grid_points must be >= 4*order = {4 * order}")
    nodes, w = discretize(dist, grid_points)

    alpha, beta = np.zeros(order), np.zeros(order)
    v = np.ones_like(nodes) / np.sqrt(w.sum())
    v_prev = np.zeros_like(v)
    b_prev = 0.0
    for k in range(order):
        xv = nodes * v
        a_k = float(np.sum(w * v * xv))
        u = xv - a_k * v - b_prev * v_prev
        b2 = float(np.sum(w * u * u))
        if b2 <= 0 or not np.isfinite(b2):
            raise NumericalBreakdown(
                f"beta_{k + 1} = {b2} <= 0: order {order} too large for {grid_points} grid points")
        b_k = np.sqrt(b2)
        alpha[k], beta[k] = a_k, b2
        v_prev, v, b_prev = v, u / b_k, b_k
    return RecurrenceTable(order, alpha, beta)


def recurrence_table(dist: DisorderDistribution, order: int) -> RecurrenceTable:
    """Analytic coefficients when a closed form exists, Stieltjes otherwise."""
    if dist.cutoff is None and dist.family in ("gaussian", "semicircle", "uniform"):
        return recurrence_analytic(dist, order)
    return recurrence_stieltjes(dist, order)


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def characteristic_function(dist: DisorderDistribution, t):
    """E[exp(i lambda t)] in closed form, for the four uncut named families.

    gaussian:   exp(-sigma^2 t^2 / 2)
    cauchy:     exp(-theta |t|)
    semicircle: 2 J1(w t) / (w t)
    uniform:    sin(v t) / (v t)

    Exactly 1 at t = 0.  Raises UnsupportedFamily for tabulated or cut
    distributions (no closed form).
    """
    if dist.family not in _NAMED_FAMILIES or dist.cutoff is not None:
        raise UnsupportedFamily(f"no closed-form characteristic function for {dist!r}")
    t = np.asarray(t, dtype=float)
    w = dist.width
    if dist.family == "gaussian":
        out = np.exp(-(w * t) ** 2 / 2)
    elif dist.family == "cauchy":
        out = np.exp(-w * np.abs(t))
    elif dist.family == "semicircle":
        z = w * t
        small = np.abs(z) < 1e-6
        zs = np.where(small, 1.0, z)
        out = np.where(small, 1.0 - z * z / 8.0, 2.0 * j1(zs) / zs)
    else:
        out = np.sinc(w * t / np.pi)
    out = out.astype(complex)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def quantile(dist: DisorderDistribution, u):
    """Inverse CDF; maps uniforms in (0, 1) to draws from the distribution.

    Exact for all named families (cut or uncut, via inverse-CDF restriction
    to the window); exact for tabulated measures as well, since their CDF is
    piecewise quadratic and inverted segment-wise.  The semicircle's CDF is
    1/2 + (phi + sin phi) / (2 pi) at x = w sin(phi / 2): its quantile is
    Newton's method on psi - sin psi = 2 pi min(u, 1 - u), with
    psi = pi - |phi|, from the cube root of psi^3 / 6 = 2 pi min(u, 1 - u),
    which holds near the ends.  The start lies below the root and the
    equation is convex in psi below pi, so the steps settle fast: the
    fourth reaches rounding.  A window above 0 draws as minus its mirror
    below 0 at 1 - u: near F = 1 the window's CDF values would cancel, and
    its draws collapse onto a few values, some infinite.
    """
    if dist.cutoff is not None and dist.cutoff[0] > 0:
        mirror = replace(dist, cutoff=(-dist.cutoff[1], -dist.cutoff[0]))
        return -quantile(mirror, 1.0 - np.asarray(u, dtype=float))
    u = np.clip(np.asarray(u, dtype=float), 1e-16, 1.0 - 1e-16)
    w = dist.width
    if dist.cutoff is not None:
        lo, hi = dist.cutoff
        flo, fhi = dist._cdf_native(lo), dist._cdf_native(hi)
        u = flo + u * (fhi - flo)
    if dist.family == "gaussian":
        return w * ndtri(u)
    if dist.family == "cauchy":
        return w * np.tan(np.pi * (u - 0.5))
    if dist.family == "semicircle":
        # the floor keeps the first step finite where a cut window ends at u = 0 or 1
        d = 2.0 * np.pi * np.maximum(np.minimum(u, 1.0 - u), 1e-300)
        psi = np.cbrt(6.0 * d)
        for _ in range(_SEMICIRCLE_STEPS):
            half = np.sin(0.5 * psi)
            psi -= (psi - np.sin(psi) - d) / (2.0 * half * half)    # 1 - cos psi = 2 half^2
        return np.copysign(w * np.cos(0.5 * psi), u - 0.5)
    if dist.family == "uniform":
        return w * (2.0 * u - 1.0)
    # tabulated: invert the piecewise-quadratic CDF segment by segment
    lam, dens = dist.grid
    cum = dist._cum
    target = u * cum[-1]
    idx = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, lam.size - 2)
    p0, dx = dens[idx], target - cum[idx]
    slope = (dens[idx + 1] - p0) / (lam[idx + 1] - lam[idx])
    # the root of p0 x + slope x**2 / 2 = dx, in its form free of cancellation
    den = p0 + np.sqrt(np.clip(p0 * p0 + 2 * slope * dx, 0.0, None))
    return lam[idx] + np.clip(2 * dx / np.where(den > 0, den, np.inf), 0.0, lam[idx + 1] - lam[idx])


# ---------------------------------------------------------------------------
# orthonormal polynomial evaluation
# ---------------------------------------------------------------------------

def orthonormal_values(table: RecurrenceTable, x, kmax: int) -> np.ndarray:
    """Evaluate the orthonormal polynomials phi_0..phi_kmax at points x.

    Row k of the returned (kmax+1, len(x)) array holds phi_k(x), built from
    the normalized form of the recurrence (stable at any order the table
    supports).  Requires ``table.order >= kmax``.
    """
    if kmax > table.order:
        raise InvalidOrder(f"kmax={kmax} exceeds table order {table.order}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax >= 1:
        sb = np.sqrt(table.beta)
        out[1] = (x - table.alpha[0]) / sb[0]
        for k in range(1, kmax):
            out[k + 1] = ((x - table.alpha[k]) * out[k] - sb[k - 1] * out[k - 1]) / sb[k]
    return out


def gauss_rule(table: RecurrenceTable, order: int):
    """Gauss quadrature rule of the measure behind a recurrence table.

    Golub-Welsch: nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix built from (alpha, sqrt(beta)); weights are the squared
    first components of its eigenvectors (times the unit total mass).  The
    rule integrates polynomials of degree <= 2*order - 1 exactly against the
    measure.  Weights sum to one.  Raises TableTooShort when
    ``order > table.order``.
    """
    from scipy.linalg import eigh_tridiagonal

    if order < 1:
        raise InvalidOrder(f"order must be >= 1, got {order}")
    if order > table.order:
        raise TableTooShort(f"order {order} exceeds table order {table.order}")
    if order == 1:
        return np.array([table.alpha[0]]), np.array([1.0])
    nodes, vecs = eigh_tridiagonal(table.alpha[:order], np.sqrt(table.beta[:order - 1]))
    return nodes, vecs[0] ** 2
