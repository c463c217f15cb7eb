"""Shared numerical integration rules.

Four rule families cover every integral in the package:

* trapezoid product rules on torus angles (exact for trigonometric
  polynomials up to the declared mode),
* an Euler-angle product rule for SU(2) probability Haar (exact for matrix
  coefficients of the spin-j representations up to the declared level),
* remapped Gauss-Hermite for the Gaussian weight e^{-2 pi |Y|^2} on R^r,
* a radial Gauss-Legendre rule for class-type integrands on R^3, with an
  optional exponential tilt so integrands like e^{b r} e^{-2 pi r^2} keep
  their mass inside the truncation radius.

Every rule is a product over its axes (the radial rule has one), and a
``QuadratureRule`` is just those axes; its flat node grid is derived from
them.  Only the radial rule and the reduced Gram's |delta|^2 read that
grid; every Gram and sigma sums its characters one axis at a time.

All weights are nonnegative.  No rule checks itself: each certificate
that integrates with these rules compares the result against a closed
form.  The transform and reduction Grams are scaled by the closed-form
sigma, coherent_transform.sigma_oracle_certificate compares the
Gauss-Hermite and radial sigma against it label by label, and
reduction.weyl_isometry_certificate compares the reduced Gram of unit
characters against the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureRule",
    "torus_rule",
    "su2_haar_rule",
    "gaussian_rule",
    "radial_rule",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A product rule, kept as its factors.

    ``axes`` holds one (points, weights) pair per axis, every weight
    nonnegative.  ``nodes`` (N, d) and ``weights`` (N,) are the product
    grid, derived on first use, running over the axes in C order, last
    axis fastest: one coordinate column and one weight factor per axis.
    """

    axes: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if any(np.any(w < 0) for _, w in self.axes):
            raise ValueError("quadrature weights must be nonnegative")

    def _grid(self, part: int) -> np.ndarray:
        # the product grid of the axes' points (part 0) or weights (part 1),
        # one column per axis
        grids = np.meshgrid(*[ax[part] for ax in self.axes], indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return self._grid(0)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.prod(self._grid(1), axis=1)


def torus_rule(r: int, modes: int) -> QuadratureRule:
    """Probability trapezoid rule on [0, 2*pi)^r.

    Exact for e^{i n . theta} whenever every |n_k| <= modes: the N-point
    angle sum annihilates all frequencies not divisible by N = modes + 1.
    """
    n = modes + 1
    theta = np.arange(n) * (2.0 * math.pi / n)
    return QuadratureRule(((theta, np.full(n, 1.0 / n)),) * r)


def su2_haar_rule(level: int) -> QuadratureRule:
    """Probability Haar on SU(2) by Euler angles.

    g = exp(a e3) exp(b e2) exp(c e3) with Haar density proportional to
    sin(b): trapezoid in a over [0, 2*pi), Gauss-Legendre in u = cos(b),
    trapezoid in c over [0, 4*pi).  Matrix coefficients of spin j <= level
    integrate exactly: the angle sums annihilate every nonzero frequency
    they can see, and what survives is a polynomial in u of degree <= level.
    Products of coefficients with total spin <= level are exact too, which
    is how the Gram certificates choose their level.

    ``axes`` holds (a, 1/n_a), (b, w_u/2) and (c, 1/n_c), so ``nodes`` are
    the Euler-angle triples (a, b, c).  A spin-j matrix at a node is
    e^{-i m a} d^j(b) e^{-i m' c}, so callers build it from the n_u
    distinct values of b alone.
    """
    if level < 1:
        raise ValueError("level >= 1 required")
    n_a = 2 * level + 2
    n_u = 2 * level + 2
    n_c = 4 * level + 3
    u, wu = _legendre_points(n_u)
    return QuadratureRule((
        (np.arange(n_a) * (2.0 * math.pi / n_a), np.full(n_a, 1.0 / n_a)),
        (np.arccos(u), wu / 2.0),
        (np.arange(n_c) * (4.0 * math.pi / n_c), np.full(n_c, 1.0 / n_c)),
    ))


@lru_cache(maxsize=None)
def _legendre_points(points: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre nodes and weights on [-1, 1], computed once per point
    # count; read-only, since every rule shares them
    x, w = leggauss(points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _hermite_points(points: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Hermite nodes and weights remapped to e^{-2 pi y^2}, computed
    # once per point count; read-only, since every rule shares them
    x, w = hermgauss(points)
    y = x / math.sqrt(2.0 * math.pi)
    wy = w / math.sqrt(2.0 * math.pi)
    y.flags.writeable = False
    wy.flags.writeable = False
    return y, wy


def gaussian_rule(r: int, level: int) -> QuadratureRule:
    """Gauss-Hermite product rule for the weight e^{-2 pi |Y|^2} on R^r.

    Total mass is 2^{-r/2}.  The remapped nodes reach past six standard
    deviations of the Gaussian already at level 1.  The rule is centred at
    0, so an integrand e^{2 n.y} whose peak n / 2 pi moves out of the nodes
    is not resolved: at level 3 sigma is off by 1.5e-2 at |n| = 20.
    """
    if level < 1:
        raise ValueError("level >= 1 required")
    return QuadratureRule((_hermite_points(16 * level),) * r)


def radial_rule(level: int, tilt: float = 0.0) -> QuadratureRule:
    """Gauss-Legendre rule for integrands F(|Y|) against e^{-2 pi |Y|^2} dY
    on R^3, weights carrying the full density 4 pi r^2 e^{-2 pi r^2}.

    ``tilt`` is the largest exponential rate e^{tilt * r} expected in the
    integrand; the truncation radius moves with the tilted Gaussian's peak
    at tilt / (4 pi) so the shifted mass stays resolved.  The extra 2.5 of
    radius puts the truncated tail below 1e-15 of the mass.
    """
    if level < 1:
        raise ValueError("level >= 1 required")
    rmax = abs(tilt) / (4.0 * math.pi) + 2.5
    x, w = _legendre_points(16 * level)
    r = (x + 1.0) * (rmax / 2.0)
    wr = w * (rmax / 2.0)
    return QuadratureRule(
        ((r, wr * 4.0 * math.pi * r**2 * np.exp(-2.0 * math.pi * r**2)),))
