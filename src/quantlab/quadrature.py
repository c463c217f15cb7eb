"""Shared numerical integration rules.

Four rule families cover every integral in the package:

* a trapezoid rule on a torus angle (exact for trigonometric polynomials
  up to the declared mode),
* an Euler-angle product rule for SU(2) probability Haar (exact for matrix
  coefficients of the spin-j representations up to the declared level),
* remapped Gauss-Hermite for the Gaussian weight e^{-2 pi y^2} on R,
* a radial Gauss-Legendre rule for class-type integrands on R^3, with an
  optional exponential tilt so integrands like e^{b r} e^{-2 pi r^2} keep
  their mass inside the truncation radius.

A rule is one axis, a (points, weights) pair; the Haar rule is its three
Euler axes.  A rank-r integral over a torus or its algebra reuses the one
axis on each of the r axes, one axis at a time (the separation of
variables of Kostelec and Rockmore, "FFTs on the rotation group", 2008).

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
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

__all__ = [
    "gauss_points",
    "torus_rule",
    "su2_haar_rule",
    "gaussian_rule",
    "radial_rule",
]

_Axis = tuple[np.ndarray, np.ndarray]


def gauss_points(level: int) -> int:
    """The node count of the level-``level`` Gauss-Hermite and radial
    rules, 16 per level, worked out without building a rule."""
    if level < 1:
        raise ValueError("level >= 1 required")
    return 16 * level


def torus_rule(modes: int) -> _Axis:
    """Probability trapezoid rule on [0, 2*pi), as (angles, weights).

    Exact for e^{i n theta} whenever |n| <= modes: the N-point angle sum
    annihilates all frequencies not divisible by N = modes + 1.
    """
    n = modes + 1
    return np.arange(n) * (2.0 * math.pi / n), np.full(n, 1.0 / n)


def su2_haar_rule(level: int) -> tuple[_Axis, _Axis, _Axis]:
    """Probability Haar on SU(2) by Euler angles.

    g = exp(a e3) exp(b e2) exp(c e3) with Haar density proportional to
    sin(b): trapezoid in a over [0, 2*pi), Gauss-Legendre in u = cos(b),
    trapezoid in c over [0, 4*pi).  Matrix coefficients of spin j <= level
    integrate exactly: the angle sums annihilate every nonzero frequency
    they can see, and what survives is a polynomial in u of degree <= level.
    Products of coefficients with total spin <= level are exact too, which
    is how the Gram certificates choose their level.

    Returns the three axes (a, 1/n_a), (b, w_u/2) and (c, 1/n_c); the
    rule's nodes are their Euler-angle triples (a, b, c).  A spin-j matrix
    at a node is e^{-i m a} d^j(b) e^{-i m' c}, so callers build it from
    the n_u distinct values of b alone.
    """
    if level < 1:
        raise ValueError("level >= 1 required")
    u, wu = _legendre_points(2 * level + 2)
    # the c axis is the trapezoid rule on [0, 4*pi)
    c, wc = torus_rule(4 * level + 2)
    return torus_rule(2 * level + 1), (np.arccos(u), wu / 2.0), (2.0 * c, wc)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # a cached axis is shared by every rule built from it
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _legendre_points(points: int) -> _Axis:
    # Gauss-Legendre nodes and weights on [-1, 1], once per point count
    return _read_only(*leggauss(points))


@lru_cache(maxsize=None)
def _hermite_points(points: int) -> _Axis:
    # Gauss-Hermite nodes and weights remapped to e^{-2 pi y^2}, once per
    # point count
    x, w = hermgauss(points)
    scale = math.sqrt(2.0 * math.pi)
    return _read_only(x / scale, w / scale)


def gaussian_rule(level: int) -> _Axis:
    """Gauss-Hermite rule for the weight e^{-2 pi y^2} on R, as (nodes,
    weights): the cached pair, read-only.

    Total mass is 2^{-1/2}.  The remapped nodes reach past six standard
    deviations of the Gaussian already at level 1.  The rule is centred at
    0, so an integrand e^{2 n y} whose peak n / 2 pi moves out of the nodes
    is not resolved: at level 3 sigma is off by 1.5e-2 at n = 20.
    """
    return _hermite_points(gauss_points(level))


def radial_rule(level: int, tilt: float = 0.0) -> _Axis:
    """Gauss-Legendre rule for integrands F(|Y|) against e^{-2 pi |Y|^2} dY
    on R^3, as (radii, weights), the weights carrying the full density
    4 pi r^2 e^{-2 pi r^2}.

    ``tilt`` is the largest exponential rate e^{tilt * r} expected in the
    integrand; the truncation radius moves with the tilted Gaussian's peak
    at tilt / (4 pi) so the shifted mass stays resolved.  The extra 2.5 of
    radius puts the truncated tail below 1e-15 of the mass.
    """
    rmax = abs(tilt) / (4.0 * math.pi) + 2.5
    x, w = _legendre_points(gauss_points(level))
    r = (x + 1.0) * (rmax / 2.0)
    wr = w * (rmax / 2.0)
    return r, wr * 4.0 * math.pi * r**2 * np.exp(-2.0 * math.pi * r**2)
