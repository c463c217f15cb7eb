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

All weights are nonnegative.  No rule checks itself: each certificate
that integrates with these rules compares the result against a closed
form.  The transform and reduction Grams are scaled by the closed-form
sigma, coherent_transform.sigma_oracle_certificate compares the
Gauss-Hermite and radial sigma against it label by label, and
reduction.weyl_isometry_certificate compares the torus norms against 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from quantlab.lie_core import LieModel

__all__ = [
    "QuadratureRule",
    "torus_rule",
    "model_torus_rule",
    "su2_haar_rule",
    "gaussian_rule",
    "radial_rule",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and nonnegative weights.

    ``nodes`` is an (N, d) array of point coordinates for flat rules, or an
    (N, k, k) array of defining-representation matrices for group rules.
    A product rule may also keep its factors in ``axes``: one (points,
    weights) pair per axis, with ``nodes`` and ``weights`` running over
    the axes in C order, last axis fastest.
    """

    nodes: np.ndarray
    weights: np.ndarray
    axes: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self) -> None:
        if np.any(self.weights < 0):
            raise ValueError("quadrature weights must be nonnegative")


def torus_rule(r: int, modes: int) -> QuadratureRule:
    """Probability trapezoid rule on [0, 2*pi)^r.

    Exact for e^{i n . theta} whenever every |n_k| <= modes: the N-point
    angle sum annihilates all frequencies not divisible by N = modes + 1.
    """
    n = modes + 1
    theta = np.arange(n) * (2.0 * math.pi / n)
    grids = np.meshgrid(*([theta] * r), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
    weights = np.full(nodes.shape[0], 1.0 / n**r)
    return QuadratureRule(nodes, weights, ((theta, np.full(n, 1.0 / n)),) * r)


def model_torus_rule(model: LieModel, modes: int) -> QuadratureRule:
    """Trapezoid rule in a model's own torus coordinates.

    Nodes cover one fundamental period per coordinate, so a character with
    frequency index m (m integer for 2*pi-periodic coordinates, half-integer
    where the period is 4*pi) is resolved exactly as long as its integer
    frequency in the rescaled angle is at most ``modes``.
    """
    base = torus_rule(model.rank, modes)
    nodes = base.nodes * (np.asarray(model.torus_periods) / (2.0 * math.pi))
    return QuadratureRule(nodes, base.weights.copy())


def su2_haar_rule(level: int) -> QuadratureRule:
    """Probability Haar on SU(2) by Euler angles, nodes as 2x2 matrices.

    g = exp(a e3) exp(b e2) exp(c e3) with Haar density proportional to
    sin(b): trapezoid in a over [0, 2*pi), Gauss-Legendre in u = cos(b),
    trapezoid in c over [0, 4*pi).  Matrix coefficients of spin j <= level
    integrate exactly: the angle sums annihilate every nonzero frequency
    they can see, and what survives is a polynomial in u of degree <= level.
    Products of coefficients with total spin <= level are exact too, which
    is how the Gram certificates choose their level.

    The rule is a product over the three angles: ``axes`` holds
    (alpha, 1/n_a), (beta, w_u/2) and (gamma, 1/n_c), and node
    (i_a, i_u, i_c) sits at flat index (i_a * n_u + i_u) * n_c + i_c.  A
    spin-j matrix there is e^{-i m a} d^j(b) e^{-i m' c}, so callers can
    build it from the n_u distinct values of b alone.
    """
    if level < 1:
        raise ValueError("level >= 1 required")
    n_a = 2 * level + 2
    n_u = 2 * level + 2
    n_c = 4 * level + 3
    alpha = np.arange(n_a) * (2.0 * math.pi / n_a)
    gamma = np.arange(n_c) * (4.0 * math.pi / n_c)
    u, wu = _legendre_points(n_u)
    beta = np.arccos(u)
    # exp(t e3) = diag(e^{-it/2}, e^{it/2});  exp(b e2) rotates by b/2.
    half_a = alpha / 2.0
    half_b = beta / 2.0
    half_c = gamma / 2.0
    za = np.exp(-1j * half_a)
    zc = np.exp(-1j * half_c)
    cb, sb = np.cos(half_b), np.sin(half_b)
    A, B, C = np.meshgrid(np.arange(n_a), np.arange(n_u), np.arange(n_c),
                          indexing="ij")
    mats = np.empty((n_a, n_u, n_c, 2, 2), dtype=complex)
    mats[..., 0, 0] = za[A] * cb[B] * zc[C]
    mats[..., 0, 1] = -za[A] * sb[B] / zc[C]
    mats[..., 1, 0] = sb[B] * zc[C] / za[A]
    mats[..., 1, 1] = cb[B] / (za[A] * zc[C])
    weights = (wu[B] / 2.0) / (n_a * n_c)
    return QuadratureRule(
        mats.reshape(-1, 2, 2),
        weights.reshape(-1),
        (
            (alpha, np.full(n_a, 1.0 / n_a)),
            (beta, wu / 2.0),
            (gamma, np.full(n_c, 1.0 / n_c)),
        ),
    )


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
    y, wy = _hermite_points(16 * level)
    grids = np.meshgrid(*([y] * r), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([wy] * r), indexing="ij")
    weights = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=1), axis=1)
    return QuadratureRule(nodes, weights, ((y, wy),) * r)


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
    weights = wr * 4.0 * math.pi * r**2 * np.exp(-2.0 * math.pi * r**2)
    return QuadratureRule(r.reshape(-1, 1), weights)
