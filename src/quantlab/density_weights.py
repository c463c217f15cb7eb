"""The fiber density eta, its convexity, the Haar/Liouville relation, and
the Weyl denominator with its integration formula.

Normalization, fixed globally: probability Haar on the group and on the
maximal torus, Lebesgue on the algebra, and the Gaussian reference weight
e^{-2 pi |Y|^2} (total mass 2^{-r/2} on R^r) wherever an integrability
weight is needed.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.integrate

from quantlab import quadrature as quad
from quantlab.lie_core import (
    AlgebraVec,
    GroupPoint,
    LieModel,
    adjoint_action_batch,
    algebra_vec,
    exp_alg_batch,
    get_model,
    random_coords_batch,
    torus_point,
    weyl_group,
)
from quantlab.report import CheckReport

__all__ = [
    "sinhc",
    "log_sinhc",
    "eta_tilde",
    "eta",
    "log_eta_tilde",
    "eta_log_convexity_certificate",
    "weyl_denominator",
    "haar_liouville_consistency",
    "weyl_integration_check",
]


def sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x with a series branch against cancellation near zero."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    series = 1.0 + x**2 / 6.0 + x**4 / 120.0
    return np.where(small, series, np.sinh(safe) / safe)


def log_sinhc(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)/x), stable for both tiny and large |x|."""
    x = np.abs(np.asarray(x, dtype=float))
    small = x < 1e-4
    large = x > 20.0
    safe = np.where(small | large, 1.0, x)
    series = x**2 / 6.0 - x**4 / 180.0
    # sinh(x)/x = e^x (1 - e^{-2x}) / (2x)
    xl = np.where(large, x, 1.0)
    big = x - np.log(2.0 * xl) + np.log1p(-np.exp(-2.0 * xl))
    mid = np.log(np.sinh(safe) / safe)
    return np.where(small, series, np.where(large, big, mid))


def eta_tilde(model: LieModel, t_coords: np.ndarray) -> np.ndarray:
    """Product over positive roots of sinh(alpha(Y))/alpha(Y) on torus
    coordinates; identically 1 for tori (empty product).  Vectorized over a
    leading batch axis."""
    t_coords = np.atleast_2d(np.asarray(t_coords, dtype=float))
    out = np.ones(t_coords.shape[0])
    for root in model.positive_roots():
        out = out * sinhc(t_coords @ root.covector)
    return out if out.shape[0] > 1 else out.reshape(())


def log_eta_tilde(model: LieModel, t_coords: np.ndarray) -> np.ndarray:
    t_coords = np.atleast_2d(np.asarray(t_coords, dtype=float))
    out = np.zeros(t_coords.shape[0])
    for root in model.positive_roots():
        out = out + log_sinhc(t_coords @ root.covector)
    return out if out.shape[0] > 1 else out.reshape(())


def eta(Y: AlgebraVec) -> float:
    """The density at Y in t.  General Y must be routed through a torus
    representative first; a component off t is a usage error."""
    model = Y.model
    t_idx = list(model.torus_indices)
    off = np.delete(Y.coords, t_idx)
    if off.size and np.abs(off).max() > 1e-12:
        raise ValueError("eta expects Y in t; reduce to a torus representative")
    return float(eta_tilde(model, Y.coords[t_idx]))


def eta_log_convexity_certificate(
    t_range: tuple[float, float] = (-6.0, 6.0), grid: int = 10_000
) -> CheckReport:
    """Log-convexity of the rank-1 density along a root coordinate.

    Two routes to eta~ * eta~'' - (eta~')^2: the closed form
    (sinh^2 t - t^2) / t^4 (series-guarded near 0), and a finite-difference
    second derivative of log eta~ times eta~^2.  The closed form must be
    strictly positive away from 0 and the routes must agree to 1e-5.
    """
    su2 = get_model("su2")
    t = np.linspace(t_range[0], t_range[1], grid)
    t2 = t * t
    small = np.abs(t) < 0.05
    safe = np.where(small, 1.0, t)
    closed = np.where(
        small,
        1.0 / 3.0 + 2.0 * t2 / 45.0 + t2 * t2 / 315.0,
        (np.sinh(safe) ** 2 - safe**2) / safe**4,
    )
    h = 1e-3
    cols = np.stack([t - h, t, t + h], axis=1).reshape(-1, 1)
    lg = log_eta_tilde(su2, cols).reshape(-1, 3)
    second = (lg[:, 0] - 2.0 * lg[:, 1] + lg[:, 2]) / h**2
    fd = second * eta_tilde(su2, t.reshape(-1, 1)) ** 2
    agreement = float(np.abs(closed - fd).max())
    positivity_violation = float(max(0.0, -closed.min()))
    return CheckReport.from_error(
        "density.eta_log_convexity",
        "log-convexity of the density: eta~ eta~'' - (eta~')^2 = "
        "(sinh^2 t - t^2)/t^4 > 0 for t != 0, with limit 1/3 at 0",
        tolerance=1e-5,
        max_error=max(agreement, positivity_violation),
        grid=grid,
        t_range=t_range,
        min_closed_form=float(closed.min()),
        agreement=agreement,
    )


def weyl_denominator(model: LieModel, t_coords: np.ndarray) -> np.ndarray:
    """delta at torus points: the Vandermonde of the defining-representation
    eigenvalues.  Only |delta| carries meaning; the phase is a convention.
    Identically 1 for tori."""
    t_coords = np.atleast_2d(np.asarray(t_coords, dtype=float))
    if model.is_abelian:
        out = np.ones(t_coords.shape[0], dtype=complex)
        return out if out.shape[0] > 1 else out.reshape(())
    coords = np.zeros((t_coords.shape[0], model.dim))
    coords[:, list(model.torus_indices)] = t_coords
    # torus points are diagonal: their eigenvalues are the diagonal,
    # ordered by angle so that |delta| stays smooth
    lam = np.diagonal(exp_alg_batch(model, coords), axis1=1, axis2=2)
    lam = np.take_along_axis(lam, np.argsort(np.angle(lam), axis=1), axis=1)
    out = np.ones(t_coords.shape[0], dtype=complex)
    for a in range(lam.shape[1]):
        for b in range(a + 1, lam.shape[1]):
            out = out * (lam[:, b] - lam[:, a])
    return out if out.shape[0] > 1 else out.reshape(())


def _su2_weyl_denominator_sq(tau: np.ndarray) -> np.ndarray:
    # |delta|^2 = |e^{i tau/2} - e^{-i tau/2}|^2 = 2 - 2 cos(tau)
    return 2.0 - 2.0 * np.cos(tau)


def _check_class_function(
    model: LieModel,
    f: Callable,
    on_group: bool,
    seed: int = 12345,
    samples: int = 32,
) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    if on_group:
        g_c, x_c = random_coords_batch(model, rng, samples,
                                       ("group", "group"))
        g = exp_alg_batch(model, g_c)
        x = exp_alg_batch(model, x_c)
        conj = g @ x @ np.linalg.inv(g)
        for c, xm in zip(conj, x):
            worst = max(worst, abs(f(GroupPoint(model, c))
                                   - f(GroupPoint(model, xm))))
        return worst
    g_c, ys = random_coords_batch(model, rng, samples, ("group", "algebra"))
    moved = adjoint_action_batch(model, exp_alg_batch(model, g_c), ys)
    for a, y in zip(moved, ys):
        worst = max(worst, abs(f(AlgebraVec(model, a))
                               - f(AlgebraVec(model, y))))
    return worst


def haar_liouville_consistency(
    model: LieModel, f: Callable[[AlgebraVec], float], level: int = 3
) -> CheckReport:
    """Two independent quadratures of a class function of the fiber against
    the Gaussian reference weight.

    Route (i) integrates f * eta^2 against the flat fiber measure; route
    (ii) integrates f against the polar-decomposition volume, whose radial
    density for the rank-1 model is 4 pi sinh^2(r) (adaptive quadrature).
    Equality of the two is the Liouville/Riemannian measure identification
    at desk scale.
    """
    class_resid = _check_class_function(model, f, on_group=False)
    if class_resid > 1e-8:
        return CheckReport.from_error(
            "density.haar_liouville",
            "precondition: integrand must be a class function of the fiber",
            tolerance=1e-8,
            max_error=class_resid,
            precondition="class-function check failed",
        )
    if model.is_abelian:
        rule = quad.gaussian_rule(model.dim, level)
        side1 = sum(
            w * f(AlgebraVec(model, y))
            for y, w in zip(rule.nodes, rule.weights)
        )
        lim = [[-2.5, 2.5]] * model.dim
        side2, quad_err = scipy.integrate.nquad(
            lambda *ys: f(algebra_vec(model, list(ys)))
            * math.exp(-2.0 * math.pi * float(np.dot(ys, ys))),
            lim,
        )
    else:
        def profile(r):
            return f(algebra_vec(model, [0.0, 0.0, r]))
        rule = quad.radial_rule(level, tilt=6.0)
        r = rule.nodes[:, 0]
        side1 = float(
            np.dot(
                rule.weights,
                eta_tilde(model, r.reshape(-1, 1)) ** 2
                * np.array([profile(ri) for ri in r]),
            )
        )
        # finite upper limit: the integrand decays like e^{C r - 2 pi r^2}
        # and sinh overflows long before quad's infinite-range nodes end
        side2, quad_err = scipy.integrate.quad(
            lambda rr: 4.0
            * math.pi
            * math.sinh(rr) ** 2
            * math.exp(-2.0 * math.pi * rr * rr)
            * profile(rr),
            0.0,
            12.0,
        )
    scale = max(abs(side2), 1e-12)
    rel = abs(side1 - side2) / scale
    return CheckReport.from_error(
        "density.haar_liouville",
        "the Riemannian volume of the polar decomposition equals the "
        "flat fiber measure times eta^2 (rank-1: r^2 eta~^2 = sinh^2 r)",
        tolerance=1e-6,
        max_error=rel,
        side_flat_times_eta_sq=float(side1),
        side_polar_volume=float(side2),
        quad_error_estimate=float(quad_err),
        level=level,
    )


def weyl_integration_check(
    model: LieModel, f: Callable[[GroupPoint], float], level: int = 4
) -> CheckReport:
    """The torus-restriction integration formula with the Weyl denominator.

    Checks int_G f = (1/|W|) int_T |delta|^2 f|_T under probability Haar on
    both sides, and fits the constant c making f -> c |delta| f|_T an
    isometry into L^2(T); the fit must land on |W|^{-1/2}.
    """
    class_resid = _check_class_function(model, f, on_group=True)
    if class_resid > 1e-8:
        return CheckReport.from_error(
            "density.weyl_integration",
            "precondition: integrand must be a class function on the group",
            tolerance=1e-8,
            max_error=class_resid,
            precondition="class-function check failed",
        )
    n_w = len(weyl_group(model))
    t_rule = quad.model_torus_rule(model, modes=8 * level + 8)
    t_vals = np.array(
        [f(torus_point(model, tc)) for tc in t_rule.nodes]
    )
    if model.is_abelian:
        g_int = float(np.dot(t_rule.weights, t_vals))
        g_sq = float(np.dot(t_rule.weights, np.abs(t_vals) ** 2))
        delta_sq = np.ones(len(t_vals))
    else:
        g_rule = quad.su2_haar_rule(level)
        g_vals = np.array(
            [f(GroupPoint(model, m)) for m in g_rule.nodes]
        )
        g_int = float(np.dot(g_rule.weights, g_vals))
        g_sq = float(np.dot(g_rule.weights, np.abs(g_vals) ** 2))
        delta_sq = _su2_weyl_denominator_sq(t_rule.nodes[:, 0])
    t_int = float(np.dot(t_rule.weights, delta_sq * t_vals)) / n_w
    t_sq = float(np.dot(t_rule.weights, delta_sq * np.abs(t_vals) ** 2))
    equality_resid = abs(g_int - t_int) / max(abs(g_int), 1e-12)
    c_fitted = math.sqrt(g_sq / t_sq) if t_sq > 1e-15 else float("nan")
    c_resid = abs(c_fitted - n_w**-0.5) if t_sq > 1e-15 else 0.0
    return CheckReport.from_error(
        "density.weyl_integration",
        "integration of a class function reduces to the torus against "
        "|delta|^2/|W|, making c|delta| f|_T an isometry with c = |W|^{-1/2}",
        tolerance=1e-9,
        max_error=max(equality_resid, c_resid),
        group_integral=g_int,
        torus_integral=t_int,
        c_fitted=c_fitted,
        weyl_order=n_w,
        level=level,
    )
