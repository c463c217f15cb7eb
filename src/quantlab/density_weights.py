"""The fiber density eta, its convexity, and the Weyl denominator.

Normalization, fixed globally: probability Haar on the group and on the
maximal torus, Lebesgue on the algebra, and the Gaussian reference weight
e^{-2 pi |Y|^2} (total mass 2^{-r/2} on R^r) wherever an integrability
weight is needed.
"""

from __future__ import annotations

import math

import numpy as np

from quantlab.lie_core import LieModel, get_model
from quantlab.report import CheckReport

__all__ = [
    "sinhc",
    "log_sinhc",
    "eta_tilde",
    "log_eta_tilde",
    "eta_log_convexity_certificate",
    "weyl_denominator",
]


def sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, by the series 1 + x^2/6 + x^4/120 where |x| < 1e-4, so
    that it does not cancel near zero.  Each branch is evaluated only on
    the entries that take it."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 1.0 + xs**2 / 6.0 + xs**4 / 120.0
    rest = ~small
    xr = x[rest]
    out[rest] = np.sinh(xr) / xr
    return out


# 1/(2k+3)!, k = 11, ..., 0: the series of (sinh x - x)/x^3 in x^2, as
# np.polyval wants it; it converges to rounding for |x| < 2
_SINH_REMAINDER_SERIES = [1.0 / math.factorial(2 * k + 3)
                          for k in reversed(range(12))]


def _sinh_remainder(x: np.ndarray) -> np.ndarray:
    """(sinh(x) - x)/x^3 elementwise: its 12-term series in x^2 where
    |x| < 2, where the difference cancels, and the quotient elsewhere,
    each on only the entries that take it."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small = np.abs(x) < 2.0
    xs = x[small]
    out[small] = np.polyval(_SINH_REMAINDER_SERIES, xs * xs)
    rest = ~small
    xr = x[rest]
    out[rest] = (np.sinh(xr) - xr) / xr**3
    return out


def log_sinhc(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)/x), stable for both tiny and large |x|: the series
    x^2/6 - x^4/180 below 1e-4, x - log(2x) + log1p(-e^{-2x}) above 20,
    and the logarithm of the quotient between.  Each branch is evaluated
    only on the entries that take it, so a large |x| whose result is
    finite never reaches the series' x^4."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty(x.shape)
    small = x < 1e-4
    large = x > 20.0
    xs = x[small]
    out[small] = xs**2 / 6.0 - xs**4 / 180.0
    # sinh(x)/x = e^x (1 - e^{-2x}) / (2x)
    xl = x[large]
    out[large] = xl - np.log(2.0 * xl) + np.log1p(-np.exp(-2.0 * xl))
    mid = ~(small | large)
    xm = x[mid]
    out[mid] = np.log(np.sinh(xm) / xm)
    return out


def eta_tilde(model: LieModel, t_coords: np.ndarray) -> np.ndarray:
    """Product over positive roots of sinh(alpha(Y))/alpha(Y) on torus
    coordinates; identically 1 for tori (empty product).  One value per row
    of an (N, r) stack, shape (N,), a one-row stack included."""
    t_coords = np.atleast_2d(np.asarray(t_coords, dtype=float))
    return sinhc(t_coords @ model.positive_roots().T).prod(axis=1)


def log_eta_tilde(model: LieModel, t_coords: np.ndarray) -> np.ndarray:
    t_coords = np.atleast_2d(np.asarray(t_coords, dtype=float))
    return log_sinhc(t_coords @ model.positive_roots().T).sum(axis=1)


def eta_log_convexity_certificate(
    t_range: tuple[float, float] = (-6.0, 6.0), grid: int = 10_000
) -> CheckReport:
    """Log-convexity of the rank-1 density along a root coordinate.

    Two routes to eta~ * eta~'' - (eta~')^2: the closed form
    (sinh^2 t - t^2) / t^4, factored as (sinh t - t) / t^3 times
    sinh(t) / t + 1 so that neither factor cancels near 0, and a
    finite-difference second derivative of log eta~ times eta~^2.  The
    closed form must be strictly positive away from 0 and the routes must
    agree to 1e-5.
    """
    su2 = get_model("su2")
    t = np.linspace(t_range[0], t_range[1], grid)
    closed = _sinh_remainder(t) * (sinhc(t) + 1.0)
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
        t_range=list(t_range),
        min_closed_form=float(closed.min()),
        agreement=agreement,
    )


def weyl_denominator(model: LieModel, t_coords: np.ndarray) -> np.ndarray:
    """|delta| at torus points: the product over positive roots of
    2 |sin(alpha(t)/2)|, the root-product form of ``eta_tilde``;
    identically 1 for tori (empty product).  One value per row of an
    (N, r) stack, shape (N,)."""
    t_coords = np.atleast_2d(np.asarray(t_coords, dtype=float))
    half = 0.5 * (t_coords @ model.positive_roots().T)
    return (2.0 * np.abs(np.sin(half))).prod(axis=1)
