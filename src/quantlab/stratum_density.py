"""Grid demonstration that removing a small set leaves graph-norm closures alone.

The flat model: real or complex fields on a uniform grid over the square
[-1, 1]^2 (a real field stays real; only its d-bar is complex),
measured in the H1 norm and in the graph norm of the d-bar operator
(0.5 * (d/dx + i d/dy)).  Deleting a point (codimension 2) costs nothing:
multiplying a test field by the standard logarithmic capacity cutoff around
the origin changes it by an amount E(m) that decays like 1 / sqrt(log m).
Deleting a line (codimension 1) is not free, and E(m) stays bounded away
from zero.  Both claims are run as certificates.

E(m) is evaluated on the cutoff's support box only: the discarded piece
(1 - psi_m) f vanishes exactly wherever the distance to the deleted set is
at least 1/m, so with zero extension every central difference outside that
box plus a one-cell border is exactly zero, and the norms taken on the box
sum the same nonzero terms as on the whole grid.

Every norm, of the field and of each box, is summed over slabs of whole
rows, each read with its neighbour rows, so a slab's differences are the
whole grid's bit for bit.  The standard bump is its closed form, sampled
a slab at a time as the norms read it, and each box's discarded piece is
formed a slab at a time too, so the density suite holds no array the
size of the grid or of a box: under tracemalloc it peaks at 1.8 MiB at
grid 1024 (0.23 float64 grids) and 1.9 MiB at grid 2048.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .report import CheckReport

__all__ = [
    "GridField",
    "grid_axes",
    "standard_bump",
    "norm_equivalence_report",
    "cutoff_profile",
    "removal_errors",
    "removal_density_demo",
    "line_removal_contrast",
    "refinement_study",
]

# boundary values below this (relative) level count as compact support
_SUPPORT_TOL = 1e-13


@dataclass(frozen=True)
class _Sampled:
    """The box ``rows`` x ``cols`` of a grid, sampled on demand.

    ``self[r, c]`` (``self[r]``: every column) is the ndarray of the
    box's rows r and columns c, slices of step 1 taken relative to the
    box; ``sample`` receives them shifted to slices of the grid, and must
    compute each sample on its own, so that any box reads the same values.
    """

    sample: Callable[[slice, slice], np.ndarray]
    rows: slice
    cols: slice

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows.stop - self.rows.start,
                self.cols.stop - self.cols.start)

    def __getitem__(self, key) -> np.ndarray:
        r, c = key if isinstance(key, tuple) else (key, slice(None))
        return self.sample(_within(r, self.rows), _within(c, self.cols))


def _within(key: slice, box: slice) -> slice:
    # the box-relative slice key as a slice of the grid
    lo, hi, _ = key.indices(box.stop - box.start)
    return slice(box.start + lo, box.start + hi)


class GridField:
    """Real or complex field sampled on the uniform n-by-n grid over
    [-1, 1]^2; a real field stays real (float64), a complex one complex.

    ``values[i, j]`` is the sample at ``(x_i, y_j)`` with
    ``x_i = -1 + i * spacing``.  ``values`` is an array of samples, or a
    closed form sampled on demand (``standard_bump``): the norms then read
    it a slab of rows at a time, and reading ``values`` builds the whole
    array anew.  The support must stay strictly inside the square: a
    field whose boundary ring is not (numerically) zero is rejected,
    because the difference operators silently assume zero extension.
    """

    def __init__(self, values, spacing: float):
        if not isinstance(values, _Sampled):
            values = np.asarray(values)
            values = np.asarray(
                values, dtype=np.result_type(values, np.float64))
        shape = values.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("grid field must be a square 2-D array")
        if shape[0] < 8:
            raise ValueError("grid too small to be meaningful")
        if not spacing > 0:
            raise ValueError("spacing must be positive")
        self._samples, self.spacing = values, spacing
        n = shape[0]
        edge = max(
            float(np.abs(values[r, c]).max())
            for r, c in ((slice(0, 1), slice(0, n)),
                         (slice(n - 1, n), slice(0, n)),
                         (slice(0, n), slice(0, 1)),
                         (slice(0, n), slice(n - 1, n)))
        )
        # the scale max(1, peak) is at least 1, so the peak is read only
        # when the edge is above the tolerance itself
        if edge > _SUPPORT_TOL and edge > _SUPPORT_TOL * max(
                1.0, self._peak()):
            raise ValueError(
                "support touches the boundary of [-1,1]^2; "
                "shrink the field or enlarge the domain"
            )

    def _peak(self) -> float:
        # the largest |value|, NaN if any sample is NaN, a slab of rows at
        # a time: a real slab's from its extremes, a complex one's from
        # its |.|, so no temporary the size of the grid is built
        peaks = []
        for lo, hi in _slabs(self.size, self.size):
            slab = self._samples[lo:hi]
            peaks.append(np.abs(slab).max() if np.iscomplexobj(slab)
                         else max(slab.max(), -slab.min()))
        return float(np.max(peaks))

    @property
    def values(self) -> np.ndarray:
        return self._samples[:, :]

    @property
    def size(self) -> int:
        return self._samples.shape[0]


def grid_axes(n: int) -> tuple[np.ndarray, float]:
    """Return the 1-D coordinate array and spacing of the n-point grid."""
    x = np.linspace(-1.0, 1.0, n)
    return x, float(x[1] - x[0])


def standard_bump(n: int, radius: float = 0.8) -> GridField:
    """Smooth radial bump exp(-1/(R^2 - rho^2)), zero outside rho = R.

    Nonzero at the origin, so it is a worst case for deleting the origin.
    Sampled from the closed form on demand, one box of the grid at a time
    (rho^2 in one buffer, then the bump in place inside R), so building
    it builds no grid: the norms read it a slab of rows at a time, and
    ``values`` builds the whole grid, the same samples bit for bit.
    """
    if not 0 < radius < 1:
        raise ValueError("radius must sit strictly inside the domain")
    x, h = grid_axes(n)
    x_sq = x * x

    def sample(rows: slice, cols: slice) -> np.ndarray:
        out = np.add.outer(x_sq[rows], x_sq[cols])
        inside = out < radius * radius
        np.subtract(radius * radius, out, out=out, where=inside)
        np.divide(-1.0, out, out=out, where=inside)
        np.exp(out, out=out, where=inside)
        out[~inside] = 0.0
        return out

    return GridField(_Sampled(sample, slice(0, n), slice(0, n)), h)


def _diff(values: np.ndarray, axis: int, h: float,
          out: np.ndarray | None = None) -> np.ndarray:
    # central difference with zero extension; exactly antisymmetric.  The
    # edge samples see a zero neighbour, so they are v[1] and -v[-2], and
    # an axis under two samples wide has nothing but zero neighbours.
    # ``out``, when given, is any writable array of the samples' shape,
    # such as the real or imaginary part of a complex one.
    d = np.empty(values.shape, values.dtype) if out is None else out
    v, dv = np.moveaxis(values, axis, 0), np.moveaxis(d, axis, 0)
    if v.shape[0] < 2:
        d.fill(0.0)
        return d
    np.subtract(v[2:], v[:-2], out=dv[1:-1])
    dv[0] = v[1]
    np.negative(v[-2], out=dv[-1])
    # times the reciprocal, which is what complex division by a real
    # does: a real field's differences are then its complex ones bit for
    # bit, where a real "/ (2h)" rounds differently if 1/(2h) is inexact
    d *= 1.0 / (2.0 * h)
    return d


def _l2_sq(values: np.ndarray, h: float) -> float:
    return float(h * h * np.sum(np.abs(values) ** 2))


def _diff_buffer(values: np.ndarray, h: float) -> np.ndarray:
    # dx + i dy of a real field in one complex buffer: each difference is
    # written straight into its real or imaginary part
    buf = np.empty(values.shape, complex)
    _diff(values, 0, h, buf.real)
    _diff(values, 1, h, buf.imag)
    return buf


# samples per slab of every grid read: 32 rows of the 1024 grid, whose
# complex buffer is then a sixteenth of a float64 grid.  A box narrower
# than the grid gets taller slabs, so that its slab count follows its size.
_STRIP_CELLS = 32 * 1024


def _slabs(height: int, width: int) -> list[tuple[int, int]]:
    # (lo, hi) of the slabs of whole rows, at most _STRIP_CELLS samples
    # and at least one row each, of a height-by-width array
    strip = max(1, _STRIP_CELLS // max(width, 1))
    return [(lo, min(lo + strip, height)) for lo in range(0, height, strip)]


def _strip_sums(values, h: float, seminorm: bool = True) -> list[float]:
    # ||f||^2, ||dx f||^2, ||dy f||^2 and ||dbar f||^2 (without the
    # seminorm: ||f||^2 and ||dbar f||^2) of any rectangular array of
    # samples, zero-extended, summed over _slabs, so that no buffer the
    # size of the array is built.  ``values`` is an ndarray or a _Sampled
    # box, read only as values[lo:hi], so a sampled field or box is
    # evaluated one slab at a time.  Each slab is read with its neighbour
    # row on either side; past the array's edge there is none, and
    # _diff's edge rule is the zero extension.  So a slab's differences
    # are the whole array's bit for bit, and only the order of the sums
    # changes.  dbar = 0.5 * (dx + i dy) is complex even when the field is
    # real; a real field's dx + i dy is one complex buffer.
    n, width = values.shape
    sums = np.zeros(4 if seminorm else 2)
    for lo, hi in _slabs(n, width):
        top = max(lo - 1, 0)
        slab = values[top:hi + 1]
        rows = slice(lo - top, hi - top)
        if np.iscomplexobj(slab):
            dx, dy = _diff(slab, 0, h)[rows], _diff(slab, 1, h)[rows]
            semi = [_l2_sq(dx, h), _l2_sq(dy, h)] if seminorm else []
            dbar_sq = _l2_sq(0.5 * (dx + 1j * dy), h)
        else:
            # the seminorm is read off the buffer's parts before the
            # buffer is scaled to dbar in place
            dbar = _diff_buffer(slab, h)[rows]
            semi = ([_l2_sq(dbar.real, h), _l2_sq(dbar.imag, h)]
                    if seminorm else [])
            dbar *= 0.5
            dbar_sq = _l2_sq(dbar, h)
        sums += [_l2_sq(slab[rows], h), *semi, dbar_sq]
    return sums.tolist()


def _graph_norm(values, h: float) -> float:
    # zero-extended graph norm of any rectangular array of samples
    l2, dbar_sq = _strip_sums(values, h, seminorm=False)
    return math.sqrt(l2 + 2.0 * dbar_sq)


def norm_equivalence_report(f: GridField) -> CheckReport:
    """Certify the exact grid identity tying the two norms together.

    For zero-extended fields the central-difference operators are
    antisymmetric and commute, which forces the cross term in
    2 ||dbar f||^2 to vanish identically.  Hence

        graph^2 = ||f||^2 + (||dx f||^2 + ||dy f||^2) / 2

    exactly, and the H1 and graph norms are equivalent with constants
    1 <= H1 / graph <= sqrt(2).
    """
    # graph^2 from the complex dbar, set against the dx/dy seminorm
    l2, dx_sq, dy_sq, dbar_sq = _strip_sums(f._samples, f.spacing)
    graph = math.sqrt(l2 + 2.0 * dbar_sq)
    predicted = l2 + 0.5 * (dx_sq + dy_sq)
    scale = max(1.0, predicted)
    residual = abs(graph**2 - predicted) / scale
    h1 = math.sqrt(l2 + dx_sq + dy_sq)
    ratio = h1 / graph if graph > 0 else 1.0
    const_err = max(0.0, 1.0 - ratio, ratio - math.sqrt(2.0))
    return CheckReport.from_error(
        "density.norm_equivalence",
        (
            "on zero-extended grids the summation-by-parts identity kills "
            "the dbar cross term, so graph^2 = L2^2 + seminorm^2/2 and "
            "1 <= H1/graph <= sqrt(2)"
        ),
        tolerance=1e-12,
        max_error=max(residual, const_err),
        h1_norm=h1,
        graph_norm=graph,
        equivalence_ratio=ratio,
        grid=f.size,
    )


def cutoff_profile(m: float, r) -> np.ndarray:
    """The logarithmic capacity cutoff of index m > 1 at distances r: 0
    inside r = 1/m^2, 1 outside r = 1/m, linear in log r between."""
    if not m > 1:
        raise ValueError("cutoff index must exceed 1")
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        ramp = np.log(np.maximum(m * m * r, 1e-300)) / math.log(m)
    return np.clip(ramp, 0.0, 1.0)


def _discarded_box(f: GridField, m: float, removed_codim: int) -> _Sampled:
    # (1 - psi_m(dist)) * f, sampled on demand on the index box outside
    # which it is exactly zero, widened by one (zero) cell on each side
    # where the grid allows.  The box spans the axis samples with
    # psi_m(|x|) < 1: the distance to the origin is at least |x_i| and
    # |y_j|, and the distance to the line {y = 0} is |y_j|, so for the line
    # the box spans every row.  With no such sample the box is empty.
    # Each sample is f's times its own cutoff factor, so any slab of the
    # box reads the whole box's values bit for bit.
    if removed_codim not in (1, 2):
        raise ValueError("removed_codim must be 1 or 2")
    x, h = grid_axes(f.size)
    if abs(h - f.spacing) > 1e-12:
        raise ValueError("field spacing does not match its grid size")
    inside = np.flatnonzero(cutoff_profile(m, np.abs(x)) < 1.0)
    lo, hi = (inside[0] - 1, inside[-1] + 2) if inside.size else (0, 0)
    band = slice(max(lo, 0), min(hi, f.size))

    def sample(rows: slice, cols: slice) -> np.ndarray:
        if removed_codim == 2:
            dist = np.hypot(x[rows, None], x[None, cols])
        else:
            dist = np.abs(x[None, cols])
        return f._samples[rows, cols] * (1.0 - cutoff_profile(m, dist))

    return _Sampled(sample, band if removed_codim == 2 else slice(0, f.size),
                    band)


def removal_errors(
    f: GridField, m_list, removed_codim: int = 2
) -> list[float]:
    """E(m) = graph norm of the discarded piece, for each m.

    Each E(m) is taken on the cutoff's support box (plus a one-cell zero
    border) instead of the whole grid.  The discarded piece is exactly
    zero outside the box, so the zero-extended differences are too, and
    the box holds every nonzero term of the full-grid sums; only the
    order in which they are added changes.  When no sample lies within
    1/m the box is empty and E(m) = 0.0.
    """
    return [
        _graph_norm(_discarded_box(f, m, removed_codim), f.spacing)
        for m in m_list
    ]


def _resolution_bound(f: GridField) -> float:
    # the inner radius 1/m^2 needs at least two grid cells
    return math.sqrt(1.0 / (2.0 * f.spacing))


def _fit_rate_exponent(m_list, errors) -> float:
    # slope of log E against log sqrt(log m), negated
    xs = np.array([0.5 * math.log(math.log(m)) for m in m_list])
    ys = np.log(np.asarray(errors, dtype=float))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)


def _checked_costs(m_list, errors) -> tuple[list[float], list[float]]:
    # cutoff indices strictly increasing, all > 1, at least two, and one
    # deletion cost per index
    m_list = [float(m) for m in m_list]
    if len(m_list) < 2 or any(m <= 1 for m in m_list):
        raise ValueError("need at least two cutoff indices, all > 1")
    if any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise ValueError("cutoff indices must strictly increase")
    errors = [float(e) for e in errors]
    if len(errors) != len(m_list):
        raise ValueError("need one deletion cost per cutoff index")
    return m_list, errors


def removal_density_demo(f: GridField, m_list, errors) -> CheckReport:
    """Certify the codimension-2 deletion cost: decreasing, capacity rate.

    ``errors`` holds E(m) = removal_errors(f, m_list), one per cutoff.
    E(m) must be strictly decreasing along m_list and the fitted rate
    exponent p in E(m) ~ (sqrt(log m))^(-p) must land in [0.5, 2.0], the
    band around the capacity prediction p = 1.  The fit takes log E(m),
    so an E(m) that is zero (no sample within 1/m, nothing deleted) or
    not finite leaves no rate to fit: the check then fails with
    max_error 1.0, says why in ``failure`` and reports no rate.
    """
    m_list, errors = _checked_costs(m_list, errors)
    diffs = np.diff(errors)
    decrease_violation = max(0.0, float(diffs.max()))
    failure = {}
    if all(0.0 < e < math.inf for e in errors):
        rate = _fit_rate_exponent(m_list, errors)
        max_error = max(decrease_violation, 0.5 - rate, rate - 2.0)
    else:
        rate = None
        max_error = 1.0
        failure["failure"] = (
            "E(m) is not positive and finite at every cutoff, so log E(m) "
            "has no rate to fit")
    bound = _resolution_bound(f)
    unresolved = [m for m in m_list if m > bound]
    return CheckReport.from_error(
        "density.codim2_removal",
        (
            "cutting a disk of radius 1/m around a point with the "
            "logarithmic ramp costs graph norm ~ 1/sqrt(log m), so fields "
            "vanishing near a codimension-2 set are dense in graph norm"
        ),
        tolerance=1e-12,
        max_error=max_error,
        m_list=m_list,
        errors=errors,
        rate_exponent=rate,
        scaled_errors=[
            float(e * math.sqrt(math.log(m))) for e, m in zip(errors, m_list)
        ],
        grid=f.size,
        resolution_bound_m=bound,
        min_unresolved_m=min(unresolved) if unresolved else None,
        **failure,
    )


def line_removal_contrast(f: GridField, m_list, point_errors) -> CheckReport:
    """Certify that deleting a line (codimension 1) is NOT free.

    ``point_errors`` holds the point-deletion costs
    removal_errors(f, m_list).  The same cutoff applied to the distance
    from the line {y = 0} must keep E(m) above 0.1 * E_point(first m); a
    line has positive capacity in H1 on the plane, so no cutoff sequence
    can push the cost to zero.
    """
    m_list, point_errors = _checked_costs(m_list, point_errors)
    line_errors = removal_errors(f, m_list, removed_codim=1)
    floor = 0.1 * point_errors[0]
    worst = np.min(line_errors)
    return CheckReport.from_error(
        "density.codim1_contrast",
        (
            "a line in the plane has positive H1 capacity: the graph-norm "
            "cost of cutting it out plateaus above a fixed fraction of the "
            "point-deletion cost instead of decaying"
        ),
        tolerance=1e-12,
        max_error=np.maximum(0.0, floor - worst),
        m_list=m_list,
        line_errors=[float(e) for e in line_errors],
        point_errors=point_errors,
        floor=floor,
        grid=f.size,
    )


def refinement_study(
    f: GridField, coarse: GridField, m_list, errors
) -> CheckReport:
    """Compare E(m) on the grid of ``f`` with E(m) on a coarser grid of
    the same field; demand < 10% drift.

    ``errors`` holds removal_errors(f, m_list); only the coarse costs are
    computed here.  Only cutoffs the coarse grid resolves (inner radius at
    least two cells) are compared; the rest are reported but not scored.
    """
    m_list, errors = _checked_costs(m_list, errors)
    if coarse.size >= f.size:
        raise ValueError("the coarse grid must have fewer points than f")
    bound = _resolution_bound(coarse)
    resolved = [m for m in m_list if m <= bound]
    if not resolved:
        raise ValueError("no cutoff index is resolvable on the coarse grid")
    e_coarse = removal_errors(coarse, resolved)
    e_fine = errors[: len(resolved)]
    rel = [
        abs(a - b) / abs(b) for a, b in zip(e_coarse, e_fine)
    ]
    return CheckReport.from_error(
        "density.grid_refinement",
        (
            "the deletion-cost curve E(m) is a property of the continuum "
            "field: halving the grid spacing moves every resolved value "
            "by less than ten percent"
        ),
        tolerance=0.10,
        max_error=np.max(rel),
        coarse_grid=coarse.size,
        fine_grid=f.size,
        resolved_m=resolved,
        skipped_m=m_list[len(resolved):],
        coarse_errors=[float(e) for e in e_coarse],
        fine_errors=e_fine,
        relative_shift=[float(r) for r in rel],
    )
