import math
import tracemalloc

import numpy as np
import pytest

from quantlab import stratum_density
from quantlab.cli_report import SuiteConfig, _suite_density
from quantlab.stratum_density import (
    GridField,
    _Sampled,
    _diff,
    _diff_buffer,
    _discarded_box,
    _graph_norm,
    _l2_sq,
    _strip_sums,
    cutoff_profile,
    grid_axes,
    line_removal_contrast,
    norm_equivalence_report,
    refinement_study,
    removal_density_demo,
    removal_errors,
    standard_bump,
)

M_LIST = [math.e, math.e**2, math.e**3, math.e**4]


def field_from_function(fn, n):
    # fn(X, Y), vectorized, sampled on the n-by-n grid
    x, h = grid_axes(n)
    X, Y = np.meshgrid(x, x, indexing="ij", copy=False)
    return GridField(fn(X, Y), h)


def _lopsided(n):
    # complex field with no symmetry: off-centre support, tilted phase
    def fn(X, Y):
        rho_sq = (X - 0.1) ** 2 + (Y + 0.15) ** 2
        out = np.zeros(X.shape, dtype=complex)
        inside = rho_sq < 0.49
        out[inside] = np.exp(-1.0 / (0.49 - rho_sq[inside]))
        return out * (1.0 + X) * np.exp(1j * (2.0 * X - Y))

    return field_from_function(fn, n)


def _full_grid_discarded(f, m, removed_codim):
    # (1 - psi_m(dist)) * f over the whole meshgrid, the unwindowed form
    x, _ = grid_axes(f.size)
    X, Y = np.meshgrid(x, x, indexing="ij")
    dist = np.hypot(X, Y) if removed_codim == 2 else np.abs(Y)
    return f.values * (1.0 - cutoff_profile(m, dist))


@pytest.fixture(scope="module")
def bump_1024():
    return standard_bump(1024)


def _norms(f):
    # the H1 and graph norms norm_equivalence_report records
    rep = norm_equivalence_report(f)
    return rep.metadata["h1_norm"], rep.metadata["graph_norm"]


def test_zero_field_norms():
    _, h = grid_axes(64)
    f = GridField(np.zeros((64, 64)), h)
    assert _norms(f) == (0.0, 0.0)


def test_support_boundary_rejected():
    with pytest.raises(ValueError):
        field_from_function(lambda X, Y: np.ones_like(X), 64)
    # sigma = 0.5 leaves e^{-4} on the boundary, far above the gate
    with pytest.raises(ValueError):
        field_from_function(
            lambda X, Y: np.exp(-(X**2 + Y**2) / (2 * 0.5**2)), 128
        )


def test_support_check_runs_on_a_sampled_field():
    # a closed form whose ring is not zero is refused like an array
    def ones(rows, cols):
        return np.ones((rows.stop - rows.start, cols.stop - cols.start))

    _, h = grid_axes(64)
    with pytest.raises(ValueError, match="support touches"):
        GridField(_Sampled(ones, slice(0, 64), slice(0, 64)), h)


@pytest.mark.parametrize("dtype", [float, complex])
def test_support_check_reads_the_scale_slab_by_slab(dtype):
    # an edge of 1e-10 is above the 1e-13 gate on its own, so the check
    # reads the field's largest |value| (1e4): a complex field's |.| was
    # one float64 grid, 8 MiB at n = 1024, and the peak read now holds one
    # slab's.  Against the scale the edge passes; at ten times it, not.
    n = 1024
    values = np.zeros((n, n), dtype)
    values[n // 2, n // 3] = -1e4
    values[0, 5] = 1e-10
    _, h = grid_axes(n)
    tracemalloc.start()
    try:
        GridField(values, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak / 2**20
    values[0, 5] = 1e-8
    with pytest.raises(ValueError, match="support touches"):
        GridField(values, h)
    # a NaN sample anywhere leaves the scale at 1, as a whole-grid max does
    values[0, 5] = 1e-10
    values[n - 9, 7] = np.nan
    with pytest.raises(ValueError, match="support touches"):
        GridField(values, h)


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(np.zeros((8, 9)), 0.1)
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 4)), 0.1)
    with pytest.raises(ValueError):
        GridField(np.zeros((16, 16)), -0.1)


def test_gaussian_h1_analytic_oracle():
    # narrow Gaussian: H1 norm known in closed form, sqrt(pi (1 + sigma^2))
    sigma = 0.1

    def gauss(X, Y):
        return np.exp(-(X**2 + Y**2) / (2 * sigma**2))

    n = 257
    norms = [
        _norms(field_from_function(gauss, k))[0]
        for k in (n, 2 * n - 1, 4 * n - 3)
    ]
    ratio = (norms[0] - norms[1]) / (norms[1] - norms[2])
    assert abs(ratio - 4.0) < 0.15
    extrapolated = norms[2] + (norms[2] - norms[1]) / 3.0
    exact = math.sqrt(math.pi * (1.0 + sigma**2))
    assert abs(extrapolated - exact) < 1e-5


def test_norm_equivalence_certificate():
    rep = norm_equivalence_report(standard_bump(512))
    assert rep.passed
    assert rep.max_error < 1e-12
    assert 1.0 <= rep.metadata["equivalence_ratio"] <= math.sqrt(2.0)


def test_cutoff_profile_shape():
    assert cutoff_profile(5.0, 0.0) == 0.0
    # 0 inside r = 1/m^2, 1 outside r = 1/m
    assert cutoff_profile(5.0, 0.04) == pytest.approx(0.0, abs=1e-14)
    assert cutoff_profile(5.0, 0.2) == pytest.approx(1.0, abs=1e-14)
    assert cutoff_profile(5.0, 10.0) == 1.0
    mid = cutoff_profile(5.0, 0.09)
    assert 0.0 < mid < 1.0
    with pytest.raises(ValueError):
        cutoff_profile(1.0, 0.5)


@pytest.mark.parametrize("n", [64, 65, 257, 1024])
@pytest.mark.parametrize("removed_codim", [1, 2])
def test_windowed_removal_errors_match_full_grid(n, removed_codim):
    # m = 1.01: the window is the whole grid; m = 2n: no sample of an
    # even grid lies within 1/m, the window is empty and E(m) is exactly
    # 0.0 (an odd grid keeps its centre sample)
    f = _lopsided(n)
    m_list = [1.01, *M_LIST, 2.0 * n]
    got = removal_errors(f, m_list, removed_codim)
    for m, e in zip(m_list, got):
        ref = _graph_norm(_full_grid_discarded(f, m, removed_codim), f.spacing)
        assert abs(e - ref) <= 1e-13 * ref, (m, e, ref)
    assert (got[-1] == 0.0) == (n % 2 == 0)


@pytest.mark.parametrize("make", [standard_bump, _lopsided])
def test_norm_equivalence_metadata_is_the_standalone_norms(make):
    f = make(512)
    # H1 = sqrt(||f||^2 + ||dx f||^2 + ||dy f||^2), central differences
    # with zero extension
    h1, graph = _norms(f)
    h = f.spacing
    p = np.pad(f.values, 1)
    dx = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * h)
    dy = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * h)
    sq = np.abs(f.values) ** 2 + np.abs(dx) ** 2 + np.abs(dy) ** 2
    assert h1 == pytest.approx(h * math.sqrt(np.sum(sq)), rel=1e-13)
    assert graph == _graph_norm(f.values, h)


def _padded_diff(values, axis, h):
    # the reference central difference: a zero-padded complex copy
    p = np.pad(np.asarray(values, dtype=complex), 1)
    if axis == 0:
        d = p[2:, 1:-1] - p[:-2, 1:-1]
    else:
        d = p[1:-1, 2:] - p[1:-1, :-2]
    return d / (2.0 * h)


def _slabs(shape):
    # the row slabs _strip_sums sums over: whole rows, at most
    # _STRIP_CELLS samples each, at least one row
    n, width = shape
    rows = max(1, stratum_density._STRIP_CELLS // max(width, 1))
    return [np.s_[lo:lo + rows] for lo in range(0, n, rows)]


def _padded_terms(values, h):
    # ||f||^2, ||dx f||^2, ||dy f||^2 and the graph norm, all in complex128,
    # each summed over the same row slabs as the kernels
    values = np.asarray(values, dtype=complex)
    dx, dy = _padded_diff(values, 0, h), _padded_diff(values, 1, h)
    dbar = 0.5 * (dx + 1j * dy)
    l2 = dx_sq = dy_sq = dbar_sq = 0.0
    for rows in _slabs(values.shape):
        l2 += _l2_sq(values[rows], h)
        dx_sq += _l2_sq(dx[rows], h)
        dy_sq += _l2_sq(dy[rows], h)
        dbar_sq += _l2_sq(dbar[rows], h)
    return l2, dx_sq, dy_sq, math.sqrt(l2 + 2.0 * dbar_sq)


def _padded_removal_error(f, m, removed_codim):
    # E(m) on the same box, with the discarded piece formed in complex128
    rect = _discarded_box(f, m, removed_codim)
    x, h = grid_axes(f.size)
    band = rect.cols
    if removed_codim == 2:
        dist = np.hypot(x[band, None], x[None, band])
    else:
        dist = np.abs(x[None, band])
    piece = f.values.astype(complex)[rect.rows, band] * (
        1.0 - cutoff_profile(m, dist))
    return _padded_terms(piece, h)[3]


@pytest.mark.parametrize("n", [64, 65, 100, 1024])
@pytest.mark.parametrize("make", [standard_bump, _lopsided])
def test_kernels_match_the_padded_complex_reference(make, n):
    # the real field's differences, deletion costs and norms are the
    # complex128 ones bit for bit; m = 2n leaves an even grid's box empty
    f = make(n)
    h = f.spacing
    for axis in (0, 1):
        assert np.array_equal(
            _diff(f.values, axis, h), _padded_diff(f.values, axis, h))
    m_list = [1.01, *M_LIST, 2.0 * n]
    for removed_codim in (1, 2):
        got = removal_errors(f, m_list, removed_codim)
        ref = [_padded_removal_error(f, m, removed_codim) for m in m_list]
        assert got == ref
    l2, dx_sq, dy_sq, graph = _padded_terms(f.values, h)
    assert _norms(f) == (math.sqrt(l2 + dx_sq + dy_sq), graph)


@pytest.mark.parametrize("make", [standard_bump, _lopsided])
def test_diff_on_boxes_zero_and_one_sample_wide(make):
    f = make(64)
    h = f.spacing
    for box in (np.s_[:0, :], np.s_[:1, :], np.s_[:2, :], np.s_[:, :0],
                np.s_[:, :1], np.s_[:, 30:32], np.s_[:0, :0]):
        vals = f.values[box]
        for axis in (0, 1):
            got = _diff(vals, axis, h)
            assert got.shape == vals.shape
            assert np.array_equal(got, _padded_diff(vals, axis, h))


def test_grid_field_keeps_a_real_field_real():
    _, h = grid_axes(64)
    assert standard_bump(64).values.dtype == np.float64
    assert _lopsided(64).values.dtype == np.complex128
    assert GridField(np.zeros((64, 64), int), h).values.dtype == np.float64
    assert GridField(
        np.zeros((64, 64), np.complex64), h).values.dtype == np.complex128


def test_norm_equivalence_fails_a_forward_difference(monkeypatch):
    # a forward difference is not antisymmetric, so the dbar cross term
    # survives on a complex field.  On a real field the cross term is zero
    # pointwise, whatever the difference: the bump cannot see the fault.
    f, bump = _lopsided(256), standard_bump(256)
    rep = norm_equivalence_report(f)
    assert rep.passed and rep.max_error <= 1e-12

    calls = []

    def forward(values, axis, h, out=None):
        calls.append(out is not None)
        widths = [(0, 1) if a == axis else (0, 0) for a in range(2)]
        return np.divide(np.diff(np.pad(values, widths), axis=axis), h,
                         out=out)

    monkeypatch.setattr(stratum_density, "_diff", forward)
    rep = norm_equivalence_report(f)
    assert not rep.passed and rep.max_error > 1e-4
    # each slab is differenced along both axes
    slabs = len(_slabs(f.values.shape))
    assert slabs > 1
    assert calls == [False, False] * slabs
    # the real field's differences go into the parts of one complex buffer
    assert norm_equivalence_report(bump).max_error == 0.0
    assert calls == [False, False] * slabs + [True, True] * slabs


def test_norm_equivalence_peak_memory():
    # one float64 grid is 8 MiB at n = 1024.  The bump is its closed form:
    # building it reads only its boundary ring (the support check), and the
    # report samples it one slab of rows at a time beside the slab's
    # complex buffer (dx + i dy, then dbar) and its |.|^2 temporaries.
    # Built whole, the bump took 1.25 grids and the report 1.16 with it.
    grid = 8 * 1024 * 1024
    tracemalloc.start()
    try:
        bump = standard_bump(1024)
        bump_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        norm_equivalence_report(bump)
        report_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bump_peak <= grid / 64, bump_peak / 2**20
    assert report_peak <= 0.25 * grid, report_peak / 2**20


def _density_suite_peak(grid):
    tracemalloc.start()
    try:
        reports = _suite_density(SuiteConfig(suite="density", grid=grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    return peak


def test_density_suite_peak_memory():
    # the whole density suite: the grid-n and grid-n // 2 bumps and every
    # deletion box's discarded piece are sampled one slab of rows at a
    # time, so the peak is a few slabs' buffers and does not grow with the
    # grid.  With the bumps built whole it read 1.52 grids at 1024 (4.00
    # with whole-grid dbar buffers), and 3.7 times as much at 2048.
    grid = 8 * 1024 * 1024
    peak = _density_suite_peak(1024)
    assert peak <= 0.25 * grid, peak / grid
    assert _density_suite_peak(2048) <= 1.5 * peak


def _whole_bump(n, radius=0.8):
    # the bump built whole, in one n-by-n buffer: rho^2, then the bump in
    # place inside R
    x, _ = grid_axes(n)
    x_sq = x * x
    out = np.add.outer(x_sq, x_sq)
    inside = out < radius * radius
    np.subtract(radius * radius, out, out=out, where=inside)
    np.divide(-1.0, out, out=out, where=inside)
    np.exp(out, out=out, where=inside)
    out[~inside] = 0.0
    return out


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


class _CheckedReads:
    # a sampled box that holds every slab read against the whole array:
    # the same bits, and every row read
    def __init__(self, rect, whole):
        self.rect, self.whole, self.shape = rect, whole, rect.shape
        self.rows_read = np.zeros(rect.shape[0], bool)

    def __getitem__(self, rows):
        got, want = self.rect[rows], self.whole[rows]
        assert got.dtype == want.dtype == np.float64
        assert _bits_equal(got, want)
        self.rows_read[rows] = True
        return got


@pytest.mark.parametrize("n", [64, 65, 1024, 1025, 2048])
@pytest.mark.parametrize("rows", [1, 7, None])
def test_sampled_bump_and_box_rows_are_the_whole_arrays(monkeypatch, n, rows):
    # every slab the norms read of the bump, and of each deletion box's
    # discarded piece, is the whole array's rows bit for bit, at strips of
    # 1, 7 and all rows; and values is the whole bump, as the benchmark's
    # grid counters read it
    whole = _whole_bump(n)
    f = standard_bump(n)
    assert isinstance(f.values, np.ndarray) and f.size == n
    assert f.values.nbytes == n * n * 8
    assert _bits_equal(f.values, whole)
    x, h = grid_axes(n)
    rects = [(f._samples, whole)]
    for m in M_LIST:
        for removed_codim in (1, 2):
            rect = _discarded_box(f, m, removed_codim)
            band = rect.cols
            dist = (np.hypot(x[band, None], x[None, band])
                    if removed_codim == 2 else np.abs(x[None, band]))
            piece = whole[rect.rows, band] * (1.0 - cutoff_profile(m, dist))
            assert _bits_equal(rect[:, :], piece)
            rects.append((rect, piece))
    for rect, want in rects:
        height, width = rect.shape
        monkeypatch.setattr(stratum_density, "_STRIP_CELLS",
                            (rows or height) * width)
        reads = _CheckedReads(rect, want)
        _strip_sums(reads, h)
        assert reads.rows_read.all()


def _whole_dbar(values, h):
    # dbar over the whole array at once, as one buffer
    if np.iscomplexobj(values):
        return 0.5 * (_diff(values, 0, h) + 1j * _diff(values, 1, h))
    dbar = _diff_buffer(values, h)
    dbar *= 0.5
    return dbar


@pytest.mark.parametrize("n", [65, 1025])
@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("make", [standard_bump, _lopsided])
@pytest.mark.parametrize("box", ["grid", "line"])
def test_strip_sums_do_not_depend_on_the_strip_height(
        monkeypatch, n, rows, make, box):
    # slabs of 1, 7 and all n rows, over the whole grid and over the line
    # box at m = e (every row, about 0.37 of the columns); the sums read
    # the field's own samples (the bump's closed form, the complex field's
    # array) and the box's on-demand piece, the references their arrays
    f = make(n)
    h = f.spacing
    rect = f._samples if box == "grid" else _discarded_box(f, math.e, 1)
    values = rect[:, :]
    height, width = values.shape
    rows = rows or height
    monkeypatch.setattr(stratum_density, "_STRIP_CELLS", rows * width)
    seen = []

    def spy(vals, h):
        # per slab, the sums are taken in the order dx, dy, dbar, f
        seen.append(np.array(vals) if len(seen) % 4 == 2 else None)
        return _l2_sq(vals, h)

    monkeypatch.setattr(stratum_density, "_l2_sq", spy)
    sums = _strip_sums(rect, h)
    assert len(seen) == 4 * -(-height // rows)
    dbar = _whole_dbar(values, h)
    assert np.array_equal(np.concatenate(seen[2::4]), dbar)
    dx, dy = _diff(values, 0, h), _diff(values, 1, h)
    for got, a in zip(sums, (values, dx, dy, dbar)):
        ref = h * h * np.sum(np.abs(a) ** 2)
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_removal_errors_input_validation():
    f = standard_bump(512)
    with pytest.raises(ValueError):
        removal_errors(f, M_LIST, removed_codim=3)
    with pytest.raises(ValueError):
        removal_errors(GridField(np.zeros((64, 64)), 0.1), M_LIST)


def _demo(f, m_list):
    return removal_density_demo(f, m_list, removal_errors(f, m_list))


def test_removal_demo_frozen_values(bump_1024):
    rep = _demo(bump_1024, M_LIST)
    assert rep.passed
    frozen = [0.363258, 0.260803, 0.204862, 0.140086]
    assert np.allclose(rep.metadata["errors"], frozen, atol=2e-6)
    errs = rep.metadata["errors"]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert rep.metadata["rate_exponent"] == pytest.approx(1.2995, abs=2e-3)
    assert 0.5 <= rep.metadata["rate_exponent"] <= 2.0
    # 1024 grid resolves the inner radius only up to m just under 16
    assert rep.metadata["min_unresolved_m"] == pytest.approx(math.e**3)


def test_capacity_constant_oracle(bump_1024):
    # independent prediction: E(m) * sqrt(log m) -> sqrt(pi) * f(0)
    resolved = [math.e, math.e**2]
    errors = removal_errors(bump_1024, resolved)
    predicted = math.sqrt(math.pi) * math.exp(-1.0 / 0.64)
    for e, m in zip(errors, resolved):
        assert abs(e * math.sqrt(math.log(m)) / predicted - 1.0) < 0.05


def test_line_contrast_certificate(bump_1024):
    rep = line_removal_contrast(
        bump_1024, M_LIST, removal_errors(bump_1024, M_LIST))
    assert rep.passed
    line = rep.metadata["line_errors"]
    assert min(line) > 10 * rep.metadata["floor"]
    # no decay trend for the codimension-1 deletion
    assert line[-1] > line[0]


def test_far_support_trivial_zero():
    def shifted(X, Y):
        rho_sq = (X - 0.5) ** 2 + (Y - 0.5) ** 2
        out = np.zeros_like(rho_sq)
        inside = rho_sq < 0.09
        out[inside] = np.exp(-1.0 / (0.09 - rho_sq[inside]))
        return out

    g = field_from_function(shifted, 512)
    assert removal_errors(g, M_LIST) == [0.0, 0.0, 0.0, 0.0]


def test_refinement_study_is_stable(bump_1024):
    errors = removal_errors(bump_1024, M_LIST)
    rep = refinement_study(bump_1024, standard_bump(512), M_LIST, errors)
    assert rep.passed
    assert rep.max_error < 0.10
    assert (rep.metadata["coarse_grid"], rep.metadata["fine_grid"]) == (
        512, 1024)
    assert rep.metadata["resolved_m"] == [math.e, math.e**2]
    assert rep.metadata["skipped_m"] == [math.e**3, math.e**4]
    # the fine costs are the ones passed in, not recomputed
    assert rep.metadata["fine_errors"] == errors[:2]


def test_refinement_study_rejects_a_coarse_grid_that_is_not_coarser(
        bump_1024):
    errors = removal_errors(bump_1024, M_LIST)
    with pytest.raises(ValueError):
        refinement_study(bump_1024, bump_1024, M_LIST, errors)


def _check_m_list_rejections(certify, f):
    # the cost vector is well formed, so each rejection is the
    # certificate's own check of m_list
    for m_list in ([math.e**2, math.e], [0.5, math.e], [math.e]):
        with pytest.raises(ValueError):
            certify(f, m_list, [0.3] * len(m_list))
    with pytest.raises(ValueError):
        certify(f, M_LIST, [0.3, 0.2])


def test_demo_input_validation(bump_1024):
    _check_m_list_rejections(removal_density_demo, bump_1024)


def test_contrast_and_refinement_input_validation(bump_1024):
    _check_m_list_rejections(line_removal_contrast, bump_1024)
    coarse = standard_bump(512)
    _check_m_list_rejections(
        lambda f, m_list, errors: refinement_study(f, coarse, m_list, errors),
        bump_1024,
    )


def test_demo_rejects_repeated_cutoff_indices():
    # a tie leaves the rate fit ill-posed, so it is an input error, not a
    # FAIL with a meaningless rate
    with pytest.raises(ValueError):
        removal_density_demo(standard_bump(128), [3.0, 3.0], [0.3, 0.3])
    with pytest.raises(ValueError):
        removal_density_demo(
            standard_bump(128), [math.e, 3.0, 3.0], [0.3, 0.2, 0.2])


def test_removal_demo_fails_when_a_cutoff_deletes_nothing():
    # on the 64 grid no sample lies within 1/e^4 of the origin, so E(e^4)
    # is exactly 0 and log E(m) has no rate to fit
    rep = _demo(standard_bump(64), M_LIST)
    assert rep.metadata["errors"][-1] == 0.0
    assert not rep.passed
    assert rep.max_error == 1.0
    assert rep.metadata["rate_exponent"] is None
    assert "not positive and finite" in rep.metadata["failure"]


def test_removal_demo_fails_on_a_non_finite_cost():
    values = standard_bump(256).values.copy()
    values[128, 128] = np.nan
    rep = _demo(GridField(values, grid_axes(256)[1]), M_LIST)
    assert not rep.passed
    assert rep.metadata["rate_exponent"] is None
    assert "failure" in rep.metadata


def test_removal_demo_passing_report_has_no_failure(bump_1024):
    rep = _demo(bump_1024, M_LIST)
    assert rep.passed
    assert "failure" not in rep.metadata


def test_line_contrast_fails_on_a_nan_line_cost(monkeypatch, bump_1024):
    # one line-deletion cost past the first is NaN
    point_errors = removal_errors(bump_1024, M_LIST)
    real = stratum_density.removal_errors

    def nan_line(f, m_list, removed_codim=2):
        errors = real(f, m_list, removed_codim)
        errors[1] = math.nan
        return errors

    monkeypatch.setattr(stratum_density, "removal_errors", nan_line)
    rep = line_removal_contrast(bump_1024, M_LIST, point_errors)
    assert rep.passed is False
    assert "failure" in rep.metadata


def test_grid_refinement_fails_on_a_nan_coarse_cost(monkeypatch, bump_1024):
    # the last resolved coarse cost is NaN, so is the last relative shift
    errors = removal_errors(bump_1024, M_LIST)
    real = stratum_density.removal_errors

    def nan_last(f, m_list, removed_codim=2):
        costs = real(f, m_list, removed_codim)
        costs[-1] = math.nan
        return costs

    monkeypatch.setattr(stratum_density, "removal_errors", nan_last)
    rep = refinement_study(bump_1024, standard_bump(512), M_LIST, errors)
    assert len(rep.metadata["resolved_m"]) > 1
    assert rep.passed is False
    assert "failure" in rep.metadata
