"""Command-line orchestration: run certificate suites, emit reports.

``quantlab run`` assembles the certificates of the other modules into named
suites, prints one verdict line per check, and optionally serializes the
whole batch.  ``quantlab emit`` re-renders a saved JSON report as CSV or as
a self-contained SVG plot sheet.  Reports are deterministic: the same
config and seed produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .coherent_transform import (
    DEFAULT_CUTOFF,
    PeterWeylVector,
    equivariance_certificate,
    irrep_labels,
    sigma,
    spin_weighted_gram,
    unitarity_certificate,
    _irrep_cached,
)
from .density_weights import eta_log_convexity_certificate
from .kahler_geom import (
    BasePoint,
    completeness_certificate,
    complex_structure_batch,
    dphi_matrix,
    polar_differential_certificate,
)
from .lie_core import (
    GroupPoint,
    adjoint_action,
    algebra_vec,
    coords_from_matrix,
    exp_alg,
    get_model,
    random_group_point,
    torus_point,
)
from .psh_analysis import (
    canonical_semi_negativity_certificate,
    make_potential,
    theta_matrix_oracle,
    theta_spectrum,
    twist_positivity_certificate,
)
from .reduction import (
    momentum_equivariance_certificate,
    qr_commutes_certificate,
    reduction_unitary,
    torus_representative,
    weyl_canonicalize,
    zero_set_point,
)
from .report import CheckReport
from .stratum_density import (
    line_removal_contrast,
    norm_equivalence_report,
    refinement_study,
    removal_density_demo,
    standard_bump,
)

MODEL_NAMES = ("u1", "t2", "su2")
SUITE_NAMES = ("kahler", "psh", "transform", "reduction", "density", "all")
DENSITY_M_LIST = (math.e, math.e**2, math.e**3, math.e**4)
REPORT_SCHEMA = "quantlab.report.v1"
EXIT_CRASH = 3


class UsageError(Exception):
    """Bad invocation: unknown names, malformed config, empty input."""


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a suite run depends on.

    ``cutoff`` and ``tol`` default to None, meaning each certificate keeps
    its own pinned value; ``tol`` only rescales the checks whose tolerance
    the suite passes in (those cli_report assembles, plus the momentum
    equivariance and polar differential certificates), never a module
    certificate's pinned tolerance.
    """

    model: str = "su2"
    suite: str = "all"
    seed: int = 0
    cutoff: float | None = None
    tol: float | None = None
    level: int = 3
    grid: int = 1024
    out: str | None = None

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise UsageError(
                f"unknown model {self.model!r}; choose from "
                + ", ".join(MODEL_NAMES)
            )
        if self.suite not in SUITE_NAMES:
            raise UsageError(
                f"unknown suite {self.suite!r}; choose from "
                + ", ".join(SUITE_NAMES)
            )
        if self.tol is not None and not self.tol > 0:
            raise UsageError("tolerance override must be positive")
        if self.cutoff is not None and not self.cutoff > 0:
            raise UsageError("cutoff override must be positive")
        if self.level < 1:
            raise UsageError("quadrature level must be at least 1")
        if self.grid < 64:
            raise UsageError("density grid must have at least 64 points")


_CONFIG_PARSERS = {
    "model": str,
    "suite": str,
    "seed": int,
    "cutoff": float,
    "tol": float,
    "level": int,
    "grid": int,
    "out": str,
}


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_PARSERS:
                raise UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(sorted(_CONFIG_PARSERS))
                )
            try:
                values[key] = _CONFIG_PARSERS[key](val.strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return values


def _plain(obj):
    # metadata must survive a JSON round trip unchanged
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def _sanitize(report: CheckReport) -> CheckReport:
    return replace(report, metadata=_plain(report.metadata))


# ---------------------------------------------------------------------------
# suite: kahler


def _complex_hessian(fun, n, h=1e-3):
    hess = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):

            def second(part_k, part_l):
                def val(s_k, s_l):
                    zx = np.zeros(n)
                    zy = np.zeros(n)
                    for m, part, s in ((k, part_k, s_k), (l, part_l, s_l)):
                        (zx if part == "x" else zy)[m] += s * h
                    return fun(zx + 1j * zy)

                if k == l and part_k == part_l:
                    return (val(1, 0) - 2 * val(0, 0) + val(-1, 0)) / (h * h)
                return (
                    val(1, 1) - val(1, -1) - val(-1, 1) + val(-1, -1)
                ) / (4 * h * h)

            # d^2/dz_k dzbar_l via Wirtinger combination
            hess[k, l] = 0.25 * (
                second("x", "x")
                + second("y", "y")
                + 1j * (second("x", "y") - second("y", "x"))
            )
    return hess


def _omega_potential_error(model, y_coords):
    import scipy.linalg

    from .kahler_geom import omega_matrix

    n = model.dim
    y = np.asarray(y_coords, float)
    center = exp_alg(
        algebra_vec(model, np.zeros(n)), algebra_vec(model, y)
    ).matrix

    def potential(gmat):
        w, vec = np.linalg.eigh(gmat.conj().T @ gmat)
        coords = coords_from_matrix(
            model, -0.5j * (vec @ np.diag(np.log(w)) @ vec.conj().T)
        )
        return float(np.dot(coords, coords))

    def chart_value(z):
        zmat = sum(z[k] * model.generators[k] for k in range(n))
        return potential(center @ scipy.linalg.expm(zmat))

    hess = _complex_hessian(chart_value, n)
    dphi = dphi_matrix(algebra_vec(model, y))
    om = omega_matrix(model, y)
    za = dphi[:n, :] + 1j * dphi[n:, :]
    rhs = -1j * (za.T @ hess @ np.conj(za) - (za.T @ hess @ np.conj(za)).T)
    return float(
        max(np.abs(om - np.real(rhs)).max(), np.abs(np.imag(rhs)).max())
    )


def _suite_kahler(cfg: SuiteConfig) -> list[CheckReport]:
    model = get_model(cfg.model)
    rng = np.random.default_rng(cfg.seed)
    n = model.dim

    ys = rng.standard_normal((10_000, n)) * 1.5
    js = complex_structure_batch(model, ys)
    j_sq_err = float(np.abs(js @ js + np.eye(2 * n)).max())
    reports = [
        CheckReport.from_error(
            "kahler.j_squared",
            "the pulled-back complex structure squares to -identity at "
            "every base point",
            tolerance=cfg.tol or 1e-10,
            max_error=j_sq_err,
            samples=10_000,
            seed=cfg.seed,
        )
    ]

    if model.is_abelian:
        pts = [0.5 * np.ones(n), -0.3 * np.ones(n)]
    else:
        pts = [np.array([0.1, -0.2, 0.5]), np.array([0.0, 0.0, 1.1])]
    omega_err = max(_omega_potential_error(model, y) for y in pts)
    reports.append(
        CheckReport.from_error(
            "kahler.omega_potential",
            "the symplectic form equals the complex Hessian of |Y|^2 "
            "transported through the polar chart",
            tolerance=cfg.tol or 1e-5,
            max_error=omega_err,
            chart_points=len(pts),
        )
    )

    reports.append(
        completeness_certificate(model, sample_count=10_000, seed=cfg.seed)
    )

    reports.append(
        polar_differential_certificate(
            model, rng, seed=cfg.seed,
            samples=1000 if not model.is_abelian else 100,
            tolerance=cfg.tol or 1e-6,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# suite: psh


_PSH_PRESETS = ("square", "logeta", "combined:6.283185307179586,2")


def _spectra_gap(closed: np.ndarray, oracle: np.ndarray) -> float:
    a = np.sort(closed)
    b = np.sort(oracle)
    scale = max(1e-8, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max() / scale)


def _suite_psh(cfg: SuiteConfig) -> list[CheckReport]:
    model = get_model(cfg.model)
    reports = [
        eta_log_convexity_certificate(),
        canonical_semi_negativity_certificate(model),
        twist_positivity_certificate(
            2 * math.pi, 2.0, model=model
        ),
    ]

    ys = np.linspace(0.15, 2.5, 17)
    worst = 0.0
    points = 0
    for preset in _PSH_PRESETS:
        K = make_potential(model, preset)
        for yval in ys:
            coords = np.zeros(model.dim)
            coords[-1] = yval
            Y = algebra_vec(model, coords)
            closed = theta_spectrum(K, Y).all_values()
            oracle = np.linalg.eigvalsh(theta_matrix_oracle(K, Y))
            worst = max(worst, _spectra_gap(closed, oracle))
            points += 1
    reports.append(
        CheckReport.from_error(
            "psh.oracle_agreement",
            "closed-form curvature eigenvalues agree with the "
            "finite-difference hermitian-operator route at every grid "
            "point, for each potential preset",
            tolerance=cfg.tol or 1e-4,
            max_error=worst,
            grid_points=points,
            presets=list(_PSH_PRESETS),
        )
    )

    wall_worst = 0.0
    if not model.is_abelian:
        yval = 1e-3
        for preset in _PSH_PRESETS:
            K = make_potential(model, preset)
            rep = theta_spectrum(K, algebra_vec(model, [0, 0, yval]))
            hess0 = float(K.hess(np.array([0.0]))[0, 0])
            for (cov,), val in rep.root_eigenvalues:
                ay = cov * yval
                limit = hess0 * (ay / math.tanh(ay) + ay)
                wall_worst = max(wall_worst, abs(val - limit))
    reports.append(
        CheckReport.from_error(
            "psh.wall_limit",
            "next to a reflection wall the root-direction eigenvalue "
            "matches its continuous limit formula",
            tolerance=cfg.tol or 1e-5,
            max_error=wall_worst,
            alpha_y=1e-3,
        )
    )

    grid = np.linspace(-5.0, 5.0, 201)
    curve_pts = grid.reshape(-1, 1)
    if model.rank > 1:
        curve_pts = np.hstack([curve_pts, 0.3 * curve_pts])
    curves = {}
    floor = 0.0
    for preset in ("square", "logeta"):
        K = make_potential(model, preset)
        vals = []
        for row in curve_pts:
            coords = np.zeros(model.dim)
            coords[-model.rank :] = row
            vals.append(
                float(theta_spectrum(K, algebra_vec(model, coords))
                      .min_eigenvalue)
            )
        curves[preset] = vals
        if preset == "square":
            floor = min(vals)
    reports.append(
        CheckReport.from_error(
            "psh.spectrum_curve",
            "the flat potential keeps a nonnegative curvature spectrum "
            "along the scanned slice of the flat directions",
            tolerance=1e-8,
            max_error=max(0.0, -floor),
            spectrum_grid=[float(g) for g in grid],
            spectrum_min=curves,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# suite: transform


def _sigma_closed_form(model, label) -> float:
    if model.is_abelian:
        n = np.asarray(label, float)
        return float(
            math.exp(float(np.dot(n, n)) / (2 * math.pi))
            * 2.0 ** (-model.rank / 2)
        )
    j = float(label)
    a = 2.0 * math.pi
    total = 0.0
    for k in range(int(2 * j) + 1):
        c = (2.0 * (j - k)) / (2 * a)
        total += c / (2 * a) + math.exp(a * c * c) * (
            1 / (2 * a) + c * c
        ) * (math.sqrt(math.pi / a) / 2) * (1 + math.erf(c * math.sqrt(a)))
    dim = int(2 * j + 1)
    return float(4 * math.pi * total / dim)


def _suite_transform(cfg: SuiteConfig) -> list[CheckReport]:
    model = get_model(cfg.model)
    cutoff = cfg.cutoff
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF["abelian" if model.is_abelian else "su2"]
        if model.is_abelian:
            cutoff = 8 if model.rank == 1 else 3

    worst = 0.0
    labels = irrep_labels(model, cutoff if not model.is_abelian else
                          min(cutoff, 8))
    for label in labels:
        ir = _irrep_cached(model.name, label)
        quad = sigma(ir, level=max(cfg.level, 4))
        closed = _sigma_closed_form(model, label)
        worst = max(worst, abs(quad - closed) / closed)
    reports = [
        CheckReport.from_error(
            "transform.sigma_oracle",
            "per-block Gaussian normalization by quadrature matches the "
            "complete-the-square / error-function closed form",
            tolerance=cfg.tol or 1e-10,
            max_error=worst,
            labels=len(labels),
            cutoff=cutoff,
        )
    ]
    reports.append(unitarity_certificate(model, cutoff=cutoff,
                                         level=cfg.level))
    reports.append(
        equivariance_certificate(
            model, cutoff=cutoff, samples=10, seed=cfg.seed
        )
    )
    reports.append(spin_weighted_gram(model, cutoff=cutoff,
                                      level=max(cfg.level, 4)))
    return reports


# ---------------------------------------------------------------------------
# suite: reduction


def _suite_reduction(cfg: SuiteConfig) -> list[CheckReport]:
    model = get_model(cfg.model)
    rng = np.random.default_rng(cfg.seed)

    # the round trips below keep drawing from the same stream
    reports = [
        momentum_equivariance_certificate(
            model, rng, seed=cfg.seed, samples=10_000,
            tolerance=cfg.tol or 1e-10,
        )
    ]

    worst = 0.0
    trips = 200
    for _ in range(trips):
        if model.is_abelian:
            tau = rng.uniform(0, 2 * math.pi, size=model.rank)
            yv = rng.uniform(-2, 2, size=model.rank)
            t0 = torus_point(model, tau)
            y0 = algebra_vec(model, yv)
            p = BasePoint(t0, y0)
            rep = weyl_canonicalize(torus_representative(zero_set_point(p)))
            worst = max(
                worst,
                float(np.abs(rep.t.matrix - t0.matrix).max()),
                float(np.abs(rep.Y0.coords - y0.coords).max()),
            )
            continue
        tau = rng.uniform(0.3, 5.5)
        yv = rng.uniform(-2, 2)
        h0 = random_group_point(model, rng)
        t0 = torus_point(model, [tau])
        y0 = algebra_vec(model, [0, 0, yv])
        g = GroupPoint(model, h0.matrix @ t0.matrix @ h0.matrix.conj().T)
        p = BasePoint(g, adjoint_action(h0, y0))
        rep = weyl_canonicalize(torus_representative(zero_set_point(p)))
        direct = weyl_canonicalize(
            torus_representative(zero_set_point(BasePoint(t0, y0)))
        )
        worst = max(
            worst,
            float(np.abs(rep.t.matrix - direct.t.matrix).max()),
            float(np.abs(rep.Y0.coords - direct.Y0.coords).max()),
        )
    reports.append(
        CheckReport.from_error(
            "reduction.round_trip",
            "conjugating a torus pair by a random element and reducing "
            "recovers the same canonical representative",
            tolerance=cfg.tol or 1e-8,
            max_error=worst,
            samples=trips,
            seed=cfg.seed,
        )
    )

    worst = 0.0
    if model.is_abelian:
        for k in range(4):
            label = tuple([k] + [0] * (model.rank - 1))
            vec = PeterWeylVector(model, 4, {(label, 0, 0): 1.0})
            sec = reduction_unitary(vec)
            worst = max(worst, abs(sec.norm_sq - 1.0))
        count = 4
    else:
        js = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        for j in js:
            d = int(2 * j + 1)
            coeffs = {(j, a, a): 1.0 / math.sqrt(d) for a in range(d)}
            sec = reduction_unitary(PeterWeylVector(model, 3.0, coeffs))
            worst = max(worst, abs(sec.norm_sq - 1.0))
        count = len(js)
    reports.append(
        CheckReport.from_error(
            "reduction.weyl_isometry",
            "restriction to the torus weighted by the absolute Weyl "
            "denominator preserves the norm of every character",
            tolerance=cfg.tol or 1e-6,
            max_error=worst,
            characters=count,
        )
    )

    reports.append(
        qr_commutes_certificate(model, cutoff=cfg.cutoff, level=4)
    )
    return reports


# ---------------------------------------------------------------------------
# suite: density


def _suite_density(cfg: SuiteConfig) -> list[CheckReport]:
    bump = standard_bump(cfg.grid)
    return [
        norm_equivalence_report(bump),
        removal_density_demo(bump, list(DENSITY_M_LIST)),
        line_removal_contrast(bump, list(DENSITY_M_LIST)),
        refinement_study(
            standard_bump, list(DENSITY_M_LIST), coarse=cfg.grid // 2
        ),
    ]


_SUITE_RUNNERS = {
    "kahler": _suite_kahler,
    "psh": _suite_psh,
    "transform": _suite_transform,
    "reduction": _suite_reduction,
    "density": _suite_density,
}


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    """Run the selected suite(s).  A check that misses its tolerance is
    reported as a FAIL; an exception inside a suite propagates to the
    caller (``quantlab run`` turns it into exit code 3)."""
    names = (
        ("kahler", "psh", "transform", "reduction", "density")
        if config.suite == "all"
        else (config.suite,)
    )
    reports = []
    for name in names:
        reports.extend(_SUITE_RUNNERS[name](config))
    return [_sanitize(r) for r in reports]


# ---------------------------------------------------------------------------
# emission


def _config_dict(config: SuiteConfig) -> dict:
    # the output path is not part of the computation: leaving it out keeps
    # reports byte-identical wherever they are written
    return {
        f.name: getattr(config, f.name)
        for f in fields(SuiteConfig)
        if f.name != "out"
    }


def render_json(reports: list[CheckReport],
                config: SuiteConfig | None = None) -> str:
    if not reports:
        raise UsageError("no reports to emit")
    doc = {
        "schema": REPORT_SCHEMA,
        "config": _config_dict(config) if config else None,
        "checks": [
            {
                "check_id": r.check_id,
                "citation": r.citation,
                "tolerance": r.tolerance,
                "max_error": r.max_error,
                "pass": r.passed,
                "metadata": r.metadata,
            }
            for r in reports
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_reports(text: str) -> list[CheckReport]:
    """Inverse of render_json, up to the config echo."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise UsageError("not a recognized report document")
    return [
        CheckReport(
            check_id=c["check_id"],
            citation=c["citation"],
            tolerance=c["tolerance"],
            max_error=c["max_error"],
            passed=c["pass"],
            metadata=c["metadata"],
        )
        for c in doc["checks"]
    ]


def render_csv(reports: list[CheckReport]) -> str:
    if not reports:
        raise UsageError("no reports to emit")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["check_id", "citation", "tolerance", "max_error", "pass",
         "metadata"]
    )
    for r in reports:
        writer.writerow(
            [
                r.check_id,
                r.citation,
                repr(r.tolerance),
                repr(r.max_error),
                "true" if r.passed else "false",
                json.dumps(r.metadata, sort_keys=True),
            ]
        )
    return buf.getvalue()


# .. SVG: hand-rolled panels, no external dependencies


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _color(v: float) -> str:
    # blue (0) -> white (0.5) -> red (1), clamped
    v = min(1.0, max(0.0, v))
    if v < 0.5:
        t = v / 0.5
        r, g, b = int(40 + 215 * t), int(80 + 175 * t), 255
    else:
        t = (v - 0.5) / 0.5
        r, g, b = 255, int(255 - 175 * t), int(255 - 215 * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _line_panel(out, x0, y0, title, series, logx=False, logy=False):
    w, h = 560, 240
    pad = 50
    out.append(
        f'<text x="{x0 + 10}" y="{y0 + 18}" font-size="14" '
        f'font-family="monospace">{title}</text>'
    )
    def tx(vals):
        v = np.asarray(vals, float)
        return np.log10(np.maximum(v, 1e-300)) if logx else v

    def ty(vals):
        v = np.asarray(vals, float)
        return np.log10(np.maximum(v, 1e-300)) if logy else v

    all_x = np.concatenate([tx(s[1]) for s in series])
    all_y = np.concatenate([ty(s[2]) for s in series])
    xmin, xmax = float(all_x.min()), float(all_x.max())
    ymin, ymax = float(all_y.min()), float(all_y.max())
    if xmax - xmin < 1e-12:
        xmax = xmin + 1.0
    if ymax - ymin < 1e-12:
        ymax = ymin + 1.0

    def px(v):
        return x0 + pad + (v - xmin) / (xmax - xmin) * (w - 2 * pad)

    def py(v):
        return y0 + h - pad - (v - ymin) / (ymax - ymin) * (h - 2 * pad)

    out.append(
        f'<rect x="{x0 + pad}" y="{y0 + pad}" width="{w - 2 * pad}" '
        f'height="{h - 2 * pad}" fill="none" stroke="#888"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        xlabel = _fmt(10**xv) if logx else _fmt(xv)
        ylabel = _fmt(10**yv) if logy else _fmt(yv)
        out.append(
            f'<text x="{_fmt(px(xv))}" y="{y0 + h - pad + 16}" '
            f'font-size="10" text-anchor="middle" '
            f'font-family="monospace">{xlabel}</text>'
        )
        out.append(
            f'<text x="{x0 + pad - 6}" y="{_fmt(py(yv) + 3)}" '
            f'font-size="10" text-anchor="end" '
            f'font-family="monospace">{ylabel}</text>'
        )
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    for k, (name, xs, ys) in enumerate(series):
        pts = " ".join(
            f"{_fmt(px(a))},{_fmt(py(b))}"
            for a, b in zip(tx(xs), ty(ys))
        )
        color = palette[k % len(palette)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{x0 + w - pad - 4}" y="{y0 + pad + 14 + 13 * k}" '
            f'font-size="11" text-anchor="end" fill="{color}" '
            f'font-family="monospace">{name}</text>'
        )
    return h + 30


def _heatmap_panel(out, x0, y0, title, matrices):
    cell = 18
    out.append(
        f'<text x="{x0 + 10}" y="{y0 + 18}" font-size="14" '
        f'font-family="monospace">{title}</text>'
    )
    xoff = x0 + 20
    height = 0
    for name, mat in matrices:
        mat = np.asarray(mat, float)
        n = mat.shape[0]
        lo, hi = float(mat.min()), float(mat.max())
        span = max(hi - lo, 1e-12)
        out.append(
            f'<text x="{xoff}" y="{y0 + 38}" font-size="11" '
            f'font-family="monospace">{name} '
            f'[{_fmt(lo)}, {_fmt(hi)}]</text>'
        )
        for i in range(n):
            for j in range(n):
                v = (mat[i, j] - lo) / span
                out.append(
                    f'<rect x="{xoff + j * cell}" '
                    f'y="{y0 + 44 + i * cell}" width="{cell}" '
                    f'height="{cell}" fill="{_color(v)}"/>'
                )
        xoff += n * cell + 40
        height = max(height, 44 + n * cell + 20)
    return height + 10


def render_svg(reports: list[CheckReport]) -> str:
    """One self-contained SVG sheet: deletion-cost curves, curvature
    spectra over their scan grid, and Gram heatmaps, for every report
    that carries the matching metadata."""
    if not reports:
        raise UsageError("no reports to emit")
    body: list[str] = []
    y = 10
    width = 620
    for r in reports:
        md = r.metadata
        if "errors" in md and "m_list" in md:
            y += _line_panel(
                body, 0, y,
                f"{r.check_id}: deletion cost vs cutoff index",
                [("E(m)", md["m_list"], md["errors"])],
                logx=True, logy=True,
            )
        elif "line_errors" in md and "m_list" in md:
            y += _line_panel(
                body, 0, y,
                f"{r.check_id}: line vs point deletion",
                [
                    ("line", md["m_list"], md["line_errors"]),
                    ("point", md["m_list"], md["point_errors"]),
                ],
                logx=True, logy=True,
            )
        elif "spectrum_grid" in md and "spectrum_min" in md:
            series = [
                (name, md["spectrum_grid"], vals)
                for name, vals in sorted(md["spectrum_min"].items())
            ]
            y += _line_panel(
                body, 0, y,
                f"{r.check_id}: least curvature eigenvalue over the scan",
                series,
            )
        elif "gram_a" in md and "gram_b" in md:
            y += _heatmap_panel(
                body, 0, y,
                f"{r.check_id}: Gram matrices of the two routes",
                [("route A", md["gram_a"]), ("route B", md["gram_b"])],
            )
    if not body:
        raise UsageError("no report carries plottable metadata")
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{y + 10}" viewBox="0 0 {width} {y + 10}">'
        f'<rect width="100%" height="100%" fill="white"/>'
    )
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def emit(reports: list[CheckReport], fmt: str, path: str,
         config: SuiteConfig | None = None) -> None:
    """Write the reports to ``path`` in the requested format."""
    if fmt == "json":
        text = render_json(reports, config)
    elif fmt == "csv":
        text = render_csv(reports)
    elif fmt == "svg":
        text = render_svg(reports)
    else:
        raise UsageError(
            f"unknown format {fmt!r}; choose from json, csv, svg"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantlab",
        description="run numerical certificate suites and emit reports",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a certificate suite")
    run_p.add_argument("--config", help="flat key=value config file")
    run_p.add_argument("--model", help="u1 | t2 | su2")
    run_p.add_argument("--suite", help=" | ".join(SUITE_NAMES))
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--cutoff", type=float)
    run_p.add_argument("--tol", type=float)
    run_p.add_argument("--level", type=int)
    run_p.add_argument("--grid", type=int)
    run_p.add_argument("--out", help="write the report here")
    run_p.add_argument(
        "--format", choices=("json", "csv", "svg"), default="json"
    )

    emit_p = sub.add_parser("emit", help="re-render a saved JSON report")
    emit_p.add_argument("--in", dest="infile", required=True)
    emit_p.add_argument(
        "--format", choices=("json", "csv", "svg"), required=True
    )
    emit_p.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    for key in ("model", "suite", "seed", "cutoff", "tol", "level",
                "grid", "out"):
        override = getattr(args, key)
        if override is not None:
            values[key] = override
    config = SuiteConfig(**values)
    try:
        reports = run_suite(config)
    except Exception as exc:
        # a crash is not a verdict: keep it apart from an honest FAIL (1)
        detail = str(exc).splitlines()[0] if str(exc) else ""
        print(
            f"error: suite {config.suite} on model {config.model} crashed: "
            f"{type(exc).__name__}: {detail}",
            file=sys.stderr,
        )
        return EXIT_CRASH
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        print(
            f"[{verdict}] {r.check_id}: max_error={r.max_error:.3e} "
            f"tolerance={r.tolerance:.3e}"
        )
    failed = [r for r in reports if not r.passed]
    print(
        f"{len(reports) - len(failed)}/{len(reports)} checks passed "
        f"(model={config.model}, suite={config.suite}, seed={config.seed})"
    )
    if config.out:
        emit(reports, args.format, config.out, config)
        print(f"wrote {config.out}")
    return 1 if failed else 0


def _cmd_emit(args) -> int:
    with open(args.infile, encoding="utf-8") as fh:
        reports = parse_reports(fh.read())
    emit(reports, args.format, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_emit(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
