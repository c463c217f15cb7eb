"""Command-line orchestration: run certificate suites, emit reports.

``quantlab run`` calls the certificates of the other modules in named
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
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .coherent_transform import (
    build_sigma_table,
    equivariance_certificate,
    sigma,  # not called here: the benchmark tracer's self-test patches it
    sigma_oracle_certificate,
    spin_weighted_gram,
    top_label,
    transform_bytes,
    unitarity_certificate,
)
from .density_weights import eta_log_convexity_certificate
from .kahler_geom import (
    completeness_certificate,
    j_squared_certificate,
    omega_potential_certificate,
    polar_differential_certificate,
)
from .lie_core import _BUILDERS, get_model
from .psh_analysis import (
    canonical_semi_negativity_certificate,
    oracle_agreement_certificate,
    spectrum_curve_certificate,
    twist_positivity_certificate,
    wall_limit_certificate,
)
from .quadrature import gaussian_rule
from .reduction import (
    momentum_equivariance_certificate,
    qr_commutes_certificate,
    reduction_bytes,
    round_trip_certificate,
    weyl_isometry_certificate,
)
from .report import CheckReport
from .stratum_density import (
    line_removal_contrast,
    norm_equivalence_report,
    refinement_study,
    removal_density_demo,
    removal_errors,
    standard_bump,
)

MODEL_NAMES = tuple(_BUILDERS)
DENSITY_M_LIST = (math.e, math.e**2, math.e**3, math.e**4)
# suites whose reports carry nothing render_svg can plot
UNPLOTTABLE_SUITES = ("kahler", "transform")
REPORT_SCHEMA = "quantlab.report.v1"
# the transform and reduction suites are refused where transform_bytes or
# reduction_bytes estimates more
MEMORY_BUDGET = 2 * 2**30
EXIT_CRASH = 3


class UsageError(Exception):
    """Bad invocation: unknown names, malformed config, empty input."""


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a suite run depends on.

    ``cutoff`` defaults to None, meaning each certificate keeps its own
    default cutoff.  No setting reaches a tolerance: each certificate pins
    its own.  The transform and reduction suites (alone or in "all") are
    refused when ``transform_bytes`` or ``reduction_bytes`` puts them past
    ``MEMORY_BUDGET``, and the transform suite on a torus when its
    Gauss-Hermite rule at ``gauss_level`` has a non-finite weight.
    """

    model: str = "su2"
    suite: str = "all"
    seed: int = 0
    cutoff: float | None = None
    level: int = 3
    grid: int = 1024
    out: str | None = None

    @property
    def gauss_level(self) -> int:
        """The Gauss level of sigma_oracle and spin_gram: at least 4."""
        return max(self.level, 4)

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
        if self.seed < 0:
            raise UsageError("seed must be a non-negative integer")
        # an infinite cutoff sizes no basis
        if self.cutoff is not None and not 0 < self.cutoff < math.inf:
            raise UsageError("cutoff override must be positive and finite")
        if self.cutoff is not None:
            model = get_model(self.model)
            top = top_label(model, self.cutoff)
            if not np.any(top):
                raise UsageError(
                    f"cutoff {self.cutoff:g} leaves a single irrep label on "
                    f"{self.model}, and a one-label basis passes every check "
                    "trivially"
                )
            # every transform and reduction Gram is divided by the
            # closed-form sigma, which grows as e^{|n|^2 / 2 pi}
            if not np.isfinite(build_sigma_table(model, [top])[0]):
                raise UsageError(
                    f"cutoff {self.cutoff:g} puts the sigma of label {top} "
                    f"on {self.model} past the largest double"
                )
        if self.level < 1:
            raise UsageError("quadrature level must be at least 1")
        if self.grid < 64:
            raise UsageError("density grid must have at least 64 points")
        model = get_model(self.model)
        needs = {"transform": transform_bytes(model, self.cutoff,
                                              self.gauss_level),
                 "reduction": reduction_bytes(model, self.cutoff)}
        for suite, need in needs.items():
            if self.suite in (suite, "all") and need > MEMORY_BUDGET:
                raise UsageError(
                    f"the {suite} suite on {self.model} needs about "
                    f"{need / 2**30:.1f} GiB here, past its budget of "
                    f"{MEMORY_BUDGET / 2**30:g} GiB")
        if self.suite in ("transform", "all"):
            # torus sigmas and Gaussian tables sum on Gauss-Hermite nodes,
            # whose weights overflow from some number of points on
            with np.errstate(all="ignore"):
                if model.is_abelian and not np.isfinite(
                        gaussian_rule(self.gauss_level)[1]).all():
                    raise UsageError(f"the Gauss-Hermite rule of level "
                                     f"{self.gauss_level} has a weight that "
                                     "is not a finite double")


_CONFIG_PARSERS = {
    "model": str,
    "suite": str,
    "seed": int,
    "cutoff": float,
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


def _suite_kahler(cfg: SuiteConfig) -> list[CheckReport]:
    model = get_model(cfg.model)
    # j_squared and polar_differential draw from one stream, in this order
    rng = np.random.default_rng(cfg.seed)
    return [
        j_squared_certificate(model, rng, cfg.seed),
        omega_potential_certificate(model),
        completeness_certificate(model, seed=cfg.seed),
        polar_differential_certificate(
            model, rng, cfg.seed, samples=100 if model.is_abelian else 1000),
    ]


def _suite_psh(cfg: SuiteConfig) -> list[CheckReport]:
    model = get_model(cfg.model)
    return [
        eta_log_convexity_certificate(),
        canonical_semi_negativity_certificate(model),
        twist_positivity_certificate(model),
        oracle_agreement_certificate(model),
        wall_limit_certificate(model),
        spectrum_curve_certificate(model),
    ]


def _suite_transform(cfg: SuiteConfig) -> list[CheckReport]:
    # a cutoff of None keeps each certificate's DEFAULT_CUTOFF for the model
    model = get_model(cfg.model)
    return [
        sigma_oracle_certificate(model, cfg.cutoff, level=cfg.gauss_level),
        unitarity_certificate(model, cutoff=cfg.cutoff, level=cfg.level),
        equivariance_certificate(model, cutoff=cfg.cutoff, seed=cfg.seed),
        spin_weighted_gram(model, cutoff=cfg.cutoff, level=cfg.gauss_level),
    ]


def _suite_reduction(cfg: SuiteConfig) -> list[CheckReport]:
    model = get_model(cfg.model)
    # the round trips keep drawing from the momentum check's stream
    rng = np.random.default_rng(cfg.seed)
    return [
        momentum_equivariance_certificate(model, rng, cfg.seed),
        round_trip_certificate(model, rng, cfg.seed),
        weyl_isometry_certificate(model),
        qr_commutes_certificate(model, cutoff=cfg.cutoff),
    ]


def _suite_density(cfg: SuiteConfig) -> list[CheckReport]:
    # each grid is built once and each point-deletion cost E(m) is
    # computed once, then shared by the three certificates that read it
    bump = standard_bump(cfg.grid)
    errors = removal_errors(bump, DENSITY_M_LIST)
    return [
        norm_equivalence_report(bump),
        removal_density_demo(bump, DENSITY_M_LIST, errors),
        line_removal_contrast(bump, DENSITY_M_LIST, errors),
        refinement_study(
            bump, standard_bump(cfg.grid // 2), DENSITY_M_LIST, errors
        ),
    ]


_SUITE_RUNNERS = {
    "kahler": _suite_kahler,
    "psh": _suite_psh,
    "transform": _suite_transform,
    "reduction": _suite_reduction,
    "density": _suite_density,
}
SUITE_NAMES = (*_SUITE_RUNNERS, "all")


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    """Run the selected suite(s) and return their reports unchanged: each
    certificate builds its metadata from JSON values only.  A check that
    misses its tolerance is reported as a FAIL; an exception inside a
    suite propagates to the caller (``quantlab run`` exits 3)."""
    names = _SUITE_RUNNERS if config.suite == "all" else (config.suite,)
    reports = []
    for name in names:
        reports.extend(_SUITE_RUNNERS[name](config))
    return reports


# ---------------------------------------------------------------------------
# emission


def _config_dict(config: SuiteConfig) -> dict:
    # the output path is not part of the computation: leaving it out keeps
    # reports byte-identical wherever they are written
    return {f.name: getattr(config, f.name)
            for f in fields(SuiteConfig) if f.name != "out"}


# JSON has no NaN or infinity: a non-finite float is written as the string
# of its repr, and parse_reports reads each such string back as the float
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _encode_non_finite(obj):
    # obj with every non-finite float replaced by its string
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, dict):
        return {k: _encode_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_non_finite(v) for v in obj]
    return obj


def _strict_dumps(obj, **kwargs) -> str:
    # json.dumps with no bare NaN or Infinity token; reports are walked
    # for non-finite floats only when the plain dump meets one
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        return json.dumps(_encode_non_finite(obj), allow_nan=False, **kwargs)


def _decode_non_finite(obj):
    # the inverse of _encode_non_finite
    if isinstance(obj, str):
        return _NON_FINITE.get(obj, obj)
    if isinstance(obj, dict):
        return {k: _decode_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_non_finite(v) for v in obj]
    return obj


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
    return _strict_dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_reports(text: str) -> list[CheckReport]:
    """Inverse of render_json, up to the config echo: the strings "nan",
    "inf" and "-inf" in ``tolerance``, ``max_error`` and the metadata
    read back as floats.  Input that is not such a document is a usage
    error: not JSON, ``checks`` not a list of objects, a missing key, a
    ``metadata`` that is not an object, or a ``pass`` that the check's
    own numbers contradict."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"report is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise UsageError("not a recognized report document")
    checks = doc.get("checks")
    if not isinstance(checks, list):
        raise UsageError("report 'checks' must be a list")
    reports = []
    for index, c in enumerate(checks):
        try:
            reports.append(CheckReport(
                check_id=c["check_id"],
                citation=c["citation"],
                tolerance=_decode_non_finite(c["tolerance"]),
                max_error=_decode_non_finite(c["max_error"]),
                passed=c["pass"],
                metadata=_decode_non_finite(c["metadata"]),
            ))
        except KeyError as exc:
            raise UsageError(f"check {index} lacks key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise UsageError(f"check {index} is malformed: {exc}") from exc
        if not isinstance(reports[-1].metadata, dict):
            raise UsageError(f"check {index}: metadata is not an object")
    return reports


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
                _strict_dumps(r.metadata, sort_keys=True),
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


def _line_panel(out, y0, title, series, log=False):
    # both axes on a log10 scale when ``log``, both linear otherwise
    w, h = 560, 240
    pad = 50
    out.append(
        f'<text x="10" y="{y0 + 18}" font-size="14" '
        f'font-family="monospace">{title}</text>'
    )
    def scaled(v):
        return np.log10(np.maximum(v, 1e-300)) if log else v

    all_x = np.concatenate([scaled(s[1]) for s in series])
    all_y = np.concatenate([scaled(s[2]) for s in series])
    xmin, xmax = float(all_x.min()), float(all_x.max())
    ymin, ymax = float(all_y.min()), float(all_y.max())
    if xmax - xmin < 1e-12:
        xmax = xmin + 1.0
    if ymax - ymin < 1e-12:
        ymax = ymin + 1.0

    def px(v):
        return pad + (v - xmin) / (xmax - xmin) * (w - 2 * pad)

    def py(v):
        return y0 + h - pad - (v - ymin) / (ymax - ymin) * (h - 2 * pad)

    out.append(
        f'<rect x="{pad}" y="{y0 + pad}" width="{w - 2 * pad}" '
        f'height="{h - 2 * pad}" fill="none" stroke="#888"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        xlabel, ylabel = (_fmt(10**v if log else v) for v in (xv, yv))
        out.append(
            f'<text x="{_fmt(px(xv))}" y="{y0 + h - pad + 16}" '
            f'font-size="10" text-anchor="middle" '
            f'font-family="monospace">{xlabel}</text>'
        )
        out.append(
            f'<text x="{pad - 6}" y="{_fmt(py(yv) + 3)}" '
            f'font-size="10" text-anchor="end" '
            f'font-family="monospace">{ylabel}</text>'
        )
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    for k, (name, xs, ys) in enumerate(series):
        pts = " ".join(
            f"{_fmt(px(a))},{_fmt(py(b))}"
            for a, b in zip(scaled(xs), scaled(ys))
        )
        color = palette[k % len(palette)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{w - pad - 4}" y="{y0 + pad + 14 + 13 * k}" '
            f'font-size="11" text-anchor="end" fill="{color}" '
            f'font-family="monospace">{name}</text>'
        )
    return h + 30


def _heatmap_panel(out, y0, title, matrices):
    cell = 18
    out.append(
        f'<text x="10" y="{y0 + 18}" font-size="14" '
        f'font-family="monospace">{title}</text>'
    )
    xoff = 20
    height = 0
    for name, mat in matrices:
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


def _numbers(check_id: str, key: str, value, ndim: int = 1) -> np.ndarray:
    # a saved report is untrusted input: metadata that cannot be drawn is
    # refused as a usage error that names the check, not met by a traceback
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.ndim != ndim or not arr.size or arr.shape != arr.shape[:1] * ndim:
        shape = "square matrix" if ndim == 2 else "list"
        raise UsageError(f"check {check_id}: metadata {key} is not a "
                         f"non-empty {shape} of numbers")
    return arr


def _curve(check_id: str, name: str, x: tuple, y: tuple) -> tuple:
    # one series of a line panel from two (metadata key, value) pairs
    xs, ys = _numbers(check_id, *x), _numbers(check_id, *y)
    if len(xs) != len(ys):
        raise UsageError(f"check {check_id}: metadata {y[0]} has "
                         f"{len(ys)} values for the {len(xs)} of {x[0]}")
    return name, xs, ys


def render_svg(reports: list[CheckReport]) -> str:
    """One self-contained SVG sheet: deletion-cost curves, curvature
    spectra over their scan grid, and Gram heatmaps, for every report
    that carries the matching metadata.  Plotted metadata that is not
    numbers of the right shape is a usage error naming its check."""
    if not reports:
        raise UsageError("no reports to emit")
    body: list[str] = []
    y = 10
    width = 620
    for r in reports:
        md, cid = r.metadata, r.check_id
        if "errors" in md and "m_list" in md:
            y += _line_panel(
                body, y,
                f"{cid}: deletion cost vs cutoff index",
                [_curve(cid, "E(m)", ("m_list", md["m_list"]),
                        ("errors", md["errors"]))],
                log=True,
            )
        elif "line_errors" in md and "m_list" in md:
            y += _line_panel(
                body, y,
                f"{cid}: line vs point deletion",
                [_curve(cid, name, ("m_list", md["m_list"]),
                        (f"{name}_errors", md.get(f"{name}_errors")))
                 for name in ("line", "point")],
                log=True,
            )
        elif "spectrum_grid" in md and "spectrum_min" in md:
            spectra = md["spectrum_min"]
            if not isinstance(spectra, dict) or not spectra:
                raise UsageError(f"check {cid}: metadata spectrum_min is "
                                 "not a non-empty object of spectra")
            y += _line_panel(
                body, y,
                f"{cid}: least curvature eigenvalue over the scan",
                [_curve(cid, name, ("spectrum_grid", md["spectrum_grid"]),
                        (f"spectrum_min.{name}", vals))
                 for name, vals in sorted(spectra.items())],
            )
        elif "gram_a" in md and "gram_b" in md:
            y += _heatmap_panel(
                body, y,
                f"{cid}: Gram matrices of the two routes",
                [(label, _numbers(cid, key, md[key], ndim=2))
                 for label, key in (("route A", "gram_a"),
                                    ("route B", "gram_b"))],
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
    helps = {"model": " | ".join(MODEL_NAMES),
             "suite": " | ".join(SUITE_NAMES), "out": "write the report here"}
    for key, parse in _CONFIG_PARSERS.items():
        run_p.add_argument(f"--{key}", type=parse, help=helps.get(key))
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
    for key in _CONFIG_PARSERS:
        override = getattr(args, key)
        if override is not None:
            values[key] = override
    config = SuiteConfig(**values)
    if (args.format == "svg" and config.out
            and config.suite in UNPLOTTABLE_SUITES):
        raise UsageError(
            f"suite {config.suite} has no plottable report; "
            "choose --format json or csv"
        )
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
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
