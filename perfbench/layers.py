"""Per-layer metrics of the traced run, named after quantlab's modules.

Stats are ``calls`` (a count), ``busy_s`` (inclusive time) and ``self_s``
(busy time minus the time covered by traced children).  The comment over
each group names the end-to-end metric and workload it should move.  Every
traced run reports every metric, so a layer a workload never reaches reads
0 there.
"""

from __future__ import annotations

import math

from workloads import SWEEP, WORKLOADS

TRACED = (
    # lie_core -> wall_s on sampling-density; the gram workload makes few
    # of these calls
    ("lie_core.adjoint_action", ("calls", "busy_s")),
    ("lie_core.GroupPoint.is_unitary", ("calls", "busy_s")),
    ("lie_core.exp_alg", ("calls", "busy_s")),
    ("lie_core.random_group_point", ("calls", "busy_s")),
    ("lie_core.alg_to_matrix", ("calls", "busy_s")),
    # lie_core.unitary_log -> wall_s on gram (one call per Haar node)
    ("lie_core.unitary_log", ("calls", "busy_s")),
    # kahler_geom -> wall_s on sampling-density
    ("kahler_geom.dphi_matrix", ("calls", "busy_s")),
    ("kahler_geom.dphi_batch", ("calls", "busy_s")),
    ("kahler_geom.complex_structure_batch", ("busy_s",)),
    ("kahler_geom.completeness_certificate", ("busy_s",)),
    # quadrature -> wall_s on gram (Haar rule for su2, Gaussian for t2)
    ("quadrature.su2_haar_rule", ("calls", "busy_s")),
    ("quadrature.gaussian_rule", ("calls", "busy_s")),
    ("quadrature.radial_rule", ("calls", "busy_s")),
    # density_weights -> wall_s on sampling-density
    ("density_weights.eta_log_convexity_certificate", ("busy_s",)),
    ("density_weights.weyl_denominator", ("calls", "busy_s")),
    ("density_weights.eta_tilde", ("calls", "busy_s")),
    # psh_analysis -> wall_s on sampling-density (a small share)
    ("psh_analysis.theta_spectrum", ("calls", "busy_s")),
    ("psh_analysis.theta_matrix_oracle", ("calls", "busy_s")),
    # coherent_transform -> wall_s and peak_rss_mb on gram (su2); the self
    # time of unitarity_certificate is the Gram contraction
    ("coherent_transform.unitarity_certificate", ("busy_s", "self_s")),
    ("coherent_transform.Irrep.rep_unitary", ("calls", "busy_s")),
    # coherent_transform -> wall_s on gram (t2)
    ("coherent_transform.build_sigma_table", ("calls", "busy_s")),
    ("coherent_transform.sigma", ("calls", "busy_s")),
    ("coherent_transform.group_action", ("calls", "busy_s")),
    ("coherent_transform.character_gram", ("calls", "busy_s")),
    ("coherent_transform.equivariance_certificate", ("busy_s", "self_s")),
    ("coherent_transform.spin_weighted_gram", ("busy_s",)),
    # reduction -> wall_s on sampling-density
    ("reduction.momentum_map", ("calls", "busy_s")),
    ("reduction.torus_representative", ("calls", "busy_s")),
    ("reduction.weyl_canonicalize", ("calls", "busy_s")),
    ("reduction.reduction_unitary", ("calls", "busy_s")),
    ("reduction.qr_commutes_certificate", ("busy_s", "self_s")),
    # stratum_density -> wall_s and peak_rss_mb on sampling-density only
    ("stratum_density.puncture", ("calls", "busy_s")),
    ("stratum_density.dolbeault_graph_norm", ("calls", "busy_s")),
    ("stratum_density.h1_norm", ("calls", "busy_s")),
    ("stratum_density.standard_bump", ("calls", "busy_s")),
    # cli_report -> wall_s on every workload; run_suite's self time is the
    # orchestration math still inside cli_report (ROADMAP item 3 moves it
    # out, which predicts no change in wall_s)
    ("cli_report.run_suite", ("calls", "busy_s", "self_s")),
    ("cli_report.render_json", ("busy_s",)),
    ("cli_report.render_csv", ("busy_s",)),
    ("cli_report.render_svg", ("busy_s",)),
    ("report.CheckReport.from_error", ("calls",)),
)

# name -> (unit, better); stats are all lower-is-better
EXTRA = {
    "quadrature.rule_repeat_frac": ("ratio", "lower"),
    "coherent_transform.sigma_repeat_frac": ("ratio", "lower"),
    "stratum_density.grid_cells": ("count", "lower"),
    "stratum_density.bytes_computed": ("B", "lower"),
    "report.exact_zero_checks": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

SUITES = sorted({run.key for w in WORKLOADS.values() for run in w.runs})

STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def _fmt_cutoff(c: float) -> str:
    return f"cutoff-{c:.1f}"


def catalogue() -> list[dict]:
    """Every per-layer metric as it appears in BENCHMARK.json."""
    out = []
    for fn, stats in TRACED:
        for stat in stats:
            out.append({"name": f"{fn}.{stat}", "unit": STAT_UNITS[stat],
                        "better": "lower"})
    for name, (unit, better) in EXTRA.items():
        out.append({"name": name, "unit": unit, "better": better})
    for key in SUITES:
        out.append({"name": f"suite.{key}.busy_s", "unit": "s",
                    "better": "lower"})
    for name, sweep in SWEEP.items():
        for c in sweep.cutoffs:
            out.append({"name": f"scaling.{name}.{_fmt_cutoff(c)}.busy_s",
                        "unit": "s", "better": "lower"})
        out.append({"name": f"scaling.{name}.cost_exponent",
                    "unit": "log/log", "better": "lower"})
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def cost_exponent(points: list[dict]) -> float:
    """Least-squares slope of log busy_s against log basis size."""
    xs = [math.log(p["basis"]) for p in points]
    ys = [math.log(p["busy_s"]) for p in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def layer_metrics(traced: dict, overhead: float, sweep: dict) -> dict:
    """The traced child's totals and counters as named metrics."""
    totals, counters = traced["totals"], traced["counters"]
    values = {}
    for fn, stats in TRACED:
        t = totals.get(fn, {})
        for stat in stats:
            values[f"{fn}.{stat}"] = t.get(stat, 0)
    values["quadrature.rule_repeat_frac"] = _ratio(
        counters.get("quadrature.rule_repeats", 0),
        counters.get("quadrature.rule_builds", 0))
    values["coherent_transform.sigma_repeat_frac"] = _ratio(
        counters.get("coherent_transform.sigma_repeats", 0),
        counters.get("coherent_transform.sigma_builds", 0))
    values["stratum_density.grid_cells"] = counters.get(
        "stratum_density.grid_cells", 0)
    values["stratum_density.bytes_computed"] = counters.get(
        "stratum_density.bytes_computed", 0)
    values["report.exact_zero_checks"] = sum(
        c["exact_zero"] for s in traced["suites"] for c in s["checks"])
    values["trace.overhead_frac"] = overhead
    for key in SUITES:
        values[f"suite.{key}.busy_s"] = totals.get(
            f"suite.{key}", {}).get("busy_s", 0)
    for name, points in sweep.items():
        for p in points:
            values[f"scaling.{name}.{_fmt_cutoff(p['cutoff'])}.busy_s"] = \
                p["busy_s"]
        values[f"scaling.{name}.cost_exponent"] = cost_exponent(points)
    units = {m["name"]: m["unit"] for m in catalogue()}
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}
