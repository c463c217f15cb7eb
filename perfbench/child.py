"""Passes of one workload, in a fresh interpreter.

    python3 perfbench/child.py --mode passes|plain|traced|setup|sweep \
        --workload NAME --seed N --spawned-at T --out FILE [--budget S]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, the import
of ``quantlab`` and building the workload's ``SuiteConfig`` objects.
``wall_s`` runs from the first ``run_suite`` call until the last report is
rendered, and each suite record has its own ``wall_s`` (run and render).
The result is one JSON file at ``--out``.

Modes:

- ``passes``: untraced passes for the end-to-end metrics, for ``--budget``
  seconds.  Each pass is a process forked from this one after the import,
  so it starts from the state a fresh interpreter has after the import,
  with every in-process cache cold, and this process runs no suite itself.
- ``plain``: one untraced pass, next to the traced one.
- ``traced``: the same with every public quantlab function patched by
  ``tracer.Tracer``; also writes the spans next to ``--out``.
- ``setup``: import and build the configs only, for more ``setup_s``
  samples.
- ``sweep``: the cost-versus-cutoff sweep of the su2 certificates.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import inspect
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import SWEEP, WORKLOADS  # noqa: E402

RULES = ("su2_haar_rule", "gaussian_rule", "radial_rule")
GRID_OPS = ("puncture", "dolbeault_graph_norm", "h1_norm", "standard_bump")


PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """Be killed when ``parent``, the process that started this one, ends,
    however it ends, so that no pass outlives the benchmark."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg_key(value):
    # an Irrep is identified by its model and label, anything else by repr
    if hasattr(value, "model") and hasattr(value, "label"):
        return (value.model.name, repr(value.label))
    return repr(value)


def _install_hooks(tracer) -> None:
    """Argument-level counters for the repeat and grid metrics."""
    from quantlab import coherent_transform, quadrature

    seen: set = set()

    def repeat_hook(prefix, func):
        # bind to the signature, so sigma(ir, 4) repeats sigma(ir, level=4)
        sig = inspect.signature(func)

        def hook(tr, args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (func.__name__,) + tuple(
                _arg_key(v) for v in bound.arguments.values())
            tr.count(f"{prefix}_builds")
            if key in seen:
                tr.count(f"{prefix}_repeats")
            seen.add(key)
        return hook

    def grid_hook(tr, args, kwargs, result):
        # standard_bump returns the field it builds; the others read one
        if hasattr(result, "values"):
            field = result
        else:
            field = args[0] if args else kwargs["f"]
        tr.count("stratum_density.grid_cells", field.size ** 2)
        tr.count("stratum_density.bytes_computed", field.values.nbytes)

    for rule in RULES:
        tracer.arg_hooks[f"quadrature.{rule}"] = repeat_hook(
            "quadrature.rule", getattr(quadrature, rule))
    tracer.arg_hooks["coherent_transform.sigma"] = repeat_hook(
        "coherent_transform.sigma", coherent_transform.sigma)
    for op in GRID_OPS:
        tracer.arg_hooks[f"stratum_density.{op}"] = grid_hook


def _check_rows(reports) -> list[dict]:
    return [
        {
            "check_id": r.check_id,
            "pass": bool(r.passed),
            "max_error": r.max_error,
            "tolerance": r.tolerance,
            "exact_zero": r.max_error == 0,
        }
        for r in reports
    ]


def run_workload(cli, workload, configs, tracer=None) -> tuple[float, list]:
    """Run and render every suite of the workload; return wall_s and one
    record per suite.  A suite that raises is recorded, not re-raised."""
    suites = []
    t0 = time.perf_counter()
    for run, cfg in zip(workload.runs, configs):
        rec = {"key": run.key, "expected": run.expected, "error": None,
               "json": None, "checks": []}
        span = tracer.span(f"suite.{run.key}") if tracer else nullcontext()
        began = time.perf_counter()
        try:
            with span:
                reports = cli.run_suite(cfg)
        except Exception:
            rec["error"] = traceback.format_exc()
            reports = None
        if reports is not None:
            try:
                rec["json"] = cli.render_json(reports, cfg)
                cli.render_csv(reports)
                if run.svg:
                    cli.render_svg(reports)
                rec["checks"] = _check_rows(reports)
            except Exception:
                rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - began
        suites.append(rec)
    return time.perf_counter() - t0, suites


def _forked_pass(cli, workload, configs) -> dict:
    """Run one pass in a forked process and return its record."""
    read_end, write_end = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            _die_with_parent(parent)
            wall, suites = run_workload(cli, workload, configs)
            record = {"wall_s": wall, "suites": suites,
                      "peak_rss_mb": _peak_rss_mb()}
            with os.fdopen(write_end, "w") as out:
                json.dump(record, out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            # skip the atexit handlers and buffers inherited from the parent
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as inp:
        text = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"forked pass exited with status {status}")
    return json.loads(text)


def _passes(cli, workload, configs, budget: float) -> list[dict]:
    """Forked passes while the next one is expected to end within
    ``budget`` seconds; at least one."""
    start = time.monotonic()
    passes, took = [], []
    while True:
        began = time.monotonic()
        passes.append(_forked_pass(cli, workload, configs))
        took.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(took) > budget:
            return passes


def _sweep() -> dict:
    """Time each sweep point's certificate once, untraced."""
    from quantlab.lie_core import get_model

    model = get_model("su2")
    out = {}
    for name, sw in SWEEP.items():
        module, name_in_module = sw.certificate.split(".")
        certificate = getattr(
            importlib.import_module(f"quantlab.{module}"), name_in_module)
        points = []
        for cutoff in sw.cutoffs:
            t0 = time.perf_counter()
            rep = certificate(model, cutoff=cutoff, **dict(sw.options))
            busy = time.perf_counter() - t0
            points.append({
                "cutoff": cutoff, "busy_s": busy,
                "basis": rep.metadata[sw.size_key],
                "pass": bool(rep.passed), "max_error": rep.max_error,
            })
        out[name] = points
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=("passes", "plain", "traced", "setup", "sweep"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    args = ap.parse_args(argv)
    _die_with_parent(os.getppid())

    from quantlab import cli_report as cli

    workload = WORKLOADS[args.workload]
    configs = [
        cli.SuiteConfig(model=r.model, suite=r.suite, seed=args.seed,
                        **dict(r.options))
        for r in workload.runs
    ]
    result = {"mode": args.mode, "workload": workload.name,
              "seed": args.seed,
              "setup_s": time.monotonic() - args.spawned_at}

    if args.mode == "sweep":
        result["sweep"] = _sweep()
    elif args.mode == "passes":
        result["passes"] = _passes(cli, workload, configs, args.budget)
    elif args.mode in ("plain", "traced"):
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer, snapshot_bindings

            before = snapshot_bindings()
            tracer = Tracer(run_id=f"{workload.name}-{args.seed}")
            _install_hooks(tracer)
            result["patched_bindings"] = tracer.install()
        try:
            wall, suites = run_workload(cli, workload, configs, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        result["wall_s"] = wall
        result["suites"] = suites
        if tracer:
            result["restored"] = snapshot_bindings() == before
            result["totals"] = tracer.totals()
            result["counters"] = tracer.counters
            spans_path = Path(args.out).with_suffix(".spans.json")
            spans_path.write_text(json.dumps({
                "fields": ["id", "name", "start_ns", "end_ns", "parent",
                           "run_id"],
                "spans": tracer.spans,
                "aggregates": [
                    {"name": n, "parent": p, "calls": c, "busy_ns": b,
                     "self_ns": s}
                    for (n, p), (c, b, s) in tracer.stats.items()
                ],
            }))
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
