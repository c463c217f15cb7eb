"""quantlab benchmark: end-to-end metrics per workload, or a layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run it from the root of a source checkout; it imports ``quantlab`` from
``src/``.  The load is a closed loop with one client: it starts one
child interpreter per workload pass (``child.py``) and waits for it before
starting the next, so at most one process computes at a time.  The
children run OpenBLAS on one thread (``BLAS_THREADS``).

``--trace 0`` first starts ``SETUP_SAMPLES`` children that only import and
build their configs.  Then one more child imports, builds its configs and
forks one untraced pass after another while the next one fits in
``--seconds`` (at least one).  A forked pass starts from the state of a
fresh interpreter after the import, with every in-process cache cold.  The
run reports:

- ``setup_s``: child start until ``quantlab`` is imported and the configs
  are built, the median over the run's children;
- ``wall_s``: first ``run_suite`` call until the last report is rendered,
  the mean over the run's passes (every pass's wall time, and each suite's
  time in it, go to the record);
- ``checks_passed_frac``: checks that passed over checks attempted;
- ``margin_decades``: mean over checks of log10(tolerance / max_error),
  leaving out exact zeros (each check's own margin goes to the record);
- ``peak_rss_mb``: the forked pass's own peak resident set, the median
  pass.

``--trace 1`` runs an untraced and a traced pass, then the cutoff sweep,
and reports the per-layer metrics of ``layers.py``.

Every run applies the correctness gate: every expected check reports and
passes, repeated passes with one seed render byte-identical JSON, and a
traced pass renders exactly the untraced pass's JSON and restores every
patched binding.  The gate and the environment go to
``.perfbench/<workload>-seed<N>-trace<T>.json``; the last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from environment import environment
from layers import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5
# On a 2-vCPU machine a second OpenBLAS thread contends with everything
# else on the other vCPU: it widened the spread of one t2 transform pass from
# 0.105 to 0.179 (quartile distance over median, 12 passes each), and its
# median was 3% slower than with one thread.
BLAS_THREADS = "1"
# a run must end within 180 s; its children share this allowance
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_passed_frac": "ratio",
    "margin_decades": "log10",
    "peak_rss_mb": "MiB",
}
# reported when no check left a nonzero residual to take the log of
NO_MARGIN = -99.0


class ChildError(RuntimeError):
    """A child interpreter exited nonzero or wrote no result."""


def run_child(mode: str, workload: str, seed: int, tag: str,
              deadline: float, budget: float = 0.0) -> dict:
    """Start one child, wait for it, and return its result record.  The
    child is killed if it is still running at ``deadline`` (monotonic)."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-{tag}.child.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--out", str(out),
           "--budget", repr(budget), "--spawned-at"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(deadline - spawned, 0.0))
    if proc.returncode != 0 or not out.exists():
        raise ChildError(
            f"{mode} child for {workload} exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return json.loads(out.read_text())


class Gate:
    """Correctness gate over every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: dict[str, dict] = {}
        self.reference: dict[str, str] | None = None

    def add_pass(self, child: dict, label: str) -> None:
        rendered = {}
        for suite in child["suites"]:
            key = suite["key"]
            self.attempted += suite["expected"]
            if suite["error"]:
                self.failed += suite["expected"]
                self.problems.append(f"{label} {key} raised:\n"
                                     + suite["error"])
                continue
            checks = suite["checks"]
            bad = sum(not c["pass"] for c in checks)
            missing = max(suite["expected"] - len(checks), 0)
            self.failed += min(bad + missing, suite["expected"])
            if len(checks) != suite["expected"]:
                self.problems.append(
                    f"{label} {key}: {len(checks)} checks, "
                    f"expected {suite['expected']}")
            for c in checks:
                self.checks[f"{key}:{c['check_id']}"] = c
                if not c["pass"]:
                    self.problems.append(
                        f"{label} {key} {c['check_id']} FAIL: "
                        f"max_error={c['max_error']!r} "
                        f"tolerance={c['tolerance']!r}")
            rendered[key] = suite["json"]
        if self.reference is None:
            self.reference = rendered
        else:
            for key, text in rendered.items():
                if key in self.reference and text != self.reference[key]:
                    self.problems.append(
                        f"{label} {key}: JSON report differs byte for "
                        "byte from the first pass with this seed")

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    @property
    def margin(self) -> float:
        # The mean, not the minimum: the worst check's error depends on the
        # seed's sample points (su2 polar_differential ranged over 0.16 to
        # 0.91 decades of margin over ten seeds), the mean over checks does
        # not.  A change that spends accuracy still shows in each check's
        # margin in the record.
        margins = [math.log10(c["tolerance"] / c["max_error"])
                   for c in self.checks.values() if c["max_error"] > 0]
        return statistics.fmean(margins) if margins else NO_MARGIN

    def record(self) -> dict:
        return {
            "correct": self.correct,
            "problems": self.problems,
            "checks": self.checks,
            "exact_zero_checks": sorted(
                k for k, c in self.checks.items() if c["exact_zero"]),
        }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(workload: str, seed: int, seconds: float,
              deadline: float) -> tuple[Gate, dict]:
    """Untraced passes for ``seconds``; the end-to-end metrics."""
    gate = Gate()
    start = time.monotonic()
    setups = [
        run_child("setup", workload, seed, f"setup{i}", deadline)["setup_s"]
        for i in range(SETUP_SAMPLES)
    ]
    child = run_child("passes", workload, seed, "passes", deadline,
                      budget=seconds - (time.monotonic() - start))
    setups.append(child["setup_s"])
    passes = child["passes"]
    for i, p in enumerate(passes, 1):
        gate.add_pass(p, f"pass {i}")
    suite_walls = {run.key: [] for run in WORKLOADS[workload].runs}
    for p in passes:
        for suite in p["suites"]:
            suite_walls[suite["key"]].append(suite["wall_s"])
    # The mean, not the median or the fastest pass: the CPU speed one
    # process sees on a small shared virtual machine drifts by up to 2x,
    # for spans from seconds to minutes, and over ten seeds the mean of a
    # run's passes spread least (README.md, "Noise").
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "checks_passed_frac":
            (gate.attempted - gate.failed) / gate.attempted,
        "margin_decades": gate.margin,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return gate, {
        "metrics": {k: _metric(v, END_TO_END_UNITS[k])
                    for k, v in metrics.items()},
        "samples": {
            "setup_s": setups,
            "pass_wall_s": [p["wall_s"] for p in passes],
            "suite_wall_s": suite_walls,
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        },
    }


def run_traced(workload: str, seed: int,
               deadline: float) -> tuple[Gate, dict]:
    """An untraced and a traced pass, then the cutoff sweep."""
    gate = Gate()
    plain = run_child("plain", workload, seed, "plain", deadline)
    gate.add_pass(plain, "untraced pass")
    traced = run_child("traced", workload, seed, "traced", deadline)
    gate.add_pass(traced, "traced pass")
    gate.require(traced["restored"],
                 "traced pass left a patched binding in place")
    sweep = run_child("sweep", workload, seed, "sweep", deadline)["sweep"]
    for name, points in sweep.items():
        for p in points:
            gate.require(p["pass"], f"sweep {name} cutoff {p['cutoff']} "
                                    f"FAIL: max_error={p['max_error']!r}")
    overhead = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    return gate, {
        "metrics": layer_metrics(traced, overhead, sweep),
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "patched_bindings": traced["patched_bindings"],
        "sweep": sweep,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: measure, gate, record, summarize."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        gate, body = run_traced(workload, seed, deadline)
    else:
        gate, body = run_plain(workload, seed, seconds, deadline)
    record = {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "exercises": WORKLOADS[workload].exercises,
        "bypasses": WORKLOADS[workload].bypasses,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(ROOT),
        "gate": gate.record(),
        **body,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in gate.problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    return {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": body["metrics"],
    }


def _print_table(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # set before numpy loads here, so children inherit it and the recorded
    # environment reports what they ran with
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

    if not (ROOT / "src" / "quantlab" / "__init__.py").is_file():
        print(f"error: no quantlab sources under {ROOT / 'src'}; run the "
              "benchmark from a source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_one(name, args.seed, args.seconds,
                                    bool(args.trace))
        except (ChildError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_table(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
