"""Self-test of the benchmark's tracer and definitions.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from layers import catalogue, cost_exponent  # noqa: E402
from run import END_TO_END_UNITS, Gate  # noqa: E402
from tracer import Tracer, snapshot_bindings  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_root_busy_time():
    tr = Tracer()

    def leaf():
        _spin(0.002)

    def middle():
        _spin(0.001)
        leaf()
        leaf()

    def root(depth=2):
        _spin(0.001)
        middle()
        if depth:
            root(depth - 1)  # recursion adds busy time only once

    leaf = tr.wrap("leaf", leaf)
    middle = tr.wrap("middle", middle)
    root = tr.wrap("root", root)
    root()

    totals = tr.totals()
    assert totals["root"]["calls"] == 3
    assert totals["middle"]["calls"] == 3
    assert totals["leaf"]["calls"] == 6
    busy_ns = sum(b for (n, p), (_c, b, _s) in tr.stats.items()
                  if n == "root" and p is None)
    self_ns = sum(s for _c, _b, s in tr.stats.values())
    assert self_ns == busy_ns
    assert totals["leaf"]["self_s"] == totals["leaf"]["busy_s"]
    assert totals["root"]["busy_s"] >= totals["middle"]["busy_s"] > 0
    assert tr._stack == []


def test_spans_record_parent_and_run_id():
    tr = Tracer(run_id="r1", span_cap=2)
    inner = tr.wrap("inner", lambda: None)
    with tr.span("outer"):
        for _ in range(5):
            inner()
    spans = {s[0]: s for s in tr.spans}
    outer_id = next(s[0] for s in tr.spans if s[1] == "outer")
    kept = [s for s in tr.spans if s[1] == "inner"]
    assert len(kept) == 2  # capped; the aggregate still counts all five
    assert tr.totals()["inner"]["calls"] == 5
    for span_id, _name, start, end, parent, run_id in kept:
        assert parent == outer_id and run_id == "r1" and end >= start
        assert spans[parent][2] <= start
    assert tr.stats[("inner", "outer")][0] == 5


def test_exception_unwinds_the_stack():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    boom = tr.wrap("boom", boom)
    try:
        boom()
    except ValueError:
        pass
    assert tr._stack == [] and tr.totals()["boom"]["calls"] == 1


def test_install_patches_every_binding_and_uninstall_restores_them():
    import numpy as np

    from quantlab import cli_report, coherent_transform, lie_core

    before = snapshot_bindings()
    original_sigma = coherent_transform.sigma
    tr = Tracer()
    try:
        assert tr.install() > 100
        # one wrapper at the defining module and at every importer
        assert coherent_transform.sigma is not original_sigma
        assert cli_report.sigma is coherent_transform.sigma
        model = lie_core.get_model("su2")
        g = lie_core.random_group_point(model, np.random.default_rng(0))
        assert g.is_unitary
        report = cli_report.CheckReport.from_error("x", "y", 1.0, 0.5)
        assert report.passed
    finally:
        tr.uninstall()
    assert snapshot_bindings() == before
    assert coherent_transform.sigma is original_sigma
    totals = tr.totals()
    assert totals["lie_core.GroupPoint.is_unitary"]["calls"] >= 1
    assert totals["lie_core.random_group_point"]["calls"] == 1
    assert totals["report.CheckReport.from_error"]["calls"] == 1


def test_cost_exponent_recovers_a_power_law():
    points = [{"basis": n, "busy_s": 1e-4 * n**3} for n in (10, 20, 40)]
    assert abs(cost_exponent(points) - 3.0) < 1e-12


def test_gate_counts_failures_and_byte_differences():
    check = {"check_id": "c", "pass": True, "max_error": 1e-12,
             "tolerance": 1e-10, "exact_zero": False}
    good = {"suites": [{"key": "t2.transform", "expected": 1,
                        "error": None, "json": "a", "checks": [check]}]}
    gate = Gate()
    gate.add_pass(good, "p1")
    assert gate.correct and abs(gate.margin - 2.0) < 1e-12
    changed = json.loads(json.dumps(good))
    changed["suites"][0]["json"] = "b"
    gate.add_pass(changed, "p2")
    assert not gate.correct and gate.failed == 0
    raised = {"suites": [{"key": "t2.transform", "expected": 4,
                          "error": "Traceback", "json": None,
                          "checks": []}]}
    gate = Gate()
    gate.add_pass(raised, "p1")
    assert (gate.attempted, gate.failed) == (4, 4)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == catalogue()
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == END_TO_END_UNITS[m["name"]]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
