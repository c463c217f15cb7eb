import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import quantlab
from quantlab import cli_report, stratum_density
from quantlab.cli_report import (
    MODEL_NAMES,
    SUITE_NAMES,
    UNPLOTTABLE_SUITES,
    SuiteConfig,
    UsageError,
    emit,
    main,
    parse_config_file,
    parse_reports,
    render_csv,
    render_json,
    render_svg,
    run_suite,
)
from quantlab.report import CheckReport


def test_config_validation():
    cfg = SuiteConfig()
    assert cfg.model == "su2"
    assert cfg.suite == "all"
    with pytest.raises(UsageError):
        SuiteConfig(model="e8")
    with pytest.raises(UsageError):
        SuiteConfig(suite="everything")
    with pytest.raises(UsageError):
        SuiteConfig(cutoff=0.0)
    with pytest.raises(UsageError):
        SuiteConfig(cutoff=math.inf)
    with pytest.raises(UsageError):
        SuiteConfig(grid=32)
    with pytest.raises(UsageError):
        SuiteConfig(level=0)
    with pytest.raises(UsageError):
        SuiteConfig(seed=-1)
    # tolerances are pinned in each certificate: no setting reaches one
    with pytest.raises(TypeError):
        SuiteConfig(tol=1e-3)


@pytest.mark.parametrize("model,cutoff", [("su2", 0.2), ("su2", 0.49),
                                          ("u1", 0.9), ("t2", 0.5)])
def test_cutoff_leaving_one_label_is_a_usage_error(model, cutoff, capsys):
    # a one-label basis makes unitarity, equivariance and spin_gram read
    # exactly 0, a pass that shows nothing
    with pytest.raises(UsageError, match="single irrep label"):
        SuiteConfig(model=model, cutoff=cutoff)
    assert main(["run", "--model", model, "--suite", "transform",
                 "--cutoff", str(cutoff)]) == 2
    assert "single irrep label" in capsys.readouterr().err
    # the smallest cutoff with a second label is accepted
    SuiteConfig(model=model, cutoff=0.5 if model == "su2" else 1.0)


@pytest.mark.parametrize("model,suite,cutoff,accepted", [
    ("u1", "all", 100, 66), ("su2", "transform", 70, 66.5),
    ("t2", "transform", 48, 47)])
def test_cutoff_past_a_finite_sigma_is_a_usage_error(model, suite, cutoff,
                                                     accepted, capsys):
    # every transform and reduction Gram is divided by the closed-form
    # sigma; past the largest double u1 read NaN FAILs and su2 crashed
    with pytest.raises(UsageError, match="largest double"):
        SuiteConfig(model=model, cutoff=cutoff)
    assert main(["run", "--model", model, "--suite", suite,
                 "--cutoff", str(cutoff)]) == 2
    err = capsys.readouterr().err
    assert "largest double" in err and "crashed" not in err
    # the largest cutoff whose top sigma is finite is accepted, by a suite
    # that no memory budget refuses
    SuiteConfig(model=model, suite="psh", cutoff=accepted)


@pytest.mark.parametrize("config", [
    {"model": "su2", "suite": "transform", "cutoff": 11},
    {"model": "su2", "suite": "all", "cutoff": 11},
    {"model": "t2", "suite": "transform", "cutoff": 36},
    {"model": "su2", "suite": "transform", "level": 1000},
    {"model": "u1", "suite": "all", "level": 330},
    {"model": "t2", "suite": "reduction", "cutoff": 47},
    {"model": "t2", "suite": "all", "cutoff": 30},
    {"model": "su2", "suite": "reduction", "cutoff": 57.5},
    {"model": "su2", "suite": "reduction", "cutoff": 66},
])
def test_transform_past_the_memory_budget_is_a_usage_error(config):
    # estimated from the sizes alone; no Gram or rule is built
    with pytest.raises(UsageError, match="budget of 2 GiB"):
        SuiteConfig(**config)


@pytest.mark.parametrize("config", [
    {"model": "su2", "suite": "transform", "cutoff": 10.5},
    {"model": "su2", "suite": "reduction", "cutoff": 32},
    {"model": "t2", "suite": "transform", "cutoff": 5},
    {"model": "t2", "suite": "transform", "cutoff": 35},
    {"model": "t2", "suite": "reduction", "cutoff": 16},
    {"model": "u1", "suite": "all", "cutoff": 66},
    {"model": "u1", "suite": "transform", "level": 23},
    {"model": "t2", "suite": "reduction", "cutoff": 29},
    {"model": "su2", "suite": "reduction", "cutoff": 57},
])
def test_transform_within_the_memory_budget_is_accepted(config):
    SuiteConfig(**config)


@pytest.mark.parametrize("model,suite", [("u1", "transform"), ("t2", "all")])
def test_torus_level_past_a_finite_gauss_hermite_rule_is_refused(
        model, suite, capsys):
    # hermgauss(384) overflows into NaN weights: level 24 is refused before
    # any suite runs, and the check itself does not warn under -W error
    with pytest.raises(UsageError, match="not a finite double"):
        SuiteConfig(model=model, suite=suite, level=24)
    assert main(["run", "--model", model, "--suite", suite,
                 "--level", "24"]) == 2
    assert "Gauss-Hermite rule of level 24" in capsys.readouterr().err
    # su2 sums its sigmas on the radial rule, and no other suite reads one
    SuiteConfig(model="su2", suite=suite, level=24)
    SuiteConfig(model=model, suite="reduction", level=24)


def test_torus_transform_runs_at_the_last_finite_gauss_hermite_level(capsys):
    assert main(["run", "--model", "u1", "--suite", "transform",
                 "--level", "23"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_every_default_configuration_is_within_the_memory_budget():
    for model in MODEL_NAMES:
        for suite in SUITE_NAMES:
            SuiteConfig(model=model, suite=suite)


def test_cli_refuses_a_transform_past_the_budget_before_allocating(capsys):
    # at su2 cutoff 30 one int64 index array of the basis Grams alone
    # would take 44.8 GiB
    tracemalloc.start()
    try:
        rc = main(["run", "--model", "su2", "--suite", "transform",
                   "--cutoff", "30"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "budget" in capsys.readouterr().err
    assert peak < 2**20


def test_cli_refuses_a_reduction_past_the_budget_before_allocating(capsys):
    # t2 at cutoff 47 has 9,025 labels: its N x N Grams, gather indices and
    # report lists would take about 12 GiB
    tracemalloc.start()
    try:
        rc = main(["run", "--model", "t2", "--suite", "reduction",
                   "--cutoff", "47"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "reduction suite on t2" in capsys.readouterr().err
    assert peak < 2**20


def test_huge_cutoff_is_refused_without_enumerating_labels():
    # the top label is worked out directly: t2 at 1e9 would have 4e18
    # labels, su2 at 1e12 two trillion
    for model, cutoff in (("t2", 1e9), ("su2", 1e12), ("u1", 1e300)):
        with pytest.raises(UsageError, match="largest double"):
            SuiteConfig(model=model, cutoff=cutoff)


def test_cli_su2_cutoff_between_half_integers(tmp_path):
    # cutoff 1.8 keeps the spins 0 .. 1.5 and no spin above it
    out = tmp_path / "r.json"
    for suite in ("transform", "reduction"):
        assert main(["run", "--model", "su2", "--suite", suite,
                     "--cutoff", "1.8", "--out", str(out)]) == 0
        checks = {c["check_id"]: c for c in
                  json.loads(out.read_text())["checks"]}
        if suite == "transform":
            spin_gram = checks["transform.spin_gram.su2"]["metadata"]
            assert spin_gram["labels"] == ["0.0", "0.5", "1.0", "1.5"]
        else:
            qr = checks["reduction.qr_commutes.su2"]["metadata"]
            assert qr["dimension"] == 4


def test_parse_config_file(tmp_path):
    p = tmp_path / "cfg"
    p.write_text(
        "# comment\n"
        "model = u1\n"
        "suite=psh\n"
        "seed = 11  # trailing comment\n"
        "\n"
    )
    values = parse_config_file(str(p))
    assert values == {"model": "u1", "suite": "psh", "seed": 11}
    bad = tmp_path / "bad"
    for line in ("colour = blue\n", "tol = 1e-3\n"):
        bad.write_text(line)
        with pytest.raises(UsageError, match="unknown key"):
            parse_config_file(str(bad))
    bad.write_text("just a line\n")
    with pytest.raises(UsageError):
        parse_config_file(str(bad))


def test_kahler_suite_su2_includes_completeness():
    reports = run_suite(SuiteConfig(model="su2", suite="kahler"))
    ids = [r.check_id for r in reports]
    assert "kahler.completeness" in ids
    comp = reports[ids.index("kahler.completeness")]
    assert comp.passed
    assert comp.metadata["sup_norm_sq"] <= 4.0 + 1e-9
    assert all(r.passed for r in reports)


def _all_check_ids(model):
    # the order run_suite(suite="all") reports in; the benchmark counts on
    # each suite's share of it
    return [
        "kahler.j_squared", "kahler.omega_potential", "kahler.completeness",
        "kahler.polar_differential",
        "density.eta_log_convexity", "psh.canonical_semi_negativity",
        "psh.twist_positivity", "psh.oracle_agreement", "psh.wall_limit",
        "psh.spectrum_curve",
        "transform.sigma_oracle", f"transform.unitarity.{model}",
        f"transform.equivariance.{model}", f"transform.spin_gram.{model}",
        "reduction.momentum_equivariance", "reduction.round_trip",
        "reduction.weyl_isometry", f"reduction.qr_commutes.{model}",
        "density.norm_equivalence", "density.codim2_removal",
        "density.codim1_contrast", "density.grid_refinement",
    ]


@pytest.mark.parametrize("model", ["u1", "t2", "su2"])
def test_full_pipeline_all_passes(model):
    cfg = SuiteConfig(model=model, suite="all", seed=0)
    reports = run_suite(cfg)
    assert [r.check_id for r in reports] == _all_check_ids(model)
    failed = [r.check_id for r in reports if not r.passed]
    assert failed == []
    assert all(r.citation for r in reports)
    # run_suite converts nothing: a tuple or a numpy scalar left in any
    # certificate's metadata reads back as something else
    assert parse_reports(render_json(reports, cfg)) == reports


def test_json_round_trip_and_determinism():
    cfg = SuiteConfig(model="u1", suite="psh", seed=5)
    reports = run_suite(cfg)
    text = render_json(reports, cfg)
    assert parse_reports(text) == reports
    again = render_json(run_suite(cfg), cfg)
    assert again == text
    doc = json.loads(text)
    assert doc["schema"] == "quantlab.report.v1"
    assert doc["config"]["seed"] == 5
    for check in doc["checks"]:
        assert set(check) == {
            "check_id", "citation", "tolerance", "max_error", "pass",
            "metadata",
        }


def _refuse_constant(name):
    raise ValueError(f"bare {name} token: not strict JSON")


def test_non_finite_floats_are_strict_json(monkeypatch, tmp_path):
    # a NaN error is an honest FAIL, written as strings a strict parser
    # reads; parse_reports turns the strings back into floats
    def nan_suite(cfg):
        return [CheckReport.from_error(
            "x.nan", "c", 1e-4, math.nan, deviation=math.nan,
            spread=[math.inf, -math.inf, 1.5], label="nan label")]

    monkeypatch.setitem(cli_report._SUITE_RUNNERS, "reduction", nan_suite)
    out = tmp_path / "nan.json"
    assert main(["run", "--model", "su2", "--suite", "reduction",
                 "--out", str(out)]) == 1
    check = json.loads(out.read_text(),
                       parse_constant=_refuse_constant)["checks"][0]
    assert check["max_error"] == "nan" and check["pass"] is False
    assert check["metadata"]["deviation"] == "nan"
    assert check["metadata"]["spread"] == ["inf", "-inf", 1.5]
    assert check["metadata"]["failure"].startswith("max_error is nan")
    (report,) = parse_reports(out.read_text())
    assert math.isnan(report.max_error) and not report.passed
    assert math.isnan(report.metadata["deviation"])
    assert report.metadata["spread"] == [math.inf, -math.inf, 1.5]
    assert report.metadata["label"] == "nan label"
    csv_out = tmp_path / "nan.csv"
    assert main(["emit", "--in", str(out), "--format", "csv",
                 "--out", str(csv_out)]) == 0
    (row,) = list(csv.reader(io.StringIO(csv_out.read_text())))[1:]
    assert row[3] == "nan"
    assert json.loads(row[5], parse_constant=_refuse_constant)["spread"] == [
        "inf", "-inf", 1.5]


def test_a_non_finite_error_says_why_it_failed():
    for bad in (math.nan, math.inf):
        report = CheckReport.from_error("x.y", "c", 1.0, bad)
        assert not report.passed
        assert report.metadata["failure"] == (
            f"max_error is {bad!r}: the check computed no finite error")
    own = CheckReport.from_error("x.y", "c", 1.0, math.nan, failure="mine")
    assert own.metadata["failure"] == "mine"
    assert "failure" not in CheckReport.from_error("x.y", "c", 1.0, 2.0).metadata


def test_csv_has_six_columns():
    reports = run_suite(SuiteConfig(model="u1", suite="density", grid=128))
    rows = list(csv.reader(io.StringIO(render_csv(reports))))
    assert rows[0] == ["check_id", "citation", "tolerance", "max_error",
                       "pass", "metadata"]
    assert len(rows) == len(reports) + 1
    assert all(len(row) == 6 for row in rows)


def test_empty_reports_rejected():
    with pytest.raises(UsageError):
        render_json([], None)
    with pytest.raises(UsageError):
        render_csv([])
    with pytest.raises(UsageError):
        render_svg([])


def _fake_density_report():
    return CheckReport.from_error(
        "density.codim2_removal", "curve", 1e-12, 0.0,
        m_list=[math.e, math.e**2], errors=[0.3, 0.2],
    )


def test_svg_panels():
    gram = CheckReport.from_error(
        "reduction.qr_commutes.x", "grams", 1e-4, 0.0,
        gram_a=[[1.0, 0.0], [0.0, 1.0]], gram_b=[[1.0, 0.0], [0.0, 1.0]],
    )
    spectrum = CheckReport.from_error(
        "psh.spectrum_curve", "spectrum", 1e-8, 0.0,
        spectrum_grid=[-1.0, 0.0, 1.0],
        spectrum_min={"square": [2.0, 2.0, 2.0]},
    )
    text = render_svg([_fake_density_report(), gram, spectrum])
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 2
    assert text.count("<rect") >= 8 + 2
    # a report with no plottable payload is a usage error
    bare = CheckReport.from_error("x.y", "c", 1.0, 0.0)
    with pytest.raises(UsageError):
        render_svg([bare])


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
def test_unplottable_suites_are_the_ones_render_svg_rejects(suite):
    reports = run_suite(SuiteConfig(model="u1", suite=suite, grid=128))
    if suite in UNPLOTTABLE_SUITES:
        with pytest.raises(UsageError):
            render_svg(reports)
    else:
        assert render_svg(reports).startswith("<svg ")


@pytest.mark.parametrize("model,suite", [
    ("u1", "kahler"), ("su2", "transform"), ("t2", "transform"),
])
def test_cli_svg_of_an_unplottable_suite_fails_before_it_runs(
        tmp_path, capsys, model, suite):
    out = tmp_path / "x.svg"
    rc = main(["run", "--model", model, "--suite", suite,
               "--format", "svg", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no plottable report" in captured.err
    assert not out.exists()


def test_cli_psh_svg_writes_its_sheet(tmp_path):
    out = tmp_path / "psh.svg"
    rc = main(["run", "--model", "u1", "--suite", "psh",
               "--format", "svg", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("<svg ")


def test_density_suite_builds_each_grid_and_each_cost_once(monkeypatch):
    bumps, costs = [], []
    real_bump = stratum_density.standard_bump
    real_costs = stratum_density.removal_errors

    def counting_bump(n):
        bumps.append(n)
        return real_bump(n)

    def counting_costs(f, m_list, removed_codim=2):
        costs.append((f.size, removed_codim))
        return real_costs(f, m_list, removed_codim)

    monkeypatch.setattr(cli_report, "standard_bump", counting_bump)
    for module in (cli_report, stratum_density):
        monkeypatch.setattr(module, "removal_errors", counting_costs)
    reports = run_suite(SuiteConfig(suite="density", grid=256))
    assert all(r.passed for r in reports)
    assert sorted(bumps) == [128, 256]
    assert costs.count((256, 2)) == 1


def test_density_refinement_compares_the_requested_grid():
    # at an odd grid n the fine grid is n itself, against n // 2
    reports = run_suite(SuiteConfig(suite="density", grid=129))
    refine = next(r for r in reports if r.check_id == "density.grid_refinement")
    assert refine.metadata["fine_grid"] == 129
    assert refine.metadata["coarse_grid"] == 64


def test_emit_writes_files(tmp_path):
    reports = [_fake_density_report()]
    for fmt, name in (("json", "r.json"), ("csv", "r.csv"),
                      ("svg", "r.svg")):
        path = tmp_path / name
        emit(reports, fmt, str(path))
        assert path.stat().st_size > 0
    with pytest.raises(UsageError):
        emit(reports, "pdf", str(tmp_path / "r.pdf"))
    assert parse_reports((tmp_path / "r.json").read_text()) == reports


def _mangled_report(mangle):
    doc = json.loads(render_json([_fake_density_report()]))
    mangle(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    "{not json",
    _mangled_report(lambda doc: doc.update(checks={"check_id": "x"})),
    _mangled_report(lambda doc: doc.update(checks=["not an object"])),
    _mangled_report(lambda doc: doc["checks"][0].pop("citation")),
    _mangled_report(lambda doc: doc["checks"][0].update({"pass": False})),
    _mangled_report(lambda doc: doc["checks"][0].update(metadata=[1])),
], ids=["not-json", "checks-not-a-list", "check-not-an-object",
        "missing-key", "pass-contradicts-numbers", "metadata-not-an-object"])
def test_emit_of_a_malformed_report_is_a_usage_error(tmp_path, text):
    with pytest.raises(UsageError):
        parse_reports(text)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["emit", "--in", str(bad), "--format", "csv",
                 "--out", str(out)]) == 2
    assert not out.exists()


def _with_metadata(metadata):
    return _mangled_report(
        lambda doc: doc["checks"][0].update(metadata=metadata))


@pytest.mark.parametrize("text,key", [
    (_with_metadata({"gram_a": [[1.0, 0.0], [0.0]], "gram_b": [[1.0]]}),
     "gram_a"),
    (_with_metadata({"m_list": ["a", "b"], "errors": [0.3, 0.2]}), "m_list"),
    (_with_metadata({"m_list": [], "errors": []}), "m_list"),
    (_with_metadata({"m_list": [1.0, 2.0], "errors": [0.3]}), "errors"),
], ids=["ragged-gram", "m-list-not-numbers", "empty-curve", "unequal-curve"])
def test_emit_svg_of_malformed_plot_metadata_is_a_usage_error(
        tmp_path, capsys, text, key):
    # the report parses, but what its SVG panel would plot cannot be drawn
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out.svg"
    assert main(["emit", "--in", str(bad), "--format", "svg",
                 "--out", str(out)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(
        f"error: check density.codim2_removal: metadata {key} ")
    assert not out.exists()


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys, via_config):
    argv = ["run", "--model", "u1", "--suite", "kahler"]
    if via_config:
        cfg = tmp_path / "cfg"
        cfg.write_text("seed = -1\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "crashed" not in err


@pytest.mark.parametrize("key", ["cutoff"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_cli_non_finite_override_is_a_usage_error(tmp_path, capsys,
                                                  via_config, key):
    # an infinite cutoff sizes no basis
    out = tmp_path / "r.json"
    for value in ("inf", "nan"):
        argv = ["run", "--model", "u1", "--suite", "reduction",
                "--out", str(out)]
        if via_config:
            cfg = tmp_path / "cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += [f"--{key}", value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "crashed" not in err
        assert not out.exists()


def test_cli_run_and_emit(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", "--model", "u1", "--suite", "psh", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    svg = tmp_path / "report.svg"
    assert main(["emit", "--in", str(out), "--format", "svg",
                 "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg ")
    csv_out = tmp_path / "report.csv"
    assert main(["emit", "--in", str(out), "--format", "csv",
                 "--out", str(csv_out)]) == 0


def test_cli_usage_errors():
    assert main(["run", "--model", "e8", "--suite", "all"]) == 2
    assert main(["run", "--model", "u1", "--suite", "nope"]) == 2
    assert main([]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("model = su2\nsuite = psh\nseed = 9\n")
    out = tmp_path / "r.json"
    rc = main(["run", "--config", str(cfg), "--model", "u1",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["model"] == "u1"
    assert doc["config"]["suite"] == "psh"
    assert doc["config"]["seed"] == 9


def test_cli_honest_failure_exits_one(capsys):
    # at cutoff 20 the level-3 Gauss-Hermite rule no longer resolves the
    # top u1 label: a missed tolerance is exit code 1, not a throw
    assert main(["run", "--model", "u1", "--suite", "transform",
                 "--cutoff", "20"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] transform.unitarity.u1" in out
    assert "[FAIL] transform.spin_gram.u1" in out


def test_cli_suite_crash_exits_three(monkeypatch, capsys):
    # a crash inside a suite is not a verdict: exit 3, one error line
    from quantlab import cli_report

    def boom(cfg):
        raise ArithmeticError("no mix weight produced a joint "
                              "diagonalization\nsecond line")

    monkeypatch.setitem(cli_report._SUITE_RUNNERS, "psh", boom)
    with pytest.raises(ArithmeticError):
        run_suite(SuiteConfig(model="u1", suite="psh"))
    capsys.readouterr()
    assert main(["run", "--model", "u1", "--suite", "psh"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ")
    assert "ArithmeticError" in err and "second line" not in err


def _fresh_interpreter(probe: str) -> str:
    src = str(Path(quantlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # the runtime needs numpy only: scipy is the tests' oracle, and
    # importing it costs more than the rest of the package together
    probe = ("import sys, quantlab.cli_report; "
             "print(' '.join(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh_interpreter(probe) == ""


def test_suite_runs_load_no_module_after_import():
    # an import deferred into a suite run would be paid inside every
    # run's wall time instead of once at start-up
    probe = (
        "import sys\n"
        "from quantlab.cli_report import (SUITE_NAMES, SuiteConfig, "
        "render_csv, render_json, render_svg, run_suite)\n"
        "before = set(sys.modules)\n"
        "for suite in SUITE_NAMES:\n"
        "    reports = run_suite(SuiteConfig(model='u1', suite=suite))\n"
        "    render_json(reports); render_csv(reports)\n"
        "render_svg(reports)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    assert _fresh_interpreter(probe) == ""
