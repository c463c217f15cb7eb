"""Acceptance gate: one test per headline criterion, pinned tolerances.

Run with -v to get one pass/fail line per criterion.  Total runtime is
held well under two minutes; criterion 1 carries its own ten-second
budget, measured around the suite it times.
"""

import json
import math
import time

import numpy as np
import pytest

from quantlab.cli_report import SuiteConfig, main, run_suite
from quantlab.coherent_transform import (
    _scaled,
    build_sigma_table,
    character_gram,
    irrep_labels,
)
from quantlab.lie_core import get_model
from quantlab.psh_analysis import logeta_potential
from quantlab.reduction import qr_commutes_certificate
from quantlab.stratum_density import (
    line_removal_contrast,
    refinement_study,
    removal_density_demo,
    removal_errors,
    standard_bump,
)

M_LIST = [math.e, math.e**2, math.e**3, math.e**4]


@pytest.fixture(scope="module")
def suites():
    cache = {}

    def get(model, suite):
        key = (model, suite)
        if key not in cache:
            t0 = time.perf_counter()
            reports = run_suite(SuiteConfig(model=model, suite=suite))
            cache[key] = (
                {r.check_id: r for r in reports},
                time.perf_counter() - t0,
            )
        return cache[key]

    return get


def test_criterion_1_kahler_suite(suites):
    reports, elapsed = suites("su2", "kahler")
    j_sq = reports["kahler.j_squared"]
    assert j_sq.metadata["samples"] == 10_000
    assert j_sq.max_error < 1e-10
    assert reports["kahler.omega_potential"].max_error < 1e-5
    comp = reports["kahler.completeness"]
    assert comp.metadata["sup_norm_sq"] <= 4.0 + 1e-9
    assert comp.metadata["agreement"] < 1e-6
    assert elapsed < 10.0


def test_criterion_2_polar_differential_oracle(suites):
    reports, _ = suites("su2", "kahler")
    dphi = reports["kahler.polar_differential"]
    assert dphi.metadata["samples"] == 1000
    assert dphi.max_error < 1e-6


def test_criterion_3_eta_suite(suites):
    reports, _ = suites("su2", "psh")
    eta = reports["density.eta_log_convexity"]
    assert eta.passed
    assert eta.tolerance <= 1e-5
    assert eta.metadata["grid"] >= 10_000
    # log of the fiber density is convex along the torus directions
    K = logeta_potential(get_model("su2"))
    eigs = np.linalg.eigvalsh(K.hess(np.linspace(-6.0, 6.0, 301)[:, None]))
    assert min(0.0, float(eigs.min())) >= -1e-8
    semi = reports["psh.canonical_semi_negativity"]
    assert semi.passed and semi.tolerance <= 1e-8


def test_criterion_4_psh_oracle_equivalence(suites):
    reports, _ = suites("su2", "psh")
    oracle = reports["psh.oracle_agreement"]
    assert oracle.metadata["grid_points"] >= 50
    assert len(oracle.metadata["presets"]) == 3
    assert oracle.max_error < 1e-4
    wall = reports["psh.wall_limit"]
    assert wall.metadata["alpha_y"] == 1e-3
    assert wall.max_error < 1e-5


def test_criterion_5_transform_unitarity(suites):
    u1, _ = suites("u1", "transform")
    assert u1["transform.sigma_oracle"].metadata["cutoff"] == 8
    assert u1["transform.sigma_oracle"].max_error < 1e-10
    assert u1["transform.unitarity.u1"].max_error < 1e-6
    assert u1["transform.equivariance.u1"].max_error < 1e-8
    su2, _ = suites("su2", "transform")
    assert su2["transform.unitarity.su2"].metadata["cutoff"] == 2.0
    assert su2["transform.unitarity.su2"].max_error < 1e-4
    assert su2["transform.equivariance.su2"].max_error < 1e-8


def test_criterion_6_reduction_suite(suites):
    reports, _ = suites("su2", "reduction")
    momentum = reports["reduction.momentum_equivariance"]
    assert momentum.metadata["samples"] == 10_000
    assert momentum.max_error < 1e-10
    assert reports["reduction.round_trip"].max_error < 1e-8
    isometry = reports["reduction.weyl_isometry"]
    assert isometry.metadata["characters"] == 7
    assert isometry.max_error < 1e-6


def test_criterion_7_qr_commutes(suites):
    reports, _ = suites("su2", "reduction")
    cert = reports["reduction.qr_commutes.su2"]
    assert cert.passed
    assert cert.metadata["dimension"] == 5
    gram_a = np.array(cert.metadata["gram_a"])
    gram_b = np.array(cert.metadata["gram_b"])
    eye = np.eye(gram_a.shape[0])
    assert np.abs(gram_a - eye).max() < 1e-4
    assert np.abs(gram_b - eye).max() < 1e-4
    # on a torus route B is the holomorphic torus Gram over the closed-form
    # norms, and both routes sit at the identity
    u1 = get_model("u1")
    torus = qr_commutes_certificate(u1)
    assert torus.passed
    labels = irrep_labels(u1, torus.metadata["cutoff"])
    holomorphic = _scaled(character_gram(u1, labels, 4)[0],
                          build_sigma_table(u1, labels))
    assert torus.metadata["gram_b"] == np.real(holomorphic).tolist()
    for key in ("gram_a", "gram_b"):
        gram = np.array(torus.metadata[key])
        assert np.abs(gram - np.eye(len(labels))).max() < 1e-9


def test_criterion_8_density_demo():
    bump = standard_bump(2048)
    errors = removal_errors(bump, M_LIST)
    demo = removal_density_demo(bump, M_LIST, errors)
    assert demo.passed
    errs = demo.metadata["errors"]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert 0.5 <= demo.metadata["rate_exponent"] <= 2.0
    contrast = line_removal_contrast(bump, M_LIST, errors)
    assert contrast.passed
    assert min(contrast.metadata["line_errors"]) >= 0.1 * errs[0]
    refine = refinement_study(bump, standard_bump(1024), M_LIST, errors)
    assert refine.passed
    assert refine.max_error < 0.10


def test_criterion_9_deterministic_reports(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc = main(["run", "--model", "u1", "--suite", "all",
                   "--seed", "42", "--out", str(p)])
        assert rc == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert all(c["pass"] for c in json.loads(first)["checks"])
