"""The benchmark's workloads: what each runs, and why it exists.

Every workload is a list of ``SuiteConfig`` keyword sets, run one after
another through ``quantlab.cli_report.run_suite`` and rendered, in a fresh
interpreter per pass.  The workload seed reaches the program only as
``SuiteConfig.seed``.

``expected`` is the number of checks each (model, suite) pair reports.  A
suite that raises counts all of its expected checks as failed, because
``run_suite`` lets exceptions escape.  ``svg`` marks the pairs whose
reports carry plottable metadata, so their SVG sheet is rendered too.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Run:
    model: str
    suite: str
    expected: int
    svg: bool
    options: tuple[tuple[str, object], ...] = ()

    @property
    def key(self) -> str:
        return f"{self.model}.{self.suite}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    runs: tuple[Run, ...]


# Two workloads of 7 to 9 s a pass on an uncontended vCPU.  On the 2-vCPU
# machine the benchmark was built on, the host slows the CPU by up to 2x,
# for seconds or for minutes, so a run's statistic is steadier the more
# passes it averages (see README.md, "Noise").  Short passes leave room for
# four to seven of them in a 60 s run, so the costly cases are kept and
# their cheaper variants trimmed: the t2 transform runs at cutoff 5, the
# reduction suite runs on su2 and on u1 (the abelian branch) but not on
# t2, and the density suite runs at its default grid 1024.  Each suite
# keeps its own suite.<model>.<suite> span in the trace.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gram",
            why=(
                "su2 transform at cutoff 2.0 (basis 55) and t2 transform at "
                "cutoff 5: Gram assembly, su2 and abelian"
            ),
            exercises=(
                "su2: coherent_transform Gram contraction "
                "(unitarity_certificate self time), Irrep.rep_unitary -> "
                "lie_core.unitary_log, quadrature.su2_haar_rule, where "
                "ROADMAP item 4 shows; t2: sigma / build_sigma_table / "
                "group_action / character_gram as tens of thousands of tiny "
                "calls, quadrature.gaussian_rule rebuilt per sigma call, "
                "where an su2-shaped rewrite that slows the abelian path "
                "shows"
            ),
            bypasses=(
                "stratum_density and the scalar sampling loops: a grid or "
                "batched lie_core change predicts no change here"
            ),
            runs=(
                Run("su2", "transform", 4, False, (("level", 3),)),
                Run("t2", "transform", 4, False, (("cutoff", 5.0),)),
            ),
        ),
        Workload(
            name="sampling-density",
            why=(
                "kahler and psh on u1, t2, su2, reduction on u1 and su2, "
                "then the density suite at grid 1024: scalar lie_core loops "
                "and grids"
            ),
            exercises=(
                "lie_core adjoint_action / GroupPoint.is_unitary / "
                "exp_alg, reduction.momentum_map / torus_representative / "
                "weyl_canonicalize, kahler_geom, psh_analysis, "
                "density_weights, where ROADMAP item 5 (batched lie_core) "
                "shows; stratum_density puncture / dolbeault_graph_norm / "
                "h1_norm / standard_bump on 16 MiB complex arrays "
                "(refinement 512 vs 1024), which set peak_rss_mb"
            ),
            bypasses=(
                "the large transform Grams (only the small qr_commutes "
                "Grams run): a Gram assembly change predicts no change here"
            ),
            runs=tuple(
                Run(model, suite, expected, svg)
                for model in ("u1", "t2", "su2")
                for suite, expected, svg in (("kahler", 4, False),
                                             ("psh", 6, True))
            ) + (
                Run("u1", "reduction", 4, True),
                Run("su2", "reduction", 4, True),
                Run("su2", "density", 4, True, (("grid", 1024),)),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Sweep:
    """One su2 certificate timed once per cutoff, in the traced run."""

    certificate: str
    options: tuple[tuple[str, object], ...]
    size_key: str
    cutoffs: tuple[float, ...]


# The levels are the ones the transform and reduction suites use.  Cutoff
# 3.0 (79 s) and 4.0 (over 300 s) of the unitarity certificate stay out
# until the su2 Gram assembly is rebuilt (ROADMAP item 4), so that a traced
# run ends well inside the 180 s a run may take.
SWEEP = {
    "unitarity_su2": Sweep("coherent_transform.unitarity_certificate",
                           (("level", 3),), "basis_size",
                           (1.0, 1.5, 2.0, 2.5)),
    "qr_commutes_su2": Sweep("reduction.qr_commutes_certificate",
                             (("level", 4),), "dimension", (1.0, 2.0, 3.0)),
}
