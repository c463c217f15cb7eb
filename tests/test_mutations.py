"""Every certificate must be able to fail.

Each row of ``MUTATIONS`` breaks one claim at the binding its certificates
read, runs the suite it names through ``quantlab run`` on each model it
lists, and pins the exit code (1 for an honest FAIL) and the exact set of
checks that FAIL.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from quantlab import (coherent_transform, kahler_geom, reduction,
                      stratum_density)
from quantlab.cli_report import main


def _times(factor):
    # a patch that scales what the original binding returns
    def wrap(original):
        return lambda *args, **kwargs: original(*args, **kwargs) * factor
    return wrap


def _shifted(shift):
    # a patch that adds ``shift`` to every weight of every label
    def wrap(original):
        return lambda *args, **kwargs: [w + shift for w in
                                        original(*args, **kwargs)]
    return wrap


def _hard_step(original):
    # the capacity cutoff replaced by a hard step: 1 where r >= 1/m, else 0
    def step(m, r):
        return (np.asarray(r, dtype=float) >= 1.0 / m).astype(float)
    return step


def _bent_eta(original):
    # eta~ times 1 + 1e-3 |t|^2, row by row of the (N, r) torus stack
    def bent(model, t_coords):
        t = np.atleast_2d(np.asarray(t_coords, dtype=float))
        return original(model, t) * (1.0 + 1e-3 * np.sum(t * t, axis=1))
    return bent


@dataclass(frozen=True)
class Mutation:
    name: str
    patches: tuple  # (module, attribute, wrap of the original binding)
    suite: str
    fails: dict  # model -> the check ids that must FAIL
    exit_code: int = 1

    def apply(self, monkeypatch):
        for module, attribute, wrap in self.patches:
            monkeypatch.setattr(module, attribute,
                                wrap(getattr(module, attribute)))


MUTATIONS = [
    # J x 1.001 squares to -1.002001: j_squared reads 2.0e-3 against 1e-10
    # and completeness 9.99e-4 against 1e-6
    Mutation(
        "complex structure x 1.001",
        ((kahler_geom, "_complex_structure", _times(1.001)),),
        "kahler",
        {model: {"kahler.j_squared", "kahler.completeness"}
         for model in ("u1", "t2", "su2")},
    ),
    # Omega x 1.001, read by omega_potential (through omega_batch) and by
    # completeness: omega_potential reads 1.00e-3 on the tori and 1.10e-3
    # on su2 against 1e-5, and completeness 9.99e-4 against 1e-6
    Mutation(
        "symplectic form x 1.001",
        ((kahler_geom, "_omega", _times(1.001)),),
        "kahler",
        {model: {"kahler.omega_potential", "kahler.completeness"}
         for model in ("u1", "t2", "su2")},
    ),
    # |delta| x 1.001 scales the reduced Gram by 1.002001: weyl_isometry
    # and route A read 2.001e-3 against 1e-6 and the qr tolerance
    Mutation(
        "Weyl denominator x 1.001",
        ((reduction, "weyl_denominator", _times(1.001)),),
        "reduction",
        {model: {"reduction.weyl_isometry", f"reduction.qr_commutes.{model}"}
         for model in ("u1", "t2", "su2")},
    ),
    # su2 weights + 1/2 keep every weight difference, so every Gram, but no
    # reduced character is Weyl-even: the residual reads 2.0.  On a torus
    # m + 1/2 is no weight at all, and its integer frequency would round it
    Mutation(
        "weights + 1/2",
        ((reduction, "_weights", _shifted(0.5)),),
        "reduction",
        {"su2": {"reduction.qr_commutes.su2"}},
    ),
    # a hard step deletes the disk of radius 1/m outright.  The
    # codimension-2 cost still decays and the line cost stays above its
    # floor, but the step's cost moves with the grid: grid_refinement reads
    # 0.2885 against 0.10.  The density suite reads no model
    Mutation(
        "hard-step cutoff",
        ((stratum_density, "cutoff_profile", _hard_step),),
        "density",
        {model: {"density.grid_refinement"} for model in ("u1", "t2", "su2")},
    ),
    # eta~ x (1 + 1e-3 |t|^2) moves the eta-weighted Gram off its closed
    # norms: spin_gram reads 3.97e-4 against 1e-6 on su2.  On a torus the
    # two Grams are one and eta~ is never read, so the tori exit 0
    Mutation(
        "eta~ x (1 + 1e-3 |t|^2)",
        ((coherent_transform, "eta_tilde", _bent_eta),),
        "transform",
        {"su2": {"transform.spin_gram.su2"}},
    ),
    # the closed-form sigma x (1 + 1e-5): sigma_oracle, unitarity and
    # spin_gram each read 1.00e-5, against 1e-10, 1e-6 and 1e-6.  su2
    # unitarity passes at its tolerance of 1e-4, which this error cannot
    # trip (ROADMAP direction 14)
    Mutation(
        "sigma table x (1 + 1e-5)",
        ((coherent_transform, "build_sigma_table", _times(1.0 + 1e-5)),),
        "transform",
        {"u1": {"transform.sigma_oracle", "transform.unitarity.u1",
                "transform.spin_gram.u1"},
         "t2": {"transform.sigma_oracle", "transform.unitarity.t2",
                "transform.spin_gram.t2"},
         "su2": {"transform.sigma_oracle", "transform.spin_gram.su2"}},
    ),
]


@pytest.mark.parametrize(
    "mutation,model",
    [(m, model) for m in MUTATIONS for model in m.fails],
    ids=[f"{m.name}-{model}" for m in MUTATIONS for model in m.fails],
)
def test_mutation_fails_its_checks(monkeypatch, capsys, mutation, model):
    mutation.apply(monkeypatch)
    assert main(["run", "--model", model,
                 "--suite", mutation.suite]) == mutation.exit_code
    failed = {line.split("] ", 1)[1].split(":", 1)[0]
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL] ")}
    assert failed == mutation.fails[model]


def test_no_flag_or_config_key_passes_a_broken_complex_structure(
        monkeypatch, tmp_path, capsys):
    # a tolerance of 1e300 would pass j_squared under the broken J; the
    # SuiteConfig fields are pinned in test_public_surface
    MUTATIONS[0].apply(monkeypatch)
    argv = ["run", "--model", "su2", "--suite", "kahler"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e300"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg"
    cfg.write_text("tol = 1e300\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "unknown key 'tol'" in captured.err
    assert "[PASS]" not in captured.out
