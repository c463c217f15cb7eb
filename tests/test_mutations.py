"""Every certificate must be able to fail.

Each row of ``MUTATIONS`` breaks one claim at the binding its certificates
read, runs the suite it names through ``quantlab run`` on each model it
lists, and pins the exit code (1 for an honest FAIL) and the exact set of
checks that FAIL.
"""

from dataclasses import dataclass

import pytest

from quantlab import kahler_geom, reduction
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
        ((kahler_geom, "complex_structure_batch", _times(1.001)),),
        "kahler",
        {model: {"kahler.j_squared", "kahler.completeness"}
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
