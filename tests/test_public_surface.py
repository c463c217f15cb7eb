"""Each module's ``__all__`` is its public surface, and it is exact: every
listed name resolves, and every public function or class the module
defines is listed."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import quantlab

MODULES = [quantlab] + [
    importlib.import_module(f"quantlab.{info.name}")
    for info in pkgutil.iter_modules(quantlab.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_export_list_is_the_public_surface(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


# the scalar point layer the stacked forms replaced: a point is a group
# matrix and a coordinate array, with no wrapper type or one-point twin;
# and the dict coefficient format: a coefficient vector is one
# basis-ordered array, a sigma table one array in label order, and a
# reduced character one row of samples; and the quadrature layer's second
# formats: a rule is one axis, a (points, weights) pair, with no rule class
# or product grid, and the quadrature sigma is one stacked call, with no
# scalar or torus-only twin; and the
# irrep object: an irrep is its label; and the torus-side records: a root
# is a row, the Weyl group a stack, a curvature spectrum one array and the
# capacity cutoff a function; and the rules that the input decides: a
# label list is checked as one array, a torus character is summed over the
# weights, and the zero-set conjugator diagonalizes the matrix with the
# wider eigenvalue gap, with no retry over mix weights; and the
# round-by-round sampler: samples are drawn as blocks; and the potential's
# spec language and report layer: a potential is its model and two closed
# forms, built by a factory with float coefficients, and each scan
# certificate builds its own report from one scan; and the tolerance
# override: each certificate pins its own tolerance; and the names only
# tests reached, the metric J^T Omega and a grid field from a closed form,
# which the tests build; and the su2 character Gram's second entry point:
# one character_gram call builds the flat and the eta-weighted Gram
DELETED = {
    "lie_core": ("AlgebraVec", "algebra_vec", "alg_to_matrix",
                 "coords_from_matrix", "adjoint_action", "exp_alg",
                 "torus_point", "random_algebra", "RealRoot",
                 "WeylElement", "_coord_projector", "random_coords_batch"),
    "kahler_geom": ("BasePoint", "dphi_matrix", "complex_structure_J",
                    "metric_batch"),
    "coherent_transform": ("PeterWeylVector", "SigmaTable", "_torus_sigmas",
                           "_logsumexp_rows", "Irrep", "irrep",
                           "_normalize_label", "_su2_characters",
                           "_su2_character_gram"),
    "psh_analysis": ("SpectrumReport", "_covectors", "make_potential",
                     "psh_verdict", "_scan_grid"),
    "quadrature": ("model_torus_rule", "QuadratureRule"),
    "reduction": ("ZeroSetPoint", "zero_set_point", "momentum_map",
                  "ReducedFunction", "_MIX_WEIGHTS", "reduction_unitary",
                  "_torus_character_values"),
    "stratum_density": ("CutoffSequence", "field_from_function"),
    "cli_report": ("_tol",),
}
# the dataclasses whose fields are exactly these
FIELDS = {
    "cli_report": {"SuiteConfig": ["model", "suite", "seed", "cutoff",
                                   "level", "grid", "out"]},
    "psh_analysis": {"InvariantPotential": ["model", "grad", "hess"]},
    "reduction": {"ReducedRepresentative": ["t", "Y0", "conjugator"]},
}


@pytest.mark.parametrize("module", sorted(DELETED))
def test_point_wrappers_and_scalar_twins_stay_deleted(module):
    mod = importlib.import_module(f"quantlab.{module}")
    assert [name for name in DELETED[module] if hasattr(mod, name)] == []
    for cls, names in FIELDS.get(module, {}).items():
        fields = dataclasses.fields(getattr(mod, cls))
        assert [f.name for f in fields] == names
