"""Each module's ``__all__`` is its public surface, and it is exact: every
listed name resolves, and every public function or class the module
defines is listed."""

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
