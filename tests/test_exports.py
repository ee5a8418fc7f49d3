"""The package's public names: each module's __all__ and the top-level imports agree."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rotspec

MODULES = sorted(m.name for m in pkgutil.iter_modules(rotspec.__path__))


def _top_level_imports():
    """(module, public name) for every `from .module import name` in __init__."""
    tree = ast.parse(Path(rotspec.__file__).read_text())
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if not alias.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"rotspec.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_package_exports_are_in_module_all():
    imports = _top_level_imports()
    assert imports
    stray = [(mod, n) for mod, n in imports
             if n not in importlib.import_module(f"rotspec.{mod}").__all__]
    assert not stray
