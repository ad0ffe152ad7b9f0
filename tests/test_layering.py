"""Module boundaries that a refactor could erode without any test failing."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stabreg

CLI = Path(__file__).resolve().parents[1] / "src" / "stabreg" / "cli.py"


def test_cli_imports_no_private_name_from_stabreg():
    private = []
    for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "stabreg"
        ):
            private += [alias.name for alias in node.names
                        if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


@pytest.mark.parametrize("module", ["stabreg"] + [
    f"stabreg.{info.name}" for info in pkgutil.iter_modules(stabreg.__path__)
])
def test_every_exported_name_resolves(module):
    # a stale export of a deleted name fails only at `from stabreg import *`
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
