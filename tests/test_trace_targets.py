"""The names perfbench's tracer wraps still exist in stabreg.

``perfbench/tracing.py`` rebinds ``(module, function)`` pairs by name, so a
refactor that renames or removes one breaks ``perfbench/run.py --trace 1``
only at run time.  The file is parsed, not imported, so no bytecode is
written under ``perfbench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_TARGETS" for t in node.targets
        ):
            return [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no _TARGETS")


@pytest.mark.parametrize("module, name", _traced_targets())
def test_traced_name_resolves_in_stabreg(module, name):
    assert callable(getattr(importlib.import_module(f"stabreg.{module}"), name, None))


def test_fit_one_keeps_the_signature_the_tracer_wraps():
    from stabreg.cli import _fit_one

    assert list(inspect.signature(_fit_one).parameters) == ["sample", "part", "cfg"]
