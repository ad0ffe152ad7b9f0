"""Module boundaries that a refactor could erode without any test failing."""

import ast
from pathlib import Path

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
