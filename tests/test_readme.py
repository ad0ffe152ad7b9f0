"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python block"
    namespace = {"__name__": "__readme__"}  # one namespace: a block may use an earlier one's names
    for k, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {k}", "exec"), namespace)
    assert capsys.readouterr().out
