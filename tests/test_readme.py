"""The README's python code blocks run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README.md holds no python code block"
    for number, code in enumerate(blocks, start=1):
        exec(compile(code, f"README.md python block {number}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
