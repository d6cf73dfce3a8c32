"""The README's library example runs against the installed package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert blocks, "README has no python block under ## Library"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
