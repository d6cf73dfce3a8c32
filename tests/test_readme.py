"""The README's library and CLI examples run against the installed package."""

import re
import shlex
from pathlib import Path

from twotree import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert blocks, "README has no python block under ## Library"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_cli_examples_run(capsys):
    # `verify` and `reduce file` (which needs a file) are covered in test_cli.
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    examples = [shlex.split(line, comments=True) for line in block.splitlines()]
    examples = [argv for argv in examples if argv and argv[1:2] != ["verify"] and argv[1:3] != ["reduce", "file"]]
    assert len(examples) >= 5
    for argv in examples:
        assert argv[0] == "twotree", argv
        assert cli.main(argv[1:]) == 0, argv
    capsys.readouterr()
