"""Local replay of the CI workflow's console-script step.

    python -m pytest tests/check_console.py
    python tests/check_console.py

Reads the `run:` block of the "Console script entry point" step of
.github/workflows/tier1.yml and runs it under `bash -eo pipefail`, with
`twotree` defined as `python -m twotree.cli` on this checkout's src/ and
RUNNER_TEMP set to a temporary directory.  It fails on a non-zero exit.
The file name keeps it out of the default test collection; it takes about
16 s (Python 3.11, 2-vCPU VM).
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STEP = "Console script entry point"


def console_script() -> str:
    """The step's `run: |` block, dedented."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    at = lines.index(next(line for line in lines if line.strip() == f"- name: {STEP}"))
    start = next(i for i in range(at + 1, len(lines)) if lines[i].strip() == "run: |") + 1
    indent = len(lines[start]) - len(lines[start].lstrip())
    body = []
    for line in lines[start:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        body.append(line[indent:])
    return "\n".join(body).rstrip() + "\n"


def replay(temp: str) -> int:
    python = Path(sys.executable)
    script = f'twotree() {{ "{python}" -m twotree.cli "$@"; }}\n' + console_script()
    env = dict(
        os.environ,
        RUNNER_TEMP=temp,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PATH=os.pathsep.join([str(python.parent), os.environ.get("PATH", "")]),
    )
    return subprocess.run(["bash", "-eo", "pipefail", "-c", script], cwd=ROOT, env=env, timeout=900).returncode


def test_console_step_exits_0(tmp_path):
    assert replay(str(tmp_path)) == 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as temp:
        sys.exit(replay(temp))
