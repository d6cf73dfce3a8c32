"""Local run of the CI workflow's console-script checks.

    python -m pytest tests/check_console.py
    python tests/check_console.py

Runs tests/console.sh, the script the CI step runs, as CI runs it
(`bash -eo pipefail tests/console.sh`), with `twotree` defined as a shell
function running `python -m twotree.cli` on this checkout's src/ and
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


def replay(temp: str) -> int:
    python = Path(sys.executable)
    env = dict(
        os.environ,
        RUNNER_TEMP=temp,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PATH=os.pathsep.join([str(python.parent), os.environ.get("PATH", "")]),
        # bash defines an exported function from its environment.
        **{"BASH_FUNC_twotree%%": f'() {{ "{python}" -m twotree.cli "$@"; }}'},
    )
    return subprocess.run(["bash", "-eo", "pipefail", "tests/console.sh"], cwd=ROOT, env=env, timeout=900).returncode


def test_console_step_exits_0(tmp_path):
    assert replay(str(tmp_path)) == 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as temp:
        sys.exit(replay(temp))
