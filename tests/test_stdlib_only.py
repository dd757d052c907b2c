"""tmat uses only the standard library: importing it must not pull in numpy,
even where numpy is installed."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tmat; print(tmat.__file__); print('numpy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert Path(out[0]).resolve().is_relative_to(SRC)
    assert out[1] == "False"
