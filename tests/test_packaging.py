import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy():
    # A fresh interpreter: the test session itself may have scipy loaded.
    code = (
        "import sys, noisychaos; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
