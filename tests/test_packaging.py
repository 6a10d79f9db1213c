import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(package: str) -> str:
    """``package`` and its submodules loaded by ``import noisychaos`` in a
    fresh interpreter; the test session itself may have them loaded."""
    code = (
        "import sys, noisychaos; "
        f"print(sorted(m for m in sys.modules if m == {package!r} "
        f"or m.startswith({package + '.'!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    assert loaded_modules("scipy") == "[]"


def test_import_does_not_load_mpmath():
    assert loaded_modules("mpmath") == "[]"
