"""Record the analytic_grid reference series that the benchmark's checks
compare against, at the reference seed and every size.

    python3 bench/record_reference.py

Run it only at a commit whose analytic results are trusted; the file it
writes, ``reference/analytic_grid.json``, is committed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import ROOT, git_sha  # noqa: E402

SEED = 0


def main() -> int:
    data = {"seed": SEED, "commit": git_sha(ROOT), "sizes": {}}
    for size in workloads.SIZES:
        grid = workloads.AnalyticGrid(SEED, size, ROOT / ".bench_out" / "record" / size)
        grid.run_pass()
        data["sizes"][size] = {
            task: {f: {"re": v.real.tolist(), "im": v.imag.tolist()} for f, (_, v) in files.items()}
            for task, files in grid.series().items()
        }
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(data, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
