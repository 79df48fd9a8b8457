"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The arguments go to bench.py, which
runs in a fresh child process with BLAS/OpenMP pinned to one thread, a fixed
hash seed and the checkout's ``src`` first on the import path; its last line
of standard output is the JSON result. Exits non-zero, printing no result,
when the checkout has no scenediff sources or the run exceeds 170 s.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def main() -> int:
    src = ROOT / "src"
    if not (src / "scenediff" / "__init__.py").is_file():
        print(f"no scenediff sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"the run did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
