"""``python -m benchmarks.xaibench``: see README.md next to this file."""

import time

STARTED = time.perf_counter()  # setup_s counts imports from here on

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from benchmarks.xaibench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(started=STARTED))
