"""Process set-up shared by the benchmark entry points.

BLAS must be pinned to one thread before NumPy is first imported, and the
gearevo package must come from this checkout's `src/`, never from an
installed copy, so every entry point calls `prepare()` before importing
anything that pulls in NumPy or gearevo.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Run directories and trace files; inside the checkout and git-ignored.
WORK_DIR = ROOT / ".bench_build" / "perfbench"

BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout holds no gearevo source tree to benchmark."""


def prepare() -> None:
    """Pin BLAS threads and put this checkout's `src/` first on sys.path."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "gearevo" / "__init__.py").is_file():
        raise MissingSourceError(f"no gearevo package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
