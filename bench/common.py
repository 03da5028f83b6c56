"""Shared start-up of the benchmark scripts.

Locates the checkout the benchmark lives in, fixes the BLAS thread count and
makes ``import mirnet`` resolve to this checkout's ``src/``. Nothing here
imports numpy, so the thread count can still be fixed after importing it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "_results"
REFERENCE_DIR = BENCH_DIR / "reference"

# scipy.linalg.solve and np.linalg.cond otherwise pick a thread count from
# the machine; one thread is at or below nproc everywhere and is the steadiest.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (sources missing or shadowed)."""


def pin_blas_threads() -> None:
    """Fix the BLAS/LAPACK thread count; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def add_src_path() -> None:
    """Put this checkout's ``src/`` first on the import path."""
    if not (SRC / "mirnet" / "__init__.py").is_file():
        raise SetupError(f"no mirnet sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_mirnet_origin(module) -> None:
    """Refuse to measure a mirnet imported from anywhere but ``src/``."""
    origin = Path(module.__file__).resolve().parent
    if origin != (SRC / "mirnet").resolve():
        raise SetupError(f"mirnet was imported from {origin}, not from {SRC}")
