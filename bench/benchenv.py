"""Start-up shared by the benchmark's scripts and tests.

`prepare()` pins the BLAS library to one thread (the workloads are
single-process, closed-loop and use small matrices, and a second BLAS thread
only adds contention noise on a small machine) and puts this checkout's
`src/` first on the import path. `import_emai()` then imports the package and
refuses a copy that lives anywhere else, so a benchmark directory copied
without the sources fails instead of measuring some installed version.
"""
from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MODULES = ("rng", "envs", "nn", "ctde", "rollout", "target", "masking", "explain",
           "evaluation", "replay")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout has no importable `src/emai`."""


def prepare() -> None:
    """Call before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_emai():
    prepare()
    if not (SRC / "emai" / "__init__.py").is_file():
        raise MissingSourceError(f"no emai package under {SRC}")
    import emai
    for module in MODULES:
        importlib.import_module(f"emai.{module}")
    if Path(emai.__file__).resolve().parent != (SRC / "emai").resolve():
        raise MissingSourceError(f"emai imported from {emai.__file__}, not from {SRC}")
    return emai
