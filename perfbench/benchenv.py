"""Process environment shared by the benchmark runner and its child processes.

Everything here must run before numpy is imported: the BLAS thread count is
read from the environment when the BLAS library loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: the machine is shared, and a single thread keeps run-to-run
# spread low. The value is recorded with every result.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout does not contain the package the benchmark measures."""


def bootstrap() -> None:
    """Pin BLAS threads and make `import baselcost` resolve to ROOT/src only."""
    if not (SRC / "baselcost" / "__init__.py").is_file():
        raise MissingProgram(f"package source not found under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.chdir(ROOT)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: same thread pins, package from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def check_import_location(module) -> None:
    """Refuse to measure a copy of the package from outside this checkout."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise MissingProgram(f"baselcost imported from {path}, not from {SRC}")
