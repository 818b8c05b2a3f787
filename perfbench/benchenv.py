"""Process set-up shared by the benchmark's entry scripts.

prepare() caps BLAS/OpenMP threads, puts the checkout's own `src/` first on
the import path and refuses to go on unless rmaccess is imported from there,
so the benchmark always measures the source tree it sits in and never an
installed copy.  stamp() names the machine and library versions a run used.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS/OpenMP thread per process: the sweep workload runs one worker per
# CPU, so any more would put more threads than CPUs on the machine.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout has no importable rmaccess source tree."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def prepare() -> None:
    """Cap threads and import rmaccess from this checkout's src/ only.

    Must run before numpy is imported; raises SourceMissing when the
    checkout holds no rmaccess sources.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "rmaccess"
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no rmaccess sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rmaccess

    if Path(rmaccess.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"rmaccess was imported from {rmaccess.__file__}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp() -> dict:
    """Machine and library versions of this run."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ[_THREAD_VARS[0]]),
    }
