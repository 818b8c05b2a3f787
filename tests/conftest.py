"""Shared test plumbing.

The acceptance tests push one verdict line each into a registry; the hook
below prints the collected lines after the run so they show up in the
terminal even when pytest captures per-test stdout.  The thread-count tests
run a probe script in fresh interpreters at one and two BLAS threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion_report():
    def _report(line: str) -> None:
        print(line)
        _CRITERION_LINES.append(line)

    return _report


@pytest.fixture
def blas_thread_outputs():
    """Run a probe script under OPENBLAS_NUM_THREADS=1 and =2, importing
    this checkout's rmaccess, and return the two stdouts."""
    import rmaccess

    src = str(Path(rmaccess.__file__).resolve().parents[1])

    def _run(probe: str) -> list[str]:
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(done.stdout)
        return outputs

    return _run


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
