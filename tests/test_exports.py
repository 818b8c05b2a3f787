"""Every exported name resolves: the package's __all__, each module's
__all__, and star imports of both.  A deletion that leaves a stale export
behind fails here instead of at a user's import.  The runtime imports no
more than its declared dependencies."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rmaccess

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(rmaccess.__path__) if info.name != "__main__"
)


def _star_import(module_name):
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    return namespace


def test_package_exports_resolve():
    assert len(set(rmaccess.__all__)) == len(rmaccess.__all__)
    assert [name for name in rmaccess.__all__ if not hasattr(rmaccess, name)] == []
    assert set(rmaccess.__all__) <= set(_star_import("rmaccess"))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"rmaccess.{name}")
    exported = module.__all__
    assert exported and len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert set(exported) <= set(_star_import(module.__name__))


_NO_SCIPY_PROBE = """
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from rmaccess.sim_cli import ExperimentSpec, presets, run_single_trial

for spec in presets().values():
    for point in spec.points():
        spec.frame_for(point), spec.geometry_for(point), spec.detector_for(point)
spec = ExperimentSpec(devices=50, antennas=2, m=4, p=2, trials=1, seed=9, area=10_000.0)
record = run_single_trial(spec, spec.points()[0], 0)
assert record["K_star"] > 0 and record["truth"] >= 0
assert sys.modules["scipy"] is None
assert [name for name in sys.modules if name.startswith("scipy.")] == []
print("ok")
"""


def test_runtime_needs_no_scipy():
    """The package runs on numpy and PyYAML alone; scipy is a test-only
    dependency of the closed forms' quadrature oracles."""
    src = str(Path(rmaccess.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_import_leaves_yaml_and_the_process_pool_unloaded():
    """PyYAML and the process pool are loaded where a spec file is read and
    a pool is started, not by importing the package."""
    src = str(Path(rmaccess.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, rmaccess; "
        "print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
