"""Every exported name resolves: the package's __all__, each module's
__all__, and star imports of both.  A deletion that leaves a stale export
behind fails here instead of at a user's import."""

import importlib
import pkgutil

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
