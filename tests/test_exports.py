"""Every name a katokit module lists in `__all__` exists on that module."""

import importlib
import pkgutil

import pytest

import katokit

MODULES = ["katokit"] + sorted(f"katokit.{m.name}" for m in pkgutil.iter_modules(katokit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
