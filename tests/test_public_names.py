"""`from lctid.<module> import *` works for every module, so no `__all__`
lists a name that the module no longer defines."""

import pkgutil

import pytest

import lctid

MODULES = ["lctid", *sorted(f"lctid.{m.name}"
                            for m in pkgutil.iter_modules(lctid.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})
