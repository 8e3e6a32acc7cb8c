"""Every `>>>` example in the package's docstrings runs and shows what it says."""

import doctest
import importlib
import pkgutil

import quasisym

MODULES = ["quasisym", *sorted(name for _, name, _ in
                               pkgutil.iter_modules(quasisym.__path__, "quasisym."))]


def test_every_docstring_example_runs():
    results = {name: doctest.testmod(importlib.import_module(name)) for name in MODULES}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) > 0
