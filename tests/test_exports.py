"""The package's public surface: every submodule's names, and nothing else."""

import importlib

import promptsearch
from promptsearch import errors

_SUBMODULES = ("model", "projection", "tasks", "energies", "sampler", "metrics",
               "analysis", "synthetic")


def test_package_exports_the_submodules_names():
    expected = {name for module in _SUBMODULES
                for name in importlib.import_module(f"promptsearch.{module}").__all__}
    expected |= {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, Exception)
                 and value.__module__ == errors.__name__}
    expected.add("__version__")
    assert len(promptsearch.__all__) == len(set(promptsearch.__all__))
    assert set(promptsearch.__all__) == expected
    for name in promptsearch.__all__:
        assert hasattr(promptsearch, name), name
