"""The package's export tables: ``meq.__all__``, ``meq._EXPORTS`` and the
``__all__`` of every submodule agree with what the modules define."""

from importlib import import_module

import meq


def test_every_package_name_resolves():
    for name in meq.__all__:
        assert getattr(meq, name) is not None, name


def test_every_export_is_public_in_its_submodule():
    for name, submodule in meq._EXPORTS.items():
        module = import_module(f"meq.{submodule}")
        assert name in module.__all__, f"{name} is not in meq.{submodule}.__all__"
        assert getattr(meq, name) is getattr(module, name)


def test_every_submodule_name_exists():
    for submodule in meq._SUBMODULES:
        module = import_module(f"meq.{submodule}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"meq.{submodule}.__all__ names missing {missing}"
