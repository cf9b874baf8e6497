"""The package's export tables: ``meq.__all__``, ``meq._EXPORTS`` and the
``__all__`` of every submodule agree with what the modules define, and every
name the benchmark's tracer wraps exists."""

import runpy
from importlib import import_module
from pathlib import Path

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


def test_every_benchmark_traced_name_exists():
    # the traced benchmark run replaces each (module, attribute) pair with a wrapper,
    # so deleting or renaming one of them breaks that run
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    traced = runpy.run_path(str(tracing))["TRACED"]
    missing = [(module, attr) for module, attr in traced
               if not hasattr(import_module(f"meq.{module}"), attr)]
    assert traced and not missing, f"perfbench traces missing names {missing}"
