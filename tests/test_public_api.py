"""The public names the benchmark's tracer wraps, and every ``__all__``.

``perfbench/tracer.py`` wraps functions by name from outside the package,
so removing or renaming one of them breaks the traced benchmark; these
tests make that a tier-1 failure too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# linalg, cli and errors define no __all__
MODULES_WITH_ALL = ("classify", "conjugation", "evidence", "fourier", "hadamard")


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for layer, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("layer, name", _traced(), ids=lambda x: x)
def test_traced_name_resolves(layer, name):
    # import_module: the package attribute ``classify`` is the function
    module = importlib.import_module(f"affinespectra.{layer}")
    assert callable(getattr(module, name, None)), f"affinespectra.{layer}.{name}"


@pytest.mark.parametrize("layer", MODULES_WITH_ALL)
def test_every_all_entry_exists(layer):
    module = importlib.import_module(f"affinespectra.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []

