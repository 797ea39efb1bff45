"""The package's lazy export table: every listed name resolves, and only
those do."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uncertain_objectives as uo


@pytest.mark.parametrize("name", uo.__all__)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"uncertain_objectives.{uo._MODULE_OF[name]}")
    assert getattr(uo, name) is getattr(module, name)


@pytest.mark.parametrize("name", sorted(uo._SUBMODULES))
def test_every_submodule_imports(name):
    assert getattr(uo, name) is importlib.import_module(f"uncertain_objectives.{name}")


@pytest.mark.parametrize(
    "name", ["population_union", "is_perfectly_equal", "pointwise_dominates", "no_such_name"]
)
def test_unlisted_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(uo, name)


def test_dir_lists_the_exports():
    assert set(uo.__all__) <= set(dir(uo))


def loaded_by(statement):
    """Names of the modules that ``statement`` loads in a fresh interpreter."""
    src = str(Path(uo.__file__).resolve().parents[1])
    code = f"import sys; before = set(sys.modules); {statement}; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "module,unloaded",
    [
        ("uncertain_objectives", ("uncertain_objectives.",)),
        ("uncertain_objectives.constraints", ("numpy",)),
        ("uncertain_objectives.axioms",
         tuple(f"uncertain_objectives.{m}" for m in ("simplex", "beliefs", "scenario", "cli"))),
    ],
)
def test_imports_load_only_what_they_need(module, unloaded):
    # The package loads each submodule on first use, so callers that need
    # only part of it never pay for numpy, the LP solver or the parser.
    loaded = loaded_by(f"import {module}")
    assert module in loaded
    assert sorted(m for m in loaded if m.startswith(unloaded)) == []
