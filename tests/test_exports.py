"""The package's lazy export table: every listed name resolves, and only
those do."""

import importlib

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
