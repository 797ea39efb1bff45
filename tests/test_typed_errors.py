"""Library code raises only the package's typed errors."""

import ast
from pathlib import Path

import uncertain_objectives
from uncertain_objectives.errors import (
    InvalidValueError,
    SolverError,
    UncertainObjectivesError,
)


def test_no_bare_value_or_runtime_errors_in_src():
    bare = []
    for path in sorted(Path(uncertain_objectives.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "RuntimeError"):
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def json_decodes(tree):
    """Line numbers of the json.load / json.loads calls under ``tree``, and
    of imports that would call them by another name."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id == "json" and node.func.attr in ("load", "loads"):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in ("load", "loads") for alias in node.names):
                lines.add(node.lineno)
    return lines


def test_json_is_decoded_only_by_load_json():
    # scenario.load_json maps every decoding failure to SchemaError, so every
    # outside document is decoded there.
    decodes, guarded = set(), set()
    for path in sorted(Path(uncertain_objectives.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        decodes |= {(path.name, line) for line in json_decodes(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("scenario.py", "load_json"):
                guarded |= {(path.name, line) for line in json_decodes(node)}
    assert guarded
    assert decodes == guarded


def test_typed_errors_keep_their_builtin_bases():
    # Callers that catch ValueError or RuntimeError keep working.
    assert issubclass(InvalidValueError, ValueError)
    assert issubclass(SolverError, RuntimeError)
    assert issubclass(SolverError, UncertainObjectivesError)
