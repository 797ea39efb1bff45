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


def test_typed_errors_keep_their_builtin_bases():
    # Callers that catch ValueError or RuntimeError keep working.
    assert issubclass(InvalidValueError, ValueError)
    assert issubclass(SolverError, RuntimeError)
    assert issubclass(SolverError, UncertainObjectivesError)
