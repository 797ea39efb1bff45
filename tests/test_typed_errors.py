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


SOURCES = sorted(Path(uncertain_objectives.__file__).parent.glob("*.py"))


def _name(node):
    """The last name of a ``Name`` or dotted ``Attribute``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _constructs_decoder(node):
    return isinstance(node, ast.Call) and _name(node.func) == "JSONDecoder"


def decoder_names(trees):
    """Names and attributes bound to a ``JSONDecoder`` anywhere in ``trees``."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _constructs_decoder(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {_name(t) for t in targets}
    names.discard(None)
    return names


def json_decodes(tree, decoders):
    """Line numbers of the JSON decoding calls under ``tree``: ``json.load``
    and ``json.loads``, and ``decode`` or ``raw_decode`` on a ``JSONDecoder``
    built in place or bound to one of ``decoders``; and of imports that
    would reach them by another name."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, attr = node.func.value, node.func.attr
            if _name(owner) == "json" and attr in ("load", "loads"):
                lines.add(node.lineno)
            elif attr in ("decode", "raw_decode") and (
                _constructs_decoder(owner) or _name(owner) in decoders
            ):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in ("json", "json.decoder"):
            if any(alias.name in ("load", "loads", "JSONDecoder") for alias in node.names):
                lines.add(node.lineno)
    return lines


def test_json_is_decoded_only_by_load_json():
    # scenario.load_json maps every decoding failure to SchemaError, so every
    # outside document is decoded there.
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    decoders = decoder_names(trees.values())
    decodes, guarded = set(), set()
    for name, tree in trees.items():
        decodes |= {(name, line) for line in json_decodes(tree, decoders)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (name, node.name) == ("scenario.py", "load_json"):
                guarded |= {(name, line) for line in json_decodes(node, decoders)}
    assert guarded
    assert decodes == guarded


def test_json_is_indented_only_by_dump_json():
    # scenario.dump_json writes what json.dumps(..., indent=...) writes,
    # without the stdlib's pure-Python indenting encoder.
    indented = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _name(node.func.value) == "json"
                and node.func.attr in ("dump", "dumps")
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                indented.append(f"{path.name}:{node.lineno}")
    assert indented == []


def test_typed_errors_keep_their_builtin_bases():
    # Callers that catch ValueError or RuntimeError keep working.
    assert issubclass(InvalidValueError, ValueError)
    assert issubclass(SolverError, RuntimeError)
    assert issubclass(SolverError, UncertainObjectivesError)
