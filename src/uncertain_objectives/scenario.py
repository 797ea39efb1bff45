"""Scenario documents: the JSON interchange format of the CLI.

A scenario declares a world namespace (id -> population), constraints over
those worlds (raw labeled edges or structured axiom instances), and
optionally a belief matrix, an explicit order distribution, and a decision
rule configuration.  Rationals are written as integers, "p/q" strings,
decimal strings, or decimal number literals, which are read exactly;
serialization is canonical (sorted keys, "p/q" forms), so parse ->
serialize -> parse is the identity on canonical documents.

Schema versions are carried in a ``$schema`` field and validated on parse.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .axioms import (
    AXIOMS,
    COUNT,
    POPULATION,
    RATIONAL,
    AxiomId,
    AxiomInstance,
    WorldField,
    make_instance,
)
from .beliefs import BeliefMatrix, OrderDistribution
from .constraints import ConstraintGraph, Edge
from .decisions import PartialPolicy, RuleConfig
from .errors import IntegrityError, SchemaError
from .populations import Population, World
from .rationals import as_rational, format_rational

SCENARIO_SCHEMA = "uncertain-objectives/scenario/v1"
MATRIX_SCHEMA = "uncertain-objectives/matrix/v1"


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def load_json(data, path: str = "$"):
    """A JSON document from text or UTF-8 bytes.  A number literal with a
    fraction or an exponent becomes the exact ``Fraction`` its text names,
    not the nearest float.  Bytes that are not UTF-8, invalid JSON, an
    integer or exponent past the interpreter's integer-string digit limit
    and nesting too deep to decode raise ``SchemaError``."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_float=as_rational)
    except UnicodeDecodeError as exc:  # a ValueError too, so caught first
        raise SchemaError(path, f"not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long
        raise SchemaError(path, f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(path, "JSON nested too deeply to decode") from exc


def _checked(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ``ValueError`` it raises reported
    as a ``SchemaError`` at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _declared(wid, path: str, worlds) -> None:
    if wid not in worlds:
        raise IntegrityError(f"{path}: undeclared world id {wid!r}")


def _parse_rational(value, path: str):
    return _checked(path, as_rational, value)


def parse_population(value, path: str) -> Population:
    _expect(isinstance(value, list), path, "population must be a list of [welfare, count] pairs")
    groups = []
    for i, pair in enumerate(value):
        _expect(
            isinstance(pair, list) and len(pair) == 2,
            f"{path}[{i}]",
            "expected a [welfare, count] pair",
        )
        level = _parse_rational(pair[0], f"{path}[{i}][0]")
        groups.append((level, _parse_count(pair[1], f"{path}[{i}][1]")))
    return Population(groups)


@dataclass
class Constraint:
    """One scenario constraint: always an edge, sometimes a full instance."""

    edge: Edge
    instance: AxiomInstance | None
    raw: dict


@dataclass
class Scenario:
    worlds: dict[str, Population]
    constraints: list[Constraint] = field(default_factory=list)
    belief_matrix: BeliefMatrix | None = None
    distribution: OrderDistribution | None = None
    rule: RuleConfig | None = None

    def graph(self) -> ConstraintGraph:
        return ConstraintGraph(
            tuple(sorted(self.worlds)), tuple(c.edge for c in self.constraints)
        )

    def to_json(self) -> dict:
        doc: dict = {
            "$schema": SCENARIO_SCHEMA,
            "worlds": {wid: self.worlds[wid].to_json() for wid in sorted(self.worlds)},
            "constraints": [c.raw for c in self.constraints],
        }
        if self.belief_matrix is not None:
            doc["belief_matrix"] = matrix_to_json(self.belief_matrix)
        if self.distribution is not None:
            doc["distribution"] = self.distribution.to_json()
        if self.rule is not None:
            doc["rule"] = {k: v for k, v in self.rule.to_json().items() if v is not None}
        return doc

    def canonical_text(self) -> str:
        text = json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":"), default=format_rational
        )
        return text + "\n"

    def digest(self) -> str:
        return "sha256:" + hashlib.sha256(self.canonical_text().encode()).hexdigest()


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(s.to_json(), sort_keys=True, indent=2, default=format_rational) + "\n"


def _parse_count(value, path: str) -> int:
    ok = isinstance(value, int) and not isinstance(value, bool) and value >= 1
    _expect(ok, path, "count must be a positive integer")
    return value


_FIELD_PARSERS = {POPULATION: parse_population, RATIONAL: _parse_rational, COUNT: _parse_count}


def _world_ref(doc, key, path, worlds) -> World:
    wid = doc[key]
    _expect(isinstance(wid, str), f"{path}.{key}", "world reference must be a string id")
    _declared(wid, f"{path}.{key}", worlds)
    return World(wid, worlds[wid])


def _parse_constraint(doc, i, worlds) -> Constraint:
    path = f"constraints[{i}]"
    _expect(isinstance(doc, dict), path, "constraint must be an object")
    label = doc.get("label", f"C{i + 1}")
    _expect(isinstance(label, str) and label, f"{path}.label", "label must be a nonempty string")

    if "axiom" not in doc:
        for key in ("from", "to"):
            _expect(key in doc, path, f"raw edge needs {key!r}")
        worse, better = (_world_ref(doc, key, path, worlds).id for key in ("from", "to"))
        _expect(worse != better, path, f"raw edge from {worse!r} to itself")
        return Constraint(
            edge=Edge(worse=worse, better=better, label=label),
            instance=None,
            raw=doc,
        )

    axiom = _checked(f"{path}.axiom", AxiomId, doc["axiom"])
    fields = {}
    for key, kind in AXIOMS[axiom].fields.items():
        _expect(key in doc, path, f"missing required field {key!r}")
        if isinstance(kind, WorldField):
            fields[key] = _world_ref(doc, key, path, worlds)
        else:
            fields[key] = _FIELD_PARSERS[kind](doc[key], f"{path}.{key}")
    inst = make_instance(axiom, **fields)
    return Constraint(
        edge=Edge(worse=inst.claim_worse, better=inst.claim_better, label=label),
        instance=inst,
        raw=doc,
    )


def _world_ids(value, path: str, worlds, message: str) -> list:
    """``value`` if it lists string ids, each declared in ``worlds`` unless that is None."""
    _expect(isinstance(value, list) and all(isinstance(w, str) for w in value), path, message)
    if worlds is not None:
        for w in value:
            _declared(w, path, worlds)
    return value


def parse_matrix(doc, path: str = "belief_matrix", worlds=None) -> BeliefMatrix:
    _expect(isinstance(doc, dict), path, "matrix must be an object")
    _expect("worlds" in doc and "z" in doc, path, "matrix needs 'worlds' and 'z'")
    ids = _world_ids(doc["worlds"], f"{path}.worlds", worlds, "worlds must be a list of string ids")
    z = doc["z"]
    _expect(isinstance(z, list), f"{path}.z", "z must be a list of rows")
    grid = []
    for i, row in enumerate(z):
        _expect(isinstance(row, list), f"{path}.z[{i}]", "row must be a list")
        grid.append([_parse_rational(v, f"{path}.z[{i}][{j}]") for j, v in enumerate(row)])
    tag = doc.get("evidence_tag", "")
    _expect(isinstance(tag, str), f"{path}.evidence_tag", "evidence_tag must be a string")
    return _checked(path, BeliefMatrix, ids, grid, tag)


def matrix_to_json(m: BeliefMatrix) -> dict:
    doc = {
        "worlds": list(m.worlds),
        "z": [[format_rational(v) for v in row] for row in m.z],
    }
    if m.evidence_tag:
        doc["evidence_tag"] = m.evidence_tag
    return doc


def parse_distribution(doc, path: str = "distribution", worlds=None) -> OrderDistribution:
    _expect(isinstance(doc, dict), path, "distribution must be an object")
    _expect("orders" in doc and "p" in doc, path, "distribution needs 'orders' and 'p'")
    orders = doc["orders"]
    _expect(isinstance(orders, list), f"{path}.orders", "orders must be a list")
    for i, o in enumerate(orders):
        _world_ids(o, f"{path}.orders[{i}]", worlds,
                   "each order must be a list of world ids, best first")
    probs = doc["p"]
    _expect(isinstance(probs, list), f"{path}.p", "p must be a list")
    values = [_parse_rational(v, f"{path}.p[{i}]") for i, v in enumerate(probs)]
    return _checked(path, OrderDistribution, orders, values)


def _parse_rule(doc, path: str = "rule") -> RuleConfig:
    _expect(isinstance(doc, dict), path, "rule must be an object")
    seed = doc.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool), f"{path}.seed",
            "seed must be an integer")
    values = {
        name: _parse_rational(doc[name], f"{path}.{name}") for name in ("delta", "tau")
        if name in doc
    }
    if "policy" in doc:
        values["policy"] = _checked(f"{path}.policy", PartialPolicy, doc["policy"])
    return _checked(path, RuleConfig, kind=doc.get("kind"), seed=seed, **values)


def parse_scenario(doc) -> Scenario:
    """Parse and validate a scenario document: JSON text or bytes, or the
    object they decode to."""
    if isinstance(doc, (str, bytes)):
        doc = load_json(doc)
    _expect(isinstance(doc, dict), "$", "scenario must be a JSON object")
    schema = doc.get("$schema", SCENARIO_SCHEMA)
    _expect(schema == SCENARIO_SCHEMA, "$schema", f"expected {SCENARIO_SCHEMA!r}")
    unknown = set(doc) - {
        "$schema", "worlds", "constraints", "belief_matrix", "distribution", "rule",
    }
    _expect(not unknown, "$", f"unknown top-level fields: {sorted(unknown)}")

    _expect("worlds" in doc and isinstance(doc["worlds"], dict), "worlds",
            "worlds must be an object of id -> population")
    worlds: dict[str, Population] = {}
    for wid in sorted(doc["worlds"]):
        _expect(isinstance(wid, str) and wid, "worlds", "world ids must be nonempty strings")
        worlds[wid] = parse_population(doc["worlds"][wid], f"worlds.{wid}")

    constraints = []
    if "constraints" in doc:
        _expect(isinstance(doc["constraints"], list), "constraints", "must be a list")
        constraints = [
            _parse_constraint(c, i, worlds) for i, c in enumerate(doc["constraints"])
        ]
        # A default label C{i+1} may repeat an explicit one, so every label is checked.
        first: dict[str, int] = {}
        for i, c in enumerate(constraints):
            if first.setdefault(c.edge.label, i) != i:
                raise IntegrityError(f"constraints[{i}].label: repeated label {c.edge.label!r}")

    matrix = None
    if "belief_matrix" in doc:
        matrix = parse_matrix(doc["belief_matrix"], "belief_matrix", worlds)

    distribution = None
    if "distribution" in doc:
        distribution = parse_distribution(doc["distribution"], "distribution", worlds)

    rule = None
    if "rule" in doc:
        rule = _parse_rule(doc["rule"])

    return Scenario(
        worlds=worlds,
        constraints=constraints,
        belief_matrix=matrix,
        distribution=distribution,
        rule=rule,
    )
