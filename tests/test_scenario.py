import contextlib
import dataclasses
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uncertain_objectives import (
    AxiomId,
    CriticalLevel,
    Edge,
    SearchBounds,
    World,
    parse_scenario,
    population,
    serialize_scenario,
)
from uncertain_objectives.cli import main
from uncertain_objectives.axioms import (
    AXIOMS,
    addition_instance,
    avoid_repugnant_instance,
    avoid_sadistic_instance,
    avoid_very_anti_egalitarian_instance,
    dominance_addition_instance,
    dominance_instance,
    egalitarian_dominance_instance,
    inequality_aversion_instance,
    make_instance,
    priority_compensation_instance,
    quality_instance,
)
from uncertain_objectives.errors import (
    IntegrityError,
    InvalidInstanceError,
    InvalidValueError,
    SchemaError,
)
from uncertain_objectives.populations import EMPTY_POPULATION, Population
from uncertain_objectives.rationals import as_rational, format_rational

from conftest import DIGIT_LIMIT, SCENARIOS, needs_digit_limit

MINIMAL = {
    "$schema": "uncertain-objectives/scenario/v1",
    "worlds": {"a": [["1", 2]], "b": [["2", 2]]},
    "constraints": [{"label": "C1", "from": "a", "to": "b"}],
}


def doc(**overrides):
    base = json.loads(json.dumps(MINIMAL))
    base.update(overrides)
    return json.dumps(base)


class TestRationals:
    def test_one_third_round_trips(self):
        assert format_rational(as_rational("1/3")) == "1/3"
        assert as_rational("1/3") == F(1, 3)

    def test_decimal_strings_are_exact(self):
        assert as_rational("0.5") == F(1, 2)
        assert as_rational("0.1") == F(1, 10)

    def test_integers_and_floats(self):
        assert as_rational(7) == F(7)
        assert as_rational(0.25) == F(1, 4)

    def test_garbage_rejected(self):
        for bad in ("one", "", "1/0", None, True):
            with pytest.raises(ValueError):
                as_rational(bad)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "inf", "nan"])
    def test_non_finite_values_are_typed_errors(self, bad):
        with pytest.raises(InvalidValueError, match="not a rational"):
            as_rational(bad)
        with pytest.raises(InvalidValueError, match="not a rational"):
            SearchBounds(levels=(1, bad), max_count=2)
        with pytest.raises(InvalidValueError, match="not a rational"):
            CriticalLevel(bad)

    @needs_digit_limit
    def test_exponents_stop_at_the_digit_limit(self):
        # Fraction builds 10**exponent, so past the interpreter's
        # integer-string digit limit a decimal string is refused instead.
        limit = DIGIT_LIMIT
        assert as_rational(f"1e{limit}") == 10**limit
        assert as_rational(f"2.5E-{limit}") == F(5, 2 * 10**limit)
        for bad in (f"1e{limit + 1}", f"1e-{limit + 1}", f" 1E+{limit + 1} "):
            with pytest.raises(InvalidValueError, match=f"past the {limit}-digit limit"):
                as_rational(bad)

    @needs_digit_limit
    def test_numbers_past_the_digit_limit_are_typed_errors_in_reports(self):
        limit = DIGIT_LIMIT
        assert format_rational(F(1, 10 ** (limit - 1))) == "1/1" + "0" * (limit - 1)
        for big in (F(10**limit), F(1, 10**limit)):
            with pytest.raises(InvalidValueError, match="number too long to report"):
                format_rational(big)


class TestParse:
    def test_minimal_document(self):
        s = parse_scenario(doc())
        assert set(s.worlds) == {"a", "b"}
        assert len(s.constraints) == 1
        assert s.graph().edges[0].label == "C1"

    def test_bytes_input(self):
        s = parse_scenario(doc().encode())
        assert set(s.worlds) == {"a", "b"}

    def test_exact_rational_welfare(self):
        s = parse_scenario(doc(worlds={"a": [["1/3", 3]], "b": [["2", 1]]}))
        assert s.worlds["a"].groups[0][0] == F(1, 3)
        assert '"1/3"' in serialize_scenario(s)

    def test_number_literals_are_exact(self):
        # Read through float, 20.000000000000001 would be 20 and 1e-400 0.
        for literal, level in (
            ("20.000000000000001", F(20000000000000001, 10**15)),
            ("1e-400", F(1, 10**400)),
        ):
            text = doc(worlds={"a": [["LEVEL", 2]], "b": [["2", 2]]})
            s = parse_scenario(text.replace('"LEVEL"', literal))
            assert s.worlds["a"].groups[0][0] == level

    def test_number_literals_left_in_raw_constraints_serialize(self):
        # A raw edge keeps its document, extra fields too; a literal there
        # is written in its canonical "p/q" form.
        edge = {"label": "C1", "from": "a", "to": "b", "weight": "WEIGHT"}
        text = doc(constraints=[edge])
        literal = parse_scenario(text.replace('"WEIGHT"', "0.25"))
        assert literal.digest() == parse_scenario(text.replace("WEIGHT", "1/4")).digest()
        assert '"weight": "1/4"' in serialize_scenario(literal)

    def test_dangling_world_reference(self):
        with pytest.raises(IntegrityError, match="ghost"):
            parse_scenario(
                doc(constraints=[{"label": "C1", "from": "a", "to": "ghost"}])
            )

    def test_unknown_axiom_rejected(self):
        with pytest.raises(SchemaError, match="unknown axiom"):
            parse_scenario(
                doc(constraints=[{"label": "C1", "axiom": "mere_addition",
                                  "better": "a", "worse": "b"}])
            )

    def test_axiom_premise_failure_surfaces(self):
        # b is not perfectly equal to start with, so egalitarian dominance
        # cannot be instantiated this way round.
        with pytest.raises(InvalidInstanceError):
            parse_scenario(
                doc(
                    worlds={"a": [["1", 1], ["2", 1]], "b": [["0", 2]]},
                    constraints=[{"label": "C1", "axiom": "egalitarian_dominance",
                                  "better": "a", "worse": "b"}],
                )
            )

    def test_schema_violations_carry_paths(self):
        with pytest.raises(SchemaError, match=r"worlds\.a\[0\]\[1\]"):
            parse_scenario(doc(worlds={"a": [["1", 0]], "b": [["2", 1]]}))
        with pytest.raises(SchemaError, match="unknown top-level"):
            parse_scenario(doc(nonsense=1))
        with pytest.raises(SchemaError, match=r"\$schema"):
            parse_scenario(doc(**{"$schema": "something/else"}))
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_scenario(b"{")

    def test_inconsistent_axiom_world_population(self):
        # Declared world disagrees with base + tortured from the instance body.
        with pytest.raises(InvalidInstanceError, match="tortured world must equal"):
            parse_scenario(
                json.dumps(
                    {
                        "worlds": {
                            "bt": [["100", 1]],
                            "bp": [["100", 10], ["1", 5]],
                        },
                        "constraints": [
                            {
                                "label": "S",
                                "axiom": "avoid_sadistic",
                                "tortured_world": "bt",
                                "positive_world": "bp",
                                "base": [["100", 10]],
                                "tortured": [["-50", 1]],
                                "positive": [["1", 5]],
                                "very_high": "100",
                                "torture_max": "-50",
                            }
                        ],
                    }
                )
            )

    def test_rule_validation(self):
        s = parse_scenario(doc(rule={"kind": "margin", "delta": "1/10", "seed": 3}))
        assert s.rule.delta == F(1, 10) and s.rule.seed == 3
        with pytest.raises(SchemaError, match="delta"):
            parse_scenario(doc(rule={"kind": "margin", "delta": "3/2"}))
        with pytest.raises(SchemaError, match="policy"):
            parse_scenario(doc(rule={"kind": "partial", "policy": "coin_flip"}))

    @pytest.mark.parametrize(
        "rule,message",
        [
            ({"kind": "margin"}, "margin rule needs delta"),
            ({"kind": "quantilized", "delta": "1/2"}, "quantilized rule needs tau"),
            ({"kind": "partial"}, "partial rule needs policy"),
            ({"kind": "vote", "delta": "1/2"}, "rule kind must be margin, quantilized, or partial"),
            ({"kind": ["margin"], "delta": "1/2"}, "rule kind must be"),
            ({"delta": "1/2"}, "rule kind must be"),
        ],
    )
    def test_rule_kind_and_its_parameter_are_checked_at_rule(self, rule, message):
        with pytest.raises(SchemaError, match=message) as info:
            parse_scenario(doc(rule=rule))
        assert info.value.path == "rule"

    def test_matrix_world_integrity(self):
        with pytest.raises(IntegrityError):
            parse_scenario(
                doc(belief_matrix={"worlds": ["a", "zz"],
                                   "z": [["1/2", "1"], ["0", "1/2"]]})
            )

    def test_distribution_validation(self):
        s = parse_scenario(
            doc(distribution={"orders": [["a", "b"], ["b", "a"]],
                              "p": ["1/2", "1/2"]})
        )
        assert s.distribution.probs == (F(1, 2), F(1, 2))
        with pytest.raises(SchemaError, match="sum"):
            parse_scenario(
                doc(distribution={"orders": [["a", "b"]], "p": ["1/2"]})
            )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "three_cycle.json",
            "second_theorem_cycle.json",
            "repugnant_instance.json",
            "sadistic_instance.json",
            "decide_pointmass.json",
            "decide_rotations.json",
            "decide_from_matrix.json",
        ],
    )
    def test_fixture_round_trips(self, name):
        text = (SCENARIOS / name).read_text()
        once = parse_scenario(text)
        again = parse_scenario(serialize_scenario(once))
        assert once == again
        assert serialize_scenario(once) == serialize_scenario(again)

    def test_digest_is_stable(self):
        s1 = parse_scenario((SCENARIOS / "three_cycle.json").read_text())
        s2 = parse_scenario(serialize_scenario(s1))
        assert s1.digest() == s2.digest()


# One valid structured constraint per axiom: its worlds, its document body
# and the factory call it must equal.
AXIOM_FORMS = {
    "quality": (
        {"h": [["95", 3]], "l": [["1", 50]]},
        {"high": "h", "low": "l", "very_high": "90", "very_low": "1"},
        lambda: quality_instance(
            World("h", population((95, 3))), World("l", population((1, 50))), 90, 1
        ),
    ),
    "inequality_aversion": (
        {"m": [["10", 2], ["1", 5]], "e": [["5", 7]]},
        {"mixed": "m", "equal": "e"},
        lambda: inequality_aversion_instance(
            World("m", population((10, 2), (1, 5))), World("e", population((5, 7)))
        ),
    ),
    "egalitarian_dominance": (
        {"a": [["10", 5]], "b": [["9", 3], ["8", 2]]},
        {"better": "a", "worse": "b"},
        lambda: egalitarian_dominance_instance(
            World("a", population((10, 5))), World("b", population((9, 3), (8, 2)))
        ),
    ),
    "dominance_addition": (
        {"a": [["10", 5]], "ap": [["11", 5], ["1", 100]]},
        {"base": "a", "augmented": "ap", "raised": [["11", 5]], "added": [["1", 100]]},
        lambda: dominance_addition_instance(
            World("a", population((10, 5))),
            population((11, 5)),
            population((1, 100)),
            augmented=World("ap", population((11, 5), (1, 100))),
        ),
    ),
    "avoid_repugnant": (
        {"a": [["100", 10]], "z": [["1", 1001]]},
        {"high": "a", "crowd": "z", "very_high": "100", "very_low": "1"},
        lambda: avoid_repugnant_instance(
            World("a", population((100, 10))), World("z", population((1, 1001))), 100, 1
        ),
    ),
    "avoid_sadistic": (
        {"bt": [["100", 10], ["-50", 1]], "bp": [["100", 10], ["1", 1000]]},
        {
            "tortured_world": "bt", "positive_world": "bp", "base": [["100", 10]],
            "tortured": [["-50", 1]], "positive": [["1", 1000]],
            "very_high": "100", "torture_max": "-50",
        },
        lambda: avoid_sadistic_instance(
            population((100, 10)), population((-50, 1)), population((1, 1000)), 100, -50,
            tortured_world=World("bt", population((100, 10), (-50, 1))),
            positive_world=World("bp", population((100, 10), (1, 1000))),
        ),
    ),
    "avoid_very_anti_egalitarian": (
        {"a": [["10", 2]], "b": [["15", 1], ["1", 1]]},
        {"better": "a", "worse": "b"},
        lambda: avoid_very_anti_egalitarian_instance(
            World("a", population((10, 2))), World("b", population((15, 1), (1, 1)))
        ),
    ),
    "dominance": (
        {"a": [["10", 2], ["5", 1]], "b": [["9", 2], ["4", 1]]},
        {"better": "a", "worse": "b"},
        lambda: dominance_instance(
            World("a", population((10, 2), (5, 1))), World("b", population((9, 2), (4, 1)))
        ),
    ),
    "addition": (
        {"a": [["10", 3]], "wb": [["10", 3], ["5", 2]], "wc": [["10", 3], ["4", 3]]},
        {
            "base_world": "a", "b_added_world": "wb", "c_added_world": "wc",
            "b": [["5", 2]], "c": [["4", 3]],
        },
        lambda: addition_instance(
            World("a", population((10, 3))), population((5, 2)), population((4, 3)),
            b_added_world=World("wb", population((10, 3), (5, 2))),
            c_added_world=World("wc", population((10, 3), (4, 3))),
        ),
    ),
    "priority_compensation": (
        {"pb": [["50", 4], ["1", 1]], "pa": [["50", 4], ["-1", 1], ["100", 7]]},
        {
            "before": "pb", "after": "pa", "base": [["50", 4]], "low_level": "1",
            "negative_level": "-1", "high_level": "100", "count": 7,
            "very_high": "100", "very_low": "1",
        },
        lambda: priority_compensation_instance(
            population((50, 4)), 1, -1, 100, 7, very_high=100, very_low=1,
            before=World("pb", population((50, 4), (1, 1))),
            after=World("pa", population((50, 4), (-1, 1), (100, 7))),
        ),
    ),
}


# Each derived world of each axiom, as (axiom, its derivation clause).
DERIVATIONS = [
    pytest.param(axiom.value, clause, id=f"{axiom.value}-{clause.derives}")
    for axiom, row in AXIOMS.items() for clause in row.derivations
]


def axiom_doc(axiom, worlds=None, drop=None):
    world_doc, body, _ = AXIOM_FORMS[axiom]
    constraint = {"label": "K", "axiom": axiom, **body}
    constraint.pop(drop, None)
    return json.dumps({"worlds": worlds or world_doc, "constraints": [constraint]})


class TestAxiomForms:
    def test_every_axiom_has_a_form(self):
        assert set(AXIOM_FORMS) == {a.value for a in AxiomId}

    @pytest.mark.parametrize("axiom", sorted(AXIOM_FORMS))
    def test_valid_constraint(self, axiom):
        s = parse_scenario(axiom_doc(axiom))
        (c,) = s.constraints
        expected = AXIOM_FORMS[axiom][2]()
        assert c.instance == expected
        assert c.edge == Edge(worse=expected.claim_worse, better=expected.claim_better, label="K")
        again = parse_scenario(serialize_scenario(s))
        assert again == s
        assert serialize_scenario(again) == serialize_scenario(s)

    @pytest.mark.parametrize(
        "axiom,field",
        [(a, f) for a in sorted(AXIOM_FORMS) for f in AXIOM_FORMS[a][1]],
    )
    def test_missing_field(self, axiom, field):
        with pytest.raises(SchemaError) as info:
            parse_scenario(axiom_doc(axiom, drop=field))
        assert info.value.path.startswith("constraints[0]")
        assert repr(field) in str(info.value) or f".{field}:" in str(info.value)

    def test_every_derived_world_is_listed(self):
        assert len(DERIVATIONS) == 7

    @pytest.mark.parametrize("axiom,clause", DERIVATIONS)
    def test_derived_world_disagrees(self, tmp_path_factory, axiom, clause):
        # A declared world with one more person than its construction gives
        # fails that construction's clause, in the library and the CLI alike.
        world_doc, body, _ = AXIOM_FORMS[axiom]
        wid = body[clause.derives]
        (level, count), *rest = world_doc[wid]
        document = {"worlds": {**world_doc, wid: [[level, count + 1], *rest]},
                    "constraints": [{"label": "K", "axiom": axiom, **body}]}
        with pytest.raises(InvalidInstanceError) as info:
            parse_scenario(json.dumps(document))
        assert str(info.value) == clause.message
        assert _run_cli(tmp_path_factory, document, "analyze") == (1, f"error: {clause.message}\n")


def _role_fields(inst):
    """An instance's fields by name: its params, and its worlds' populations
    under the world fields that its row's roles name."""
    row = AXIOMS[inst.axiom]
    ids = dict(zip(row.roles, (inst.claim_worse, inst.claim_better, *(inst.gate or ()))))
    return ids, {**inst.params, **{key: inst.world(wid).population for key, wid in ids.items()}}


@pytest.mark.parametrize("axiom,clause", DERIVATIONS)
def test_make_instance_takes_derived_worlds_by_name_only(axiom, clause):
    inst, row = AXIOM_FORMS[axiom][2](), AXIOMS[AxiomId(axiom)]
    _, fields = _role_fields(inst)
    given, built = {k: fields[k] for k in row.names}, fields[clause.derives]
    named = make_instance(inst.axiom, **given, **{clause.derives: World("named", built)})
    assert _role_fields(named)[0][clause.derives] == "named"
    with pytest.raises(InvalidInstanceError) as info:
        make_instance(inst.axiom, **given, **{clause.derives: built | population((1, 1))})
    assert str(info.value) == clause.message
    with pytest.raises(TypeError, match=axiom):
        make_instance(inst.axiom, *given.values(), World("named", built))


# Each AXIOM_FORMS instance's world order and JSON, gate and claim included.
PINNED_INSTANCES = {
    "addition": (
        ["a", "wb", "wc"],
        {"axiom": "addition",
         "claim": {"better": "wb", "strict": False, "worse": "wc"},
         "gate": ["wb", "a"],
         "params": {"b": [["5", 2]], "c": [["4", 3]]},
         "worlds": {"a": [["10", 3]], "wb": [["5", 2], ["10", 3]], "wc": [["4", 3], ["10", 3]]}},
    ),
    "avoid_repugnant": (
        ["a", "z"],
        {"axiom": "avoid_repugnant",
         "claim": {"better": "a", "strict": False, "worse": "z"},
         "gate": None,
         "params": {"very_high": "100", "very_low": "1"},
         "worlds": {"a": [["100", 10]], "z": [["1", 1001]]}},
    ),
    "avoid_sadistic": (
        ["bt", "bp"],
        {"axiom": "avoid_sadistic",
         "claim": {"better": "bp", "strict": False, "worse": "bt"},
         "gate": None,
         "params": {"base": [["100", 10]],
                    "positive": [["1", 1000]],
                    "torture_max": "-50",
                    "tortured": [["-50", 1]],
                    "very_high": "100"},
         "worlds": {"bp": [["1", 1000], ["100", 10]], "bt": [["-50", 1], ["100", 10]]}},
    ),
    "avoid_very_anti_egalitarian": (
        ["a", "b"],
        {"axiom": "avoid_very_anti_egalitarian",
         "claim": {"better": "a", "strict": True, "worse": "b"},
         "gate": None,
         "params": {},
         "worlds": {"a": [["10", 2]], "b": [["1", 1], ["15", 1]]}},
    ),
    "dominance": (
        ["a", "b"],
        {"axiom": "dominance",
         "claim": {"better": "a", "strict": False, "worse": "b"},
         "gate": None,
         "params": {},
         "worlds": {"a": [["5", 1], ["10", 2]], "b": [["4", 1], ["9", 2]]}},
    ),
    "dominance_addition": (
        ["a", "ap"],
        {"axiom": "dominance_addition",
         "claim": {"better": "ap", "strict": False, "worse": "a"},
         "gate": None,
         "params": {"added": [["1", 100]], "raised": [["11", 5]]},
         "worlds": {"a": [["10", 5]], "ap": [["1", 100], ["11", 5]]}},
    ),
    "egalitarian_dominance": (
        ["a", "b"],
        {"axiom": "egalitarian_dominance",
         "claim": {"better": "a", "strict": True, "worse": "b"},
         "gate": None,
         "params": {},
         "worlds": {"a": [["10", 5]], "b": [["8", 2], ["9", 3]]}},
    ),
    "inequality_aversion": (
        ["m", "e"],
        {"axiom": "inequality_aversion",
         "claim": {"better": "e", "strict": False, "worse": "m"},
         "gate": None,
         "params": {},
         "worlds": {"e": [["5", 7]], "m": [["1", 5], ["10", 2]]}},
    ),
    "priority_compensation": (
        ["pb", "pa"],
        {"axiom": "priority_compensation",
         "claim": {"better": "pa", "strict": False, "worse": "pb"},
         "gate": None,
         "params": {"base": [["50", 4]],
                    "count": 7,
                    "high_level": "100",
                    "low_level": "1",
                    "negative_level": "-1",
                    "very_high": "100",
                    "very_low": "1"},
         "worlds": {"pa": [["-1", 1], ["50", 4], ["100", 7]], "pb": [["1", 1], ["50", 4]]}},
    ),
    "quality": (
        ["h", "l"],
        {"axiom": "quality",
         "claim": {"better": "h", "strict": False, "worse": "l"},
         "gate": None,
         "params": {"very_high": "90", "very_low": "1"},
         "worlds": {"h": [["95", 3]], "l": [["1", 50]]}},
    ),
}


@pytest.mark.parametrize("axiom", sorted(AXIOM_FORMS))
def test_instance_json_is_pinned(axiom):
    order, expected = PINNED_INSTANCES[axiom]
    inst = AXIOM_FORMS[axiom][2]()
    assert [w.id for w in inst.worlds] == order
    assert inst.gate == (tuple(expected["gate"]) if expected["gate"] else None)
    assert inst.to_json() == expected


@pytest.mark.parametrize("axiom", sorted(AXIOM_FORMS))
def test_empty_populations_fail_a_clause(axiom):
    # Clauses test a population's size before its least or greatest level,
    # so an empty population in any field fails a clause and never reaches
    # Population.lo or .hi, which raise EmptyPopulationError.
    inst, row = AXIOM_FORMS[axiom][2](), AXIOMS[AxiomId(axiom)]
    ids, fields = _role_fields(inst)
    messages = {clause.message for clause in row.clauses}
    for key in [k for k, v in fields.items() if isinstance(v, Population)]:
        worlds = tuple(World(w.id, EMPTY_POPULATION) if w.id == ids.get(key) else w
                       for w in inst.worlds)
        params = {k: EMPTY_POPULATION if k == key else v for k, v in inst.params.items()}
        builds = [
            lambda: dataclasses.replace(inst, worlds=worlds, params=params),
            lambda: make_instance(inst.axiom, **{**fields, key: EMPTY_POPULATION}),
        ]
        for build in builds:
            with pytest.raises(InvalidInstanceError) as info:
                build()
            assert str(info.value) in messages, (key, info.value)


def test_readme_lists_each_rows_fields():
    readme = (SCENARIOS.parent / "README.md").read_text()
    section = readme.split("### Axiom constraint forms", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 3 and cells[0].startswith("`"):
            listed[cells[0].strip("`*")] = [f.strip().strip("`") for f in cells[1].split(",")]
    assert listed == {axiom.value: list(AXIOMS[axiom].fields) for axiom in AxiomId}


# JSON values for mutated fields: wrong types, lists where strings belong,
# and the ids of declared worlds, so that references stay plausible.
def _json(world_ids):
    return st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
        | st.sampled_from(world_ids),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=4,
    )


@st.composite
def _mutated_constraint(draw):
    """A valid raw-edge or axiom constraint, and its worlds, with one to
    three fields replaced, copied from another field, dropped, wrapped in a
    list or added."""
    axiom = draw(st.sampled_from([None, None, *sorted(AXIOM_FORMS)]))
    if axiom is None:
        worlds, body = {"a": [["1", 1]], "b": [["2", 1]]}, {"from": "a", "to": "b"}
    else:
        worlds, body = AXIOM_FORMS[axiom][:2]
        body = {"axiom": axiom, **body}
    constraint = {"label": "K", **body}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from([*sorted(constraint), "extra"]))
        how = draw(st.sampled_from(["replace", "copy", "drop", "wrap"]))
        if how == "drop":
            constraint.pop(key, None)
        elif how == "wrap":
            constraint[key] = [constraint.get(key)]
        elif how == "copy":
            constraint[key] = constraint.get(draw(st.sampled_from(sorted(constraint))))
        else:
            constraint[key] = draw(_json(sorted(worlds)))
    return {"worlds": worlds, "constraints": [constraint]}


@settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_mutated_constraint())
def test_mutated_constraints_never_escape_the_cli(tmp_path_factory, document):
    code, err = _run_cli(tmp_path_factory, document, "analyze")
    assert code in (0, 1, 2), (document, err)


def _run_cli(tmp_path_factory, document, command, *flags):
    """``cli.main``'s exit code and stderr for ``command`` on ``document``."""
    path = tmp_path_factory.getbasetemp() / "fuzz_document.json"
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *flags])
    return code, err.getvalue()


def _paths(value, path=()):
    """The path of every value nested in a JSON document."""
    if isinstance(value, dict):
        keys = sorted(value)
    elif isinstance(value, list):
        keys = range(len(value))
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _paths(value[key], path + (key,))


@st.composite
def _mutated_document(draw, documents):
    """One of ``documents`` with one to three nested values replaced,
    dropped or wrapped in a list.  A mutation draws a depth, then a value at
    that depth, so top-level fields are not drowned out by the many values
    nested in populations and matrices."""
    doc = json.loads(json.dumps(draw(st.sampled_from(documents))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        depth = draw(st.sampled_from(sorted({len(path) for path in paths})))
        *outer, key = draw(st.sampled_from([path for path in paths if len(path) == depth]))
        parent = doc
        for step in outer:
            parent = parent[step]
        how = draw(st.sampled_from(["replace", "drop", "wrap"]))
        if how == "drop":
            del parent[key]
        elif how == "wrap":
            parent[key] = [parent[key]]
        else:
            parent[key] = draw(_json(["x1", "x2", "x3", "a", "b", "c"]))
    return doc


def _fixture(name, **overrides):
    return {**json.loads((SCENARIOS / name).read_text()), **overrides}


MATRIX_DOCUMENTS = [_fixture("rotation_matrix.json"), _fixture("incoherent_matrix.json")]

DECIDE_DOCUMENTS = [
    _fixture("decide_rotations.json"),
    _fixture("decide_from_matrix.json"),
    _fixture("decide_pointmass.json", rule={"kind": "quantilized", "tau": "1/4", "seed": 1}),
    _fixture("three_cycle.json", rule={"kind": "partial", "policy": "abstain"}),
]


@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_mutated_document(MATRIX_DOCUMENTS), st.sampled_from([(), ("--exact",), ("--strict",)]))
def test_mutated_matrices_never_escape_the_cli(tmp_path_factory, document, flags):
    code, err = _run_cli(tmp_path_factory, document, "coherence", *flags)
    assert code in (0, 1, 2), (document, err)


@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_mutated_document(DECIDE_DOCUMENTS))
def test_mutated_distributions_and_rules_never_escape_the_cli(tmp_path_factory, document):
    code, err = _run_cli(tmp_path_factory, document, "decide")
    assert code in (0, 1, 2), (document, err)
