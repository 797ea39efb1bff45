import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from uncertain_objectives import beliefs, cli, scenario, simplex
from uncertain_objectives.beliefs import CycleSpec, MinimaxBound, OrderDistribution
from uncertain_objectives.cli import build_parser, main
from uncertain_objectives.rationals import format_rational

from conftest import GOLDEN, SCENARIOS, needs_digit_limit


def run_cli(*argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, buf.getvalue(), err.getvalue()


def run_cli_process(*argv):
    """``run_cli`` in a child process, stopped after 20 s so that an input
    that runs away fails the test instead of hanging the suite."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "uncertain_objectives.cli", *argv],
        capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout, proc.stderr


def path_graph_doc(n, closed):
    """Scenario with constraints w0 -> w1 -> ... -> w(n-1), and back to w0
    when ``closed``."""
    return {
        "worlds": {f"w{i}": [[str(i), 1]] for i in range(n)},
        "constraints": [
            {"label": f"C{i + 1}", "from": f"w{i}", "to": f"w{(i + 1) % n}"}
            for i in range(n if closed else n - 1)
        ],
    }


GOLDEN_CASES = {
    "analyze_three_cycle": ("analyze", str(SCENARIOS / "three_cycle.json")),
    "analyze_second_theorem": ("analyze", str(SCENARIOS / "second_theorem_cycle.json")),
    "bound_n4": ("bound", "--n", "4"),
    "coherence_rotation_exact": ("coherence", str(SCENARIOS / "rotation_matrix.json"), "--exact"),
    "coherence_incoherent_exact": ("coherence", str(SCENARIOS / "incoherent_matrix.json"), "--exact"),
    "decide_rotations_margin": ("decide", str(SCENARIOS / "decide_rotations.json")),
    "decide_from_matrix": ("decide", str(SCENARIOS / "decide_from_matrix.json")),
    "decide_partial_three_cycle": (
        "decide", str(SCENARIOS / "three_cycle.json"), "--rule", "partial", "--policy", "abstain",
    ),
    "audit_total_repugnant": (
        "audit", "--swf=total", "--axiom=avoid_repugnant", "--levels=1,100", "--max-count=120",
    ),
    "audit_average_sadistic": (
        "audit", "--swf=average", "--axiom=avoid_sadistic", "--levels=-50,1,100",
        "--max-count=20", "--base", '[["100", 10]]', "--budget", "2000000",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports_byte_identical(name):
    code, out, _ = run_cli(*GOLDEN_CASES[name])
    assert code == 0
    expected = (GOLDEN / f"{name}.json").read_text()
    assert out == expected


def test_reports_deterministic_across_runs():
    argv = GOLDEN_CASES["analyze_second_theorem"]
    _, first, _ = run_cli(*argv)
    _, second, _ = run_cli(*argv)
    assert first == second


def test_each_subcommand_takes_only_the_options_it_reads():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert options == {
        "analyze": {"--format", "--strict", "--budget", "--max-pattern-size"},
        "bound": {"--format", "--strict", "--cap", "--n"},
        "coherence": {"--format", "--strict", "--cap", "--exact", "--max-path-len"},
        "decide": {"--format", "--strict", "--budget", "--cap", "--rule", "--delta", "--tau",
                   "--policy", "--seed", "--actions"},
        "audit": {"--format", "--strict", "--budget", "--swf", "--axiom", "--levels",
                  "--max-count", "--max-groups", "--very-high", "--very-low", "--torture-max",
                  "--base"},
    }
    with pytest.raises(SystemExit) as exit_info:
        run_cli("bound", "--n", "4", "--budget", "5")
    assert exit_info.value.code == 2


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


class TestFindings:
    def test_analyze_three_cycle_content(self):
        _, out, _ = run_cli(*GOLDEN_CASES["analyze_three_cycle"])
        report = json.loads(out)
        f = report["findings"]
        assert f["certificate"]["length"] == 3
        assert f["min_uncertainty_size"] == 2
        assert len(f["minimal_patterns"]) == 3
        assert all(len(p["labels"]) == 2 for p in f["minimal_patterns"])

    def test_bound_n4_content(self):
        _, out, _ = run_cli(*GOLDEN_CASES["bound_n4"])
        f = json.loads(out)["findings"]
        assert f["bound"] == "1/4"
        assert f["witness_max_violation"] == "1/4"
        assert len(f["witness"]["orders"]) == 4

    def test_bound_from_scenario_cycle(self, tmp_path):
        # Two raw edges between a and b are a 2-cycle, bounded by 1/2.
        two = tmp_path / "two_cycle.json"
        two.write_text(json.dumps({
            "worlds": {"a": [["1", 1]], "b": [["2", 1]]},
            "constraints": [{"label": "C1", "from": "a", "to": "b"},
                            {"label": "C2", "from": "b", "to": "a"}],
        }))
        for path, n in ((SCENARIOS / "three_cycle.json", 3), (two, 2)):
            code, out, _ = run_cli("bound", str(path))
            assert code == 0
            f = json.loads(out)["findings"]
            assert f["bound"] == f"1/{n}"
            assert f["n"] == n
            witness = OrderDistribution(f["witness"]["orders"], f["witness"]["p"])
            spec = CycleSpec(f["worlds"])
            assert MinimaxBound(Fraction(f["bound"]), witness, spec).verify()

    def test_audit_witness_replay_flag(self):
        _, out, _ = run_cli(*GOLDEN_CASES["audit_total_repugnant"])
        f = json.loads(out)["findings"]
        assert f["result"] == "violation"
        assert f["replayed"] is True
        assert f["witness"]["instance"]["worlds"] == {
            "a": [["100", 1]],
            "z": [["1", 101]],
        }

    def test_coherence_incoherent_content(self):
        _, out, _ = run_cli(*GOLDEN_CASES["coherence_incoherent_exact"])
        f = json.loads(out)["findings"]
        assert len(f["path_violations"]) == 6
        assert f["exact"]["feasible"] is False
        assert f["exact"]["certificate"]

    @pytest.mark.parametrize("value", ["2", "3", "99"])
    def test_coherence_reports_the_length_it_scanned(self, value):
        matrix = str(SCENARIOS / "incoherent_matrix.json")
        code, out, _ = run_cli("coherence", matrix, "--max-path-len", value)
        assert code == 0
        f = json.loads(out)["findings"]
        assert f["max_path_len"] == min(int(value), 3)
        assert len(f["path_violations"]) == (0 if value == "2" else 6)

    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    def test_coherence_path_length_below_two_is_error(self, value):
        matrix = str(SCENARIOS / "incoherent_matrix.json")
        code, out, err = run_cli("coherence", matrix, "--max-path-len", value)
        assert code == 1
        assert out == ""
        assert err == f"error: max_path_len must be at least 2, got {value}\n"

    @pytest.mark.parametrize("schema", [True, False])
    def test_coherence_on_a_scenario_without_a_matrix_is_error(self, tmp_path, schema):
        doc = json.loads((SCENARIOS / "second_theorem_cycle.json").read_text())
        if not schema:
            del doc["$schema"]
        path = tmp_path / "no_matrix.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("coherence", str(path))
        assert code == 1 and out == ""
        assert err == "error: scenario has no belief_matrix to check\n"

    def test_decide_margin_abstains_on_rotations(self):
        _, out, _ = run_cli(*GOLDEN_CASES["decide_rotations_margin"])
        f = json.loads(out)["findings"]
        assert f["outcome"]["outcome"] == "abstain"
        assert f["outcome"]["margin"] == "0"

    def test_decide_bridges_matrix_with_note(self):
        _, out, _ = run_cli(*GOLDEN_CASES["decide_from_matrix"])
        f = json.loads(out)["findings"]
        assert f["source"] == "belief_matrix"
        assert "one of possibly many" in f["bridge_note"]
        assert f["outcome"]["outcome"] == "act"
        assert f["outcome"]["world"] == "x1"

    def test_matrix_scenario_is_decoded_once(self, monkeypatch):
        path = SCENARIOS / "decide_from_matrix.json"
        parsed = scenario.parse_scenario(path.read_bytes())
        decodes = []
        load_json = scenario.load_json

        def counted(*args):
            decodes.append(args)
            return load_json(*args)

        monkeypatch.setattr(cli, "load_json", counted)
        monkeypatch.setattr(scenario, "load_json", counted)
        matrix, digest = cli._load_matrix(str(path))
        assert matrix == parsed.belief_matrix
        assert digest == parsed.digest()
        assert len(decodes) == 1

    def test_decide_restricted_actions(self):
        code, out, _ = run_cli(
            "decide", str(SCENARIOS / "decide_pointmass.json"), "--actions", "x2,x3",
        )
        assert code == 0
        f = json.loads(out)["findings"]
        assert f["actions"] == ["x2", "x3"]
        assert f["outcome"]["world"] == "x2"

    @pytest.mark.parametrize(
        "rule",
        [
            ("decide_rotations.json", "--rule", "margin"),
            ("decide_rotations.json", "--rule", "quantilized", "--tau", "1/4"),
            ("three_cycle.json", "--rule", "partial", "--policy", "abstain"),
        ],
        ids=["margin", "quantilized", "partial"],
    )
    def test_decide_refuses_an_empty_action_list(self, rule):
        # An explicitly empty --actions is not the same as no --actions.
        name, *flags = rule
        code, out, err = run_cli("decide", str(SCENARIOS / name), *flags, "--actions", "")
        assert code == 1 and out == ""
        assert err == "error: at least one candidate action is required\n"

    def test_decide_takes_the_policy_from_the_scenario_rule(self, tmp_path):
        doc = json.loads((SCENARIOS / "three_cycle.json").read_text())
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({**doc, "rule": {"kind": "partial", "policy": "abstain"}}))
        code, out, _ = run_cli("decide", str(path))
        assert code == 0
        golden = json.loads((GOLDEN / "decide_partial_three_cycle.json").read_text())
        assert json.loads(out)["findings"] == golden["findings"]

    def test_decide_seed_flag_overrides_only_the_seed(self):
        code, out, _ = run_cli("decide", str(SCENARIOS / "decide_from_matrix.json"), "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["findings"]["rule"] == {
            "kind": "margin", "delta": "1/2", "tau": None, "policy": None, "seed": 3,
        }
        assert report["inputs"]["flags"]["seed"] == 3

    def test_decide_quantilized_seeded(self):
        code, out, _ = run_cli(
            "decide", str(SCENARIOS / "decide_rotations.json"),
            "--rule", "quantilized", "--tau", "1/4", "--seed", "7",
        )
        assert code == 0
        f = json.loads(out)["findings"]
        assert f["outcome"]["outcome"] == "act"
        code2, out2, _ = run_cli(
            "decide", str(SCENARIOS / "decide_rotations.json"),
            "--rule", "quantilized", "--tau", "1/4", "--seed", "7",
        )
        assert out2 == out


class TestExitCodes:
    def test_strict_flags_cycle(self):
        code, _, _ = run_cli("analyze", str(SCENARIOS / "three_cycle.json"), "--strict")
        assert code == 2

    def test_strict_passes_acyclic(self, tmp_path):
        doc = {
            "worlds": {"a": [["1", 1]], "b": [["2", 1]]},
            "constraints": [{"label": "C1", "from": "a", "to": "b"}],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli("analyze", str(path), "--strict")
        assert code == 0

    def test_strict_flags_incoherence(self):
        code, _, _ = run_cli(
            "coherence", str(SCENARIOS / "incoherent_matrix.json"), "--strict"
        )
        assert code == 2

    def test_strict_flags_witness(self):
        code, _, _ = run_cli(
            "audit", "--swf=total", "--axiom=avoid_repugnant",
            "--levels=1,100", "--max-count=120", "--strict",
        )
        assert code == 2

    def test_missing_file_is_error(self):
        code, _, err = run_cli("analyze", "no_such_file.json")
        assert code == 1
        assert "error:" in err

    def test_schema_error_is_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"worlds": "nope"}')
        code, _, err = run_cli("analyze", str(path))
        assert code == 1
        assert "worlds" in err

    @pytest.mark.parametrize(
        "edge,message",
        [
            ({"from": ["a"], "to": "b"},
             "constraints[0].from: world reference must be a string id"),
            ({"from": "a", "to": "a"}, "constraints[0]: raw edge from 'a' to itself"),
        ],
    )
    @pytest.mark.parametrize(
        "command", [("analyze",), ("bound",), ("decide", "--rule", "partial")]
    )
    def test_bad_raw_edge_is_error(self, tmp_path, edge, message, command):
        doc = {
            "worlds": {"a": [["1", 1]], "b": [["2", 1]]},
            "constraints": [{"label": "C1", **edge}],
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(command[0], str(path), *command[1:])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_repeated_constraint_label_is_error(self, tmp_path):
        # The unlabelled second constraint's default label C2 repeats the first's.
        doc = path_graph_doc(3, closed=True)
        doc["constraints"][0]["label"] = "C2"
        for c in doc["constraints"][1:]:
            del c["label"]
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("analyze", str(path))
        assert code == 1 and out == ""
        assert err == "error: constraints[1].label: repeated label 'C2'\n"

    @pytest.mark.parametrize("value", ["-1", "-5"])
    def test_negative_pattern_size_is_error(self, value):
        code, out, err = run_cli(
            "analyze", str(SCENARIOS / "three_cycle.json"), "--max-pattern-size", value
        )
        assert code == 1 and out == ""
        assert err == f"error: max_size must be at least 0, got {value}\n"

    def test_bound_requires_cycle(self, tmp_path):
        doc = {
            "worlds": {"a": [["1", 1]], "b": [["2", 1]]},
            "constraints": [{"label": "C1", "from": "a", "to": "b"}],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli("bound", str(path))
        assert code == 1 and "acyclic" in err

    def test_analyze_above_world_limit_is_error(self, tmp_path):
        path = tmp_path / "ring64.json"
        path.write_text(json.dumps(path_graph_doc(64, closed=True)))
        code, out, err = run_cli("analyze", str(path), "--max-pattern-size", "2")
        assert code == 1 and out == ""
        assert err == "error: graph has 64 worlds; the pattern search supports at most 62\n"

    def test_analyze_above_world_limit_at_default_budget(self, tmp_path):
        # 2^64 candidate subsets, but the world limit is reported: raising
        # the budget would not help.
        path = tmp_path / "ring64.json"
        path.write_text(json.dumps(path_graph_doc(64, closed=True)))
        code, out, err = run_cli("analyze", str(path))
        assert code == 1 and out == ""
        assert err == "error: graph has 64 worlds; the pattern search supports at most 62\n"

    def test_analyze_acyclic_chain_above_world_limit(self, tmp_path):
        path = tmp_path / "chain64.json"
        path.write_text(json.dumps(path_graph_doc(64, closed=False)))
        code, out, _ = run_cli("analyze", str(path))
        assert code == 0
        findings = json.loads(out)["findings"]
        assert findings["certificate"] is None
        assert findings["min_uncertainty_size"] == 0
        assert findings["minimal_patterns"] == [{"indices": [], "labels": []}]

    @pytest.mark.parametrize(
        "argv",
        [("coherence", str(SCENARIOS / "rotation_matrix.json"), "--exact")],
    )
    def test_pivot_cap_is_error(self, argv, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 1)
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert err == "error: simplex exceeded its cap of 1 pivots\n"

    def test_bound_solves_no_lp(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("bound solved an LP")

        monkeypatch.setattr(beliefs, "solve_lp", refused)
        for argv, n in (("--n", "7"), 7), ((str(SCENARIOS / "three_cycle.json"),), 3):
            code, out, _ = run_cli("bound", *argv)
            assert code == 0
            assert json.loads(out)["findings"]["bound"] == f"1/{n}"
        code, out, err = run_cli("bound", "--n", "8")
        assert code == 1 and out == ""
        assert err == "error: n=8 exceeds the dimension cap 7\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--max-count=0",), "max_count and max_groups must be at least 1"),
            (("--max-count=2", "--max-groups=0"), "max_count and max_groups must be at least 1"),
            (("--max-count=2", "--levels=x"), "not a rational: 'x'"),
            (("--max-count=2", "--swf=bogus"), "unknown social welfare function 'bogus'"),
            (("--max-count=2", "--base", "[["), "--base: invalid JSON"),
            (("--max-count=2", "--levels=-4,-3"), "no positive level in the grid"),
        ],
    )
    def test_bad_audit_input_is_error(self, argv, message):
        defaults = ["--swf=total", "--axiom=avoid_repugnant", "--levels=1,100"]
        given = {a.split("=")[0] for a in argv}
        argv = [a for a in defaults if a.split("=")[0] not in given] + list(argv)
        code, out, err = run_cli("audit", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "axiom,threshold,message",
        [
            ("avoid_repugnant", "--very-low=0", "thresholds need 0 < very_low < very_high"),
            ("avoid_sadistic", "--torture-max=0", "torture threshold must be negative"),
            ("priority_compensation", "--very-low=-1",
             "very_low must be positive, or no level lies in (0, very_low]"),
        ],
    )
    def test_invalid_threshold_is_refused_before_search(self, axiom, threshold, message):
        code, out, err = run_cli(
            "audit", "--swf=total", f"--axiom={axiom}", "--levels=-5,1,100", "--max-count=3",
            threshold,
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "axiom,empty", [("quality", "low"), ("avoid_repugnant", "crowd"),
                        ("priority_compensation", "low_level")],
    )
    def test_empty_stream_is_refused_before_search(self, axiom, empty):
        code, out, err = run_cli(
            "audit", "--swf", "total", f"--axiom={axiom}", "--levels=1,2", "--max-count=2",
            "--very-low=1/2",
        )
        assert code == 1 and out == ""
        assert err == f"error: no grid candidate for {empty}, nothing to audit\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--rule", "margin", "--delta", "x"), "not a rational: 'x'"),
            (("--rule", "quantilized", "--tau", "2"), "tau must lie in [0, 1], got 2"),
            (("--rule", "margin", "--delta=-1/2"), "delta must lie in [0, 1], got -1/2"),
            (("--rule", "quantilized"), "quantilized rule needs tau"),
            (("--rule", "partial"), "partial rule needs policy"),
        ],
    )
    def test_bad_decide_input_is_error(self, argv, message):
        code, out, err = run_cli("decide", str(SCENARIOS / "decide_rotations.json"), *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "rule,message",
        [
            ({"kind": "margin"}, "rule: margin rule needs delta"),
            ({"kind": "vote", "delta": "1/2"},
             "rule: rule kind must be margin, quantilized, or partial, got 'vote'"),
        ],
    )
    def test_bad_scenario_rule_is_error(self, tmp_path, rule, message):
        doc = json.loads((SCENARIOS / "decide_rotations.json").read_text())
        path = tmp_path / "rule.json"
        path.write_text(json.dumps({**doc, "rule": rule}))
        code, out, err = run_cli("decide", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "orders,p,message",
        [
            ([], [], "a distribution needs at least one order"),
            ([["x1", "x1", "x2"]], ["1"], "orders must not repeat worlds"),
            ([["x1", "x2", "x3"], ["x1", "x2"]], ["1/2", "1/2"],
             "all orders must rank the same world set"),
            ([["x1", "x2", "x3"], ["x1", "x2", "x3", "x3"]], ["1/2", "1/2"],
             "all orders must rank the same world set"),
        ],
    )
    def test_bad_scenario_distribution_is_error(self, tmp_path, orders, p, message):
        doc = json.loads((SCENARIOS / "decide_rotations.json").read_text())
        path = tmp_path / "distribution.json"
        path.write_text(json.dumps({**doc, "distribution": {"orders": orders, "p": p}}))
        code, out, err = run_cli("decide", str(path))
        assert code == 1 and out == ""
        assert err == f"error: distribution: {message}\n"

    def test_bad_matrix_json_is_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, out, err = run_cli("coherence", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: $: invalid JSON")

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"\xff\xfe{}", "$: not UTF-8 text"),
            (b"[" * 200_000, "$: JSON nested too deeply"),
            pytest.param(b"[" + b"1" * 5000 + b"]", "$: invalid JSON: Exceeds the limit",
                         marks=needs_digit_limit),
        ],
        ids=["not_utf8", "nested", "long_int"],
    )
    @pytest.mark.parametrize(
        "command", [("analyze",), ("bound",), ("decide", "--rule", "partial"), ("coherence",)]
    )
    def test_undecodable_document_is_error(self, tmp_path, data, message, command):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        code, out, err = run_cli(command[0], str(path), *command[1:])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")

    # Each hostile number below used to run for minutes (Fraction built
    # 10**exponent), so the CLI runs in a child process that a timeout stops.
    @needs_digit_limit
    @pytest.mark.parametrize(
        "command,message",
        [
            ("analyze", "worlds.w1[0][0]: exponent of '1e99999999'"),
            ("coherence", "$.z[0][1]: exponent of '1e-99999999'"),
        ],
    )
    def test_hostile_numbers_in_documents_are_errors(self, tmp_path, command, message):
        if command == "analyze":
            doc = json.loads((SCENARIOS / "three_cycle.json").read_text())
            doc["worlds"]["w1"][0][0] = "1e99999999"
        else:
            doc = json.loads((SCENARIOS / "incoherent_matrix.json").read_text())
            doc["z"][0][1] = "1e-99999999"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli_process(command, str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @needs_digit_limit
    def test_hostile_number_literal_in_a_document_is_error(self, tmp_path):
        # As a JSON number, not a string: the decoder reads it exactly.
        doc = json.loads((SCENARIOS / "three_cycle.json").read_text())
        doc["worlds"]["w1"][0][0] = "LEVEL"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace('"LEVEL"', "1e99999999"))
        code, out, err = run_cli_process("analyze", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: $: invalid JSON: exponent of '1e99999999'")
        assert err.count("\n") == 1

    @needs_digit_limit
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("audit", "--swf=critical:1e99999999", "--levels=1,100"), "'1e99999999'"),
            (("audit", "--swf=total", "--levels=1e999999999"), "'1e999999999'"),
            (("decide", str(SCENARIOS / "decide_rotations.json"), "--rule=margin",
              "--delta=1e-99999999"), "'1e-99999999'"),
        ],
        ids=["swf", "levels", "delta"],
    )
    def test_hostile_numbers_in_options_are_errors(self, argv, message):
        if argv[0] == "audit":
            argv += ("--axiom=avoid_repugnant", "--max-count=2")
        code, out, err = run_cli_process(*argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: exponent of {message}") and err.count("\n") == 1

    @needs_digit_limit
    def test_witness_past_the_digit_limit_is_error(self, tmp_path):
        # Entries of at most 2,501 digits parse, and the path bounds report,
        # but the exact witness's probabilities have about 5,000-digit
        # denominators.
        half = Fraction(1, 2)
        z_ab = half + Fraction(1, 10**2500 + 1)
        z_bc = half + Fraction(1, 10**2500 + 3)
        z = [[half, z_ab, half], [1 - z_ab, half, z_bc], [half, 1 - z_bc, half]]
        path = tmp_path / "matrix.json"
        rows = [[format_rational(v) for v in row] for row in z]
        path.write_text(json.dumps({"worlds": ["a", "b", "c"], "z": rows}))
        code, out, err = run_cli("coherence", str(path))
        assert code == 0 and json.loads(out)["findings"]["path_violations"] == []
        code, out, err = run_cli("coherence", "--exact", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: number too long to report") and err.count("\n") == 1

    def test_deeply_nested_base_is_error(self):
        code, out, err = run_cli(
            "audit", "--swf=total", "--axiom=avoid_sadistic", "--levels=-5,1,100",
            "--max-count=2", "--base", "[" * 200_000,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: --base: JSON nested too deeply")

    def test_bound_refuses_n_with_a_scenario(self):
        code, out, err = run_cli("bound", str(SCENARIOS / "three_cycle.json"), "--n", "4")
        assert code == 1 and out == ""
        assert err == "error: bound takes --n or a scenario, not both\n"

    def test_bound_refuses_a_scenario_cycle_above_cap_before_building_it(self, monkeypatch):
        def unbuilt(worlds):
            raise AssertionError("CycleSpec built for an n above the cap")

        monkeypatch.setattr(cli, "CycleSpec", unbuilt)
        scenario = str(SCENARIOS / "second_theorem_cycle.json")
        code, out, err = run_cli("bound", scenario, "--cap", "3")
        assert code == 1 and out == ""
        assert err == "error: n=4 exceeds the dimension cap 3\n"

    def test_bound_refuses_n_above_cap_before_building_the_cycle(self, monkeypatch):
        def unbuilt(worlds):
            raise AssertionError("CycleSpec built for an n above the cap")

        monkeypatch.setattr(cli, "CycleSpec", unbuilt)
        code, out, err = run_cli("bound", "--n", "1000000")
        assert code == 1 and out == ""
        assert err == "error: n=1000000 exceeds the dimension cap 7\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("bound", "--n", "1"), "a cycle needs at least 2 worlds"),
            (("bound", "--n", "0"), "a cycle needs at least 2 worlds"),
            (("bound",), "bound needs --n or a scenario with a cycle"),
            (
                ("audit", "--swf", "total", "--axiom", "nope", "--levels", "1,2",
                 "--max-count", "2"),
                "unknown axiom id 'nope'",
            ),
        ],
    )
    def test_refused_options_are_errors(self, argv, message):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_null_belief_matrix_is_error(self, tmp_path):
        doc = json.loads((SCENARIOS / "three_cycle.json").read_text())
        path = tmp_path / "null_matrix.json"
        path.write_text(json.dumps({**doc, "belief_matrix": None}))
        code, out, err = run_cli("coherence", str(path))
        assert code == 1 and out == ""
        assert err == "error: belief_matrix: matrix must be an object\n"

    @pytest.mark.parametrize("text", ["[1]", "1", '"x"', "null"])
    def test_matrix_document_that_is_not_an_object_is_error(self, tmp_path, text):
        path = tmp_path / "matrix.json"
        path.write_text(text)
        code, out, err = run_cli("coherence", str(path))
        assert code == 1 and out == ""
        assert err == "error: $: matrix document must be a JSON object\n"

    def test_decide_on_infeasible_matrix_is_error(self, tmp_path):
        doc = {
            "worlds": {"x1": [["1", 1]], "x2": [["1", 1]], "x3": [["1", 1]]},
            "belief_matrix": {
                "worlds": ["x1", "x2", "x3"],
                "z": [["1/2", "1", "0"], ["0", "1/2", "1"], ["1", "0", "1/2"]],
            },
            "rule": {"kind": "margin", "delta": "1/10"},
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli("decide", str(path))
        assert code == 1 and "not realizable" in err


class TestTextFormat:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_text_mode_renders(self, name):
        code, out, _ = run_cli(*GOLDEN_CASES[name], "--format", "text")
        assert code == 0
        assert out.startswith("uncertain-objectives")

    def test_clean_audit_renders(self):
        code, out, _ = run_cli(
            "audit", "--swf=total", "--axiom=dominance", "--levels=1,2", "--max-count=2",
            "--format", "text",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "swf: total, axiom: dominance",
            "no violation found in the bounded search space",
        ]
