import contextlib
import io
import json

import pytest

from uncertain_objectives import simplex
from uncertain_objectives.cli import main

from conftest import GOLDEN, SCENARIOS


def run_cli(*argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, buf.getvalue(), err.getvalue()


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

    def test_bound_from_scenario_cycle(self):
        code, out, _ = run_cli("bound", str(SCENARIOS / "three_cycle.json"))
        assert code == 0
        f = json.loads(out)["findings"]
        assert f["bound"] == "1/3"
        assert f["n"] == 3

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
        assert "--max-path-len must be at least 2" in err and value in err

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

    def test_decide_restricted_actions(self):
        code, out, _ = run_cli(
            "decide", str(SCENARIOS / "decide_pointmass.json"), "--actions", "x2,x3",
        )
        assert code == 0
        f = json.loads(out)["findings"]
        assert f["actions"] == ["x2", "x3"]
        assert f["outcome"]["world"] == "x2"

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
        [
            ("coherence", str(SCENARIOS / "rotation_matrix.json"), "--exact"),
            ("bound", "--n", "4"),
        ],
    )
    def test_pivot_cap_is_error(self, argv, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 1)
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert err == "error: simplex exceeded its cap of 1 pivots\n"

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
