"""Batch command-line surface.

Subcommands:

* ``analyze``   - cycles, minimal uncertainty patterns, induced partial order
* ``bound``     - minimax constraint-violation bound for an n-cycle, or for a
                  scenario's shortest cycle
* ``coherence`` - chained path bounds over a belief matrix, optional exact
                  polytope feasibility
* ``decide``    - margin / quantilized / partial-order decision rules
* ``audit``     - bounded exhaustive search for axiom violations by an SWF

Reports are deterministic for fixed inputs, seeds, and tool version; JSON
output is byte-identical across runs.  Exit codes: 0 success, 1 error, and
2 when ``--strict`` is set and the analysis surfaced a violation,
infeasibility, or impossibility cycle.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys

from . import __version__
from .axioms import AxiomId, SearchBounds, audit_swf
from .beliefs import (
    DEFAULT_DIMENSION_CAP,
    CycleSpec,
    check_path_coherence,
    exact_feasibility,
    minimax_cycle_bound,
    violation_probabilities,
)
from .constraints import (
    find_cycle,
    min_uncertainty_size,
    partial_order_from,
    shortest_cycle,
    valid_uncertainty_patterns,
)
from .decisions import (
    PartialPolicy,
    RuleConfig,
    decide_margin,
    decide_partial,
    decide_quantilized,
)
from .errors import DimensionCapError, SchemaError, UncertainObjectivesError
from .populations import parse_swf, swf_label
from .rationals import format_rational
from .scenario import (
    MATRIX_SCHEMA,
    SCENARIO_SCHEMA,
    dump_json,
    load_json,
    parse_matrix,
    parse_population,
    parse_scenario,
)

REPORT_SCHEMA = "uncertain-objectives/report/v1"


def _digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _report(command: str, digest: str, flags: dict, findings: dict) -> dict:
    return {
        "$schema": REPORT_SCHEMA,
        "tool": {"name": "uncertain-objectives", "version": __version__},
        "command": command,
        "inputs": {"digest": digest, "flags": flags},
        "findings": findings,
    }


def _load_scenario(path: str):
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> tuple[dict, bool]:
    scenario = _load_scenario(args.scenario)
    graph = scenario.graph()
    certificate = find_cycle(graph)
    patterns = valid_uncertainty_patterns(graph, args.max_pattern_size, budget=args.budget)
    # Every minimal pattern up to the cap is listed, so the first is the
    # smallest unless the cap lies below the minimum.
    min_size = len(patterns[0]) if patterns else min_uncertainty_size(graph, budget=args.budget)
    partial = None
    if patterns:
        po = partial_order_from(graph, patterns[0])
        partial = {
            "pattern_labels": list(graph.labels(patterns[0].edge_indices)),
            "verdicts": {
                a: {b: po.verdict(a, b).value for b in po.worlds if b != a}
                for a in po.worlds
            },
        }
    findings = {
        "worlds": list(graph.worlds),
        "constraints": [
            {"label": e.label, "worse": e.worse, "better": e.better}
            for e in graph.edges
        ],
        "certificate": (
            {
                "length": len(certificate),
                "labels": list(certificate.labels),
                "worlds": list(certificate.worlds),
            }
            if certificate
            else None
        ),
        "min_uncertainty_size": min_size,
        "minimal_patterns": [
            {"indices": list(p.edge_indices), "labels": list(graph.labels(p.edge_indices))}
            for p in patterns
        ],
        "partial_order": partial,
    }
    flags = {"budget": args.budget, "max_pattern_size": args.max_pattern_size}
    report = _report("analyze", scenario.digest(), flags, findings)
    return report, certificate is not None


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _cmd_bound(args) -> tuple[dict, bool]:
    if args.n is not None and args.scenario:
        raise UncertainObjectivesError("bound takes --n or a scenario, not both")
    if args.n is not None:
        n, digest = args.n, _digest_of({"n": args.n})
        worlds = (f"x{i+1}" for i in range(n))
    else:
        if not args.scenario:
            raise UncertainObjectivesError("bound needs --n or a scenario with a cycle")
        scenario = _load_scenario(args.scenario)
        certificate = shortest_cycle(scenario.graph())
        if certificate is None:
            raise UncertainObjectivesError("scenario graph is acyclic; nothing to bound")
        n, digest = len(certificate), scenario.digest()
        # Certificate worlds ascend in "at least as good" direction; the cycle
        # spec wants each world almost surely better than its successor.
        worlds = reversed(certificate.worlds)
    if n > args.cap:  # before the n worlds are built
        raise DimensionCapError(n, args.cap)
    spec = CycleSpec(tuple(worlds))
    result = minimax_cycle_bound(spec)
    violations = violation_probabilities(result.witness, spec)
    findings = {
        "n": spec.n,
        "worlds": list(spec.worlds),
        "bound": format_rational(result.bound),
        "witness": result.witness.to_json(),
        "witness_max_violation": format_rational(max(violations)),
        "constraints": [
            {"better": better, "worse": worse, "violation_probability": format_rational(v)}
            for (better, worse), v in zip(spec.constraint_pairs(), violations)
        ],
    }
    flags = {"cap": args.cap, "n": args.n}
    return _report("bound", digest, flags, findings), False


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def _load_matrix(path: str):
    with open(path, "rb") as fh:
        doc = load_json(fh.read())
    if not isinstance(doc, dict):
        raise SchemaError("$", "matrix document must be a JSON object")
    schema = doc.get("$schema", MATRIX_SCHEMA)
    # A scenario's worlds are an object, a matrix's a list; either may omit $schema.
    if schema == SCENARIO_SCHEMA or "belief_matrix" in doc or isinstance(doc.get("worlds"), dict):
        scenario = parse_scenario(doc)
        if scenario.belief_matrix is None:
            raise UncertainObjectivesError("scenario has no belief_matrix to check")
        return scenario.belief_matrix, scenario.digest()
    if schema != MATRIX_SCHEMA:
        raise UncertainObjectivesError(f"expected {MATRIX_SCHEMA!r} document")
    matrix = parse_matrix(doc, "$")
    z = [[format_rational(v) for v in row] for row in matrix.z]
    digest = _digest_of({"worlds": list(matrix.worlds), "z": z})
    return matrix, digest


def _cmd_coherence(args) -> tuple[dict, bool]:
    matrix, digest = _load_matrix(args.matrix)
    n = len(matrix.worlds)
    max_path_len = n if args.max_path_len is None else min(args.max_path_len, n)
    violations = check_path_coherence(matrix, args.max_path_len)
    exact_part = None
    infeasible = False
    if args.exact:
        result = exact_feasibility(matrix, cap=args.cap)
        infeasible = not result.feasible
        exact_part = {
            "feasible": result.feasible,
            "witness": result.distribution.to_json() if result.distribution else None,
            "certificate": (
                {k: format_rational(v) for k, v in sorted(result.certificate.items())}
                if result.certificate
                else None
            ),
            "note": result.note,
        }
    findings = {
        "worlds": list(matrix.worlds),
        "evidence_tag": matrix.evidence_tag,
        "max_path_len": max_path_len,
        "path_violations": [pv.to_json() for pv in violations],
        "exact": exact_part,
    }
    flags = {"exact": args.exact, "cap": args.cap, "max_path_len": args.max_path_len}
    return _report("coherence", digest, flags, findings), bool(violations) or infeasible


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _resolve_rule(args, scenario) -> RuleConfig:
    """The scenario's rule with each given flag in place of its field."""
    flags = {"kind": args.rule, "delta": args.delta, "tau": args.tau,
             "policy": args.policy, "seed": args.seed}
    given = {name: value for name, value in flags.items() if value is not None}
    if scenario.rule is not None:
        return dataclasses.replace(scenario.rule, **given)
    if "kind" not in given:
        raise UncertainObjectivesError("no decision rule: pass --rule or set one in the scenario")
    return RuleConfig(**given)


def _cmd_decide(args) -> tuple[dict, bool]:
    scenario = _load_scenario(args.scenario)
    rule = _resolve_rule(args, scenario)
    # An explicitly empty --actions names no action, which every rule refuses.
    actions = None if args.actions is None else args.actions.split(",") if args.actions else []
    bridge_note = None
    source = None

    if rule.kind == "partial":
        graph = scenario.graph()
        patterns = valid_uncertainty_patterns(graph, budget=args.budget)
        po = partial_order_from(graph, patterns[0])
        source = "constraints"
        bridge_note = (
            "partial order induced by the first minimal uncertainty pattern "
            f"({list(graph.labels(patterns[0].edge_indices))})"
        )
        if actions is None:
            actions = po.worlds
        outcome = decide_partial(po, actions, rule.policy, rule.seed)
    else:
        dist = scenario.distribution
        source = "distribution"
        if dist is None:
            if scenario.belief_matrix is None:
                raise UncertainObjectivesError(
                    "decide needs a distribution or a belief_matrix in the scenario"
                )
            result = exact_feasibility(scenario.belief_matrix, cap=args.cap)
            if not result.feasible:
                raise UncertainObjectivesError(
                    "belief matrix is not realizable by any order distribution; "
                    "run coherence for the certificate"
                )
            dist = result.distribution
            source = "belief_matrix"
            bridge_note = (
                "distribution recovered by exact feasibility; the pairwise matrix "
                "underdetermines best-action probabilities, and this witness is "
                "one of possibly many"
            )
        if actions is None:
            actions = dist.worlds
        if rule.kind == "margin":
            outcome = decide_margin(dist, actions, rule.delta)
        else:
            outcome = decide_quantilized(dist, actions, rule.tau, rule.seed)

    findings = {
        "rule": rule.to_json(),
        "actions": sorted(actions),
        "source": source,
        "bridge_note": bridge_note,
        "outcome": outcome.to_json(),
    }
    flags = {"seed": rule.seed, "cap": args.cap, "budget": args.budget}
    return _report("decide", scenario.digest(), flags, findings), False


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _cmd_audit(args) -> tuple[dict, bool]:
    swf = parse_swf(args.swf)
    axiom = AxiomId(args.axiom)
    base = None
    if args.base:
        base = parse_population(load_json(args.base, "--base"), "--base")
    bounds = SearchBounds(
        levels=args.levels.split(","),
        max_count=args.max_count,
        max_groups=args.max_groups,
        budget=args.budget,
        very_high=args.very_high or None,
        very_low=args.very_low or None,
        torture_max=args.torture_max or None,
        base=base,
    )
    witness = audit_swf(swf, axiom, bounds)
    findings = {
        "swf": swf_label(swf),
        "axiom": axiom.value,
        "bounds": bounds.to_json(),
        "result": "violation" if witness else "none_found_in_bounds",
        "witness": witness.to_json() if witness else None,
        "replayed": witness.replay() if witness else None,
    }
    digest = _digest_of(
        {"swf": swf_label(swf), "axiom": axiom.value, "bounds": bounds.to_json()}
    )
    flags = {"budget": args.budget}
    return _report("audit", digest, flags, findings), witness is not None


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def _text_lines(report: dict) -> list[str]:
    f = report["findings"]
    cmd = report["command"]
    lines = [f"{report['tool']['name']} {report['tool']['version']} :: {cmd}"]
    if cmd == "analyze":
        cert = f["certificate"]
        lines.append(
            "cycle: " + (" -> ".join(cert["worlds"] + [cert["worlds"][0]]) if cert else "none (acyclic)")
        )
        if cert:
            lines.append(f"certificate labels: {', '.join(cert['labels'])}")
        lines.append(f"min uncertainty size: {f['min_uncertainty_size']}")
        for p in f["minimal_patterns"]:
            lines.append(f"  minimal pattern: {{{', '.join(p['labels'])}}}")
        if f["partial_order"]:
            lines.append(
                f"partial order under {{{', '.join(f['partial_order']['pattern_labels'])}}}:"
            )
            for a, row in sorted(f["partial_order"]["verdicts"].items()):
                for b, v in sorted(row.items()):
                    if a < b:
                        lines.append(f"  {a} vs {b}: {v}")
    elif cmd == "bound":
        lines.append(f"n = {f['n']}: minimax violation bound B = {f['bound']}")
        lines.append(f"witness max violation (re-enumerated): {f['witness_max_violation']}")
        for c in f["constraints"]:
            lines.append(
                f"  constraint {c['better']} > {c['worse']}: "
                f"violated with probability {c['violation_probability']}"
            )
    elif cmd == "coherence":
        lines.append(f"path violations: {len(f['path_violations'])}")
        for pv in f["path_violations"][:20]:
            lines.append(
                f"  path {' -> '.join(pv['path'])}: span {pv['span']} outside "
                f"[{pv['lower']}, {pv['upper']}] (slack {pv['slack']})"
            )
        if f["exact"]:
            lines.append(f"exact feasibility: {'feasible' if f['exact']['feasible'] else 'INFEASIBLE'}")
    elif cmd == "decide":
        o = f["outcome"]
        lines.append(f"rule: {f['rule']['kind']} (source: {f['source']})")
        if f["bridge_note"]:
            lines.append(f"note: {f['bridge_note']}")
        lines.append(f"outcome: {o['outcome']}" + (f" -> {o['world']}" if o["world"] else ""))
        lines.append(f"  {o['justification']}")
        if o["candidates"]:
            lines.append(f"  candidates: {', '.join(o['candidates'])}")
    elif cmd == "audit":
        lines.append(f"swf: {f['swf']}, axiom: {f['axiom']}")
        if f["witness"]:
            w = f["witness"]
            lines.append(f"violation found (replayed: {f['replayed']}); note: {w['note'] or '-'}")
            lines.append(f"  claim: {w['instance']['claim']}")
            for wid, pop in w["instance"]["worlds"].items():
                lines.append(f"  world {wid}: {pop}")
        else:
            lines.append("no violation found in the bounded search space")
    return lines


_PATTERN_BUDGET = "most candidate sets of removed edges the pattern search checks (default 10^6)"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: the parser holds no per-call state.
    parser = argparse.ArgumentParser(
        prog="uncobj",
        description="Impossibility cycles, uncertainty bounds, and decision rules "
        "for objectives over populations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=None, cap=False):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when findings indicate violation or infeasibility")
        if budget:
            p.add_argument("--budget", type=int, default=1_000_000, help=budget)
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_DIMENSION_CAP)

    p = sub.add_parser("analyze", help="cycles, minimal patterns, induced partial order")
    p.add_argument("scenario")
    p.add_argument("--max-pattern-size", type=int, default=None)
    common(p, budget=_PATTERN_BUDGET)

    p = sub.add_parser("bound", help="minimax violation bound for an n-cycle")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--n", type=int, default=None)
    common(p, cap=True)

    p = sub.add_parser("coherence", help="path-bound checks on a belief matrix")
    p.add_argument("matrix")
    p.add_argument("--exact", action="store_true", help="also run exact polytope feasibility")
    p.add_argument("--max-path-len", type=int, default=None)
    common(p, cap=True)

    p = sub.add_parser("decide", help="apply a decision rule to a scenario")
    p.add_argument("scenario")
    p.add_argument("--rule", choices=("margin", "quantilized", "partial"), default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--policy", choices=[pp.value for pp in PartialPolicy], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--actions", default=None, help="comma-separated world ids")
    common(p, budget=_PATTERN_BUDGET, cap=True)

    p = sub.add_parser("audit", help="bounded search for axiom violations")
    p.add_argument("--swf", required=True, help="total | average | critical:<level>")
    p.add_argument("--axiom", required=True)
    p.add_argument("--levels", required=True, help="comma-separated welfare levels")
    p.add_argument("--max-count", type=int, required=True)
    p.add_argument("--max-groups", type=int, default=2)
    p.add_argument("--very-high", default=None)
    p.add_argument("--very-low", default=None)
    p.add_argument("--torture-max", default=None)
    p.add_argument("--base", default=None, help="JSON population for the audit baseline")
    common(p, budget="most audit instances: the product of the stream sizes (default 10^6)")

    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "bound": _cmd_bound,
    "coherence": _cmd_coherence,
    "decide": _cmd_decide,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, flagged = _COMMANDS[args.command](args)
    except (UncertainObjectivesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(dump_json(report))
    else:
        print("\n".join(_text_lines(report)))
    if flagged and args.strict:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
