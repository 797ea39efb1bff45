"""Where the tracer hooks into the package, and the counters it keeps there.

Layers are the package modules.  Each entry wraps one boundary callable,
named ``<layer>.<what>``.  Functions that ``cli`` imports by name are wrapped
again under ``cli``'s own attribute, because ``cli`` calls them through its
namespace.
"""

from __future__ import annotations

from uncertain_objectives import (
    _kernels,
    axioms,
    beliefs,
    cli,
    constraints,
    decisions,
    populations,
)

from common import count_paths


def _arg(args, kwargs, pos, key, default=()):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _after_lp(counts, args, kwargs, res):
    counts["simplex.calls"] += 1
    counts["simplex.pivots"] += res.pivots
    counts["simplex.columns"] += len(_arg(args, kwargs, 0, "c"))
    counts["simplex.rows"] += len(_arg(args, kwargs, 1, "a_ub")) + len(
        _arg(args, kwargs, 3, "a_eq")
    )


def _path_name(m, max_path_len=None):
    return "beliefs.path_exact" if m.is_exact else "beliefs.path_float"


def _after_path(counts, args, kwargs, res):
    m = args[0]
    limit = _arg(args, kwargs, 1, "max_path_len", None)
    n = len(m.worlds)
    counts["beliefs.paths_scanned"] += count_paths(n, n if limit is None else min(limit, n))


def _after_path_slacks(counts, args, kwargs, res):
    counts["kernels.path_slacks_rows"] += int(args[1].shape[0])


def _after_pattern_valid(counts, args, kwargs, flags):
    rows = int(args[0].shape[0])
    counts["kernels.pattern_valid_rows"] += rows
    counts["constraints.subsets_checked"] += rows
    counts["constraints.subsets_valid"] += int(flags.sum())


def _after_pattern_is_valid(counts, args, kwargs, ok):
    counts["constraints.subsets_checked"] += 1
    counts["constraints.subsets_valid"] += int(bool(ok))


def _counter(key):
    def after(counts, args, kwargs, result):
        counts[key] += 1

    return after


def install(tracer) -> None:
    w = tracer.wrap
    # simplex (reached through the name beliefs imported)
    w(beliefs, "solve_lp", "simplex.solve", after=_after_lp)
    # beliefs
    for owner in (beliefs, cli):
        w(owner, "exact_feasibility", "beliefs.feasibility")
        w(owner, "minimax_cycle_bound", "beliefs.minimax")
        w(owner, "check_path_coherence", _path_name, after=_after_path)
    w(beliefs, "matrix_from_distribution", "beliefs.matrix")
    # _kernels (beliefs and constraints call them through the module)
    w(_kernels, "path_slacks", "kernels.path_slacks", after=_after_path_slacks)
    w(_kernels, "pairwise_matrix", "kernels.pairwise_matrix")
    w(_kernels, "pattern_valid_flags", "kernels.pattern_valid", after=_after_pattern_valid)
    # constraints
    for owner in (constraints, cli):
        w(owner, "find_cycle", "constraints.find_cycle")
        w(owner, "valid_uncertainty_patterns", "constraints.patterns")
        w(owner, "partial_order_from", "constraints.partial_order")
    w(constraints, "min_uncertainty_size", "constraints.min_size")
    w(constraints, "validate_partial_order", "constraints.validate_order")
    w(constraints, "pattern_is_valid", "constraints.pattern_is_valid", after=_after_pattern_is_valid)
    # populations: hot leaves, aggregated rather than recorded per call
    w(populations.Population, "__init__", "populations.construct", leaf=True,
      after=_counter("populations.constructed"))
    for cls in (populations.TotalWelfare, populations.AverageWelfare, populations.CriticalLevel):
        w(cls, "score", "populations.score", leaf=True, after=_counter("populations.scores"))
    # axioms
    for owner in (axioms, cli):
        w(owner, "audit_swf", "axioms.audit")
    w(axioms, "check_instance", "axioms.check", leaf=True,
      after=_counter("axioms.instances_checked"))
    # decisions
    for owner in (decisions, cli):
        for fn in ("decide_margin", "decide_quantilized", "decide_partial"):
            w(owner, fn, f"decisions.{fn}")
    w(decisions, "prob_best", "decisions.prob_best")
    # scenario (documents parsed by the CLI)
    for fn in ("parse_scenario", "parse_matrix", "parse_population"):
        w(cli, fn, "scenario.parse", after=_counter("scenario.documents"))
    # cli
    w(cli, "main", "cli.main")
