"""Uncertainty certificates and decision rules for objectives over populations.

The package turns classic population-ethics impossibility arguments into
computable objects: exact-rational populations and social welfare orderings,
executable adequacy conditions with bounded audits, constraint graphs whose
cycles certify impossibility, partial-order machinery quantifying the minimal
incomparability any consistent objective must carry, belief matrices over
world pairs with exact linear-ordering-polytope feasibility, the minimax
violation bound for cyclic constraints, and decision rules (margin,
quantilized, partial-order) over the resulting uncertain objectives.
"""

__version__ = "0.1.0"

import importlib

# Each public name and the submodule that defines it.  A submodule is
# imported on first use of it or of one of its names, so a process that
# needs only the audits never loads the LP solver, the scenario parser or
# the command line.
_EXPORTS = {
    "axioms": (
        "AxiomId AxiomInstance CheckResult SearchBounds ViolationWitness audit_swf "
        "build_cycle check_instance second_theorem_cycle"
    ),
    "beliefs": (
        "BeliefMatrix CycleSpec FeasibilityResult MinimaxBound OrderDistribution "
        "check_path_coherence exact_feasibility matrix_from_distribution "
        "minimax_cycle_bound path_bounds rotation_mixture violation_probabilities"
    ),
    "constraints": (
        "ConstraintGraph Edge ImpossibilityCertificate PartialOrder UncertaintyPattern "
        "find_cycle min_uncertainty_size partial_order_from pattern_is_valid "
        "valid_uncertainty_patterns validate_partial_order"
    ),
    "decisions": (
        "DecisionOutcome OutcomeKind PartialPolicy RuleConfig decide_margin decide_partial "
        "decide_quantilized prob_best"
    ),
    "ordering": "Verdict",
    "populations": (
        "AverageWelfare CriticalLevel Population TotalWelfare World average_welfare "
        "population swf_compare swf_order total_welfare"
    ),
    "rationals": "as_rational format_rational",
    "scenario": "Scenario parse_scenario serialize_scenario",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "grids", "simplex"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
