"""Exception types shared across the package."""


class UncertainObjectivesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValueError(UncertainObjectivesError, ValueError):
    """A value is outside its domain: a malformed rational, an unknown
    welfare function, or an audit grid that cannot be searched."""


class EmptyPopulationError(UncertainObjectivesError):
    """An operation that needs at least one person got an empty population."""


class InvalidInstanceError(UncertainObjectivesError):
    """Premise worlds do not satisfy an axiom's structural requirements."""


class SolverError(UncertainObjectivesError, RuntimeError):
    """An exact LP ended in a state its construction rules out: a bug in the
    solver or its set-up, never a property of the input."""


class BudgetExceededError(UncertainObjectivesError):
    """A search would exceed its budget: the pattern search, or an audit."""


class BoundsTooLargeError(BudgetExceededError):
    """A bounded audit's instance space exceeds the configured budget."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"instance space of ~{estimate} exceeds budget {budget}; "
            "shrink the grid or raise --budget"
        )


class ConflictingWorldIdsError(UncertainObjectivesError):
    """The same world id denotes two different populations."""


class WorldLimitError(UncertainObjectivesError):
    """A graph has more worlds than the pattern search supports."""

    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(
            f"graph has {n} worlds; the pattern search supports at most {limit}"
        )


class InvalidPatternError(UncertainObjectivesError):
    """An uncertainty pattern fails its own consistency requirement."""


class EmptyActionSetError(UncertainObjectivesError):
    """A decision rule was invoked with no candidate actions."""


class DimensionCapError(UncertainObjectivesError):
    """An n-world computation was requested above the dimension cap: an LP
    over the n! total orders, or the report of an n-cycle's bound."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"n={n} exceeds the dimension cap {cap}")


class PivotCapError(UncertainObjectivesError):
    """The simplex method passed its pivot cap without finishing."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"simplex exceeded its cap of {cap} pivots")


class SchemaError(UncertainObjectivesError):
    """A document does not match the scenario/matrix schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class IntegrityError(UncertainObjectivesError):
    """A document references undeclared ids or is internally inconsistent."""
