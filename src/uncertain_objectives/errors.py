"""Exception types shared across the package."""


class UncertainObjectivesError(Exception):
    """Base class for all errors raised by this package."""


class EmptyPopulationError(UncertainObjectivesError):
    """An operation that needs at least one person got an empty population."""


class InvalidInstanceError(UncertainObjectivesError):
    """Premise worlds do not satisfy an axiom's structural requirements."""


class BoundsTooLargeError(UncertainObjectivesError):
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


class BudgetExceededError(UncertainObjectivesError):
    """Subset enumeration would exceed the configured budget."""


class WorldLimitError(UncertainObjectivesError):
    """A graph has more worlds than the batched pattern search supports."""

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
    """A factorial-sized computation was requested above the dimension cap."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"n={n} exceeds the dimension cap {cap} (n! variables)")


class SchemaError(UncertainObjectivesError):
    """A document does not match the scenario/matrix schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class IntegrityError(UncertainObjectivesError):
    """A document references undeclared ids or is internally inconsistent."""
