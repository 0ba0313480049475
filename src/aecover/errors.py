"""Exception types shared across the solver library."""


class AecError(Exception):
    """Base class for all library errors."""


class InvalidInstance(AecError):
    """Instance data violates a structural invariant (self loop, unknown node, ...)."""


class Infeasible(AecError):
    """No feasible assignment exists (some terminal cannot be covered)."""


class IsolatedTerminal(Infeasible):
    """A terminal has no incident edge."""

    def __init__(self, node: str):
        super().__init__(f"terminal {node!r} has no incident edge")
        self.node = node


class EmptyLevels(AecError):
    """An endpoint of an installation pair has an empty height menu."""

    def __init__(self, node: str):
        super().__init__(f"node {node!r} has no levels")
        self.node = node


class NotBipartite(AecError):
    """Instance is not bipartite between terminals and non-terminals."""


class NonUniformFacility(AecError):
    """A facility carries edges with more than one (service, weight) pair."""

    def __init__(self, node: str):
        super().__init__(f"facility {node!r} has non-uniform thresholds")
        self.node = node


class NotUnitThresholds(AecError):
    """Instance has an edge threshold different from 1."""


class SizeBoundViolated(AecError):
    """A set passed to a k-set-cover solver exceeds the size bound k."""


class DomainError(AecError):
    """Numeric argument outside the domain of a bound function."""


class OracleViolation(AecError):
    """The density greedy met a star that raises the potential, or one whose
    applied potential drop differs from its gain."""


class IncompleteCover(AecError):
    """A solver's completion step left terminals uncovered."""

    def __init__(self, uncovered):
        super().__init__(f"completion left terminals uncovered: {list(uncovered)}")
        self.uncovered = tuple(uncovered)


class PhaseInvariantViolated(AecError):
    """The multi-phase unit solver broke an invariant its phase analysis rests on."""


class LimitExceeded(AecError):
    """Instance exceeds the configured exact-solver limits."""


class BudgetExceeded(AecError):
    """Exact search used up its node budget; carries the best incumbent found."""

    def __init__(self, best):
        super().__init__("node budget exceeded before proving optimality")
        self.best = best


class GenerationFailed(AecError):
    """Random instance generation exhausted its retry budget."""
