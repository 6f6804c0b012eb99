"""Exception types raised across the package.

Everything derives from RandomFacetError so callers can catch library
failures in one clause; the CLI maps them to exit code 2.
"""
from __future__ import annotations


class RandomFacetError(Exception):
    """Base class for all library-specific errors."""


class NegativeCycle(RandomFacetError):
    """The graph contains a cycle of negative total cost."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(
            "negative-cost cycle: " + " -> ".join(str(v) for v in self.cycle)
        )


class DanglingVertex(RandomFacetError):
    """A non-target vertex has no outgoing edge."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} has no outgoing edge")


class TargetHasOutEdges(RandomFacetError):
    """The target vertex must not have outgoing edges."""


class NotATree(RandomFacetError):
    """A policy's choices do not all reach the target."""


class NotImproving(RandomFacetError):
    """pivot() was asked to apply an edge that does not improve the tree."""


class NoTreeInSubset(RandomFacetError):
    """An edge subset does not contain any tree policy."""


class PermutationDomainTooSmall(RandomFacetError):
    """A permutation does not rank every edge of the facet set."""


class NonGenericInstance(RandomFacetError):
    """Some edge subset has more than one optimal tree."""


class EnumerationBoundExceeded(RandomFacetError):
    """An exact enumeration would pass algorithms.EXECUTION_BUDGET
    executions, or weigh rfstar orders of more than orders.MAX_UNIVERSE
    facets (algorithms.branches)."""


class StateBudgetExceeded(RandomFacetError):
    """Exact rf needed more memo states than exact.RF_STATE_BUDGET."""


class UniverseTooLarge(RandomFacetError):
    """Linear-extension counting over more than orders.MAX_UNIVERSE elements."""


class ConditioningOnEmptySet(RandomFacetError):
    """Conditional probability with a contradictory set of given constraints."""


class TooLargeForExhaustiveCheck(RandomFacetError):
    """The instance has too many edges for an all-subsets check."""


class NotCubeShaped(RandomFacetError):
    """Cube views require exactly two outgoing edges per vertex."""


class NotACubeVertex(RandomFacetError, ValueError):
    """A bit string that names no tree of the instance's cube."""


class SearchExhausted(RandomFacetError):
    """The counterexample search space was exhausted without a hit."""


class GenerationFailedAfterRetries(RandomFacetError):
    """Random instance generation kept producing invalid candidates."""


class ParseError(RandomFacetError):
    """A malformed instance file."""

    def __init__(self, message, *, source="<string>", line=None):
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


class WriteError(RandomFacetError):
    """An instance file could not be written."""


class ZeroTrials(RandomFacetError):
    """Monte Carlo estimation needs at least one trial."""
