"""Exact expected pivot counts for both pivoting rules.

The randomized rule admits a memoized recursion over (facet set, tree)
pairs because every choice point uses fresh randomness.  The
permutation-driven rule does not: conditioning on the execution history
skews the order of the remaining facets, so its expectation is computed
the only safe way, by averaging the deterministic runner over every
permutation of the facet set.  All arithmetic is exact rational.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from .algorithms import Permutation, run_random_facet_star, start_state
from .errors import EnumerationBoundExceeded, NonGenericInstance
from .graph import EdgeId, Instance, TreePolicy

DEFAULT_ENUMERATION_BOUND = 10


class ExactEvaluator:
    """Evaluation context for exact expectations on one instance.

    Caches shortest-path data per facet subset and memoizes the
    expectation recursion on (facet mask, tree mask) pairs.  Caches are
    confined to this object; create one per computation or share it
    explicitly when evaluating many start trees of the same instance.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._idx = inst._index
        self._opt: dict[int, tuple[list[EdgeId], int, tuple[int, ...], bool]] = {}
        self._memo: dict[tuple[int, int], Fraction] = {}

    def optimal(self, fmask: int):
        """(choice, tree mask, distances, unique) for a facet subset."""
        hit = self._opt.get(fmask)
        if hit is not None:
            return hit
        idx = self._idx
        dist, tight = idx.subgraph_shortest(fmask)
        choice = idx.resolve_tree(tight)
        tmask = 0
        for eid in choice:
            tmask |= 1 << eid
        unique = idx.count_optimal_trees(tight, limit=2) == 1
        entry = (choice, tmask, dist, unique)
        self._opt[fmask] = entry
        return entry

    def expected_rf(self, fmask: int, bmask: int) -> Fraction:
        """Expected pivots of the randomized rule from (fmask, bmask).

        Recursion: zero at the base case, otherwise the uniform average
        over removable edges e of the subproblem without e, plus, when e
        improves the unique optimum of that subproblem, one pivot and
        the expectation from the pivoted tree.
        """
        memo = self._memo
        hit = memo.get((fmask, bmask))
        if hit is not None:
            return hit
        idx = self._idx
        cands = idx.edge_bits(fmask & ~bmask)
        if not cands:
            memo[(fmask, bmask)] = Fraction(0)
            return Fraction(0)
        total = Fraction(0)
        for e in cands:
            sub = fmask & ~(1 << e)
            total += self.expected_rf(sub, bmask)
            choice, tmask, dist, unique = self.optimal(sub)
            if not unique:
                raise NonGenericInstance(
                    f"facet subset {idx.edge_bits(sub)} has more than one optimal tree"
                )
            u = idx.tail[e]
            if idx.cost[e] + idx.dget(dist, idx.head[e]) < dist[u]:
                b2 = (tmask & ~(1 << choice[u])) | (1 << e)
                total += 1 + self.expected_rf(fmask, b2)
        value = total / len(cands)
        memo[(fmask, bmask)] = value
        return value

    def expected_rf_star(
        self, facets: Iterable[EdgeId] | None, start: TreePolicy, bound: int | None
    ) -> Fraction:
        """Mean pivot count of run_random_facet_star over every order of F."""
        _, fmask, _ = start_state(self.inst, facets, start)
        ids = self._idx.edge_bits(fmask)
        check_enumeration_bound(len(ids), bound)
        total = 0
        for order in itertools.permutations(ids):
            sigma = Permutation.from_order(order)
            total += run_random_facet_star(self.inst, ids, start, sigma).pivot_count
        return Fraction(total, math.factorial(len(ids)))


def check_enumeration_bound(facet_count: int, bound: int | None) -> None:
    """Refuse to enumerate the orders of more facets than `bound` allows.

    None means DEFAULT_ENUMERATION_BOUND.
    """
    if bound is None:
        bound = DEFAULT_ENUMERATION_BOUND
    if facet_count > bound:
        raise EnumerationBoundExceeded(
            f"{facet_count} facets exceed the enumeration bound {bound} "
            f"({math.factorial(facet_count)} permutations); "
            "use Monte Carlo estimation instead"
        )


def expected_pivots_rf(
    inst: Instance, facets: Iterable[EdgeId] | None, start: TreePolicy
) -> Fraction:
    """Exact expected pivot count of the randomized rule.

    Requires a generic instance: every facet subset met during the
    recursion must have a unique optimal tree, otherwise
    NonGenericInstance is raised.
    """
    _, fmask, _ = start_state(inst, facets, start)
    return ExactEvaluator(inst).expected_rf(fmask, start.mask)


def expected_pivots_rf_star(
    inst: Instance,
    facets: Iterable[EdgeId] | None,
    start: TreePolicy,
    *,
    enumeration_bound: int | None = None,
) -> Fraction:
    """Exact expectation of the permutation-driven rule.

    Defined as the mean pivot count of the deterministic runner over
    all |F|! permutations of the facet set, computed as an exact
    rational.  Beyond the enumeration bound (default 10) this raises
    instead of silently truncating.
    """
    return ExactEvaluator(inst).expected_rf_star(facets, start, enumeration_bound)
