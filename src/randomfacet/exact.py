"""Exact expected pivot counts for both pivoting rules.

The randomized rule admits a memoized recursion over (facet set, tree)
pairs because every choice point uses fresh randomness.  The
permutation-driven rule does not: conditioning on the execution history
skews the order of the remaining facets.  A run sees its permutation
only through which candidate is the minimum at each choice point, so
its expectation is a sum over histories of those answers, each weighted
by the number of orders of the facet set that extend it
(algorithms.branches).  All arithmetic is exact rational.

The randomized rule's recursion needs the optimal tree of many facet
subsets, and most of them follow from a smaller one.  The lemma: let
F minus {f} have optimal distances d.  If cost(f) + d(head f) > d(tail f),
d is still a feasible potential on F and f is not tight, so F has the
same distances, the same tight edges and hence the same optimal trees
(the same resolved choice, and a unique one exactly when F minus {f}
has one).  This needs no acyclicity, so it holds with zero-cost cycles
too.  A tie or an improving f settles nothing, and F is solved afresh.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .algorithms import RF_STAR, branches, start_state
from .errors import EnumerationBoundExceeded, NonGenericInstance
from .graph import EdgeId, Instance, TreePolicy
from .orders import MAX_UNIVERSE

DEFAULT_ENUMERATION_BOUND = 10


class ExactEvaluator:
    """Evaluation context for exact expectations on one instance.

    Caches the optimum of each facet subset (the only such cache),
    derived by the lemma above from a cached subset one edge smaller
    when it can be, and from _Index.optimum otherwise.  Memoizes the rf
    recursion on (facet mask, tree mask) pairs as reduced (numerator,
    denominator) integer pairs; a Fraction is built only at the public
    expected_rf.  Caches are confined to this object; create one per
    computation or share it explicitly when evaluating many start trees
    of the same instance.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._idx = inst._index
        self._opt: dict[int, tuple[list[EdgeId], int, tuple[int, ...], bool]] = {}
        self._memo: dict[tuple[int, int], tuple[int, int]] = {}

    def optimal(self, fmask: int):
        """(choice, tree mask, distances, unique) for a facet subset."""
        opt = self._opt
        hit = opt.get(fmask)
        if hit is not None:
            return hit
        idx = self._idx
        rest = fmask
        while rest:
            low = rest & -rest
            rest ^= low
            entry = opt.get(fmask ^ low)
            if entry is not None:
                f = low.bit_length() - 1
                dist = entry[2]
                if idx.cost[f] + dist[idx.head[f]] > dist[idx.tail[f]]:
                    opt[fmask] = entry
                    return entry
        entry = opt[fmask] = idx.optimum(fmask)
        return entry

    def expected_rf(self, fmask: int, bmask: int) -> Fraction:
        """Expected pivots of the randomized rule from (fmask, bmask).

        Recursion: zero at the base case, otherwise the uniform average
        over removable edges e of the subproblem without e, plus, when e
        improves the unique optimum of that subproblem, one pivot and
        the expectation from the pivoted tree.
        """
        return Fraction(*self._rf(fmask, bmask))

    def _rf(self, fmask: int, bmask: int) -> tuple[int, int]:
        """expected_rf as a reduced (numerator, denominator) pair."""
        memo = self._memo
        hit = memo.get((fmask, bmask))
        if hit is not None:
            return hit
        idx = self._idx
        free = fmask & ~bmask
        if not free:
            memo[(fmask, bmask)] = (0, 1)
            return (0, 1)
        num, den = 0, 1
        rest = free
        while rest:  # the removable edges e, ascending
            low = rest & -rest
            rest ^= low
            e = low.bit_length() - 1
            sub = fmask ^ low
            n1, d1 = self._rf(sub, bmask)
            if d1 == den:
                num += n1
            else:
                num, den = num * d1 + n1 * den, den * d1
            choice, tmask, dist, unique = self.optimal(sub)
            if not unique:
                raise NonGenericInstance(
                    f"facet subset {idx.edge_bits(sub)} has more than one optimal tree"
                )
            u = idx.tail[e]
            if idx.cost[e] + dist[idx.head[e]] < dist[u]:
                b2 = (tmask & ~(1 << choice[u])) | low
                n2, d2 = self._rf(fmask, b2)
                n2 += d2  # one pivot, then the pivoted tree
                if d2 == den:
                    num += n2
                else:
                    num, den = num * d2 + n2 * den, den * d2
        den *= free.bit_count()
        g = math.gcd(num, den)
        value = (num // g, den // g)
        memo[(fmask, bmask)] = value
        return value

    def expected_rf_star(
        self, facets: Iterable[EdgeId] | None, start: TreePolicy, bound: int | None
    ) -> Fraction:
        """Mean pivot count of run_random_facet_star over every order of F.

        Sums the pivots of each argmin history weighted by its number of
        orders, over |F|!.
        """
        idx, fmask, choice = start_state(self.inst, facets, start)
        n = fmask.bit_count()
        check_enumeration_bound(n, bound)
        total = 0
        pivots = [0]  # pivots[k]: pivots on the current path down to its k-th fork
        for forks, events, weight in branches(idx, fmask, choice, start.mask, RF_STAR):
            del pivots[forks + 1 :]
            pivots.append(pivots[forks] + sum(1 for ev in events if ev[0] == "pivot"))
            if weight is not None:
                total += weight * pivots[-1]
        return Fraction(total, math.factorial(n))


def check_enumeration_bound(facet_count: int, bound: int | None) -> None:
    """Refuse exact rfstar or a computation tree on more facets than `bound`.

    None means DEFAULT_ENUMERATION_BOUND.  A bound above
    orders.MAX_UNIVERSE is capped there, because each history's weight
    counts orders of the whole facet set; the refusal comes before any
    history is enumerated.
    """
    if bound is None:
        bound = DEFAULT_ENUMERATION_BOUND
    if facet_count > min(bound, MAX_UNIVERSE):
        cap = f", capped at {MAX_UNIVERSE}" if bound > MAX_UNIVERSE else ""
        raise EnumerationBoundExceeded(
            f"{facet_count} facets exceed the enumeration bound {bound}{cap}; "
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
    rational from the argmin histories, each weighted by the number of
    permutations that produce it.  Beyond the enumeration bound
    (default 10 facets, never more than orders.MAX_UNIVERSE) this
    raises instead of silently truncating.
    """
    return ExactEvaluator(inst).expected_rf_star(facets, start, enumeration_bound)
