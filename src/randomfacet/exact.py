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
subsets.  The second lemma below records most of them, and the others
mostly follow from a smaller one.  The first lemma: let
F minus {f} have optimal distances d.  If cost(f) + d(head f) > d(tail f),
d is still a feasible potential on F and f is not tight, so F has the
same distances, the same tight edges and hence the same optimal trees
(the same resolved choice, and a unique one exactly when F minus {f}
has one).  This needs no acyclicity, so it holds with zero-cost cycles
too.  A tie or an improving f settles nothing, and F is solved afresh.

A second lemma settles whole rf states.  Let B be a tree inside F whose
own distances d_B make every edge e of F minus B strictly worse:
cost(e) + d_B(head e) > d_B(tail e).  Then d_B is a feasible potential
on F whose only tight edges are B's, so B is the unique optimal tree of
F and of every subset between B and F.  No candidate below (F, B) ever
improves, so its rf expectation is 0, and no state below it meets a
subset with two optimal trees.  The recursion stops at such a state and
records B as F's optimum.  On a generic instance without zero-cost
cycles every edge outside a subset's optimum is strictly worse, and the
recursion from (F minus e, B) reaches F minus e's optimum as a tree, so
that optimum is cached when the loop asks for it.  A tie is not strictly
worse: it may give F a second optimal tree, which the recursion must
meet to refuse.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .algorithms import RF_STAR, branches, start_state
from .errors import (
    EnumerationBoundExceeded,
    NonGenericInstance,
    NoTreeInSubset,
    StateBudgetExceeded,
)
from .graph import EdgeId, Instance, TreePolicy
from .orders import MAX_UNIVERSE

DEFAULT_ENUMERATION_BOUND = 10
RF_STATE_BUDGET = 500_000

# (choice, tree mask, distances, unique), as _Index.optimum returns it
_Optimum = tuple[list[EdgeId], int, tuple[int, ...], bool]


class ExactEvaluator:
    """Evaluation context for exact expectations on one instance.

    Caches the optimum of each facet subset (the only such cache).  The
    rf recursion records it at every state the second lemma settles;
    any other subset is derived by the first lemma from a cached subset
    one edge smaller when it can be, and from _Index.optimum otherwise.
    Keeps per tree mask the mask of edges strictly worse than the tree
    and the tree's optimum entry.  Memoizes the rf recursion on (facet
    mask, tree mask) pairs as reduced (numerator, denominator) integer
    pairs; a Fraction is built only at the public expected_rf.  Counts
    the new memo states against RF_STATE_BUDGET and raises
    StateBudgetExceeded past it.  Caches are confined to this object;
    create one per computation or share it explicitly when evaluating
    many start trees of the same instance.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._idx = inst._index
        self._opt: dict[int, _Optimum] = {}
        self._trees: dict[int, tuple[int, _Optimum]] = {}
        self._memo: dict[tuple[int, int], tuple[int, int]] = {}
        self._states = 0

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

        bmask must be a tree inside fmask: a mask outside it raises
        ValueError, one that is not a tree NoTreeInSubset.  Recursion:
        zero when every edge of F minus B is strictly worse than B (the
        second lemma), otherwise the uniform average over removable
        edges e of the subproblem without e, plus, when e improves the
        unique optimum of that subproblem, one pivot and the expectation
        from the pivoted tree.
        """
        if bmask & ~fmask:
            raise ValueError("start tree is not contained in the facet set")
        return Fraction(*self._rf(fmask, bmask))

    def _rf(self, fmask: int, bmask: int) -> tuple[int, int]:
        """expected_rf as a reduced (numerator, denominator) pair."""
        memo = self._memo
        hit = memo.get((fmask, bmask))
        if hit is not None:
            return hit
        self._states += 1
        if self._states > RF_STATE_BUDGET:
            raise StateBudgetExceeded(
                f"exact rf needs more than {RF_STATE_BUDGET} memo states; "
                "use Monte Carlo estimation instead"
            )
        worse, entry = self._trees.get(bmask) or self._tree(bmask)
        free = fmask & ~bmask
        if not free & ~worse:  # the second lemma: B is F's unique optimum
            self._opt[fmask] = entry
            memo[(fmask, bmask)] = (0, 1)
            return (0, 1)
        idx = self._idx
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

    def _tree(self, bmask: int) -> tuple[int, _Optimum]:
        """(mask of the edges strictly worse than tree B, B's optimum entry).

        The entry is (choice, bmask, d_B, True), what optimal returns for
        every facet set that the second lemma settles with B.  Past a
        valid start, a pivot can leave a mask that does not reach the
        target only on an unvalidated instance with a negative cycle;
        that raises NoTreeInSubset, as the subset solves there do.
        """
        idx = self._idx
        dist = idx.tree_distances(bmask)
        if dist is None:
            raise NoTreeInSubset(f"tree {idx.edge_bits(bmask)} does not reach the target")
        worse = 0
        for e, (u, h, c) in enumerate(zip(idx.tail, idx.head, idx.cost)):
            if c + dist[h] > dist[u]:
                worse |= 1 << e
        data = self._trees[bmask] = (worse, (idx.choice_of_mask(bmask), bmask, dist, True))
        return data

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
    NonGenericInstance is raised.  Subsets below a state whose tree is
    already strictly optimal are not met, since the second lemma makes
    them unique.  More than RF_STATE_BUDGET memo states raise
    StateBudgetExceeded.
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
