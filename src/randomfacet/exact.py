"""Exact expected pivot counts for both pivoting rules.

The randomized rule admits a memoized recursion over (facet set, tree)
pairs because every choice point uses fresh randomness.  The
permutation-driven rule does not: conditioning on the execution history
skews the order of the remaining facets.  A run sees its permutation
only through which candidate is the minimum at each choice point, so
its expectation is a sum over histories of those answers, each weighted
by the number of orders of the facet set that extend it
(algorithms.branches, which refuses more than
algorithms.EXECUTION_BUDGET histories or orders.MAX_UNIVERSE live
facets).  All arithmetic is exact rational.

The randomized rule's recursion keeps, beside each state's value, the
trees where runs from the state end, each an optimal tree of its facet
set: one tree, as on every generic instance, or a distribution over
several where the set's optima tie.  At a choice point it reads the
optima of F minus e off the end trees of (F minus e, B).  They all
have the same distances, so e improves every one of them or none, by
being strictly better; each improved one pivots e in with its own
probability.  No facet subset is solved, and ties are not refused.

A lemma settles whole rf states.  Let B be a tree inside F such that,
by B's own distances d_B, no edge of F minus B improves B.  Then no
run from (F, B) pivots: by induction on |F|, the run without e ends at
B, which e does not improve.  So its rf expectation is 0 and its runs
end at B, an optimal tree of F, since d_B is a feasible potential on F;
ties and zero-cost cycles change nothing.  The recursion stops there.

A second lemma drops edges no run can pivot in.  Let pi be the whole
instance's optimal distances, solved once per evaluator; d_T >= pi for
every tree T.  An edge e = u->h outside B is dead at B iff cost(e) + pi(h)
> d_B(u), strictly.  Pivots only lower distances, so each tree T a run
from B reaches has cost(e) + d_T(h) >= cost(e) + pi(h) > d_B(u) >= d_T(u):
e never improves T, dead(B) lies within dead(T), and by induction on |F|
runs on F and on F minus e pivot alike (rfstar's order restricted to F
minus e).  Strictly slack, e is on no optimal tree between B and F.
The same holds at every tree T a run reaches, for the edges dead at T:
exact rfstar drops them at each pause of its walk, before listing answers
(algorithms.branches), from the facets and the pending calls alike.
Each order of the start's live edges consistent with a pruned history
then gives exactly one unpruned execution, with the same pivots, so
the weights still count orders of those live edges.  d_B comes off
B's split, which the runs read too, so each tree is split once; a tree
the recursion pivots to is split from the end tree it was pivoted from.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .algorithms import RF_STAR, branches, start_state
from .errors import StateBudgetExceeded
from .graph import EdgeId, Instance, TreePolicy

RF_STATE_BUDGET = 500_000


class ExactEvaluator:
    """Evaluation context for exact expectations on one instance.

    Memoizes the rf recursion on (F minus dead(B), B) pairs, dead(B)
    being the edges u->h with cost + pi(h) > d_B(u), strictly, which stay
    dead at every tree a run from B reaches, as pivots only lower d_B:
    per pair a reduced (numerator, denominator) integer pair and where
    its runs end, one tree mask or a dict of tree masks to probabilities;
    a Fraction is built only at the public expected_rf.  Reads d_B and
    the improving mask off the tree's split (_Index.tree_split, the
    per-tree cache algorithms.steps shares).  Counts new memo states
    against RF_STATE_BUDGET and raises StateBudgetExceeded past it.  The
    memo is confined to this object; create one per computation or share
    it explicitly when evaluating many start trees of the same instance.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._idx = inst._index
        self._memo: dict[tuple[int, int], tuple[int, int, int | dict[int, Fraction]]] = {}
        self._states = 0
        self._pi: tuple[int, ...] | None = None
        self._dead: dict[int, int] = {}

    def optimal(self, fmask: int):
        """(choice, tree mask, distances, unique) for a facet subset, uncached."""
        return self._idx.optimum(fmask)

    def expected_rf(self, fmask: int, bmask: int) -> Fraction:
        """Expected pivots of the randomized rule from (fmask, bmask).

        fmask must name edges of the instance only and bmask must be a
        tree inside fmask: a mask outside either raises ValueError, one
        that is not a tree NoTreeInSubset.  Recursion: zero when no edge
        of F minus B improves B (the first lemma), otherwise the uniform
        average over removable edges e of the subproblem without e, plus,
        for each tree where that subproblem's runs end that e improves,
        weighted by that tree's probability, one pivot and the
        expectation from the pivoted tree.
        """
        if fmask & ~self._idx.full_mask:
            raise ValueError("facet set names an edge that is not in the instance")
        if bmask & ~fmask:
            raise ValueError("start tree is not contained in the facet set")
        return Fraction(*self._rf(fmask & ~self.dead(bmask), bmask)[:2])

    def dead(self, bmask: int) -> int:
        """The mask of edges dead at tree bmask, cached per tree.

        Reads d_B off the tree's split.  Each pivot splits the tree it
        makes, so only a start tree comes here unsplit, to be split from
        scratch (_Index.tree_split); one that is not a tree raises NoTreeInSubset.
        """
        if bmask in self._dead:
            return self._dead[bmask]
        idx = self._idx
        dist, _ = idx.splits.get(bmask) or idx.tree_split(bmask)
        if self._pi is None:
            self._pi = idx.subgraph_shortest(idx.full_mask)[0]
        pi = self._pi
        dead = self._dead[bmask] = sum(
            1 << e for e, (u, h, c) in enumerate(zip(idx.tail, idx.head, idx.cost))
            if c + pi[h] > dist[u]
        )
        return dead

    def _rf(self, fmask: int, bmask: int) -> tuple[int, int, int | dict[int, Fraction]]:
        """expected_rf as a reduced (numerator, denominator) pair, and where runs end.

        Runs from (F, B) end at optima of F: B at a stop.  The third field
        is that tree's mask when every run ends at the same tree, as on a
        generic instance, else a dict of each end tree's probability.
        """
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
        idx = self._idx
        splits = idx.splits
        _, better = splits[bmask]
        free = fmask & ~bmask
        if not free & better:
            value = memo[(fmask, bmask)] = (0, 1, bmask)  # the first lemma
            return value
        num, den = 0, 1
        ends = []
        rest = free
        while rest:  # the removable edges e, ascending
            low = rest & -rest
            rest ^= low
            n1, d1, final = self._rf(fmask ^ low, bmask)
            if d1 == den:
                num += n1
            else:
                num, den = num * d1 + n1 * den, den * d1
            for end, p in _weighted(final):  # F minus e's optima share distances
                if splits[end][1] & low:
                    e = low.bit_length() - 1
                    b2 = (end & ~idx.at_tail[e]) | low
                    dead = self._dead.get(b2)
                    if dead is None:
                        splits.get(b2) or idx.tree_split(b2, (end, e))
                        dead = self.dead(b2)
                    n2, d2, end = self._rf(fmask & ~dead, b2)
                    n2 = (n2 + d2) * p.numerator  # one pivot, then the pivoted tree
                    d2 *= p.denominator
                    if d2 == den:
                        num += n2
                    else:
                        num, den = num * d2 + n2 * den, den * d2
                ends.append((end, p))
        k = free.bit_count()
        den *= k
        g = math.gcd(num, den)
        final = ends[0][0]
        if any(end != final for end, _ in ends):
            final = {}
            for end, p in ends:
                for b, q in _weighted(end):
                    final[b] = final.get(b, 0) + Fraction(p * q, k)
        value = memo[(fmask, bmask)] = (num // g, den // g, final)
        return value

    def expected_rf_star(self, facets: Iterable[EdgeId] | None, start: TreePolicy) -> Fraction:
        """Mean pivot count of run_random_facet_star over every order of F.

        Sums the pivots of each argmin history weighted by its number of
        orders, over |F|!, with F the edges not dead at the start: the
        second lemma.  The walk drops edges as they die along each run
        too.  branches refuses more than orders.MAX_UNIVERSE live edges,
        or more than algorithms.EXECUTION_BUDGET histories.
        """
        idx, fmask = start_state(self.inst, facets, start)
        fmask &= ~self.dead(start.mask)
        total = 0
        pivots = [0]  # pivots[k]: pivots on the current path down to its k-th fork
        for forks, events, weight in branches(idx, fmask, start.mask, RF_STAR, self.dead):
            del pivots[forks + 1 :]
            pivots.append(pivots[forks] + sum(1 for ev in events if ev[0] == "pivot"))
            if weight is not None:
                total += weight * pivots[-1]
        return Fraction(total, math.factorial(fmask.bit_count()))


def _weighted(final: int | dict[int, Fraction]):
    """An rf state's end trees as (tree mask, probability) pairs."""
    return final.items() if isinstance(final, dict) else ((final, 1),)


def expected_pivots_rf(
    inst: Instance,
    facets: Iterable[EdgeId] | None,
    start: TreePolicy,
    *,
    evaluator: ExactEvaluator | None = None,
) -> Fraction:
    """Exact expected pivot count of the randomized rule.

    Answers every valid instance, generic or not: where a facet subset
    has several optimal trees, runs may end at any of them, and the
    recursion follows each with its probability.  More than
    RF_STATE_BUDGET memo states raise StateBudgetExceeded.  Pass an
    ExactEvaluator of inst to share its memo across calls; by default
    each call builds its own.
    """
    _, fmask = start_state(inst, facets, start)
    return (evaluator or ExactEvaluator(inst)).expected_rf(fmask, start.mask)


def expected_pivots_rf_star(
    inst: Instance,
    facets: Iterable[EdgeId] | None,
    start: TreePolicy,
    *,
    evaluator: ExactEvaluator | None = None,
) -> Fraction:
    """Exact expectation of the permutation-driven rule.

    Defined as the mean pivot count of the deterministic runner over
    all |F|! permutations of the facet set, computed as an exact
    rational from the argmin histories, each weighted by the number of
    permutations that produce it.  More than orders.MAX_UNIVERSE live
    facets (those not dead at the start) or more than
    algorithms.EXECUTION_BUDGET histories raise EnumerationBoundExceeded
    instead of silently truncating.  Pass an ExactEvaluator of inst to
    share its dead masks across calls.
    """
    return (evaluator or ExactEvaluator(inst)).expected_rf_star(facets, start)
