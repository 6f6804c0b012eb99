"""Counting total orders that extend precedence constraints.

A ConstraintSet holds ordered pairs (a, b) meaning "a before b".  One
dynamic program counts the orders of a poset given as {element bit:
mask of the elements before it}: count_linear_extensions converts its
pairs to such masks, and the rfstar history weights
(algorithms.branches) pass their closed masks straight in.  The counts
feed conditional order probabilities, which is exactly the posterior a
fixed-but-random permutation acquires once part of the execution
history is known.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ConditioningOnEmptySet, UniverseTooLarge

MAX_UNIVERSE = 12


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered precedence pairs over arbitrary hashable elements."""

    pairs: frozenset[tuple]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "ConstraintSet":
        return cls(frozenset((a, b) for a, b in pairs))

    @classmethod
    def from_text(cls, text: str) -> "ConstraintSet":
        """Parse "a<b,c<d"; whitespace is ignored, empty text is empty."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            a, _, b = (part.strip() for part in chunk.partition("<"))
            if not a or not b or "<" in b:
                raise ValueError(f"constraint {chunk!r} is not of the form a<b")
            pairs.append((a, b))
        return cls.from_pairs(pairs)

    def elements(self) -> set:
        out = set()
        for a, b in self.pairs:
            out.add(a)
            out.add(b)
        return out

    def union(self, other: "ConstraintSet") -> "ConstraintSet":
        return ConstraintSet(self.pairs | other.pairs)


def _coerce(constraints) -> ConstraintSet:
    if isinstance(constraints, ConstraintSet):
        return constraints
    return ConstraintSet.from_pairs(constraints)


def count_linear_extensions(universe_size: int, constraints) -> int:
    """Exact number of total orders on the universe extending the constraints.

    Numbers the constrained elements and counts with _count_orders, in
    at most 2^k * k steps for k constrained elements rather than one per
    extension.  universe_size is capped at MAX_UNIVERSE.
    """
    cs = _coerce(constraints)
    if universe_size < 0:
        raise ValueError("universe size must be non-negative")
    if universe_size > MAX_UNIVERSE:
        raise UniverseTooLarge(
            f"universe of {universe_size} exceeds the enumeration bound {MAX_UNIVERSE}"
        )
    named = cs.elements()
    if len(named) > universe_size:
        raise ValueError(
            f"{len(named)} constrained elements do not fit in a universe of "
            f"{universe_size}"
        )
    index = {x: i for i, x in enumerate(named)}
    before = dict.fromkeys(range(len(named)), 0)
    for a, b in cs.pairs:
        before[index[b]] |= 1 << index[a]
    return _count_orders(before, universe_size)


def _count_orders(before: dict[int, int], universe_size: int) -> int:
    """Orders of `universe_size` elements in which each element e comes
    after every element of the mask before[e].

    Places the k constrained elements (those in a mask or with a
    non-empty one) one at a time, carrying the count of each placed set
    (the lattice-of-ideals method of De Loof, De Meyer and De Baets); a
    cycle leaves nothing to place and counts 0.  The n - k free elements
    take any n - k of the n positions in any order: the factor n!/k!.
    """
    named = 0
    for e, mask in before.items():
        if mask:
            named |= mask | 1 << e
    preds = [(1 << e, before.get(e, 0)) for e in range(named.bit_length()) if named >> e & 1]
    ways = {0: 1}
    for _ in preds:
        nxt: dict[int, int] = {}
        for placed, w in ways.items():
            for bit, mask in preds:
                if not placed & bit and not mask & ~placed:
                    nxt[placed | bit] = nxt.get(placed | bit, 0) + w
        ways = nxt
    return ways.get(named, 0) * math.factorial(universe_size) // math.factorial(len(preds))


def conditional_order_probability(
    universe_size: int, given, query
) -> Fraction:
    """Probability that a uniform order satisfying `given` also satisfies `query`."""
    given_cs = _coerce(given)
    query_cs = _coerce(query)
    base = count_linear_extensions(universe_size, given_cs)
    if base == 0:
        raise ConditioningOnEmptySet("no order satisfies the given constraints")
    both = count_linear_extensions(universe_size, given_cs.union(query_cs))
    return Fraction(both, base)
