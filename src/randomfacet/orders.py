"""Counting total orders that extend precedence constraints.

A ConstraintSet holds ordered pairs (a, b) meaning "a before b".
count_linear_extensions counts the total orders on a universe of a
given size that extend the constraints, by dynamic programming over the
sets of constrained elements already placed (the order ideals);
elements not named by any constraint are free and only contribute a
factorial factor.  The counts feed conditional order probabilities,
which is exactly the posterior a fixed-but-random permutation acquires
once part of the execution history is known.
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

    def is_contradictory(self) -> bool:
        """True iff the relation has a cycle (including a before a)."""
        succ: dict = {}
        for a, b in self.pairs:
            if a == b:
                return True
            succ.setdefault(a, set()).add(b)
        state: dict = {}

        def dfs(x) -> bool:
            state[x] = 1
            for y in succ.get(x, ()):
                s = state.get(y)
                if s == 1:
                    return True
                if s is None and dfs(y):
                    return True
            state[x] = 2
            return False

        return any(state.get(x) is None and dfs(x) for x in succ)

    def __iter__(self):
        return iter(sorted(self.pairs, key=str))

    def __len__(self):
        return len(self.pairs)


def _coerce(constraints) -> ConstraintSet:
    if isinstance(constraints, ConstraintSet):
        return constraints
    return ConstraintSet.from_pairs(constraints)


def count_linear_extensions(universe_size: int, constraints) -> int:
    """Exact number of total orders on the universe extending the constraints.

    Places the k constrained elements one at a time and memoizes the
    count of each set of placed elements (the lattice-of-ideals method
    of De Loof, De Meyer and De Baets), so the cost is at most 2^k * k
    steps rather than one per extension; the n - k free elements
    contribute the factor n!/k!.  universe_size is capped at
    MAX_UNIVERSE.
    """
    cs = _coerce(constraints)
    if universe_size < 0:
        raise ValueError("universe size must be non-negative")
    if universe_size > MAX_UNIVERSE:
        raise UniverseTooLarge(
            f"universe of {universe_size} exceeds the enumeration bound {MAX_UNIVERSE}"
        )
    named = sorted(cs.elements(), key=str)
    if len(named) > universe_size:
        raise ValueError(
            f"{len(named)} constrained elements do not fit in a universe of "
            f"{universe_size}"
        )
    index = {x: i for i, x in enumerate(named)}
    k = len(named)
    preds = [0] * k
    for a, b in cs.pairs:
        if a == b:
            return 0
        preds[index[b]] |= 1 << index[a]
    full = (1 << k) - 1
    memo = {full: 1}

    def place(placed: int) -> int:
        if placed in memo:
            return memo[placed]
        total = 0
        for i in range(k):
            bit = 1 << i
            if placed & bit or preds[i] & ~placed:
                continue
            total += place(placed | bit)
        memo[placed] = total
        return total

    # the free elements take any n - k of the n positions, in any order
    return place(0) * math.factorial(universe_size) // math.factorial(k)


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
