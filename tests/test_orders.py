import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomfacet import (
    ConditioningOnEmptySet,
    ConstraintSet,
    UniverseTooLarge,
    conditional_order_probability,
    count_linear_extensions,
)
from randomfacet.orders import _count_orders


def brute_count(n, pairs):
    """Filtered full enumeration; the independent oracle for small n."""
    named = sorted({x for p in pairs for x in p}, key=str)
    elems = named + [f"pad{i}" for i in range(n - len(named))]
    count = 0
    for perm in itertools.permutations(elems):
        rank = {x: i for i, x in enumerate(perm)}
        if all(rank[a] < rank[b] for a, b in pairs):
            count += 1
    return count


class TestCountLinearExtensions:
    def test_both_reference_triples_give_150(self):
        assert count_linear_extensions(6, ConstraintSet.from_text("z0<x1,z0<y1,y0<x1")) == 150
        assert count_linear_extensions(6, ConstraintSet.from_text("z0<x0,z0<y0,x1<y0")) == 150

    def test_empty_constraints_count_factorials(self):
        for n in range(7):
            assert count_linear_extensions(n, []) == math.factorial(n)

    def test_matches_brute_force(self):
        cases = [
            (4, [("a", "b")]),
            (5, [("a", "b"), ("b", "c")]),
            (5, [("a", "b"), ("c", "b"), ("c", "d")]),
            (6, [("z0", "x1"), ("z0", "y1"), ("y0", "x1")]),
        ]
        for n, pairs in cases:
            assert count_linear_extensions(n, pairs) == brute_count(n, pairs)

    def test_contradiction_counts_zero(self):
        assert count_linear_extensions(3, [("a", "b"), ("b", "a")]) == 0
        assert count_linear_extensions(3, [("a", "a")]) == 0

    def test_negative_universe(self):
        with pytest.raises(ValueError, match="universe size must be non-negative"):
            count_linear_extensions(-1, [])

    def test_universe_too_large(self):
        with pytest.raises(UniverseTooLarge):
            count_linear_extensions(13, [])

    def test_too_many_named_elements(self):
        with pytest.raises(ValueError):
            count_linear_extensions(2, [("a", "b"), ("b", "c")])

    @settings(max_examples=60, deadline=None)
    @given(
        st.permutations("abcdefg"),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8),
        st.integers(0, 3),
    )
    def test_matches_brute_force_on_random_posets(self, names, ranks, pad):
        # orienting every pair from the lower to the higher rank keeps it acyclic
        pairs = [(names[min(i, j)], names[max(i, j)]) for i, j in ranks if i != j]
        n = min(len({x for p in pairs for x in p}) + pad, 7)
        assert count_linear_extensions(n, pairs) == brute_count(n, pairs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 6),
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")),
            max_size=5,
        ),
    )
    def test_adding_a_constraint_never_increases_the_count(self, n, pairs):
        pairs = [(a, b) for a, b in pairs if a != b]
        named = {x for p in pairs for x in p}
        if len(named) > n or not pairs:
            return
        base = count_linear_extensions(n, pairs[:-1])
        assert count_linear_extensions(n, pairs) <= base


class TestCountOrders:
    """The predecessor-mask counter that count_linear_extensions and the
    rfstar history weights share."""

    def test_sparse_masks_match_brute_force(self):
        # 0 and 2 appear only inside masks; 1, 3 and 5 are free
        pairs = [(2, 6), (4, 6), (0, 4)]
        assert _count_orders({6: 1 << 2 | 1 << 4, 4: 1 << 0}, 7) == brute_count(7, pairs)
        closed = {0: 0, 2: 0, 4: 1 << 0, 6: 1 << 0 | 1 << 2 | 1 << 4}
        assert _count_orders(closed, 7) == brute_count(7, pairs)

    def test_no_constraint_and_cycles(self):
        assert _count_orders(dict.fromkeys(range(5), 0), 5) == math.factorial(5)
        assert _count_orders({1: 1 << 2, 2: 1 << 1}, 4) == 0
        assert _count_orders({3: 1 << 3}, 4) == 0


class TestConstraintSet:
    def test_from_text_round_trip(self):
        cs = ConstraintSet.from_text(" a<b , c<d ,")
        assert cs.pairs == frozenset({("a", "b"), ("c", "d")})
        assert cs.elements() == {"a", "b", "c", "d"}

    def test_bad_text(self):
        for text in ("a>b", "a<b<c", "a<", "<b", "<", "a<b,c<"):
            with pytest.raises(ValueError):
                ConstraintSet.from_text(text)


class TestConditionalOrderProbability:
    def test_reference_posterior(self):
        assert conditional_order_probability(3, [(2, 3)], [(1, 3)]) == Fraction(2, 3)

    def test_symmetry_without_information(self):
        for n in (2, 4, 6):
            assert conditional_order_probability(n, [], [("a", "b")]) == Fraction(1, 2)

    def test_contradictory_query_is_impossible(self):
        assert conditional_order_probability(4, [("a", "b")], [("b", "a")]) == 0

    def test_contradictory_given_raises(self):
        with pytest.raises(ConditioningOnEmptySet):
            conditional_order_probability(3, [("a", "b"), ("b", "a")], [("a", "c")])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.sampled_from(["ab", "ac", "bc"]))
    def test_complement_sums_to_one(self, n, pair):
        a, b = pair
        given_pairs = [("x", "y")] if n >= 4 else []
        p = conditional_order_probability(n, given_pairs, [(a, b)])
        q = conditional_order_probability(n, given_pairs, [(b, a)])
        assert p + q == 1
