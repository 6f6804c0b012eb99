import math
from fractions import Fraction

import pytest

from randomfacet import (
    RF_STAR,
    Edge,
    EnumerationBoundExceeded,
    Instance,
    NonGenericInstance,
    RandomFacetError,
    TreePolicy,
    comptree,
    expected_pivots_rf,
    expected_pivots_rf_star,
)
from randomfacet import algorithms
from randomfacet.algorithms import branches, start_state
from helpers import executions, rf_expectation_by_branches, rfstar_by_permutations


class TestExpectedPivotsRf:
    def test_errata_from_001(self, errata, enc):
        assert expected_pivots_rf(errata, None, enc.tree("001")) == Fraction(7, 3)

    def test_errata_from_111(self, errata, enc):
        assert expected_pivots_rf(errata, None, enc.tree("111")) == Fraction(11, 3)

    def test_base_case_zero(self, errata, enc):
        tree = enc.tree("100")
        assert expected_pivots_rf(errata, tree.edge_ids, tree) == 0

    def test_non_generic_subproblem_rejected(self):
        # removing edge 0 leaves the tied pair {1, 2}, which has two
        # optimal trees; the recursion must refuse rather than guess
        tied = Instance.build(
            "t", [Edge(0, "v", "t", 9), Edge(1, "v", "t", 3), Edge(2, "v", "t", 3)]
        )
        with pytest.raises(NonGenericInstance):
            expected_pivots_rf(tied, None, TreePolicy({"v": 1}))

    def test_matches_branch_enumeration(self, small_pool):
        for inst in small_pool[:12]:
            start = _worst_tree(inst)
            assert expected_pivots_rf(inst, None, start) == rf_expectation_by_branches(
                inst, None, start
            )


class TestExpectedPivotsRfStar:
    def test_errata_from_001(self, errata, enc):
        assert expected_pivots_rf_star(errata, None, enc.tree("001")) == Fraction(29, 12)

    def test_errata_from_111(self, errata, enc):
        assert expected_pivots_rf_star(errata, None, enc.tree("111")) == Fraction(43, 12)

    def test_base_case_zero(self, errata, enc):
        tree = enc.tree("011")
        assert expected_pivots_rf_star(errata, tree.edge_ids, tree) == 0

    def test_enumeration_bound(self, errata, enc):
        with pytest.raises(EnumerationBoundExceeded) as exc:
            expected_pivots_rf_star(errata, None, enc.tree("001"), enumeration_bound=5)
        assert "Monte Carlo" in str(exc.value)

    def test_two_directional_gap(self, errata, enc):
        f001 = expected_pivots_rf(errata, None, enc.tree("001"))
        g001 = expected_pivots_rf_star(errata, None, enc.tree("001"))
        f111 = expected_pivots_rf(errata, None, enc.tree("111"))
        g111 = expected_pivots_rf_star(errata, None, enc.tree("111"))
        assert g001 > f001
        assert g111 < f111


class TestHistoryEnumeration:
    def test_errata_history_counts(self, errata, enc):
        for bits, histories in (("001", 36), ("111", 82)):
            start = enc.tree(bits)
            idx, fmask, choice = start_state(errata, None, start)
            segments = branches(idx, fmask, choice, start.mask, RF_STAR)
            weights = [w for w, _ in executions(segments)]
            assert len(weights) == histories
            assert sum(weights) == math.factorial(6)

    def test_matches_permutation_oracle(self, small_pool, medium_pool):
        # every small instance, the medium ones up to six edges among the
        # first 40, and only the first two with eight edges, which cost
        # 40 320 oracle runs each
        pool = (
            small_pool
            + [inst for inst in medium_pool[:40] if inst.m <= 6]
            + [inst for inst in medium_pool if inst.m == 8][:2]
        )
        for inst in pool:
            start = _worst_tree(inst)
            idx, fmask, choice = start_state(inst, None, start)
            segments = branches(idx, fmask, choice, start.mask, RF_STAR)
            weights = [w for w, _ in executions(segments)]
            assert sum(weights) == math.factorial(inst.m)
            orders = rfstar_by_permutations(inst, None, start)
            total = math.factorial(inst.m)
            assert sum(orders.values()) == total
            expected = Fraction(sum(k * n for k, n in orders.items()), total)
            assert expected_pivots_rf_star(inst, None, start) == expected
            pmf = {k: Fraction(n, total) for k, n in orders.items()}
            assert comptree(inst, None, start, RF_STAR).leaf_distribution() == pmf

    def test_bound_above_the_universe_cap_refuses_first(self, monkeypatch):
        # 13 facets cannot be weighed (orders.MAX_UNIVERSE is 12), so a
        # caller's bound of 13 must refuse before any run starts
        def no_runs(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(algorithms, "steps", no_runs)
        fan = Instance.build("t", [Edge(i, "v", "t", i + 1) for i in range(13)])
        start = TreePolicy({"v": 12})
        with pytest.raises(RandomFacetError) as exc:
            expected_pivots_rf_star(fan, None, start, enumeration_bound=13)
        assert "enumeration bound" in str(exc.value)
        with pytest.raises(RandomFacetError):
            comptree(fan, None, start, RF_STAR, enumeration_bound=13)


class TestSubsetArguments:
    def test_tree_outside_facets_rejected(self, errata, enc, names):
        with pytest.raises(ValueError):
            expected_pivots_rf(errata, errata.all_edges() - {names["z1"]}, enc.tree("001"))

    def test_restricting_to_a_face(self, errata, enc, names):
        # within the face that forces z1, the optimum is 011
        face = errata.all_edges() - {names["z0"]}
        assert expected_pivots_rf(errata, face, enc.tree("011")) == 0
        assert expected_pivots_rf_star(errata, face, enc.tree("011")) == 0


def _worst_tree(inst):
    return TreePolicy({v: es[-1].id for v, es in inst.out_edges.items() if es})
