import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randomfacet import (
    RF,
    RF_STAR,
    Edge,
    EnumerationBoundExceeded,
    ExactEvaluator,
    Instance,
    NonGenericInstance,
    NoTreeInSubset,
    StateBudgetExceeded,
    TreePolicy,
    comptree,
    estimate_expected_pivots,
    expected_pivots_rf,
    expected_pivots_rf_star,
    genericity_check,
    random_instance,
)
from randomfacet import algorithms, cli, dumps_instance, exact
from randomfacet.algorithms import branches, start_state
from randomfacet.graph import _Index
from helpers import (
    all_bits,
    count_calls,
    count_splits,
    cyclic_instance,
    deadline,
    executions,
    has_zero_cost_cycle,
    optima_by_real_trees,
    pick_sequence,
    real_trees,
    rf_expectation_by_branches,
    rf_expectation_by_subset_solves,
    rfstar_by_permutations,
    rfstar_histories_by_permutations,
)


class TestExpectedPivotsRf:
    def test_errata_from_001(self, errata, enc):
        assert expected_pivots_rf(errata, None, enc.tree("001")) == Fraction(7, 3)

    def test_errata_from_111(self, errata, enc):
        assert expected_pivots_rf(errata, None, enc.tree("111")) == Fraction(11, 3)

    def test_base_case_zero(self, errata, enc):
        tree = enc.tree("100")
        assert expected_pivots_rf(errata, tree.edge_ids, tree) == 0

    def test_non_generic_subproblem_answered(self):
        # removing edge 0 leaves the tied pair {1, 2}, which has two
        # optimal trees: from edge 1 nothing improves, and from edge 0
        # every run pivots once, to edge 1 or edge 2
        tied = Instance.build(
            "t", [Edge(0, "v", "t", 9), Edge(1, "v", "t", 3), Edge(2, "v", "t", 3)]
        )
        for eid, value in ((1, 0), (0, 1)):
            start = TreePolicy({"v": eid})
            assert expected_pivots_rf(tied, None, start) == value
            assert expected_pivots_rf_star(tied, None, start) == value

    def test_unvalidated_negative_cycle_refused(self):
        # a -> b -> a costs -1; pivoting to a -> b closes it, so the
        # pivoted tree does not reach the target
        inst = Instance.build(
            "t",
            [Edge(0, "a", "t", 0), Edge(1, "a", "b", -2), Edge(2, "b", "t", 0), Edge(3, "b", "a", 1)],
        )
        with deadline(10), pytest.raises(NoTreeInSubset):
            expected_pivots_rf(inst, None, TreePolicy({"a": 0, "b": 2}))

    def test_matches_branch_enumeration(self, small_pool):
        for inst in small_pool[:12]:
            start = _worst_tree(inst)
            assert expected_pivots_rf(inst, None, start) == rf_expectation_by_branches(
                inst, None, start
            )

    def test_matches_branch_enumeration_on_cyclic_instances(self, cyclic_pool):
        # the generic members up to six edges; zero-cost cycles among them
        # are what the tree checks of the recursion guard against
        pool = [(inst, start) for inst, start in cyclic_pool if inst.m <= 6]
        generic = [(inst, start) for inst, start in pool if genericity_check(inst)]
        assert any(has_zero_cost_cycle(inst) for inst, _ in generic)
        for inst, start in generic:
            assert expected_pivots_rf(inst, None, start) == rf_expectation_by_branches(
                inst, None, start
            )


class TestOptimalTreeStop:
    """expected_pivots_rf stops at a state whose tree no edge improves,
    drops the edges dead at each tree and reads each subset's optima off
    the trees its runs end at; the plain recursion of tests/helpers
    solves every subset it meets, keeps every edge, never stops early
    and refuses a subset with two optimal trees.  Values must be equal
    where it answers.  Where it refuses, the engine must equal the
    branch oracle, which is run up to eight edges only: on the pool's
    nine-edge members it takes minutes."""

    def test_matches_subset_solves_on_the_cyclic_pool(self, errata, enc, cyclic_pool):
        cases = [(errata, enc.tree(bits)) for bits in all_bits(enc)] + cyclic_pool
        refused = sum(_same_outcome(inst, start) for inst, start in cases)
        assert 0 < refused < len(cases)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (4, 2)]),
        st.integers(0, 1),
    )
    def test_matches_subset_solves_where_ties_are_everywhere(self, seed, shape, cost_bound):
        inst, start = cyclic_instance(*shape, cost_bound=cost_bound, seed=seed)
        _same_outcome(inst, start)


class TestTies:
    """Exact rf answers instances whose facet subsets have several
    optimal trees.  Runs from a state may then end at different trees,
    and the memo keeps their distribution, each tree an optimum of the
    state's facet set."""

    def test_golden_non_generic_gap(self, capsys, tmp_path):
        # edges 0 v0->v1 0, 1 v0->t 1, 2 v1->v0 1, 3 v1->t 0, 4 v2->v1 1,
        # 5 v2->v0 1: in the facet subset {0, 3, 4, 5} v2 has two optimal
        # edges, so runs of both rules end at either
        inst, _ = cyclic_instance(3, 2, cost_bound=1, seed=5)
        start = TreePolicy({"v0": 1, "v1": 2, "v2": 4})
        assert list(inst.edges) == [
            Edge(0, "v0", "v1", 0), Edge(1, "v0", "t", 1), Edge(2, "v1", "v0", 1),
            Edge(3, "v1", "t", 0), Edge(4, "v2", "v1", 1), Edge(5, "v2", "v0", 1),
        ]
        _, trees = optima_by_real_trees(inst)[0b111001]
        assert len(trees) == 2
        ev = ExactEvaluator(inst)
        assert ev.expected_rf(inst._index.full_mask, start.mask) == Fraction(17, 6)
        assert any(isinstance(final, dict) for _, _, final in ev._memo.values())
        assert expected_pivots_rf(inst, None, start) == Fraction(17, 6)
        assert comptree(inst, None, start, RF).expectation() == Fraction(17, 6)
        assert expected_pivots_rf_star(inst, None, start) == Fraction(67, 24)
        path = tmp_path / "gap.instance"
        path.write_text(dumps_instance(inst))
        for rule, value in (("rf", "17/6\n"), ("rfstar", "67/24\n")):
            assert cli.main(["exact", str(path), "--rule", rule, "--tree", "1,2,4"]) == 0
            assert capsys.readouterr().out == value

    def test_end_tree_weighs_its_probability(self):
        # m=8: one state's runs end at two trees, with probabilities 1/3
        # and 2/3, and a later candidate improves both, so each pivot
        # counts with its tree's probability
        inst, start = cyclic_instance(4, 2, cost_bound=2, seed=48)
        ev = ExactEvaluator(inst)
        assert ev.expected_rf(inst._index.full_mask, start.mask) == Fraction(11, 3)
        assert rf_expectation_by_branches(inst, None, start) == Fraction(11, 3)
        ends = [_end_trees(final) for _, _, final in ev._memo.values()]
        assert sorted(p for e in ends if len(e) > 1 for p in e.values()) == [
            Fraction(1, 3), Fraction(2, 3)]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (1, 4), (4, 2)]),
        st.integers(0, 1),
    )
    @example(2, (2, 3), 1)  # a tied end tree of probability below one
    def test_end_trees_are_optima_with_total_probability_one(self, seed, shape, cost_bound):
        inst, start = cyclic_instance(*shape, cost_bound=cost_bound, seed=seed)
        ev = ExactEvaluator(inst)
        got = ev.expected_rf(inst._index.full_mask, start.mask)
        assert got == rf_expectation_by_branches(inst, None, start)
        optima = optima_by_real_trees(inst)
        for (f, _), (_, _, final) in ev._memo.items():
            ends = _end_trees(final)
            assert sum(ends.values()) == 1
            assert all(p > 0 for p in ends.values())
            trees = {tree.mask for tree in optima[f][1]}
            assert ends.keys() <= trees


class TestStateBudget:
    def test_errata_fits_its_own_state_count(self, errata, enc, monkeypatch):
        # exact rf from 001 needs 18 memo states
        monkeypatch.setattr(exact, "RF_STATE_BUDGET", 18)
        assert expected_pivots_rf(errata, None, enc.tree("001")) == Fraction(7, 3)
        monkeypatch.setattr(exact, "RF_STATE_BUDGET", 17)
        with pytest.raises(StateBudgetExceeded) as exc:
            expected_pivots_rf(errata, None, enc.tree("001"))
        assert "more than 17 memo states" in str(exc.value)

    def test_large_instance_refuses_instead_of_running_on(self, monkeypatch):
        # m=40: from this start exact rf answers 73/6 in 75 184 memo
        # states, so a budget of 20 000 must refuse, not run on
        monkeypatch.setattr(exact, "RF_STATE_BUDGET", 20_000)
        inst = random_instance(20, 2, 9, 1, require_generic=False)
        ev = ExactEvaluator(inst)
        with pytest.raises(StateBudgetExceeded):
            ev.expected_rf(inst._index.full_mask, _worst_tree(inst).mask)
        assert len(ev._memo) < 20_000


class TestDeadEdges:
    """An edge e = u->h outside B with cost(e) + pi(h) > d_B(u), pi the
    whole instance's optimum, is dead at B: no run from B pivots it in,
    so the exact engines drop it.  Checked by routes that drop nothing."""

    @staticmethod
    def _pool(small_pool, medium_pool, cyclic_pool):
        pool = [(inst, _worst_tree(inst)) for inst in small_pool + medium_pool[:60]]
        return [(inst, start) for inst, start in pool + cyclic_pool if inst.m <= 6]

    def test_dropped_edges_never_enter(self, small_pool, medium_pool, cyclic_pool):
        # every tree the rf recursion met, against every rf execution from it
        dropped = 0
        for inst, start in self._pool(small_pool, medium_pool, cyclic_pool):
            idx, fmask = start_state(inst, None, start)
            ev = ExactEvaluator(inst)
            ev.expected_rf(fmask, start.mask)
            for bmask, dead in ev._dead.items():
                for _, events, _ in branches(idx, fmask, bmask, RF):
                    assert not any(e[0] == "pivot" and dead >> e[1] & 1 for e in events)
                dropped += dead.bit_count()
        assert dropped

    def test_rfstar_keeps_the_mean_over_every_order(self, small_pool, medium_pool, cyclic_pool):
        # exact rfstar drops the edges dead at its start and, along each
        # run, those dead at the trees it reaches; the oracle runs every
        # order of all of F
        dead_at_start = pruned = 0
        for inst, start in self._pool(small_pool, medium_pool, cyclic_pool):
            orders = rfstar_by_permutations(inst, None, start)  # all m! orders
            expected = Fraction(sum(k * n for k, n in orders.items()), math.factorial(inst.m))
            assert expected_pivots_rf_star(inst, None, start) == expected
            dead_at_start += bool(ExactEvaluator(inst).dead(start.mask))
            # both walks start without the edges dead at the start, so a
            # shorter pruned one dropped edges after a pivot
            pruned += len(_rfstar_histories(inst, start, True)) < len(
                _rfstar_histories(inst, start, False))
        assert dead_at_start and pruned

    def test_each_tree_reads_its_distances_once(self, errata, enc, monkeypatch):
        # dead(B) reads d_B off B's split, so on a fresh index every tree
        # the exact engines meet is split once: from scratch, reading its
        # distances once (the start trees that start_state splits
        # included), or from the tree it was pivoted from, reading none
        walks = count_calls(monkeypatch, _Index, "tree_distances")
        made = count_splits(monkeypatch)
        inst = random_instance(4, 2, 9, 0)
        first_edges = TreePolicy({v: out[0] for v, out in zip(inst._index.order, inst._index.out)})
        cases = [(errata, [enc.tree("001"), enc.tree("111")]), (inst, [first_edges])]
        counts = []
        for inst, starts in cases:
            inst = Instance(inst.target, inst.edges, inst.vertices)  # an empty index
            made.clear()
            before = walks[0]
            for start in starts:
                expected_pivots_rf(inst, None, start)
                expected_pivots_rf_star(inst, None, start)
            assert walks[0] - before == made[True]
            assert made[True] + made[False] == len(inst._index.splits) > len(starts)
            counts.append((made[True], made[False]))
        # 7 and 9 walks before `via`: only the start trees now walk
        assert counts == [(2, 5), (1, 8)]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (1, 4)]),
        st.integers(0, 3),
    )
    def test_rf_matches_branches_on_every_draw(self, seed, shape, cost_bound):
        inst, start = cyclic_instance(*shape, cost_bound=cost_bound, seed=seed)
        assert expected_pivots_rf(inst, None, start) == rf_expectation_by_branches(
            inst, None, start
        )


class TestReach:
    def test_m40_agrees_with_monte_carlo(self):
        # from the first edge at every vertex: 10 431 memo states
        inst = random_instance(20, 2, 9, 0, require_generic=False)
        start = TreePolicy({v: es[0].id for v, es in inst.out_edges.items() if es})
        assert expected_pivots_rf(inst, None, start) == 12
        est = estimate_expected_pivots(inst, None, start, RF, 1000, 0)
        assert abs(est.mean - 12) <= 4 * est.stderr

    def test_m32_with_tied_subsets_agrees_with_monte_carlo(self):
        # from the last edge at every vertex the recursion meets facet
        # subsets with two optimal trees, and answers in 8 052 memo states
        inst = random_instance(16, 2, 9, 2, require_generic=False)
        ev = ExactEvaluator(inst)
        assert ev.expected_rf(inst._index.full_mask, _worst_tree(inst).mask) == Fraction(19, 2)
        assert len(ev._memo) == 8052
        assert any(isinstance(final, dict) for _, _, final in ev._memo.values())
        est = estimate_expected_pivots(inst, None, _worst_tree(inst), RF, 1000, 0)
        assert abs(est.mean - Fraction(19, 2)) <= 4 * est.stderr


class TestOptimumReuse:
    """The rf recursion reuses the trees where each state's runs end as
    the optima of its facet set, so every end tree in the memo must have
    the distances of a direct solve of that set, and a set's unique
    optimum must be stored as that one tree."""

    def test_recursion_entries_match_a_direct_solve(self, small_pool, medium_pool, cyclic_pool):
        pool = [(inst, _worst_tree(inst)) for inst in small_pool + medium_pool[:60]]
        entries = unique = mixed = 0
        for inst, start in pool + cyclic_pool:
            idx = inst._index
            ev = ExactEvaluator(inst)
            _, fmask = start_state(inst, None, start)
            ev.expected_rf(fmask, start.mask)
            for (f, _), (_, _, final) in ev._memo.items():
                _, tmask, dist, is_unique = _direct_optimum(idx, f)
                ends = _end_trees(final)
                assert sum(ends.values()) == 1
                for tree in ends:
                    assert tree & ~f == 0
                    assert idx.tree_distances(tree) == dist
                if is_unique:
                    assert final == tmask
                    unique += 1
                mixed += len(ends) > 1
                entries += 1
        assert 0 < unique < entries and mixed


class TestFullSolveCount:
    """Pins how much work exact rf does.  Each evaluator solves the whole
    instance once, by Bellman-Ford, for the distances that tell which
    edges are dead at a tree.  The loop reads the optimum of F minus e
    off the tree where the recursion from (F minus e, B) ends, so no
    facet subset is solved or asked of the subset oracle
    ExactEvaluator.optimal, zero-cost cycles included."""

    def test_errata_from_001(self, errata, enc, monkeypatch):
        # the loop asks about 11 facet subsets and solves none
        solved = _solved_masks(monkeypatch)
        assert expected_pivots_rf(errata, None, enc.tree("001")) == Fraction(7, 3)
        assert solved == [errata._index.full_mask]

    def test_generic_cyclic_pool_never_asks_for_a_subset(self, cyclic_pool, monkeypatch):
        generic = [(inst, start) for inst, start in cyclic_pool if genericity_check(inst)]
        assert any(has_zero_cost_cycle(inst) for inst, _ in generic)
        solved = _solved_masks(monkeypatch)
        asked = count_calls(monkeypatch, ExactEvaluator, "optimal")
        for inst, start in generic:
            expected_pivots_rf(inst, None, start)
        assert solved == [inst._index.full_mask for inst, _ in generic]
        assert asked[0] == 0

    def test_only_full_solves_list_their_facet_subsets(self, errata, enc, monkeypatch):
        # the recursion walks F minus B by bits; only a solve asks
        # edge_bits for a list of its edges, here the whole instance's
        start = enc.tree("001")
        _, fmask = start_state(errata, None, start)
        calls = count_calls(monkeypatch, _Index, "edge_bits")
        assert ExactEvaluator(errata).expected_rf(fmask, start.mask) == Fraction(7, 3)
        assert calls[0] == 1

    def test_random_instance(self, monkeypatch):
        # m=8; the loop asks about 3 facet subsets and solves none
        inst = random_instance(4, 2, 9, 2)
        solved = _solved_masks(monkeypatch)
        assert expected_pivots_rf(inst, None, _worst_tree(inst)) == 2
        assert solved == [inst._index.full_mask]

    def test_errata_memo_states(self, errata, enc):
        for bits, states, value in (("001", 18, Fraction(7, 3)), ("111", 20, Fraction(11, 3))):
            start = enc.tree(bits)
            _, fmask = start_state(errata, None, start)
            ev = ExactEvaluator(errata)
            assert ev.expected_rf(fmask, start.mask) == value
            assert len(ev._memo) == states


class TestExpectedPivotsRfStar:
    def test_errata_from_001(self, errata, enc):
        assert expected_pivots_rf_star(errata, None, enc.tree("001")) == Fraction(29, 12)

    def test_errata_from_111(self, errata, enc):
        assert expected_pivots_rf_star(errata, None, enc.tree("111")) == Fraction(43, 12)

    def test_base_case_zero(self, errata, enc):
        tree = enc.tree("011")
        assert expected_pivots_rf_star(errata, tree.edge_ids, tree) == 0

    def test_two_directional_gap(self, errata, enc):
        f001 = expected_pivots_rf(errata, None, enc.tree("001"))
        g001 = expected_pivots_rf_star(errata, None, enc.tree("001"))
        f111 = expected_pivots_rf(errata, None, enc.tree("111"))
        g111 = expected_pivots_rf_star(errata, None, enc.tree("111"))
        assert g001 > f001
        assert g111 < f111


class TestEnumerationLimits:
    """algorithms.branches refuses every exact enumeration: rfstar over
    more than orders.MAX_UNIVERSE facets before any run, and either rule
    once its executions pass algorithms.EXECUTION_BUDGET."""

    def test_errata_fits_its_own_history_count(self, errata, enc, monkeypatch):
        # exact rfstar from 001 walks 8 histories
        monkeypatch.setattr(algorithms, "EXECUTION_BUDGET", 8)
        assert expected_pivots_rf_star(errata, None, enc.tree("001")) == Fraction(29, 12)
        monkeypatch.setattr(algorithms, "EXECUTION_BUDGET", 7)
        with pytest.raises(EnumerationBoundExceeded) as exc:
            expected_pivots_rf_star(errata, None, enc.tree("001"))
        assert "more than 7 executions" in str(exc.value)
        assert "Monte Carlo" in str(exc.value)

    def test_universe_cap_refuses_before_any_run(self, monkeypatch):
        # 13 live facets cannot be weighed (orders.MAX_UNIVERSE is 12)
        def no_runs(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(algorithms, "steps", no_runs)
        fan = Instance.build("t", [Edge(i, "v", "t", i + 1) for i in range(13)])
        start = TreePolicy({"v": 12})
        with pytest.raises(EnumerationBoundExceeded, match="^13 facets exceed the 12"):
            expected_pivots_rf_star(fan, None, start)
        with pytest.raises(EnumerationBoundExceeded, match="^13 facets exceed the 12"):
            comptree(fan, None, start, RF_STAR)

    def test_budget_refuses_a_start_the_cap_admits(self, monkeypatch):
        # m = 12 from the first-edge start, all 12 edges live: the walk
        # passes the default budget of 50 000 histories (about 4-6 s), so
        # a lowered budget shows the same refusal sooner
        monkeypatch.setattr(algorithms, "EXECUTION_BUDGET", 5_000)
        inst = random_instance(4, 3, 9, 3, require_generic=False)
        start = TreePolicy({v: es[0].id for v, es in inst.out_edges.items() if es})
        live = inst._index.full_mask & ~ExactEvaluator(inst).dead(start.mask)
        assert inst.m == live.bit_count() == 12
        with pytest.raises(EnumerationBoundExceeded, match="more than 5000 executions"):
            expected_pivots_rf_star(inst, None, start)

    def test_default_budget_answers_a_3_out_start(self):
        # m = 12 from the last-edge start, 11 edges live there: 7 288
        # histories when each pause drops the edges dead at its tree before
        # listing its answers, 95 052 (over the default budget) when forks
        # still listed them
        inst = random_instance(4, 3, 9, 0, require_generic=False)
        start = TreePolicy({v: es[-1].id for v, es in inst.out_edges.items() if es})
        assert expected_pivots_rf_star(inst, None, start) == Fraction(21, 4)


class TestHistoryEnumeration:
    def test_errata_history_counts(self, errata, enc, monkeypatch):
        # no edge is dead at either start; exact rfstar drops edges as they
        # die along the run, before each fork lists its answers, and weighs
        # each of its histories once
        weighed = count_calls(monkeypatch, algorithms, "_count_orders")
        for bits, histories, pruned in (("001", 36, 8), ("111", 82, 8)):
            start = enc.tree(bits)
            idx, fmask = start_state(errata, None, start)
            segments = branches(idx, fmask, start.mask, RF_STAR)
            weights = [w for w, _ in executions(segments)]
            assert len(weights) == histories
            assert sum(weights) == math.factorial(6)
            weights = [w for w, _ in _rfstar_histories(errata, start, True)]
            assert len(weights) == pruned
            assert sum(weights) == math.factorial(6)
            before = weighed[0]
            expected_pivots_rf_star(errata, None, start)
            assert weighed[0] - before == pruned

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
            idx, fmask = start_state(inst, None, start)
            segments = branches(idx, fmask, start.mask, RF_STAR)
            weights = [w for w, _ in executions(segments)]
            assert sum(weights) == math.factorial(inst.m)
            orders = rfstar_by_permutations(inst, None, start)
            total = math.factorial(inst.m)
            assert sum(orders.values()) == total
            expected = Fraction(sum(k * n for k, n in orders.items()), total)
            assert expected_pivots_rf_star(inst, None, start) == expected
            pmf = {k: Fraction(n, total) for k, n in orders.items()}
            assert comptree(inst, None, start, RF_STAR).leaf_distribution() == pmf

    def test_history_weights_match_permutations(self, errata, enc, small_pool, cyclic_pool,
                                                monkeypatch):
        # each argmin history, named by its pick sequence, weighs exactly
        # the orders whose runs make those picks; an answer that is the
        # only one allowed hands back the history itself, since closing
        # every mask over it, as the other answers are closed, changes
        # nothing (checked on rf's walk too)
        real, forced = algorithms._answers, [0]

        def checked(hist, cands):
            options = real(hist, cands)
            if len(options) == 1:
                (e, after), = options
                assert after is hist
                before, rest = hist[0], sum(1 << c for c in cands) & ~(1 << e)
                if before is not None:
                    below = before[e] | 1 << e
                    closed = {y: b | below if (b | 1 << y) & rest else b
                              for y, b in before.items()}
                    assert closed == before
                forced[0] += 1
            return options

        monkeypatch.setattr(algorithms, "_answers", checked)
        cases = [(errata, enc.tree(bits)) for bits in all_bits(enc)]
        cases += [(inst, _worst_tree(inst)) for inst in small_pool]
        cases += [(inst, start) for inst, start in cyclic_pool if inst.m <= 6]
        picks = 0
        for inst, start in cases:
            idx, fmask = start_state(inst, None, start)
            for _ in branches(idx, fmask, start.mask, RF):
                pass
            segments = branches(idx, fmask, start.mask, RF_STAR)
            weights = {
                pick_sequence(events): weight for weight, events in executions(segments)
            }
            assert weights == dict(rfstar_histories_by_permutations(inst, None, start))
            picks += sum(map(len, weights))
        assert picks and forced[0]  # histories have picks, and some were forced


class TestPruningAlongTheRun:
    """Exact rfstar drops edges as they die: each pause clears the edges
    dead at its tree, before its answers are listed, from the facet mask
    and from every pending frame's facets, picks and pick mask, while the
    weights still count orders of the start's live edges."""

    def test_matches_the_unpruned_walk_on_the_pools(self):
        # both starts of random_instance(2..4, 2, 9, 0..24), up to m = 8;
        # a frame that keeps a dead pick it no longer has in its facets
        # hands it back as a candidate outside F, which first shows here
        pruned = 0
        for n in (2, 3, 4):
            for seed in range(25):
                inst = random_instance(n, 2, 9, seed, require_generic=False)
                for at in (0, -1):
                    start = TreePolicy({v: es[at].id for v, es in inst.out_edges.items() if es})
                    got = expected_pivots_rf_star(inst, None, start)
                    assert got == _unpruned_rfstar_mean(inst, start)
                    pruned += len(_rfstar_histories(inst, start, True)) < len(
                        _rfstar_histories(inst, start, False))
        assert pruned

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (1, 4), (4, 2)]),
        st.integers(0, 3),
        st.integers(0, 10**6),
    )
    def test_matches_the_unpruned_walk_on_cyclic_shapes(self, seed, shape, cost_bound, pick):
        # any real tree as the start; zero-cost cycles and ties included
        inst, _ = cyclic_instance(*shape, cost_bound=cost_bound, seed=seed)
        trees = real_trees(inst)
        start = trees[pick % len(trees)]
        assert expected_pivots_rf_star(inst, None, start) == _unpruned_rfstar_mean(inst, start)
        weights = [w for w, _ in _rfstar_histories(inst, start, True)]
        live = inst._index.full_mask & ~ExactEvaluator(inst).dead(start.mask)
        assert sum(weights) == math.factorial(live.bit_count())

    def test_pending_frames_drop_dead_edges(self):
        # random_instance(4, 2, 9, 0) from the first-edge start, m = 8, no
        # edge dead there: 1 448 histories unpruned, 24 pruned
        inst = random_instance(4, 2, 9, 0, require_generic=False)
        start = TreePolicy({v: es[0].id for v, es in inst.out_edges.items() if es})
        assert len(_rfstar_histories(inst, start, False)) == 1448
        assert len(_rfstar_histories(inst, start, True)) == 24

    def test_pending_frames_drop_dead_edges_before_resuming(self, monkeypatch):
        # random_instance(4, 2, 9, 13) from the first-edge start: dead
        # edges kept in the pending frames change no history and no value,
        # only the walk's work, 94 steps calls against 90
        inst = random_instance(4, 2, 9, 13, require_generic=False)
        start = TreePolicy({v: es[0].id for v, es in inst.out_edges.items() if es})
        calls = count_calls(monkeypatch, algorithms, "steps")
        assert expected_pivots_rf_star(inst, None, start) == 3
        assert calls[0] == 90

    def test_universe_cap_counts_live_edges(self):
        # m = 14 from the first-edge start, 4 edges dead there: the walk
        # over the 10 live edges that drops nothing more takes 36
        # histories (6 pruned along the run)
        inst = random_instance(7, 2, 9, 1, require_generic=False)
        start = TreePolicy({v: es[0].id for v, es in inst.out_edges.items() if es})
        assert inst.m == 14
        live = inst._index.full_mask & ~ExactEvaluator(inst).dead(start.mask)
        assert live.bit_count() == 10
        assert len(_rfstar_histories(inst, start, False)) == 36
        assert len(_rfstar_histories(inst, start, True)) == 6
        expected = _unpruned_rfstar_mean(inst, start, live)
        assert expected_pivots_rf_star(inst, None, start) == expected == 3
        # m = 14 with 12 live edges: more edges than the cap, but only the
        # live ones are weighed
        inst = random_instance(7, 2, 9, 5, require_generic=False)
        start = TreePolicy({v: es[0].id for v, es in inst.out_edges.items() if es})
        live = inst._index.full_mask & ~ExactEvaluator(inst).dead(start.mask)
        assert (inst.m, live.bit_count()) == (14, 12)
        assert expected_pivots_rf_star(inst, None, start) == Fraction(19, 4)


class TestSubsetArguments:
    def test_tree_outside_facets_rejected(self, errata, enc, names):
        with pytest.raises(ValueError):
            expected_pivots_rf(errata, errata.all_edges() - {names["z1"]}, enc.tree("001"))
        fmask = errata._index.full_mask & ~(1 << names["z1"])
        with pytest.raises(ValueError):
            ExactEvaluator(errata).expected_rf(fmask, enc.tree("001").mask)

    def test_facet_mask_outside_the_instance_rejected(self, errata, enc):
        # an edge id past the last one, and -1, whose bits never end
        ev = ExactEvaluator(errata)
        start = enc.tree("001").mask
        for fmask in (errata._index.full_mask | 1 << errata.m, -1):
            with pytest.raises(ValueError, match="not in the instance"):
                ev.expected_rf(fmask, start)

    def test_restricting_to_a_face(self, errata, enc, names):
        # within the face that forces z1, the optimum is 011
        face = errata.all_edges() - {names["z0"]}
        assert expected_pivots_rf(errata, face, enc.tree("011")) == 0
        assert expected_pivots_rf_star(errata, face, enc.tree("011")) == 0


def _same_outcome(inst, start):
    """Check the engine's rf against an oracle; True iff the subset-solving one refused."""
    got = expected_pivots_rf(inst, None, start)
    try:
        want = rf_expectation_by_subset_solves(inst, None, start)
    except NonGenericInstance:
        if inst.m <= 8:
            assert got == rf_expectation_by_branches(inst, None, start)
        return True
    assert got == want
    return False


def _end_trees(final):
    """An rf memo entry's end trees as {tree mask: probability}."""
    return final if isinstance(final, dict) else {final: 1}


def _rfstar_histories(inst, start, pruned):
    """Executions of the rfstar walk over the edges live at the start,
    dropping edges as they die along the run if `pruned`."""
    ev = ExactEvaluator(inst)
    idx, fmask = start_state(inst, None, start)
    fmask &= ~ev.dead(start.mask)
    dead = ev.dead if pruned else None
    return list(executions(branches(idx, fmask, start.mask, RF_STAR, dead)))


def _unpruned_rfstar_mean(inst, start, fmask=None):
    """rfstar's mean over the walk on fmask (default all of F) that drops nothing."""
    idx, full = start_state(inst, None, start)
    fmask = full if fmask is None else fmask
    runs = list(executions(branches(idx, fmask, start.mask, RF_STAR)))
    total = math.factorial(fmask.bit_count())
    assert sum(w for w, _ in runs) == total
    pivots = sum(w * sum(1 for ev in events if ev[0] == "pivot") for w, events in runs)
    return Fraction(pivots, total)


def _worst_tree(inst):
    return TreePolicy({v: es[-1].id for v, es in inst.out_edges.items() if es})


def _direct_optimum(idx, fmask):
    """(choice, tree mask, distances, unique) by Bellman-Ford; None without a tree."""
    try:
        dist, tight = idx.subgraph_shortest(fmask)
    except NoTreeInSubset:
        return None
    choice = idx.resolve_tree(tight)
    tmask = sum(1 << eid for eid in choice)
    others = sum(1 << eid for edges in tight for eid in edges) & ~tmask
    return choice, tmask, dist, idx.count_optimal_trees(others, choice) == 1


def _solved_masks(monkeypatch):
    """The facet masks _Index.subgraph_shortest solves from now to the end of the test."""
    solved = []
    original = _Index.subgraph_shortest

    def recording(idx, fmask):
        solved.append(fmask)
        return original(idx, fmask)

    monkeypatch.setattr(_Index, "subgraph_shortest", recording)
    return solved
