import collections
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randomfacet import (
    DanglingVertex,
    Edge,
    ExactEvaluator,
    Instance,
    NegativeCycle,
    NoTreeInSubset,
    NotATree,
    NotImproving,
    Permutation,
    RF,
    RandomFacetError,
    TargetHasOutEdges,
    TreePolicy,
    comptree,
    edge_names,
    expected_pivots_rf,
    expected_pivots_rf_star,
    genericity_check,
    improves,
    optimal_is_unique,
    optimal_tree,
    pivot,
    pivot_samples,
    run_random_facet,
    run_random_facet_star,
    subgraph_distances,
    tree_distances,
    validate_instance,
)
from randomfacet.graph import _Index, facet_mask
from helpers import (
    all_bits,
    cyclic_instance,
    deadline,
    has_zero_cost_cycle,
    optima_by_real_trees,
    real_trees,
    validate_by_vertex_names,
)


def one_vertex():
    # e0 cheap, e1 expensive, both v -> t
    return Instance.build("t", [Edge(0, "v", "t", 0), Edge(1, "v", "t", 5)])


class TestValidate:
    def test_errata_fixture_is_valid(self, errata):
        assert validate_instance(errata) is errata

    def test_negative_self_loop(self):
        inst = Instance.build("t", [Edge(0, "v", "v", -1), Edge(1, "v", "t", 0)])
        with pytest.raises(NegativeCycle) as exc:
            validate_instance(inst)
        assert exc.value.cycle == ["v"]

    def test_negative_two_cycle_witness(self):
        inst = Instance.build(
            "t",
            [Edge(0, "a", "b", -3), Edge(1, "b", "a", 1), Edge(2, "a", "t", 0), Edge(3, "b", "t", 0)],
        )
        with pytest.raises(NegativeCycle) as exc:
            validate_instance(inst)
        assert set(exc.value.cycle) == {"a", "b"}

    def test_dangling_vertex(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 1)], extra_vertices=["lonely"])
        with pytest.raises(DanglingVertex):
            validate_instance(inst)

    def test_target_with_out_edge(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 1), Edge(1, "t", "v", 1)])
        with pytest.raises(TargetHasOutEdges):
            validate_instance(inst)

    def test_duplicate_ids_rejected_at_build(self):
        with pytest.raises(ValueError):
            Instance.build("t", [Edge(0, "v", "t", 1), Edge(0, "v", "t", 2)])

    def test_zero_cost_cycle_is_allowed(self):
        inst = Instance.build(
            "t",
            [Edge(0, "a", "b", 1), Edge(1, "b", "a", -1), Edge(2, "a", "t", 0), Edge(3, "b", "t", 0)],
        )
        assert validate_instance(inst) is inst

    def test_negative_cycle_that_cannot_reach_the_target(self):
        # relaxing from the target alone would never reach a or b
        inst = Instance.build("t", [Edge(0, "a", "b", -3), Edge(1, "b", "a", 1), Edge(2, "c", "t", 0)])
        with pytest.raises(NegativeCycle, match="^negative-cost cycle: a -> b$") as exc:
            validate_instance(inst)
        assert exc.value.cycle == ["a", "b"]

    def test_dangling_vertex_is_reported_before_a_target_out_edge(self):
        inst = Instance.build(
            "t", [Edge(0, "v", "t", 1), Edge(1, "t", "v", 1)], extra_vertices=["lonely"]
        )
        with pytest.raises(DanglingVertex, match="'lonely'"):
            validate_instance(inst)

    def test_agrees_with_the_vertex_name_oracle_on_random_graphs(self):
        # same instance back, or the same error type, message and witness
        def outcome(check, inst):
            try:
                return check(inst)
            except RandomFacetError as exc:
                return type(exc), str(exc), getattr(exc, "cycle", None)

        rng = random.Random(18)
        seen = collections.Counter()
        for _ in range(2000):
            names = [f"v{i}" for i in range(rng.randint(1, 5))]
            edges = []
            for eid in range(rng.randint(1, 11)):
                tail = names[eid] if eid < len(names) else rng.choice(names)
                if rng.random() < 0.02:
                    tail = "t"
                edges.append(Edge(eid, tail, rng.choice(names + ["t"]), rng.randint(-4, 4)))
            inst = Instance.build("t", edges, ["lonely"] if rng.random() < 0.05 else ())
            got = outcome(validate_instance, inst)
            assert got == outcome(validate_by_vertex_names, inst)
            seen["ok" if got is inst else got[0].__name__] += 1
            if got is not inst and got[2] and len(got[2]) > 1:
                seen["witness of two or more"] += 1
        assert min(seen.values()) >= 100 and len(seen) == 5, seen


class TestTreeDistances:
    def test_single_edge(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 5)])
        assert tree_distances(inst, TreePolicy({"v": 0})) == {"v": 5, "t": 0}

    def test_two_edge_chain(self):
        inst = Instance.build("t", [Edge(0, "u", "v", 2), Edge(1, "v", "t", 3)])
        assert tree_distances(inst, TreePolicy({"u": 0, "v": 1})) == {"u": 5, "v": 3, "t": 0}

    def test_recurrence_holds_everywhere(self, medium_pool):
        for inst in medium_pool[:40]:
            tree = optimal_tree(inst)
            d = tree_distances(inst, tree)
            for v, eid in tree.choices.items():
                e = inst.edge(eid)
                assert d[v] == e.cost + d[e.head]

    def test_cyclic_policy_rejected(self):
        inst = Instance.build(
            "t",
            [Edge(0, "a", "b", 1), Edge(1, "b", "a", 1), Edge(2, "a", "t", 0), Edge(3, "b", "t", 0)],
        )
        with pytest.raises(NotATree):
            tree_distances(inst, TreePolicy({"a": 0, "b": 1}))

    def test_every_mask_of_the_cyclic_pool_against_bellman_ford(self, cyclic_pool):
        # a real tree's distances are the Bellman-Ford distances of the
        # subgraph of its own edges; every other mask has none
        seen = collections.Counter()
        for inst, _ in cyclic_pool:
            if inst.m > 8:
                continue
            idx = _Index(inst)
            trees = {tree.mask for tree in real_trees(inst)}
            for mask in range(1 << inst.m):
                got = idx.tree_distances(mask)
                if mask in trees:
                    assert got == idx.subgraph_shortest(mask)[0]
                    seen["tree"] += 1
                    continue
                assert got is None
                tails = [idx.tail[e] for e in range(inst.m) if mask >> e & 1]
                if len(set(tails)) < len(tails):
                    seen["two edges at one tail"] += 1
                elif len(tails) < inst.n:
                    seen["uncovered vertex"] += 1
                else:
                    seen["cycle", has_zero_cost_cycle(_subgraph(inst, mask))] += 1
        assert len(seen) == 5 and min(seen.values()) >= 20, seen

    def test_every_mask_of_the_cyclic_pool_against_its_chains(self, cyclic_pool):
        # a mask is a tree iff it picks one edge per vertex and n steps
        # along the picks lead every vertex to the target; then the target
        # reads 0 and each picked edge's tail reads its cost plus its head
        seen = collections.Counter()
        for inst, _ in cyclic_pool:
            if inst.m > 8:
                continue
            idx = _Index(inst)
            for mask in range(1 << inst.m):
                picked = [inst.edge(e) for e in range(inst.m) if mask >> e & 1]
                pick = {e.tail: e for e in picked}
                kind = "tree" if len(pick) == len(picked) == inst.n else "not one per vertex"
                if kind == "tree":
                    for w in pick:
                        for _ in range(inst.n):
                            w = pick[w].head if w != inst.target else w
                        if w != inst.target:
                            kind = "cycle"
                seen[kind] += 1
                got = idx.tree_distances(mask)
                if kind != "tree":
                    assert got is None
                    continue
                d = dict(zip(idx.order + [inst.target], got))
                assert d[inst.target] == 0
                assert all(d[e.tail] == e.cost + d[e.head] for e in picked)
        assert len(seen) == 3 and min(seen.values()) >= 100, seen

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (1, 4), (3, 3), (4, 2)]),
        st.integers(0, 3),
    )
    @example(3, (3, 3), 1)  # zero-cost cycles, 12 real trees
    def test_split_from_the_parent_equals_the_split_from_scratch(self, seed, shape, cost_bound):
        # every real tree T with any edge e swapped in at e's tail: the
        # split through via=(T, e) equals the split from scratch when the
        # swap leaves a real tree, and raises NoTreeInSubset, with the
        # same message, when it closes a cycle (a self-loop included)
        inst, _ = cyclic_instance(*shape, cost_bound=cost_bound, seed=seed)
        trees = {tree.mask for tree in real_trees(inst)}
        scratch = _Index(inst)
        for parent in trees:
            for e in range(inst.m):
                idx = _Index(inst)
                idx.tree_split(parent)
                mask = (parent & ~idx.at_tail[e]) | 1 << e
                if mask in trees:
                    split = idx.tree_split(mask, (parent, e))
                    assert split == idx.splits[mask] == scratch.tree_split(mask)
                    continue
                with pytest.raises(NoTreeInSubset) as via:
                    idx.tree_split(mask, (parent, e))
                with pytest.raises(NoTreeInSubset) as fresh:
                    scratch.tree_split(mask)
                assert str(via.value) == str(fresh.value)
                assert mask not in idx.splits

    def test_errata_tree_000_is_pointwise_minimal(self, errata, enc):
        # brute force over all 2^3 trees
        best = tree_distances(errata, enc.tree("000"))
        for bits in all_bits(enc):
            d = tree_distances(errata, enc.tree(bits))
            assert all(best[v] <= d[v] for v in d)


class TestImproves:
    def test_own_choice_never_improves(self):
        inst = one_vertex()
        assert not improves(inst, TreePolicy({"v": 1}), 1)

    def test_cheaper_parallel_edge_improves(self):
        inst = one_vertex()
        assert improves(inst, TreePolicy({"v": 1}), 0)

    def test_equal_cost_tie_is_not_improvement(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 5), Edge(1, "v", "t", 5)])
        assert not improves(inst, TreePolicy({"v": 1}), 0)
        assert not improves(inst, TreePolicy({"v": 0}), 1)

    def test_unknown_edge_id_refused(self, errata, enc):
        # a negative id used to index from the end and answer for edge 5
        with pytest.raises(ValueError, match="unknown edge id -1"):
            improves(errata, enc.tree("001"), -1)


class TestPivot:
    def test_one_vertex_exchange(self):
        inst = one_vertex()
        assert pivot(inst, TreePolicy({"v": 1}), 0) == TreePolicy({"v": 0})

    def test_errata_001_pivot_z0_gives_000(self, errata, enc, names):
        assert pivot(errata, enc.tree("001"), names["z0"]) == enc.tree("000")

    def test_not_improving_raises(self):
        inst = one_vertex()
        with pytest.raises(NotImproving):
            pivot(inst, TreePolicy({"v": 0}), 1)

    def test_unknown_edge_id_refused(self, errata, enc):
        with pytest.raises(ValueError, match="unknown edge id -2"):
            pivot(errata, enc.tree("001"), -2)

    def test_pivot_weakly_decreases_all_distances(self, medium_pool):
        # strict at the entering edge's tail, weak everywhere else
        for inst in medium_pool:
            tree = optimal_tree(inst)
            # walk upward: find any non-optimal tree by swapping one choice
            for e in inst.edges:
                base = tree.choices
                if base[e.tail] == e.id:
                    continue
                worse = TreePolicy({**base, e.tail: e.id})
                try:
                    d_before = tree_distances(inst, worse)
                except NotATree:
                    continue
                old = base[e.tail]
                if not improves(inst, worse, old):
                    continue
                better = pivot(inst, worse, old)
                d_after = tree_distances(inst, better)
                assert all(d_after[v] <= d_before[v] for v in d_before)
                assert d_after[inst.edge(old).tail] < d_before[inst.edge(old).tail]


class TestOptimalTree:
    def test_facets_equal_tree_returns_it(self, errata, enc):
        for bits in ("000", "101", "110"):
            tree = enc.tree(bits)
            assert optimal_tree(errata, tree.edge_ids) == tree

    def test_errata_full_set_gives_000(self, errata, enc):
        assert optimal_tree(errata) == enc.tree("000")

    def test_matches_brute_force_on_small_instances(self, small_pool):
        import itertools

        for inst in small_pool:
            best = optimal_tree(inst)
            d_best = tree_distances(inst, best)
            combos = itertools.product(
                *[[e.id for e in inst.out_edges[v]] for v in sorted(inst.vertices) if v != inst.target]
            )
            for combo in combos:
                tree = TreePolicy.from_edge_ids(inst, combo)
                try:
                    d = tree_distances(inst, tree)
                except NotATree:
                    continue
                assert all(d_best[v] <= d[v] for v in d)

    def test_no_tree_in_subset(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 0), Edge(1, "v", "t", 5)])
        with pytest.raises(NoTreeInSubset):
            optimal_tree(inst, frozenset())

    def test_unvalidated_negative_cycle_raises_instead_of_hanging(self):
        # Instance.build does not validate: x and y close a cycle of cost
        # -2, Bellman-Ford stops after n rounds without converging and x
        # is left with no tight edge, so resolve_tree's guard ends the solve;
        # the genericity check solves nothing and no tree has a tight edge
        inst = Instance.build(
            "t",
            [Edge(0, "x", "y", -1), Edge(1, "y", "x", -1), Edge(2, "x", "t", 0), Edge(3, "y", "t", 0)],
        )
        with deadline(10):
            with pytest.raises(NoTreeInSubset):
                optimal_tree(inst)
            with pytest.raises(NoTreeInSubset):
                ExactEvaluator(inst).optimal(facet_mask(inst, None))
            assert genericity_check(inst)

    def test_unvalidated_negative_cycle_pivot_is_refused_by_every_engine(self):
        # from {x->t, y->t} both x->y and y->x improve; pivoting the second
        # of them in closes the cycle of cost -2, a mask that is not a tree,
        # and every engine raises the typed error instead of crashing
        inst = Instance.build(
            "t",
            [Edge(0, "x", "y", -1), Edge(1, "y", "x", -1), Edge(2, "x", "t", 0), Edge(3, "y", "t", 0)],
        )
        start = TreePolicy({"x": 2, "y": 3})
        engines = [
            lambda: run_random_facet(inst, None, start, random.Random(0)),
            lambda: run_random_facet_star(inst, None, start, Permutation.from_order(range(4))),
            lambda: pivot_samples(inst, None, start, RF, 1, 0),
            lambda: expected_pivots_rf(inst, None, start),
            lambda: expected_pivots_rf_star(inst, None, start),
            lambda: comptree(inst, None, start, RF),
        ]
        with deadline(10):
            for engine in engines:
                with pytest.raises(NoTreeInSubset):
                    engine()

    def test_unvalidated_edge_out_of_the_target_is_refused(self):
        # the edge t->v would overwrite the target's distance slot; {v: 0}
        # is a tree, but every engine refuses the instance before solving
        inst = Instance.build("t", [Edge(0, "v", "t", 5), Edge(1, "t", "v", -100)])
        start = TreePolicy({"v": 0})
        engines = [
            lambda: optimal_tree(inst),
            lambda: subgraph_distances(inst),
            lambda: run_random_facet(inst, None, start, random.Random(0)),
            lambda: expected_pivots_rf(inst, None, start),
            lambda: expected_pivots_rf_star(inst, None, start),
            lambda: pivot_samples(inst, None, start, RF, 1, 0),
        ]
        for engine in engines:
            with pytest.raises(TargetHasOutEdges):
                engine()

    def test_every_subset_of_the_cyclic_pool_against_real_trees(self, cyclic_pool):
        # zero-cost cycles and ties: the optimum of each subset is found
        # again by brute force over the real trees inside it; with every
        # cost 0 every edge is tight and zero-cost cycles are everywhere
        all_zero = [
            cyclic_instance(*shape, cost_bound=0, seed=seed)
            for shape in [(2, 2), (2, 3), (3, 2), (3, 3)]
            for seed in range(3)
        ]
        for inst, _ in cyclic_pool + all_zero:
            order = inst._index.order
            for fmask, optimum in optima_by_real_trees(inst).items():
                facets = [e for e in range(inst.m) if fmask >> e & 1]
                if optimum is None:
                    for oracle in (optimal_tree, optimal_is_unique, subgraph_distances):
                        with pytest.raises(NoTreeInSubset):
                            oracle(inst, facets)
                    continue
                dist, best = optimum
                assert optimal_tree(inst, facets) in best
                assert optimal_is_unique(inst, facets) == (len(best) == 1)
                assert subgraph_distances(inst, facets) == {**dict(zip(order, dist)), inst.target: 0}

    def test_minimal_within_every_facet_subset(self, errata, small_pool):
        # enumerate all subsets containing a tree; the oracle's distances
        # must be pointwise minimal over every tree inside the subset
        import itertools

        for inst in [errata, *small_pool[:6]]:
            universe = sorted(inst.all_edges())
            for r in range(1, len(universe) + 1):
                for combo in itertools.combinations(universe, r):
                    F = frozenset(combo)
                    try:
                        best = optimal_tree(inst, F)
                    except NoTreeInSubset:
                        continue
                    d_best = tree_distances(inst, best)
                    assert best.edge_ids <= F
                    for tree, d in _trees_within(inst, F):
                        assert all(d_best[v] <= d[v] for v in d)

    def test_subgraph_distances_match_the_optimal_tree(self, medium_pool):
        for inst in medium_pool[:20]:
            assert subgraph_distances(inst) == tree_distances(inst, optimal_tree(inst))

    def test_unique_detection(self):
        tied = Instance.build("t", [Edge(0, "v", "t", 3), Edge(1, "v", "t", 3)])
        assert not optimal_is_unique(tied)
        assert optimal_is_unique(one_vertex())

    def test_zero_cost_cycle_is_not_a_second_optimum(self):
        # x->y and y->x are both tight at cost 0 but close a cycle, so the
        # one optimal tree is x->t, y->x
        inst = Instance.build(
            "t",
            [Edge(0, "x", "y", 0), Edge(1, "x", "t", 1), Edge(2, "y", "x", 0), Edge(3, "y", "t", 2)],
        )
        assert optimal_is_unique(inst)
        assert optimal_tree(inst) == TreePolicy({"x": 1, "y": 2})
        assert genericity_check(inst)


def _subgraph(inst, mask):
    """The edges of mask as an instance of their own, ids renumbered."""
    edges = [e for e in inst.edges if mask >> e.id & 1]
    return Instance.build(
        inst.target, [Edge(k, e.tail, e.head, e.cost) for k, e in enumerate(edges)]
    )


def _trees_within(inst, F):
    import itertools

    per_vertex = [
        [e.id for e in inst.out_edges[v] if e.id in F]
        for v in sorted(inst.vertices)
        if v != inst.target
    ]
    for combo in itertools.product(*per_vertex):
        tree = TreePolicy.from_edge_ids(inst, combo)
        try:
            yield tree, tree_distances(inst, tree)
        except NotATree:
            continue


class TestTreePolicyFromEdgeIds:
    def test_two_edges_leaving_one_vertex(self):
        with pytest.raises(ValueError, match="two chosen edges leave vertex 'v'"):
            TreePolicy.from_edge_ids(one_vertex(), [0, 1])

    def test_missing_vertex(self, errata):
        with pytest.raises(ValueError, match=r"no chosen edge for vertices \['y', 'z'\]"):
            TreePolicy.from_edge_ids(errata, [0])

    def test_unknown_edge_id(self, errata):
        with pytest.raises(ValueError, match="unknown edge id 6"):
            TreePolicy.from_edge_ids(errata, [0, 2, 6])

    def test_two_vertices_on_one_edge_id(self):
        with pytest.raises(ValueError, match="maps two vertices to the same edge id"):
            TreePolicy({"x": 0, "y": 0})

    def test_repr_lists_choices_by_vertex(self):
        assert repr(TreePolicy({"y": 3, "x": 0})) == "TreePolicy(x->0, y->3)"

    def test_equality_with_another_type_is_not_implemented(self):
        tree = TreePolicy({"v": 1})
        assert tree.__eq__({"v": 1}) is NotImplemented
        assert tree != {"v": 1}
        assert tree == TreePolicy({"v": 1})


class TestFacetMask:
    def test_unknown_id(self, errata):
        with pytest.raises(ValueError, match="unknown edge id 6"):
            facet_mask(errata, [0, 6])


class TestEdgeNames:
    def test_errata_names(self, errata, names):
        assert names == {"x0": 0, "x1": 1, "y0": 2, "y1": 3, "z0": 4, "z1": 5}

    def test_edge_out_of_the_target_is_refused(self):
        # an unvalidated instance; the names come from the same index as every engine
        inst = Instance.build("t", [Edge(0, "v", "t", 1), Edge(1, "t", "v", 1)])
        with pytest.raises(TargetHasOutEdges, match=r"^target 't' has outgoing edges \[1\]$"):
            edge_names(inst)

    def test_colliding_names_give_no_names(self):
        # x's eleventh edge and x1's first would both be x10
        edges = [Edge(i, "x", "t", i) for i in range(11)] + [Edge(11, "x1", "t", 0)]
        assert edge_names(Instance.build("t", edges)) == {}

    def test_names_cover_all_edges(self, medium_pool):
        for inst in medium_pool[:10]:
            nm = edge_names(inst)
            assert sorted(nm.values()) == list(range(inst.m))
