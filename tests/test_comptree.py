import hashlib
import math
from fractions import Fraction

import pytest

from randomfacet import (
    RF,
    RF_STAR,
    EnumerationBoundExceeded,
    Instance,
    TreePolicy,
    comptree,
    edge_names,
    expected_pivots_rf,
    expected_pivots_rf_star,
    loads_instance,
    random_instance,
)
from randomfacet import algorithms
from helpers import count_calls, executions, pick_order_by_paths


@pytest.fixture(scope="module")
def trees_001(errata, enc):
    start = enc.tree("001")
    return {rule: comptree(errata, None, start, rule) for rule in (RF, RF_STAR)}


class TestStructure:
    def test_leaf_probabilities_sum_to_one(self, trees_001):
        for tree in trees_001.values():
            assert sum(p for p, _ in tree.paths()) == 1

    def test_branch_probabilities_sum_to_one_at_every_choice(self, trees_001):
        def walk(node):
            picks = [c for c in node.children if c.kind == "pick"]
            if picks:
                assert len(picks) == len(node.children)
                assert sum(c.prob for c in picks) == 1
            for c in node.children:
                walk(c)

        for tree in trees_001.values():
            walk(tree.root)

    def test_rf_choices_are_uniform(self, trees_001, errata):
        idx = errata._index

        def walk(node):
            picks = [c for c in node.children if c.kind == "pick"]
            for c in picks:
                assert c.prob == Fraction(1, len(picks))
            for c in node.children:
                walk(c)

        walk(trees_001[RF].root)

    def test_rfstar_root_choice_is_uniform(self, trees_001):
        picks = [c for c in trees_001[RF_STAR].root.children if c.kind == "pick"]
        assert len(picks) == 3 and {c.prob for c in picks} == {Fraction(1, 3)}

    def test_leaf_payload_counts_pivots_on_path(self, trees_001):
        for tree in trees_001.values():
            for _, nodes in tree.paths():
                pivots = sum(1 for n in nodes if n.kind == "pivot")
                assert nodes[-1].pivots == pivots


@pytest.fixture(scope="module")
def node_list_trees(errata, enc, medium_pool, cyclic_pool):
    # the cyclic members bring ties and zero-cost cycles
    starts = [(errata, enc.tree(bits)) for bits in ("001", "111")]
    starts += [
        (inst, TreePolicy({v: es[-1].id for v, es in inst.out_edges.items() if es}))
        for inst in medium_pool[:20]
    ]
    starts += [(inst, start) for inst, start in cyclic_pool if inst.m <= 6]
    return [
        (rule, comptree(inst, None, start, rule)) for inst, start in starts for rule in (RF, RF_STAR)
    ]


class TestNodeList:
    def test_nodes_are_the_pre_order_walk(self, node_list_trees):
        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        for _, tree in node_list_trees:
            assert tree.nodes[0] is tree.root and tree.root.parent is None
            assert all(node.parent < i for i, node in enumerate(tree.nodes) if i)
            walked = list(walk(tree.root))
            assert len(walked) == len(tree.nodes)
            assert all(a is b for a, b in zip(walked, tree.nodes))

    def test_children_and_parent_indices_agree(self, node_list_trees):
        for _, tree in node_list_trees:
            nodes = tree.nodes
            for node in nodes:
                assert all(nodes[c.parent] is node for c in node.children)

    def test_masses_and_probabilities(self, node_list_trees):
        forks = 0
        for rule, tree in node_list_trees:
            nodes = tree.nodes
            # each leaf weighs its execution, read off the walk: a probability
            # under rf, an order count of the |F|! under rfstar
            idx, fmask = algorithms.start_state(tree.instance, tree.facets, tree.start)
            weights = [w for w, _ in executions(
                algorithms.branches(idx, fmask, tree.start.mask, rule))]
            total = 1 if rule == RF else math.factorial(len(tree.facets))
            assert tree.root.mass == (
                math.lcm(*(w.denominator for w in weights)) if rule == RF else total)
            assert [Fraction(n.mass, tree.root.mass) for n in nodes if n.kind == "leaf"] == [
                Fraction(w) / total for w in weights]
            assert all(type(n.mass) is int for n in nodes)
            assert tree.root.prob == 1
            for node in nodes:
                if node.children:
                    assert node.mass == sum(c.mass for c in node.children)
                if node.parent is not None:
                    assert node.prob == Fraction(node.mass, nodes[node.parent].mass)
                if node.kind in ("pivot", "leaf"):
                    assert node.prob == 1
                if len(node.children) == 1:
                    assert node.children[0].prob == 1
                elif node.children:  # a fork: its children are picks
                    forks += 1
                    assert {c.kind for c in node.children} == {"pick"}
                    if rule == RF:
                        k = len(node.children)
                        assert all(c.prob == Fraction(1, k) for c in node.children)
        assert forks

    def test_fork_children_with_equal_masses_share_one_probability(self, node_list_trees):
        # to_text renders each probability object once
        shared = dict.fromkeys((RF, RF_STAR), 0)
        for rule, tree in node_list_trees:
            nodes = tree.nodes
            probs = {}
            for node in nodes[1:]:
                parent = nodes[node.parent]
                if len(parent.children) > 1:
                    key = (node.mass, parent.mass)
                    shared[rule] += key in probs
                    assert probs.setdefault(key, node.prob) is node.prob, (rule, key)
        assert all(shared.values()), shared


class TestExpectations:
    def test_rf_weighting_matches_engine(self, errata, enc, trees_001):
        assert trees_001[RF].expectation() == expected_pivots_rf(
            errata, None, enc.tree("001")
        )

    def test_rfstar_weighting_matches_engine(self, errata, enc, trees_001):
        assert trees_001[RF_STAR].expectation() == expected_pivots_rf_star(
            errata, None, enc.tree("001")
        )

    def test_base_case_single_leaf(self, errata, enc):
        tree = enc.tree("101")
        ct = comptree(errata, tree.edge_ids, tree, RF)
        assert len(ct.root.children) == 1
        leaf = ct.root.children[0]
        assert leaf.kind == "leaf" and leaf.prob == 1 and leaf.pivots == 0

    def test_pmf_from_001(self, trees_001):
        # the three pivot paths have lengths 1, 3 and 5
        assert trees_001[RF].leaf_distribution() == {
            1: Fraction(1, 2),
            3: Fraction(1, 3),
            5: Fraction(1, 6),
        }
        assert trees_001[RF_STAR].leaf_distribution() == {
            1: Fraction(1, 2),
            3: Fraction(7, 24),
            5: Fraction(5, 24),
        }


class TestPickOrderAfterPivot:
    def test_rfstar_favors_the_displaced_tree_edge(self, trees_001, names):
        region, dist = trees_001[RF_STAR].pick_order_after_pivot(names["z0"])
        assert region == Fraction(1, 3)
        assert dist == {names["y0"]: Fraction(5, 8), names["x1"]: Fraction(3, 8)}

    def test_rf_is_even(self, trees_001, names):
        region, dist = trees_001[RF].pick_order_after_pivot(names["z0"])
        assert region == Fraction(1, 3)
        assert dist == {names["y0"]: Fraction(1, 2), names["x1"]: Fraction(1, 2)}

    def test_path_class_probability(self, trees_001, names):
        region, dist = trees_001[RF_STAR].pick_order_after_pivot(names["z0"])
        assert region * dist[names["y0"]] == Fraction(5, 24)
        assert region * dist[names["y0"]] == Fraction(150, 720)

    def test_mirrored_from_111(self, errata, enc, names):
        ct = comptree(errata, None, enc.tree("111"), RF_STAR)
        region, dist = ct.pick_order_after_pivot(names["z0"])
        assert region == Fraction(1, 3)
        assert dist[names["x1"]] == Fraction(5, 8)
        assert dist[names["y0"]] == Fraction(3, 8)

    def test_missing_pivot_gives_empty_region(self, trees_001, names):
        region, dist = trees_001[RF].pick_order_after_pivot(names["x0"])
        assert region == 0 and dist == {}

    def test_matches_the_path_oracle_at_every_depth(self, errata, enc):
        # deeper calls can pivot the same edge twice on one path; only
        # the first such pivot conditions the path
        ids = sorted(errata.all_edges())
        for bits in ("001", "011", "111"):
            for rule in (RF, RF_STAR):
                ct = comptree(errata, None, enc.tree(bits), rule)
                for depth in range(4):
                    for edge in ids:
                        for cands in (None, frozenset(ids[::2])):
                            want = pick_order_by_paths(ct, edge, cands, depth)
                            got = ct.pick_order_after_pivot(edge, cands, pivot_depth=depth)
                            assert got == want, (bits, rule, depth, edge, cands)


class TestAgreementOnRandomInstances:
    def test_both_rules_match_engines(self, small_pool):
        for inst in small_pool[:15]:
            start = TreePolicy(
                {v: es[-1].id for v, es in inst.out_edges.items() if es}
            )
            rf = comptree(inst, None, start, RF)
            star = comptree(inst, None, start, RF_STAR)
            assert rf.expectation() == expected_pivots_rf(inst, None, start)
            assert star.expectation() == expected_pivots_rf_star(inst, None, start)


class TestExports:
    def test_text_contains_the_skewed_probability(self, trees_001):
        text = trees_001[RF_STAR].to_text()
        assert "5/8" in text
        assert "# columns: id parent kind label prob pivots" in text.splitlines()[1]

    def test_text_node_lines_are_well_formed(self, trees_001):
        for tree in trees_001.values():
            lines = [l for l in tree.to_text().splitlines() if not l.startswith("#")]
            assert lines[0].split() == ["0", "-", "root", "-", "1/1", "-"]
            ids = set()
            for line in lines:
                nid, parent, kind, label, prob, pivots = line.split()
                ids.add(int(nid))
                assert kind in ("root", "pick", "pivot", "leaf")
                assert "/" in prob
                if parent != "-":
                    assert int(parent) in ids  # parents precede children
                if kind == "leaf":
                    assert pivots.isdigit()
                else:
                    assert pivots == "-"

    def test_rf_probability_denominators_divide_choice_products(self, trees_001):
        # every branch is 1 over the number of candidates at its node
        def walk(node):
            picks = [c for c in node.children if c.kind == "pick"]
            for c in picks:
                assert c.prob.denominator == len(picks)
            for c in node.children:
                walk(c)

        walk(trees_001[RF].root)

    def test_dot_output(self, trees_001):
        dot = trees_001[RF_STAR].to_dot()
        assert dot.startswith("digraph comptree {")
        assert "shape=box" in dot
        assert "1/3" in dot

    @pytest.mark.parametrize("rule", [RF, RF_STAR])
    def test_execution_budget_counts_leaves(self, errata, enc, trees_001, monkeypatch, rule):
        # 190 rf executions and 36 rfstar histories from 001: a budget of
        # exactly the leaves builds the same tree, one fewer refuses it
        nodes = trees_001[rule].nodes
        leaves = sum(node.kind == "leaf" for node in nodes)
        assert leaves == {RF: 190, RF_STAR: 36}[rule]
        monkeypatch.setattr(algorithms, "EXECUTION_BUDGET", leaves)
        assert len(comptree(errata, None, enc.tree("001"), rule).nodes) == len(nodes)
        monkeypatch.setattr(algorithms, "EXECUTION_BUDGET", leaves - 1)
        with pytest.raises(EnumerationBoundExceeded, match=f"more than {leaves - 1} executions"):
            comptree(errata, None, enc.tree("001"), rule)

    def test_default_budget_refuses_a_huge_rf_tree(self):
        # m = 9 from the last-edge start: 2 749 320 rf executions, refused
        # once the walk passes the default budget
        inst = random_instance(3, 3, 9, 7, require_generic=False)
        start = TreePolicy({v: es[-1].id for v, es in inst.out_edges.items() if es})
        assert inst.m == 9
        with pytest.raises(EnumerationBoundExceeded, match="Monte Carlo"):
            comptree(inst, None, start, RF)

    def test_each_transition_runs_steps_once(self, errata, enc, monkeypatch):
        # the walk resumes a pause with one answer up to the next choice
        # point with two or more candidates, and keeps each such transition,
        # so a tree runs steps() once per distinct (pause, answer), the start
        # included: 57 / 92 from 001 / 111 under both rules (348 / 521 for
        # rf and 68 / 157 for rfstar when every fork ran its own resume)
        runs = count_calls(monkeypatch, algorithms, "steps")
        for bits, want in (("001", 57), ("111", 92)):
            for rule in (RF, RF_STAR):
                inst = Instance(errata.target, errata.edges, errata.vertices)  # an empty index
                before = runs[0]
                comptree(inst, None, enc.tree(bits), rule)
                assert runs[0] - before == want

    @pytest.mark.parametrize("rule", [RF, RF_STAR])
    def test_colliding_names_render_decimal_ids(self, rule):
        # x's eleventh edge and x1's first would both be x10, so no edge has
        # a name.  From tree {2, 11} within {0, 1, 2, 11}, the root forks
        # on 0 and 1.  Picking 0 first pivots 1 in, then 0, and forks on 1
        # and 2: uniform under rf; under rfstar 1 precedes 2 in 1/3 of the
        # orders with 0 before 1.  Picking 1 first leaves 0, which pivots in
        # for 2.
        inst = loads_instance(
            "target t\n" + "".join(f"edge {i} x t {i}\n" for i in range(11)) + "edge 11 x1 t 0\n"
        )
        assert edge_names(inst) == {}
        tree = comptree(inst, {0, 1, 2, 11}, TreePolicy.from_edge_ids(inst, [2, 11]), rule)
        second, third = ("1/2", "1/2") if rule == RF else ("1/3", "2/3")
        text = tree.to_text()
        assert text == (
            f"# comptree rule={rule} facets={{0,1,2,11}} tree={{2,11}}\n"
            "# columns: id parent kind label prob pivots\n"
            "0 - root - 1/1 -\n"
            "1 0 pick 0 1/2 -\n"
            "2 1 pick 1 1/1 -\n"
            "3 2 pivot 1:2 1/1 -\n"
            "4 3 pick 2 1/1 -\n"
            "5 4 pivot 0:1 1/1 -\n"
            f"6 5 pick 1 {second} -\n"
            "7 6 pick 2 1/1 -\n"
            "8 7 leaf - 1/1 2\n"
            f"9 5 pick 2 {third} -\n"
            "10 9 pick 1 1/1 -\n"
            "11 10 leaf - 1/1 2\n"
            "12 0 pick 1 1/2 -\n"
            "13 12 pick 0 1/1 -\n"
            "14 13 pivot 0:2 1/1 -\n"
            "15 14 pick 2 1/1 -\n"
            "16 15 leaf - 1/1 1\n"
            "# after-pivot 0 pick 2 = 1/1 (region 1/2)\n"
        )
        # to_dot labels every node with the same ids
        dot = tree.to_dot()
        assert '  n0 [shape=ellipse, label="F\\\\B = {0,1}"];' in dot
        for line in text.splitlines()[3:-1]:
            nid, _, kind, label, prob, pivots = line.split()
            if kind == "pick":
                assert f'  n{nid} [shape=box, label="{label}  {prob}\\nF\\\\B = {{' in dot
            elif kind == "pivot":
                entering, leaving = label.split(":")
                assert f'  n{nid} [shape=diamond, label="pivot {entering} (out {leaving})"];' in dot
            else:
                assert f'  n{nid} [shape=ellipse, label="pivots = {pivots}"];' in dot

    def test_unknown_rule_rejected(self, errata, enc):
        with pytest.raises(ValueError):
            comptree(errata, None, enc.tree("001"), "greedy")


# sha256 of to_text() and to_dot() on the errata start trees and on one
# 8-edge random instance; any refactor of the tree builders must reproduce
# these bytes exactly
GOLDEN = {
    ("001", RF): (
        "726a839742b4873c7d3a011a96a9e1006227dc9c56aaa6c06ae6a3956e6a9513",
        "fa63d63216cbaf8c5f76b37a50ba476afb42e8e37ec9db270603c015e116b4e8",
    ),
    ("001", RF_STAR): (
        "3335927d5985c2fa776e9fff9d9f8fa07adba87aff7a610298553ef6582e8453",
        "1e5a2f29c2e12cce171a0921a08c18f8e8258733d4cdf2d87709489f40484303",
    ),
    ("111", RF): (
        "d70be87f60c3d5d98f67cd9905d0e9c22294c75c8851f71b10daa77dadd91776",
        "66f2a7f11973e556750743cabed33dc3f84a685c1841b538b269ae0c167abb62",
    ),
    ("111", RF_STAR): (
        "0e8d11a00093c08ab74e866ff59bc154944ff7c48818d36b45eda0ba7dc09372",
        "2f9b8e9dcbb923d79c9fdb799642fe606e8d56fc7a01bc46dce34f97ae84f182",
    ),
    ("random-4-2-9-s2", RF): (
        "7992a20ca31304c60772402d1207ce63e464a718a1938eddb277f182eec70a05",
        "bd4f7fc00a1104d16a36cbd4d30d04aab938c000bb1ead3a7d861fa0d6cde533",
    ),
    ("random-4-2-9-s2", RF_STAR): (
        "a8778bfbfbc17a7f5dcbb079c6fa74f55ed6e8e506d7d730b452ba6598fb1656",
        "88463e10031dbb682ca1bc0a3e94877f5d03ede1d5ebb37cc57b7c5bf6de4d08",
    ),
}


@pytest.mark.parametrize("start,rule", sorted(GOLDEN))
def test_golden_renderings(errata, enc, start, rule):
    if start == "random-4-2-9-s2":
        # m=8; the start takes every vertex's last edge
        inst = random_instance(4, 2, 9, seed=2)
        tree = TreePolicy({v: es[-1].id for v, es in inst.out_edges.items() if es})
    else:
        inst, tree = errata, enc.tree(start)
    ct = comptree(inst, None, tree, rule)
    text_sha, dot_sha = GOLDEN[(start, rule)]
    assert hashlib.sha256(ct.to_text().encode()).hexdigest() == text_sha
    assert hashlib.sha256(ct.to_dot().encode()).hexdigest() == dot_sha
