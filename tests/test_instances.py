import collections
import functools
import hashlib
import importlib.resources
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomfacet import (
    Edge,
    ExactEvaluator,
    GenerationFailedAfterRetries,
    Instance,
    ParseError,
    SearchExhausted,
    TooLargeForExhaustiveCheck,
    WriteError,
    derive_errata_instance,
    dumps_instance,
    errata_candidates,
    errata_instance,
    expected_pivots_rf,
    expected_pivots_rf_star,
    genericity_check,
    load_instance,
    loads_instance,
    random_instance,
    save_instance,
    validate_instance,
)
from randomfacet import cube, graph, instances
from randomfacet.instances import (
    ERRATA_EXPECTATIONS,
    ERRATA_PATH_COUNTS,
    FIXTURE_NAME,
    _cube_survivors,
    _matches_reference,
    errata_checks,
)
from helpers import (
    count_calls,
    cyclic_instance,
    generic_by_covering_subsets,
    generic_by_real_trees,
)


class TestParsing:
    def test_round_trip_structurally_identical(self, errata, tmp_path):
        path = tmp_path / "copy.instance"
        save_instance(errata, path)
        again = load_instance(path)
        assert again == errata

    def test_canonical_files_round_trip_bit_exactly(self, errata, tmp_path):
        a = tmp_path / "a.instance"
        b = tmp_path / "b.instance"
        save_instance(errata, a)
        save_instance(load_instance(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_comments_and_blank_lines_accepted(self):
        inst = loads_instance("# header\n\ntarget t\nedge 0 v t 3 # trailing\n")
        assert inst.target == "t"
        assert inst.edges[0].cost == 3

    def test_malformed_cost_names_the_line(self):
        with pytest.raises(ParseError) as exc:
            loads_instance("target t\nedge 0 v t fast\n", source="bad.instance")
        assert exc.value.line == 2
        assert "bad.instance:2" in str(exc.value)

    def test_duplicate_edge_id(self):
        with pytest.raises(ParseError) as exc:
            loads_instance("target t\nedge 0 v t 1\nedge 0 v t 2\n")
        assert "duplicate edge id" in str(exc.value)

    def test_missing_target(self):
        with pytest.raises(ParseError):
            loads_instance("edge 0 v t 1\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            loads_instance("target t\nnode v\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("target t u\nedge 0 v t 1\n", 1, "target line needs exactly one name"),
            ("target t\nedge 0 v t 1\ntarget t\n", 3, "duplicate target line"),
            ("target t\nedge 0 v t\n", 2, "edge line needs id, tail, head and cost"),
            ("target t\nedge zero v t 1\n", 2, "bad edge id 'zero'"),
        ],
    )
    def test_malformed_line_names_source_and_line(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            loads_instance(text, source="bad.instance")
        assert exc.value.line == line
        assert str(exc.value) == f"bad.instance:{line}: {message}"

    def test_non_dense_ids(self):
        with pytest.raises(ParseError):
            loads_instance("target t\nedge 1 v t 1\n")

    def test_write_error_on_directory(self, errata, tmp_path):
        with pytest.raises(WriteError):
            save_instance(errata, tmp_path)


class TestGenericity:
    def test_errata_is_generic(self, errata):
        assert genericity_check(errata)

    def test_parallel_equal_cost_edges_are_not(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 3), Edge(1, "v", "t", 3)])
        assert not genericity_check(inst)

    def test_single_edge_per_vertex_is_generic(self):
        inst = Instance.build("t", [Edge(0, "u", "v", 4), Edge(1, "v", "t", -2)])
        assert genericity_check(inst)

    def test_size_bound(self):
        # 22 edges, refused before any tree is walked
        with pytest.raises(TooLargeForExhaustiveCheck):
            genericity_check(random_instance(11, 2, 9, 0, require_generic=False))

    def test_tie_hidden_in_a_subset(self):
        # generic on the full set, two optima once edge 2 is removed
        inst = Instance.build(
            "t",
            [Edge(0, "v", "t", 3), Edge(1, "v", "t", 3), Edge(2, "v", "t", 1)],
        )
        assert not genericity_check(inst)

    def test_matches_real_trees_on_the_cyclic_pool(self, cyclic_pool):
        # a second route: no subset has two real trees at its pointwise
        # minimum, found without Bellman-Ford
        answers = [genericity_check(inst) for inst, _ in cyclic_pool]
        assert answers == [generic_by_real_trees(inst) for inst, _ in cyclic_pool]
        assert True in answers and False in answers

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (4, 2)]))
    def test_matches_real_trees_on_cyclic_shapes(self, seed, shape):
        inst, _ = cyclic_instance(*shape, cost_bound=2, seed=seed)
        answer = genericity_check(inst)
        assert answer == generic_by_real_trees(inst)
        assert answer == generic_by_covering_subsets(inst)

    def test_matches_covering_subsets_on_random_instances(self):
        # up to m=14, beyond the 2^m walk of generic_by_real_trees
        pool = [
            random_instance(n, 2, 2, seed, require_generic=False)
            for n in range(2, 8)
            for seed in range(20)
        ]
        answers = [genericity_check(inst) for inst in pool]
        assert answers == [generic_by_covering_subsets(inst) for inst in pool]
        assert True in answers and False in answers

    def test_walks_trees_without_solving_a_subset(self, monkeypatch):
        # m=20: 2^10 = 1 024 trees, each read once by its distances and
        # none split; of the 3^10 = 59 049 covering subsets none is solved
        # or asked of ExactEvaluator.optimal, and the instance's per-tree
        # cache keeps none of the walked trees
        inst = random_instance(10, 2, 9, 0, require_generic=False)
        idx = inst._index
        idx.tree_split(sum(1 << out[0] for out in idx.out))
        cached = len(idx.splits)
        solves = count_calls(monkeypatch, graph._Index, "subgraph_shortest")
        splits = count_calls(monkeypatch, graph._Index, "tree_split")
        distances = count_calls(monkeypatch, graph._Index, "tree_distances")
        asked = count_calls(monkeypatch, ExactEvaluator, "optimal")
        assert genericity_check(inst)
        assert (solves[0], splits[0], distances[0], asked[0]) == (0, 0, 1024, 0)
        assert cached == 1
        assert len(idx.splits) == cached


class TestRandomInstance:
    def test_forced_one_vertex_shape(self):
        inst = random_instance(1, 2, 10, seed=0)
        assert inst.m == 2 and inst.n == 1
        costs = [e.cost for e in inst.edges]
        assert costs[0] != costs[1]  # equal costs would not be generic

    def test_valid_and_generic(self):
        inst = random_instance(3, 2, 10, seed=7)
        assert validate_instance(inst) is inst
        assert genericity_check(inst)

    def test_deterministic_in_seed(self):
        assert random_instance(3, 2, 10, seed=5) == random_instance(3, 2, 10, seed=5)
        assert random_instance(3, 2, 10, seed=5) != random_instance(3, 2, 10, seed=6)

    def test_impossible_request_fails_cleanly(self):
        with pytest.raises(GenerationFailedAfterRetries):
            # two parallel edges with zero cost can never be generic
            random_instance(1, 2, 0, seed=0)

    def test_bad_shape_arguments(self):
        with pytest.raises(ValueError):
            random_instance(0, 2, 10, seed=0)
        # refused up front, not inside random's randrange
        with pytest.raises(ValueError, match="cost_bound >= 0"):
            random_instance(3, 2, -1, 0)

    def test_too_large_to_check_refuses_unless_asked(self):
        # m = 22 is beyond the exhaustive genericity check
        with pytest.raises(TooLargeForExhaustiveCheck):
            random_instance(11, 2, 9, seed=0)
        assert random_instance(11, 2, 9, seed=0, require_generic=False).m == 22

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_pool_instances_satisfy_all_invariants(self, seed):
        inst = random_instance(2, 2, 9, seed=seed)
        validate_instance(inst)
        for v in inst.vertices:
            if v != inst.target:
                assert len(inst.out_edges[v]) == 2


class TestErrataFixture:
    def test_fixture_reproduces_all_reference_values(self, errata, enc):
        assert expected_pivots_rf(errata, None, enc.tree("001")) == Fraction(7, 3)
        assert expected_pivots_rf_star(errata, None, enc.tree("001")) == Fraction(29, 12)
        assert expected_pivots_rf(errata, None, enc.tree("111")) == Fraction(11, 3)
        assert expected_pivots_rf_star(errata, None, enc.tree("111")) == Fraction(43, 12)

    def test_missing_fixture_raises_file_not_found(self, tmp_path, monkeypatch):
        # the package's data files resolve to an empty directory
        monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
        with pytest.raises(FileNotFoundError, match="is missing"):
            errata_instance()

    def test_fixture_passes_the_search_predicate(self, errata):
        assert _matches_reference(errata)

    def test_candidate_order_is_documented_and_deterministic(self):
        first = list(zip(range(3), errata_candidates(2)))
        again = list(zip(range(3), errata_candidates(2)))
        assert [dumps_instance(i) for _, i in first] == [dumps_instance(i) for _, i in again]
        # heads iterate before costs: the first two candidates differ
        # only in the last 1-edge cost
        a, b = first[0][1], first[1][1]
        assert [e.head for e in a.edges] == [e.head for e in b.edges]
        assert a.edges[5].cost == 1 and b.edges[5].cost == 2

    def test_derivation_returns_exactly_the_fixture(self, errata):
        # full search over the documented space; a few seconds
        assert derive_errata_instance() == errata

    def test_derivation_work(self, monkeypatch):
        # The search reaches the winner in the 23rd head layout.  Each
        # layout has at most 6 linear forms; each distinct form met (12;
        # the 36 layouts have 13) is classified once, over the whole cost
        # grid, into a negative and a tie bitset, and no candidate is keyed
        # by itself.  Splitting the layouts by those bitsets meets 46
        # tie-free sign cells, and an out-map is built at most once per
        # cell.  The
        # cube tests run once per distinct out-map of the search (10);
        # the unique-sink test among them, which no tie-free candidate
        # fails, runs only where the path counts pass: once, for the
        # winner.  Only a candidate that passes them becomes an Instance,
        # and its check builds one orientation view, inside errata_checks.  So the search reads no
        # tree distance: the 19 all come from the winner's checks (91 105
        # when every candidate read its 8 trees): 8 for the view, one
        # `improves`, 8 for the genericity walk and 2 for the start trees'
        # splits; the 5 other trees the engines meet are split from the
        # tree they were pivoted from (24 reads when those walked too), and
        # start_state's checks reuse the splits.  Three Bellman-Ford
        # solves, all in errata_checks: its two optimal_tree calls (the
        # optimum and the tree before z0 is pivoted in), and one
        # whole-instance solve for the dead edges, because one exact
        # evaluator serves the four pinned expectations and the two sides
        # of each dashed-edge check (ten solves when each built its own).
        # The genericity check walks trees and solves none.  At most one
        # Kahn order and two path counts per orientation view.
        solves = count_calls(monkeypatch, graph._Index, "subgraph_shortest")
        out_maps = count_calls(monkeypatch, instances, "_out_map")
        passed = count_calls(monkeypatch, instances, "_matches_reference")
        cube_tests = count_calls(monkeypatch, instances, "_passes_cube_tests")
        views = count_calls(monkeypatch, instances, "orientation_view")
        distances = count_calls(monkeypatch, graph._Index, "tree_distances")
        builds = count_calls(monkeypatch, graph.Instance, "build")
        classified = count_calls(monkeypatch, instances, "_form_signs")
        forms_per_layout, cells = [], [0]

        def layout_cells(heads, _fn=instances._layout_cells):
            forms, arrows = _fn(heads)
            forms_per_layout.append(len(forms))
            return forms, arrows

        def sign_cells(signs, size, _fn=instances._sign_cells):
            found = _fn(signs, size)
            cells[0] += len(found)
            return found

        monkeypatch.setattr(instances, "_layout_cells", layout_cells)
        monkeypatch.setattr(instances, "_sign_cells", sign_cells)
        ordered = []
        original_order = cube.OrientationView._arrow_order.func

        def counted_order(view):
            ordered.append(view)
            return original_order(view)

        counted = collections.Counter()
        for name in ("count_paths", "unique_sink_every_face"):
            def counting(view, *args, _fn=getattr(cube.OrientationView, name), _name=name):
                counted[_name, id(view)] += 1
                return _fn(view, *args)

            monkeypatch.setattr(cube.OrientationView, name, counting)

        order = functools.cached_property(counted_order)
        order.__set_name__(cube.OrientationView, "_arrow_order")
        monkeypatch.setattr(cube.OrientationView, "_arrow_order", order)
        derive_errata_instance()
        layouts = len(forms_per_layout)
        assert (layouts, passed[0]) == (23, 1)
        assert max(forms_per_layout) <= 6
        assert (classified[0], cells[0]) == (12, 46)
        assert 0 < out_maps[0] <= cells[0]
        assert solves[0] == 3
        assert views[0] == passed[0]
        assert distances[0] == 19
        assert cube_tests[0] == 10
        assert builds[0] == passed[0]
        assert len({id(v) for v in ordered}) == len(ordered)
        assert [n for (name, _), n in counted.items() if name == "unique_sink_every_face"] == [1]
        assert max(n for (name, _), n in counted.items() if name == "count_paths") <= 2

    def test_whole_space_survivors_are_pinned(self, errata):
        # the candidates of the full space (36 layouts x 512 costs) that
        # pass the cube tests, in search order; the first is the fixture
        texts = [dumps_instance(inst) for inst in _cube_survivors(8)]
        assert len(texts) == 56
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == "943d1b3bc9763383d91d7d2b5566dd82796261abd8665de080943cad4dda448d"
        assert texts[0] == dumps_instance(errata)

    def test_search_bounds_too_tight_are_exhausted(self):
        with pytest.raises(SearchExhausted, match="in 1..2 reproduces .*; widen the bounds$"):
            derive_errata_instance(2)

    @pytest.mark.parametrize("max_one_cost", [0, -1])
    def test_an_empty_cost_space_is_exhausted(self, max_one_cost, monkeypatch):
        cells = count_calls(monkeypatch, instances, "_sign_cells")
        with pytest.raises(SearchExhausted, match="; widen the bounds$"):
            derive_errata_instance(max_one_cost)
        assert cells[0] == 36  # every layout splits its empty grid, into no cell

    def test_the_fixture_is_first_within_cost_bound_3(self):
        fixture = importlib.resources.files("randomfacet").joinpath(f"data/{FIXTURE_NAME}")
        assert dumps_instance(derive_errata_instance(3)) == fixture.read_text()

    def test_candidate_order_is_pinned(self):
        # 36 head layouts x 8 cost tuples; the search walks the same order
        texts = [dumps_instance(inst) for inst in errata_candidates(2)]
        assert len(texts) == 288
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == "2a5be7e8b680c5e163aa5ef4f055d68ed032042be9b962368af3a249ac975c3f"

    def test_errata_checks_compute_shared_values_once(self, errata, monkeypatch):
        calls = collections.Counter()
        evaluators = set()
        for name in ("expected_pivots_rf", "expected_pivots_rf_star", "comptree",
                     "orientation_view"):
            def counted(*args, _fn=getattr(instances, name), _name=name, **kwargs):
                calls[_name] += 1
                if _name.startswith("expected"):
                    evaluators.add(kwargs.get("evaluator"))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(instances, name, counted)
        checks = errata_checks(errata)
        assert len(checks) == 20
        assert all(expected == got for _, expected, got in checks)
        # four start expectations plus two per dashed-edge comparison, all
        # through one shared evaluator
        assert calls == {"expected_pivots_rf": 4, "expected_pivots_rf_star": 4,
                         "comptree": 3, "orientation_view": 1}
        assert len(evaluators) == 1 and isinstance(evaluators.pop(), ExactEvaluator)

    def test_checks_print_the_pinned_tables(self, errata):
        got = {name: expected for name, expected, _ in errata_checks(errata)}
        for (rule, bits), value in ERRATA_EXPECTATIONS.items():
            assert got[f"{rule}_from_{bits}"] == f"{value.numerator}/{value.denominator}"
        for (src, dst), count in ERRATA_PATH_COUNTS.items():
            assert got[f"paths_{src}_to_{dst}"] == str(count)

    def test_perturbed_costs_break_the_reference_values(self, errata):
        text = dumps_instance(errata).replace("edge 1 x z 1", "edge 1 x z 2")
        assert not _matches_reference(validate_instance(loads_instance(text)))
