import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_bits,
    cube_faces,
    cyclic_instance,
    has_cycle_by_dfs,
    paths_by_enumeration,
    real_trees,
    unique_sink_by_faces,
)
from randomfacet import (
    CubeEncoding,
    Edge,
    Instance,
    NonGenericInstance,
    NotACubeVertex,
    NotATree,
    NotCubeShaped,
    OrientationView,
    RandomFacetError,
    TreePolicy,
    cube_encoding,
    errata_candidates,
    dumps_instance,
    improves,
    optimal_tree,
    orientation_view,
)
from randomfacet import instances
from randomfacet.instances import (
    _AXES,
    _DOWNSTREAM,
    _ENCODING,
    _candidate,
    _candidate_space,
    _cube_survivors,
    _form_signs,
    _layout_cells,
    _out_map,
    _passes_cube_tests,
    _sign_cells,
)


class TestCubeEncoding:
    def test_bijection_on_the_errata_cube(self, errata, enc):
        for bits in all_bits(enc):
            assert enc.bits_of(enc.tree(bits)) == bits
        assert len(list(all_bits(enc))) == 8

    def test_named_trees(self, errata, enc, names):
        assert enc.tree("001").edge_ids == {names["x0"], names["y0"], names["z1"]}
        assert enc.tree("111").edge_ids == {names["x1"], names["y1"], names["z1"]}

    def test_rejects_non_cube_instance(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 0)])
        with pytest.raises(NotCubeShaped):
            cube_encoding(inst)

    def test_the_search_encoding_is_every_candidates(self):
        # the errata search orients every candidate's cube under one encoding
        candidates = list(errata_candidates(2))
        assert len(candidates) == 36 * 8
        assert all(cube_encoding(cand) == _ENCODING for cand in candidates)

    def test_bits_of_refuses_an_edge_of_another_vertex(self, enc):
        # the edges of tree 000, with x and y swapped
        with pytest.raises(ValueError, match="^edge 2 is not an outgoing edge of 'x'$"):
            enc.bits_of(TreePolicy({"x": 2, "y": 0, "z": 4}))

    def test_bad_bits_rejected(self, enc):
        with pytest.raises(ValueError):
            enc.tree("01")
        with pytest.raises(ValueError):
            enc.tree("01x")


class TestOrientationView:
    def test_errata_orientation_is_an_acyclic_unique_sink_orientation(self, errata):
        view = orientation_view(errata)
        assert view.is_acyclic()
        assert view.unique_sink_every_face()

    def test_sink_is_the_optimal_tree(self, errata, enc):
        view = orientation_view(errata)
        assert view.sink() == enc.bits_of(optimal_tree(errata))

    def test_exactly_three_paths_from_each_start(self, errata):
        view = orientation_view(errata)
        assert view.count_paths("001", "000") == 3
        assert view.count_paths("111", "000") == 3

    def test_one_vertex_cube_single_arrow(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 0), Edge(1, "v", "t", 5)])
        view = orientation_view(inst)
        assert view.out == (0, 1)
        assert view.sink() == "0"

    def test_sink_refuses_two_sinks(self):
        # a hand-made view in which no arrow leaves either tree
        view = OrientationView(CubeEncoding(("a",), ((0, 1),)), (0, 0))
        with pytest.raises(RandomFacetError, match="expected one sink"):
            view.sink()

    def test_zero_axis_cube(self):
        # format(0, "b") is "0", but the one tree of the 0-cube is ""
        view = orientation_view(Instance.build("t", []))
        assert view.sink() == ""
        assert view.successors("") == []
        assert view.count_paths("", "") == 1
        assert view.is_acyclic()
        assert view.unique_sink_every_face()

    @pytest.mark.parametrize(
        "src, dst", [("001", "0000"), ("0011", "000"), ("00x", "000"), ("001", "0 0"), ("", "000")]
    )
    def test_count_paths_rejects_endpoints_outside_the_cube(self, errata, src, dst):
        view = orientation_view(errata)
        with pytest.raises(NotACubeVertex):
            view.count_paths(src, dst)

    @pytest.mark.parametrize("bits", ["01", "0011", "01x"])
    def test_one_typed_error_for_bits_outside_the_cube(self, errata, enc, bits):
        # a library error that old `except ValueError` callers still catch
        view = orientation_view(errata)
        for call in (enc.tree, view.successors, lambda b: view.count_paths(b, "000")):
            with pytest.raises(NotACubeVertex) as exc:
                call(bits)
            assert isinstance(exc.value, RandomFacetError)
            assert isinstance(exc.value, ValueError)
            assert str(exc.value) == f"{bits!r} is not a binary string of length 3"

    def test_tied_adjacent_trees_are_non_generic(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 3), Edge(1, "v", "t", 3)])
        with pytest.raises(
            NonGenericInstance, match="^adjacent trees 0 and 1 have no improving direction$"
        ):
            orientation_view(inst)

    def test_non_tree_bit_string_raises(self):
        # tree 11 chooses x->y and y->x, a cycle that never reaches t
        inst = Instance.build(
            "t",
            [Edge(0, "x", "t", 1), Edge(1, "x", "y", 0), Edge(2, "y", "t", 2), Edge(3, "y", "x", 0)],
        )
        with pytest.raises(NotATree, match="^tree 11 does not reach the target$"):
            orientation_view(inst)


def all_orientations(n):
    """Every orientation of the n-cube, as an OrientationView."""
    axes = tuple("abc"[:n])
    enc = CubeEncoding(axes=axes, pairs=tuple((2 * j, 2 * j + 1) for j in range(n)))
    # each cube edge once, as its lower vertex and the axis bit it flips
    edges = [(v, 1 << k) for v in range(1 << n) for k in range(n) if not v >> k & 1]
    for flips in itertools.product((False, True), repeat=len(edges)):
        out = [0] * (1 << n)
        for (v, axis), flip in zip(edges, flips):
            out[v | axis if flip else v] |= axis
        yield OrientationView(encoding=enc, out=tuple(out))


@pytest.mark.parametrize("n, orientations, usos", [(1, 2, 2), (2, 16, 12), (3, 4096, 744)])
def test_unique_sink_check_agrees_with_the_face_oracle(n, orientations, usos):
    views = list(all_orientations(n))
    assert len(views) == orientations
    verdicts = [view.unique_sink_every_face() for view in views]
    assert verdicts == [unique_sink_by_faces(view) for view in views]
    assert sum(verdicts) == usos
    # sum over k of C(n, k) * 2^(n-k) sub-cubes: 27 for the 3-cube
    assert len(list(cube_faces(n))) == 3**n


@pytest.mark.parametrize(
    "n, acyclic, acyclic_usos, paths_top_to_bottom", [(2, 14, 12, 6), (3, 1862, 728, 1026)]
)
def test_acyclicity_and_path_counts_agree_with_the_dfs_oracle(
    n, acyclic, acyclic_usos, paths_top_to_bottom
):
    top, bottom = "1" * n, "0" * n
    found = usos = total = 0
    for view in all_orientations(n):
        is_acyclic = view.is_acyclic()
        assert is_acyclic is not has_cycle_by_dfs(view)
        if not is_acyclic:
            with pytest.raises(RandomFacetError):
                view.count_paths(top, bottom)
            continue
        found += 1
        usos += view.unique_sink_every_face()
        for src in all_bits(view.encoding):
            assert view.count_paths(src, bottom) == paths_by_enumeration(view, src, bottom)
        total += view.count_paths(top, bottom)
    assert (found, usos, total) == (acyclic, acyclic_usos, paths_top_to_bottom)


def out_map_by_improves(inst):
    """orientation_view's out-map by graph.improves, or the error it must raise.

    NotATree when some bit string's tree is not a real tree, else
    NonGenericInstance when some adjacent pair has no single improving
    direction, else the out-map: axis j leaves v iff v's tree improves
    by pivoting in the other edge of pair j.
    """
    enc = cube_encoding(inst)
    n = len(enc.axes)
    trees = [enc.tree(format(v, f"0{n}b") if n else "") for v in range(1 << n)]
    real = set(real_trees(inst))
    if any(tree not in real for tree in trees):
        return NotATree
    out = [0] * (1 << n)
    for j, (zero, one) in enumerate(enc.pairs):
        axis = 1 << (n - 1 - j)
        for v in range(1 << n):
            if v & axis:
                continue
            up, down = improves(inst, trees[v], one), improves(inst, trees[v | axis], zero)
            if up == down:
                return NonGenericInstance
            out[v if up else v | axis] |= axis
    return tuple(out)


def orientation_outcome(inst):
    try:
        return orientation_view(inst).out
    except (NotATree, NonGenericInstance) as exc:
        return type(exc)


def test_orientation_agrees_with_improves_on_every_small_errata_candidate():
    kinds = Counter()
    for inst in errata_candidates(2):
        expected = out_map_by_improves(inst)
        assert orientation_outcome(inst) == expected
        kinds[expected if expected is NonGenericInstance else "view"] += 1
        if expected is not NonGenericInstance:
            # why the derivation tests unique sinks after the path counts
            view = orientation_view(inst)
            assert view.is_acyclic() and view.unique_sink_every_face()
    assert kinds == {"view": 192, NonGenericInstance: 96}


def test_orientation_agrees_with_improves_on_cyclic_cubes():
    # two out-edges per vertex with back edges and self-loops, costs 0..2
    kinds = Counter()
    for seed in range(150):
        inst, _ = cyclic_instance(1 + seed % 3, 2, 2, seed)
        expected = out_map_by_improves(inst)
        assert orientation_outcome(inst) == expected
        kinds[expected if expected in (NotATree, NonGenericInstance) else "view"] += 1
    assert min(kinds[NotATree], kinds[NonGenericInstance], kinds["view"]) >= 10, kinds


def sign_key(forms, costs):
    """Bit i set iff form i is negative at costs; None if a form is zero (a tie).

    The per-candidate oracle of the search's sign cells (_sign_cells)."""
    cx, cy, cz = costs
    key = 0
    for i, (a, b, c) in enumerate(forms):
        value = a * cx + b * cy + c * cz
        if not value:
            return None
        key |= (value < 0) << i
    return key


def sign_cell_outcome(forms, arrows, cand):
    """The out-map of cand's sign key on its layout's forms, or NonGenericInstance for a tie."""
    key = sign_key(forms, tuple(e.cost for e in cand.edges[1::2]))
    return NonGenericInstance if key is None else _out_map(arrows, key)


@pytest.mark.parametrize("max_one_cost", [3, 8])
def test_sign_cells_group_the_tie_free_costs_by_the_oracle_key(max_one_cost):
    # per layout: the cells hold exactly the tie-free cost tuples, grouped
    # by sign key, and what no cell holds is exactly the oracle's ties
    for heads, cost_space in _candidate_space(max_one_cost):
        forms, _ = _layout_cells(heads)
        cells = _sign_cells([_form_signs(form, cost_space) for form in forms], len(cost_space))
        by_key, ties = {}, set()
        for i, costs in enumerate(cost_space):
            key = sign_key(forms, costs)
            if key is None:
                ties.add(i)
            else:
                by_key[key] = by_key.get(key, 0) | 1 << i
        assert dict(cells) == by_key and len(cells) == len(by_key)
        held = sum(cell for _, cell in cells)  # the cells are disjoint, as by_key's are
        assert {i for i in range(len(cost_space)) if not held >> i & 1} == ties


def test_survivors_of_several_cells_come_in_search_order(monkeypatch):
    # no layout of the search has two passing cells; with every out-map
    # passing, each layout has several, and the survivors must still be
    # the tie-free candidates in search order
    monkeypatch.setattr(instances, "_passes_cube_tests", lambda view: True)
    tie_free = [dumps_instance(cand) for cand in errata_candidates(3)
                if orientation_outcome(cand) is not NonGenericInstance]
    assert len(tie_free) > 36 and [dumps_instance(i) for i in _cube_survivors(3)] == tie_free


def test_sign_keys_agree_with_orientation_view_on_every_candidate():
    # the search's route (a layout's linear forms, each candidate's signs
    # on them) against a fresh Instance per candidate, on 36 layouts x 27 costs
    layouts, kinds, survivors = 0, Counter(), []
    by_heads = itertools.groupby(
        errata_candidates(3), key=lambda c: tuple(e.head for e in c.edges)
    )
    for heads, group in by_heads:
        layouts += 1
        forms, arrows = _layout_cells(heads)
        assert len(forms) <= 6 and len(arrows) == 12
        for cand in group:
            got = sign_cell_outcome(forms, arrows, cand)
            assert got == orientation_outcome(cand)
            kinds[got if got is NonGenericInstance else "view"] += 1
            if got is not NonGenericInstance and _passes_cube_tests(orientation_view(cand)):
                survivors.append(dumps_instance(cand))
    assert layouts == 36 and sum(kinds.values()) == 36 * 27
    assert min(kinds.values()) >= 100, kinds
    assert survivors and [dumps_instance(i) for i in _cube_survivors(3)] == survivors


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*(st.sampled_from(_DOWNSTREAM[v]) for v in _AXES for _ in (0, 1))),
    st.tuples(*[st.integers(-50, 50)] * 3),
)
def test_sign_keys_agree_with_orientation_view_beyond_the_search_bound(heads, costs):
    # any integer 1-edge costs, ties and negative costs included: the
    # forms are linear, so the cell argument needs no cost bound
    forms, arrows = _layout_cells(heads)
    cand = _candidate(heads, costs)
    assert sign_cell_outcome(forms, arrows, cand) == orientation_outcome(cand)
