import itertools

import pytest

from helpers import cube_faces, unique_sink_by_faces
from randomfacet import (
    CubeEncoding,
    Edge,
    Instance,
    NonGenericInstance,
    NotATree,
    NotCubeShaped,
    OrientationView,
    cube_encoding,
    optimal_tree,
    orientation_view,
)


class TestCubeEncoding:
    def test_bijection_on_the_errata_cube(self, errata, enc):
        for bits in enc.all_bits():
            assert enc.bits_of(enc.tree(bits)) == bits
        assert len(list(enc.all_bits())) == 8

    def test_named_trees(self, errata, enc, names):
        assert enc.tree("001").edge_ids == {names["x0"], names["y0"], names["z1"]}
        assert enc.tree("111").edge_ids == {names["x1"], names["y1"], names["z1"]}

    def test_rejects_non_cube_instance(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 0)])
        with pytest.raises(NotCubeShaped):
            cube_encoding(inst)

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
        assert view.arrows == {("1", "0")}
        assert view.sink() == "0"

    def test_tied_adjacent_trees_are_non_generic(self):
        inst = Instance.build("t", [Edge(0, "v", "t", 3), Edge(1, "v", "t", 3)])
        with pytest.raises(NonGenericInstance):
            orientation_view(inst)

    def test_non_tree_bit_string_raises(self):
        # tree 11 chooses x->y and y->x, a cycle that never reaches t
        inst = Instance.build(
            "t",
            [Edge(0, "x", "t", 1), Edge(1, "x", "y", 0), Edge(2, "y", "t", 2), Edge(3, "y", "x", 0)],
        )
        with pytest.raises(NotATree):
            orientation_view(inst)


def all_orientations(n):
    """Every orientation of the n-cube, as an OrientationView."""
    axes = tuple("abc"[:n])
    enc = CubeEncoding(axes=axes, pairs=tuple((2 * j, 2 * j + 1) for j in range(n)))
    edges = [
        (bits, bits[:j] + "1" + bits[j + 1 :])
        for bits in enc.all_bits()
        for j in range(n)
        if bits[j] == "0"
    ]
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = frozenset((b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips))
        yield OrientationView(encoding=enc, arrows=arrows)


@pytest.mark.parametrize("n, orientations, usos", [(1, 2, 2), (2, 16, 12), (3, 4096, 744)])
def test_unique_sink_check_agrees_with_the_face_oracle(n, orientations, usos):
    views = list(all_orientations(n))
    assert len(views) == orientations
    verdicts = [view.unique_sink_every_face() for view in views]
    assert verdicts == [unique_sink_by_faces(view) for view in views]
    assert sum(verdicts) == usos
    # sum over k of C(n, k) * 2^(n-k) sub-cubes: 27 for the 3-cube
    assert len(list(cube_faces(n))) == 3**n
