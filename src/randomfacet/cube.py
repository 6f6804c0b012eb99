"""Cube view of instances with exactly two outgoing edges per vertex.

Such an instance has 2^n tree policies, one per binary string: bit j
selects the lower- or higher-id outgoing edge of the j-th vertex in
sorted name order.  Orienting each cube edge between adjacent trees in
the improving direction yields an orientation whose unique full-cube
sink is the optimal tree; on generic instances every face of the cube
has a unique sink and the orientation is acyclic.

An OrientationView stores the orientation once, as one out-map of axis
masks.  "Unique sink on every face" is the pair criterion of Szabó and
Welzl ("Unique sink orientations of cubes", FOCS 2001), stated on that
out-map: every two distinct vertices differ, on some axis where they
differ, in whether an arrow leaves them along it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    NonGenericInstance,
    NotACubeVertex,
    NotATree,
    NotCubeShaped,
    RandomFacetError,
)
from .graph import EdgeId, Instance, TreePolicy


@dataclass(frozen=True)
class CubeEncoding:
    """Bijection between tree policies and binary strings."""

    axes: tuple[str, ...]
    pairs: tuple[tuple[EdgeId, EdgeId], ...]

    def bits_of(self, policy: TreePolicy) -> str:
        out = []
        for axis, (zero, one) in zip(self.axes, self.pairs):
            eid = policy.edge_at(axis)
            if eid == zero:
                out.append("0")
            elif eid == one:
                out.append("1")
            else:
                raise ValueError(f"edge {eid} is not an outgoing edge of {axis!r}")
        return "".join(out)

    def tree(self, bits: str) -> TreePolicy:
        _vertex(bits, len(self.axes))
        return TreePolicy(
            {
                axis: self.pairs[j][int(bits[j])]
                for j, axis in enumerate(self.axes)
            }
        )


def cube_encoding(inst: Instance) -> CubeEncoding:
    """Encoding for an instance with exactly two outgoing edges per vertex."""
    idx = inst._index
    for v, out in zip(idx.order, idx.out):
        if len(out) != 2:
            raise NotCubeShaped(
                f"vertex {v!r} has {len(out)} outgoing edges, expected 2"
            )
    return CubeEncoding(axes=tuple(idx.order), pairs=tuple(map(tuple, idx.out)))


def _vertex(bits: str, n: int) -> int:
    """Bit string to vertex of the n-cube; NotACubeVertex if it names none."""
    if len(bits) != n or set(bits) - {"0", "1"}:
        raise NotACubeVertex(f"{bits!r} is not a binary string of length {n}")
    return int(bits, 2) if n else 0


def _bit_string(v: int, n: int) -> str:
    """Vertex v of the n-cube as its bit string; "" for the 0-cube."""
    return format(v, f"0{n}b") if n else ""


@dataclass(frozen=True)
class OrientationView:
    """Improving directions between all pairs of adjacent tree policies.

    Vertex v is the tree whose bit string, read in binary, is v; axis j
    (`encoding.axes[j]`) is bit n-1-j.  `out[v]` is the mask of the axes
    along which an arrow leaves v; each cube edge is oriented exactly
    once.  Bit strings are parsed and built only where methods take or
    return them.
    """

    encoding: CubeEncoding
    out: tuple[int, ...]

    def successors(self, bits: str) -> list[str]:
        n = len(self.encoding.axes)
        v = _vertex(bits, n)
        out = self.out[v]
        return sorted(_bit_string(v ^ (1 << k), n) for k in range(n) if out >> k & 1)

    def sink(self) -> str:
        """The unique vertex of the full cube with no outgoing arrow."""
        n = len(self.encoding.axes)
        sinks = [_bit_string(v, n) for v, o in enumerate(self.out) if not o]
        if len(sinks) != 1:
            raise RandomFacetError(f"expected one sink, found {sinks}")
        return sinks[0]

    @cached_property
    def _arrow_order(self) -> tuple[int, ...]:
        """Kahn's topological order, cached; vertices on or behind a cycle are left out."""
        out, n = self.out, len(self.encoding.axes)
        indeg = [n - o.bit_count() for o in out]  # each cube edge points one way
        order = [v for v, d in enumerate(indeg) if not d]
        for v in order:  # the list grows while it is read
            arrows = out[v]
            while arrows:
                low = arrows & -arrows
                arrows ^= low
                w = v ^ low
                indeg[w] -= 1
                if not indeg[w]:
                    order.append(w)
        return tuple(order)

    def is_acyclic(self) -> bool:
        return len(self._arrow_order) == len(self.out)

    def unique_sink_every_face(self) -> bool:
        """Szabó-Welzl: u != v always differ in an outgoing axis in u xor v."""
        out = self.out
        return all((u ^ v) & (out[u] ^ out[v]) for u in range(len(out)) for v in range(u))

    def count_paths(self, src: str, dst: str) -> int:
        """Number of directed pivot paths from src to dst."""
        n = len(self.encoding.axes)
        s, d = _vertex(src, n), _vertex(dst, n)
        out, order = self.out, self._arrow_order
        if len(order) != len(out):
            raise RandomFacetError("orientation has a cycle; path count undefined")
        paths = [0] * len(out)
        for v in reversed(order):
            if v == d:
                paths[v] = 1
                continue
            arrows, total = out[v], 0
            while arrows:
                low = arrows & -arrows
                arrows ^= low
                total += paths[v ^ low]
            paths[v] = total
        return paths[s]


def orientation_view(inst: Instance) -> OrientationView:
    """Orient every cube edge between adjacent trees in the improving direction.

    A tie (f = 0 below) happens only on non-generic instances.  The
    errata search signs the same forms on a whole cost grid at once,
    a bitset per form (instances._sign_cells).
    """
    enc = cube_encoding(inst)
    idx = inst._index
    dists = [idx.tree_distances(mask) for mask in tree_masks(enc.pairs)]
    n = len(enc.pairs)
    if None in dists:
        raise NotATree(f"tree {_bit_string(dists.index(None), n)} does not reach the target")
    tail, head, cost = idx.tail, idx.head, idx.cost
    out = [0] * (1 << n)
    for j, (_, one) in enumerate(enc.pairs):
        axis = 1 << (n - 1 - j)
        x, h1, c1 = tail[one], head[one], cost[one]
        for v in range(1 << n):
            if v & axis:
                continue
            # v and w = v | axis are trees that differ only at x, so h1's path in
            # v and h0's in w avoid x: w's form c0 + d_w(h0) - d_w(x) is -f
            f = c1 + dists[v][h1] - dists[v][x]
            if not f:
                raise NonGenericInstance(
                    f"adjacent trees {_bit_string(v, n)} and {_bit_string(v | axis, n)} "
                    "have no improving direction"
                )
            out[v if f < 0 else v | axis] |= axis
    return OrientationView(encoding=enc, out=tuple(out))


def tree_masks(pairs: tuple[tuple[EdgeId, EdgeId], ...]) -> list[int]:
    """The tree mask of every cube vertex v, built by doubling over the pairs."""
    masks = [0]
    for zero, one in pairs:  # an earlier pair is a higher bit of v
        masks = [mask | bit for mask in masks for bit in (1 << zero, 1 << one)]
    return masks
