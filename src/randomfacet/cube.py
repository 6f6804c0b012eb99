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

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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

    def all_bits(self) -> Iterator[str]:
        for combo in itertools.product("01", repeat=len(self.axes)):
            yield "".join(combo)


def cube_encoding(inst: Instance) -> CubeEncoding:
    """Encoding for an instance with exactly two outgoing edges per vertex."""
    axes = tuple(sorted(v for v in inst.vertices if v != inst.target))
    pairs = []
    for v in axes:
        out = inst.out_edges[v]
        if len(out) != 2:
            raise NotCubeShaped(
                f"vertex {v!r} has {len(out)} outgoing edges, expected 2"
            )
        pairs.append((out[0].id, out[1].id))
    return CubeEncoding(axes=axes, pairs=tuple(pairs))


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

    def _heads(self, v: int) -> list[int]:
        """Vertices that an arrow from v points at, in ascending order."""
        out, n = self.out[v], len(self.encoding.axes)
        return sorted(v ^ (1 << k) for k in range(n) if out >> k & 1)

    def successors(self, bits: str) -> list[str]:
        n = len(self.encoding.axes)
        return [_bit_string(w, n) for w in self._heads(_vertex(bits, n))]

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
        n = len(self.encoding.axes)
        indeg = [n - o.bit_count() for o in self.out]  # each cube edge points one way
        order = [v for v, d in enumerate(indeg) if not d]
        for v in order:  # the list grows while it is read
            for w in self._heads(v):
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
        order = self._arrow_order
        if len(order) != len(self.out):
            raise RandomFacetError("orientation has a cycle; path count undefined")
        paths = [0] * len(self.out)
        for v in reversed(order):
            paths[v] = 1 if v == d else sum(paths[w] for w in self._heads(v))
        return paths[s]


def orientation_view(inst: Instance) -> OrientationView:
    """Orient every cube edge between adjacent trees in the improving direction.

    Each tree's distances are read once.  A tie (neither direction
    improves) means two adjacent trees have equal distance at the
    flipped vertex, which only happens on non-generic instances.
    """
    enc = cube_encoding(inst)
    idx = inst._index
    n = len(enc.pairs)
    dists = []
    for v in range(1 << n):
        mask = 0
        for j, pair in enumerate(enc.pairs):
            mask |= 1 << pair[v >> (n - 1 - j) & 1]
        dist = idx.tree_distances(mask)
        if dist is None:
            raise NotATree(f"tree {_bit_string(v, n)} does not reach the target")
        dists.append(dist)

    def shortens(dist, eid: EdgeId) -> bool:
        return idx.cost[eid] + dist[idx.head[eid]] < dist[idx.tail[eid]]

    out = [0] * (1 << n)
    for v, dist in enumerate(dists):
        for j, (zero, one) in enumerate(enc.pairs):
            axis = 1 << (n - 1 - j)
            if v & axis:
                continue
            w = v | axis
            v_to_w = shortens(dist, one)
            if v_to_w == shortens(dists[w], zero):
                raise NonGenericInstance(
                    f"adjacent trees {_bit_string(v, n)} and {_bit_string(w, n)} "
                    "have no improving direction"
                )
            out[v if v_to_w else w] |= axis
    return OrientationView(encoding=enc, out=tuple(out))
