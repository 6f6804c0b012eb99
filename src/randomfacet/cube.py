"""Cube view of instances with exactly two outgoing edges per vertex.

Such an instance has 2^n tree policies, one per binary string: bit j
selects the lower- or higher-id outgoing edge of the j-th vertex in
sorted name order.  Orienting each cube edge between adjacent trees in
the improving direction yields an orientation whose unique full-cube
sink is the optimal tree; on generic instances every face of the cube
has a unique sink and the orientation is acyclic.

An OrientationView stores the arrows once and derives a successor table
from them.  "Unique sink on every face" is the pair criterion of Szabó
and Welzl ("Unique sink orientations of cubes", FOCS 2001): every two
distinct vertices differ, on some axis where they differ, in whether
an arrow leaves them along it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import NonGenericInstance, NotATree, NotCubeShaped, RandomFacetError
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
        if len(bits) != len(self.axes) or set(bits) - {"0", "1"}:
            raise ValueError(f"{bits!r} is not a binary string of length {len(self.axes)}")
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


@dataclass(frozen=True)
class OrientationView:
    """Improving directions between all pairs of adjacent tree policies.

    `arrows` orients every cube edge exactly once, as (src, dst) bits.
    """

    encoding: CubeEncoding
    arrows: frozenset[tuple[str, str]]

    @cached_property
    def _succ(self) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {b: [] for b in self.encoding.all_bits()}
        for src, dst in sorted(self.arrows):
            succ[src].append(dst)
        return succ

    def successors(self, bits: str) -> list[str]:
        return list(self._succ[bits])

    def sink(self) -> str:
        """The unique vertex of the full cube with no outgoing arrow."""
        sinks = [b for b in self._succ if not self.successors(b)]
        if len(sinks) != 1:
            raise RandomFacetError(f"expected one sink, found {sinks}")
        return sinks[0]

    def is_acyclic(self) -> bool:
        state: dict[str, int] = {}

        def dfs(b: str) -> bool:
            state[b] = 1
            for nxt in self.successors(b):
                s = state.get(nxt)
                if s == 1:
                    return True
                if s is None and dfs(nxt):
                    return True
            state[b] = 2
            return False

        return not any(state.get(b) is None and dfs(b) for b in self._succ)

    def unique_sink_every_face(self) -> bool:
        """Szabó-Welzl: u != v always differ in an outgoing axis in u xor v."""
        out = [0] * (1 << len(self.encoding.axes))  # outgoing axes per vertex
        for src, dst in self.arrows:
            out[int(src, 2)] |= int(src, 2) ^ int(dst, 2)
        return all((u ^ v) & (out[u] ^ out[v]) for u in range(len(out)) for v in range(u))

    def count_paths(self, src: str, dst: str) -> int:
        """Number of directed pivot paths from src to dst."""
        if not self.is_acyclic():
            raise RandomFacetError("orientation has a cycle; path count undefined")
        memo: dict[str, int] = {}

        def walk(b: str) -> int:
            if b == dst:
                return 1
            if b in memo:
                return memo[b]
            memo[b] = sum(walk(nxt) for nxt in self.successors(b))
            return memo[b]

        return walk(src)


def orientation_view(inst: Instance) -> OrientationView:
    """Orient every cube edge between adjacent trees in the improving direction.

    Each tree's distances are read once.  A tie (neither direction
    improves) means two adjacent trees have equal distance at the
    flipped vertex, which only happens on non-generic instances.
    """
    enc = cube_encoding(inst)
    idx = inst._index
    dists = {}
    for bits in enc.all_bits():
        mask = 0
        for pair, bit in zip(enc.pairs, bits):
            mask |= 1 << pair[int(bit)]
        dists[bits] = idx.tree_distances(mask)
        if dists[bits] is None:
            raise NotATree(f"tree {bits} does not reach the target")

    def shortens(dist, eid: EdgeId) -> bool:
        return idx.cost[eid] + idx.dget(dist, idx.head[eid]) < dist[idx.tail[eid]]

    arrows: set[tuple[str, str]] = set()
    for bits, dist in dists.items():
        for j, (zero, one) in enumerate(enc.pairs):
            if bits[j] == "1":
                continue
            other = bits[:j] + "1" + bits[j + 1 :]
            a_to_b = shortens(dist, one)
            if a_to_b == shortens(dists[other], zero):
                raise NonGenericInstance(
                    f"adjacent trees {bits} and {other} have no improving direction"
                )
            arrows.add((bits, other) if a_to_b else (other, bits))
    return OrientationView(encoding=enc, arrows=frozenset(arrows))
