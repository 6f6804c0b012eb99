"""Single-target shortest-path instances and pivot primitives.

An Instance is a weighted directed graph with integer edge costs and a
designated target vertex.  Costs may be negative; negative-cost cycles
are rejected by validate_instance.  A TreePolicy chooses one outgoing
edge per non-target vertex such that every vertex reaches the target.
Replacing one chosen edge by a strictly shorter alternative (a pivot)
is the improvement step that all higher-level machinery counts.

Edges, instances and tree policies are immutable.  An instance's index
(_Index) is built on first use, and its tree cache fills as engines
run, each entry written once and never changed: a tree made by a pivot
(in algorithms.steps or exact rf) is split there, from its parent's
entry; only a start tree is split from scratch.  Distances are exact
integers throughout; there is no floating-point path in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    DanglingVertex,
    NegativeCycle,
    NoTreeInSubset,
    NotATree,
    NotImproving,
    TargetHasOutEdges,
)

EdgeId = int
DistanceMap = dict[str, int]


@dataclass(frozen=True)
class Edge:
    """Directed edge with a dense integer id.

    Parallel edges (same tail and head) are allowed and are told apart
    by id only.
    """

    id: EdgeId
    tail: str
    head: str
    cost: int


@dataclass(frozen=True)
class Instance:
    """Weighted directed graph with a designated target vertex."""

    target: str
    edges: tuple[Edge, ...]
    vertices: frozenset[str]

    @staticmethod
    def build(
        target: str,
        edges: Iterable[Edge],
        extra_vertices: Iterable[str] = (),
    ) -> "Instance":
        """Create an instance, inferring vertices from edge endpoints.

        Edge ids must be exactly 0..m-1, unique and dense; this keeps
        them stable across serialization round trips.
        """
        es = tuple(sorted(edges, key=lambda e: e.id))
        if [e.id for e in es] != list(range(len(es))):
            raise ValueError("edge ids must be dense 0..m-1 without duplicates")
        vs = {target, *extra_vertices}
        for e in es:
            vs.add(e.tail)
            vs.add(e.head)
        return Instance(target=target, edges=es, vertices=frozenset(vs))

    @property
    def n(self) -> int:
        """Number of non-target vertices."""
        return len(self.vertices) - 1

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: EdgeId) -> Edge:
        """The edge with id `eid`; ValueError for ids outside 0..m-1."""
        if not 0 <= eid < self.m:
            raise ValueError(f"unknown edge id {eid}")
        return self.edges[eid]

    def all_edges(self) -> frozenset[EdgeId]:
        return frozenset(range(self.m))

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        """Outgoing edges per vertex, sorted by id; the library reads `_index.out`."""
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.tail].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def _index(self) -> "_Index":
        return _Index(self)


class TreePolicy:
    """Immutable choice of one outgoing edge id per non-target vertex.

    Equality and hashing are structural on the vertex-to-edge mapping.
    """

    __slots__ = ("_choice", "_ids", "_mask", "_hash")

    def __init__(self, choice: Mapping[str, EdgeId]):
        self._choice = dict(choice)
        ids = frozenset(self._choice.values())
        if len(ids) != len(self._choice):
            raise ValueError("tree policy maps two vertices to the same edge id")
        self._ids = ids
        mask = 0
        for eid in ids:
            mask |= 1 << eid
        self._mask = mask
        self._hash = hash(frozenset(self._choice.items()))

    @classmethod
    def from_edge_ids(cls, inst: Instance, ids: Iterable[EdgeId]) -> "TreePolicy":
        """Build a policy from edge ids, one per non-target vertex of inst."""
        mapping: dict[str, EdgeId] = {}
        for eid in ids:
            e = inst.edge(eid)
            if e.tail in mapping:
                raise ValueError(f"two chosen edges leave vertex {e.tail!r}")
            mapping[e.tail] = eid
        missing = {v for v in inst.vertices if v != inst.target} - mapping.keys()
        if missing:
            raise ValueError(f"no chosen edge for vertices {sorted(missing)}")
        return cls(mapping)

    def edge_at(self, vertex: str) -> EdgeId:
        return self._choice[vertex]

    @property
    def choices(self) -> dict[str, EdgeId]:
        return dict(self._choice)

    @property
    def edge_ids(self) -> frozenset[EdgeId]:
        return self._ids

    @property
    def mask(self) -> int:
        return self._mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreePolicy):
            return NotImplemented
        return self._choice == other._choice

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{e}" for v, e in sorted(self._choice.items()))
        return f"TreePolicy({inner})"


class _Index:
    """Dense integer view of an instance plus `splits`, the one per-tree cache.

    Vertices are numbered 0..n-1 in sorted name order; the target is -1.
    Every distance list has n+1 slots and ends with the target's 0, so
    dist[head] reads the target's distance like any other and no code
    outside this class needs to know where the target is.  An edge out
    of the target would make tail -1 and overwrite that slot, so such
    instances are refused with TargetHasOutEdges.  Facet subsets and
    trees travel as bit masks over edge ids, which is what the runners
    and exact engines key their caches on.  `splits` caches tree_split
    per tree mask, each entry written once: one tree_distances walk, or
    for a pivoted tree a walk of its parent's subtree below the pivot.
    at_tail[e] masks the edges leaving e's tail, so a tree mask &
    at_tail[e] is the tree's edge there.  into[v] lists the edges into
    v (the target's last), and around[v] masks the edges at v.
    """

    def __init__(self, inst: Instance):
        self.order = sorted(v for v in inst.vertices if v != inst.target)
        self.pos = {v: i for i, v in enumerate(self.order)}
        self.pos[inst.target] = -1
        m = inst.m
        self.tail = [self.pos[e.tail] for e in inst.edges]
        if -1 in self.tail:
            raise TargetHasOutEdges(
                f"target {inst.target!r} has outgoing edges "
                f"{[eid for eid, u in enumerate(self.tail) if u == -1]}"
            )
        self.head = [self.pos[e.head] for e in inst.edges]
        self.cost = [e.cost for e in inst.edges]
        self.out: list[list[EdgeId]] = [[] for _ in self.order]
        for e in inst.edges:
            self.out[self.pos[e.tail]].append(e.id)
        self.into: list[list[EdgeId]] = [[] for _ in range(len(self.order) + 1)]
        for e, h in enumerate(self.head):
            self.into[h].append(e)
        self.full_mask = (1 << m) - 1
        vmask = [sum(1 << e for e in out) for out in self.out]
        self.at_tail = [vmask[u] for u in self.tail]
        self.around = [vm | sum(1 << e for e in into) for vm, into in zip(vmask, self.into)]
        self.splits: dict[int, tuple[tuple[int, ...], int]] = {}

    def edge_bits(self, mask: int) -> list[EdgeId]:
        """Edge ids in a mask, ascending, as a new list the caller owns."""
        ids = []
        while mask:
            low = mask & -mask
            ids.append(low.bit_length() - 1)
            mask ^= low
        return ids

    def choice_of_mask(self, mask: int) -> list[EdgeId] | None:
        """Per-vertex chosen edge for a tree mask; None if not one-per-vertex."""
        tail = self.tail
        choice = [-1] * len(self.order)
        while mask:
            low = mask & -mask
            eid = low.bit_length() - 1
            v = tail[eid]
            if choice[v] != -1:
                return None
            choice[v] = eid
            mask ^= low
        if -1 in choice:
            return None
        return choice

    def tree_distances(self, mask: int) -> tuple[int, ...] | None:
        """Exact distances to the target along the tree; None if not a tree.

        The choice is read off the mask in one low-bit walk.  Each vertex
        then follows its chain of choices, marking the vertices it passes,
        until a vertex with a distance or the target ends the chain, and
        the chain's distances are set backwards; reaching a vertex of the
        chain itself instead means the chain closed a cycle.  Uncached:
        the engines keep a tree's split (tree_split) instead.
        """
        choice = self.choice_of_mask(mask)
        if choice is None:
            return None
        head, cost, n = self.head, self.cost, len(choice)
        state = [0] * n + [2]  # 0 unseen, 1 on the current chain, 2 has its distance
        dist = [0] * (n + 1)
        for start in range(n):
            path: list[int] = []
            v = start
            while not state[v]:
                state[v] = 1
                path.append(v)
                v = head[choice[v]]
            if state[v] == 1:  # the chain closed a cycle
                return None
            for u in reversed(path):
                dist[u] = cost[choice[u]] + dist[head[choice[u]]]
                state[u] = 2
        return tuple(dist)

    def tree_split(self, mask: int, via=None) -> tuple[tuple[int, ...], int]:
        """(dist, better): the tree's distances (tree_distances) and the
        mask of the edges strictly better than it by them.

        `better` is the improving mask: e improves the tree iff its bit is
        set.  Cached in `splits` per mask.  A mask that is not a tree, as a
        pivot leaves on an unvalidated instance with a negative cycle,
        raises NoTreeInSubset.

        `via = (parent, e)`, passed at the two pivots (algorithms.steps and
        ExactEvaluator._rf), says the mask is the split tree `parent` with
        e swapped in at its tail u.  With d the parent's distances, only the
        parent's subtree below u (the vertices whose path runs through u)
        moves, each by the same delta = cost(e) + d(head e) - d(u); the
        mask is a tree iff head(e) lies outside that subtree.  So the split
        walks the parent's subtree over its in-edges, never the mask's (a
        walk that would not end on a cycle), and re-tests only the edges
        that touch it.
        """
        tail, head, cost = self.tail, self.head, self.cost
        if via is None:
            dist = self.tree_distances(mask)
            closes = dist is None
            better, retest = 0, range(len(tail))
        else:
            parent, e = via
            dist, better = self.splits[parent]
            dist = list(dist)
            u, h = tail[e], head[e]
            delta = cost[e] + dist[h] - dist[u]
            into, around = self.into, self.around
            touched, closes, below = 0, False, [u]
            while below:  # the parent's subtree below u
                v = below.pop()
                dist[v] += delta
                touched |= around[v]
                closes |= v == h
                for f in into[v]:
                    if parent >> f & 1:
                        below.append(tail[f])
            better &= ~touched
            retest = self.edge_bits(touched)
        if closes:
            raise NoTreeInSubset(f"tree {self.edge_bits(mask)} does not reach the target")
        for f in retest:
            if cost[f] + dist[head[f]] < dist[tail[f]]:
                better |= 1 << f
        split = self.splits[mask] = (tuple(dist), better)
        return split

    def subgraph_shortest(self, fmask: int):
        """Bellman-Ford distances and per-vertex tight edges within a subset.

        Raises NoTreeInSubset when some vertex cannot reach the target
        using only edges of the subset.
        """
        n = len(self.order)
        ids = self.edge_bits(fmask)
        dist: list[int | None] = [None] * n + [0]
        for _ in range(n):
            changed = False
            for eid in ids:
                u = self.tail[eid]
                dh = dist[self.head[eid]]
                if dh is None:
                    continue
                cand = self.cost[eid] + dh
                if dist[u] is None or cand < dist[u]:
                    dist[u] = cand
                    changed = True
            if not changed:
                break
        for v in range(n):
            if dist[v] is None:
                raise NoTreeInSubset(
                    f"vertex {self.order[v]!r} cannot reach the target within the subset"
                )
        tight: list[list[EdgeId]] = [[] for _ in range(n)]
        for eid in ids:
            u = self.tail[eid]
            if self.cost[eid] + dist[self.head[eid]] == dist[u]:  # type: ignore[operator]
                tight[u].append(eid)
        return tuple(dist), tuple(tuple(t) for t in tight)

    def resolve_tree(self, tight) -> list[EdgeId]:
        """Deterministic shortest-path tree from tight edges.

        Vertices are resolved in rounds against a snapshot of the already
        resolved set, each picking its smallest-id tight edge into it; on
        a generic subset every vertex has a single tight edge and the
        tie-break never fires.  Raises NoTreeInSubset if a round resolves
        nothing: only on an unvalidated instance with a negative cycle,
        where Bellman-Ford stops after n rounds without converging.
        """
        n = len(self.order)
        choice = [-1] * n
        resolved = [False] * n + [True]
        remaining = n
        while remaining:
            newly: list[tuple[int, EdgeId]] = []
            for v in range(n):
                if resolved[v]:
                    continue
                for eid in tight[v]:
                    if resolved[self.head[eid]]:
                        newly.append((v, eid))
                        break
            if not newly:
                raise NoTreeInSubset("tight edges do not span a tree")
            for v, eid in newly:
                choice[v] = eid
                resolved[v] = True
            remaining -= len(newly)
        return choice

    def count_optimal_trees(self, tight: int, choice) -> int:
        """Number of distinct optimal trees, counted up to two.

        The optimal trees are the trees of tight edges, `choice` is one,
        and `tight` is the mask of the other tight edges.  A second tree
        exists iff some edge v->w of `tight` can be swapped in, that is
        iff w's path in `choice` avoids v.  Given any other tree, follow
        it from a vertex where the two differ to the last differing
        vertex on that path: past it both agree, so that one swap already
        gives a tree.  The argument is combinatorial, so zero-cost cycles
        need no special case.
        """
        head, tail = self.head, self.tail
        while tight:
            low = tight & -tight
            tight ^= low
            eid = low.bit_length() - 1
            v, w = tail[eid], head[eid]
            while w >= 0 and w != v:
                w = head[choice[w]]
            if w != v:
                return 2
        return 1

    def optimum(self, fmask: int):
        """(choice, tree mask, distances, unique) of a facet subset, uncached."""
        dist, tight = self.subgraph_shortest(fmask)
        choice = self.resolve_tree(tight)
        tmask = sum(1 << eid for eid in choice)
        others = sum(1 << eid for edges in tight for eid in edges) & ~tmask
        return choice, tmask, dist, self.count_optimal_trees(others, choice) == 1

    def policy_from_choice(self, choice) -> TreePolicy:
        return TreePolicy({self.order[v]: choice[v] for v in range(len(choice))})


def facet_mask(inst: Instance, facets: Iterable[EdgeId] | None) -> int:
    """Bit mask for a facet set; None means all edges."""
    if facets is None:
        return inst._index.full_mask
    mask = 0
    for eid in facets:
        inst.edge(eid)  # refuses unknown ids
        mask |= 1 << eid
    return mask


def validate_instance(inst: Instance) -> Instance:
    """Return inst unchanged iff all instance invariants hold.

    Checks that every non-target vertex has an outgoing edge, that the
    target has none, and that no negative-cost cycle exists.  Cycles are
    detected by at most n rounds of relaxation from all-zero distances,
    so one that cannot reach the target is found too; a witness cycle is
    reported on failure.
    """
    tails = {e.tail for e in inst.edges}
    for v in sorted(inst.vertices):
        if v != inst.target and v not in tails:
            raise DanglingVertex(v)
    idx = inst._index  # refuses an edge out of the target
    tail, head, cost, n = idx.tail, idx.head, idx.cost, len(idx.order)
    dist = [0] * (n + 1)
    pred = [-1] * n  # the edge that last lowered each vertex's distance
    for _ in range(n):
        changed = False
        for eid, u in enumerate(tail):
            d = cost[eid] + dist[head[eid]]
            if dist[u] > d:
                dist[u] = d
                pred[u] = eid
                changed = True
        if not changed:
            break
    for eid, u in enumerate(tail):
        if dist[u] > cost[eid] + dist[head[eid]]:
            # After n rounds a still-violated edge out of u means u's
            # predecessor chain runs into a negative cycle rather than to
            # the target or an unlowered vertex, and n steps land on it.
            pred[u] = eid
            for _ in range(n):
                u = head[pred[u]]
            cycle, v = [u], head[pred[u]]
            while v != u:
                cycle.append(v)
                v = head[pred[v]]
            cycle.reverse()
            raise NegativeCycle([idx.order[v] for v in cycle])
    return inst


def tree_distances(inst: Instance, policy: TreePolicy) -> DistanceMap:
    """Exact integer distance to the target for every vertex along the tree."""
    _check_policy_shape(inst, policy)
    idx = inst._index
    dt = idx.tree_distances(policy.mask)
    if dt is None:
        raise NotATree("the policy's choices do not all reach the target")
    return dict(zip(idx.order + [inst.target], dt))


def improves(inst: Instance, policy: TreePolicy, eid: EdgeId) -> bool:
    """True iff pivoting eid in strictly shortens the path at its tail.

    Ties are not improvements; an edge equal to the current choice at
    its tail therefore never improves.
    """
    d = tree_distances(inst, policy)
    e = inst.edge(eid)
    return e.cost + d[e.head] < d[e.tail]


def pivot(inst: Instance, policy: TreePolicy, eid: EdgeId) -> TreePolicy:
    """Exchange the chosen edge at tail(eid) for eid.

    Requires improves(); this guard is what keeps the result a valid
    tree on instances without negative cycles.
    """
    if not improves(inst, policy, eid):
        raise NotImproving(f"edge {eid} does not improve the tree")
    e = inst.edge(eid)
    mapping = policy.choices
    mapping[e.tail] = eid
    return TreePolicy(mapping)


def optimal_tree(inst: Instance, facets: Iterable[EdgeId] | None = None) -> TreePolicy:
    """Shortest-path tree of the subgraph restricted to `facets`.

    Deterministic: ties are broken toward the smallest edge id, so the
    oracle is a function of its inputs.  On generic subsets the
    tie-break is never exercised.
    """
    idx = inst._index
    return idx.policy_from_choice(idx.optimum(facet_mask(inst, facets))[0])


def optimal_is_unique(inst: Instance, facets: Iterable[EdgeId] | None = None) -> bool:
    """True iff the subgraph restricted to `facets` has a single optimal tree."""
    return inst._index.optimum(facet_mask(inst, facets))[3]


def subgraph_distances(
    inst: Instance, facets: Iterable[EdgeId] | None = None
) -> DistanceMap:
    """Optimal distances within a facet subset, including the target."""
    idx = inst._index
    return dict(zip(idx.order + [inst.target], idx.optimum(facet_mask(inst, facets))[2]))


def edge_names(inst: Instance) -> dict[str, EdgeId]:
    """Symbolic edge names of the form <tail><ordinal>.

    The ordinal counts a vertex's outgoing edges in ascending id order,
    so the cheaper of a pair typically gets suffix 0.  Returns an empty
    mapping when the generated names would collide.  Like every engine,
    refuses an edge out of the target (TargetHasOutEdges).
    """
    idx = inst._index
    names: dict[str, EdgeId] = {}
    for v, out in zip(idx.order, idx.out):
        for k, eid in enumerate(out):
            name = f"{v}{k}"
            if name in names:
                return {}
            names[name] = eid
    return names


def _check_policy_shape(inst: Instance, policy: TreePolicy) -> None:
    expected = {v for v in inst.vertices if v != inst.target}
    if policy.choices.keys() != expected:
        raise ValueError("policy does not choose exactly one edge per vertex")
    for v, eid in policy.choices.items():
        if not 0 <= eid < inst.m or inst.edge(eid).tail != v:
            raise ValueError(f"edge {eid} does not leave vertex {v!r}")
