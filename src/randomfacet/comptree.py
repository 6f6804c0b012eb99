"""Probability-annotated computation trees for both pivoting rules.

A computation tree unrolls every decision branch of one run.  Nodes are
events: a `pick` removes one facet at a choice point, a `pivot` records
an improving exchange, and a `leaf` ends a complete execution with its
total pivot count.  Every root-to-leaf path is one possible execution,
so leaf probabilities sum to one and the probability-weighted leaf
pivot counts reproduce the exact expectations.

Both rules are built the same way, in one depth-first walk of
algorithms.branches: each segment of events hangs below the fork it
resumes and each execution ends in a leaf, so the nodes arrive in
pre-order.  Each node is appended to its parent's children as it is
made, and the tree is kept as that pre-order list too, each node
holding its parent's index.  A node's mass is the weight of the
executions below it and its probability is its mass over its parent's;
a path's probability is its leaf's mass over the root's.  Only the
children of a fork, a choice point with more than one allowed answer,
differ from their parent: any other node is its parent's only child,
with the parent's mass and the shared probability 1 it was made with.
algorithms.branches weighs each execution exactly: 1/width under the
randomized rule, width being the product of |candidates| over its
choice points, and under the permutation-driven rule the number of
orderings of the |F| facets that produce its argmin history.  One
pass serves both: each leaf's mass is its weight times the lcm of the
weights' denominators (1 for the order counts), an integer, and one
backward pass sums those integers up to the root, the lcm of the
widths under rf and |F|! under rfstar.  A fork child's probability,
its mass over its parent's, is the only Fraction the build makes, one
per distinct pair of masses.
Facets that can never re-enter a tree (the edge displaced by a pivot)
are kept in the tree rather than merged away; queries such as
pick_order_after_pivot marginalize over them on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .algorithms import branches, start_state
from .graph import EdgeId, Instance, TreePolicy, edge_names

_ONE = Fraction(1)  # the probability of every node but the children of a fork


@dataclass(slots=True)
class CompNode:
    """One event in the computation tree.

    kind is "root", "pick", "pivot" or "leaf".  `prob` is conditional
    on reaching the parent; pivot and leaf nodes always carry 1.
    `facets` and `tree` are edge-id masks of the state at the event
    (after the pivot, for pivot nodes).  `parent` is the parent's index
    in CompTree.nodes (None at the root) and `mass` the summed weight
    of the executions below the node, an integer: the lcm of the
    executions' widths at an rf root, |F|! at an rfstar root.
    """

    kind: str
    prob: Fraction
    facets: int = 0
    tree: int = 0
    edge: EdgeId | None = None
    entering: EdgeId | None = None
    leaving: EdgeId | None = None
    depth: int | None = None
    pivots: int | None = None
    parent: int | None = None
    mass: int = 0
    children: list["CompNode"] = field(default_factory=list)


@dataclass
class CompTree:
    """Computation tree of one rule from a start tree within a facet set.

    `nodes` lists every node in pre-order, so each parent precedes its
    children.
    """

    rule: str
    instance: Instance
    facets: frozenset[EdgeId]
    start: TreePolicy
    nodes: list[CompNode]

    @property
    def root(self) -> CompNode:
        return self.nodes[0]

    def paths(self) -> Iterator[tuple[Fraction, tuple[CompNode, ...]]]:
        """All root-to-leaf event paths with their probabilities."""
        nodes, total = self.nodes, self.root.mass
        for node in nodes:
            if node.kind == "leaf":
                path = [node]
                while path[-1].parent is not None:
                    path.append(nodes[path[-1].parent])
                yield Fraction(node.mass, total), tuple(reversed(path))

    def leaf_distribution(self) -> dict[int, Fraction]:
        """Probability mass of the total pivot count."""
        masses: dict[int, int] = {}
        for node in self.nodes:
            if node.kind == "leaf":
                masses[node.pivots] = masses.get(node.pivots, 0) + node.mass
        return {k: Fraction(m, self.root.mass) for k, m in masses.items()}

    def expectation(self) -> Fraction:
        """Probability-weighted total pivot count over all leaves."""
        total = sum(n.mass * n.pivots for n in self.nodes if n.kind == "leaf")
        return Fraction(total, self.root.mass)

    def pick_order_after_pivot(
        self,
        pivot_edge: EdgeId,
        candidates: frozenset[EdgeId] | None = None,
        *,
        pivot_depth: int = 0,
    ) -> tuple[Fraction, dict[EdgeId | None, Fraction]]:
        """Which of `candidates` is removed first after a given pivot.

        Conditions on executions containing a pivot of `pivot_edge`
        performed at recursion depth `pivot_depth`, then classifies each
        by the first later pick among `candidates`.  When `candidates`
        is None it defaults to the facets outside the pivoted tree other
        than the displaced edge, which can never re-enter.  Returns the
        probability of the conditioning region and the conditional
        distribution; class None collects executions that never pick a
        candidate.
        """
        found = self._picks_after_pivots(candidates, pivot_depth)
        return found.get(pivot_edge, (Fraction(0), {}))

    def _picks_after_pivots(
        self, candidates: frozenset[EdgeId] | None, pivot_depth: int
    ) -> dict[EdgeId, tuple[Fraction, dict[EdgeId | None, Fraction]]]:
        """pick_order_after_pivot for every edge pivoted at `pivot_depth`.

        One pass over the nodes.  Along each path, the first pivot of an
        edge at that depth opens its region; the first later pick among
        its candidates closes it, adding the mass of that pick to the
        class of the picked edge, and a leaf adds its mass to class None
        of every region still open.  Each region's classes partition it,
        so their sum is the region.
        """
        edge_bits = self.instance._index.edge_bits
        buckets: dict[EdgeId, dict[EdgeId | None, int]] = {}

        def add(pivot_edge: EdgeId, chosen: EdgeId | None, mass: int) -> None:
            dist = buckets.setdefault(pivot_edge, {})
            dist[chosen] = dist.get(chosen, 0) + mass

        # states[i] = (seen, waiting) below node i: seen holds the pivot
        # edges already matched on its path, waiting those still open,
        # with their candidate sets; a node that opens and closes nothing
        # shares its parent's state
        states = [(frozenset(), {})]
        for node in self.nodes[1:]:
            state = states[node.parent]
            kind = node.kind
            if kind == "pick":
                if state[1]:
                    seen, waiting = state
                    closed = [x for x, cands in waiting.items() if node.edge in cands]
                    for x in closed:
                        add(x, node.edge, node.mass)
                    if closed:
                        state = (seen, {x: c for x, c in waiting.items() if x not in closed})
            elif kind == "pivot":
                if node.depth == pivot_depth and node.entering not in state[0]:
                    seen, waiting = state
                    cands = candidates
                    if cands is None:
                        cands = frozenset(
                            eid for eid in edge_bits(node.facets & ~node.tree) if eid != node.leaving
                        )
                    state = (seen | {node.entering}, {**waiting, node.entering: cands})
            elif kind == "leaf":
                for x in state[1]:
                    add(x, None, node.mass)
            states.append(state)
        found = {}
        for x, dist in buckets.items():
            region = sum(dist.values())
            if region:
                found[x] = (
                    Fraction(region, self.root.mass),
                    {e: Fraction(m, region) for e, m in dist.items()},
                )
        return found

    def to_text(self) -> str:
        """Structured text: one node per line, plus comment metadata.

        Columns: id, parent id, kind, edge label, probability p/q, leaf
        pivot count.  Trailing comments summarize, for every pivot made
        at depth 0, which facet is removed first afterwards.
        """
        labels = _labels(self.instance)
        lines = [
            f"# comptree rule={self.rule} facets={{{_set_str(self.facets, labels)}}} "
            f"tree={{{_set_str(self.start.edge_ids, labels)}}}",
            "# columns: id parent kind label prob pivots",
        ]
        # by object: fork children with the same masses, and every only
        # child, share their probability
        probs: dict[int, str] = {}
        for nid, node in enumerate(self.nodes):
            prob = probs.get(id(node.prob))
            if prob is None:
                prob = probs[id(node.prob)] = _frac(node.prob)
            kind = node.kind
            if kind == "pick":
                lines.append(f"{nid} {node.parent} pick {labels[node.edge]} {prob} -")
            elif kind == "pivot":
                lines.append(
                    f"{nid} {node.parent} pivot {labels[node.entering]}:{labels[node.leaving]} "
                    f"{prob} -"
                )
            elif kind == "leaf":
                lines.append(f"{nid} {node.parent} leaf - {prob} {node.pivots}")
            else:
                lines.append(f"{nid} - root - {prob} -")
        after = self._picks_after_pivots(None, 0)
        for entering in sorted(after):
            region, dist = after[entering]
            for cand, p in sorted(
                dist.items(), key=lambda kv: (kv[0] is None, kv[0])
            ):
                cname = labels[cand] if cand is not None else "none"
                lines.append(
                    f"# after-pivot {labels[entering]} pick {cname} = {_frac(p)} "
                    f"(region {_frac(region)})"
                )
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Graphviz rendering: squares for picks, labelled with the state."""
        labels = _labels(self.instance)
        edge_bits = self.instance._index.edge_bits
        out = ["digraph comptree {", "  node [fontname=monospace];"]
        for nid, node in enumerate(self.nodes):
            if node.kind in ("root", "pick"):
                avail = _set_str(edge_bits(node.facets & ~node.tree), labels)
                if node.kind == "root":
                    label = f"F\\\\B = {{{avail}}}"
                    shape = "ellipse"
                else:
                    label = f"{labels[node.edge]}  {_frac(node.prob)}\\nF\\\\B = {{{avail}}}"
                    shape = "box"
            elif node.kind == "pivot":
                label = f"pivot {labels[node.entering]} (out {labels[node.leaving]})"
                shape = "diamond"
            else:
                label = f"pivots = {node.pivots}"
                shape = "ellipse"
            out.append(f'  n{nid} [shape={shape}, label="{label}"];')
            if node.parent is not None:
                out.append(f"  n{node.parent} -> n{nid};")
        out.append("}")
        return "\n".join(out) + "\n"


def comptree(inst: Instance, facets, start: TreePolicy, rule: str) -> CompTree:
    """Build the full computation tree for one rule.

    algorithms.branches refuses, with EnumerationBoundExceeded, a tree
    of more than algorithms.EXECUTION_BUDGET leaves, and an rfstar tree
    over more than orders.MAX_UNIVERSE facets before any run.
    """
    idx, fmask = start_state(inst, facets, start)
    root = CompNode("root", _ONE, fmask, start.mask)
    nodes = [root]
    forks = []  # the nodes a segment ended at without a leaf
    leaves = []  # (leaf, its execution's weight)
    # path[k]: the node the segments below k forks hang from, its index
    # and the number of pivots on the way to it
    path = [(root, 0, 0)]
    for level, events, weight in branches(idx, fmask, start.mask, rule):
        node, at, pivots = path[level]
        del path[level + 1 :]
        for ev in events:  # each node goes to its parent's children as it is made
            if ev[0] == "descend":  # ("descend", fmask, bmask, picks): a pick node each
                _, f, b, picks = ev
                for e in picks:
                    kid = CompNode("pick", _ONE, f, b, e, None, None, None, None, at, 0, [])
                    node.children.append(kid)
                    node, at = kid, len(nodes)
                    nodes.append(kid)
                    f &= ~(1 << e)
            else:
                _, entering, leaving, depth, _, f, b = ev
                kid = CompNode("pivot", _ONE, f, b, None, entering, leaving, depth, None, at, 0, [])
                node.children.append(kid)
                node, at = kid, len(nodes)
                nodes.append(kid)
                pivots += 1
        path.append((node, at, pivots))
        if weight is None:
            forks.append(node)
        else:
            leaf = CompNode("leaf", _ONE, 0, 0, None, None, None, None, pivots, at, 0, [])
            node.children.append(leaf)
            nodes.append(leaf)
            leaves.append((leaf, weight))
    # integer masses: each weight times the lcm of their denominators;
    # children follow their parent, so one backward pass totals them
    scale = math.lcm(*(w.denominator for _, w in leaves))
    for leaf, w in leaves:
        leaf.mass = w.numerator * (scale // w.denominator)
    for node in reversed(nodes[1:]):
        nodes[node.parent].mass += node.mass
    # only a fork's children get a probability below 1, one per mass pair
    ratios: dict[tuple[int, int], Fraction] = {}
    for node in forks:
        for kid in node.children:
            key = (kid.mass, node.mass)
            prob = ratios.get(key)
            if prob is None:
                prob = ratios[key] = Fraction(kid.mass, node.mass)
            kid.prob = prob
    return CompTree(
        rule=rule,
        instance=inst,
        facets=frozenset(idx.edge_bits(fmask)),
        start=start,
        nodes=nodes,
    )


def _labels(inst: Instance) -> list[str]:
    """Each edge id's label: its symbolic name, or the decimal id when names collide."""
    labels = [str(e) for e in range(inst.m)]
    for name, e in edge_names(inst).items():
        labels[e] = name
    return labels


def _set_str(ids, labels: list[str]) -> str:
    return ",".join(labels[e] for e in sorted(ids))


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"
