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
pre-order and the tree is kept as that list, each node holding its
parent's index.  A node's mass is the weight of the executions below
it and its probability is its mass over its parent's; a path's
probability is its leaf's mass over the root's.  Only the children of
a fork, a choice point with more than one allowed answer, differ from
their parent: any other node is its parent's only child, with the
parent's mass and one shared probability 1, so a Fraction is built
only at fork children.  For the randomized rule each decision branch
weighs the product of 1/|candidates| over its choice points, so each
choice point branches uniformly: masses run top-down from 1 at the
root, a fork's k children sharing the probability 1/k and the mass
1/k of their parent's.  For the permutation-driven rule each argmin
history weighs the number of orderings of the |F| facets that produce
it, an integer; masses are those integers summed bottom-up from |F|!
at the root, and a branch probability is the number of orderings
consistent with the history and choosing that facet next, divided by
the number consistent with the history.
Facets that can never re-enter a tree (the edge displaced by a pivot)
are kept in the tree rather than merged away; queries such as
pick_order_after_pivot marginalize over them on demand.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .algorithms import RF, branches, start_state
from .graph import EdgeId, Instance, TreePolicy, edge_names

_ONE = Fraction(1)  # shared by every node that is its parent's only child


@dataclass
class CompNode:
    """One event in the computation tree.

    kind is "root", "pick", "pivot" or "leaf".  `prob` is conditional
    on reaching the parent; pivot and leaf nodes always carry 1.
    `facets` and `tree` are edge-id masks of the state at the event
    (after the pivot, for pivot nodes).  `parent` is the parent's index
    in CompTree.nodes (None at the root) and `mass` the summed weight
    of the executions below the node: 1 at an rf root, |F|! at an
    rfstar root.
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
    mass: Fraction | int = 0
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
        masses: dict[int, Fraction | int] = {}
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
        buckets: dict[EdgeId, dict[EdgeId | None, Fraction | int]] = {}

        def add(pivot_edge: EdgeId, chosen: EdgeId | None, mass: Fraction | int) -> None:
            dist = buckets.setdefault(pivot_edge, {})
            dist[chosen] = dist.get(chosen, 0) + mass

        # states[i] = (seen, waiting) below node i: seen holds the pivot
        # edges already matched on its path, waiting those still open,
        # with their candidate sets
        states = [(frozenset(), {})]
        for node in self.nodes[1:]:
            seen, waiting = states[node.parent]
            if node.kind == "pick":
                closed = [x for x, cands in waiting.items() if node.edge in cands]
                for x in closed:
                    add(x, node.edge, node.mass)
                if closed:
                    waiting = {x: c for x, c in waiting.items() if x not in closed}
            elif node.kind == "pivot" and node.depth == pivot_depth and node.entering not in seen:
                seen = seen | {node.entering}
                cands = candidates
                if cands is None:
                    cands = frozenset(
                        eid for eid in edge_bits(node.facets & ~node.tree) if eid != node.leaving
                    )
                waiting = {**waiting, node.entering: cands}
            elif node.kind == "leaf":
                for x in waiting:
                    add(x, None, node.mass)
            states.append((seen, waiting))
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
        names = _name_map(self.instance)
        lines = [
            f"# comptree rule={self.rule} facets={{{_set_str(self.facets, names)}}} "
            f"tree={{{_set_str(self.start.edge_ids, names)}}}",
            "# columns: id parent kind label prob pivots",
        ]
        for nid, node in enumerate(self.nodes):
            if node.kind == "pick":
                label = names.get(node.edge, str(node.edge))
            elif node.kind == "pivot":
                label = (
                    f"{names.get(node.entering, str(node.entering))}"
                    f":{names.get(node.leaving, str(node.leaving))}"
                )
            else:
                label = "-"
            pivots = str(node.pivots) if node.kind == "leaf" else "-"
            parent = "-" if node.parent is None else str(node.parent)
            lines.append(f"{nid} {parent} {node.kind} {label} {_frac(node.prob)} {pivots}")
        after = self._picks_after_pivots(None, 0)
        for entering in sorted(after):
            region, dist = after[entering]
            ename = names.get(entering, str(entering))
            for cand, p in sorted(
                dist.items(), key=lambda kv: (kv[0] is None, kv[0])
            ):
                cname = names.get(cand, str(cand)) if cand is not None else "none"
                lines.append(
                    f"# after-pivot {ename} pick {cname} = {_frac(p)} "
                    f"(region {_frac(region)})"
                )
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Graphviz rendering: squares for picks, labelled with the state."""
        names = _name_map(self.instance)
        out = ["digraph comptree {", "  node [fontname=monospace];"]
        for nid, node in enumerate(self.nodes):
            if node.kind in ("root", "pick"):
                avail = _set_str(self.instance._index.edge_bits(node.facets & ~node.tree), names)
                if node.kind == "root":
                    label = f"F\\\\B = {{{avail}}}"
                    shape = "ellipse"
                else:
                    ename = names.get(node.edge, str(node.edge))
                    label = f"{ename}  {_frac(node.prob)}\\nF\\\\B = {{{avail}}}"
                    shape = "box"
            elif node.kind == "pivot":
                label = (
                    f"pivot {names.get(node.entering, str(node.entering))} "
                    f"(out {names.get(node.leaving, str(node.leaving))})"
                )
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
    bmask = start.mask
    nodes = [CompNode(kind="root", prob=_ONE, facets=fmask, tree=bmask)]
    # path[k]: the index of the node the segments below k forks hang
    # from, and the number of pivots on the way to it
    path = [(0, 0)]
    for forks, events, weight in branches(idx, fmask, bmask, rule):
        at, pivots = path[forks]
        del path[forks + 1 :]
        for ev in events:  # probabilities are set once every mass is known
            if ev[0] == "descend":  # ("descend", fmask, bmask, picks): a pick node each
                _, f, b, picks = ev
                for e in picks:
                    nodes.append(CompNode("pick", 1, f, b, edge=e, parent=at))
                    at = len(nodes) - 1
                    f &= ~(1 << e)
            else:
                _, entering, leaving, depth, _, f, b = ev
                nodes.append(CompNode("pivot", 1, f, b, entering=entering, leaving=leaving,
                                      depth=depth, parent=at))
                pivots += 1
                at = len(nodes) - 1
        path.append((at, pivots))
        if weight is not None:
            nodes.append(CompNode("leaf", 1, pivots=pivots, parent=at, mass=weight))
    # children follow their parent, so one forward pass links the
    # children in order; rfstar then totals its integer masses backwards
    for node in nodes[1:]:
        nodes[node.parent].children.append(node)
    if rule == RF:
        nodes[0].mass = _ONE
    else:
        for node in reversed(nodes[1:]):
            nodes[node.parent].mass += node.mass
    # an only child has its parent's mass and probability 1; the children
    # of a fork share 1/k under rf, the uniform pick among its k answers
    for node in nodes:
        kids = node.children
        if len(kids) == 1:
            kids[0].prob = _ONE
            if rule == RF:
                kids[0].mass = node.mass
        elif kids and rule == RF:
            prob = Fraction(1, len(kids))
            mass = node.mass * prob
            for kid in kids:
                kid.prob, kid.mass = prob, mass
        else:
            for kid in kids:
                kid.prob = Fraction(kid.mass, node.mass)
    return CompTree(
        rule=rule,
        instance=inst,
        facets=frozenset(idx.edge_bits(fmask)),
        start=start,
        nodes=nodes,
    )


def _name_map(inst: Instance) -> dict[EdgeId, str]:
    return {eid: name for name, eid in edge_names(inst).items()}


def _set_str(ids, names) -> str:
    return ",".join(names.get(e, str(e)) for e in sorted(ids))


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"
