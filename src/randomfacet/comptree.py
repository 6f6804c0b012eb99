"""Probability-annotated computation trees for both pivoting rules.

A computation tree unrolls every decision branch of one run.  Nodes are
events: a `pick` removes one facet at a choice point, a `pivot` records
an improving exchange, and a `leaf` ends a complete execution with its
total pivot count.  Every root-to-leaf path is one possible execution,
so leaf probabilities sum to one and the probability-weighted leaf
pivot counts reproduce the exact expectations.

Both rules are built the same way, in one depth-first walk of
algorithms.branches: each segment of events hangs below the fork it
resumes, each execution ends in a leaf, and a node's probability is its
mass (the weight of the executions below it) over its parent's.  For
the randomized rule each decision branch weighs the product of
1/|candidates| over its choice points, so each choice point branches
uniformly.  For the permutation-driven rule each argmin history weighs
the number of orderings of the |F| facets that produce it; a branch
probability is then the number of orderings consistent with the history
and choosing that facet next, divided by the number consistent with the
history.
Facets that can never re-enter a tree (the edge displaced by a pivot)
are kept in the tree rather than merged away; queries such as
pick_order_after_pivot marginalize over them on demand.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .algorithms import branches, start_state
from .exact import check_enumeration_bound
from .graph import EdgeId, Instance, TreePolicy, edge_names


@dataclass
class CompNode:
    """One event in the computation tree.

    kind is "root", "pick", "pivot" or "leaf".  `prob` is conditional
    on reaching the parent; pivot and leaf nodes always carry 1.
    `facets` and `tree` are edge-id masks of the state at the event
    (after the pivot, for pivot nodes).
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
    children: list["CompNode"] = field(default_factory=list)


@dataclass
class CompTree:
    """Computation tree of one rule from a start tree within a facet set."""

    rule: str
    instance: Instance
    facets: frozenset[EdgeId]
    start: TreePolicy
    root: CompNode

    def paths(self) -> Iterator[tuple[Fraction, tuple[CompNode, ...]]]:
        """All root-to-leaf event paths with their probabilities."""

        def walk(node: CompNode, prob: Fraction, prefix: tuple[CompNode, ...]):
            here = prefix + (node,)
            if node.kind == "leaf":
                yield prob, here
                return
            for child in node.children:
                yield from walk(child, prob * child.prob, here)

        yield from walk(self.root, Fraction(1), ())

    def leaf_distribution(self) -> dict[int, Fraction]:
        """Probability mass of the total pivot count."""
        pmf: dict[int, Fraction] = {}
        for prob, nodes in self.paths():
            k = nodes[-1].pivots
            pmf[k] = pmf.get(k, Fraction(0)) + prob
        return pmf

    def expectation(self) -> Fraction:
        """Probability-weighted total pivot count over all leaves."""
        total = Fraction(0)
        for prob, nodes in self.paths():
            total += prob * nodes[-1].pivots
        return total

    def root_distribution(self) -> dict[EdgeId, Fraction]:
        """Probability of each facet being removed first."""
        return {c.edge: c.prob for c in self.root.children if c.kind == "pick"}

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

        One walk of the tree.  Along each path, the first pivot of an
        edge at that depth opens its region; the first later pick among
        its candidates closes it, adding the probability of reaching
        that pick to the class of the picked edge, and a leaf adds its
        probability to class None of every region still open.  Each
        region's classes partition it, so their sum is the region.
        """
        edge_bits = self.instance._index.edge_bits
        buckets: dict[EdgeId, dict[EdgeId | None, Fraction]] = {}

        def add(pivot_edge: EdgeId, chosen: EdgeId | None, prob: Fraction) -> None:
            dist = buckets.setdefault(pivot_edge, {})
            dist[chosen] = dist.get(chosen, Fraction(0)) + prob

        # seen: pivot edges already matched on this path; waiting: those
        # still open, with their candidate sets
        def walk(node: CompNode, prob: Fraction, seen: frozenset, waiting: dict) -> None:
            if node.kind == "pick":
                closed = [x for x, cands in waiting.items() if node.edge in cands]
                for x in closed:
                    add(x, node.edge, prob)
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
                    add(x, None, prob)
            for child in node.children:
                walk(child, prob * child.prob, seen, waiting)

        walk(self.root, Fraction(1), frozenset(), {})
        found = {}
        for x, dist in buckets.items():
            region = sum(dist.values())
            if region:
                found[x] = (region, {e: p / region for e, p in dist.items()})
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
        counter = itertools.count()

        def emit(node: CompNode, parent: int | None):
            nid = next(counter)
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
            parent_s = "-" if parent is None else str(parent)
            lines.append(
                f"{nid} {parent_s} {node.kind} {label} {_frac(node.prob)} {pivots}"
            )
            for child in node.children:
                emit(child, nid)

        emit(self.root, None)
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
        counter = itertools.count()

        def emit(node: CompNode, parent: int | None):
            nid = next(counter)
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
            if parent is not None:
                out.append(f"  n{parent} -> n{nid};")
            for child in node.children:
                emit(child, nid)

        emit(self.root, None)
        out.append("}")
        return "\n".join(out) + "\n"


def comptree(
    inst: Instance,
    facets,
    start: TreePolicy,
    rule: str,
    *,
    enumeration_bound: int | None = None,
) -> CompTree:
    """Build the full computation tree for one rule.

    Refuses more facets than the enumeration bound before any run.
    """
    idx, fmask, choice = start_state(inst, facets, start)
    bmask = start.mask
    check_enumeration_bound(fmask.bit_count(), enumeration_bound)
    root = CompNode(kind="root", prob=Fraction(1), facets=fmask, tree=bmask)
    # path[k]: the node the segments below k forks hang from, and the
    # number of pivots on the way to it
    path = [(root, 0)]
    for forks, events, weight in branches(idx, fmask, choice, bmask, rule):
        node, pivots = path[forks]
        del path[forks + 1 :]
        for ev in events:  # _normalize sets the probabilities
            if ev[0] == "pick":  # ("pick", fmask, bmask, e)
                child = CompNode("pick", 1, ev[1], ev[2], edge=ev[3])
            else:
                _, entering, leaving, depth, _, f, b = ev
                child = CompNode("pivot", 1, f, b, entering=entering, leaving=leaving, depth=depth)
                pivots += 1
            node.children.append(child)
            node = child
        path.append((node, pivots))
        if weight is not None:  # the leaf holds the weight until _normalize
            node.children.append(CompNode(kind="leaf", prob=weight, pivots=pivots))
    _normalize(root)
    return CompTree(
        rule=rule,
        instance=inst,
        facets=frozenset(idx.edge_bits(fmask)),
        start=start,
        root=root,
    )


def _normalize(node: CompNode) -> Fraction | int:
    """Set each child's probability below `node` to its mass over its
    parent's, starting from the leaf weights; returns the node's mass."""
    if node.kind == "leaf":
        return node.prob
    masses = [_normalize(child) for child in node.children]
    total = sum(masses)
    for child, mass in zip(node.children, masses):
        child.prob = Fraction(mass, total)
    return total


def _name_map(inst: Instance) -> dict[EdgeId, str]:
    return {eid: name for name, eid in edge_names(inst).items()}


def _set_str(ids, names) -> str:
    return ",".join(names.get(e, str(e)) for e in sorted(ids))


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"
