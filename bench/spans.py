"""Layer-boundary spans for the traced benchmark run.

A Tracer wraps the entry points of each module of src/randomfacet (the
layers) and records, per wrapped call, a span: name, start, end and the
enclosing span.  A layer's self time is its spans' duration minus the
part covered by child spans.  The wrappers live here, in the benchmark;
the program itself carries no tracing.

Callers often import a name directly (exact imports run_random_facet_star,
montecarlo both runners, instances orientation_view, cli most entry
points), so each wrapper is installed on every module where a caller
looks the name up.  Methods are wrapped on their class.

Calls that happen hundreds of thousands of times per pass (hot=True) are
aggregated into per-name calls and self time instead of being stored one
by one; every other span is kept in memory and written out at the end.
Counting hooks run inside the span they count, so a layer's traced self
time includes its own counting.  _Index.edge_bits and choice_of_mask are
not wrapped: they are called inside every loop, and their time counts in
the calling layer.
"""
from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("graph", "algorithms", "exact", "comptree", "orders",
          "montecarlo", "cube", "instances", "cli")


class Tracer:
    def __init__(self):
        self.reset()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # boundaries the program no longer has

    def reset(self) -> None:
        """Drop everything recorded; called before each traced pass."""
        self.stack: list[list] = []  # open frames: [name, child seconds, span id]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, name, query, start, end)
        self.query = -1
        self._keep: dict[int, object] = {}  # holds objects whose id() keys a set
        self._seen: dict[str, set] = defaultdict(set)

    def distinct(self, counter: str, owner, key) -> None:
        """Count `key` once per live `owner` object under `counter`."""
        self._keep[id(owner)] = owner
        seen = self._seen[counter]
        k = (id(owner), key)
        if k not in seen:
            seen.add(k)
            self.counts[counter] += 1

    def wrap(self, name: str, fn, *, hot: bool = False, outer: bool = False, note=None):
        """A callable that runs `fn` inside a span called `name`.

        `outer` also sums the duration of outermost calls (recursion counted
        once); `note(args, result)` updates counters inside the span.
        """
        stack, calls, self_s, outer_s = self.stack, self.calls, self.self_s, self.outer_s
        spans, clock = self.spans, time.perf_counter
        depth = [0]

        def traced(*args, **kwargs):
            if hot:
                frame = [name, 0.0, None]
            else:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                frame = [name, 0.0, len(spans)]
                spans.append(None)  # reserve the id; filled in at exit
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(args, result)
                return result
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if outer and not depth[0]:
                    outer_s[name] += dur
                if not hot:
                    spans[frame[2]] = (frame[2], parent, name, self.query, start, end)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owners, attr: str, name: str, **opts) -> None:
        """Replace `attr` on every owner (module or class) by one traced wrapper."""
        present = [o for o in owners if attr in vars(o)]
        if not present:
            self.missing.append(name)
            return
        wrapper = self.wrap(name, vars(present[0])[attr], **opts)
        for owner in present:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def count_yields(self, owners, attr: str, counter: str) -> None:
        """Count the items a generator function yields, without a span."""
        present = [o for o in owners if attr in vars(o)]
        if not present:
            self.missing.append(counter)
            return
        gen = vars(present[0])[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            for item in gen(*args, **kwargs):
                counts[counter] += 1
                yield item

        for owner in present:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, m) -> None:
        """Wrap the layer boundaries of the modules in namespace `m`."""
        self.missing = []
        g, a, ex, ct, o = m.graph, m.algorithms, m.exact, m.comptree, m.orders
        mc, cu, ins, cli = m.montecarlo, m.cube, m.instances, m.cli
        idx = g._Index

        self.patch([idx], "subgraph_shortest", "graph.subgraph_shortest", hot=True)
        self.patch([idx], "resolve_tree", "graph.resolve_tree", hot=True)
        self.patch([idx], "count_optimal_trees", "graph.count_optimal_trees", hot=True)
        self.patch([idx], "tree_distances", "graph.tree_distances", hot=True,
                   note=lambda args, _: self.distinct(
                       "graph.tree_distances.distinct_masks", args[0], args[1]))
        self.patch([g, cu], "improves", "graph.improves", hot=True)

        def ran(args, result):
            self.counts["algorithms.pivots"] += result.pivot_count
            # the runner's caller is the frame below the runner's own
            if len(self.stack) > 1 and self.stack[-2][0] == "exact.rfstar":
                self.counts["exact.rfstar.orders_enumerated"] += 1

        self.patch([a, mc], "run_random_facet", "algorithms.run_random_facet",
                   hot=True, note=ran)
        self.patch([a, ex, mc], "run_random_facet_star", "algorithms.run_random_facet_star",
                   hot=True, note=ran)

        self.patch([ex, cli], "expected_pivots_rf", "exact.expected_pivots_rf")
        self.patch([ex, cli], "expected_pivots_rf_star", "exact.expected_pivots_rf_star")
        self.patch([ex.ExactEvaluator], "expected_rf", "exact.expected_rf", hot=True,
                   outer=True, note=lambda args, _: self.distinct(
                       "exact.expected_rf.memo_states", args[0], args[1:3]))
        self.patch([ex.ExactEvaluator], "optimal", "exact.optimal", hot=True,
                   note=lambda args, _: self.distinct("exact.optimal.subsets", args[0], args[1]))
        self.patch([ex.ExactEvaluator], "expected_rf_star", "exact.rfstar")

        def nodes(_, tree):
            self.counts["comptree.nodes"] += _nodes(tree.root)

        self.patch([ct, cli], "comptree", "comptree.build", note=nodes)
        self.patch([ct.CompTree], "to_text", "comptree.render")

        def extensions(_, result):
            self.counts["orders.count_linear_extensions.extensions_total"] += result

        self.patch([o, cli], "count_linear_extensions", "orders.count_linear_extensions",
                   note=extensions)
        self.patch([o, cli], "conditional_order_probability",
                   "orders.conditional_order_probability")

        self.patch([mc, cli], "estimate_expected_pivots", "montecarlo.estimate_expected_pivots")
        self.patch([mc], "pivot_samples", "montecarlo.pivot_samples")
        self.patch([mc], "trial_rng", "montecarlo.trial_rng", hot=True)

        self.patch([cu, ins], "orientation_view", "cube.orientation_view")
        self.patch([cu.OrientationView], "successors", "cube.successors", hot=True)
        self.patch([cu.OrientationView], "unique_sink_every_face",
                   "cube.unique_sink_every_face")

        self.patch([ins], "derive_errata_instance", "instances.derive_errata_instance")
        self.patch([ins], "genericity_check", "instances.genericity_check")
        self.count_yields([ins], "errata_candidates", "instances.candidates_scanned")

        self.patch([cli], "main", "cli.main")

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += s
        return out

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "name", "query", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]


def _nodes(root) -> int:
    count, todo = 0, [root]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.children)
    return count
