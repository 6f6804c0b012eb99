"""Test-only oracles, independent of the library's exact engines."""
import contextlib
import itertools
import random
import signal
from collections import Counter
from fractions import Fraction

from randomfacet import (
    DanglingVertex,
    Edge,
    Instance,
    NegativeCycle,
    NonGenericInstance,
    NoTreeInSubset,
    Permutation,
    TargetHasOutEdges,
    TreePolicy,
    run_random_facet,
    run_random_facet_star,
    validate_instance,
)
from randomfacet.algorithms import CallKind, start_state, steps
from randomfacet.graph import _Index


class ScriptedRng:
    """Answers randrange from a fixed script, then zeros; logs every draw."""

    def __init__(self, script=()):
        self.script = list(script)
        self.pos = 0
        self.log = []

    def randrange(self, k):
        self.log.append(k)
        value = self.script[self.pos] if self.pos < len(self.script) else 0
        self.pos += 1
        return value


def rf_branches(inst, facets, start):
    """Every decision branch of run_random_facet with its probability.

    Drives the production runner with scripted draws, discovering the
    branch factor of each choice point from the rng log; yields
    (probability, RunResult) pairs whose probabilities sum to one.
    """
    agenda = [()]
    while agenda:
        prefix = agenda.pop()
        rng = ScriptedRng(prefix)
        result = run_random_facet(inst, facets, start, rng)
        prob = Fraction(1)
        for k in rng.log:
            prob /= k
        yield prob, result
        answers = list(prefix) + [0] * (len(rng.log) - len(prefix))
        for i in range(len(prefix), len(rng.log)):
            for alt in range(1, rng.log[i]):
                agenda.append(tuple(answers[:i]) + (alt,))


def executions(segments):
    """(weight, events) of every execution in an algorithms.branches walk.

    Joins each segment that ends an execution to the segments of the
    forks above it.
    """
    path = []
    for forks, events, weight in segments:
        del path[forks:]
        path.append(events)
        if weight is not None:
            yield weight, [ev for segment in path for ev in segment]


def rf_expectation_by_branches(inst, facets, start):
    """Probability-weighted pivot count over all decision branches."""
    total = Fraction(0)
    mass = Fraction(0)
    for prob, result in rf_branches(inst, facets, start):
        total += prob * result.pivot_count
        mass += prob
    assert mass == 1
    return total


def rf_expectation_by_subset_solves(inst, facets, start):
    """Exact rf by the plain memoized recursion over (facet mask, tree mask).

    Memoizes values only: no stop at an already optimal tree and no
    optimum cache, so each choice point solves its subset afresh with
    _Index.optimum.  Unlike the library, it is an oracle for generic
    subsets only: it raises NonGenericInstance at the first subset it
    meets with two optimal trees, removable edges taken in ascending
    order.
    """
    idx, fmask = start_state(inst, facets, start)
    memo = {}

    def rf(f, b):
        if (f, b) not in memo:
            free = idx.edge_bits(f & ~b)
            total = Fraction(0)
            for e in free:
                sub = f & ~(1 << e)
                total += rf(sub, b)
                choice, tmask, dist, unique = idx.optimum(sub)
                if not unique:
                    raise NonGenericInstance(
                        f"facet subset {idx.edge_bits(sub)} has more than one optimal tree"
                    )
                u = idx.tail[e]
                if idx.cost[e] + dist[idx.head[e]] < dist[u]:
                    total += 1 + rf(f, tmask & ~(1 << choice[u]) | 1 << e)
            memo[f, b] = total / len(free) if free else Fraction(0)
        return memo[f, b]

    return rf(fmask, start.mask)


def cube_faces(n):
    """All sub-cubes of the n-cube: every choice of free axes and fixed bits."""
    for free in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    ):
        fixed = [j for j in range(n) if j not in free]
        for values in itertools.product("01", repeat=len(fixed)):
            verts = []
            for combo in itertools.product("01", repeat=len(free)):
                bits = [""] * n
                for j, v in zip(fixed, values):
                    bits[j] = v
                for j, v in zip(free, combo):
                    bits[j] = v
                verts.append("".join(bits))
            yield verts


def unique_sink_by_faces(view):
    """True iff every face of the view's cube has exactly one sink.

    The definition itself, checked face by face: a vertex is a sink of a
    face when no arrow leaves it towards another vertex of that face.
    """
    for verts in cube_faces(len(view.encoding.axes)):
        vset = set(verts)
        sinks = [
            b for b in verts if not any(dst in vset for dst in view.successors(b))
        ]
        if len(sinks) != 1:
            return False
    return True


def all_bits(enc):
    """Every bit string of the encoding's cube, in ascending binary order."""
    for combo in itertools.product("01", repeat=len(enc.axes)):
        yield "".join(combo)


def has_cycle_by_dfs(view):
    """True iff the view's arrows close a directed cycle.

    A recursive depth-first search over bit strings and the public
    successors, independent of the view's own integer walk.
    """
    state = {}

    def dfs(bits):
        state[bits] = "open"
        for nxt in view.successors(bits):
            if state.get(nxt) == "open" or (nxt not in state and dfs(nxt)):
                return True
        state[bits] = "done"
        return False

    return any(bits not in state and dfs(bits) for bits in all_bits(view.encoding))


def paths_by_enumeration(view, src, dst):
    """Number of simple directed paths from src to dst, walked one by one."""

    def walk(bits, seen):
        if bits == dst:
            return 1
        return sum(walk(nxt, seen | {nxt}) for nxt in view.successors(bits) if nxt not in seen)

    return walk(src, {src})


def rfstar_by_permutations(inst, facets, start):
    """Pivot counts of run_random_facet_star over every order of the facets.

    Runs the public runner once per permutation of F; returns a Counter
    mapping a pivot count to the number of orders giving it, whose
    values sum to |F|!.
    """
    ids = sorted(inst.all_edges() if facets is None else facets)
    counts = Counter()
    for order in itertools.permutations(ids):
        sigma = Permutation.from_order(order)
        counts[run_random_facet_star(inst, ids, start, sigma).pivot_count] += 1
    return counts


def rfstar_histories_by_permutations(inst, facets, start):
    """Argmin histories of the permutation-driven rule over every order of F.

    Runs algorithms.steps once per permutation of F, each descent
    removing F minus B in that order; returns a Counter mapping a pick
    sequence to the number of orders giving it, whose values sum to |F|!.
    """
    idx, fmask = start_state(inst, facets, start)
    counts = Counter()
    for order in itertools.permutations(idx.edge_bits(fmask)):
        events = steps(idx, fmask, start.mask, Permutation.from_order(order).sort)
        counts[pick_sequence(events)] += 1
    return counts


def by_pick(events):
    """algorithms.steps events with each descent spelled out as its picks.

    ("descend", fmask, bmask, picks) becomes one ("pick", f, bmask, e) per
    pick e, f being fmask minus the picks before e: the events of
    steps_by_pick.  Other events pass unchanged.
    """
    out = []
    for ev in events:
        if ev[0] == "descend":
            _, f, b, picks = ev
            for e in picks:
                out.append(("pick", f, b, e))
                f &= ~(1 << e)
        else:
            out.append(ev)
    return out


def pick_sequence(events):
    """The picks of a run's steps events, in order."""
    return tuple(e for ev in events if ev[0] == "descend" for e in ev[3])


def steps_by_pick(idx, fmask, choice, bmask, order, frames=(), depth=0, kind=CallKind.ROOT):
    """algorithms.steps one choice point at a time: the differential oracle.

    The same recursion with one frame (facet mask, removed edge, depth,
    kind) and one ("pick", fmask, bmask, e) event per choice point.  On
    the way back each popped frame tests its own edge against the tree's
    distances, and the next descent's candidates are F minus B decoded
    from the masks.  Pauses and resumes like steps, with these frames.
    """
    choice = list(choice)
    stack = list(frames)
    cands = idx.edge_bits(fmask & ~bmask)
    while True:
        for e in order(cands):
            yield ("pick", fmask, bmask, e)
            stack.append((fmask, e, depth, kind))
            fmask &= ~(1 << e)
            depth += 1
            kind = CallKind.FIRST
        if fmask & ~bmask:
            yield ("pause", (fmask, bmask, tuple(choice), tuple(stack), depth, kind))
            return
        dist = idx.tree_distances(bmask)
        while stack:
            fmask, e, depth, kind = stack.pop()
            u = idx.tail[e]
            if idx.cost[e] + dist[idx.head[e]] < dist[u]:
                leaving = choice[u]
                choice[u] = e
                bmask = (bmask & ~(1 << leaving)) | (1 << e)
                yield ("pivot", e, leaving, depth, kind, fmask, bmask)
                depth += 1
                kind = CallKind.SECOND
                cands = idx.edge_bits(fmask & ~bmask)
                break
        else:
            return


def fisher_yates_permutation(rng, ids):
    """A uniform Permutation of `ids` drawn as Monte Carlo draws it.

    Fisher-Yates over the ids in ascending order, one rng.randrange(i + 1)
    per position i from the last down to 1; the shuffled list is the
    order, first element ranked first.
    """
    order = sorted(ids)
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    return Permutation.from_order(order)


def pick_order_by_paths(tree, pivot_edge, candidates=None, pivot_depth=0):
    """CompTree.pick_order_after_pivot, path by path.

    Walks every root-to-leaf path of `tree` separately: finds the first
    pivot of `pivot_edge` at `pivot_depth` on it, then the first later
    pick among the candidates (by default the facets outside the pivoted
    tree other than the displaced edge).
    """
    region = Fraction(0)
    buckets = {}
    for prob, nodes in tree.paths():
        at = next(
            (
                i
                for i, node in enumerate(nodes)
                if node.kind == "pivot"
                and node.entering == pivot_edge
                and node.depth == pivot_depth
            ),
            None,
        )
        if at is None:
            continue
        region += prob
        cands = candidates
        if cands is None:
            pv = nodes[at]
            free = pv.facets & ~pv.tree
            cands = {e for e in range(free.bit_length()) if free >> e & 1} - {pv.leaving}
        chosen = next(
            (n.edge for n in nodes[at + 1 :] if n.kind == "pick" and n.edge in cands), None
        )
        buckets[chosen] = buckets.get(chosen, Fraction(0)) + prob
    if region == 0:
        return Fraction(0), {}
    return region, {e: p / region for e, p in buckets.items()}


def cyclic_instance(n, out_degree, cost_bound, seed):
    """Seeded (instance, start tree) whose graph may close cycles.

    Vertices v0..v{n-1} plus target t.  Each edge's head is any vertex,
    the tail itself included, or t, and its cost is drawn from
    0..cost_bound, so no cycle is negative while zero-cost cycles and
    ties are common.  Draws are rejected until some tree exists; the
    start is the real tree (its choices all reach t) with the largest
    distance sum, the first such in real_trees order.  Unlike
    randomfacet.random_instance, genericity is not checked.
    """
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    while True:
        edges = []
        for v in names:
            for _ in range(out_degree):
                head = rng.choice(names + ["t"])
                edges.append(Edge(len(edges), v, head, rng.randrange(cost_bound + 1)))
        inst = validate_instance(Instance.build("t", edges))
        trees = real_trees(inst)
        if trees:
            idx = inst._index
            return inst, max(trees, key=lambda tree: sum(idx.tree_distances(tree.mask)))


def real_trees(inst):
    """Every tree policy of inst whose choices all reach the target.

    Decided by following the choices from each vertex for at most n
    steps, without the library's distance routine.
    """
    idx = inst._index
    n = len(idx.order)
    trees = []
    for ids in itertools.product(*(idx.out[v] for v in range(n))):
        nxt = {idx.tail[eid]: idx.head[eid] for eid in ids}
        ends = list(range(n))
        for _ in range(n):
            ends = [v if v < 0 else nxt[v] for v in ends]
        if all(v < 0 for v in ends):
            trees.append(TreePolicy.from_edge_ids(inst, ids))
    return trees


def optima_by_real_trees(inst):
    """Per facet mask, (distances, optimal trees) by brute force over real trees.

    The candidates are the real trees inside the mask; the distances are
    their pointwise minimum (a tuple in _Index vertex order) and the
    optimal trees those that reach it.  A mask holding no real tree maps
    to None.  Bellman-Ford is not involved.
    """
    idx = inst._index
    trees = [(tree, idx.tree_distances(tree.mask)) for tree in real_trees(inst)]
    optima = {}
    for fmask in range(1 << inst.m):
        inside = [(tree, d) for tree, d in trees if not tree.mask & ~fmask]
        if not inside:
            optima[fmask] = None
            continue
        best = tuple(map(min, zip(*(d for _, d in inside))))
        optima[fmask] = best, [tree for tree, d in inside if d == best]
    return optima


def generic_by_real_trees(inst):
    """True iff no facet subset has two real trees at its pointwise minimum."""
    return all(o is None or len(o[1]) <= 1 for o in optima_by_real_trees(inst).values())


def generic_by_covering_subsets(inst):
    """True iff every covering subset with a tree has one optimal tree.

    The covering subsets, one non-empty set of out-edges per vertex, are
    the only ones that can hold a tree.  Each is solved afresh by
    Bellman-Ford through the uncached _Index.optimum, and one without a
    tree (NoTreeInSubset) is skipped.
    """
    idx = inst._index
    per_vertex = []
    for ids in idx.out:
        subs = [0]
        for eid in ids:
            subs += [s | 1 << eid for s in subs]
        per_vertex.append(subs[1:])
    for parts in itertools.product(*per_vertex):
        try:
            if not idx.optimum(sum(parts))[3]:
                return False
        except NoTreeInSubset:
            continue
    return True


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once `seconds` have passed.

    The error is raised afresh here, without the interrupted frames: a
    loop interrupted at its backward jump can leave a traceback entry
    with no line number, which pytest fails to render.
    """

    class Expired(Exception):
        pass

    def expire(signum, frame):
        raise Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except Expired:
        raise TimeoutError(f"still running after {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.name from now to the end of the test; a 1-list."""
    calls = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_splits(monkeypatch):
    """Count _Index.tree_split calls from now to the end of the test, in
    a Counter: [True] from scratch, [False] from a parent's split (via)."""
    made = Counter()
    original = _Index.tree_split

    def counting(self, mask, via=None):
        made[via is None] += 1
        return original(self, mask, via)

    monkeypatch.setattr(_Index, "tree_split", counting)
    return made


def has_zero_cost_cycle(inst):
    """True iff edges of cost zero close a directed cycle (self-loops count)."""
    succ = {v: {e.head for e in es if e.cost == 0} for v, es in inst.out_edges.items()}
    state = {}

    def dfs(v):
        state[v] = "open"
        for w in succ[v]:
            if state.get(w) == "open" or (w not in state and dfs(w)):
                return True
        state[v] = "done"
        return False

    return any(v not in state and dfs(v) for v in succ)


def validate_by_vertex_names(inst):
    """validate_instance by a Bellman-Ford keyed by vertex names.

    Same checks, order, witness cycle and messages as the library, but
    it reads Instance.out_edges and Edge tuples instead of the integer
    index.  Distances start at zero everywhere, so negative cycles that
    cannot reach the target are found too.
    """
    for v in sorted(inst.vertices):
        if v != inst.target and not inst.out_edges[v]:
            raise DanglingVertex(v)
    out = inst.out_edges[inst.target]
    if out:
        raise TargetHasOutEdges(f"target {inst.target!r} has outgoing edges {[e.id for e in out]}")
    dist = {v: 0 for v in inst.vertices}
    pred = {}
    for _ in range(inst.n):
        changed = False
        for e in inst.edges:
            if dist[e.tail] > e.cost + dist[e.head]:
                dist[e.tail] = e.cost + dist[e.head]
                pred[e.tail] = e
                changed = True
        if not changed:
            break
    for e in inst.edges:
        if dist[e.tail] > e.cost + dist[e.head]:
            pred[e.tail] = e
            v = e.tail
            for _ in range(inst.n):  # n steps land on the cycle
                v = pred[v].head
            cycle, u = [v], pred[v].head
            while u != v:
                cycle.append(u)
                u = pred[u].head
            cycle.reverse()
            raise NegativeCycle(cycle)
    return inst
