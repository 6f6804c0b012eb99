"""The pivoting recursion, written once, with full trace recording.

Both rules are one recursion: remove an edge e of F minus B, solve the
smaller problem, and pivot e back in if it improves the tree.  steps()
runs it with an explicit stack of descents and yields one event per
descent and one per exchange; only the chooser differs between the
rules.  Within one descent B is fixed and each level removes only the
picked edge, so the descent's picks are one ordering of F minus B, and
steps() asks the chooser for it once per descent (at the start and
after each pivot) and keeps it as one frame.  At the base case F = B,
so the calls waiting on the stack are the picks themselves: steps()
reads the tree's improving mask once, off its split (_Index.tree_split,
the one per-tree cache, filled by the pivot that makes each tree),
drops every descent without an improving pick whole, and pivots the
last improving pick in place of the tree's edge at its tail; the
candidates of the next descent are the picks popped above it plus the
leaving edge.  A shorter ordering pauses the run at a hashable point
(fmask, bmask, frames, depth, kind), and _resume resumes it from there.
run_random_facet draws a fresh uniformly random facet at every choice
point; run_random_facet_star is deterministic and always removes the
facet ranked first by a fixed permutation, so each descent is F minus B
sorted by rank.  Both fold the events into a RunResult, counting one
pivot per exchange.  branches() walks the tree of every execution of a
rule once, depth first, resuming steps() with one answer at each choice
point that has several candidates.  Exact rfstar and both computation
trees consume it; Monte Carlo consumes steps() and _resume, so
branches() is the one place that refuses an exact enumeration.

RNG contract: run_random_facet consumes exactly one bounded draw per
choice point, via rng.randrange(k) indexed into the candidates of
F minus B enumerated in ascending edge id order.  Any object exposing
randrange works, which is what the exhaustive branch enumeration in
the test suite relies on.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from fractions import Fraction

from .errors import EnumerationBoundExceeded, NoTreeInSubset, PermutationDomainTooSmall
from .graph import EdgeId, Instance, TreePolicy, _check_policy_shape, facet_mask
from .orders import MAX_UNIVERSE, _count_orders

RF = "rf"
RF_STAR = "rfstar"
RULES = (RF, RF_STAR)
EXECUTION_BUDGET = 50_000


class CallKind(str, enum.Enum):
    """How the call performing a pivot was itself invoked."""

    ROOT = "root"
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class PivotEvent:
    """One improving exchange: `entering` replaces `leaving` at their tail."""

    entering: EdgeId
    leaving: EdgeId
    depth: int
    call_kind: CallKind


@dataclass(frozen=True)
class RunResult:
    final_tree: TreePolicy
    pivot_count: int
    trace: tuple[PivotEvent, ...]


class Permutation:
    """Total order on edge ids, stored as a bijective rank map 1..k."""

    __slots__ = ("_rank", "_order", "_domain")

    def __init__(self, rank: Mapping[EdgeId, int]):
        self._rank = dict(rank)
        k = len(self._rank)
        if sorted(self._rank.values()) != list(range(1, k + 1)):
            raise ValueError("ranks must be a bijection onto 1..k")
        by_rank = sorted(self._rank, key=self._rank.__getitem__)
        self._order = tuple(by_rank)
        self._domain = frozenset(self._rank)

    @classmethod
    def from_order(cls, order: Iterable[EdgeId]) -> "Permutation":
        ids = list(order)
        return cls({eid: i + 1 for i, eid in enumerate(ids)})

    @property
    def order(self) -> tuple[EdgeId, ...]:
        return self._order

    @property
    def domain(self) -> frozenset[EdgeId]:
        return self._domain

    def rank(self, eid: EdgeId) -> int:
        return self._rank[eid]

    def sort(self, candidates: Iterable[EdgeId]) -> list[EdgeId]:
        """The candidates ranked first to last: an rfstar descent's picks."""
        return sorted(candidates, key=self._rank.__getitem__)

    def __len__(self) -> int:
        return len(self._rank)

    def __repr__(self) -> str:
        return f"Permutation({' < '.join(str(e) for e in self._order)})"


def start_state(inst: Instance, facets: Iterable[EdgeId] | None, start: TreePolicy):
    """(index, facet mask) of a validated start tree.

    Raises ValueError unless `start` passes graph's policy shape check
    (one edge per non-target vertex, each leaving its own vertex), lies
    inside the facet set, and reaches the target from every vertex.
    """
    _check_policy_shape(inst, start)
    idx = inst._index
    fmask = facet_mask(inst, facets)
    if start.mask & ~fmask:
        raise ValueError("start tree is not contained in the facet set")
    try:
        idx.splits.get(start.mask) or idx.tree_split(start.mask)
    except NoTreeInSubset:
        raise ValueError("start tree does not reach the target from every vertex") from None
    return idx, fmask


def steps(
    idx, fmask: int, bmask: int, order, frames=(), depth=0, kind=CallKind.ROOT
) -> Iterator[tuple]:
    """Events of one run from tree mask `bmask` within facet mask `fmask`.

    Once per descent `order(candidates)` names the edges the descent
    removes, in order, the candidates being F minus B in ascending id
    order, as a list `order` owns and may change.  Each removal is a
    choice point, and ("descend", fmask, bmask, picks) is yielded once per
    descent with the state before its first removal; the i-th pick sees
    fmask minus the picks before it, at depth d + i with kind FIRST except
    at i = 0, where it has the descent's own depth d and kind.  After
    each exchange ("pivot", entering, leaving, depth, kind, fmask, bmask)
    is yielded with the state after it; depth and kind describe the call
    that pivoted, the leaving edge being the tree's edge at the entering
    edge's tail, and the pivot splits the tree it makes from the tree
    before it: only `bmask` must be split already (start_state).  The
    run ends when no enclosing call can pivot.  Every pivot strictly
    improves the tree, so it terminates.

    An ordering shorter than the candidates pauses the run at the next
    choice point with a last event ("pause", (fmask, bmask, frames,
    depth, kind)), its frames and picks tuples so the point is hashable;
    steps(idx, fmask, bmask, order, frames, depth, kind) resumes it,
    asking `order` about the rest of the descent.  A pivot to a mask
    that is not a tree, as on an unvalidated instance with a negative
    cycle, raises NoTreeInSubset.
    """
    splits, tree_split, at_tail = idx.splits, idx.tree_split, idx.at_tail
    first, second = CallKind.FIRST, CallKind.SECOND
    # one frame per descent whose calls wait for their first recursive
    # call to return: (facet mask before it, picks, their mask, depth, kind)
    stack: list[tuple[int, Sequence[EdgeId], int, int, CallKind]] = list(frames)
    cands = idx.edge_bits(fmask & ~bmask)
    while True:
        n = len(cands)
        picks = order(cands)
        if picks:
            pmask = fmask & ~bmask if len(picks) == n else sum(1 << e for e in picks)
            stack.append((fmask, picks, pmask, depth, kind))
            yield ("descend", fmask, bmask, picks)
            fmask &= ~pmask
            depth += len(picks)
            kind = first
        if fmask & ~bmask:  # the order was short
            frames = tuple((f, tuple(p), pm, d, k) for f, p, pm, d, k in stack)
            yield ("pause", (fmask, bmask, frames, depth, kind))
            return
        # base case reached, where F = B: unwind to the last improving pick
        _, better = splits[bmask]
        rest: list[EdgeId] = []  # the picks of the frames popped so far
        while stack:
            f, picks, pmask, d, k = stack.pop()
            if not better & pmask:
                rest += picks
                continue
            i, suffix = len(picks), 0
            while not better & suffix:  # the first hit is the last improving pick
                i -= 1
                suffix |= 1 << picks[i]
            e = picks[i]
            if i:  # the calls above it keep waiting
                stack.append((f, picks[:i], pmask & ~suffix, d, k))
            leaving = (bmask & at_tail[e]).bit_length() - 1
            parent, bmask = bmask, (bmask & ~(1 << leaving)) | (1 << e)
            splits.get(bmask) or tree_split(bmask, (parent, e))
            fmask = (f & ~pmask) | suffix
            yield ("pivot", e, leaving, d + i, k if i == 0 else first, fmask, bmask)
            depth = d + i + 1
            kind = second
            rest += picks[i + 1 :]
            rest.append(leaving)
            rest.sort()
            cands = rest
            break
        else:
            return


def _resume(idx, point, order) -> tuple[list[tuple], tuple | None]:
    """(events, next point or None at the end) of steps() resumed at pause
    point (fmask, bmask, frames, depth, kind), the pause event popped off.
    A run's start is the point (fmask, bmask): the fields a point leaves
    out take steps()' defaults."""
    events = list(steps(idx, *point[:2], order, *point[2:]))
    point = events.pop()[1] if events and events[-1][0] == "pause" else None
    return events, point


def _answers(hist: tuple, cands: list[EdgeId]) -> list[tuple]:
    """The allowed answers at a choice point, each with the history after it.

    A history is (before, width).  RF allows every candidate and weighs
    an execution 1/width, width being the product of the numbers of
    allowed answers; its `before` is None.  A run of RF_STAR sees its
    permutation only through which candidate is the minimum: answering e
    places e before every other candidate, a candidate placed after
    another candidate is not allowed, and the weight is the number of
    orders of F extending before[c], the transitively closed mask of the
    facets placed before each c (orders._count_orders).  A forced answer
    keeps `hist` itself: being below every other candidate already, it
    closes no mask further.
    """
    before, width = hist
    if before is not None:
        cmask = sum(1 << c for c in cands)
        cands = [c for c in cands if not before[c] & cmask]
    if len(cands) == 1:
        return [(cands[0], hist)]
    if before is None:
        return [(e, (None, width * len(cands))) for e in cands]
    out = []
    for e in cands:
        rest = cmask & ~(1 << e)
        below = before[e] | (1 << e)
        closed = {y: b | below if (b | 1 << y) & rest else b for y, b in before.items()}
        out.append((e, (closed, width)))
    return out


def branches(idx, fmask: int, bmask: int, rule: str, dead=None) -> Iterator[tuple]:
    """Every distinct execution of `rule` from `bmask`, walked once as a tree.

    An execution is fixed by its answers at the choice points.  A
    transition resumes a pause point (fmask, bmask, frames, depth, kind)
    of steps() with one answer up to the next choice point with two or
    more candidates; a single one is forced under either rule, so the
    transition depends on neither rule nor history.  A pause with one
    allowed answer (_answers) goes on; one with several is a fork,
    resumed once per answer, in ascending order, depth first.  Per
    segment, in pre-order, it yields (forks, events, weight): `forks`
    counts the forks above it, its events run from its fork's answer
    (the start, at the root) to the next fork, with `weight` None, or to
    the end of an execution of that weight, read off its history (before,
    width): Fractions summing to one under RF, integers summing to |F|!
    under RF_STAR.  Without `dead`, a transition runs steps() once, kept
    under its pause point and answer, and its events, shared by every
    path through it, must not be changed.

    `dead(bmask)`, if given, names edges no run from tree bmask pivots in
    (exact.ExactEvaluator.dead).  Each pause then drops them, before its
    answers are listed, from the facet mask and from every pending
    frame's facets, picks and pick mask: the run pivots alike, pick for
    pick, while the weights still count orders of all of F.  Pruned
    pauses do recur, but this walk keeps no transition: keyed by point,
    they cut steps() calls by up to 2.6 times, yet the walk ran slower
    and held over twice the memory.

    Every exact enumeration is refused here, with
    EnumerationBoundExceeded, rather than truncated: RF_STAR on more
    than orders.MAX_UNIVERSE facets before any run, as the weights
    count orders of F, and either rule once the executions pass
    EXECUTION_BUDGET.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    ids = idx.edge_bits(fmask)
    if rule == RF_STAR and len(ids) > MAX_UNIVERSE:
        raise EnumerationBoundExceeded(
            f"{len(ids)} facets exceed the {MAX_UNIVERSE} whose orders rfstar can weigh; "
            "use Monte Carlo estimation instead"
        )
    executions = 0
    pauses: dict[tuple, dict] = {}  # {point: {answer: (events, next pause)}}

    def resume(point, answer):
        # the events up to the next choice point with two or more candidates
        def order(cands: list[EdgeId]) -> list[EdgeId]:
            nonlocal answer
            out = [] if answer is None else [cands.pop(cands.index(answer))]
            answer = None
            while len(cands) == 1:
                out.append(cands.pop())
            return out

        events, point = _resume(idx, point, order)
        return events, point and (point, None if dead else pauses.setdefault(point, {}))

    hist = (dict.fromkeys(ids, 0) if rule == RF_STAR else None, 1)
    todo = [(0, ((fmask, bmask), None if dead else {}), hist, None)]
    while todo:
        forks, (point, moves), hist, answer = todo.pop()
        events: list[tuple] = []
        while True:
            if moves is not None and answer not in moves:
                moves[answer] = resume(point, answer)
            segment, pause = resume(point, answer) if moves is None else moves[answer]
            events += segment
            if pause is None:
                break
            point, moves = pause
            fmask, bmask, frames, depth, kind = point
            if dead is not None:  # drop the edges dead here before listing the answers
                dm = dead(bmask) & (frames[0][0] if frames else fmask)
                frames = tuple((f & ~dm, tuple(e for e in p if not dm >> e & 1), pm & ~dm, d, k)
                               for f, p, pm, d, k in frames)
                point = (fmask & ~dm, bmask, frames, depth, kind)
            options = _answers(hist, idx.edge_bits(point[0] & ~bmask))
            if len(options) > 1:
                break
            answer, hist = options[0] if options else (None, hist)
        if pause is not None:
            todo.extend((forks + 1, (point, moves), child, e) for e, child in reversed(options))
            yield forks, events, None
            continue
        executions += 1
        if executions > EXECUTION_BUDGET:
            raise EnumerationBoundExceeded(
                f"more than {EXECUTION_BUDGET} executions to enumerate; "
                "use Monte Carlo estimation instead"
            )
        if hist[0] is None:  # RF: hist is (None, width)
            yield forks, events, Fraction(1, hist[1])
        else:
            yield forks, events, _count_orders(hist[0], len(ids))


def run_random_facet(
    inst: Instance,
    facets: Iterable[EdgeId] | None,
    start: TreePolicy,
    rng,
) -> RunResult:
    """Run the randomized recursion from `start` within `facets`.

    One rng.randrange(len(candidates)) call per choice point, so runs
    are reproducible from a seeded random.Random on any platform.
    """
    idx, fmask = start_state(inst, facets, start)
    return _run(idx, fmask, start.mask, random_order(lambda ks: map(rng.randrange, ks)))


def run_random_facet_star(
    inst: Instance,
    facets: Iterable[EdgeId] | None,
    start: TreePolicy,
    sigma: Permutation,
) -> RunResult:
    """Run the permutation-driven recursion; a pure function of its inputs.

    The same permutation is consulted at every choice point; recursive
    calls restrict it implicitly by taking the minimum over the current
    candidate set, so each descent removes F minus B in rank order.
    """
    idx, fmask = start_state(inst, facets, start)
    ids = idx.edge_bits(fmask)
    if not sigma.domain.issuperset(ids):
        missing = [eid for eid in ids if eid not in sigma.domain]
        raise PermutationDomainTooSmall(
            f"permutation does not rank facet edges {missing}"
        )
    return _run(idx, fmask, start.mask, sigma.sort)


def random_order(draws):
    """rf's chooser: pop cands[r] for r = randrange(k), k = len(cands) down
    to 1, the r drawn as draws(those k) in one call per descent."""
    return lambda cands: [cands.pop(r) for r in draws(range(len(cands), 0, -1))]


def _run(idx, fmask, bmask, order) -> RunResult:
    """Fold one run's pivot events into its result, reading the final
    tree's edge per vertex off its mask."""
    trace: list[PivotEvent] = []
    for ev in steps(idx, fmask, bmask, order):
        if ev[0] == "pivot":
            _, entering, leaving, depth, kind, _, bmask = ev
            trace.append(PivotEvent(entering, leaving, depth, kind))
    final = idx.policy_from_choice(idx.choice_of_mask(bmask))
    return RunResult(final_tree=final, pivot_count=len(trace), trace=tuple(trace))


def format_trace(result: RunResult) -> str:
    """One pivot per line: depth, call kind, entering id, leaving id."""
    lines = [
        f"{ev.depth} {ev.call_kind.value} {ev.entering} {ev.leaving}"
        for ev in result.trace
    ]
    return "\n".join(lines)
