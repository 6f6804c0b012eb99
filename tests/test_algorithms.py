import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomfacet import (
    CallKind,
    Edge,
    Instance,
    Permutation,
    PermutationDomainTooSmall,
    TreePolicy,
    comptree,
    expected_pivots_rf,
    expected_pivots_rf_star,
    format_trace,
    improves,
    optimal_tree,
    pivot,
    random_instance,
    run_random_facet,
    run_random_facet_star,
    tree_distances,
)
from randomfacet import algorithms, graph, montecarlo
from randomfacet.algorithms import RF, RF_STAR, branches, start_state, steps
from helpers import by_pick, count_calls, count_splits, executions, rf_branches, steps_by_pick


def sigma_by_names(names, order):
    return Permutation.from_order([names[n] for n in order])


class TestPermutation:
    def test_rank_bijection_enforced(self):
        with pytest.raises(ValueError):
            Permutation({0: 1, 1: 1})

    def test_order_round_trip(self):
        p = Permutation.from_order([4, 2, 0])
        assert p.order == (4, 2, 0)
        assert p.rank(2) == 2
        assert p.sort([0, 2, 4]) == [4, 2, 0]

    def test_len_and_repr(self):
        p = Permutation.from_order([4, 2, 0])
        assert len(p) == 3
        assert repr(p) == "Permutation(4 < 2 < 0)"


class TestRunRandomFacet:
    def test_base_case_no_pivots(self, errata, enc):
        tree = enc.tree("010")
        res = run_random_facet(errata, tree.edge_ids, tree, random.Random(3))
        assert res == type(res)(final_tree=tree, pivot_count=0, trace=())

    def test_one_vertex_always_one_pivot(self):
        # hand-unrolled: the only candidate is picked, the inner call
        # bottoms out, the improvement fires, the second call is silent
        inst = Instance.build("t", [Edge(0, "v", "t", 0), Edge(1, "v", "t", 5)])
        start = TreePolicy({"v": 1})
        for seed in range(10):
            res = run_random_facet(inst, None, start, random.Random(seed))
            assert res.pivot_count == 1
            assert res.final_tree == TreePolicy({"v": 0})

    def test_errata_any_seed_reaches_000(self, errata, enc):
        for seed in range(25):
            res = run_random_facet(errata, None, enc.tree("001"), random.Random(seed))
            assert res.final_tree == enc.tree("000")

    def test_start_tree_must_be_inside_facets(self, errata, enc, names):
        with pytest.raises(ValueError):
            run_random_facet(
                errata,
                errata.all_edges() - {names["z1"]},
                enc.tree("001"),
                random.Random(0),
            )


class TestRunRandomFacetStar:
    def test_base_case(self, errata, enc):
        tree = enc.tree("110")
        sigma = Permutation.from_order(range(6))
        assert run_random_facet_star(errata, tree.edge_ids, tree, sigma).pivot_count == 0

    def test_domain_too_small(self, errata, enc):
        sigma = Permutation.from_order([0, 1, 2])
        with pytest.raises(PermutationDomainTooSmall):
            run_random_facet_star(errata, None, enc.tree("001"), sigma)

    def test_documented_order_realizes_the_long_path(self, errata, enc, names):
        # this order satisfies z0 < x1, z0 < y1 and y0 < x1, which pins
        # the run to the five-pivot path; the count was frozen after
        # cross-checking the 720-permutation average
        sigma = sigma_by_names(names, ("z0", "y0", "y1", "x1", "x0", "z1"))
        res = run_random_facet_star(errata, None, enc.tree("001"), sigma)
        assert res.pivot_count == 5
        entering = [names_rev(names)[ev.entering] for ev in res.trace]
        assert entering == ["y1", "z0", "x1", "y0", "x0"]
        assert res.final_tree == enc.tree("000")

    def test_deterministic(self, errata, enc):
        sigma = Permutation.from_order([5, 3, 1, 0, 2, 4])
        a = run_random_facet_star(errata, None, enc.tree("111"), sigma)
        b = run_random_facet_star(errata, None, enc.tree("111"), sigma)
        assert a == b

    def test_all_permutations_reach_000(self, errata, enc):
        for bits in ("001", "111"):
            start = enc.tree(bits)
            for order in itertools.permutations(range(6)):
                res = run_random_facet_star(errata, None, start, Permutation.from_order(order))
                assert res.final_tree == enc.tree("000")


# every engine, with each rule it runs, on a start tree and a facet set
_ENGINES = {
    "run_random_facet": lambda inst, facets, start: run_random_facet(
        inst, facets, start, random.Random(0)
    ),
    "run_random_facet_star": lambda inst, facets, start: run_random_facet_star(
        inst, facets, start, Permutation.from_order(range(inst.m))
    ),
    "pivot_samples-rf": lambda inst, facets, start: montecarlo.pivot_samples(
        inst, facets, start, RF, 3, 0
    ),
    "pivot_samples-rfstar": lambda inst, facets, start: montecarlo.pivot_samples(
        inst, facets, start, RF_STAR, 3, 0
    ),
    "expected_pivots_rf": expected_pivots_rf,
    "expected_pivots_rf_star": expected_pivots_rf_star,
    "comptree-rf": lambda inst, facets, start: comptree(inst, facets, start, RF),
    "comptree-rfstar": lambda inst, facets, start: comptree(inst, facets, start, RF_STAR),
}


@pytest.mark.parametrize("engine", _ENGINES.values(), ids=_ENGINES)
@pytest.mark.parametrize(
    "choice, message",
    [
        # the edges of tree 000, but edge 2 leaves y and edge 0 leaves x
        ({"x": 2, "y": 0, "z": 4}, "edge 2 does not leave vertex 'x'"),
        # edge 9 is past the last edge: neither in the facet set nor known
        ({"x": 9, "y": 2, "z": 4}, "edge 9 does not leave vertex 'x'"),
        ({"x": 0, "y": 2, "z": 4, "w": 5}, "policy does not choose exactly one edge per vertex"),
        ({"x": 0, "y": 2}, "policy does not choose exactly one edge per vertex"),
    ],
    ids=["mislabeled", "unknown-edge", "extra-vertex", "missing-vertex"],
)
@pytest.mark.parametrize("facets", [None, [0, 2, 4, 9]], ids=["all-edges", "with-edge-9"])
def test_every_engine_checks_the_start_tree_as_tree_distances_does(
    errata, engine, choice, message, facets
):
    start = TreePolicy(choice)
    exact_message = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact_message):
        tree_distances(errata, start)
    with pytest.raises(ValueError, match=exact_message):
        engine(errata, facets, start)


def names_rev(names):
    return {v: k for k, v in names.items()}


def replay(inst, start, trace):
    tree = start
    for ev in trace:
        assert improves(inst, tree, ev.entering)
        assert tree.edge_at(inst.edge(ev.entering).tail) == ev.leaving
        tree = pivot(inst, tree, ev.entering)
    return tree


def second_call_spans(trace):
    """(pivot event, events inside its second recursive call) pairs."""
    for i, ev in enumerate(trace):
        inside = []
        for later in trace[i + 1 :]:
            if later.depth <= ev.depth:
                break
            inside.append(later)
        yield ev, inside


class TestTraceContracts:
    def test_replay_reproduces_final_tree(self, errata, enc):
        for seed in range(15):
            res = run_random_facet(errata, None, enc.tree("001"), random.Random(seed))
            assert replay(errata, enc.tree("001"), res.trace) == res.final_tree
            assert res.pivot_count == len(res.trace)

    def test_pivot_events_have_matching_tails(self, errata, enc):
        res = run_random_facet(errata, None, enc.tree("111"), random.Random(9))
        for ev in res.trace:
            assert ev.entering != ev.leaving
            assert errata.edge(ev.entering).tail == errata.edge(ev.leaving).tail

    def test_leaving_edge_never_reenters_second_call_errata(self, errata, enc):
        # exhaustively: all permutations and all decision branches
        for order in itertools.permutations(range(6)):
            res = run_random_facet_star(
                errata, None, enc.tree("001"), Permutation.from_order(order)
            )
            for ev, inside in second_call_spans(res.trace):
                assert all(later.entering != ev.leaving for later in inside)
        for _, res in rf_branches(errata, None, enc.tree("001")):
            for ev, inside in second_call_spans(res.trace):
                assert all(later.entering != ev.leaving for later in inside)

    def test_leaving_edge_never_reenters_random_instances(self, medium_pool):
        for i, inst in enumerate(medium_pool):
            start = _some_tree(inst)
            res = run_random_facet(inst, None, start, random.Random(i))
            for ev, inside in second_call_spans(res.trace):
                assert all(later.entering != ev.leaving for later in inside)

    def test_correct_final_tree_on_random_instances(self, medium_pool):
        for i, inst in enumerate(medium_pool):
            start = _some_tree(inst)
            best = optimal_tree(inst)
            assert run_random_facet(inst, None, start, random.Random(i)).final_tree == best
            order = list(range(inst.m))
            random.Random(i).shuffle(order)
            sigma = Permutation.from_order(order)
            assert run_random_facet_star(inst, None, start, sigma).final_tree == best

    def test_call_kinds_present(self, errata, enc, names):
        sigma = Permutation.from_order([names[n] for n in ("z0", "y0", "y1", "x1", "x0", "z1")])
        res = run_random_facet_star(errata, None, enc.tree("001"), sigma)
        kinds = {ev.call_kind for ev in res.trace}
        assert kinds == {CallKind.ROOT, CallKind.FIRST, CallKind.SECOND}


class TestFormatTrace:
    def test_line_per_pivot(self, errata, enc, names):
        sigma = Permutation.from_order([names[n] for n in ("z0", "y0", "y1", "x1", "x0", "z1")])
        res = run_random_facet_star(errata, None, enc.tree("001"), sigma)
        lines = format_trace(res).splitlines()
        assert len(lines) == res.pivot_count
        assert lines[1] == "0 root 4 5"


class TestDepthGuard:
    def test_default_guard_is_far_away(self, errata, enc):
        res = run_random_facet(errata, None, enc.tree("001"), random.Random(0))
        assert max((ev.depth for ev in res.trace), default=0) < 20


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_same_seed_same_run(seed):
    inst = Instance.build(
        "t", [Edge(0, "v", "t", 0), Edge(1, "v", "t", 5), Edge(2, "v", "t", 2)]
    )
    start = TreePolicy({"v": 1})
    a = run_random_facet(inst, None, start, random.Random(seed))
    b = run_random_facet(inst, None, start, random.Random(seed))
    assert a == b


def _some_tree(inst):
    """The policy picking every vertex's highest-id edge; a valid tree
    on pool instances because their edges always point downstream."""
    return TreePolicy({v: es[-1].id for v, es in inst.out_edges.items() if es})


def _bits_of(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _random_chooser(rng, log):
    """An rf chooser that logs (handed list, returned order) per call."""

    def order(cands):
        handed = list(cands)
        out = [cands.pop(rng.randrange(k)) for k in range(len(cands), 0, -1)]
        log.append((handed, out))
        return out

    return order


def _replay(picks):
    """A chooser answering with `picks` in turn, short once they run out."""
    script = iter(picks)
    return lambda cands: list(itertools.islice(script, len(cands)))


class TestStepsContract:
    """steps() asks `order` once per descent for an ordering of F minus B."""

    @staticmethod
    def _cases(errata, enc, medium_pool):
        cases = [(errata, enc.tree(bits)) for bits in ("001", "010", "011", "101", "110", "111")]
        return cases + [(inst, _some_tree(inst)) for inst in medium_pool[:30]]

    def test_order_sees_f_minus_b_once_per_descent(self, errata, enc, medium_pool):
        picks = 0
        for k, (inst, start) in enumerate(self._cases(errata, enc, medium_pool)):
            idx, fmask = start_state(inst, None, start)
            log = []
            order = _random_chooser(random.Random(k), log)
            events = list(steps(idx, fmask, start.mask, order))
            descents = [ev for ev in events if ev[0] == "descend"]
            # one event per descent, with the state before its first pick
            assert [ev[3] for ev in descents] == [out for _, out in log if out]
            for (handed, out), (_, f, b, _) in zip([h for h in log if h[1]], descents):
                assert handed == _bits_of(f & ~b)
                assert handed == idx.edge_bits(f & ~b)
                assert sorted(out) == handed
            picks += sum(len(ev[3]) for ev in descents)
        assert picks

    def test_order_may_mutate_its_list(self, errata, enc, medium_pool):
        # the list handed to `order` is its own: scrambling it after
        # answering leaves the run as it was
        for k, (inst, start) in enumerate(self._cases(errata, enc, medium_pool)):
            idx, fmask = start_state(inst, None, start)
            rng = random.Random(k)

            def keeping(cands):
                rest = list(cands)
                return [rest.pop(rng.randrange(j)) for j in range(len(rest), 0, -1)]

            def scrambling(cands):
                out = keeping(cands)
                cands[:] = [-1] * (len(cands) + 1)
                return out

            kept = list(steps(idx, fmask, start.mask, keeping))
            rng.seed(k)
            assert list(steps(idx, fmask, start.mask, scrambling)) == kept

    def test_pause_and_resume_reproduce_the_run(self, errata, enc, medium_pool):
        # stop answering before every choice point in turn, then resume the
        # saved point twice with the remaining answers; compared pick by pick.
        # _resume from the start point (fmask, bmask) and from each saved
        # point gives the same events, with no pause event among them
        paused = 0
        for k, (inst, start) in enumerate(self._cases(errata, enc, medium_pool)):
            idx, fmask = start_state(inst, None, start)
            order = _random_chooser(random.Random(k), [])
            whole = by_pick(steps(idx, fmask, start.mask, order))
            answers = [ev[3] for ev in whole if ev[0] == "pick"]
            at_pick = [i for i, ev in enumerate(whole) if ev[0] == "pick"]
            events, end = algorithms._resume(idx, (fmask, start.mask), _replay(answers))
            assert (by_pick(events), end) == (whole, None)
            for at in range(len(answers)):
                head = list(steps(idx, fmask, start.mask, _replay(answers[:at])))
                kind, point = head.pop()
                assert kind == "pause"
                assert by_pick(head) == whole[: at_pick[at]]
                assert algorithms._resume(idx, (fmask, start.mask), _replay(answers[:at])) == (
                    head, point)
                f, b, frames, depth, call = point
                assert (f, b) == whole[at_pick[at]][1:3]
                assert isinstance(frames, tuple)
                hash(point)  # a value: branches keys its transitions on it
                assert b in idx.splits  # split by the pivot that made it
                tails = [
                    list(steps(idx, f, b, _replay(answers[at:]), frames, depth, call))
                    for _ in range(2)
                ]
                assert tails[0] == tails[1]
                assert by_pick(head + tails[0]) == whole
                assert algorithms._resume(idx, point, _replay(answers[at:])) == (tails[0], None)
                assert "pause" not in [ev[0] for ev in head + tails[0]]
                paused += 1
        assert paused


def test_steps_match_the_per_pick_oracle(small_pool, medium_pool, cyclic_pool):
    # steps against steps_by_pick, the recursion one choice point at a
    # time: the same picks and pivots under seeded random choosers, and the
    # same pause point and tail when paused before any choice point.  The
    # oracle keeps its own edge per vertex, read off the start tree, and
    # resumes with the one it saved
    cases = [(inst, _some_tree(inst)) for inst in small_pool + medium_pool[:60]]
    cases += cyclic_pool
    picks = 0
    for k, (inst, start) in enumerate(cases):
        idx, fmask = start_state(inst, None, start)
        choice = [start.edge_at(v) for v in idx.order]
        run, oracle = (idx, fmask, start.mask), (idx, fmask, choice, start.mask)
        whole = by_pick(steps(*run, _random_chooser(random.Random(k), [])))
        assert whole == list(steps_by_pick(*oracle, _random_chooser(random.Random(k), [])))
        answers = [ev[3] for ev in whole if ev[0] == "pick"]
        for at in range(len(answers)):
            new = list(steps(*run, _replay(answers[:at])))
            old = list(steps_by_pick(*oracle, _replay(answers[:at])))
            assert by_pick(new[:-1]) == old[:-1]
            f, b, frames, depth, call = new[-1][1]
            f0, b0, c0, frames0, depth0, call0 = old[-1][1]
            assert (f, b, depth, call) == (f0, b0, depth0, call0)
            tail = steps(idx, f, b, _replay(answers[at:]), frames, depth, call)
            rest = _replay(answers[at:])
            assert by_pick(tail) == list(steps_by_pick(idx, f, c0, b, rest, frames0, depth, call))
        picks += len(answers)
    assert picks


def test_one_order_call_per_descent(errata, enc, medium_pool, monkeypatch):
    # a run asks its chooser at the start and after each pivot, never per
    # choice point; every consumer of steps is checked run by run
    real_steps = algorithms.steps
    runs = [0]

    def counting_steps(idx, fmask, bmask, order, *resume):
        calls = [0]

        def counted(cands):
            calls[0] += 1
            return order(cands)

        events = list(real_steps(idx, fmask, bmask, counted, *resume))
        pivots = sum(ev[0] == "pivot" for ev in events)
        assert calls[0] <= 1 + pivots
        runs[0] += 1
        yield from events

    monkeypatch.setattr(algorithms, "steps", counting_steps)
    monkeypatch.setattr(montecarlo, "steps", counting_steps)
    cases = [(errata, enc.tree("001")), (errata, enc.tree("111"))]
    cases += [(inst, _some_tree(inst)) for inst in medium_pool]
    for k, (inst, start) in enumerate(cases):
        sigma = Permutation.from_order(sorted(inst.all_edges(), reverse=True))
        idx, fmask = start_state(inst, None, start)
        runs[0] = 0
        run_random_facet(inst, None, start, random.Random(k))
        run_random_facet_star(inst, None, start, sigma)
        for rule in (RF, RF_STAR):
            montecarlo.pivot_samples(inst, None, start, rule, 3, k)
        assert runs[0] == 8
        if k < 40 and inst.m <= 6:
            for rule in (RF, RF_STAR):
                for _ in branches(idx, fmask, start.mask, rule):
                    pass
            assert runs[0] > 8


def test_engines_share_each_split_and_write_none(small_pool, cyclic_pool, monkeypatch):
    # a tree's distances and improving mask live only in its cached split,
    # which every engine reads and none may write to; each new split is
    # made once, either from scratch, reading the tree's distances once
    # (start_state's check and exact rf's dead edges included), or from
    # its parent's split through `via`, reading none; so nothing else
    # recomputes or caches them
    distances = count_calls(monkeypatch, graph._Index, "tree_distances")
    made = count_splits(monkeypatch)
    cases = [(inst, _some_tree(inst)) for inst in small_pool]
    cases += [(inst, start) for inst, start in cyclic_pool if inst.m <= 6]
    pivots = splits = 0
    for k, (inst, start) in enumerate(cases):
        inst = Instance(inst.target, inst.edges, inst.vertices)  # an empty index
        idx = inst._index
        sigma = Permutation.from_order(sorted(inst.all_edges(), reverse=True))
        before, scratch, via = distances[0], made[True], made[False]
        pivots += run_random_facet(inst, None, start, random.Random(k)).pivot_count
        pivots += run_random_facet_star(inst, None, start, sigma).pivot_count
        for rule in (RF, RF_STAR):
            pivots += sum(montecarlo.pivot_samples(inst, None, start, rule, 5, k))
            comptree(inst, None, start, rule)
        expected_pivots_rf(inst, None, start)
        expected_pivots_rf_star(inst, None, start)
        scratch, via = made[True] - scratch, made[False] - via
        assert distances[0] - before == scratch
        assert scratch + via == len(idx.splits)
        for mask, (dist, better) in idx.splits.items():
            policy = idx.policy_from_choice(idx.choice_of_mask(mask))
            assert dist == idx.tree_distances(mask)
            assert better == sum(1 << e for e in range(inst.m) if improves(inst, policy, e))
        splits += len(idx.splits)
    assert pivots and splits > len(cases)
    # 228 splits, each a tree_distances walk before `via`: 128 now come from
    # the parent's split, each made at the pivot that makes its tree
    assert (made[True], made[False]) == (100, 128)


def test_each_engine_splits_only_its_start_tree_from_scratch(errata, enc, cyclic_pool, monkeypatch):
    # every other tree a run meets is made by a pivot and split there, from
    # its parent's split, even where the run pauses before its next base
    # case: at the forks of branches, at exact rfstar's pruned pauses and
    # in the descent memo (800 errata trials reach its 6! threshold, 200 do
    # not).  So on a fresh index each engine splits one tree from scratch
    made = count_splits(monkeypatch)
    inst = random_instance(4, 2, 9, 2, require_generic=False)
    cases = [(errata, enc.tree("001")), (errata, enc.tree("111")), (inst, _some_tree(inst))]
    cases += [(inst, start) for inst, start in cyclic_pool[:21] if inst.m <= 6]
    engines = [
        lambda inst, start: run_random_facet(inst, None, start, random.Random(0)),
        lambda inst, start: run_random_facet_star(
            inst, None, start, Permutation.from_order(sorted(inst.all_edges(), reverse=True))),
        lambda inst, start: comptree(inst, None, start, RF),
        lambda inst, start: comptree(inst, None, start, RF_STAR),
        lambda inst, start: expected_pivots_rf(inst, None, start),
        lambda inst, start: expected_pivots_rf_star(inst, None, start),
    ]
    engines += [
        lambda inst, start, rule=rule, trials=trials: montecarlo.pivot_samples(
            inst, None, start, rule, trials, 0)
        for rule in (RF, RF_STAR) for trials in (800, 200)
    ]
    for k, engine in enumerate(engines):
        for inst, start in cases:
            inst = Instance(inst.target, inst.edges, inst.vertices)  # an empty index
            made.clear()
            engine(inst, start)
            assert made[True] == 1, k


def _pivot_sequence(events):
    return tuple(ev[1:5] for ev in events if ev[0] == "pivot")


def test_rf_branches_match_the_scripted_runner(errata, enc, small_pool, medium_pool):
    # the walk against the public runner driven by scripted draws: the same
    # executions, each with the same probability.  Every medium instance has
    # at most 8 edges; the first 24 (six with 8 edges, up to 6 048
    # executions each) take about 2 s, the whole pool about a minute
    cases = [(errata, enc.tree(f"{i:03b}")) for i in range(8)]
    cases += [(inst, _some_tree(inst)) for inst in small_pool + medium_pool[:24]]
    for inst, start in cases:
        idx, fmask = start_state(inst, None, start)
        walked = Counter(
            (weight, _pivot_sequence(events))
            for weight, events in executions(branches(idx, fmask, start.mask, RF))
        )
        scripted = Counter(
            (prob, tuple((ev.entering, ev.leaving, ev.depth, ev.call_kind) for ev in res.trace))
            for prob, res in rf_branches(inst, None, start)
        )
        assert walked == scripted
