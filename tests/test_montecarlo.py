import math
import os
import random
import threading
from functools import partial

import pytest

from randomfacet import (
    RF,
    RF_STAR,
    Edge,
    Instance,
    NoTreeInSubset,
    TreePolicy,
    ZeroTrials,
    estimate_expected_pivots,
    expected_pivots_rf,
    expected_pivots_rf_star,
    genericity_check,
    pivot_samples,
    random_instance,
    run_random_facet,
    run_random_facet_star,
)
from randomfacet import algorithms, montecarlo
from randomfacet.montecarlo import trial_rng
from helpers import deadline, fisher_yates_permutation, has_zero_cost_cycle


@pytest.fixture()
def one_vertex():
    inst = Instance.build("t", [Edge(0, "v", "t", 0), Edge(1, "v", "t", 5)])
    return inst, TreePolicy({"v": 1})


class TestEstimate:
    def test_deterministic_run_has_zero_stderr(self, one_vertex):
        inst, start = one_vertex
        for rule in (RF, RF_STAR):
            est = estimate_expected_pivots(inst, None, start, rule, 200, 11)
            assert est.mean == 1.0
            assert est.stderr == 0.0

    def test_zero_trials_rejected(self, one_vertex):
        inst, start = one_vertex
        with pytest.raises(ZeroTrials):
            estimate_expected_pivots(inst, None, start, RF, 0, 1)

    def test_single_trial_defines_stderr_zero(self, one_vertex):
        inst, start = one_vertex
        assert estimate_expected_pivots(inst, None, start, RF, 1, 1).stderr == 0.0

    def test_unknown_rule(self, one_vertex):
        inst, start = one_vertex
        with pytest.raises(ValueError):
            pivot_samples(inst, None, start, "newest", 5, 1)

    def test_reproducible_bit_identical(self, errata, enc):
        a = estimate_expected_pivots(errata, None, enc.tree("001"), RF_STAR, 400, 99)
        b = estimate_expected_pivots(errata, None, enc.tree("001"), RF_STAR, 400, 99)
        assert a == b
        assert a.format() == b.format()

    def test_format_line(self, one_vertex):
        inst, start = one_vertex
        est = estimate_expected_pivots(inst, None, start, RF, 3, 42)
        assert est.format() == "mean=1.000000 stderr=0.000000 trials=3 seed=42"


class TestSubstreams:
    def test_trials_are_indexed_not_shared(self, errata, enc):
        # a prefix of a longer run equals the shorter run: partitioning
        # trials across workers cannot change any sample
        start = enc.tree("001")
        long = pivot_samples(errata, None, start, RF, 120, 5)
        short = pivot_samples(errata, None, start, RF, 60, 5)
        assert long[:60] == short

    def test_partition_merge_equals_sequential_mean(self, errata, enc):
        start = enc.tree("111")
        full = pivot_samples(errata, None, start, RF_STAR, 100, 17)
        merged = full[:50] + full[50:]
        assert sum(merged) / 100 == sum(full) / 100


class TestBoundedDraw:
    """montecarlo._draws is random.Random.randrange, value for value."""

    def test_first_draw_of_every_small_bound(self):
        for seed in range(100):
            for k in range(1, 65):
                ours = montecarlo._draws(random.Random(seed).getrandbits, [k])
                assert ours == [random.Random(seed).randrange(k)], (seed, k)

    def test_long_runs_of_mixed_bounds(self):
        # bounds at and around powers of two, where rejection is likeliest,
        # far beyond any facet count, and a descent's k down to 1, in one
        # call each time; the generators end in one state
        bounds = random.Random(0)
        for seed in range(5):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(5000):
                ks = [max(1, (1 << bounds.randrange(12)) + bounds.randrange(-2, 3))]
                ks.append(bounds.randrange(1, 1 << 70))
                ks += range(bounds.randrange(13), 0, -1)
                assert montecarlo._draws(ours.getrandbits, ks) == [ref.randrange(k) for k in ks]
            assert ours.getstate() == ref.getstate()


class TestAgreement:
    def test_pinned_seed_agreement_within_four_stderr(self, errata, enc):
        start = enc.tree("001")
        exact = {
            RF: expected_pivots_rf(errata, None, start),
            RF_STAR: expected_pivots_rf_star(errata, None, start),
        }
        for rule in (RF, RF_STAR):
            est = estimate_expected_pivots(errata, None, start, rule, 4000, 23)
            assert abs(est.mean - float(exact[rule])) < 4 * est.stderr

    def test_cyclic_pool_within_four_stderr(self, cyclic_pool):
        # the generic members up to six edges, zero-cost cycles among them
        pool = [(inst, start) for inst, start in cyclic_pool if inst.m <= 6]
        generic = [(inst, start) for inst, start in pool if genericity_check(inst)]
        assert any(has_zero_cost_cycle(inst) for inst, _ in generic)
        for k, (inst, start) in enumerate(generic):
            exact = {
                RF: expected_pivots_rf(inst, None, start),
                RF_STAR: expected_pivots_rf_star(inst, None, start),
            }
            for rule in (RF, RF_STAR):
                est = estimate_expected_pivots(inst, None, start, rule, 2000, 3000 + k)
                assert abs(est.mean - float(exact[rule])) <= 4 * est.stderr, (k, rule)


def _last_edge_tree(inst):
    """Every vertex takes its highest-id edge; a tree on pool instances."""
    return TreePolicy({v: es[-1].id for v, es in inst.out_edges.items() if es})


def _by_public_runners(inst, facets, start, rule, trials, seed):
    """Pivot counts of the public runners on the trials' substreams."""
    ids = range(inst.m)
    if rule == RF:
        return [
            run_random_facet(inst, facets, start, trial_rng(seed, i)).pivot_count
            for i in range(trials)
        ]
    return [
        run_random_facet_star(
            inst, facets, start, fisher_yates_permutation(trial_rng(seed, i), ids)
        ).pivot_count
        for i in range(trials)
    ]


class TestIndependentRoute:
    def test_samples_equal_the_public_runners(self, errata, enc, small_pool, medium_pool):
        cases = [(errata, None, enc.tree(bits)) for bits in ("001", "011", "101", "111")]
        cases.append((errata, errata.all_edges(), enc.tree("110")))
        cases += [(inst, None, _last_edge_tree(inst)) for inst in small_pool]
        cases += [(inst, None, _last_edge_tree(inst)) for inst in medium_pool[:12]]
        for k, (inst, facets, start) in enumerate(cases):
            for rule in (RF, RF_STAR):
                got = pivot_samples(inst, facets, start, rule, 30, k)
                assert got == _by_public_runners(inst, facets, start, rule, 30, k), (k, rule)

    def test_pinned_estimates(self, errata, enc):
        # Estimate.format() strings of the per-trial runner loop; the
        # 20-edge instance is past every exact bound for rfstar
        big = random_instance(10, 2, 9, seed=5, require_generic=False)
        assert big.m == 20
        pinned = {
            (RF, "errata"): "mean=2.292000 stderr=0.067279 trials=500 seed=2026",
            (RF_STAR, "errata"): "mean=2.448000 stderr=0.070715 trials=500 seed=2026",
            (RF, "big"): "mean=3.650000 stderr=0.066404 trials=200 seed=2026",
            (RF_STAR, "big"): "mean=3.710000 stderr=0.067842 trials=200 seed=2026",
        }
        for rule in (RF, RF_STAR):
            est = estimate_expected_pivots(errata, None, enc.tree("001"), rule, 500, 2026)
            assert est.format() == pinned[(rule, "errata")]
            est = estimate_expected_pivots(big, None, _last_edge_tree(big), rule, 200, 2026)
            assert est.format() == pinned[(rule, "big")]


class TestDescentMemo:
    """A share of at least |F|! trials replays repeated descents from a memo."""

    @staticmethod
    def _cases(pool, errata, enc, small_pool, cyclic_pool):
        if pool == "errata":
            starts = [enc.tree(bits) for bits in ("001", "111")]
            # F = B: the root descent removes nothing and ends the run
            return [(errata, None, s) for s in starts] + [(errata, starts[0].edge_ids, starts[0])]
        if pool == "small":
            return [(inst, None, _last_edge_tree(inst)) for inst in small_pool]
        # ties and zero-cost cycles among them
        cases = [(inst, None, start) for inst, start in cyclic_pool if inst.m <= 6]
        assert any(has_zero_cost_cycle(inst) for inst, _, _ in cases)
        assert not all(genericity_check(inst) for inst, _, _ in cases)
        return cases

    @pytest.mark.parametrize("pool", ["errata", "small", "cyclic"])
    def test_samples_equal_the_public_runners_at_the_threshold(
        self, cpus, counted_samples, errata, enc, small_pool, cyclic_pool, pool
    ):
        cpus(1)
        for k, (inst, facets, start) in enumerate(
            self._cases(pool, errata, enc, small_pool, cyclic_pool)
        ):
            trials = math.factorial(len(inst.all_edges() if facets is None else facets))
            for rule in (RF, RF_STAR):
                # each pivot makes a better tree, so a run descends at most
                # once per tree it meets, and there are at most 2^m trees
                got, _ = counted_samples(inst, facets, start, rule, trials, k, 2 ** inst.m)
                assert got == _by_public_runners(inst, facets, start, rule, trials, k), (k, rule)

    def test_steps_calls_pin_the_threshold_and_the_memo(self, cpus, counted_samples, errata, enc, m40):
        # one call per trial below 6! trials, one per new descent from 6! on;
        # the memo's descents reach algorithms.steps through _resume
        cpus(1)
        pinned = {
            ("001", RF): (177, 292), ("001", RF_STAR): (88, 90),
            ("111", RF): (292, 421), ("111", RF_STAR): (154, 165),
        }
        for (bits, rule), (at_720, at_20000) in pinned.items():
            got = [counted_samples(errata, None, enc.tree(bits), rule, trials, 0)[1]
                   for trials in (719, 720, 20_000)]
            assert got == [719, at_720, at_20000], (bits, rule)
        inst, start = m40
        for rule in (RF, RF_STAR):
            assert counted_samples(inst, None, start, rule, 3000, 0)[1] == 3000, rule

    def test_shuffle_memo_holds_at_most_the_orders_of_f(
        self, monkeypatch, cpus, counted_samples, errata, enc
    ):
        # five facets, a start tree's three edges and two more: 5! = 120
        # orders of F against 6! shuffles of the six edges.  The rfstar
        # memo holds the share's first 120 distinct shuffles and no more, so
        # a trial builds its ranks iff it meets one of them first, or
        # another shuffle
        ranked = [0]
        real = montecarlo._ranks

        def ranks(m, shuffle):
            ranked[0] += 1
            return real(m, shuffle)

        monkeypatch.setattr(montecarlo, "_ranks", ranks)
        cpus(1)
        trials, seed = 2000, 7
        shuffles = [tuple(map(rng.randrange, range(errata.m, 1, -1)))
                    for rng in map(partial(trial_rng, seed), range(trials))]
        held = list(dict.fromkeys(shuffles))[:120]
        assert len(set(shuffles)) > 2 * len(held)
        built = len(held) + sum(s not in held for s in shuffles)
        for bits, extra, pinned in (("001", {3, 4}, 9), ("111", {0, 4}, 9)):
            start = enc.tree(bits)
            facets = start.edge_ids | extra
            assert math.factorial(len(facets)) == len(held)
            for rule in (RF, RF_STAR):
                ranked[0] = 0
                got, calls = counted_samples(errata, facets, start, rule, trials, seed)
                assert got == _by_public_runners(errata, facets, start, rule, trials, seed), (bits, rule)
                assert calls == pinned, (bits, rule)
                assert ranked[0] == (built if rule == RF_STAR else 0), (bits, rule)


class TestRefusal:
    class Drawn(Exception):
        pass

    @pytest.fixture()
    def no_draws(self, monkeypatch):
        def refuse(seed, index):
            raise self.Drawn(f"trial {index} drew before the start was checked")

        monkeypatch.setattr(montecarlo, "trial_rng", refuse)

    @pytest.mark.parametrize("rule", [RF, RF_STAR])
    def test_start_outside_facets(self, no_draws, errata, enc, names, rule):
        facets = errata.all_edges() - {names["z1"]}
        with pytest.raises(ValueError):
            pivot_samples(errata, facets, enc.tree("001"), rule, 10, 1)

    @pytest.mark.parametrize("rule", [RF, RF_STAR])
    def test_start_not_a_tree(self, no_draws, rule):
        inst = Instance.build(
            "t",
            [
                Edge(0, "a", "b", 1),
                Edge(1, "b", "a", 1),
                Edge(2, "a", "t", 5),
                Edge(3, "b", "t", 5),
            ],
        )
        cycle = TreePolicy({"a": 0, "b": 1})
        with pytest.raises(ValueError):
            pivot_samples(inst, None, cycle, rule, 10, 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def cpus(monkeypatch):
    """Set the CPU count pivot_samples splits its trials over."""
    return lambda k: monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: k)


@pytest.fixture()
def counted_samples(monkeypatch):
    """pivot_samples and the number of its algorithms.steps calls, the
    memo's through _resume too; calls made outside it, by the public
    runners, are not counted.  A steps call past `per_trial` a trial fails
    at once, and so does the run at its deadline: a run that never ends
    fails before its memo or one steps call fills the memory (a 1 GiB
    address space in about 10 s).  No count pinned here exceeds one call
    a trial."""
    real, calls, bound = algorithms.steps, [], [math.inf]

    def counting(*args):
        if bound[0] < math.inf:
            calls.append(1)
            assert len(calls) <= bound[0], "more steps calls than a run can make"
        return real(*args)

    def run(inst, facets, start, rule, trials, seed, per_trial=1):
        del calls[:]
        bound[0] = trials * per_trial
        try:
            with deadline(5):
                samples = pivot_samples(inst, facets, start, rule, trials, seed)
        finally:
            bound[0] = math.inf
        return samples, len(calls)

    monkeypatch.setattr(montecarlo, "steps", counting)
    monkeypatch.setattr(algorithms, "steps", counting)
    return run


@pytest.fixture()
def forks(monkeypatch):
    """The pids os.fork returns, in call order; 0 is never recorded."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture(scope="module")
def m40():
    # the simulate bench's m=40 instance from its first-edge tree
    inst = random_instance(20, 2, 9, 0, require_generic=False)
    assert inst.m == 40
    return inst, TreePolicy({v: es[0].id for v, es in inst.out_edges.items() if es})


MIN_SHARE = montecarlo.MIN_SHARE
SPLIT_COUNTS = (2 * MIN_SHARE - 1, 2 * MIN_SHARE, 3 * MIN_SHARE + 1)


class TestShares:
    def test_contiguous_ranges_cover_every_trial(self, cpus):
        cpus(3)
        assert montecarlo._shares(2 * MIN_SHARE - 1) == [(0, 2 * MIN_SHARE - 1)]
        assert montecarlo._shares(2 * MIN_SHARE) == [(0, MIN_SHARE), (MIN_SHARE, 2 * MIN_SHARE)]
        assert montecarlo._shares(3 * MIN_SHARE + 1) == [
            (0, MIN_SHARE), (MIN_SHARE, 2 * MIN_SHARE), (2 * MIN_SHARE, 3 * MIN_SHARE + 1)]
        cpus(64)
        assert len(montecarlo._shares(3 * MIN_SHARE + 1)) == 3

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert montecarlo._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert montecarlo._usable_cpus() == (os.cpu_count() or 1)


class TestForkedEqualsSerial:
    @pytest.mark.parametrize("rule", [RF, RF_STAR])
    @pytest.mark.parametrize("case", ["errata", "m40"])
    def test_samples_and_estimates(self, monkeypatch, cpus, forks, errata, enc, m40, rule, case):
        inst, start = (errata, enc.tree("001")) if case == "errata" else m40
        # estimate_expected_pivots reads pivot_samples from the module, so
        # one call yields both the samples and the Estimate built on them
        seen = []

        def recording(*args):
            seen.append(pivot_samples(*args))
            return seen[-1]

        monkeypatch.setattr(montecarlo, "pivot_samples", recording)
        for trials in SPLIT_COUNTS:
            results = []
            for k in (1, 2, 3):
                cpus(k)
                del forks[:]
                est = estimate_expected_pivots(inst, None, start, rule, trials, 2026)
                results.append((seen[-1], est.format()))
                assert len(forks) == max(min(k, trials // MIN_SHARE) - 1, 0), (trials, k)
                _no_child_left()
            assert results[1] == results[0] and results[2] == results[0], (trials, rule)
            assert len(results[0][0]) == trials


class Boom(Exception):
    pass


class TestChildFailure:
    @pytest.fixture()
    def serial(self, errata, enc, cpus):
        cpus(1)
        return pivot_samples(errata, None, enc.tree("001"), RF, 3 * MIN_SHARE + 1, 8)

    def _fail_in_children(self, monkeypatch, lo):
        parent, real = os.getpid(), montecarlo.trial_rng

        def failing(seed, index):
            if os.getpid() != parent and index >= lo:
                raise Boom(f"trial {index} in a child")
            return real(seed, index)

        monkeypatch.setattr(montecarlo, "trial_rng", failing)

    @pytest.mark.parametrize("k", [2, 3])
    def test_failed_child_share_is_rerun(self, monkeypatch, cpus, forks, errata, enc, serial, k):
        # only the last share's child fails; the parent reruns its range
        self._fail_in_children(monkeypatch, 2 * MIN_SHARE)
        cpus(k)
        got = pivot_samples(errata, None, enc.tree("001"), RF, 3 * MIN_SHARE + 1, 8)
        assert got == serial
        assert len(forks) == k - 1
        _no_child_left()

    def test_short_child_answer_is_rerun(self, monkeypatch, cpus, forks, errata, enc, serial):
        parent, real = os.getpid(), montecarlo._trials

        def short(*args):
            samples = real(*args)
            return samples[:-1] if os.getpid() != parent else samples

        monkeypatch.setattr(montecarlo, "_trials", short)
        cpus(3)
        assert pivot_samples(errata, None, enc.tree("001"), RF, 3 * MIN_SHARE + 1, 8) == serial
        assert len(forks) == 2
        _no_child_left()

    def test_nonzero_exit_is_rerun_even_with_every_count_sent(
        self, monkeypatch, cpus, errata, enc, serial
    ):
        parent, real_exit, real_rng = os.getpid(), os._exit, montecarlo.trial_rng
        here = []  # the trials the parent draws

        def counting(seed, index):
            if os.getpid() == parent:
                here.append(index)
            return real_rng(seed, index)

        monkeypatch.setattr(montecarlo, "trial_rng", counting)
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(code or 3))
        cpus(2)
        assert pivot_samples(errata, None, enc.tree("001"), RF, 3 * MIN_SHARE + 1, 8) == serial
        assert here == list(range(3 * MIN_SHARE + 1))
        _no_child_left()

    def test_parent_failure_kills_and_reaps_every_child(self, monkeypatch, cpus, forks, errata, enc):
        parent, real = os.getpid(), montecarlo.trial_rng

        def failing(seed, index):
            if os.getpid() == parent:
                raise Boom(f"trial {index} in the parent")
            return real(seed, index)

        monkeypatch.setattr(montecarlo, "trial_rng", failing)
        cpus(3)
        with pytest.raises(Boom, match="trial 0 in the parent"):
            pivot_samples(errata, None, enc.tree("001"), RF, 3 * MIN_SHARE, 8)
        assert len(forks) == 2
        _no_child_left()

    @pytest.mark.parametrize("refused", [1, 2])
    def test_fork_refused_runs_the_rest_here(self, monkeypatch, cpus, errata, enc, serial, refused):
        # os.fork fails from its `refused`-th call on: the parent runs
        # every share from there on itself
        real, calls = os.fork, []

        def fork():
            calls.append(1)
            if len(calls) >= refused:
                raise BlockingIOError("no process to spare")
            return real()

        monkeypatch.setattr(os, "fork", fork)
        cpus(3)
        assert pivot_samples(errata, None, enc.tree("001"), RF, 3 * MIN_SHARE + 1, 8) == serial
        assert len(calls) == refused
        _no_child_left()

    @pytest.mark.parametrize("rule", [RF, RF_STAR])
    def test_negative_cycle_raises_the_same_error_in_both_modes(self, cpus, forks, rule):
        # unvalidated: x and y close a cycle of cost -2 that a pivot closes
        inst = Instance.build(
            "t",
            [Edge(0, "x", "y", -1), Edge(1, "y", "x", -1), Edge(2, "x", "t", 0), Edge(3, "y", "t", 0)],
        )
        start = TreePolicy({"x": 2, "y": 3})
        messages = []
        for k in (1, 2):
            cpus(k)
            with deadline(10), pytest.raises(NoTreeInSubset) as err:
                pivot_samples(inst, None, start, rule, 2 * MIN_SHARE, 0)
            messages.append(str(err.value))
            _no_child_left()
        assert messages[0] == messages[1]
        assert len(forks) == 1


class TestSerialGuards:
    """pivot_samples never forks where a run should stay in one process."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", refuse)

    def test_below_the_threshold(self, cpus, one_vertex):
        cpus(64)
        assert pivot_samples(one_vertex[0], None, one_vertex[1], RF, 2 * MIN_SHARE - 1, 1)

    def test_with_one_usable_cpu(self, cpus, one_vertex):
        cpus(1)
        assert pivot_samples(one_vertex[0], None, one_vertex[1], RF, 8 * MIN_SHARE, 1)

    def test_with_a_second_live_thread(self, cpus, one_vertex):
        cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert pivot_samples(one_vertex[0], None, one_vertex[1], RF, 2 * MIN_SHARE, 1)
        finally:
            release.set()
            other.join()

    def test_without_fork(self, monkeypatch, cpus, one_vertex):
        cpus(2)
        monkeypatch.delattr(os, "fork")
        assert pivot_samples(one_vertex[0], None, one_vertex[1], RF, 2 * MIN_SHARE, 1)
