import random

import pytest

from randomfacet import (
    RF,
    RF_STAR,
    Edge,
    Instance,
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
from randomfacet import montecarlo
from randomfacet.montecarlo import trial_rng
from helpers import fisher_yates_permutation, has_zero_cost_cycle


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
