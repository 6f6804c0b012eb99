"""Mutants of src/randomfacet/ that named tier-1 tests must kill.

Usage, from the repository root:

    python tests/mutants.py

Each mutant replaces one exact text of a module by another.  For each
mutant the runner copies src/ to a temporary directory, applies the
mutant there and runs only the mutant's tests, in a pytest child that
imports the package from the copy.  It prints one line per mutant,
killed or survived with the seconds it took, then a summary.  A mutant
is killed iff a listed test fails or the run outlasts TIMEOUT seconds,
as a pivot loop that no longer strictly improves may never end.  Each
child may map at most MEMORY bytes, so a run that never ends stops
once it outgrows them, rather than filling the machine's memory; if
pytest then exits with an internal error, the mutant is reported as
an error.  The exit status is 1 iff some mutant was not killed.

This file is not a test module: pytest does not collect it and tier-1
never runs a mutant.  tests/test_mutants.py checks only that each old
text occurs exactly once in its module, so a change that moves mutated
code must update the list.  Standard library and pytest only.
"""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "randomfacet"
TIMEOUT = 300
MEMORY = 1 << 30


class Mutant(NamedTuple):
    name: str
    file: str  # a module of PACKAGE
    old: str  # occurs exactly once in the module
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MEMO_ERRATA = ("tests/test_montecarlo.py::TestDescentMemo::"
               "test_samples_equal_the_public_runners_at_the_threshold[errata]")
MEMO_STEPS = "tests/test_montecarlo.py::TestDescentMemo::test_steps_calls_pin_the_threshold_and_the_memo"
SHUFFLE_CAP = "tests/test_montecarlo.py::TestDescentMemo::test_shuffle_memo_holds_at_most_the_orders_of_f"
SPLIT_ONCE = "tests/test_algorithms.py::test_each_engine_splits_only_its_start_tree_from_scratch"
MASSES = "tests/test_comptree.py::TestNodeList::test_masses_and_probabilities"
SHARED = ("tests/test_comptree.py::TestNodeList::"
          "test_fork_children_with_equal_masses_share_one_probability")
VIA_ORACLE = ("tests/test_graph.py::TestTreeDistances::"
              "test_split_from_the_parent_equals_the_split_from_scratch")

MUTANTS = [
    Mutant(
        "steps reads the leaving edge off the facet mask, not the tree mask",
        "algorithms.py",
        "leaving = (bmask & at_tail[e]).bit_length() - 1",
        "leaving = (f & at_tail[e]).bit_length() - 1",
        ("tests/test_algorithms.py::TestTraceContracts::test_pivot_events_have_matching_tails",
         "tests/test_algorithms.py::TestTraceContracts::test_replay_reproduces_final_tree"),
    ),
    Mutant(
        "tree_split's re-test counts tight edges as improving",
        "graph.py",
        "if cost[f] + dist[head[f]] < dist[tail[f]]:",
        "if cost[f] + dist[head[f]] <= dist[tail[f]]:",
        (VIA_ORACLE, "tests/test_algorithms.py::test_engines_share_each_split_and_write_none"),
    ),
    Mutant(
        "a split from the parent walks the new mask's subtree, not the parent's",
        "graph.py",
        "if parent >> f & 1:",
        "if mask >> f & 1:",
        ("tests/test_exact.py::TestExpectedPivotsRf::test_unvalidated_negative_cycle_refused",),
    ),
    Mutant(
        "a split from the parent never checks that the swap closes no cycle",
        "graph.py",
        "                closes |= v == h\n",
        "",
        (VIA_ORACLE,),
    ),
    Mutant(
        "a split from the parent re-tests only the subtree's out-edges",
        "graph.py",
        "self.around = [vm | sum(1 << e for e in into) for vm, into in zip(vmask, self.into)]",
        "self.around = vmask",
        (VIA_ORACLE,),
    ),
    Mutant(
        "steps splits the tree at each base case from scratch",
        "algorithms.py",
        "_, better = splits[bmask]\n        rest",
        "_, better = tree_split(bmask)\n        rest",
        ("tests/test_algorithms.py::test_engines_share_each_split_and_write_none",),
    ),
    Mutant(
        "steps splits a pivoted tree from scratch, not from its parent",
        "algorithms.py",
        "splits.get(bmask) or tree_split(bmask, (parent, e))",
        "splits.get(bmask) or tree_split(bmask)",
        (SPLIT_ONCE,),
    ),
    Mutant(
        "exact rf splits a pivoted tree from the state's tree, not the end tree",
        "exact.py",
        "idx.tree_split(b2, (end, e))",
        "idx.tree_split(b2, (bmask, e))",
        ("tests/test_exact.py::TestDeadEdges::test_each_tree_reads_its_distances_once",
         "tests/test_algorithms.py::test_engines_share_each_split_and_write_none"),
    ),
    Mutant(
        "exact rf leaves a pivoted tree for dead() to split from scratch",
        "exact.py",
        "                        splits.get(b2) or idx.tree_split(b2, (end, e))\n",
        "",
        (SPLIT_ONCE, "tests/test_exact.py::TestDeadEdges::test_each_tree_reads_its_distances_once"),
    ),
    Mutant(
        "an edge tight against the optimum counts as dead",
        "exact.py",
        "if c + pi[h] > dist[u]",
        "if c + pi[h] >= dist[u]",
        ("tests/test_exact.py::TestDeadEdges::test_rfstar_keeps_the_mean_over_every_order",
         "tests/test_exact.py::TestDeadEdges::test_dropped_edges_never_enter",
         "tests/test_exact.py::TestHistoryEnumeration::test_errata_history_counts"),
    ),
    Mutant(
        "genericity_check swap-tests the tree's own edges too",
        "instances.py",
        "idx.count_optimal_trees(tight & ~mask, ids)",
        "idx.count_optimal_trees(tight, ids)",
        ("tests/test_instances.py::TestGenericity::test_errata_is_generic",),
    ),
    Mutant(
        "orientation_view orients a tie instead of refusing it",
        "cube.py",
        "            if not f:\n",
        "            if False:\n",
        ("tests/test_cube.py::TestOrientationView::test_tied_adjacent_trees_are_non_generic",),
    ),
    Mutant(
        "orientation_view points each arrow the wrong way",
        "cube.py",
        "out[v if f < 0 else v | axis] |= axis",
        "out[v if f > 0 else v | axis] |= axis",
        ("tests/test_cube.py::TestOrientationView::test_sink_is_the_optimal_tree",),
    ),
    Mutant(
        "exact rf pivots e in without dropping the tree's edge at e's tail",
        "exact.py",
        "b2 = (end & ~idx.at_tail[e]) | low",
        "b2 = end | low",
        ("tests/test_exact.py::TestExpectedPivotsRf::test_errata_from_001",),
    ),
    Mutant(
        "branches never checks the execution budget",
        "algorithms.py",
        "if executions > EXECUTION_BUDGET:",
        "if False:",
        ("tests/test_exact.py::TestEnumerationLimits::test_errata_fits_its_own_history_count",
         "tests/test_comptree.py::TestExports::test_execution_budget_counts_leaves"),
    ),
    Mutant(
        "branches prunes at the resume instead of at the pause: forks list dead answers",
        "algorithms.py",
        "                dm = dead(bmask) & (frames[0][0] if frames else fmask)\n",
        "                dm = dead(bmask) & (frames[0][0] if frames else fmask)\n"
        "                dm &= ~sum(1 << e for e, _ in _answers(hist, idx.edge_bits(fmask & ~bmask)))\n",
        ("tests/test_exact.py::TestHistoryEnumeration::test_errata_history_counts",
         "tests/test_exact.py::TestPruningAlongTheRun::test_pending_frames_drop_dead_edges",
         "tests/test_exact.py::TestPruningAlongTheRun::test_universe_cap_counts_live_edges"),
    ),
    Mutant(
        "a pause prunes only its facet mask, not the pending frames",
        "algorithms.py",
        "                frames = tuple((f & ~dm, tuple(e for e in p if not dm >> e & 1), pm & ~dm, d, k)\n"
        "                               for f, p, pm, d, k in frames)\n",
        "",
        ("tests/test_exact.py::TestPruningAlongTheRun::"
         "test_pending_frames_drop_dead_edges_before_resuming",),
    ),
    Mutant(
        "the sign cells keep the ties",
        "instances.py",
        "        ties |= zero\n",
        "",
        ("tests/test_cube.py::test_sign_cells_group_the_tie_free_costs_by_the_oracle_key",),
    ),
    Mutant(
        "a form's negative and non-negative parts are swapped",
        "instances.py",
        "((1 << i, cell & neg), (0, cell & ~neg))",
        "((1 << i, cell & ~neg), (0, cell & neg))",
        ("tests/test_cube.py::test_sign_cells_group_the_tie_free_costs_by_the_oracle_key",),
    ),
    Mutant(
        "the verdict memo is keyed on the head layout, not the out-map",
        "instances.py",
        "            if out not in verdicts:\n"
        "                verdicts[out] = _passes_cube_tests(OrientationView(encoding=_ENCODING, out=out))\n"
        "            if verdicts[out]:\n",
        "            if heads not in verdicts:\n"
        "                verdicts[heads] = _passes_cube_tests(OrientationView(encoding=_ENCODING, out=out))\n"
        "            if verdicts[heads]:\n",
        ("tests/test_instances.py::TestErrataFixture::test_derivation_work",),
    ),
    Mutant(
        "survivors are yielded cell by cell, not in cost order",
        "instances.py",
        "            if verdicts[out]:\n"
        "                passing |= cell\n",
        "            if verdicts[out]:\n"
        "                yield from (_candidate(heads, c) for i, c in enumerate(cost_space)\n"
        "                            if cell >> i & 1)\n",
        ("tests/test_cube.py::test_survivors_of_several_cells_come_in_search_order",),
    ),
    Mutant(
        "a layout's forms read tree v's vertex k off bit k, not bit 2 - k",
        "instances.py",
        "one = v >> (2 - k) & 1",
        "one = v >> k & 1",
        ("tests/test_cube.py::test_sign_keys_agree_with_orientation_view_on_every_candidate",),
    ),
    Mutant(
        "tree_distances sets a chain's distances before its heads'",
        "graph.py",
        "for u in reversed(path):",
        "for u in path:",
        ("tests/test_graph.py::TestTreeDistances::test_two_edge_chain",),
    ),
    Mutant(
        "the transition key leaves out the pending frames",
        "algorithms.py",
        "pauses.setdefault(point, {})",
        "pauses.setdefault(point[:2] + point[3:], {})",
        ("tests/test_algorithms.py::test_rf_branches_match_the_scripted_runner",
         "tests/test_comptree.py::test_golden_renderings"),
    ),
    Mutant(
        "the transition key leaves out the depth",
        "algorithms.py",
        "pauses.setdefault(point, {})",
        "pauses.setdefault(point[:3] + point[4:], {})",
        ("tests/test_algorithms.py::test_rf_branches_match_the_scripted_runner",),
    ),
    Mutant(
        "branches drops the universe cap",
        "algorithms.py",
        "if rule == RF_STAR and len(ids) > MAX_UNIVERSE:",
        "if False:",
        ("tests/test_exact.py::TestEnumerationLimits::test_universe_cap_refuses_before_any_run",),
    ),
    Mutant(
        "forks are resumed in descending answer order",
        "algorithms.py",
        "reversed(options)",
        "options",
        ("tests/test_comptree.py::test_golden_renderings[001-rf]",),
    ),
    Mutant(
        "the bounded draw takes one bit too few",
        "montecarlo.py",
        "bits = k.bit_length()",
        "bits = (k - 1).bit_length()",
        ("tests/test_montecarlo.py::TestBoundedDraw::test_first_draw_of_every_small_bound",),
    ),
    Mutant(
        "the first removable edge's end trees stand for every edge's",
        "exact.py",
        "if any(end != final for end, _ in ends):",
        "if False:",
        ("tests/test_exact.py::TestTies::test_end_tree_weighs_its_probability",),
    ),
    Mutant(
        "a tied end tree's probability is dropped",
        "exact.py",
        "Fraction(p * q, k)",
        "Fraction(q, k)",
        ("tests/test_exact.py::TestTies::test_end_trees_are_optima_with_total_probability_one",),
    ),
    Mutant(
        "_count_orders leaves out the n!/k! factor of the free elements",
        "orders.py",
        "return ways.get(named, 0) * math.factorial(universe_size) // math.factorial(len(preds))",
        "return ways.get(named, 0)",
        ("tests/test_orders.py::TestCountOrders::test_sparse_masks_match_brute_force",),
    ),
    Mutant(
        "the rfstar descent memo keys on the picks by id, not in their order",
        "montecarlo.py",
        "if rule == RF else order(cands))",
        "if rule == RF else sorted(order(cands)))",
        (MEMO_ERRATA,),
    ),
    Mutant(
        "the descent memo needs more than |F|! trials",
        "montecarlo.py",
        "memo = orders <= hi - lo",
        "memo = orders < hi - lo",
        (MEMO_STEPS,),
    ),
    Mutant(
        "the descent memo is on below |F|! trials and off from there",
        "montecarlo.py",
        "memo = orders <= hi - lo",
        "memo = orders > hi - lo",
        (MEMO_STEPS,),
    ),
    Mutant(
        "a new memo node keeps its parent's candidates",
        "montecarlo.py",
        "node = point and (point, asked[-1], {})",
        "node = point and (point, cands, {})",
        (MEMO_ERRATA, MEMO_STEPS),
    ),
    Mutant(
        "a replayed descent adds no pivots",
        "montecarlo.py",
        "                    n, node = moves[key]\n",
        "                    n, node = 0, moves[key][1]\n",
        (MEMO_ERRATA,),
    ),
    Mutant(
        "the descent memo is made once per process, not once per call",
        "montecarlo.py",
        "root = ((fmask, bmask), idx.edge_bits(fmask & ~bmask), {})",
        "root = _trials.__dict__.setdefault(\n"
        "        \"root\", ((fmask, bmask), idx.edge_bits(fmask & ~bmask), {}))",
        (MEMO_ERRATA,),
    ),
    Mutant(
        "an rf descent's key drops its last draw",
        "montecarlo.py",
        "key = tuple(draws(range(len(cands), 0, -1)) if",
        "key = tuple(draws(range(len(cands), 0, -1))[:-1] if",
        (MEMO_ERRATA,),
    ),
    Mutant(
        "a missed rf descent pops its picks off the node's own candidates",
        "montecarlo.py",
        "random_order(lambda _: key)(cands.copy())",
        "random_order(lambda _: key)(cands)",
        (MEMO_STEPS,),
    ),
    Mutant(
        "the shuffle memo keys on the sorted draws, not their order",
        "montecarlo.py",
        "drawn = tuple(shuffle)",
        "drawn = tuple(sorted(shuffle))",
        (MEMO_ERRATA,),
    ),
    Mutant(
        "a repeated shuffle replays no pivots",
        "montecarlo.py",
        "samples.append(shuffles[drawn])",
        "samples.append(0)",
        (MEMO_ERRATA,),
    ),
    Mutant(
        "the shuffle memo has no cap",
        "montecarlo.py",
        "if rule != RF and len(shuffles) < orders:",
        "if rule != RF:",
        (SHUFFLE_CAP,),
    ),
    Mutant(
        "the shuffle memo holds one shuffle more than |F|!",
        "montecarlo.py",
        "len(shuffles) < orders",
        "len(shuffles) <= orders",
        (SHUFFLE_CAP,),
    ),
    Mutant(
        "a resumed point drops its pending frames, depth and kind",
        "algorithms.py",
        "events = list(steps(idx, *point[:2], order, *point[2:]))",
        "events = list(steps(idx, *point[:2], order))",
        ("tests/test_exact.py::TestHistoryEnumeration::test_errata_history_counts",),
    ),
    Mutant(
        "a pause point holds steps' own stack, not a tuple of it",
        "algorithms.py",
        "frames = tuple((f, tuple(p), pm, d, k) for f, p, pm, d, k in stack)",
        "frames = stack",
        ("tests/test_algorithms.py::TestStepsContract::test_pause_and_resume_reproduce_the_run",),
    ),
    Mutant(
        "a pause point keeps its frames' picks as lists",
        "algorithms.py",
        "(f, tuple(p), pm, d, k) for",
        "(f, p, pm, d, k) for",
        ("tests/test_algorithms.py::TestStepsContract::test_pause_and_resume_reproduce_the_run",),
    ),
    Mutant(
        "count_optimal_trees swaps in any tight edge without walking w's path",
        "graph.py",
        "            while w >= 0 and w != v:\n"
        "                w = head[choice[w]]\n",
        "",
        ("tests/test_graph.py::TestOptimalTree::test_zero_cost_cycle_is_not_a_second_optimum",),
    ),
    Mutant(
        "an rfstar answer closes its later candidates over the answer, not its predecessors",
        "algorithms.py",
        "below = before[e] | (1 << e)",
        "below = 1 << e",
        ("tests/test_exact.py::TestHistoryEnumeration::test_history_weights_match_permutations",),
    ),
    Mutant(
        "a leaf's mass is its weight's numerator, unscaled",
        "comptree.py",
        "leaf.mass = w.numerator * (scale // w.denominator)",
        "leaf.mass = w.numerator",
        (MASSES, "tests/test_comptree.py::test_golden_renderings[001-rf]"),
    ),
    Mutant(
        "the backward pass leaves out the root's first child",
        "comptree.py",
        "for node in reversed(nodes[1:]):",
        "for node in reversed(nodes[2:]):",
        (MASSES, "tests/test_comptree.py::test_golden_renderings[001-rfstar]"),
    ),
    Mutant(
        "the fork probabilities are cached by the child's mass alone",
        "comptree.py",
        "key = (kid.mass, node.mass)",
        "key = kid.mass",
        (MASSES,),
    ),
    Mutant(
        "each fork child makes its own probability",
        "comptree.py",
        "prob = ratios.get(key)",
        "prob = None",
        (SHARED,),
    ),
    Mutant(
        "an rfstar fork child gets 1/k instead of its mass ratio",
        "comptree.py",
        "prob = ratios[key] = Fraction(kid.mass, node.mass)",
        "prob = ratios[key] = Fraction(1, len(node.children))",
        ("tests/test_comptree.py::test_golden_renderings[001-rfstar]",),
    ),
    Mutant(
        "the after-pivot pass never closes a region on a pick",
        "comptree.py",
        "                    if closed:\n",
        "                    if False:\n",
        ("tests/test_comptree.py::TestPickOrderAfterPivot::"
         "test_matches_the_path_oracle_at_every_depth",),
    ),
]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or why the mutant's tests could not run."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "randomfacet" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale (old text not found exactly once)"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # the ini option pythonpath would put the repository's src/ first
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *mutant.tests]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT,
                                  preexec_fn=_cap_memory).returncode
        except subprocess.TimeoutExpired:
            return "killed"
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    killed, began = 0, time.perf_counter()
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        killed += verdict == "killed"
        print(f"{verdict:<8} {time.perf_counter() - start:6.1f} s  {mutant.file}: {mutant.name}",
              flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - began:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
