"""Regenerate bench/reference.json: the benchmark's frozen inputs and answers.

Usage, from the repository root:

    python3 bench/freeze.py

The rules that pick the inputs live here and run once, before anything is
timed; run.py only replays the frozen query lists and compares every
answer with the value stored next to it.  Rerun this script only when a
workload's definition changes, never to make a regression disappear.

Input rules:

* rf-exact: for each (shape, start) pair in RF_EXACT_TARGETS, the first
  seed >= 0 whose full rf recursion from that start meets only facet
  subsets with a unique optimal tree.  Instances come from
  random_instance(..., require_generic=False), because the exhaustive
  genericity_check over 2^20 or more subsets would dominate set-up; the
  recursion itself raises NonGenericInstance on a non-generic subset.
* rfstar-posterior: the first seed >= 0 of RFSTAR_SHAPE at which both
  start trees are longer than optimal at some vertex, so both must pivot
  (rfstar needs no genericity), plus the bundled errata instance.
* simulate: SIMULATE_SHAPE at seed 0 plus the errata instance.
* Monte Carlo seeds: MC_SEEDS; run.py picks one per benchmark seed, and
  every Estimate.format() string is pinned per (Monte Carlo seed, trials).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from randomfacet import (  # noqa: E402
    ConstraintSet,
    NonGenericInstance,
    TreePolicy,
    comptree,
    conditional_order_probability,
    count_linear_extensions,
    cube_encoding,
    dumps_instance,
    errata_instance,
    estimate_expected_pivots,
    expected_pivots_rf,
    expected_pivots_rf_star,
    random_instance,
    subgraph_distances,
    tree_distances,
)

# (n, out_degree, cost_bound) and start; m = 20 and m = 24 edges
RF_EXACT_TARGETS = [((10, 2, 9), "first"), ((10, 2, 9), "last"), ((12, 2, 9), "last")]
RFSTAR_SHAPE = (4, 2, 9)  # m = 8, so 8! = 40 320 permutations per start
SIMULATE_SHAPE = (20, 2, 9)  # m = 40
ERRATA_TRIALS = 20_000
RANDOM_TRIALS = 3_000
MC_SEEDS = list(range(16))
# history constraint sets of the errata instance: path 3 from 001, path 2
# from 111, and the pick after pivot z0 from 001 (posterior 5/8); the
# universe adds free elements, as the facets of a larger instance would
HISTORY_001 = "z0<x1,z0<y1,y0<x1"
HISTORY_111 = "z0<x0,z0<y0,x1<y0"
AFTER_Z0_GIVEN, AFTER_Z0_QUERY = "z0<x1,z0<y1", "y0<x1"
POSTERIOR_QUERIES = [
    {"kind": "count", "elements": 8, "given": HISTORY_001},
    {"kind": "count", "elements": 9, "given": HISTORY_111},
    {"kind": "cond", "elements": 9, "given": AFTER_Z0_GIVEN, "query": AFTER_Z0_QUERY},
]


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def start_tree(inst, start: str) -> TreePolicy:
    if start in ("first", "last"):
        k = 0 if start == "first" else -1
        return TreePolicy({v: es[k].id for v, es in inst.out_edges.items() if es})
    return cube_encoding(inst).tree(start)


class Freezer:
    def __init__(self):
        self.instances: dict[str, dict] = {}
        self.errata = errata_instance()
        self.instances["errata"] = {"source": "fixture", "text": dumps_instance(self.errata)}

    def random(self, n: int, d: int, cost_bound: int, seed: int):
        key = f"random-{n}-{d}-{cost_bound}-s{seed}"
        inst = random_instance(n, d, cost_bound, seed, require_generic=False)
        self.instances[key] = {
            "source": "random",
            "n": n,
            "out_degree": d,
            "cost_bound": cost_bound,
            "seed": seed,
            "text": dumps_instance(inst),
        }
        return key, inst

    def instance(self, key: str):
        if key == "errata":
            return self.errata
        spec = self.instances[key]
        return random_instance(
            spec["n"], spec["out_degree"], spec["cost_bound"], spec["seed"], require_generic=False
        )

    def query(self, kind: str, key: str, start: str, **extra) -> dict:
        tree = start_tree(self.instance(key), start)
        return {"kind": kind, "instance": key, "start": start,
                "tree": sorted(tree.edge_ids), **extra}


def rf_exact(fz: Freezer) -> list[dict]:
    queries = []
    for (n, d, cb), start in RF_EXACT_TARGETS:
        for seed in itertools.count():
            inst = random_instance(n, d, cb, seed, require_generic=False)
            try:
                value = expected_pivots_rf(inst, None, start_tree(inst, start))
                break
            except NonGenericInstance:
                continue
        key, _ = fz.random(n, d, cb, seed)
        print(f"rf-exact {key} {start}: {frac(value)}", flush=True)
        queries.append(fz.query("exact_rf", key, start, expect=frac(value)))
    return queries


def rfstar_posterior(fz: Freezer) -> list[dict]:
    for seed in itertools.count():
        inst = random_instance(*RFSTAR_SHAPE, seed, require_generic=False)
        best = subgraph_distances(inst)
        if all(tree_distances(inst, start_tree(inst, s)) != best for s in ("first", "last")):
            break
    key, _ = fz.random(*RFSTAR_SHAPE, seed)
    queries = []
    for k, start in [("errata", "001"), ("errata", "111"), (key, "first"), (key, "last")]:
        value = expected_pivots_rf_star(fz.instance(k), None, start_tree(fz.instance(k), start))
        queries.append(fz.query("exact_rfstar", k, start, expect=frac(value)))
    trees = [("errata", "001", r) for r in ("rf", "rfstar")]
    trees += [("errata", "111", r) for r in ("rf", "rfstar")]
    trees += [(key, "last", "rfstar")]
    for k, start, rule in trees:
        inst = fz.instance(k)
        text = comptree(inst, None, start_tree(inst, start), rule).to_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        queries.append(fz.query("comptree", k, start, rule=rule, expect=digest))
    for spec in POSTERIOR_QUERIES:
        if spec["kind"] == "count":
            given = ConstraintSet.from_text(spec["given"])
            value = str(count_linear_extensions(spec["elements"], given))
        else:
            value = frac(conditional_order_probability(
                spec["elements"], ConstraintSet.from_text(spec["given"]),
                ConstraintSet.from_text(spec["query"])))
        queries.append({**spec, "expect": value})
    for q in queries:
        print(f"rfstar-posterior {q['kind']} {q.get('instance', '')}: {q['expect'][:16]}",
              flush=True)
    return queries


def simulate(fz: Freezer) -> list[dict]:
    key, _ = fz.random(*SIMULATE_SHAPE, 0)
    queries = []
    for k, start, trials in [("errata", "001", ERRATA_TRIALS), (key, "first", RANDOM_TRIALS)]:
        inst = fz.instance(k)
        tree = start_tree(inst, start)
        for rule in ("rf", "rfstar"):
            expect = {
                str(s): estimate_expected_pivots(inst, None, tree, rule, trials, s).format()
                for s in MC_SEEDS
            }
            print(f"simulate {k} {rule}: {expect['0']}", flush=True)
            queries.append(fz.query("simulate", k, start, rule=rule, trials=trials,
                                    expect=expect))
    return queries


def errata(fz: Freezer) -> list[dict]:
    return [
        {"kind": "derive", "expect": fz.instances["errata"]["text"]},
        {"kind": "verify", "expect": "exit=0 checks=20 passed=20"},
    ]


def main() -> None:
    fz = Freezer()
    workloads = {
        "rf-exact": rf_exact(fz),
        "rfstar-posterior": rfstar_posterior(fz),
        "simulate": simulate(fz),
        "errata": errata(fz),
    }
    ref = {
        "about": "Frozen inputs and answers of the benchmark; regenerate with "
                 "python3 bench/freeze.py (see its docstring for the input rules).",
        "mc_seeds": MC_SEEDS,
        "instances": fz.instances,
        "workloads": workloads,
    }
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
