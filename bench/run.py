"""Benchmark of the randomfacet engines: end to end, and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload rf-exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

(all runs the four workloads in one process, so its peak memory is
cumulative.)

One client in one thread issues a workload's frozen query list back to
back (a closed loop), pass after pass, until --seconds have elapsed.
Every answer is compared with bench/reference.json; a mismatch or an
exception counts as a failed query and is never skipped.  Each query
parses its instance afresh, as the CLI does, so no cache outlives a query.

--seed picks the Monte Carlo seed among the frozen ones.  The instances
and the query order are frozen (see bench/freeze.py): every exact answer
is pinned, and a shuffled order made peak memory depend on the seed
through allocator fragmentation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the summed
query time of one pass (each query's median over the passes), set-up time
(median of SETUP_REPEATS fresh imports and set-ups), peak memory and the
share of correct answers.  Both times are normalised to the interpreter's
measured speed (see speed.py), because the shared machine's speed drifts
far more than the bounds; the raw wall times are printed beside them, with
the time of each query kind and error_rate.  --trace 1 alternates untraced and traced passes and reports the per-layer
metrics; spans go to .bench_out/, and every count must repeat exactly
across traced passes and across runs on the same inputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import LAYERS, Tracer
from speed import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "randomfacet"
OUT = ROOT / ".bench_out"
WORKLOADS = ("rf-exact", "rfstar-posterior", "simulate", "errata")
SETUP_REPEATS = 15
MIN_TRACED_PASSES = 2

# which end-to-end query time each kind of query adds to
KIND_METRIC = {
    "exact_rf": "exact_rf_s",
    "exact_rfstar": "exact_rfstar_s",
    "comptree": "comptree_s",
    "count": "posterior_s",
    "cond": "posterior_s",
    "simulate": "simulate_s",
    "derive": "derive_s",
    "verify": "verify_s",
}

# units of the figures printed beside the BENCHMARK.json metrics
TABLE_UNITS = {name: "s" for name in KIND_METRIC.values()}
TABLE_UNITS.update(simulate_trials_per_s="1/s", error_rate="ratio", pass_wall_s="s",
                   setup_wall_s="s")

# per-layer metric -> the end-to-end metric and workload it should move
LAYER_MAP = {
    "graph.subgraph_shortest": "exact_rf_s on rf-exact; derive_s on errata",
    "graph.tree_distances": "exact_rfstar_s on rfstar-posterior; "
                            "simulate_trials_per_s on simulate",
    "graph.improves": "derive_s on errata",
    "algorithms": "exact_rfstar_s on rfstar-posterior; simulate_trials_per_s on simulate",
    "exact.expected_rf": "exact_rf_s on rf-exact",
    "exact.optimal": "exact_rf_s on rf-exact",
    "exact.rfstar": "exact_rfstar_s on rfstar-posterior",
    "comptree": "comptree_s on rfstar-posterior",
    "orders.count_linear_extensions": "posterior_s on rfstar-posterior",
    "montecarlo": "simulate_trials_per_s on simulate",
    "cube": "derive_s on errata",
    "instances": "derive_s on errata",
    "cli.verify": "verify_s on errata",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------- set-up


def import_layers() -> SimpleNamespace:
    """Import every layer afresh, as a new process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    )


def prepare(ref: dict, workload: str):
    """Imports, fixture load, instance generation and start trees.

    Returns the layers, the queries and the keys of instances whose fixture
    or regenerated text no longer matches the frozen text; queries always
    run on the frozen text.
    """
    m = import_layers()
    fixture = m.instances.dumps_instance(m.instances.errata_instance())
    queries, mismatched, parsed = [], [], {}
    for q in ref["workloads"][workload]:
        q = dict(q)
        key = q.get("instance")
        if key is not None:
            spec = ref["instances"][key]
            if key not in parsed:
                if spec["source"] == "fixture":
                    text = fixture
                else:
                    text = m.instances.dumps_instance(m.instances.random_instance(
                        spec["n"], spec["out_degree"], spec["cost_bound"], spec["seed"],
                        require_generic=False))
                if text != spec["text"]:
                    mismatched.append(key)
                parsed[key] = m.instances.loads_instance(spec["text"])
            q["text"] = spec["text"]
            q["policy"] = m.graph.TreePolicy.from_edge_ids(parsed[key], q["tree"])
        queries.append(q)
    return m, queries, mismatched


def setup(ref: dict, workload: str):
    """SETUP_REPEATS fresh set-ups; returns the last and every interval."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        m, queries, mismatched = prepare(ref, workload)
        intervals.append((t0, time.perf_counter()))
    for key in mismatched:
        print(f"bench: FAIL instance {key} no longer matches its frozen text", file=sys.stderr)
    return m, queries, mismatched, intervals


# ---------------------------------------------------------------- queries


def answer(m: SimpleNamespace, q: dict, mc_seed: int) -> str:
    """Run one query through the public API and return its answer as text."""
    kind = q["kind"]
    if "text" in q:
        inst = m.graph.validate_instance(m.instances.loads_instance(q["text"]))
    if kind == "exact_rf":
        return frac(m.exact.expected_pivots_rf(inst, None, q["policy"]))
    if kind == "exact_rfstar":
        return frac(m.exact.expected_pivots_rf_star(inst, None, q["policy"]))
    if kind == "comptree":
        text = m.comptree.comptree(inst, None, q["policy"], q["rule"]).to_text()
        return hashlib.sha256(text.encode()).hexdigest()
    if kind == "count":
        cs = m.orders.ConstraintSet.from_text(q["given"])
        return str(m.orders.count_linear_extensions(q["elements"], cs))
    if kind == "cond":
        given = m.orders.ConstraintSet.from_text(q["given"])
        query = m.orders.ConstraintSet.from_text(q["query"])
        return frac(m.orders.conditional_order_probability(q["elements"], given, query))
    if kind == "simulate":
        return m.montecarlo.estimate_expected_pivots(
            inst, None, q["policy"], q["rule"], q["trials"], mc_seed).format()
    if kind == "derive":
        return m.instances.dumps_instance(m.instances.derive_errata_instance())
    if kind == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = m.cli.main(["verify-errata"])
        lines = out.getvalue().splitlines()
        passed = sum(1 for line in lines if line.startswith("CHECK ") and line.endswith(" PASS"))
        return f"exit={code} checks={len(lines)} passed={passed}"
    raise ValueError(f"unknown query kind {kind!r}")


def expected(q: dict, mc_seed: int) -> str:
    return q["expect"][str(mc_seed)] if q["kind"] == "simulate" else q["expect"]


def run_pass(m, queries, mc_seed, tracer: Tracer | None = None) -> dict:
    """One pass over the query list; returns per-query intervals and failures."""
    gc.collect()
    intervals = []
    failed = trials = checks_passed = 0
    wall0 = time.perf_counter()
    for i, q in enumerate(queries):
        run = lambda q=q: answer(m, q, mc_seed)  # noqa: E731
        if tracer is not None:
            tracer.query = i
            run = tracer.wrap(f"bench.{q['kind']}", run)
        t0 = time.perf_counter()
        try:
            got = run()
        except Exception as exc:  # a crash is a failed query, never a stop
            got = f"error: {type(exc).__name__}: {exc}"
        intervals.append((t0, time.perf_counter()))
        want = expected(q, mc_seed)
        if got != want:
            failed += 1
            print(f"bench: FAIL {q['kind']} {q.get('instance', '')} "
                  f"{q.get('start', '')}: got {got[:120]!r}, want {want[:120]!r}",
                  file=sys.stderr)
        trials += q.get("trials", 0)
        if q["kind"] == "verify" and got.startswith("exit="):
            checks_passed += int(got.rpartition("passed=")[2])
    return {"wall": time.perf_counter() - wall0, "intervals": intervals, "failed": failed,
            "attempted": len(queries), "trials": trials, "checks_passed": checks_passed}


# ---------------------------------------------------------------- metrics


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(queries, passes, setup_iv, setup_failed, meter) -> dict[str, float]:
    """Speed-normalised times (see speed.py); raw wall time is printed beside them.

    A query's time is its median over the passes; pass_norm_s sums these
    over the fixed query list, so each query keeps its weight.
    """
    attempted = sum(p["attempted"] for p in passes) + setup_failed
    failed = sum(p["failed"] for p in passes) + setup_failed
    norm = [[meter.normalised(*iv) for iv in p["intervals"]] for p in passes]
    per_query = [statistics.median(n[i] for n in norm) for i in range(len(queries))]
    out = {
        "pass_norm_s": sum(per_query),
        "pass_wall_s": statistics.median(sum(e - s for s, e in p["intervals"]) for p in passes),
        "setup_s": statistics.median(meter.normalised(*iv) for iv in setup_iv),
        "setup_wall_s": statistics.median(e - s for s, e in setup_iv),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_ratio": (attempted - failed) / attempted,
        "error_rate": failed / attempted,
    }
    for q, t in zip(queries, per_query):
        name = KIND_METRIC[q["kind"]]
        out[name] = out.get(name, 0.0) + t
    if "simulate_s" in out:
        out["simulate_trials_per_s"] = passes[0]["trials"] / out.pop("simulate_s")
    return out


def per_layer(t: Tracer) -> dict[str, float]:
    c, s, k = t.calls, t.self_s, t.counts
    layer = t.layer_self_s()
    pivots = k["algorithms.pivots"]
    states = k["exact.expected_rf.memo_states"]
    rf_s = t.outer_s["exact.expected_rf"]
    out = {
        "graph.subgraph_shortest.calls": c["graph.subgraph_shortest"],
        "graph.subgraph_shortest.self_s": s["graph.subgraph_shortest"],
        "graph.tree_distances.calls": c["graph.tree_distances"],
        "graph.tree_distances.distinct_masks": k["graph.tree_distances.distinct_masks"],
        "graph.tree_distances.self_s": s["graph.tree_distances"],
        "graph.improves.calls": c["graph.improves"],
        "graph.improves.self_s": s["graph.improves"],
        "algorithms.runs": c["algorithms.run_random_facet"]
        + c["algorithms.run_random_facet_star"],
        "algorithms.pivots": pivots,
        "algorithms.self_s": layer["algorithms"],
        "algorithms.us_per_pivot": layer["algorithms"] / pivots * 1e6 if pivots else 0.0,
        "exact.expected_rf.calls": c["exact.expected_rf"],
        "exact.expected_rf.memo_states": states,
        "exact.expected_rf.self_s": s["exact.expected_rf"],
        "exact.expected_rf.states_per_s": states / rf_s if rf_s else 0.0,
        "exact.optimal.calls": c["exact.optimal"],
        "exact.optimal.subsets": k["exact.optimal.subsets"],
        "exact.optimal.self_s": s["exact.optimal"],
        "exact.rfstar.orders_enumerated": k["exact.rfstar.orders_enumerated"],
        "exact.rfstar.self_s": s["exact.rfstar"],
        "comptree.nodes": k["comptree.nodes"],
        "comptree.build_self_s": s["comptree.build"],
        "comptree.render_self_s": s["comptree.render"],
        "orders.count_linear_extensions.calls": c["orders.count_linear_extensions"],
        "orders.count_linear_extensions.extensions_total":
            k["orders.count_linear_extensions.extensions_total"],
        "orders.count_linear_extensions.self_s": s["orders.count_linear_extensions"],
        "montecarlo.trials": c["montecarlo.trial_rng"],
        "montecarlo.trial_rng_self_s": s["montecarlo.trial_rng"],
        "montecarlo.pivot_samples_self_s": s["montecarlo.pivot_samples"],
        "cube.orientation_view.calls": c["cube.orientation_view"],
        "cube.orientation_view.self_s": s["cube.orientation_view"],
        "cube.successors.calls": c["cube.successors"],
        "cube.successors.self_s": s["cube.successors"],
        "cube.unique_sink_every_face.self_s": s["cube.unique_sink_every_face"],
        "instances.candidates_scanned": k["instances.candidates_scanned"],
        "instances.genericity_check.calls": c["instances.genericity_check"],
        "instances.genericity_check.self_s": s["instances.genericity_check"],
        "cli.verify.checks_passed": k["cli.verify.checks_passed"],
        "cli.verify.self_s": layer["cli"],
    }
    for name in LAYERS:
        out[f"{name}.layer_self_s"] = layer[name]
    return out


# ---------------------------------------------------------------- runs


def measure(m, queries, mc_seed, seconds):
    """Passes back to back while the next one, as long as the last, still fits."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + passes[-1]["wall"] <= deadline:
        passes.append(run_pass(m, queries, mc_seed))
    return passes


def measure_traced(m, queries, mc_seed, seconds, workload, seed, units):
    """Alternate untraced and traced passes; per-layer medians, exact counts."""
    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while (len(traced) < MIN_TRACED_PASSES
           or time.perf_counter() + plain[-1]["wall"] + traced[-1]["wall"] <= deadline):
        plain.append(run_pass(m, queries, mc_seed))
        tracer.reset()
        tracer.install(m)
        try:
            p = run_pass(m, queries, mc_seed, tracer)
        finally:
            tracer.uninstall()
        tracer.counts["cli.verify.checks_passed"] = p["checks_passed"]
        traced.append(p)
        layers.append(per_layer(tracer))
    counts = [n for n, u in units.items() if u == "count" and n in layers[0]]
    drift = count_drift(workload, queries, mc_seed, layers, counts)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
        "spans": tracer.span_records(),
        "calls": tracer.calls, "self_s": tracer.self_s, "counts": tracer.counts,
        "missing": tracer.missing,
    }))
    if tracer.missing:
        print(f"bench: boundaries not found: {tracer.missing}", file=sys.stderr)
    out = {n: (layers[0][n] if n in counts else statistics.median(lay[n] for lay in layers))
           for n in layers[0]}
    out["trace.overhead_s"] = median_of(traced, "wall") - median_of(plain, "wall")
    out["trace.count_drift"] = drift
    return plain + traced, out


def count_drift(workload, queries, mc_seed, layers, counts) -> int:
    """Counters that differ between traced passes or from the first run on these inputs.

    The first traced run on a set of inputs leaves its counts in OUT; every
    later run on the same inputs is compared with them.  Drift is reported,
    never averaged away.
    """
    drift = {n: [lay[n] for lay in layers] for n in counts
             if any(lay[n] != layers[0][n] for lay in layers)}
    # the Monte Carlo seed is an input only where a query simulates
    frozen = [{k: v for k, v in q.items() if k != "policy"} for q in queries]
    if any(q["kind"] == "simulate" for q in queries):
        frozen.append(mc_seed)
    inputs = hashlib.sha256(json.dumps(frozen, sort_keys=True).encode()).hexdigest()[:16]
    record = OUT / f"counts-{workload}-{inputs}.json"
    mine = {n: layers[0][n] for n in counts}
    if record.exists():
        first = json.loads(record.read_text())
        for n in counts:
            if n in first and first[n] != mine[n]:
                drift.setdefault(n, [lay[n] for lay in layers]).insert(0, first[n])
    else:
        OUT.mkdir(exist_ok=True)
        record.write_text(json.dumps(mine, indent=1, sort_keys=True))
    for name, values in drift.items():
        print(f"bench: count drift in {name}: {values}", file=sys.stderr)
    return len(drift)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / PACKAGE).rglob("*.py")))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_workload(ref, bench, workload, seed, seconds, trace) -> dict:
    mc_seed = random.Random(seed).choice(ref["mc_seeds"])
    section = "per_layer" if trace else "end_to_end"
    units = {x["name"]: x["unit"] for x in bench[section]}
    if trace:
        m, queries, mismatched, _ = setup(ref, workload)
        passes, values = measure_traced(m, queries, mc_seed, seconds, workload, seed, units)
    else:
        with SpeedMeter() as meter:
            m, queries, mismatched, setup_iv = setup(ref, workload)
            passes = measure(m, queries, mc_seed, seconds)
        values = end_to_end(queries, passes, setup_iv, len(mismatched), meter)
    meta = {
        "workload": workload, "seed": seed, "mc_seed": mc_seed, "passes": len(passes),
        "queries": len(queries), "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit(), "src.lines": src_lines(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name in sorted(values):
        unit = units.get(name) or TABLE_UNITS.get(name, "")
        note = next((v for k, v in LAYER_MAP.items() if name.startswith(k + ".")), "")
        print(f"  {name:50s} {values[name]:>16.6f} {unit:6s} {note}")
    missing = sorted(set(units) - set(values))
    if missing:
        fail(f"metrics not measured: {missing}")
    attempted = sum(p["attempted"] for p in passes) + len(mismatched)
    failed = sum(p["failed"] for p in passes) + len(mismatched)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / PACKAGE / "__init__.py").is_file():
        fail(f"no {PACKAGE} sources under {SRC}; run from a checkout of the repository")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ref = json.loads((Path(__file__).with_name("reference.json")).read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(ref, bench, name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": v for w, r in results.items() for n, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
