"""Command-line surface.

Exit codes: 0 on success, 1 when a verification check fails, 2 on
usage or input errors.  All results go to standard output; exact
values always print as reduced fractions p/q so scripted consumers can
compare strings.  Edge lists accept numeric ids or the symbolic names
<vertex><ordinal> (x0, z1, ...) derived from ascending edge ids.

One parent parser gives every command that reads an instance file its
`file` and `--facets`.  The query commands exact, simulate and comptree
take `--rule` and `--tree` from a second one and load their instance,
facets and start tree once, through _query.  The engines refuse unknown
edge ids and check the start tree (algorithms.start_state).

No option or environment variable widens an engine's limits.  Exact
rfstar and the computation trees of both rules refuse past
algorithms.EXECUTION_BUDGET executions, and rfstar past
orders.MAX_UNIVERSE facets; exact rf refuses past
exact.RF_STATE_BUDGET memo states.  A refusal exits 2 with nothing on
standard output.
"""
from __future__ import annotations

import argparse
import sys

from . import instances
from .algorithms import RF, RULES
from .comptree import _frac, comptree
from .errors import RandomFacetError
from .exact import expected_pivots_rf, expected_pivots_rf_star
from .graph import (
    Instance,
    TreePolicy,
    edge_names,
    optimal_tree,
    tree_distances,
    validate_instance,
)
from .montecarlo import estimate_expected_pivots
from .orders import ConstraintSet, conditional_order_probability, count_linear_extensions

# seams the tests monkeypatch to simulate a missing or perturbed fixture
_load_errata = instances.errata_instance
_derive_errata = instances.derive_errata_instance


def _load(path: str) -> Instance:
    return validate_instance(instances.load_instance(path))


def _edge_ids(inst: Instance, text: str) -> list[int]:
    """Edge ids of a comma-separated list; unknown ids are refused where used."""
    names = edge_names(inst)
    ids = []
    for token in text.split(","):
        token = token.strip()
        if token.lstrip("-").isdigit():
            ids.append(int(token))
        elif token in names:
            ids.append(names[token])
        elif token:
            raise ValueError(f"unknown edge {token!r}")
    return ids


def _facets(inst: Instance, text: str | None):
    return None if text is None else frozenset(_edge_ids(inst, text))


def _query(args) -> tuple[Instance, frozenset[int] | None, TreePolicy]:
    """The instance, facets and start tree that a query command names."""
    inst = _load(args.file)
    tree = TreePolicy.from_edge_ids(inst, _edge_ids(inst, args.tree))
    return inst, _facets(inst, args.facets), tree


def _cmd_solve(args) -> int:
    inst = _load(args.file)
    tree = optimal_tree(inst, _facets(inst, args.facets))
    dist = tree_distances(inst, tree)
    names = {eid: name for name, eid in edge_names(inst).items()}
    for v in sorted(tree.choices):
        eid = tree.edge_at(v)
        print(f"{v} {names.get(eid, str(eid))} {dist[v]}")
    return 0


def _cmd_exact(args) -> int:
    engine = expected_pivots_rf if args.rule == RF else expected_pivots_rf_star
    print(_frac(engine(*_query(args))))
    return 0


def _cmd_simulate(args) -> int:
    est = estimate_expected_pivots(*_query(args), args.rule, args.trials, args.seed)
    print(est.format())
    return 0


def _cmd_comptree(args) -> int:
    ct = comptree(*_query(args), args.rule)
    print(ct.to_dot() if args.format == "dot" else ct.to_text(), end="")
    return 0


def _cmd_perms(args) -> int:
    given = ConstraintSet.from_text(args.given or "")
    if args.mode == "count":
        print(count_linear_extensions(args.elements, given))
    else:
        query = ConstraintSet.from_text(args.query or "")
        print(_frac(conditional_order_probability(args.elements, given, query)))
    return 0


def _cmd_verify_errata(args) -> int:
    try:
        inst = _load_errata()
    except FileNotFoundError:
        print("fixture missing; deriving it by exhaustive search")
        inst = _derive_errata()
    failures = 0
    for name, expected, got in instances.errata_checks(inst):
        ok = expected == got
        failures += 0 if ok else 1
        print(f"CHECK {name} expected={expected} got={got} {'PASS' if ok else 'FAIL'}")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randomfacet",
        description="Pivoting-rule engines for single-target shortest paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("file")
    instance.add_argument("--facets", help="edge ids or names, comma separated; default all")
    query = argparse.ArgumentParser(add_help=False, parents=[instance])
    query.add_argument("--rule", choices=RULES, required=True)
    query.add_argument("--tree", required=True, help="start tree edge ids or names")

    p = sub.add_parser(
        "solve", parents=[instance], help="optimal tree and distances of an instance file"
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", parents=[query], help="exact expected pivot count as a fraction")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("simulate", parents=[query], help="seeded Monte Carlo estimate")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("comptree", parents=[query], help="probability-annotated computation tree")
    p.add_argument("--format", choices=["dot", "text"], default="text")
    p.set_defaults(func=_cmd_comptree)

    p = sub.add_parser("perms", help="linear extension counts and conditionals")
    p.add_argument("mode", choices=["count", "cond"])
    p.add_argument("--elements", type=int, required=True)
    p.add_argument("--given", help='constraints like "a<b,c<d"')
    p.add_argument("--query", help="constraints for cond mode")
    p.set_defaults(func=_cmd_perms)

    p = sub.add_parser(
        "verify-errata",
        help="check every reference quantity of the bundled counterexample",
    )
    p.set_defaults(func=_cmd_verify_errata)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RandomFacetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
