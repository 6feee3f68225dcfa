"""Command line front end.

Exit codes: 0 when the requested object exists or every sweep agrees,
1 when a search comes up empty or a verification fails, 2 on bad input
or usage.
"""

from __future__ import annotations

import argparse
import os
import reprlib
import sys
from typing import Sequence

from .constructions import (
    label_forest,
    label_mpn,
    label_mpn_general,
    label_theta_double_prime,
    label_theta_prime,
    label_unidirectional_path,
)
from .digraph import THETA_DOUBLE_PRIME, THETA_PRIME, normalize_distance_set
from .errors import AntimagicError, InvalidDistanceSetError, InvalidParameterError
from .generators import FORWARD, build_cycle, build_path, parse_forest_spec
from .labeling import weight_profile
from .search import (
    SearchReport,
    check_forest_lemmas,
    check_path_characterizations,
    check_tree_characterization,
    check_union_counterexample,
    duality_sweep,
    duality_sweep_graph,
    exhaustive_labeling_search,
    find_magic_graph,
    magic_bound_sweep,
    render_checks_table,
    survey_neighborhood_sufficiency,
)
from .serialize import (
    canonical_json,
    construction_to_dict,
    graph_to_dict,
    graph_to_dot,
    load_graph,
    load_labels,
    write_text,
)

_FAMILIES = ("uni-path", "theta-prime", "theta-double-prime", "mpn", "forest")
_SWEEPS = ("path-characterizations", "tree-characterization", "forest-lemmas",
           "duality", "union-counterexample", "neighborhood-survey",
           "magic-bounds")


def _parse_distance_set(text: str) -> tuple[int, ...]:
    parts = [p for chunk in text.strip().strip("{}").split(",")
             for p in chunk.split()]
    if not parts:
        raise InvalidDistanceSetError(f"empty distance set {reprlib.repr(text)}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise InvalidDistanceSetError(
            "distance sets are comma-separated integers, "
            f"got {reprlib.repr(text)}") from None
    return normalize_distance_set(values)


def _parse_orientation(text: str) -> int | str:
    if text in (FORWARD, THETA_PRIME, THETA_DOUBLE_PRIME) or text.startswith("0b"):
        return text
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(
            f"orientation must be a name, a 0b mask, or an integer, "
            f"got {reprlib.repr(text)}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _print_report(report: SearchReport) -> None:
    print(f"outcome: {report.outcome}")
    if report.witness is not None:
        print("witness:", " ".join(str(x) for x in report.witness))
    if report.witness_graph is not None:
        arcs = " ".join(f"{u + 1}->{v + 1}"
                        for u, v in sorted(report.witness_graph.arcs))
        print("witness graph:", arcs)
    if report.magic_constant is not None:
        print(f"magic constant: {report.magic_constant}")
    if report.shortcut:
        print("shortcut: two vertices share a distance neighborhood")
    print(f"candidates examined: {report.candidates_examined}")
    print(f"elapsed: {report.elapsed:.6f}s")


def _cmd_construct(args: argparse.Namespace) -> int:
    d = _parse_distance_set(args.d_text) if args.d_text else None
    if args.family == "uni-path":
        if args.n is None or d is None:
            raise InvalidParameterError("uni-path needs --n and --D")
        result = label_unidirectional_path(args.n, d)
    elif args.family == "theta-prime":
        if args.n is None or d is None:
            raise InvalidParameterError("theta-prime needs --n and --D")
        result = label_theta_prime(args.n, d)
    elif args.family == "theta-double-prime":
        if args.n is None or d is None:
            raise InvalidParameterError("theta-double-prime needs --n and --D")
        result = label_theta_double_prime(args.n, d)
    elif args.family == "mpn":
        if args.m is None or args.n is None:
            raise InvalidParameterError("mpn needs --m and --n")
        if args.k is not None and d is not None:
            raise InvalidParameterError("give mpn either --k or --D, not both")
        if args.k is not None:
            result = label_mpn(args.m, args.n, args.k)
        elif d is not None:
            result = label_mpn_general(args.m, args.n, d)
        else:
            raise InvalidParameterError("mpn needs --k or --D")
    else:
        if not args.spec:
            raise InvalidParameterError('forest needs --spec, e.g. "2x3,1x5"')
        if d is not None:
            raise InvalidParameterError(
                "the forest construction fixes its own distance set")
        result = label_forest(parse_forest_spec(args.spec))
    if args.dot:
        text = graph_to_dot(result.graph, result.labels, result.d_set)
    else:
        text = canonical_json(construction_to_dict(result))
    _emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    labels = load_labels(args.labeling)
    d = _parse_distance_set(args.d_text)
    profile = weight_profile(g, labels, d, clamp=args.clamp)
    print("weights:", " ".join(str(w) for w in profile.weights))
    if args.magic:
        if profile.magic_constant is not None:
            print(f"magic constant: {profile.magic_constant}")
            return 0
        print("not magic")
        return 1
    if profile.distinct:
        print("antimagic: yes")
        return 0
    print("antimagic: no")
    print("collisions:", " ".join(f"v{u + 1}=v{v + 1}"
                                  for u, v in profile.collisions))
    return 1


def _cmd_search(args: argparse.Namespace) -> int:
    d = _parse_distance_set(args.d_text)
    if args.magic:
        if args.order is None:
            raise InvalidParameterError("--magic needs --order")
        report = find_magic_graph(args.order, d, args.target_lambda)
        _print_report(report)
        return 0 if report.found else 1
    if args.cycle is not None:
        g = build_cycle(args.cycle)
    elif args.path is not None:
        g = build_path(args.path, _parse_orientation(args.orientation))
    elif args.graph is not None:
        g = load_graph(args.graph)
    else:
        raise InvalidParameterError(
            "search needs --cycle, --path, --graph, or --magic")
    budget = args.budget
    if budget is None:
        env = os.environ.get("ANTIMAGIC_BUDGET")
        if env:
            try:
                budget = int(env)
            except ValueError:
                raise InvalidParameterError(
                    "ANTIMAGIC_BUDGET must be an integer, "
                    f"got {reprlib.repr(env)}") from None
    report = exhaustive_labeling_search(
        g, d, budget=budget, jobs=args.jobs, use_pruning=not args.no_prune)
    _print_report(report)
    return 0 if report.found else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.family == "path-characterizations":
        n_max = 5 if args.n_max is None else args.n_max
        checks = check_path_characterizations(n_max, jobs=args.jobs)
    elif args.family == "tree-characterization":
        n_max = 4 if args.n_max is None else args.n_max
        checks = (check_tree_characterization(n_max),)
    elif args.family == "forest-lemmas":
        checks = check_forest_lemmas(args.total)
    elif args.family == "duality":
        if args.cycle is not None:
            checks = (duality_sweep_graph(build_cycle(args.cycle),
                                          trials=args.trials, seed=args.seed),)
        else:
            checks = (duality_sweep(args.order, trials=args.trials,
                                    seed=args.seed),)
    elif args.family == "magic-bounds":
        checks = (magic_bound_sweep(args.order),)
    elif args.family == "union-counterexample":
        breakdown = check_union_counterexample()
        print(f"singleton {{0}}: {breakdown.singleton_zero.outcome}")
        print(f"singleton {{2}}: {breakdown.singleton_two.outcome}")
        print(f"union {{0, 2}} with pruning: {breakdown.union_pruned.outcome} "
              f"(shortcut={breakdown.union_pruned.shortcut})")
        print(f"union {{0, 2}} full scan: {breakdown.union_full.outcome} "
              f"after {breakdown.union_full.candidates_examined} candidates")
        print("ok" if breakdown.ok else "FAIL")
        return 0 if breakdown.ok else 1
    else:
        survey = survey_neighborhood_sufficiency(args.order)
        print(f"order {survey.order}: {survey.pairs} graph/distance-set pairs, "
              f"{survey.necessary_ok} pass the necessary condition, "
              f"{survey.antimagic} antimagic, gap {survey.gap}")
        return 0
    print(render_checks_table(checks))
    return 0 if all(check.agree for check in checks) else 1


def _cmd_export(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    labels = load_labels(args.labeling) if args.labeling else None
    d = _parse_distance_set(args.d_text) if args.d_text else None
    if args.format == "json":
        if labels is not None or d is not None:
            raise InvalidParameterError(
                "json export takes the graph alone; use dot for annotations")
        text = canonical_json(graph_to_dict(g))
    else:
        text = graph_to_dot(g, labels, d)
    _emit(text, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Distance-set antimagic and magic labelings on small "
                    "oriented graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser(
        "construct", help="build a labeling from one of the closed forms")
    con.add_argument("--family", required=True, choices=_FAMILIES)
    con.add_argument("--n", type=int, help="path order")
    con.add_argument("--m", type=int, help="copy count for mpn")
    con.add_argument("--k", type=int, help="second distance for the mpn {0, k} form")
    con.add_argument("--spec", help='forest shape, e.g. "2x3,1x5,1x7"')
    con.add_argument("--D", dest="d_text", help='distance set, e.g. "0,2"')
    con.add_argument("--out", help="write here instead of stdout")
    con.add_argument("--dot", action="store_true",
                     help="emit annotated Graphviz instead of JSON")
    con.set_defaults(run=_cmd_construct)

    ver = sub.add_parser("verify", help="recompute weights for a labeling")
    ver.add_argument("--graph", required=True, help="graph JSON file")
    ver.add_argument("--labeling", required=True, help="labeling JSON file")
    ver.add_argument("--D", dest="d_text", required=True)
    ver.add_argument("--clamp", action="store_true",
                     help="drop distances beyond the partial diameter")
    ver.add_argument("--magic", action="store_true",
                     help="check for one shared weight instead of all distinct")
    ver.set_defaults(run=_cmd_verify)

    sea = sub.add_parser("search", help="brute-force search for a labeling")
    target = sea.add_mutually_exclusive_group()
    target.add_argument("--cycle", type=int, help="directed cycle of this order")
    target.add_argument("--path", type=int, help="oriented path of this order")
    target.add_argument("--graph", help="graph JSON file")
    target.add_argument("--magic", action="store_true",
                        help="hunt for a strongly connected magic graph instead")
    sea.add_argument("--orientation", default="forward",
                     help="path orientation: a name, a 0b mask, or an integer")
    sea.add_argument("--order", type=int, help="graph order for --magic")
    sea.add_argument("--lambda", dest="target_lambda", type=int,
                     help="required magic constant for --magic")
    sea.add_argument("--D", dest="d_text", required=True)
    sea.add_argument("--budget", type=int,
                     help="scan at most this many labelings "
                          "(default: ANTIMAGIC_BUDGET if set)")
    sea.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the scan")
    sea.add_argument("--no-prune", action="store_true",
                     help="skip the equal-neighborhood shortcut")
    sea.set_defaults(run=_cmd_search)

    swp = sub.add_parser("sweep", help="re-check a theorem family by brute force")
    swp.add_argument("family", choices=_SWEEPS)
    swp.add_argument("--n-max", dest="n_max", type=int,
                     help="largest order for path/tree sweeps")
    swp.add_argument("--total", type=int, default=6,
                     help="largest total order for forest-lemmas")
    swp.add_argument("--order", type=int, default=3,
                     help="order for duality, magic-bounds, neighborhood-survey")
    swp.add_argument("--cycle", type=int,
                     help="check duality on one directed cycle instead")
    swp.add_argument("--trials", type=int,
                     help="random labelings per case instead of all of them")
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--jobs", type=int, default=1)
    swp.set_defaults(run=_cmd_sweep)

    exp = sub.add_parser("export", help="rewrite a graph file as JSON or DOT")
    exp.add_argument("--graph", required=True, help="graph JSON file")
    exp.add_argument("--format", required=True, choices=("json", "dot"))
    exp.add_argument("--labeling", help="labeling JSON file (dot only)")
    exp.add_argument("--D", dest="d_text",
                     help="distance set for weight annotations (dot only)")
    exp.add_argument("--out", help="write here instead of stdout")
    exp.set_defaults(run=_cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except AntimagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
