"""Command-line interface.

Every run prints a single-line JSON manifest to stdout as its final
output: the command, its parameters, SHA-256 digests of the files read
and written, and an outcome summary. Errors go to stderr as one JSON
object. Exit codes: 0 success, 1 verification or search failure, 2
usage or validation error, 3 a work budget exhausted (the answer is
unknown), 4 internal failure (a self-check of the program failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import reproduce as reproduce_mod
from .colorings import (PartitionSpec, j62_graph_and_coloring, multipartite_two_coloring,
                        read_coloring_file, write_coloring_file)
from .graphs import SearchBudgetExceeded, are_isomorphic, read_graph_file, write_graph_file
from .groups import (Group, central_product, cyclic, dicyclic, dihedral, direct_product,
                     load_cayley_table, metacyclic, semidirect_product, write_cayley_table)
from .ncgraph import BoundViolated, noncommuting_graph
from .rainbow import (FailureWitness, is_rainbow_k_connected, search_two_coloring,
                      write_certificate)


EXIT_USAGE, EXIT_BUDGET, EXIT_INTERNAL = 2, 3, 4
THRESHOLD_MAX_K = 100


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": message}), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(command: str, parameters: dict, inputs: list[str | Path] = (),
              outputs: list[str | Path] = (), outcome: dict | None = None) -> None:
    doc = {
        "command": command,
        "parameters": parameters,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": {str(p): _digest(p) for p in outputs},
        "outcome": outcome or {},
    }
    print(json.dumps(doc, sort_keys=True))


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _build_group(args) -> Group:
    family = args.family
    if family in ("cyclic", "dihedral", "dicyclic", "metacyclic"):
        if args.params is None:
            raise ValueError(f"--params is required for family {family}")
        params = _ints(args.params)
        if family == "metacyclic":
            if len(params) != 2:
                raise ValueError("metacyclic takes --params m,t")
            return metacyclic(*params)
        if len(params) != 1:
            raise ValueError(f"{family} takes a single --params integer")
        return {"cyclic": cyclic, "dihedral": dihedral, "dicyclic": dicyclic}[family](params[0])
    if args.left is None or args.right is None:
        raise ValueError(f"family {family} needs --left and --right group files")
    left = load_cayley_table(args.left)
    right = load_cayley_table(args.right)
    if family == "direct":
        return direct_product(left, right)
    if family == "central":
        if args.zg is None or args.zh is None:
            raise ValueError("central needs --zg and --zh element indices")
        return central_product(left, right, args.zg, args.zh)
    if args.action is None:
        raise ValueError("semidirect needs --action FILE (JSON list of permutations)")
    action = json.loads(Path(args.action).read_text())
    return semidirect_product(left, right, action)


def cmd_group_build(args) -> int:
    group = _build_group(args)
    write_cayley_table(group, args.out)
    inputs = [p for p in (args.left, args.right, args.action) if p]
    _manifest("group build", {"family": args.family, "params": args.params,
                              "zg": args.zg, "zh": args.zh},
              inputs=inputs, outputs=[args.out],
              outcome={"name": group.name, "order": group.order,
                       "center_size": group.center_mask.bit_count()})
    return 0


def cmd_ncgraph(args) -> int:
    group = load_cayley_table(args.group)
    ncg = noncommuting_graph(group)
    write_graph_file(ncg.graph, args.out)
    _manifest("ncgraph", {"group": str(args.group)},
              inputs=[args.group], outputs=[args.out],
              outcome={"vertices": ncg.graph.vertex_count,
                       "edges": ncg.graph.edge_count})
    return 0


def cmd_color_multipartite(args) -> int:
    spec = PartitionSpec(args.l, args.m, args.n)
    graph, coloring = multipartite_two_coloring(spec)
    write_graph_file(graph, args.out_graph)
    write_coloring_file(coloring, args.out_coloring)
    _manifest("color multipartite", {"l": args.l, "m": args.m, "n": args.n},
              outputs=[args.out_graph, args.out_coloring],
              outcome={"vertices": graph.vertex_count, "edges": graph.edge_count})
    return 0


def cmd_color_j62(args) -> int:
    graph, coloring = j62_graph_and_coloring()
    write_graph_file(graph, args.out_graph)
    write_coloring_file(coloring, args.out_coloring)
    _manifest("color j62", {},
              outputs=[args.out_graph, args.out_coloring],
              outcome={"vertices": graph.vertex_count, "edges": graph.edge_count})
    return 0


def cmd_verify(args) -> int:
    graph = read_graph_file(args.graph)
    coloring = read_coloring_file(args.coloring, graph)
    result = is_rainbow_k_connected(graph, coloring, args.k)
    params = {"graph": str(args.graph), "coloring": str(args.coloring), "k": args.k}
    if isinstance(result, FailureWitness):
        _manifest("verify", params, inputs=[args.graph, args.coloring],
                  outcome={"rainbow_k_connected": False,
                           "witness_pair": list(result.pair),
                           "disjoint_rainbow_paths_found": result.found})
        return 1
    outputs = []
    if args.cert:
        write_certificate(result, coloring, args.cert)
        outputs.append(args.cert)
    _manifest("verify", params, inputs=[args.graph, args.coloring], outputs=outputs,
              outcome={"rainbow_k_connected": True, "k": args.k})
    return 0


def cmd_search(args) -> int:
    graph = read_graph_file(args.graph)
    coloring = search_two_coloring(graph, args.k, args.attempts, args.seed)
    params = {"graph": str(args.graph), "k": args.k, "attempts": args.attempts,
              "seed": args.seed}
    if coloring is None:
        _manifest("search", params, inputs=[args.graph],
                  outcome={"found": False})
        return 1
    outputs = []
    if args.out:
        write_coloring_file(coloring, args.out)
        outputs.append(args.out)
    _manifest("search", params, inputs=[args.graph], outputs=outputs,
              outcome={"found": True, "winning_seed": coloring.seed,
                       "attempt": coloring.seed - args.seed})
    return 0


def cmd_bounds(args) -> int:
    if args.mode == "coarse":
        if args.n is None:
            raise ValueError("bounds coarse needs --n")
        holds = bounds_mod.coarse_bound_holds(args.n)
        _manifest("bounds coarse", {"n": args.n}, outcome={"holds": holds})
        return 0
    if args.mode == "threshold":
        if args.k > THRESHOLD_MAX_K:  # the scan's cost grows steeply with k
            raise SearchBudgetExceeded(f"bounds threshold is limited to k <= {THRESHOLD_MAX_K}")
        value = bounds_mod.threshold_for_k(args.k)
        _manifest("bounds threshold", {"k": args.k}, outcome={"threshold": value})
        return 0
    if args.group is None:
        raise ValueError("bounds needs --group FILE (or the coarse/threshold mode)")
    group = load_cayley_table(args.group)
    value = bounds_mod.failure_bound(group, args.k)
    _manifest("bounds", {"group": str(args.group), "k": args.k}, inputs=[args.group],
              outcome={"id": group.name, "order": group.order,
                       "p_num": str(value.numerator), "p_den": str(value.denominator),
                       "flagged": value >= 1})
    return 0


def cmd_scan(args) -> int:
    directory = Path(args.groups)
    files = sorted(directory.glob("*.cay"))
    if not files:
        raise ValueError(f"no .cay files in {directory}")
    groups = [load_cayley_table(p) for p in files]
    reports = bounds_mod.scan_exception_report(groups, k=args.k)
    bounds_mod.write_bound_reports(reports, args.out)
    _manifest("scan", {"groups": str(directory), "k": args.k},
              inputs=files, outputs=[args.out],
              outcome={"scanned": len(reports),
                       "flagged": [r.group_name for r in reports if r.flagged]})
    return 0


def cmd_iso(args) -> int:
    g1 = read_graph_file(args.graph)
    g2 = read_graph_file(args.graph2)
    mapping = are_isomorphic(g1, g2)
    params = {"graph": str(args.graph), "graph2": str(args.graph2)}
    if mapping is None:
        _manifest("iso", params, inputs=[args.graph, args.graph2],
                  outcome={"isomorphic": False})
        return 1
    _manifest("iso", params, inputs=[args.graph, args.graph2],
              outcome={"isomorphic": True, "mapping": mapping})
    return 0


def cmd_reproduce(args) -> int:
    results = reproduce_mod.run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    all_passed = all(r.passed for r in results)
    _manifest("reproduce", {"quick": args.quick},
              outcome={"criteria": len(results), "passed": all_passed,
                       "failed": [r.name for r in results if not r.passed]})
    return 0 if all_passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="ncrainbow")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p_group = sub.add_parser("group", help="construct groups")
    gsub = p_group.add_subparsers(dest="subcmd", required=True, parser_class=_Parser)
    p_build = gsub.add_parser("build", help="build a group and write its Cayley table")
    p_build.add_argument("--family", required=True,
                         choices=["cyclic", "dihedral", "dicyclic", "metacyclic",
                                  "direct", "semidirect", "central"])
    p_build.add_argument("--params", help="comma-separated integers (scalar families)")
    p_build.add_argument("--left", help="left factor .cay file (product families)")
    p_build.add_argument("--right", help="right factor .cay file (product families)")
    p_build.add_argument("--zg", type=int, help="central element index in the left factor")
    p_build.add_argument("--zh", type=int, help="central element index in the right factor")
    p_build.add_argument("--action", help="JSON file with one permutation of the left "
                                          "factor per right-factor element")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_group_build)

    p_ncg = sub.add_parser("ncgraph", help="non-commuting graph of a group file")
    p_ncg.add_argument("--group", required=True)
    p_ncg.add_argument("--out", required=True)
    p_ncg.set_defaults(func=cmd_ncgraph)

    p_color = sub.add_parser("color", help="explicit 2-colorings")
    csub = p_color.add_subparsers(dest="subcmd", required=True, parser_class=_Parser)
    p_multi = csub.add_parser("multipartite",
                              help="K_{m[l],ln} with its rainbow-2 coloring")
    p_multi.add_argument("--l", type=int, required=True)
    p_multi.add_argument("--m", type=int, required=True)
    p_multi.add_argument("--n", type=int, required=True)
    p_multi.add_argument("--out-graph", required=True)
    p_multi.add_argument("--out-coloring", required=True)
    p_multi.set_defaults(func=cmd_color_multipartite)
    p_j62 = csub.add_parser("j62", help="the J(6,2) 2-fiber graph and coloring")
    p_j62.add_argument("--out-graph", required=True)
    p_j62.add_argument("--out-coloring", required=True)
    p_j62.set_defaults(func=cmd_color_j62)

    p_verify = sub.add_parser("verify", help="check rainbow-k-connectivity")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--coloring", required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--cert", help="write the certificate JSON here")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="random search for a good 2-coloring")
    p_search.add_argument("--graph", required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--attempts", type=int, required=True)
    p_search.add_argument("--seed", type=int, required=True)
    p_search.add_argument("--out", help="write the found coloring here")
    p_search.set_defaults(func=cmd_search)

    p_bounds = sub.add_parser("bounds", help="exact failure bounds and inequalities")
    p_bounds.add_argument("mode", nargs="?", default="group",
                          choices=["group", "coarse", "threshold"])
    p_bounds.add_argument("--group")
    p_bounds.add_argument("--k", type=int, default=2)
    p_bounds.add_argument("--n", type=int)
    p_bounds.set_defaults(func=cmd_bounds)

    p_scan = sub.add_parser("scan", help="failure bounds for every .cay file in a directory")
    p_scan.add_argument("--groups", required=True)
    p_scan.add_argument("--k", type=int, default=2)
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_iso = sub.add_parser("iso", help="explicit isomorphism between two graph files")
    p_iso.add_argument("--graph", required=True)
    p_iso.add_argument("--graph2", required=True)
    p_iso.set_defaults(func=cmd_iso)

    p_rep = sub.add_parser("reproduce", help="run the full certification pipeline")
    p_rep.add_argument("--quick", action="store_true")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        if isinstance(exc, SearchBudgetExceeded):
            return EXIT_BUDGET
        if isinstance(exc, (AssertionError, BoundViolated)):
            return EXIT_INTERNAL
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
