"""Command-line interface.

Every run prints a single-line JSON manifest to stdout as its final
output: the command, its parameters, SHA-256 digests of the files read
and written, and an outcome summary. Errors go to stderr as one JSON
object. Exit codes: 0 success, 1 verification or search failure, 2
usage or validation error, 3 a work budget exhausted (the answer is
unknown), 4 internal failure (a self-check of the program failed).

Each subcommand names its files once, as `files(args) -> (inputs,
outputs)` beside its `func`. Commands return their manifest fields,
`(exit code, command, parameters, outcome)`; `main` writes the manifest.
Before the command runs, `main` reads and digests every input and
refuses an output that resolves to an input or to another output or
lies in a missing directory, so a refused run writes nothing. The
manifest lists outputs only on exit 0; each `group build` family and
each `bounds` mode refuses every flag it does not read, so the manifest
lists only files and parameters the command reads.
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
from .ncgraph import AbelianGroup, BoundViolated, noncommuting_graph
from .rainbow import (FailureWitness, is_rainbow_k_connected, search_two_coloring,
                      write_certificate)


EXIT_USAGE, EXIT_BUDGET, EXIT_INTERNAL = 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": message}), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _digests(paths) -> dict[str, str]:
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _check_outputs(inputs, outputs) -> None:
    """Raise ValueError when an output resolves to an input or to another
    output, or its directory does not exist; called before the command
    runs, so nothing is written."""
    if not outputs:
        return  # a command that writes nothing resolves no path
    claimed = dict.fromkeys((Path(p).resolve() for p in inputs), "also an input")
    for out in outputs:
        path = Path(out).resolve()
        if path in claimed:
            raise ValueError(f"output {out} is {claimed[path]}")
        if not path.parent.is_dir():
            raise ValueError(f"output {out} is in a directory that does not exist")
        claimed[path] = "named twice"


def _ints(text: str) -> list[int]:
    tokens = text.split(",")
    if "" in tokens:
        raise ValueError(f"--params {text!r} has an empty entry")
    return [int(tok) for tok in tokens]


def _cay_files(directory: str) -> list[Path]:
    files = sorted(Path(directory).glob("*.cay"))
    if not files:
        raise ValueError(f"no .cay files in {Path(directory)}")
    return files


def _refuse_unread(args, flags, reads, what: str) -> None:
    """Refuse each of flags that was given but that `what` does not read."""
    for flag in flags:
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"{what} takes no --{flag}")


def _build_group(args) -> Group:
    family = args.family
    reads = {"direct": ("left", "right"), "semidirect": ("left", "right", "action"),
             "central": ("left", "right", "zg", "zh")}.get(family, ("params",))
    _refuse_unread(args, ("params", "left", "right", "zg", "zh", "action"), reads,
                   f"family {family}")
    if "params" in reads:
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


def cmd_group_build(args):
    group = _build_group(args)
    write_cayley_table(group, args.out)
    params = {"family": args.family, "params": args.params, "zg": args.zg, "zh": args.zh}
    return 0, "group build", params, {"name": group.name, "order": group.order,
                                      "center_size": group.center_mask.bit_count()}


def cmd_ncgraph(args):
    graph = noncommuting_graph(load_cayley_table(args.group)).graph
    write_graph_file(graph, args.out)
    return 0, "ncgraph", {"group": str(args.group)}, {
        "vertices": graph.vertex_count, "edges": graph.edge_count}


def cmd_color(args):
    if args.subcmd == "multipartite":
        params = {"l": args.l, "m": args.m, "n": args.n}
        graph, coloring = multipartite_two_coloring(PartitionSpec(**params))
    else:
        params = {}
        graph, coloring = j62_graph_and_coloring()
    write_graph_file(graph, args.out_graph)
    write_coloring_file(coloring, args.out_coloring)
    return 0, f"color {args.subcmd}", params, {
        "vertices": graph.vertex_count, "edges": graph.edge_count}


def cmd_verify(args):
    graph = read_graph_file(args.graph)
    coloring = read_coloring_file(args.coloring, graph)
    result = is_rainbow_k_connected(graph, coloring, args.k)
    params = {"graph": str(args.graph), "coloring": str(args.coloring), "k": args.k}
    if isinstance(result, FailureWitness):
        return 1, "verify", params, {"rainbow_k_connected": False,
                                     "witness_pair": list(result.pair),
                                     "disjoint_rainbow_paths_found": result.found}
    if args.cert:
        write_certificate(result, coloring, args.cert)
    return 0, "verify", params, {"rainbow_k_connected": True, "k": args.k}


def cmd_search(args):
    graph = read_graph_file(args.graph)
    coloring = search_two_coloring(graph, args.k, args.attempts, args.seed)
    params = {"graph": str(args.graph), "k": args.k, "attempts": args.attempts,
              "seed": args.seed}
    if coloring is None:
        return 1, "search", params, {"found": False}
    result = is_rainbow_k_connected(graph, coloring, args.k)  # certify before writing
    if isinstance(result, FailureWitness):
        raise AssertionError(f"search accepted a failing coloring at {result.pair}")
    if args.out:
        write_coloring_file(coloring, args.out)
    return 0, "search", params, {"found": True, "winning_seed": coloring.seed,
                                 "attempt": coloring.seed - args.seed}


def cmd_bounds(args):
    reads = {"coarse": ("n",), "threshold": ("k",)}.get(args.mode, ("group", "k"))
    _refuse_unread(args, ("group", "k", "n"), reads, f"bounds {args.mode}")
    k = 2 if args.k is None else args.k
    if args.mode == "coarse":
        if args.n is None:
            raise ValueError("bounds coarse needs --n")
        return 0, "bounds coarse", {"n": args.n}, {
            "holds": bounds_mod.coarse_bound_holds(args.n)}
    if args.mode == "threshold":
        return 0, "bounds threshold", {"k": k}, {"threshold": bounds_mod.threshold_for_k(k)}
    if args.group is None:
        raise ValueError("bounds needs --group FILE (or the coarse/threshold mode)")
    group = load_cayley_table(args.group)
    value = bounds_mod.failure_bound(group, k)
    return 0, "bounds", {"group": str(args.group), "k": k}, {
        "id": group.name, "order": group.order, "p_num": str(value.numerator),
        "p_den": str(value.denominator), "flagged": value >= 1}


def cmd_scan(args):
    entries = []
    for path in _cay_files(args.groups):
        group = load_cayley_table(path)
        entry = {"id": group.name, "order": group.order,
                 "center_size": group.center_mask.bit_count()}
        try:
            value = bounds_mod.failure_bound(group, args.k)
        except AbelianGroup as exc:
            entry["error"] = type(exc).__name__
        else:
            entry.update(p_num=str(value.numerator), p_den=str(value.denominator),
                         flagged=value >= 1)
        entries.append(entry)
    Path(args.out).write_text(json.dumps(entries, indent=1) + "\n")
    return 0, "scan", {"groups": str(Path(args.groups)), "k": args.k}, {
        "scanned": len(entries), "flagged": [e["id"] for e in entries if e.get("flagged")]}


def cmd_iso(args):
    mapping = are_isomorphic(read_graph_file(args.graph), read_graph_file(args.graph2))
    params = {"graph": str(args.graph), "graph2": str(args.graph2)}
    if mapping is None:
        return 1, "iso", params, {"isomorphic": False}
    return 0, "iso", params, {"isomorphic": True, "mapping": mapping}


def cmd_reproduce(args):
    results = reproduce_mod.run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    return 1 if failed else 0, "reproduce", {"quick": args.quick}, {
        "criteria": len(results), "passed": not failed, "failed": failed}


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
    p_build.set_defaults(func=cmd_group_build,
                         files=lambda a: ([a.left, a.right, a.action], [a.out]))

    p_ncg = sub.add_parser("ncgraph", help="non-commuting graph of a group file")
    p_ncg.add_argument("--group", required=True)
    p_ncg.add_argument("--out", required=True)
    p_ncg.set_defaults(func=cmd_ncgraph, files=lambda a: ([a.group], [a.out]))

    p_color = sub.add_parser("color", help="explicit 2-colorings")
    csub = p_color.add_subparsers(dest="subcmd", required=True, parser_class=_Parser)
    p_multi = csub.add_parser("multipartite",
                              help="K_{m[l],ln} with its rainbow-2 coloring")
    p_multi.add_argument("--l", type=int, required=True)
    p_multi.add_argument("--m", type=int, required=True)
    p_multi.add_argument("--n", type=int, required=True)
    p_j62 = csub.add_parser("j62", help="the J(6,2) 2-fiber graph and coloring")
    for p_out in (p_multi, p_j62):
        p_out.add_argument("--out-graph", required=True)
        p_out.add_argument("--out-coloring", required=True)
        p_out.set_defaults(func=cmd_color, files=lambda a: ([], [a.out_graph, a.out_coloring]))

    p_verify = sub.add_parser("verify", help="check rainbow-k-connectivity")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--coloring", required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--cert", help="write the certificate JSON here")
    p_verify.set_defaults(func=cmd_verify, files=lambda a: ([a.graph, a.coloring], [a.cert]))

    p_search = sub.add_parser("search", help="random search for a good 2-coloring")
    p_search.add_argument("--graph", required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--attempts", type=int, required=True)
    p_search.add_argument("--seed", type=int, required=True)
    p_search.add_argument("--out", help="write the found coloring here")
    p_search.set_defaults(func=cmd_search, files=lambda a: ([a.graph], [a.out]))

    p_bounds = sub.add_parser("bounds", help="exact failure bounds and inequalities")
    p_bounds.add_argument("mode", nargs="?", default="group",
                          choices=["group", "coarse", "threshold"])
    p_bounds.add_argument("--group", help="group mode only")
    p_bounds.add_argument("--k", type=int, help="group and threshold modes (default 2)")
    p_bounds.add_argument("--n", type=int, help="coarse mode only")
    p_bounds.set_defaults(func=cmd_bounds,
                          files=lambda a: ([a.group] if a.mode == "group" else [], []))

    p_scan = sub.add_parser("scan", help="failure bounds for every .cay file in a directory")
    p_scan.add_argument("--groups", required=True)
    p_scan.add_argument("--k", type=int, default=2)
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(func=cmd_scan, files=lambda a: (_cay_files(a.groups), [a.out]))

    p_iso = sub.add_parser("iso", help="explicit isomorphism between two graph files")
    p_iso.add_argument("--graph", required=True)
    p_iso.add_argument("--graph2", required=True)
    p_iso.set_defaults(func=cmd_iso, files=lambda a: ([a.graph, a.graph2], []))

    p_rep = sub.add_parser("reproduce", help="run the full certification pipeline")
    p_rep.add_argument("--quick", action="store_true")
    p_rep.set_defaults(func=cmd_reproduce, files=lambda a: ([], []))

    return parser


_parser: _Parser | None = None  # built on the first main call, then reused


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs, outputs = ([p for p in paths if p] for paths in args.files(args))
        _check_outputs(inputs, outputs)
        input_digests = _digests(inputs)  # every input is read before anything is written
        code, command, parameters, outcome = args.func(args)
        print(json.dumps({"command": command, "parameters": parameters,
                          "inputs": input_digests,
                          "outputs": _digests(outputs if code == 0 else []),
                          "outcome": outcome}, sort_keys=True))
        return code
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
