"""Per-layer metrics of the traced run: self times by layer and work counts.

Each layer metric is a sum over traced jobs divided by the number of
traced jobs. Times are self times (a span's duration minus its child
spans), except `reproduce.<criterion>_s`, which is the whole time of that
criterion. Counts marked computed are derived from the inputs a call
receives, not counted by the program.
"""

from __future__ import annotations

from collections import defaultdict

CRITERIA = ("tau-floor", "multipartite-structure", "fiber-expansion", "coloring-grid",
            "triangle-exclusion", "exception-scan", "johnson-fiber", "constructive-search",
            "inequality-chain", "rainbow3-threshold", "oracle-equivalence")


def metric(value, unit):
    return {"value": value, "unit": unit}

GROUP_BUILDERS = ("cyclic", "dihedral", "dicyclic", "metacyclic", "direct_product",
                  "semidirect_product", "central_product")

LAYER_OF = {
    **{f"groups.{f}": "groups.build_s" for f in GROUP_BUILDERS},
    "groups.load_cayley_table": "groups.load_s",
    "groups.group_from_cayley_table": "groups.from_table_s",
    "graphs.vertex_connectivity": "graphs.connectivity_s",
    "graphs.connectivity_at_least": "graphs.connectivity_s",
    "graphs.are_isomorphic": "graphs.iso_s",
    "ncgraph.noncommuting_graph": "ncgraph.build_s",
    **{f"ncgraph.{f}": "ncgraph.checks_s"
       for f in ("tau", "common_neighbor_floor_check", "edge_count_identity_check",
                 "abelian_extension_check")},
    **{f"bounds.{f}": "bounds.failure_bound_s"
       for f in ("failure_bound", "tau_breakdown", "scan_exception_report")},
    **{f"bounds.{f}": "bounds.inequality_s"
       for f in ("coarse_bound", "coarse_bound_holds", "mid_bound", "threshold_for_k")},
    "colorings.random_two_coloring": "colorings.draw_s",
    **{f"colorings.{f}": "colorings.construct_s"
       for f in ("multipartite_two_coloring", "j62_graph_and_coloring", "transfer_coloring",
                 "distinguished_edges")},
    "rainbow.search_two_coloring": "rainbow.search_s",
    "rainbow.two_color_failure_pair": "rainbow.fastcheck_s",
    **{f"rainbow.{f}": "rainbow.verify_s"
       for f in ("is_rainbow_k_connected", "certify_rc2", "short_rainbow_paths",
                 "enumerate_rainbow_paths", "select_disjoint_paths", "max_disjoint_paths",
                 "rc_lower_bound")},
    "rainbow.validate_certificate": "rainbow.validate_s",
}

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    [("groups.build_s", "s"), ("groups.load_s", "s"), ("groups.from_table_s", "s"),
     ("groups.elements", "count"), ("groups.self_s", "s"),
     ("graphs.connectivity_s", "s"), ("graphs.connectivity_calls", "count"),
     ("graphs.nonadjacent_pairs", "count"), ("graphs.iso_s", "s"), ("graphs.iso_calls", "count"),
     ("graphs.self_s", "s"),
     ("ncgraph.build_s", "s"), ("ncgraph.vertices", "count"), ("ncgraph.edges", "count"),
     ("ncgraph.checks_s", "s"), ("ncgraph.self_s", "s"),
     ("bounds.failure_bound_s", "s"), ("bounds.pairs", "count"), ("bounds.inequality_s", "s"),
     ("bounds.self_s", "s"),
     ("colorings.draw_s", "s"), ("colorings.draws", "count"), ("colorings.edges_drawn", "count"),
     ("colorings.construct_s", "s"), ("colorings.self_s", "s"),
     ("rainbow.search_s", "s"), ("rainbow.fastcheck_s", "s"), ("rainbow.attempts", "count"),
     ("rainbow.accept_ratio", "ratio"), ("rainbow.attempt_us", "us"), ("rainbow.verify_s", "s"),
     ("rainbow.validate_s", "s"), ("rainbow.pairs_verified", "count"), ("rainbow.self_s", "s")]
    + [(f"reproduce.{c}_s", "s") for c in CRITERIA]
    + [("reproduce.self_s", "s"), ("cli.self_s", "s"), ("trace.overhead_ratio", "ratio")]
)

# Work counts that must repeat exactly between runs with the same seed.
EXACT_COUNTS = ("groups.elements", "graphs.nonadjacent_pairs", "bounds.pairs",
                "rainbow.attempts", "rainbow.pairs_verified", "graphs.connectivity_calls",
                "ncgraph.vertices", "ncgraph.edges", "colorings.draws",
                "colorings.edges_drawn", "graphs.iso_calls")


def _edge_count(graph) -> int:
    return sum(row.bit_count() for row in graph.adj) // 2


def _noncentral(table) -> int:
    n = len(table)
    return sum(1 for x in range(n) if any(table[x][y] != table[y][x] for y in range(n)))


class Counts:
    """Work counts taken at the wrapped calls, from their arguments and results."""

    def __init__(self):
        self.total = defaultdict(int)
        self.searches: list[int] = []
        self.criteria: dict[int, str] = {}
        self._bound_groups: list = []

    def end_job(self):
        """Count the pairs of the groups `failure_bound` saw, outside any span."""
        for group in self._bound_groups:
            v = _noncentral(group.table)
            self.total["bounds.pairs"] += v * (v - 1) // 2
        self._bound_groups.clear()

    def on_group(self, sid, args, kwargs, result):
        self.total["groups.elements"] += result.order

    def on_connectivity(self, sid, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        n = g.vertex_count
        self.total["graphs.connectivity_calls"] += 1
        self.total["graphs.nonadjacent_pairs"] += n * (n - 1) // 2 - _edge_count(g)

    def on_iso(self, sid, args, kwargs, result):
        self.total["graphs.iso_calls"] += 1

    def on_ncgraph(self, sid, args, kwargs, result):
        self.total["ncgraph.vertices"] += result.graph.vertex_count
        self.total["ncgraph.edges"] += _edge_count(result.graph)

    def on_bound(self, sid, args, kwargs, result):
        self._bound_groups.append(args[0] if args else kwargs["group"])

    def on_draw(self, sid, args, kwargs, result):
        self.total["colorings.draws"] += 1
        self.total["colorings.edges_drawn"] += len(result.edge_colors)

    def on_search(self, sid, args, kwargs, result):
        names = ("g", "k", "attempts", "seed")
        call = dict(zip(names, args), **kwargs)
        self.searches.append(sid)
        if result is None:
            self.total["rainbow.attempts"] += call["attempts"]
        else:
            self.total["rainbow.attempts"] += result.seed - call["seed"] + 1
            self.total["rainbow.found"] += 1

    def on_verify(self, sid, args, kwargs, result):
        if hasattr(result, "per_pair"):
            self.total["rainbow.pairs_verified"] += len(result.per_pair)
        else:
            n = (args[0] if args else kwargs["g"]).vertex_count
            x, y = result.pair
            self.total["rainbow.pairs_verified"] += x * n - x * (x + 1) // 2 + (y - x)

    def on_criterion(self, sid, args, kwargs, result):
        self.criteria[sid] = result.name


def observe_counts(tracer) -> Counts:
    counts = Counts()
    for f in GROUP_BUILDERS + ("group_from_cayley_table",):
        tracer.observe(f"groups.{f}", counts.on_group)
    tracer.observe("graphs.vertex_connectivity", counts.on_connectivity)
    tracer.observe("graphs.are_isomorphic", counts.on_iso)
    tracer.observe("ncgraph.noncommuting_graph", counts.on_ncgraph)
    tracer.observe("bounds.failure_bound", counts.on_bound)
    tracer.observe("colorings.random_two_coloring", counts.on_draw)
    tracer.observe("rainbow.search_two_coloring", counts.on_search)
    tracer.observe("rainbow.is_rainbow_k_connected", counts.on_verify)
    for f in ("tau_floor", "multipartite_structure", "fiber_expansion", "coloring_grid",
              "triangle_exclusion", "exception_scan", "johnson_fiber", "constructive_search",
              "inequality_chain", "rainbow3", "oracle_equivalence"):
        tracer.observe(f"reproduce.check_{f}", counts.on_criterion)
    return counts


def layer_metrics(tracer, counts: Counts, jobs: int) -> dict:
    sums = defaultdict(float)
    self_times = tracer.self_times()
    names = tracer.names
    for sid, own in enumerate(self_times):
        fn = names[tracer.span_name[sid]]
        sums[fn.split(".", 1)[0] + ".self_s"] += own
        if fn in LAYER_OF:
            sums[LAYER_OF[fn]] += own
    for sid, criterion in counts.criteria.items():
        sums[f"reproduce.{criterion}_s"] += tracer.span_end[sid] - tracer.span_start[sid]

    # One search attempt: the search span minus its connectivity
    # precondition and its final verification.
    excluded = {tracer.name_ids.get(n) for n in ("graphs.connectivity_at_least",
                                                  "rainbow.is_rainbow_k_connected")}
    searches = set(counts.searches)
    attempt_time = sum(tracer.span_end[s] - tracer.span_start[s] for s in searches)
    for sid, parent in enumerate(tracer.span_parent):
        if parent in searches and tracer.span_name[sid] in excluded:
            attempt_time -= tracer.span_end[sid] - tracer.span_start[sid]
    attempts = counts.total["rainbow.attempts"]

    values = dict(sums)
    values.update(counts.total)
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "rainbow.accept_ratio":
            value = counts.total["rainbow.found"] / attempts if attempts else 0.0
        elif name == "rainbow.attempt_us":
            value = 1e6 * attempt_time / attempts if attempts else 0.0
        elif name == "trace.overhead_ratio":
            continue
        else:
            value = values.get(name, 0) / jobs
        out[name] = metric(value, unit)
    return out
