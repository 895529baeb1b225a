"""End-to-end certification pipeline behind the `reproduce` CLI command.

Each step re-derives one of the package's headline claims from the
Cayley tables: structural identities of non-commuting graphs, the explicit
coloring grid, exact failure-bound values with the exception scan, the
threshold inequalities, and rainbow-2-connectivity certificates for every
group in the standard suite. Each suite graph and its bound at k = 2 are
made once and shared by every step that reads a suite group. Each step
names itself once, in its _criterion decorator, and returns its problems
and a summary; the decorator gives the verdict, and a step that exhausts
a work budget fails on its own line. A failing step does not stop the rest.

Groups whose failure bound is below 1 get their coloring from the random
search, which returns a coloring the verifier's count accepts; it is
then certified with certify_rc2. The flagged ones are certified by
structure: their graph is matched by are_isomorphic onto a model graph
with a known coloring, K_{m[l],ln} or the J(6,2) fiber graph, and the
coloring is pulled back along that isomorphism. The rainbow-3 coloring
of D14 comes from derandomized_two_coloring, the method of conditional
expectations: each edge takes the color whose bichromatic closures
carry the larger Erdős–Selfridge weight C(t-1, r-1) / 2^t, with no
search and no seed. Each coloring is verified once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from importlib import resources

from .bounds import (coarse_bound_holds, failure_bound, lemma_bound, lemma_threshold,
                     mid_bound, threshold_for_k)
from .check import brute_force_vertex_connectivity, short_rainbow_counts, validate_certificate
from .colorings import (EdgeColoring, InvalidSpec, PartitionSpec, j62_graph_and_coloring,
                        multipartite_two_coloring, splitmix64, transfer_coloring)
from .graphs import (Graph, SearchBudgetExceeded, are_isomorphic, complete_graph,
                     detect_complete_multipartite, graph_from_edges, vertex_connectivity)
from .groups import (Group, central_product, cyclic, dicyclic, dihedral,
                     direct_product, load_cayley_table, metacyclic, semidirect_product)
from .ncgraph import (BoundViolated, NonCommutingGraph, abelian_extension_check,
                      common_neighbor_floor_check, noncommuting_graph)
from .rainbow import (ColoringRejected, FailureWitness, RainbowCertificate, Rc2Certificate,
                      certify_rc2, derandomized_two_coloring, is_rainbow_k_connected,
                      search_two_coloring)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def standard_suite() -> list[Group]:
    """Dihedral and dicyclic runs (D16 and Q16 among them), the seven other
    non-abelian groups of order 16, the three Z3 extensions, both order-32
    central products, and the bundled Cayley tables (an S3 copy and A4)."""
    z2, z4 = cyclic(2), cyclic(4)
    v4 = direct_product(z2, z2)
    ident4 = list(range(4))
    invert = [0, 3, 2, 1]  # x -> -x on Z4
    swap = [0, 2, 1, 3]    # (a,b) -> (b,a) on Z2 x Z2
    suite = [dihedral(n) for n in range(3, 17)]
    suite += [dicyclic(m) for m in range(2, 9)]
    suite += [
        metacyclic(8, 3),
        metacyclic(8, 5),
        direct_product(dihedral(4), z2),
        direct_product(dicyclic(2), z2),
        central_product(z4, dihedral(4), 2, 2),
        semidirect_product(z4, z4, [ident4, invert, ident4, invert]),
        semidirect_product(v4, z4, [ident4, swap, ident4, swap]),
        direct_product(dihedral(3), cyclic(3)),
        direct_product(dihedral(4), cyclic(3)),
        direct_product(dicyclic(2), cyclic(3)),
        central_product(dihedral(4), dihedral(4), 2, 2),
        central_product(dihedral(4), dicyclic(2), 2, 2),
    ]
    data = resources.files("ncrainbow").joinpath("data")
    for entry in sorted(data.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".cay"):
            with resources.as_file(entry) as path:
                suite.append(load_cayley_table(path))
    return suite


Suite = dict[str, NonCommutingGraph]


def suite_graphs() -> Suite:
    """The non-commuting graph of each standard_suite group, by name, in order."""
    return {g.name: noncommuting_graph(g) for g in standard_suite()}


EXPECTED_FLAGGED = frozenset({
    "D6", "D8", "D10", "D12", "D14",
    "Q8", "Q12",
    "D16", "M(8,3)", "Q16", "M(8,5)", "D8xZ2", "Q8xZ2",
    "(Z4)o(D8)", "(Z4):(Z4)", "(Z2xZ2):(Z4)",
    "D6xZ3", "D8xZ3", "Q8xZ3",
    "(D8)o(D8)", "(D8)o(Q8)",
    "s3",
})


def multipartite_parameters(sizes: list[int]) -> PartitionSpec | None:
    """Factor a part-size multiset as m parts of size l plus one of size l*n."""
    sizes = sorted(sizes)
    if len(sizes) < 3:
        return None
    small, big = sizes[:-1], sizes[-1]
    if len(set(small)) != 1 or big % small[0]:
        return None
    try:
        return PartitionSpec(small[0], len(small), big // small[0])
    except InvalidSpec:
        return None


def certify_by_structure(ncg: NonCommutingGraph) -> Rc2Certificate | None:
    """rc2 certificate via the explicit constructions, without random search.

    The model is K_{m[l],ln} with its multipartite coloring when the graph
    is complete multipartite with part sizes of that form, else the J(6,2)
    fiber graph with its coloring; the coloring is pulled back along an
    isomorphism onto the model. None when the graph fits neither model.
    """
    sizes = detect_complete_multipartite(ncg.graph)
    if sizes is None:
        model, coloring = j62_graph_and_coloring()
    else:
        spec = multipartite_parameters(sizes)
        if spec is None:
            return None
        model, coloring = multipartite_two_coloring(spec)
    mapping = are_isomorphic(ncg.graph, model)
    if mapping is None:
        return None
    return certify_rc2(ncg.graph, transfer_coloring(coloring, mapping, ncg.graph))


# --- the individual criteria -------------------------------------------------

def _criterion(name: str):
    """Report a check's (problems, summary) as criterion `name`, passing with the
    summary if there are none; an exhausted work budget fails with its exception."""
    def decorate(check):
        @wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            try:
                problems, summary = check(*args, **kwargs)
            except SearchBudgetExceeded as exc:
                return CriterionResult(name, False, f"{type(exc).__name__}: {exc}")
            return CriterionResult(name, not problems, "; ".join(problems) or summary)
        return run
    return decorate


@_criterion("tau-floor")
def check_tau_floor(suite: Suite):
    """6*tau >= |G| on every suite group (raised inside the floor check),
    and 4*tau >= |G|, the hypothesis of lemma_bound, raised here. tau is
    read from the group; each suite graph's rows matched it when built."""
    worst = None
    for name, ncg in suite.items():
        min_tau, _ = common_neighbor_floor_check(ncg.group)
        order = ncg.group.order
        if 4 * min_tau < order:
            raise BoundViolated(f"{name}: 4*tau = {4 * min_tau} < {order}")
        ratio = Fraction(6 * min_tau, order)
        if worst is None or ratio < worst[0]:
            worst = (ratio, name)
    return [], f"{len(suite)} groups, min 6*tau/|G| = {worst[0]} at {worst[1]}"


@_criterion("multipartite-structure")
def check_multipartite_structure(suite: Suite):
    cases = ([(f"D{2 * n}", [1] * n + [n - 1]) for n in (3, 5, 7, 9)]
             + [(f"D{2 * n}", [2] * (n // 2) + [n - 2]) for n in (4, 6, 8, 10)]
             + [(f"Q{4 * m}", [2] * m + [2 * m - 2]) for m in range(2, 7)])
    bad = []
    for name, parts in cases:
        got = detect_complete_multipartite(suite[name].graph)
        if got != sorted(parts):
            bad.append(f"{name}: {got}")
    return bad, f"{len(cases)} graphs match"


@_criterion("fiber-expansion")
def check_fiber_expansion(suite: Suite):
    cases = [(suite["D6"], noncommuting_graph(direct_product(suite["D6"].group, cyclic(2))))]
    cases += [(suite[name], suite[f"{name}xZ3"]) for name in ("D6", "D8", "Q8")]
    for base, extended in cases:
        abelian_extension_check(base, extended)  # raises on mismatch
    return [], f"{len(cases)} natural maps verified"


COLORING_GRID = (
    [(l, 2, 1) for l in (2, 3, 4, 5)]
    + [(l, 3, 1) for l in (1, 2, 3)]
    + [(l, m, 1) for l in (1, 2, 3) for m in (4, 5, 6)]
    + [(l, m, 2) for l in (1, 2) for m in (3, 4, 5)]
    + [(1, m, 3) for m in (4, 5)]
)


@_criterion("coloring-grid")
def check_coloring_grid():
    bad = []
    for l, m, n in COLORING_GRID:
        graph, coloring = multipartite_two_coloring(PartitionSpec(l, m, n))
        try:
            certify_rc2(graph, coloring)
        except ColoringRejected:
            bad.append(f"({l},{m},{n})")
    return bad, f"{len(COLORING_GRID)} grid points certified"


@_criterion("triangle-exclusion")
def check_triangle_exclusion():
    k3 = complete_graph(3)
    for bits in range(8):
        colors = [1 + (bits >> i & 1) for i in range(3)]
        result = is_rainbow_k_connected(k3, EdgeColoring(k3, 2, colors), 2)
        if not isinstance(result, FailureWitness):
            return [f"2-coloring {colors} unexpectedly passed"], ""
    # on colors 1, 2, 3 each pair has its edge and the path through the third vertex
    cert = RainbowCertificate(2, {(x, y): ((x, y), (x, 3 - x - y, y)) for x, y in k3.edges})
    try:
        validate_certificate(k3, EdgeColoring(k3, 3, [1, 2, 3]), cert)
    except ValueError as exc:
        return [f"3-coloring certificate: {exc}"], ""
    return [], "all 8 two-colorings fail, a 3-coloring passes"


@_criterion("exception-scan")
def check_exception_scan(suite: Suite, values: dict[str, Fraction]):
    """The suite's flagged set and the D/Q sweep below lemma_threshold(2).

    Every group from that order on has failure_bound < 1 by the tau >=
    |G|/4 lemma, so only the orders below it are computed, and the D/Q
    groups the suite holds keep their suite values. Each computed value
    must lie at or under lemma_bound and the paper's mid_bound(|G|, |Z|);
    one above either contradicts a proof and raises BoundViolated.
    """
    first_proved = lemma_threshold(2)
    flagged = {name for name, value in values.items() if value >= 1}
    problems = []
    if flagged != EXPECTED_FLAGGED:
        problems.append(f"flagged set differs: {sorted(flagged ^ EXPECTED_FLAGGED)}")
    if values["D6"] != Fraction(19, 8) or values["D8"] != Fraction(63, 16):
        problems.append("pinned values for D6/D8 moved")
    top = first_proved - 1
    computed = [(n, g.group.order, g.group.center_mask.bit_count(), values[n])
                for n, g in suite.items()]
    sweep = ([(f"D{2 * n}", 2 * n, dihedral, n) for n in range(3, top // 2 + 1)]
             + [(f"Q{4 * m}", 4 * m, dicyclic, m) for m in range(2, top // 4 + 1)])
    for name, order, family, param in sweep:
        value = values.get(name)
        if value is None:
            grp = family(param)
            value = failure_bound(grp)
            computed.append((name, order, grp.center_mask.bit_count(), value))
        if (value >= 1) != (order <= 16):  # flagged exactly through D16 and Q16
            problems.append(f"{name} on the wrong side of 1")
    for name, order, z, value in computed:
        if value > lemma_bound(order):
            raise BoundViolated(f"{name}: failure_bound {value} > lemma_bound({order})")
        if not mid_bound(order, z).covers(value):
            raise BoundViolated(f"{name}: failure_bound {value} > mid_bound({order}, {z})")
    return problems, (f"{len(flagged)} flagged, dihedral/dicyclic clean through order {top},"
                      f" every group from order {first_proved} by tau >= |G|/4")


@_criterion("johnson-fiber")
def check_johnson_fiber(suite: Suite):
    graph, coloring = j62_graph_and_coloring()
    problems = []
    if (graph.vertex_count, graph.edge_count) != (30, 240):
        problems.append(f"graph is {graph.vertex_count}v/{graph.edge_count}e")
    if isinstance(is_rainbow_k_connected(graph, coloring, 2), FailureWitness):
        problems.append("coloring fails k=2")
    for name in ("(D8)o(D8)", "(D8)o(Q8)"):
        if are_isomorphic(suite[name].graph, graph) is None:
            problems.append(f"{name} not isomorphic")
    return problems, "verified, both order-32 graphs isomorphic"


@_criterion("constructive-search")
def check_constructive_search(suite: Suite, values: dict[str, Fraction]):
    certified = {"searched": 0, "structural": 0}
    problems = []
    for name, ncg in suite.items():
        route = "searched" if values[name] < 1 else "structural"
        try:
            if route == "searched":
                # a returned coloring passes the verifier's count; certify it here
                coloring = search_two_coloring(ncg.graph, 2, 10 ** 4, seed=1)
                cert = None if coloring is None else certify_rc2(ncg.graph, coloring)
            else:
                cert = certify_by_structure(ncg)
        except ColoringRejected as exc:
            problems.append(f"{route} coloring rejected for {name}: {exc}")
            continue
        if cert is None:
            problems.append(f"search failed for {name}" if route == "searched"
                            else f"no structural certificate for {name}")
            continue
        certified[route] += 1
    searched, structural = certified.values()
    return problems, (f"rc2 = 2 for all {searched + structural} graphs"
                      f" ({searched} searched, {structural} structural)")


@_criterion("inequality-chain")
def check_inequality_chain():
    """The paper's chain failure_bound <= mid_bound <= coarse_bound < 1, for
    every order n >= 114.

    coarse_bound(n) < 1 is n^18 < 2^(n+12). It fails at 108 and holds at
    114, and 115^18 < 2 * 114^18 carries it from n to n + 1, because
    (1 + 1/n)^18 falls with n. Over the common 2^(-n/6), mid <= coarse
    termwise for every 1 <= z <= n: 0 <= n - z < n, and n^2 - 2z - zn - 2
    < n^2 (where it is negative, the product is at most 0).
    check_exception_scan checks failure_bound <= mid_bound on every group
    it computes.
    """
    problems = []
    if coarse_bound_holds(108):
        problems.append("coarse bound wrongly holds at 108")
    if not coarse_bound_holds(114):
        problems.append("coarse bound fails at 114")
    if 115 ** 18 >= 2 * 114 ** 18:
        problems.append("induction step 115^18 < 2*114^18 fails")
    return problems, ("coarse fails at 108 and holds for every n >= 114"
                      " (115^18 < 2*114^18), mid <= coarse for every 1 <= z <= n")


@_criterion("rainbow3-threshold")
def check_rainbow3(suite: Suite):
    problems = []
    if failure_bound(suite["D6"].group, 3) != Fraction(55, 8):
        problems.append("failure_bound(D6, 3) moved")
    g14 = suite["D14"].graph
    kappa = vertex_connectivity(g14)
    if kappa < 3:
        problems.append(f"kappa of the D14 graph is {kappa}")
    # the greedy starts above 1 here (failure_bound(D14, 3) > 8), so only
    # the verifier decides its coloring
    coloring, _ = derandomized_two_coloring(g14, 3)
    if isinstance(is_rainbow_k_connected(g14, coloring, 3), FailureWitness):
        problems.append("the D14 rainbow-3 coloring fails verification")
    thresholds = [threshold_for_k(k) for k in range(2, 7)]
    if thresholds[0] != 126 or thresholds[1] != 180:
        problems.append(f"thresholds moved: {thresholds[:2]}")
    if thresholds != sorted(thresholds):
        problems.append("thresholds not nondecreasing")
    if 120 ** 2 + 120 ** 3 < 2 ** 20 or 126 ** 2 + 126 ** 3 >= 2 ** 21:
        problems.append("hand check on 120/126 failed")
    return problems, f"kappa = {kappa}, rc3 = 2 for D14, thresholds {thresholds}"


def _random_test_graph(stream, max_vertices: int = 12) -> tuple[Graph, EdgeColoring]:
    n = 4 + next(stream) % (max_vertices - 3)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if next(stream) & 1]
    graph = graph_from_edges(n, edges)
    colors = [1 + (next(stream) & 1) for _ in edges]
    return graph, EdgeColoring(graph, 2, colors)


@_criterion("oracle-equivalence")
def check_oracle_equivalence(quick: bool):
    stream = splitmix64(2024)
    refused, problems = [], []  # a certificate the validator refuses is named first
    rounds = 40 if quick else 200
    for _ in range(rounds):
        graph, coloring = _random_test_graph(stream)
        counts = list(short_rainbow_counts(coloring))
        for k in range(1, max(count for _, count in counts) + 2):
            short = next((FailureWitness(pair, k, count) for pair, count in counts
                          if count < k), None)
            try:  # a certificate comes back only once validate_certificate passes it
                result = is_rainbow_k_connected(graph, coloring, k)
            except ValueError as exc:
                refused.append(f"certificate refused at k={k}: {exc}")
                break
            if not (result == short if short else isinstance(result, RainbowCertificate)):
                problems.append(f"verifier gives {result} at k={k}")
                break
    for _ in range(rounds // 8):
        graph, _ = _random_test_graph(stream, max_vertices=9)
        if vertex_connectivity(graph) != brute_force_vertex_connectivity(graph):
            problems.append("connectivity mismatch")
    return (refused + problems)[:3], f"{rounds} colored graphs agree"


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Every criterion, in order; one that fails does not stop the rest."""
    suite = suite_graphs()
    values = {name: failure_bound(ncg.group) for name, ncg in suite.items()}
    return [
        check_tau_floor(suite),
        check_multipartite_structure(suite),
        check_fiber_expansion(suite),
        check_coloring_grid(),
        check_triangle_exclusion(),
        check_exception_scan(suite, values),
        check_johnson_fiber(suite),
        check_constructive_search(suite, values),
        check_inequality_chain(),
        check_rainbow3(suite),
        check_oracle_equivalence(quick),
    ]
