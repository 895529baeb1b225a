"""The rc2 routes of the reproduce pipeline: structure on relabelled groups,
and search followed by certification."""

import ast
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from ncrainbow import bounds, graphs, groups, ncgraph, rainbow, reproduce
from ncrainbow.bounds import coarse_bound, failure_bound, mid_bound
from ncrainbow.colorings import EdgeColoring
from ncrainbow.graphs import detect_complete_multipartite
from ncrainbow.groups import (cyclic, dihedral, direct_product, group_from_cayley_table,
                              semidirect_product)
from ncrainbow.ncgraph import BoundViolated, noncommuting_graph
from ncrainbow.rainbow import FailureWitness
from ncrainbow.reproduce import (EXPECTED_FLAGGED, CriterionResult, certify_by_structure,
                                 check_constructive_search, check_johnson_fiber,
                                 check_oracle_equivalence, check_rainbow3, check_tau_floor,
                                 standard_suite, suite_graphs)
from util import counting_validator, inject_min_tau, wrap_class_pairs

SWEEP = [f"D{2 * n}" for n in range(17, 29)] + [f"Q{4 * m}" for m in range(9, 15)]


def suite_and_values():
    """The suite's graphs and their failure bounds at k = 2, as run_all makes them."""
    suite = suite_graphs()
    return suite, {name: failure_bound(ncg.group) for name, ncg in suite.items()}


def relabelled(group, seed):
    """The same group with its elements renamed by a seeded permutation."""
    n = group.order
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[group.table[x][y]]
    return group_from_cayley_table(table, name=f"{group.name}@{seed}")


def test_flagged_groups_certify_under_relabelling():
    flagged = [g for g in standard_suite() if g.name in EXPECTED_FLAGGED]
    assert len(flagged) == len(EXPECTED_FLAGGED) == 22
    for group in flagged:
        for seed in range(3):
            cert = certify_by_structure(noncommuting_graph(relabelled(group, seed)))
            assert cert is not None, (group.name, seed)
            assert (cert.rc2, cert.lower_bound) == (2, 2), (group.name, seed)


def test_groups_outside_both_models_get_no_certificate():
    a4 = next(g for g in standard_suite() if g.name == "a4")
    graph = noncommuting_graph(a4).graph
    assert detect_complete_multipartite(graph) == [2, 2, 2, 2, 3]  # not m parts of l plus l*n
    assert certify_by_structure(noncommuting_graph(a4)) is None
    d6xd6 = noncommuting_graph(direct_product(dihedral(3), dihedral(3)))
    assert detect_complete_multipartite(d6xd6.graph) is None
    assert d6xd6.graph.vertex_count != 30  # so not the J(6,2) fiber graph either
    assert certify_by_structure(d6xd6) is None


def test_every_reported_coloring_is_validated_once(monkeypatch):
    suite, values = suite_and_values()
    calls = counting_validator(monkeypatch)
    assert check_constructive_search(suite, values).passed
    assert calls == [2] * len(suite)  # 13 searched and 22 structural, one certificate each
    calls.clear()
    assert check_rainbow3(suite).passed
    assert calls == [3]  # the greedy D14 coloring


def test_rejected_searched_coloring_is_a_problem_line(monkeypatch):
    """A search winner that certify_rc2 refuses fails the criterion and names
    the group; the group is not counted as searched."""
    def one_color(g, k, attempts, seed):
        return EdgeColoring(g, 2, [1] * g.edge_count)

    monkeypatch.setattr(reproduce, "search_two_coloring", one_color)
    result = check_constructive_search(*suite_and_values())
    assert not result.passed
    problems = result.detail.split("; ")
    assert len(problems) == 13
    assert all(p.startswith("searched coloring rejected for ") for p in problems)


@pytest.mark.parametrize("step, line, count", [
    ("search_two_coloring", "search failed for D18", 13),
    ("certify_by_structure", "no structural certificate for D6", 22),
])
def test_a_route_that_gives_no_certificate_is_a_problem_line(monkeypatch, step, line, count):
    """A search that finds nothing and a graph that fits no model each fail the
    criterion on their own line, one per group of that route."""
    monkeypatch.setattr(reproduce, step, lambda *args, **kwargs: None)
    result = check_constructive_search(*suite_and_values())
    assert not result.passed
    problems = result.detail.split("; ")
    assert len(problems) == count and line in problems
    prefix = line.rsplit(" ", 1)[0]
    assert all(p.startswith(prefix + " ") for p in problems)


def test_rejected_structural_coloring_is_a_problem_line(monkeypatch):
    def rejected(ncg):
        raise rainbow.ColoringRejected("pair (0, 1) has only 1 disjoint rainbow paths")

    monkeypatch.setattr(reproduce, "certify_by_structure", rejected)
    result = check_constructive_search(*suite_and_values())
    problems = result.detail.split("; ")
    assert not result.passed and len(problems) == 22
    assert ("structural coloring rejected for D6: pair (0, 1) has only 1 disjoint"
            " rainbow paths") in problems


def test_tau_floor_raises_on_a_tau_one_below_a_quarter_of_an_odd_order(monkeypatch):
    """On Z7:Z3 (order 21, least tau 12), an injected tau of 5 keeps
    6*tau >= |G| but gives 4*tau = 20 < 21, so the quarter guard raises;
    a guard off by one, 4*tau < |G| - 1, would let it pass."""
    inject_min_tau(monkeypatch, lambda order: 5)
    action = [[pow(2, y, 7) * x % 7 for x in range(7)] for y in range(3)]
    ncg = noncommuting_graph(semidirect_product(cyclic(7), cyclic(3), action))
    with pytest.raises(BoundViolated) as info:
        check_tau_floor({ncg.group.name: ncg})
    assert str(info.value) == "(Z7):(Z3): 4*tau = 20 < 21"


def test_a_direct_call_that_exhausts_a_budget_fails_its_criterion(monkeypatch):
    """The budget rule belongs to each criterion, not to run_all: called on
    its own, a check that exhausts the isomorphism budget reports a failed
    result naming the exception."""
    monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", 1)
    assert check_johnson_fiber(suite_graphs()) == CriterionResult(
        "johnson-fiber", False, "SearchBudgetExceeded: exceeded 1 nodes")


def test_rainbow3_fails_on_a_corrupted_greedy_coloring(monkeypatch):
    """Criterion 10 certifies the greedy D14 coloring only through the
    verifier: one flipped edge the verifier rejects fails the criterion."""
    g14 = noncommuting_graph(dihedral(7)).graph
    good, start = rainbow.derandomized_two_coloring(g14, 3)
    assert isinstance(rainbow.is_rainbow_k_connected(g14, good, 3), rainbow.RainbowCertificate)
    for j in range(g14.edge_count):
        colors = list(good.edge_colors)
        colors[j] = 3 - colors[j]
        bad = EdgeColoring(g14, 2, colors)
        if isinstance(rainbow.is_rainbow_k_connected(g14, bad, 3), FailureWitness):
            break
    else:
        raise AssertionError("no single flip fails verification")
    monkeypatch.setattr(reproduce, "derandomized_two_coloring", lambda g, k: (bad, start))
    result = check_rainbow3(suite_graphs())
    assert not result.passed
    assert result.detail == "the D14 rainbow-3 coloring fails verification"


def test_inequality_chain_checks_every_center_size():
    """Center size 1 is the trivial center of D6, D10, D14 and S3. The
    criterion states mid <= coarse for every 1 <= z <= n; its termwise
    argument holds at every such z, and mid_bound(n, z) <= coarse_bound(n)
    at every proper divisor z of n."""
    result = reproduce.check_inequality_chain()
    assert result.passed and "mid <= coarse for every 1 <= z <= n" in result.detail
    for n in range(3, 151):
        for z in range(1, n + 1):
            # over the common 2^(-n/6): 0 <= n - z < n and n^2 - 2z - zn - 2 < n^2
            assert 0 <= n - z < n and n * n - 2 * z - z * n - 2 < n * n, (n, z)
            assert (n - z) * (n * n - 2 * z - z * n - 2) <= n ** 3, (n, z)
        coarse = coarse_bound(n)
        for z in range(1, n):
            if n % z == 0:
                mid = mid_bound(n, z)
                assert mid.sixth_log2 == coarse.sixth_log2, (n, z)
                assert mid.prefactor <= coarse.prefactor, (n, z)


@pytest.mark.parametrize("n", [108, 114])
def test_inequality_chain_fails_on_a_flipped_coarse_verdict(monkeypatch, n):
    """The criterion rests on coarse failing at 108 and holding at 114:
    flipping either verdict fails it and names the order."""
    real = reproduce.coarse_bound_holds
    assert reproduce.check_inequality_chain().passed
    monkeypatch.setattr(reproduce, "coarse_bound_holds", lambda m: real(m) != (m == n))
    result = reproduce.check_inequality_chain()
    assert not result.passed and str(n) in result.detail


def test_exception_scan_computes_only_the_dq_groups_the_suite_lacks(monkeypatch):
    """The bound runs once, at k = 2, for each of D34..D56 and Q36..Q56,
    with no graph built, and never for a D/Q group the suite holds, whose
    suite value serves."""
    suite, values = suite_and_values()
    real_bound, real_build = reproduce.failure_bound, reproduce.noncommuting_graph
    seen, built = [], []

    def spy(group, k=2):
        seen.append((group.name, k))
        return real_bound(group, k)

    def build(group):
        built.append(group.name)
        return real_build(group)

    monkeypatch.setattr(reproduce, "failure_bound", spy)
    monkeypatch.setattr(reproduce, "noncommuting_graph", build)
    assert reproduce.check_exception_scan(suite, values).passed
    assert seen == [(name, 2) for name in SWEEP]
    assert built == []


def _criterion_caller() -> tuple[bool, bool]:
    """Whether the spied call runs under run_all, and under a criterion."""
    names = set()
    frame = sys._getframe(2)
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return "run_all" in names, any(name.startswith("check_") for name in names)


def test_run_all_builds_and_pairs_each_graph_once(monkeypatch):
    """One run_all builds each suite graph once, outside every criterion,
    and no criterion builds a suite group; each bounded group makes its
    class pairs once; beyond the suite, only D34..D56 and Q36..Q56 are
    bounded, each once at k = 2 and with no graph, and D6 x Z2 is the one
    other graph built. Every graph made, by any route, runs its row check
    once, so the builds are counted there."""
    suite = [g.name for g in standard_suite()]
    built, made, paired, bounded = [], [], [], []
    real_check = ncgraph.NonCommutingGraph.__post_init__
    real_finish, real_bound = groups._finish, bounds.failure_bound

    def build(ncg):
        built.append((ncg.group.name, *_criterion_caller()))
        real_check(ncg)

    def finish(table, names, name, *rest):
        made.append((name, *_criterion_caller()))
        return real_finish(table, names, name, *rest)

    def pairs(group, made):
        paired.append(group.name)
        return made

    def bound(group, k=2):
        bounded.append((group.name, k))
        return real_bound(group, k)

    monkeypatch.setattr(ncgraph.NonCommutingGraph, "__post_init__", build)
    for module in (bounds, reproduce):
        monkeypatch.setattr(module, "failure_bound", bound)
    wrap_class_pairs(monkeypatch, pairs)
    monkeypatch.setattr(groups, "_finish", finish)
    assert all(r.passed for r in reproduce.run_all())

    assert [name for name, _, _ in built if name in suite] == suite
    assert all(under_run_all for _, under_run_all, _ in built)
    assert not [name for name, _, in_criterion in built if in_criterion and name in suite]
    assert not [name for name, _, in_criterion in made if in_criterion and name in suite]
    assert Counter(name for name, _, _ in built) == Counter(suite + ["D6xZ2"])  # 36
    assert Counter(paired) == Counter(suite + SWEEP)  # one pass per bounded group, 53
    assert bounded == [(name, 2) for name in suite + SWEEP] + [("D6", 3)]


def test_oracle_equivalence_checks_the_verifier(monkeypatch):
    """Criterion 11 compares every witness of is_rainbow_k_connected with
    the oracle counts: one path too many at the short pair fails it."""
    verify = reproduce.is_rainbow_k_connected

    def one_more(g, col, k):
        result = verify(g, col, k)
        if isinstance(result, FailureWitness):
            return FailureWitness(result.pair, result.k, result.found + 1)
        return result

    assert check_oracle_equivalence(quick=True).passed
    monkeypatch.setattr(reproduce, "is_rainbow_k_connected", one_more)
    assert not check_oracle_equivalence(quick=True).passed


def test_oracle_equivalence_reports_a_refused_certificate(monkeypatch):
    """Middles read from A[x] & A[y] instead of A[x] ^ A[y] give 2-paths of
    one color; the validator's ValueError on such a certificate is a
    problem line of a failed criterion, not an exception."""
    def same_color_middles(g, col, x):
        rows = next(iter(col.masks.values()), g.adj)
        ax, rx = g.adj[x], rows[x]
        return [ax & a & (rx & r) for a, r in zip(g.adj[x + 1:], rows[x + 1:])]

    monkeypatch.setattr(rainbow, "_bichromatic", same_color_middles)
    result = check_oracle_equivalence(quick=True)
    assert not result.passed
    assert result.detail.startswith("certificate refused at k=")
    assert "repeats a color" in result.detail


def test_run_all_runs_the_benchmark_criteria_in_order():
    """bench/layers.py's CRITERIA, which the benchmark and the CI smoke read,
    names the criteria run_all runs, in its order."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "layers.py").read_text())
    criteria = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["CRITERIA"])
    assert [r.name for r in reproduce.run_all(quick=True)] == list(criteria)
