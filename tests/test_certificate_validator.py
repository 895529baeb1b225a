"""rainbow.validate_certificate gives the verdict of the per-edge reference
validator in util.py, and on a defect the same message and the class
ValueError, on valid certificates of 2- and 3-colorings damaged in five
ways: the defects of test_rainbow, a middle vertex replaced, a path
reversed, and 4-vertex paths put in, which both refuse as having more than
two edges. The reference keeps its own check that a pair's paths share no
interior vertex, so agreeing with it shows by example that distinct paths
of at most two edges are disjoint."""

import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from ncrainbow.colorings import EdgeColoring
from ncrainbow.graphs import complete_multipartite
from ncrainbow.rainbow import RainbowCertificate, validate_certificate
from test_rainbow import DEFECTS, certificate_base, put_defect
from util import brute_simple_paths, reference_validate_certificate


def three_coloring_base(parts, seed):
    """A random 3-coloring of K_parts and a k = 2 certificate for it: for
    each pair, the first two of its rainbow paths of at most two edges, in
    the order brute_simple_paths finds them. Distinct, they are disjoint."""
    g = complete_multipartite(parts)
    rng = random.Random(seed)
    col = EdgeColoring(g, 3, [rng.randint(1, 3) for _ in g.edges])
    colors = col.assignment()
    pairs = {}
    for x, y in combinations(range(g.vertex_count), 2):
        rainbow = [p for p in brute_simple_paths(g, x, y, 2)
                   if len({colors[min(a, b), max(a, b)] for a, b in zip(p, p[1:])}) == len(p) - 1]
        pairs[(x, y)] = tuple(rainbow[:2])
    return g, col, pairs


def color_per_edge_base():
    g, _, pairs = certificate_base("multipartite")
    return g, EdgeColoring(g, g.edge_count, range(1, g.edge_count + 1)), pairs


BASES = [certificate_base("multipartite"), certificate_base("J(6,2)"),
         three_coloring_base([2, 2, 2], 1), three_coloring_base([2, 2, 2, 2], 0),
         color_per_edge_base()]


def defect(draw, g, col, pairs):
    try:
        put_defect(draw(st.sampled_from(list(DEFECTS))), g, col, pairs)
    except StopIteration:  # this base has no pair the defect needs
        reject()


def replace_middle(draw, g, col, pairs):
    """A middle vertex of some path becomes x, y, a vertex out of range, a
    negative one, a non-int (a float equal to a vertex among them), or any
    vertex."""
    (x, y), i = draw(st.sampled_from([(pair, i) for pair, paths in sorted(pairs.items())
                                      for i, p in enumerate(paths) if len(p) > 2]))
    p = pairs[(x, y)][i]
    j = draw(st.integers(1, len(p) - 2))
    n = g.vertex_count
    w = draw(st.sampled_from([x, y, n, n + 3, -1, -n, "w", None, 1.5, True])
             | st.integers(0, n - 1) | st.integers(0, n - 1).map(float))
    paths = list(pairs[(x, y)])
    paths[i] = p[:j] + (w,) + p[j + 1:]
    pairs[(x, y)] = tuple(paths)


def reverse_path(draw, g, col, pairs):
    pair = draw(st.sampled_from(sorted(pairs)))
    paths = list(pairs[pair])
    i = draw(st.integers(0, len(paths) - 1))
    paths[i] = paths[i][::-1]
    pairs[pair] = tuple(paths)


def four_vertex_path(draw, g, col, pairs):
    """Path x-w-v-y through a neighbour w of x and a neighbour v of y (or
    an endpoint, or a vertex out of range), added or put in place of a
    path."""
    x, y = pair = draw(st.sampled_from(sorted(pairs)))
    n = g.vertex_count
    w = draw(st.sampled_from(list(g.neighbors(x)) + [y, n]))
    v = draw(st.sampled_from(list(g.neighbors(y)) + [x, w, -1]))
    paths = list(pairs[pair])
    paths.insert(draw(st.integers(0, len(paths))), (x, w, v, y))
    if draw(st.booleans()):
        del paths[draw(st.integers(0, len(paths) - 1))]
    pairs[pair] = tuple(paths)


PATH_MUTATIONS = [replace_middle, reverse_path, four_vertex_path]  # keep every pair key


def outcome(validate, g, col, pairs):
    try:
        validate(g, col, RainbowCertificate(2, pairs))
    except Exception as exc:  # any error: its class and message must match
        return type(exc), str(exc)
    return None


@st.composite
def damaged_certificates(draw):
    g, col, pairs = draw(st.sampled_from(BASES))
    pairs = dict(pairs)
    if draw(st.booleans()):
        defect(draw, g, col, pairs)
    else:
        for _ in range(draw(st.integers(1, 2))):
            draw(st.sampled_from(PATH_MUTATIONS))(draw, g, col, pairs)
    return g, col, pairs


@pytest.mark.parametrize("base", range(len(BASES)))
def test_bases_are_valid(base):
    g, col, pairs = BASES[base]
    validate_certificate(g, col, RainbowCertificate(2, pairs))
    reference_validate_certificate(g, col, RainbowCertificate(2, pairs))


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(damaged_certificates())
def test_validator_agrees_with_reference(damaged):
    """The same verdict and message, and a defect is always a ValueError."""
    g, col, pairs = damaged
    result = outcome(validate_certificate, g, col, pairs)
    assert result == outcome(reference_validate_certificate, g, col, pairs)
    assert result is None or result[0] is ValueError, result
