"""Lane-parallel prefilter of the two-color search.

A block of search attempts is held in one Python int, attempt t in its
own 128-bit lane (SWAR: L. Lamport, "Multiple byte processing with
full-word instructions", CACM 18(8), 1975), so that each big-int
operation draws one edge's splitmix64 color for every attempt of the
block. splitmix64 output j of seed s is a direct function of
s + (j+1) * gamma (Steele, Lea and Flood, OOPSLA 2014), so any edge can
be drawn without the ones before it. The prefilter only drops attempts
that fail; the search decides the rest with its row kernel.
"""

from __future__ import annotations

from .colorings import MASK64, SPLITMIX_GAMMA, SPLITMIX_MUL1, SPLITMIX_MUL2
from .graphs import Graph, iter_bits


def prefilter_plan(g: Graph, k: int) -> tuple[list[int], list, int]:
    """Prefilter plan for g and k, built at most once per search.

    It covers the non-adjacent pairs (a, u), which need k rainbow 2-paths
    through their common neighbours w, fewest common neighbours first, so
    that the pairs most likely to fail come first. Each pair lists the
    edge slots of (a, w) and (u, w) per w and how many slots must be drawn
    before it, as (drawn, [(slot, slot), ...]); slots are numbered in order
    of first use, and slot i is the edge with splitmix64 offset
    ``offsets[i]``. The plan is (offsets, pairs, 128 - k). A pair whose
    count could overflow a byte lane (more than 127 + k common neighbours,
    or k > 128) is left out, which only weakens the prefilter.
    """
    adj = g.adj
    index = {e: j for j, e in enumerate(g.edges)}
    commons = sorted(((adj[a] & au).bit_count(), u, a) for u, au in enumerate(adj)
                     for a in range(u) if not au >> a & 1)
    slot: dict[int, int] = {}
    offsets, pairs = [], []
    for size, u, a in commons:
        if k > 128 or size > 127 + k:  # the count could overflow a byte lane
            continue
        terms = []
        for w in iter_bits(adj[a] & adj[u]):
            edge_pair = []
            for j in (index[min(a, w), max(a, w)], index[min(u, w), max(u, w)]):
                if j not in slot:
                    slot[j] = len(offsets)
                    offsets.append((j + 1) * SPLITMIX_GAMMA & MASK64)
                edge_pair.append(slot[j])
            terms.append(tuple(edge_pair))
        pairs.append((len(offsets), terms))
    return offsets, pairs, 128 - k


def survivors(plan, s: int, width: int) -> list[int] | range:
    """Lanes t < width whose attempt s + t passes the prefilter; all without a plan.

    Attempt t lives in bits 128t.. of one int. An edge is drawn for all
    lanes at once: its offset is added to every lane's seed and the
    splitmix64 mix runs lane-wise. Lanes are cut back to 64 bits before
    each multiply, so a product never reaches the next lane, and the
    second multiply uses only the low 32 bits of its constant because
    output bits 0 and 31 are all that is read. The low byte of every lane
    moves to a byte lane, and its bit 0 is the edge's color bit. Each
    pair sums c(a,w) ^ c(u,w) over its common neighbours: bit 7
    of count + 128 - k is set exactly when count >= k, so a lane is
    dropped only for a pair that really has fewer than k rainbow paths.
    Edges are drawn as the pairs first need them, and the pass stops once
    every lane is dropped.
    """
    if plan is None:
        return range(width)
    offsets, pairs, bias = plan

    def spread(value: int) -> int:  # value in every lane
        return int.from_bytes(value.to_bytes(16, "little") * width, "little")

    ramp = bytearray(16 * width)  # t in lane t; width <= 2^16
    ramp[0::16] = bytes(t & 255 for t in range(width))
    ramp[1::16] = bytes(t >> 8 for t in range(width))
    seeds = int.from_bytes(ramp, "little") + spread(s & MASK64)
    del ramp
    low64 = spread(MASK64)
    bytes_one = int.from_bytes(b"\x01" * width, "little")
    alive = bytes_one << 7
    colors = []
    for drawn, terms in pairs:
        for offset in offsets[len(colors):drawn]:
            z = (seeds + spread(offset)) & low64
            z = ((z ^ (z >> 30)) & low64) * SPLITMIX_MUL1 & low64
            z = ((z ^ (z >> 27)) & low64) * (SPLITMIX_MUL2 & 0xFFFFFFFF)
            low_bytes = (z ^ (z >> 31)).to_bytes(16 * width, "little")[::16]
            colors.append(int.from_bytes(low_bytes, "little") & bytes_one)
        count = bias * bytes_one
        for x, y in terms:
            count += colors[x] ^ colors[y]
        alive &= count
        if not alive:
            return []
    return [bit >> 3 for bit in iter_bits(alive)]
