"""Lane-parallel prefilter of the two-color search.

A block of search attempts is held in one Python int, attempt t in its
own 128-bit lane (SWAR: L. Lamport, "Multiple byte processing with
full-word instructions", CACM 18(8), 1975), so that each big-int
operation draws one edge's splitmix64 color for every attempt of the
block. splitmix64 output j of seed s is a direct function of
s + (j+1) * gamma (Steele, Lea and Flood, OOPSLA 2014), so any edge can
be drawn without the ones before it, from its offset in the search's
row plan. The prefilter only drops attempts that fail; the search
decides the rest with its row kernel.
"""

from __future__ import annotations

from .colorings import MASK64, SPLITMIX_MUL1, SPLITMIX_MUL2
from .graphs import iter_bits


def survivors(plan, k: int, s: int, width: int) -> list[int]:
    """Lanes t < width whose attempt s + t passes the prefilter, ascending.

    plan is the search's row plan for k (``rainbow._search_plan``). The
    prefilter covers its non-adjacent pairs (a, u), those that need k
    rainbow 2-paths through their common neighbours w, fewest common
    neighbours first, so that the pairs most likely to fail come first.

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
    A pair whose count could overflow a byte lane (more than 127 + k
    common neighbours, or k > 128) is left out, which only weakens the
    prefilter. Edges are drawn as the pairs first need them, and the pass
    stops once every lane is dropped.
    """
    def spread(value: int) -> int:  # value in every lane
        return int.from_bytes(value.to_bytes(16, "little") * width, "little")

    ramp = bytearray(16 * width)  # t in lane t; width <= 2^16
    ramp[0::16] = bytes(t & 255 for t in range(width))
    ramp[1::16] = bytes(t >> 8 for t in range(width))
    seeds = int.from_bytes(ramp, "little") + spread(s & MASK64)
    del ramp
    low64 = spread(MASK64)
    bytes_one = int.from_bytes(b"\x01" * width, "little")

    def draw(x: int, y: int) -> int:  # color bit of edge {x, y} in every byte lane
        x, y = min(x, y), max(x, y)
        offset = next(offset for offset, v, _ in plan[x][2] if v == y)
        z = (seeds + spread(offset)) & low64
        z = ((z ^ (z >> 30)) & low64) * SPLITMIX_MUL1 & low64
        z = ((z ^ (z >> 27)) & low64) * (SPLITMIX_MUL2 & 0xFFFFFFFF)
        low_bytes = (z ^ (z >> 31)).to_bytes(16 * width, "little")[::16]
        return int.from_bytes(low_bytes, "little") & bytes_one

    pairs = sorted((common.bit_count(), u, a, common) for u, _, _, commons, needs in plan
                   for a, (common, need) in enumerate(zip(commons, needs)) if need == k)
    colors = [{} for _ in plan]  # colors[x][y]: color bits of edge {x, y} once drawn
    bias = (128 - k) * bytes_one
    alive = bytes_one << 7
    for size, u, a, common in pairs:
        if k > 128 or size > 127 + k:  # this count, and every later one, could overflow
            break
        ca, cu = colors[a], colors[u]
        count = bias
        for w in iter_bits(common):
            if w not in ca:
                ca[w] = colors[w][a] = draw(a, w)
            if w not in cu:
                cu[w] = colors[w][u] = draw(u, w)
            count += ca[w] ^ cu[w]
        alive &= count
        if not alive:
            return []
    return [bit >> 3 for bit in iter_bits(alive)]
