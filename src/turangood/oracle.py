"""Ground truth on explicit small graphs.

This module is the reference side of every count: explicit graphs with
bitmask adjacency, a layer DP over (last vertex, used vertex set) that
counts injective homomorphisms into one graph, a clique search, and an
exhaustive maximizer over all labeled n-vertex graphs.

Edge bit layout (shared by edge masks and graph6 strings): the vertex
pairs of an n-vertex graph are enumerated column by column along the
upper triangle,

    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ..., (n-2,n-1),

and pair number t corresponds to bit t (least significant first) of the
integer edge mask.  Graph masks therefore run from 0 (edgeless) to
2^(n(n-1)/2) - 1 (complete).  A graph6 string packs the same bit
sequence most-significant-first into 6-bit groups, each offset by 63,
prefixed with chr(n + 63).

The exhaustive search enumerates every labeled graph.  Rather than
running the reference counter 2^(n(n-1)/2) times, it counts once per
injective placement: each placement of the forest into the complete
graph K_n demands a fixed set of edges, and the number of placements
whose demanded edges all lie inside G is obtained for every G at once
by a subset-sum (zeta) transform over edge masks.  The placements are
enumerated as one numpy array and reduced to a histogram of demanded
masks; the transform starts from those few seeds, so its low 8 bits run
only on the rows of 256 masks that hold one.  Counts are uint16: no
entry exceeds the total placement count n!/(n-m)! <= 8! = 40320, and
an overflow guard refuses any forest and n where that bound would not
hold.  The K_{k+1}-free selector uses the same transform: containing a
clique is an up-set, so the clique masks are seeded and closed upward
with OR, then complemented.  One thread scans fixed shards of masks for
the best count, each shard's own; then it walks the shards that reach
that count, in mask order, for the smallest tied masks and stops at the
shard that completes the witnesses, so a search pays for the ties it
reports, not for every tie.

Isolated vertices demand no edge: each multiplies every count by the
number of vertices still free, a positive factor that keeps the order
and the ties.  So the search runs once per edge core (the components of
order >= 2), k and witness cap, and its result (the best core count and
the tied masks, never an array) is cached; every forest with that core
scales the count and reuses the masks.  Only the most recent count
array is kept, so at most one outlives a search; at n = 8, where one
array is 256 or 512 MiB, each array cache also drops its entry before
it builds the next, so one count array and one selector are alive at a
time.  The result is exact and is spot-checked, per forest and
uncached: the reference counter counts the Turan graph and every
witness it returns, one graph per call, and the clique search checks
every witness.

Up to n = _SMALL_N = 6, where an array has at most 2^15 entries and
importing numpy costs more than the whole search, the search does not
use numpy.  It keeps the same steps on Python ints: the placement
histogram is a Counter, and each transform runs on 16-bit lanes of one
int, one lane per edge mask, with a mask K_{k+1}-free when the
transform of the clique masks leaves its lane 0.  The reference counter
never uses numpy: at every n it runs its layer DP per graph on 24-bit
lanes of Python ints, one lane per vertex set.  Only the array stages
from n = 7 on use numpy, and they import it when they first run, so
importing the package, every command but ``verify conjecture``, and
``verify conjecture`` up to n = 6 never load it.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, islice, permutations
from math import perm

from .forest import (LinearForest, Record, aut_order, back_edge_flags,
                     copies_from_injective_homs, edge_core)
from .multipartite import PartsLike, canonical_sizes, turan_parts

TYPE_CHECKING = False  # type checkers read it as True; spares importing typing
if TYPE_CHECKING:
    from array import array

    import numpy as np

MAX_GRAPH_VERTICES = 10
EXHAUSTIVE_CAP_DEFAULT = 7
EXHAUSTIVE_CAP_LIMIT = 8
WITNESS_CAP_DEFAULT = 10

_SHARD_SIZE = 1 << 18
"""Edge masks per scan step; bounds the scan's temporaries."""
_COUNT_MAX = 0xFFFF  # largest uint16, the dtype of the count arrays
_ROW_BITS = 8
"""Low mask bits that ``_seeded_zeta`` transforms on seeded rows only."""
_HOLD_ONE_N = EXHAUSTIVE_CAP_LIMIT
"""From this n on one array is 256 MiB or more, so each array cache
drops what it holds before it builds the next array: one count array
and one selector are alive at a time.  Below it the caches keep theirs."""
_SMALL_N = 6
"""Up to this n a search runs on Python ints and never loads numpy.  At
n = 6 (2^15 masks) a search takes about 10 ms, less than importing
numpy; at n = 7 each step of a lane transform over 2^21 masks takes
longer than a whole numpy transform."""
_LANE = 24
"""Bits per vertex-set lane of the reference counter: every count it
meets is at most perm(10, 10) = 3628800, below 2^24 - 1."""


@lru_cache(maxsize=None)
def _edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for j in range(1, n) for i in range(j))


@lru_cache(maxsize=None)
def _edge_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """bits[i][j] == bits[j][i] is the edge-mask bit of the pair {i, j};
    the diagonal is 0."""
    bits = [[0] * n for _ in range(n)]
    for t, (i, j) in enumerate(_edge_pairs(n)):
        bits[i][j] = bits[j][i] = 1 << t
    return tuple(map(tuple, bits))


class SmallGraph(Record):
    """Simple graph on at most MAX_GRAPH_VERTICES vertices.

    adj[v] is the neighbor bitmask of vertex v.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        if not 0 <= n <= MAX_GRAPH_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_GRAPH_VERTICES}]")
        if len(adj) != n:
            raise ValueError("adjacency length differs from vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} references missing vertices")
            if row >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
            for u in range(n):
                if (row >> u & 1) != (adj[u] >> v & 1):
                    raise ValueError("adjacency is not symmetric")
        self._set(n, adj)

    @classmethod
    def from_edges(cls, n: int, edges) -> "SmallGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "SmallGraph":
        if not 0 <= n <= MAX_GRAPH_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_GRAPH_VERTICES}]")
        pairs = _edge_pairs(n)
        if mask < 0 or mask >> len(pairs):
            raise ValueError(f"edge mask {mask} out of range for n={n}")
        adj = [0] * n
        for t, (i, j) in enumerate(pairs):
            if mask >> t & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        # symmetric and loop-free as built: skip the O(n^2) check of __init__
        g = cls.__new__(cls)
        g._set(n, tuple(adj))
        return g

    def edge_mask(self) -> int:
        mask = 0
        for t, (i, j) in enumerate(_edge_pairs(self.n)):
            if self.adj[i] >> j & 1:
                mask |= 1 << t
        return mask

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for (i, j) in _edge_pairs(self.n) if self.adj[i] >> j & 1]

    def to_graph6(self) -> str:
        """Encode in graph6 format (bit layout documented at module top)."""
        bits = []
        for t, (i, j) in enumerate(_edge_pairs(self.n)):
            bits.append(self.adj[i] >> j & 1)
        while len(bits) % 6:
            bits.append(0)
        chars = [chr(self.n + 63)]
        for g in range(0, len(bits), 6):
            val = 0
            for b in bits[g:g + 6]:
                val = val << 1 | b
            chars.append(chr(val + 63))
        return "".join(chars)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges()],
                "graph6": self.to_graph6()}


def explicit_multipartite(parts: PartsLike) -> SmallGraph:
    """Materialize a complete multipartite graph.

    Vertices are grouped into consecutive blocks, one per nonzero part
    in canonical order; edges join vertices of distinct blocks.
    """
    sizes = canonical_sizes(parts)
    n = sum(sizes)
    if n > MAX_GRAPH_VERTICES:
        raise ValueError(f"{n} vertices exceed the explicit-graph cap {MAX_GRAPH_VERTICES}")
    block = []
    for b, s in enumerate(sizes):
        block.extend([b] * s)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if block[u] != block[v]]
    return SmallGraph.from_edges(n, edges)


@lru_cache(maxsize=None)
def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a vertex bitmask, ascending.  Adjacency rows are
    below 2^MAX_GRAPH_VERTICES, so the cache holds at most 1,024 tuples."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


@lru_cache(maxsize=None)
def _without(n: int) -> tuple[int, ...]:
    """Per vertex v, the int on 2^n lanes whose lane S is all ones where
    the vertex set S lacks v and 0 where it holds v: alternate runs of
    2^v lanes, the first all ones."""
    width = _LANE // 8
    return tuple(int.from_bytes((b"\xff" * (width << v) + bytes(width << v))
                                * (1 << n - v - 1), "little")
                 for v in range(n))


def count_injective_homs_explicit(forest: LinearForest, g: SmallGraph) -> int:
    """Injective edge-preserving maps of the forest into g, by the
    reference layer DP.

    The DP runs over the forest's vertices, the components laid down in
    order, on Python ints: cur[v] holds one _LANE-bit lane per vertex set
    S, the number of placements of the vertices so far that use S and
    end at vertex v.  A vertex that must be adjacent to the one before
    sums cur over v's neighbours, the first vertex of a component sums
    all of cur; either way the lanes of the S that lack v are kept and
    moved up to lane S + 2^v.  The count is the sum of the last layer's
    lanes: its total modulo 2^_LANE - 1, as 2^_LANE is 1 modulo it.
    Every lane and every total counts placements, at most n!/(n-m)! <=
    10!, below 2^_LANE - 1: no lane carries into the next and the
    modulus is exact.
    """
    n = g.n
    if sum(forest.components) > n:  # no injective placement; skips every layer
        return 0
    without = _without(n)
    shifts = [_LANE << v for v in range(n)]
    nbrs = [_members(row) for row in g.adj]
    cur = [1]  # before the first vertex: one empty placement, S = {}
    for c in forest.components:
        total = sum(cur)
        cur = [(total & w) << shift for w, shift in zip(without, shifts)]
        for _ in range(c - 1):
            nxt = []
            for nb, w, shift in zip(nbrs, without, shifts):
                total = 0
                for u in nb:
                    total += cur[u]
                nxt.append((total & w) << shift)
            cur = nxt
    return sum(cur) % ((1 << _LANE) - 1)


def count_copies_explicit(forest: LinearForest, g: SmallGraph) -> int:
    """Reference copy count: injective homomorphisms / automorphisms."""
    return copies_from_injective_homs(count_injective_homs_explicit(forest, g),
                                      aut_order(forest))


def is_clique_free(g: SmallGraph, r: int) -> bool:
    """True when g has no clique on r vertices (r >= 2)."""
    if r < 2:
        raise ValueError(f"clique order must be >= 2, got {r}")

    def grow(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand:
            if cand.bit_count() < need:
                return False
            vbit = cand & -cand
            cand ^= vbit
            if grow(cand & g.adj[vbit.bit_length() - 1], need - 1):
                return True
        return False

    return not grow((1 << g.n) - 1, r)


# ---------------------------------------------------------------------------
# Exhaustive search over all labeled graphs
# ---------------------------------------------------------------------------

class ExtremalResult(Record):
    """Outcome of an exhaustive scan of the labeled n-vertex graphs."""

    __slots__ = ("forest", "n", "k", "max_count", "turan_count", "witnesses",
                 "graphs_scanned")

    def __init__(self, forest: LinearForest, n: int, k: int, max_count: int,
                 turan_count: int, witnesses: tuple[SmallGraph, ...],
                 graphs_scanned: int) -> None:
        self._set(forest, n, k, max_count, turan_count, witnesses, graphs_scanned)


def _zeta(a: np.ndarray, nbits: int, op, start: int = 0) -> None:
    """In-place subset transform over bit masks (Yates's method), bits
    start..nbits-1: a[S] becomes op over a[T] for every T subset of S
    that differs from S only in those bits.

    Bit t pairs each entry with bit t clear to the one with it set.  For
    steps below 16 one strided 1-D slice per offset beats a 2-D view
    whose rows are that short.
    """
    for t in range(start, nbits):
        step = 1 << t
        if step < 16:
            for j in range(step):
                hi = a[step + j::2 * step]
                op(hi, a[j::2 * step], out=hi)
        else:
            view = a.reshape(-1, 2 * step)
            hi = view[:, step:]
            op(hi, view[:, :step], out=hi)


def _seeded_zeta(seeds: np.ndarray, values, nbits: int, dtype, op) -> np.ndarray:
    """Subset transform of the array over all nbits-bit masks that is
    zero except for ``values`` at ``seeds``.

    A row of the 2^_ROW_BITS masks that share their high bits and hold
    no seed is still zero after the low bits, so those bits run only on
    the seeded rows, gathered in one block; the high bits run on the
    whole array.  Seeds must be ascending and distinct: a repeated
    seed would be overwritten, not added, and a row gathered twice would
    be transformed twice.
    """
    import numpy as np

    a = np.zeros(1 << nbits, dtype=dtype)
    a[seeds] = values
    low = min(nbits, _ROW_BITS)
    rows = a.reshape(-1, 1 << low)
    # ascending seeds give ascending rows: keep the first of each run
    seeded = seeds >> low
    seeded = seeded[np.flatnonzero(np.diff(seeded, prepend=-1))]
    block = rows[seeded]
    _zeta(block.reshape(-1), low, op)
    rows[seeded] = block
    _zeta(a, nbits, op, low)
    return a


def _clique_masks(n: int, r: int) -> list[int]:
    """The edge masks of the r-cliques on n vertices, ascending."""
    bits = _edge_bits(n)
    return sorted(sum(bits[i][j] for i, j in combinations(group, 2))
                  for group in combinations(range(n), r))


@lru_cache(maxsize=8)
def _clique_free_selector(n: int, r: int) -> np.ndarray:
    """Boolean array over all edge masks: True iff the graph has no K_r.

    Containing K_r is an up-set: seed the C(n, r) clique masks, close
    upward with an OR transform, then complement in place.
    """
    import numpy as np

    if n >= _HOLD_ONE_N:
        _drop_selectors()
    sel = _seeded_zeta(np.array(_clique_masks(n, r), dtype=np.int64), True,
                       n * (n - 1) // 2, bool, np.logical_or)
    np.logical_not(sel, out=sel)
    sel.setflags(write=False)
    return sel


# bound once: bench/spans.py rebinds the module names to timing wrappers,
# which have no cache_clear
_drop_selectors = _clique_free_selector.cache_clear


def _placement_histogram(n: int, core: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct edge masks that the placements of a forest into K_n
    demand, ascending, and how many placements demand each one.

    Placements are the ordered tuples of distinct vertices, one per
    forest vertex with the components laid down in order; a vertex
    flagged by ``back_edge_flags`` demands the edge to the one before.
    """
    import numpy as np

    flags = back_edge_flags(core)
    m = len(flags)
    placed = np.fromiter(chain.from_iterable(permutations(range(n), m)), dtype=np.int8,
                         count=perm(n, m) * m).reshape(perm(n, m), m)
    bit = np.array(_edge_bits(n), dtype=np.int64).reshape(n, n)  # 2-D at n = 0 too
    demanded = np.zeros(len(placed), dtype=np.int64)
    for pos in range(1, m):
        if flags[pos]:
            demanded |= bit[placed[:, pos - 1], placed[:, pos]]
    # with return_counts np.unique sorts; without it numpy 2.4 hashes and
    # imports numpy.ma
    return np.unique(demanded, return_counts=True)


@lru_cache(maxsize=1)
def _inj_counts_all_graphs(n: int, comps: tuple[int, ...]) -> np.ndarray:
    """Injective homomorphism counts of the forest for every edge mask:
    the histogram of the edge masks that its placements into K_n demand,
    subset-summed so entry G holds the number of placements inside G.

    The search passes the edge core; isolated components, if any, are
    placed like the others and demand no edge.  One entry is kept, so at
    most one count array outlives a search, and from _HOLD_ONE_N on it
    is dropped before the next is built.
    """
    import numpy as np

    # every entry is bounded by the total placement count n!/(n-m)!,
    # so the uint16 array cannot wrap; refuse if that ever changes
    bound = perm(n, min(sum(comps), n))
    if bound > _COUNT_MAX:
        raise OverflowError(f"placement count bound {bound} exceeds uint16")
    if n >= _HOLD_ONE_N:
        _drop_counts()
    demanded, hits = _placement_histogram(n, comps)
    w = _seeded_zeta(demanded, hits, n * (n - 1) // 2, np.uint16, np.add)
    # the transform leaves the total placement count at the full mask
    if int(w[-1]) != perm(n, sum(comps)):
        raise RuntimeError("subset-sum transform integrity check failed")
    w.setflags(write=False)
    return w


_drop_counts = _inj_counts_all_graphs.cache_clear


def _scan_shard(counts: np.ndarray, ok: np.ndarray, lo: int, hi: int) -> int:
    """Best count among the selected masks in [lo, hi), 0 when none is
    selected."""
    return int((counts[lo:hi] * ok[lo:hi]).max())


def _shard_ties(counts: np.ndarray, ok: np.ndarray, best: int, lo: int, hi: int,
                limit: int) -> list[int]:
    """The first ``limit`` selected masks in [lo, hi) whose count is best."""
    import numpy as np

    tied = counts[lo:hi] == best
    tied &= ok[lo:hi]
    return [lo + int(m) for m in np.flatnonzero(tied)[:limit]]


def _scan(counts: np.ndarray, ok: np.ndarray, witness_cap: int) -> tuple[int, tuple[int, ...]]:
    """Best count among the selected masks (0 when none is selected) and
    the first witness_cap selected masks that reach it.

    The max first, shard by shard; then the ties, in mask order, only in
    the shards whose own best is the max, stopping at the shard that
    completes them."""
    size = counts.size
    bounds = [(lo, min(lo + _SHARD_SIZE, size)) for lo in range(0, size, _SHARD_SIZE)]
    bests = [_scan_shard(counts, ok, lo, hi) for lo, hi in bounds]
    best = max(bests)
    ties: list[int] = []
    for (lo, hi), shard_best in zip(bounds, bests):
        if len(ties) >= witness_cap:
            break
        if shard_best == best:
            ties += _shard_ties(counts, ok, best, lo, hi, witness_cap - len(ties))
    return best, tuple(ties)


def _lane_sums(seeds, nbits: int) -> array:
    """Subset sums over the nbits-bit masks of the (mask, value) seeds,
    one 'H' entry per mask; every sum must stay below 2^16.

    The sums run on 16-bit lanes of one int, lane S for mask S: bit t
    adds each lane with bit t clear, picked by runs of 2^t lanes, to the
    lane 2^t above it, in one shift of 16 << t bits.  A lane below 2^16
    never carries into the next."""
    from array import array

    lanes = bytearray(2 << nbits)
    for mask, value in seeds:
        lanes[2 * mask:2 * mask + 2] = value.to_bytes(2, "little")
    x = int.from_bytes(lanes, "little")
    for t in range(nbits):
        run = 2 << t  # the bytes of 2^t lanes
        low = int.from_bytes((b"\xff" * run + bytes(run)) * (1 << nbits - t - 1), "little")
        x += (x & low) << (16 << t)
    sums = array("H", x.to_bytes(2 << nbits, "little"))
    if sys.byteorder == "big":
        sums.byteswap()
    return sums


@lru_cache(maxsize=256)
def _core_search(n: int, core: tuple[int, ...], k: int,
                 witness_cap: int) -> tuple[int, tuple[int, ...]]:
    """Best injective homomorphism count of the edge core over the
    K_{k+1}-free graphs on n labeled vertices, and the first witness_cap
    masks that reach it.  Holds no array, so caching it is cheap: every
    forest with this core reuses the scan.

    Up to _SMALL_N the placement histogram and the clique masks go
    through ``_lane_sums`` instead, with the same results.  No sum
    reaches 2^16: a count is at most perm(n, n) placements and a clique
    count at most C(n, n // 2), 720 and 20 at n = 6."""
    # the pre-flight runs here, so a search whose core is cached reads
    # no /proc/meminfo
    need = _peak_bytes(n)
    avail = _mem_available()
    if avail is not None and need > avail:
        raise ValueError(f"n={n} needs about {need >> 20} MiB of arrays, "
                         f"only {avail >> 20} MiB available")
    if n <= _SMALL_N:
        bits = _edge_bits(n)
        back = [pos for pos, flag in enumerate(back_edge_flags(core)) if flag]
        hist = Counter(sum(bits[p[pos - 1]][p[pos]] for pos in back)
                       for p in permutations(range(n), sum(core)))
        nbits = n * (n - 1) // 2
        counts = _lane_sums(hist.items(), nbits)
        # as in _inj_counts_all_graphs: the full mask holds every placement
        if counts[-1] != perm(n, sum(core)):
            raise RuntimeError("subset-sum transform integrity check failed")
        # a mask is K_{k+1}-free when no clique lies inside it
        cliques = _lane_sums([(c, 1) for c in _clique_masks(n, k + 1)], nbits)
        best = max((c for c, q in zip(counts, cliques) if not q), default=0)
        ties = (mask for mask, (c, q) in enumerate(zip(counts, cliques))
                if c == best and not q)
        return best, tuple(islice(ties, witness_cap))
    # counts first: the first numpy import lands in the counting stage
    counts = _inj_counts_all_graphs(n, core)
    return _scan(counts, _clique_free_selector(n, k + 1), witness_cap)


def _mem_available() -> int | None:
    """MemAvailable in bytes from /proc/meminfo; None where unreadable."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _peak_bytes(n: int) -> int:
    """Upper estimate of the bytes one search allocates: its arrays and
    the reference counter's ints.

    Up to _SMALL_N the same sum covers the lane path, which holds about
    six 2-byte lanes a mask at its peak (the count lanes, the int under
    transform, its lane mask and three temporaries): 0.44 MB under
    tracemalloc at n = 6, against an estimate of 0.65 MB."""
    size = 1 << (n * (n - 1) // 2)
    shard = min(size, _SHARD_SIZE)
    # uint16 core counts, bool selector inverted in place; then the scan's
    # temporaries of one shard: the masked uint16 product of the max pass,
    # or the tie mask and tie indices of the tie pass.  While
    # an array is built: at most n! placements, each an int8 per vertex
    # plus about 48 bytes of int64 masks, seeds and temporaries, and the
    # gathered block of seeded uint16 rows, at most one row per seed
    build = perm(n, n) * (n + 48) + min(perm(n, n) << _ROW_BITS, size) * 2
    return 3 * size + shard * (2 + 1 + 8) + build + _ref_peak_bytes(n)


def _ref_peak_bytes(n: int) -> int:
    """Upper estimate of the bytes the reference counter allocates on an
    n-vertex graph: 3n + 8 ints of 2^n lanes (the ``_without`` cache, the
    last layer, the next one and temporaries), each at most 4 bytes a
    lane (24 bits in 30-bit digits) and a header; and the ``_members``
    cache, at most 2^n tuples of about 140 bytes."""
    return (3 * n + 8) * ((4 << n) + 32) + (160 << n)


def extremal_search(forest: LinearForest, n: int, k: int, *,
                    cap: int = EXHAUSTIVE_CAP_DEFAULT,
                    witness_cap: int = WITNESS_CAP_DEFAULT) -> ExtremalResult:
    """Maximize the forest's copy count over all K_{k+1}-free graphs on n
    labeled vertices, scanning every edge mask.

    Refuses n above the cap (default 7, hard limit 8), and any n whose
    arrays would not fit in the memory available now.  Witnesses are the
    smallest maximizing edge masks.  The scan runs on one thread.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cap > EXHAUSTIVE_CAP_LIMIT:
        raise ValueError(f"cap {cap} exceeds hard limit {EXHAUSTIVE_CAP_LIMIT}")
    if n < 0 or n > cap:
        raise ValueError(f"n={n} outside [0, {cap}]; refusing unbounded scan")
    if witness_cap < 0:
        raise ValueError("witness cap must be >= 0")

    # isolated vertices scale every count by one positive factor, which
    # keeps the order and the ties.  A forest with more than n vertices
    # has no placement: every count is 0 and every selected mask ties,
    # as under the empty core (factor 0), whose counts are all 1.
    core, factor = edge_core(forest.components, n)
    core_max, witness_masks = _core_search(n, core, k, witness_cap)
    max_inj = core_max * factor

    max_count = copies_from_injective_homs(max_inj, aut_order(forest))
    # engine self-check: the reference counter counts the Turan graph
    # and every witness again; the reported maximum and the clique filter
    # must agree with it on every witness
    turan_count = count_copies_explicit(forest, explicit_multipartite(turan_parts(n, k)))
    witnesses = [SmallGraph.from_edge_mask(n, mask) for mask in witness_masks]
    for mask, g in zip(witness_masks, witnesses):
        if count_injective_homs_explicit(forest, g) != max_inj:
            raise RuntimeError(f"scan self-check failed on mask {mask}")
        if not is_clique_free(g, k + 1):
            raise RuntimeError(f"clique filter self-check failed on mask {mask}")

    if max_count < turan_count:
        raise RuntimeError("scan missed the Turan graph; engine defect")

    return ExtremalResult(
        forest=forest, n=n, k=k,
        max_count=max_count, turan_count=turan_count,
        witnesses=tuple(witnesses), graphs_scanned=1 << (n * (n - 1) // 2),
    )
