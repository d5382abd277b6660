"""Ground truth on explicit small graphs.

This module is the reference side of every count: explicit graphs with
bitmask adjacency, plain backtracking for injective homomorphisms, a
clique search, and an exhaustive maximizer over all labeled n-vertex
graphs.

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
running the backtracking counter 2^(n(n-1)/2) times, it counts once per
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
the best count and the smallest tied masks.

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
uncached, against the backtracking counter and the clique search on
every witness it returns.
Only these array stages use numpy, and they import it when they first
run, so importing the package and every command but ``verify
conjecture`` never load it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, permutations
from math import perm

from .forest import (LinearForest, Record, aut_order, back_edge_flags,
                     copies_from_injective_homs, edge_core)
from .multipartite import PartsLike, canonical_sizes, turan_parts

TYPE_CHECKING = False  # type checkers read it as True; spares importing typing
if TYPE_CHECKING:
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
_CHUNK_ROWS = 256
"""Seeded rows gathered per step; bounds the gathered block."""
_HOLD_ONE_N = EXHAUSTIVE_CAP_LIMIT
"""From this n on one array is 256 MiB or more, so each array cache
drops what it holds before it builds the next array: one count array
and one selector are alive at a time.  Below it the caches keep theirs."""


@lru_cache(maxsize=None)
def _edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for j in range(1, n) for i in range(j))


@lru_cache(maxsize=None)
def _edge_index(n: int) -> dict:
    idx = {}
    for t, (i, j) in enumerate(_edge_pairs(n)):
        idx[(i, j)] = t
        idx[(j, i)] = t
    return idx


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
        pairs = _edge_pairs(n)
        if mask < 0 or mask >> len(pairs):
            raise ValueError(f"edge mask {mask} out of range for n={n}")
        adj = [0] * n
        for t, (i, j) in enumerate(pairs):
            if mask >> t & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return cls(n, tuple(adj))

    def edge_mask(self) -> int:
        mask = 0
        for t, (i, j) in enumerate(_edge_pairs(self.n)):
            if self.adj[i] >> j & 1:
                mask |= 1 << t
        return mask

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for (i, j) in _edge_pairs(self.n) if self.adj[i] >> j & 1]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

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

    @classmethod
    def from_graph6(cls, text: str) -> "SmallGraph":
        if not text:
            raise ValueError("empty graph6 string")
        n = ord(text[0]) - 63
        if not 0 <= n <= MAX_GRAPH_VERTICES:
            raise ValueError(f"graph6 vertex count {n} outside supported range")
        nbits = n * (n - 1) // 2
        bits = []
        for ch in text[1:]:
            val = ord(ch) - 63
            if not 0 <= val < 64:
                raise ValueError(f"invalid graph6 character {ch!r}")
            bits.extend(val >> s & 1 for s in range(5, -1, -1))
        if len(bits) < nbits:
            raise ValueError("graph6 string too short")
        mask = 0
        for t in range(nbits):
            mask |= bits[t] << t
        return cls.from_edge_mask(n, mask)

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


@lru_cache(maxsize=1 << 16)
def _inj_homs_explicit(comps: tuple[int, ...], n: int, adj: tuple[int, ...]) -> int:
    flags = back_edge_flags(comps) + (False,)
    full = (1 << n) - 1
    # placements of the first pos vertices, keyed by (previous vertex if
    # the next one must be adjacent to it, else -1; used-vertex mask)
    layer = {(-1, 0): 1}
    for pos in range(len(flags) - 1):
        keep_prev = flags[pos + 1]
        nxt: dict[tuple[int, int], int] = {}
        for (prev, used), ways in layer.items():
            cand = (adj[prev] if prev >= 0 else full) & ~used
            while cand:
                vbit = cand & -cand
                cand ^= vbit
                key = (vbit.bit_length() - 1 if keep_prev else -1, used | vbit)
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return sum(layer.values())


def count_injective_homs_explicit(forest: LinearForest, g: SmallGraph) -> int:
    """Backtracking count of injective edge-preserving maps into g."""
    return _inj_homs_explicit(forest.components, g.n, g.adj)


def count_copies_explicit(forest: LinearForest, g: SmallGraph) -> int:
    """Backtracking copy count: injective homomorphisms / automorphisms."""
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

    def to_json_dict(self) -> dict:
        return {
            "forest": str(self.forest),
            "n": self.n,
            "k": self.k,
            "max_count": self.max_count,
            "turan_count": self.turan_count,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "graphs_scanned": self.graphs_scanned,
        }


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
    the seeded rows, gathered _CHUNK_ROWS at a time; the high bits run
    on the whole array.  Seeds must be ascending and distinct: a repeated
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
    for i in range(0, seeded.size, _CHUNK_ROWS):
        idx = seeded[i:i + _CHUNK_ROWS]
        block = rows[idx]
        _zeta(block.reshape(-1), low, op)
        rows[idx] = block
    _zeta(a, nbits, op, low)
    return a


@lru_cache(maxsize=8)
def _clique_free_selector(n: int, r: int) -> np.ndarray:
    """Boolean array over all edge masks: True iff the graph has no K_r.

    Containing K_r is an up-set: seed the C(n, r) clique masks, close
    upward with an OR transform, then complement in place.
    """
    import numpy as np

    if n >= _HOLD_ONE_N:
        _drop_selectors()
    eidx = _edge_index(n)
    cliques = sorted(sum(1 << eidx[p] for p in combinations(group, 2))
                     for group in combinations(range(n), r))
    sel = _seeded_zeta(np.array(cliques, dtype=np.int64), True, n * (n - 1) // 2,
                       bool, np.logical_or)
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
    bit = np.zeros((n, n), dtype=np.int64)
    for t, (i, j) in enumerate(_edge_pairs(n)):
        bit[i, j] = bit[j, i] = 1 << t
    demanded = np.zeros(len(placed), dtype=np.int64)
    for pos in range(1, m):
        if flags[pos]:
            demanded |= bit[placed[:, pos - 1], placed[:, pos]]
    # with return_counts np.unique sorts; without it numpy 2.4 hashes and
    # imports numpy.ma
    return np.unique(demanded, return_counts=True)


def _core_counts(n: int, core: tuple[int, ...]) -> np.ndarray:
    """Per-mask injective homomorphism counts of a forest: the histogram
    of the edge masks that its placements into K_n demand, subset-summed
    so entry G holds the number of placements entirely inside G."""
    import numpy as np

    demanded, hits = _placement_histogram(n, core)
    w = _seeded_zeta(demanded, hits, n * (n - 1) // 2, np.uint16, np.add)
    # the transform leaves the total placement count at the full mask
    if int(w[-1]) != perm(n, sum(core)):
        raise RuntimeError("subset-sum transform integrity check failed")
    w.setflags(write=False)
    return w


@lru_cache(maxsize=1)
def _inj_counts_all_graphs(n: int, comps: tuple[int, ...]) -> np.ndarray:
    """Injective homomorphism counts of the forest for every edge mask.

    The search passes the edge core; isolated components, if any, are
    placed like the others and demand no edge.  One entry is kept, so at
    most one count array outlives a search, and from _HOLD_ONE_N on it
    is dropped before the next is built.
    """
    # every entry is bounded by the total placement count n!/(n-m)!,
    # so the uint16 array cannot wrap; refuse if that ever changes
    bound = perm(n, min(sum(comps), n))
    if bound > _COUNT_MAX:
        raise OverflowError(f"placement count bound {bound} exceeds uint16")
    if n >= _HOLD_ONE_N:
        _drop_counts()
    return _core_counts(n, comps)


_drop_counts = _inj_counts_all_graphs.cache_clear


def _scan_shard(counts: np.ndarray, ok: np.ndarray, lo: int, hi: int,
                witness_cap: int) -> tuple[int, list[int]]:
    """Best count among the selected masks in [lo, hi) (0 when none is
    selected) and the first witness_cap selected masks that reach it."""
    import numpy as np

    c = counts[lo:hi]
    sel = ok[lo:hi]
    best = int((c * sel).max())
    tied = c == best
    tied &= sel
    return best, [lo + int(m) for m in np.flatnonzero(tied)[:witness_cap]]


@lru_cache(maxsize=256)
def _core_search(n: int, core: tuple[int, ...], k: int,
                 witness_cap: int) -> tuple[int, tuple[int, ...]]:
    """Best injective homomorphism count of the edge core over the
    K_{k+1}-free graphs on n labeled vertices, and the first witness_cap
    masks that reach it.  Holds no array, so caching it is cheap: every
    forest with this core reuses the scan."""
    size = 1 << (n * (n - 1) // 2)
    # counts first: the first numpy import lands in the counting stage
    counts = _inj_counts_all_graphs(n, core)
    ok = _clique_free_selector(n, k + 1)
    # shards in mask order: a later shard only adds ties past earlier ones
    max_inj, witness_masks = -1, []
    for lo in range(0, size, _SHARD_SIZE):
        best, ties = _scan_shard(counts, ok, lo, min(lo + _SHARD_SIZE, size), witness_cap)
        if best > max_inj:
            max_inj, witness_masks = best, ties
        elif best == max_inj:
            witness_masks = (witness_masks + ties)[:witness_cap]
    return max_inj, tuple(witness_masks)


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
    """Upper estimate of the array bytes one search allocates."""
    size = 1 << (n * (n - 1) // 2)
    shard = min(size, _SHARD_SIZE)
    # uint16 core counts, bool selector inverted in place; then the scan's
    # masked uint16 product, tie mask and tie indices of one shard.  While
    # an array is built: at most n! placements, each an int8 per vertex
    # plus about 48 bytes of int64 masks, seeds and temporaries, and one
    # gathered chunk of uint16 rows
    build = perm(n, n) * (n + 48) + (_CHUNK_ROWS << _ROW_BITS) * 2
    return 3 * size + shard * (2 + 1 + 8) + build


def extremal_search(forest: LinearForest, n: int, k: int, *,
                    cap: int = EXHAUSTIVE_CAP_DEFAULT,
                    witness_cap: int = WITNESS_CAP_DEFAULT,
                    workers: int | None = None) -> ExtremalResult:
    """Maximize the forest's copy count over all K_{k+1}-free graphs on n
    labeled vertices, scanning every edge mask.

    Refuses n above the cap (default 7, hard limit 8), and any n whose
    arrays would not fit in the memory available now.  Witnesses are the
    smallest maximizing edge masks.  ``workers`` is accepted and has no
    effect: the scan runs on one thread.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cap > EXHAUSTIVE_CAP_LIMIT:
        raise ValueError(f"cap {cap} exceeds hard limit {EXHAUSTIVE_CAP_LIMIT}")
    if n < 0 or n > cap:
        raise ValueError(f"n={n} outside [0, {cap}]; refusing unbounded scan")
    if witness_cap < 0:
        raise ValueError("witness cap must be >= 0")
    need = _peak_bytes(n)
    avail = _mem_available()
    if avail is not None and need > avail:
        raise ValueError(f"n={n} needs about {need >> 20} MiB of arrays, "
                         f"only {avail >> 20} MiB available")

    # isolated vertices scale every count by one positive factor, which
    # keeps the order and the ties.  A forest with more than n vertices
    # has no placement: every count is 0 and every selected mask ties,
    # as under the empty core (factor 0), whose counts are all 1.
    core, factor = edge_core(forest.components, n)
    core_max, witness_masks = _core_search(n, core, k, witness_cap)
    max_inj = core_max * factor

    max_count = copies_from_injective_homs(max_inj, aut_order(forest))
    turan_graph = explicit_multipartite(turan_parts(n, k))
    turan_count = count_copies_explicit(forest, turan_graph)

    witnesses = []
    for mask in witness_masks:
        g = SmallGraph.from_edge_mask(n, mask)
        # engine self-check: the reported maximum and the clique filter
        # must agree with the plain backtracking reference on every witness
        if count_injective_homs_explicit(forest, g) != max_inj:
            raise RuntimeError(f"scan self-check failed on mask {mask}")
        if not is_clique_free(g, k + 1):
            raise RuntimeError(f"clique filter self-check failed on mask {mask}")
        witnesses.append(g)

    if max_count < turan_count:
        raise RuntimeError("scan missed the Turan graph; engine defect")

    return ExtremalResult(
        forest=forest, n=n, k=k,
        max_count=max_count, turan_count=turan_count,
        witnesses=tuple(witnesses), graphs_scanned=1 << (n * (n - 1) // 2),
    )
