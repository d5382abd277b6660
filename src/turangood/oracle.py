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
by a subset-sum (zeta) transform over edge masks.  The result is exact
and is spot-checked against the backtracking counter on every witness
it returns.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .forest import LinearForest, aut_order, back_edge_flags, copies_from_injective_homs
from .multipartite import PartsLike, canonical_sizes, turan_parts

MAX_GRAPH_VERTICES = 10
EXHAUSTIVE_CAP_DEFAULT = 7
EXHAUSTIVE_CAP_LIMIT = 8
WITNESS_CAP_DEFAULT = 10

_SHARD_BITS = 18


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


@dataclass(frozen=True, slots=True)
class SmallGraph:
    """Simple graph on at most MAX_GRAPH_VERTICES vertices.

    adj[v] is the neighbor bitmask of vertex v.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_GRAPH_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_GRAPH_VERTICES}]")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length differs from vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} references missing vertices")
            if row >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
            for u in range(self.n):
                if (row >> u & 1) != (self.adj[u] >> v & 1):
                    raise ValueError("adjacency is not symmetric")

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
    flags = back_edge_flags(comps)
    total = len(flags)
    full = (1 << n) - 1

    def rec(pos: int, prev: int, used: int) -> int:
        if pos == total:
            return 1
        cand = (adj[prev] if flags[pos] else full) & ~used
        acc = 0
        while cand:
            vbit = cand & -cand
            cand ^= vbit
            acc += rec(pos + 1, vbit.bit_length() - 1, used | vbit)
        return acc

    return rec(0, -1, 0)


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

@dataclass(frozen=True, slots=True)
class ExtremalResult:
    """Outcome of an exhaustive scan of the labeled n-vertex graphs."""

    forest: LinearForest
    n: int
    k: int
    max_count: int
    turan_count: int
    witnesses: tuple[SmallGraph, ...]
    graphs_scanned: int

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


_array_lock = threading.Lock()


@lru_cache(maxsize=4)
def _all_masks(nbits: int) -> np.ndarray:
    masks = np.arange(1 << nbits, dtype=np.int32)
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=8)
def _clique_free_selector(n: int, r: int) -> np.ndarray:
    """Boolean array over all edge masks: True iff the graph has no K_r."""
    nbits = n * (n - 1) // 2
    masks = _all_masks(nbits)
    eidx = _edge_index(n)
    bad = np.zeros(1 << nbits, dtype=bool)
    for group in combinations(range(n), r):
        em = 0
        for a, b in combinations(group, 2):
            em |= 1 << eidx[(a, b)]
        em = np.int32(em)
        bad |= (masks & em) == em
    ok = ~bad
    ok.setflags(write=False)
    return ok


@lru_cache(maxsize=8)
def _inj_counts_all_graphs(n: int, comps: tuple[int, ...]) -> np.ndarray:
    """Injective homomorphism counts of the forest for every edge mask.

    Builds the histogram of demanded-edge masks over all injective
    placements into K_n, then applies the subset-sum transform so entry
    G ends up holding the number of placements entirely inside G.
    """
    # every entry is bounded by the total placement count n!/(n-m)!,
    # so the fixed-width array cannot wrap; refuse if that ever changes
    bound = 1
    for t in range(min(sum(comps), n)):
        bound *= n - t
    if bound >= 2 ** 31:
        raise OverflowError(f"placement count bound {bound} exceeds int32")

    nbits = n * (n - 1) // 2
    eidx = _edge_index(n)
    w = np.zeros(1 << nbits, dtype=np.int32)
    flags = back_edge_flags(comps)
    total = len(flags)
    full = (1 << n) - 1
    placements = 0

    def rec(pos: int, prev: int, used: int, emask: int) -> None:
        nonlocal placements
        if pos == total:
            w[emask] += 1
            placements += 1
            return
        need_edge = flags[pos]
        cand = full & ~used
        while cand:
            vbit = cand & -cand
            cand ^= vbit
            v = vbit.bit_length() - 1
            rec(pos + 1, v,
                used | vbit,
                emask | (1 << eidx[(prev, v)]) if need_edge else emask)

    if total <= n:
        rec(0, -1, 0, 0)
    for t in range(nbits):
        step = 1 << t
        view = w.reshape(-1, 2 * step)
        view[:, step:] += view[:, :step]
    # the transform leaves the total placement count at the full mask
    if int(w[-1]) != placements:
        raise RuntimeError("subset-sum transform integrity check failed")
    w.setflags(write=False)
    return w


def _scan_shard(counts: np.ndarray, ok: np.ndarray, lo: int, hi: int,
                witness_cap: int) -> tuple[int, list[int]]:
    sel = ok[lo:hi]
    if not sel.any():
        return -1, []
    vals = counts[lo:hi][sel]
    best = int(vals.max())
    idx = lo + np.flatnonzero(sel)
    ties = idx[vals == best][:witness_cap]
    return best, [int(m) for m in ties]


def extremal_search(forest: LinearForest, n: int, k: int, *,
                    cap: int = EXHAUSTIVE_CAP_DEFAULT,
                    witness_cap: int = WITNESS_CAP_DEFAULT,
                    workers: int | None = None) -> ExtremalResult:
    """Maximize the forest's copy count over all K_{k+1}-free graphs on n
    labeled vertices, scanning every edge mask.

    Refuses n above the cap (default 7, hard limit 8).  The scan is
    sharded over fixed edge-mask ranges; shard results merge by maximum
    with a keep-smallest-mask witness rule, so the outcome does not
    depend on the worker count.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cap > EXHAUSTIVE_CAP_LIMIT:
        raise ValueError(f"cap {cap} exceeds hard limit {EXHAUSTIVE_CAP_LIMIT}")
    if n < 0 or n > cap:
        raise ValueError(f"n={n} outside [0, {cap}]; refusing unbounded scan")
    if witness_cap < 0:
        raise ValueError("witness cap must be >= 0")

    nbits = n * (n - 1) // 2
    with _array_lock:
        counts = _inj_counts_all_graphs(n, forest.components)
        ok = _clique_free_selector(n, k + 1)

    shard_size = 1 << min(_SHARD_BITS, nbits)
    bounds = [(lo, min(lo + shard_size, 1 << nbits))
              for lo in range(0, 1 << nbits, shard_size)]
    if workers is not None and workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda b: _scan_shard(counts, ok, b[0], b[1], witness_cap), bounds))
    else:
        results = [_scan_shard(counts, ok, lo, hi, witness_cap) for lo, hi in bounds]

    max_inj = max(best for best, _ in results)
    witness_masks: list[int] = []
    for best, ties in results:
        if best == max_inj:
            witness_masks.extend(ties)
        if len(witness_masks) >= witness_cap:
            break
    witness_masks = witness_masks[:witness_cap]

    max_count = copies_from_injective_homs(max_inj, aut_order(forest))
    turan_graph = explicit_multipartite(turan_parts(n, k))
    turan_count = count_copies_explicit(forest, turan_graph)

    witnesses = []
    for mask in witness_masks:
        g = SmallGraph.from_edge_mask(n, mask)
        # engine self-check: transformed counts and clique filter must
        # agree with the plain backtracking reference on every witness
        if count_injective_homs_explicit(forest, g) != int(counts[mask]):
            raise RuntimeError(f"scan self-check failed on mask {mask}")
        if not is_clique_free(g, k + 1):
            raise RuntimeError(f"clique filter self-check failed on mask {mask}")
        witnesses.append(g)

    if max_count < turan_count:
        raise RuntimeError("scan missed the Turan graph; engine defect")

    return ExtremalResult(
        forest=forest, n=n, k=k,
        max_count=max_count, turan_count=turan_count,
        witnesses=tuple(witnesses), graphs_scanned=1 << nbits,
    )
