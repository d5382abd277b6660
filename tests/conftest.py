"""Shared brute-force oracles, deliberately independent of the package,
and one helper that is not: ``clear_engine_caches``.

Every oracle enumerates naively: host graphs are explicit edge sets,
injective maps are itertools.permutations, automorphisms are permutations
checked edge by edge.  Slow and dumb on purpose.
"""

from itertools import permutations


def clear_engine_caches():
    """Drop every cached search result, count array, clique-number array
    and DP memo, so that the next search or count runs from cold caches
    instead of reading back what an earlier one stored."""
    from turangood import multipartite, oracle
    for cached in (oracle._core_search, oracle._inj_counts_all_graphs,
                   oracle._clique_numbers, multipartite._core_memo):
        cached.cache_clear()


def forest_edges(components):
    """Edge set of a linear forest drawn on consecutive vertex blocks."""
    edges = []
    offset = 0
    for c in components:
        edges.extend((offset + t, offset + t + 1) for t in range(c - 1))
        offset += c
    return edges


def multipartite_edge_set(sizes):
    """Edges of the complete multipartite graph with the given parts."""
    block = []
    for b, s in enumerate(sizes):
        block.extend([b] * s)
    n = len(block)
    return n, {(u, v) for u in range(n) for v in range(u + 1, n)
               if block[u] != block[v]}


def brute_aut_order(components):
    """Count edge-preserving vertex permutations of the forest."""
    m = sum(components)
    edges = forest_edges(components)
    eset = {frozenset(e) for e in edges}
    count = 0
    for perm in permutations(range(m)):
        if all(frozenset((perm[a], perm[b])) in eset for a, b in edges):
            count += 1
    return count


def brute_inj_homs(components, n, edge_set):
    """Count injective maps sending every forest edge into edge_set."""
    m = sum(components)
    edges = forest_edges(components)
    norm = {(min(u, v), max(u, v)) for u, v in edge_set}
    count = 0
    for img in permutations(range(n), m):
        if all((min(img[a], img[b]), max(img[a], img[b])) in norm
               for a, b in edges):
            count += 1
    return count


def brute_copies(components, n, edge_set):
    inj = brute_inj_homs(components, n, edge_set)
    aut = brute_aut_order(components)
    assert inj % aut == 0
    return inj // aut


def brute_inj_homs_multipartite(components, sizes):
    n, eset = multipartite_edge_set(sizes)
    return brute_inj_homs(components, n, eset)


def brute_copies_multipartite(components, sizes):
    n, eset = multipartite_edge_set(sizes)
    return brute_copies(components, n, eset)


def all_forests(max_vertices, min_vertices=1):
    """Every linear forest with min_vertices <= total <= max_vertices."""
    out = []

    def parts(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    for total in range(min_vertices, max_vertices + 1):
        out.extend(parts(total, total))
    return out
