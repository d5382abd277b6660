"""Injective homomorphism counts of linear forests into complete
multipartite hosts from colour-class histograms, with plain ints and no
import from the package's counting DP.

An injective homomorphism into K_{a_1..a_k} sends each vertex to a part,
adjacent vertices to distinct parts, and the j_i vertices in part i to
distinct host vertices.  With hist[j] the number of proper k-colourings
of the forest whose colour classes have the sizes j = (j_1..j_k),

    N_inj = sum over j of hist[j] * prod_i (a_i)_{j_i},

where (a)_j = perm(a, j) is the falling factorial.  Each path's hist is
a DP along the path with state (class sizes, last colour); the paths
combine by convolution.
"""

from collections import Counter
from math import perm, prod
from operator import add


def path_hist(m: int, k: int) -> Counter:
    """Class sizes -> number of proper k-colourings of the path P_m."""
    layer = Counter({((0,) * k, -1): 1})
    for _ in range(m):
        nxt = Counter()
        for (sizes, last), ways in layer.items():
            for c in range(k):
                if c != last:
                    grown = list(sizes)
                    grown[c] += 1
                    nxt[tuple(grown), c] += ways
        layer = nxt
    out = Counter()
    for (sizes, _), ways in layer.items():
        out[sizes] += ways
    return out


def forest_hist(components, k: int) -> Counter:
    """Class sizes -> number of proper k-colourings of the forest."""
    hist = Counter({(0,) * k: 1})
    for m in components:
        nxt = Counter()
        for b, y in path_hist(m, k).items():
            for a, x in hist.items():
                nxt[tuple(map(add, a, b))] += x * y
        hist = nxt
    return hist


def inj_homs(hist: Counter, k: int, sizes) -> int:
    """N_inj on the host with the given parts (at most k), from the
    forest's k-colour histogram."""
    if len(sizes) > k:
        raise ValueError(f"{len(sizes)} parts, but the histogram has {k} colours")
    sizes = tuple(sizes) + (0,) * (k - len(sizes))
    return sum(ways * prod(map(perm, sizes, js)) for js, ways in hist.items())
