"""Exact copy counts of linear forests in complete multipartite graphs.

A complete multipartite host is described by its part sizes.  Counting
never materializes the host: injective homomorphisms are counted by a
dynamic program that lays the forest down one path vertex at a time.
Placing a vertex into a part with c free vertices contributes a factor
c, and consecutive vertices of the same path may not share a part (that
pair must be a host edge).

Isolated vertices demand no edge, so they do not enter the DP: it counts
the forest's edge core (its components of order >= 2) and multiplies by
perm(n - |core|, #isolated), the ways to put the isolated vertices on
the host vertices the core leaves free (``forest.edge_core``, which also
returns 0 at once when the forest has more than n vertices).

Parts with the same number of free vertices are interchangeable, so a
DP state is (position, caps, marker): caps is the sorted multiset of free
capacities, and the marker is the capacity of the part the next vertex
may not use, or -1.  A move into a part of capacity c, held by r_c
parts, has t_c = c * (count of the caps after the move); with
U = sum of r_c * t_c, marker -1 counts U and marker f counts U - t_f.
So the moves of a caps are built once for all its markers, and each
marker costs one subtraction.  A caps whose only marker is f, held by
one part, makes no move into f, so exactly the states a vertex-by-vertex
search reaches are visited (about a + b for a path in K_{a,b}, not ab).
The last four vertices have a closed form in the power sums of the caps
(see ``_tail``), so the deepest three positions hold no states and the
one before them computes no moves; an edge core of at most four vertices
has no memo, as each host is counted at its root.

A state's value depends only on the core, so the memo (``_core_memo``)
is kept per core and shared by every host and every forest with that
core (F and F - P1 share one); it holds the two most recently used
cores.  ``count_injective_homs_many`` counts a batch of hosts on one n
in one pass: a forward pass collects, layer by layer, the states the
memo lacks, and a backward pass fills them in, so a state many hosts
reach is counted once and paths of any length count without recursion.
``count_injective_homs`` is a batch of one.

Copy counts divide out the forest's automorphisms; the division is
always exact.  All arithmetic uses Python's unbounded integers, so
counts are exact at any magnitude.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from operator import index

from .forest import (LinearForest, Record, aut_order, back_edge_flags,
                     copies_from_injective_homs, edge_core, parse_int_list)


class PartSizes(Record):
    """Part cardinalities of a complete multipartite graph.

    Sizes are kept in the order given (positions matter for the
    balancing moves); zeros are legal and denote empty parts.  The
    canonical form, non-increasing with zeros stripped, identifies the
    underlying graph: counts only depend on it.
    """

    __slots__ = ("sizes",)

    def __init__(self, sizes: tuple[int, ...] = ()) -> None:
        sizes = tuple(map(index, sizes))
        for s in sizes:
            if s < 0:
                raise ValueError(f"part size must be >= 0, got {s}")
        self._set(sizes)

    @classmethod
    def parse(cls, text: str) -> "PartSizes":
        return cls(parse_int_list(text, "part sizes must name at least one part",
                                  "invalid part sizes"))

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.canonical)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def canonical(self) -> tuple[int, ...]:
        return tuple(s for s in sorted(self.sizes, reverse=True) if s > 0)


PartsLike = PartSizes | Iterable[int]


def canonical_sizes(parts: PartsLike) -> tuple[int, ...]:
    """Non-increasing nonzero part sizes: the host up to isomorphism.
    A tuple of ints already in that form (as ``partitions_at_most``
    yields) is returned as it is, without building a PartSizes."""
    if isinstance(parts, PartSizes):
        return parts.canonical
    if (type(parts) is tuple and {*map(type, parts)} <= {int}
            and list(parts) == sorted(parts, reverse=True) and (not parts or parts[-1] > 0)):
        return parts
    return PartSizes(tuple(parts)).canonical


def turan_parts(n: int, k: int) -> PartSizes:
    """Part sizes of the Turan graph T(n, k): as equal as possible.

    n mod k parts get ceil(n/k) vertices and the rest get floor(n/k).
    At most max(n, 1) parts are built, as for k > n the parts past the
    n-th are empty and cost only memory; ``.canonical`` is unchanged.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k = min(k, max(n, 1))
    q, r = divmod(n, k)
    return PartSizes((q + 1,) * r + (q,) * (k - r))


@lru_cache(maxsize=2)
def _core_memo(core: tuple[int, ...]) -> tuple[tuple[bool, ...], list[dict]]:
    """The back-edge flags and memo of an edge core of at least 5 vertices,
    one dict per position but the last three: where a path starts it maps
    caps -> count of ways to place the rest (marker -1 only), elsewhere
    caps -> {marker: count}.  Two cores are kept, as the identity verifiers
    alternate a forest and its shrunk forest; more only cost memory.  No
    lock guards a memo: the package runs the DP on one thread only."""
    flags = back_edge_flags(core)
    return flags, [{} for _ in range(len(flags) - 3)]


def _tail(caps: tuple[int, ...], binds: tuple[bool, ...]) -> tuple[int, ...]:
    """The ways to place the last vertices v1, v2, ... of an edge core on
    the caps.  ``binds`` holds the back-edge flags of v2, v3, ... (the
    last is always True).  One or two flags count a whole P2 or P3 core
    at its root, as (H,); three count the last four vertices of a longer
    core, as (H, a0, a1, a2, a3).  With no part forbidden to v1 the count
    is H; with a forbidden part of capacity f > 0 it is H - h(f), where
    h(f) = f(a0 + a1 f + a2 f^2 + a3 f^3).

    With s, q, u, w the sums of c, c^2, c^3, c^4 over the caps:

    - a P2 or P3 core: H = s^2 - q or s^3 - s^2 - 2sq + q + u;
    - bound, bound, bound (a path tail):
      H = s^4 - 3s^3 - 3s^2 q + s^2 + 7sq + 2su + q^2 - q - 4u - w,
      h(f)/f = -f^3 + (s - 4)f^2 + (-s^2 + 5s + q - 1)f
               + s^3 - 3s^2 - 2sq + s + 2q + u;
    - bound, start, bound (v3 v4 is a P2):
      H = s^4 - 4s^3 - 2s^2 q + 2s^2 + 8sq + q^2 - 2q - 4u,
      h(f)/f = -4f^2 + (-s^2 + 6s + q - 2)f + s^3 - 4s^2 - sq + 2s + 2q;
    - start, bound, bound (v2 v3 v4 is a P3):
      H = s^4 - 4s^3 - 2s^2 q + 3s^2 + 7sq + su - 3q - 3u,
      h(f)/f = -3f^2 + (4s - 3)f + s^3 - 4s^2 - 2sq + 3s + 3q + u.

    Each is the recursion V(caps, f) = sum over parts i of
    c_i V'(caps - e_i, c_i - 1 if the next vertex is bound), less the
    term of the forbidden part, expanded to the last vertex.  (A start
    at v2 and at v3 would make v2 an isolated vertex, which no edge
    core has.)"""
    s = sum(caps)
    q = sum(c * c for c in caps)
    u = sum(c * c * c for c in caps)
    ss = s * s
    if len(binds) < 3:
        return (ss - q if len(binds) == 1 else ss * (s - 1) - 2 * s * q + q + u,)
    if not binds[1]:
        return (ss * (ss - 4 * s - 2 * q + 2) + 8 * s * q + q * q - 2 * q - 4 * u,
                s * (ss - 4 * s - q + 2) + 2 * q, -ss + 6 * s + q - 2, -4, 0)
    if not binds[0]:
        return (ss * (ss - 4 * s - 2 * q + 3) + s * (7 * q + u) - 3 * q - 3 * u,
                s * (ss - 4 * s - 2 * q + 3) + 3 * q + u, 4 * s - 3, -3, 0)
    w = sum(c * c * c * c for c in caps)
    return (ss * (ss - 3 * s - 3 * q + 1) + s * (7 * q + 2 * u) + q * q - q - 4 * u - w,
            s * (ss - 3 * s - 2 * q + 1) + 2 * q + u, -ss + 5 * s + q - 1, s - 4, -1)


_UNMARKED = (-1,)
"""The markers of a caps reached only with no part forbidden."""


def _fill(flags: tuple[bool, ...], memo: list[dict], roots: Iterable) -> None:
    """Enter every root (caps at position 0, marker -1) into the memo,
    with each state it reaches that the memo does not hold yet."""
    # forward: layer by layer, the new states grouped by caps, each caps
    # with its new markers and its moves (c, parts of capacity c, caps
    # after the last of them takes the vertex, the next marker); memo
    # hits end a branch.  The last memo layer needs no moves (see below).
    last = len(memo) - 1
    layers: list[list] = []
    todo: dict = dict.fromkeys(roots, _UNMARKED)
    for pos in range(last):
        if not todo:
            break
        bind = flags[pos + 1]
        known = memo[pos + 1]
        nxt: dict = {}
        layer = []
        for caps, marks in todo.items():
            only = marks[0] if len(marks) == 1 else None
            moves = []
            row = list(caps)
            i, k = 0, len(caps)
            while i < k:
                c = caps[i]
                j = i + 1
                while j < k and caps[j] == c:
                    j += 1
                if j - i > 1 or c != only:
                    if c > 1:
                        row[j - 1] = c - 1
                        succ = tuple(row)
                        row[j - 1] = c
                    else:
                        succ = caps[:j - 1]
                    mark = c - 1 if bind and c > 1 else -1
                    if not bind:
                        if succ not in known:
                            nxt[succ] = _UNMARKED
                    elif mark not in known.get(succ, ()):
                        marks_next = nxt.get(succ)
                        if marks_next is None:
                            nxt[succ] = [mark]
                        elif mark not in marks_next:
                            marks_next.append(mark)
                    moves.append((c, j - i, succ, mark))
                i = j
            layer.append((caps, marks, moves))
        layers.append(layer)
        todo = nxt
    # the last four vertices in closed form (see _tail)
    here = memo[last]
    marked, binds = flags[last], flags[last + 1:]
    for caps, marks in todo.items():
        total, a0, a1, a2, a3 = _tail(caps, binds)
        if not marked:
            here[caps] = total
            continue
        vals = here.setdefault(caps, {})
        for f in marks:
            vals[f] = total - f * (a0 + f * (a1 + f * (a2 + f * a3))) if f > 0 else total
    # backward, deepest layer first, each dropped once counted: marker -1
    # counts U, marker f counts U - t_f, and a move left out for marker f
    # leaves U as it is
    while layers:
        layer = layers.pop()
        pos = len(layers)
        below, here = memo[pos + 1], memo[pos]
        bind, marked = flags[pos + 1], flags[pos]
        for caps, marks, moves in layer:
            u = 0
            t = {}
            for c, r, succ, mark in moves:
                t[c] = v = c * (below[succ][mark] if bind else below[succ])
                u += r * v
            if not marked:
                here[caps] = u
                continue
            vals = here.setdefault(caps, {})
            for f in marks:
                vals[f] = u - t.get(f, 0)


def count_injective_homs_many(forest: LinearForest, hosts: Iterable[PartsLike]) -> list[int]:
    """count_injective_homs for each host of a batch, in one pass: the
    hosts must all have the same number of vertices, and a state that
    several of them reach is counted once."""
    batch = [canonical_sizes(h) for h in hosts]
    if not batch:
        return []
    n = sum(batch[0])
    if any(sum(sizes) != n for sizes in batch):
        raise ValueError("the hosts of one batch must have the same number of vertices")
    core, factor = edge_core(forest.components, n)
    if not core:
        return [factor] * len(batch)
    if sum(core) <= 4:
        binds = back_edge_flags(core)[1:]
        return [factor * _tail(sizes, binds)[0] for sizes in batch]
    flags, memo = _core_memo(core)
    top = memo[0]
    new = [sizes for sizes in batch if sizes not in top]
    if new:
        _fill(flags, memo, new)
    return [factor * top[sizes] for sizes in batch]


def count_injective_homs(forest: LinearForest, parts: PartsLike) -> int:
    """Number of injective maps of the forest into the host that carry
    every forest edge to a host edge (endpoints in distinct parts)."""
    return count_injective_homs_many(forest, (parts,))[0]


def count_copies(forest: LinearForest, parts: PartsLike) -> int:
    """Number of subgraphs of the host isomorphic to the forest."""
    return copies_from_injective_homs(count_injective_homs(forest, parts),
                                      aut_order(forest))


def count_copies_turan(forest: LinearForest, n: int, k: int) -> int:
    """Copy count in the Turan graph T(n, k)."""
    return count_copies(forest, turan_parts(n, k))
