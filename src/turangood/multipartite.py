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
DP state is (position, the free capacities as a sorted multiset, the
capacity of the part the next vertex may not use, or -1).  A move into
capacity c weighs c times the number of parts with capacity c, less one
when the forbidden part is among them.  The last two vertices have a
closed form in the free capacities (see ``count_injective_homs``), so
the deepest position holds no states and the one before it computes no
moves.  A state's value depends only on the core, not on the host it
was reached from, so the memo is kept per core and shared by every host
counted for it and by every forest with that core (F and F - P1 share
one): a sweep over many hosts fills in only the states no earlier host
reached.  The memo holds the two most recently used cores, each with
its back-edge flags.  Evaluation is iterative (a forward pass collects
the new states layer by layer, a backward pass fills them in), so
forests of any length count without recursion.

Copy counts divide out the forest's automorphisms; the division is
always exact.  All arithmetic uses Python's unbounded integers, so
counts are exact at any magnitude.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from .forest import (LinearForest, Record, aut_order, back_edge_flags,
                     copies_from_injective_homs, edge_core)


class PartSizes(Record):
    """Part cardinalities of a complete multipartite graph.

    Sizes are kept in the order given (positions matter for the
    balancing moves); zeros are legal and denote empty parts.  The
    canonical form, non-increasing with zeros stripped, identifies the
    underlying graph: counts only depend on it.
    """

    __slots__ = ("sizes",)

    def __init__(self, sizes: tuple[int, ...] = ()) -> None:
        sizes = tuple(int(s) for s in sizes)
        for s in sizes:
            if s < 0:
                raise ValueError(f"part size must be >= 0, got {s}")
        self._set(sizes)

    @classmethod
    def parse(cls, text: str) -> "PartSizes":
        items = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not items:
            raise ValueError("part sizes must name at least one part")
        try:
            sizes = [int(tok) for tok in items]
        except ValueError:
            raise ValueError(f"invalid part sizes {text!r}") from None
        return cls(tuple(sizes))

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
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    q, r = divmod(n, k)
    return PartSizes((q + 1,) * r + (q,) * (k - r))


_MEMO_CORES = 2
"""Edge cores whose DP states are kept.  The identity verifiers alternate a
forest and its shrunk forest, so two suffice; more only cost memory."""

_memos: OrderedDict = OrderedDict()
"""Edge core -> (its back-edge flags, one dict per position but the last:
(caps, forbidden) -> count of ways to place the rest).  No lock guards
it: the package runs the DP on one thread only."""


def _core_memo(core: tuple[int, ...]) -> tuple[tuple[bool, ...], list[dict]]:
    """The core's flags and memo; evicts the least recently used core
    beyond _MEMO_CORES."""
    entry = _memos.get(core)
    if entry is None:
        flags = back_edge_flags(core)
        entry = _memos[core] = (flags, [{} for _ in range(len(flags) - 1)])
        if len(_memos) > _MEMO_CORES:
            _memos.popitem(last=False)
    else:
        _memos.move_to_end(core)
    return entry


def _moves(caps: tuple[int, ...], forbidden: int, bind: bool) -> list:
    """(weight, next state) for each way to place one vertex.

    The vertex goes into some part of capacity c: c vertices to choose
    from in each of the parts with that capacity, less the forbidden
    part.  The last part of capacity c drops to c - 1, which keeps caps
    non-increasing; a part that fills up leaves the state.
    """
    out = []
    i, k = 0, len(caps)
    while i < k:
        c = caps[i]
        j = i + 1
        while j < k and caps[j] == c:
            j += 1
        mult = j - i - (c == forbidden)
        if mult:
            nxt = caps[:j - 1] + (c - 1,) + caps[j:] if c > 1 else caps[:j - 1]
            out.append((c * mult, (nxt, c - 1 if bind and c > 1 else -1)))
        i = j
    return out


def count_injective_homs(forest: LinearForest, parts: PartsLike) -> int:
    """Number of injective maps of the forest into the host that carry
    every forest edge to a host edge (endpoints in distinct parts)."""
    sizes = canonical_sizes(parts)
    core, factor = edge_core(forest.components, sum(sizes))
    if not core:
        return factor
    flags, memo = _core_memo(core)
    root = (sizes, -1)
    if root in memo[0]:
        return factor * memo[0][root]
    # forward: layer by layer, the states reachable from this host that
    # are not in the memo yet, each with its moves; memo hits end a branch.
    # The states of the last memo layer need no moves (see below).
    last = len(memo) - 1
    layers: list[dict] = []
    todo = {root: None}
    for pos in range(last):
        if not todo:
            break
        layers.append(todo)
        known = memo[pos + 1]
        bind = flags[pos + 1]
        nxt: dict = {}
        for state in todo:
            moves = todo[state] = _moves(*state, bind)
            for _, succ in moves:
                if succ not in known:
                    nxt[succ] = None
        todo = nxt
    # the last two vertices in closed form.  With s free host vertices and
    # f of them in the forbidden part (0 when there is none), the first
    # goes to one of s - f; the last then has s - 1 choices, or, when it
    # must be adjacent, the s - c outside the part of size c the first
    # took.  Summed over parts: s(s - f) - (sum of c^2 - f^2).
    here = memo[last]
    bind = flags[last + 1]
    for caps, forbidden in todo:
        s = sum(caps)
        f = forbidden if forbidden > 0 else 0
        here[caps, forbidden] = (s * (s - f) - sum(c * c for c in caps) + f * f if bind
                                 else (s - 1) * (s - f))
    # backward: fill the other new states in, deepest layer first
    for pos in range(len(layers) - 1, -1, -1):
        below = memo[pos + 1]
        here = memo[pos]
        for state, moves in layers[pos].items():
            here[state] = sum(w * below[succ] for w, succ in moves)
    return factor * memo[0][root]


def count_copies(forest: LinearForest, parts: PartsLike) -> int:
    """Number of subgraphs of the host isomorphic to the forest."""
    return copies_from_injective_homs(count_injective_homs(forest, parts),
                                      aut_order(forest))


def count_copies_turan(forest: LinearForest, n: int, k: int) -> int:
    """Copy count in the Turan graph T(n, k)."""
    return count_copies(forest, turan_parts(n, k))
