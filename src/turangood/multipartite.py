"""Exact copy counts of linear forests in complete multipartite graphs.

A complete multipartite host is described by its part sizes.  Counting
never materializes the host: injective homomorphisms are counted by a
dynamic program that lays the forest down one path vertex at a time.
Placing a vertex into a part with c free vertices contributes a factor
c, and consecutive vertices of the same path may not share a part (that
pair must be a host edge).

Parts with the same number of free vertices are interchangeable, so a
DP state is (position, the free capacities as a sorted multiset, the
capacity of the part the next vertex may not use, or -1).  A move into
capacity c weighs c times the number of parts with capacity c, less one
when the forbidden part is among them.  A state's value depends only on
the forest, not on the host it was reached from, so the memo is kept
per forest and shared by every host counted for it: a sweep over many
hosts fills in only the states no earlier host reached.  The memo holds
the two most recently used forests.  Evaluation is iterative (a forward
pass collects the new states layer by layer, a backward pass fills them
in), so forests of any length count without recursion.

Copy counts divide out the forest's automorphisms; the division is
always exact.  All arithmetic uses Python's unbounded integers, so
counts are exact at any magnitude.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from .forest import LinearForest, Record, aut_order, back_edge_flags, copies_from_injective_homs


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
    """Non-increasing nonzero part sizes: the host up to isomorphism."""
    if isinstance(parts, PartSizes):
        return parts.canonical
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


_MEMO_FORESTS = 2
"""Forests whose DP states are kept.  The identity verifiers alternate a
forest and its shrunk forest, so two suffice; more only cost memory."""

_memos: OrderedDict = OrderedDict()
"""Forest components -> one dict per position, (caps, forbidden) -> count
of ways to place the rest.  No lock guards it: the package runs the DP
on one thread only."""


def _forest_memo(comps: tuple[int, ...], total: int) -> list[dict]:
    """The forest's memo, one dict per position; evicts the least
    recently used forest beyond _MEMO_FORESTS."""
    memo = _memos.get(comps)
    if memo is None:
        memo = _memos[comps] = [{} for _ in range(total)]
        if len(_memos) > _MEMO_FORESTS:
            _memos.popitem(last=False)
    else:
        _memos.move_to_end(comps)
    return memo


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
    flags = back_edge_flags(forest.components)
    total = len(flags)
    if total > sum(sizes):
        return 0
    if total == 0:
        return 1
    memo = _forest_memo(forest.components, total)
    root = (sizes, -1)
    if root in memo[0]:
        return memo[0][root]
    # forward: layer by layer, the states reachable from this host that
    # are not in the memo yet, each with its moves; memo hits end a branch
    layers: list[dict] = []
    todo = {root: None}
    for pos in range(total):
        if not todo:
            break
        layers.append(todo)
        known = memo[pos + 1] if pos + 1 < total else None
        bind = known is not None and flags[pos + 1]
        nxt: dict = {}
        for state in todo:
            moves = todo[state] = _moves(*state, bind)
            if known is not None:
                for _, succ in moves:
                    if succ not in known:
                        nxt[succ] = None
        todo = nxt
    # backward: fill those states in, deepest layer first; a move off the
    # last position completes a placement and counts once
    for pos in range(len(layers) - 1, -1, -1):
        below = memo[pos + 1] if pos + 1 < total else None
        here = memo[pos]
        for state, moves in layers[pos].items():
            if below is None:
                here[state] = sum(w for w, _ in moves)
            else:
                here[state] = sum(w * below[succ] for w, succ in moves)
    return memo[0][root]


def count_copies(forest: LinearForest, parts: PartsLike) -> int:
    """Number of subgraphs of the host isomorphic to the forest."""
    return copies_from_injective_homs(count_injective_homs(forest, parts),
                                      aut_order(forest))


def count_copies_turan(forest: LinearForest, n: int, k: int) -> int:
    """Copy count in the Turan graph T(n, k)."""
    return count_copies(forest, turan_parts(n, k))
