"""Linear forests: vertex-disjoint unions of paths.

A linear forest is fully described by the multiset of its component
orders (P_k is the path on k vertices, so a component of order k has
k - 1 edges).  Forests are stored canonically with component orders
sorted in non-increasing order; two forests are equal exactly when
their canonical order tuples are equal.

The empty forest (no components) is a legal internal value and counts
as having exactly one copy in every host graph.  Text input must be
nonempty.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, perm
from operator import index


class Record:
    """Immutable value whose fields are its ``__slots__``: equality,
    hashing and repr by field value, as a frozen dataclass has.  A
    subclass's ``__init__`` validates and stores its fields with ``_set``.
    Since assignment raises, copy and pickle need ``__reduce__``: it
    rebuilds through the constructor."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def parse_int_list(text: str, empty: str, invalid: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; blank items are skipped.
    An empty list raises ValueError(empty), an item that is not an
    integer ValueError(f"{invalid} {text!r}")."""
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(empty)
    try:
        return tuple(int(tok) for tok in items)
    except ValueError:
        raise ValueError(f"{invalid} {text!r}") from None


class LinearForest(Record):
    """Multiset of path orders, canonicalized to non-increasing order."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[int, ...] = ()) -> None:
        comps = tuple(sorted(map(index, components), reverse=True))
        for c in comps:
            if c < 1:
                raise ValueError(f"component order must be >= 1, got {c}")
        self._set(comps)

    @classmethod
    def parse(cls, text: str) -> "LinearForest":
        """Parse a comma-separated list of component orders, e.g. "5,3,1".

        Whitespace is ignored.  The input must name at least one component.
        """
        return cls(parse_int_list(text, "forest must have at least one component",
                                  "invalid forest spec"))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.components)

    @property
    def total_vertices(self) -> int:
        return sum(self.components)

    def multiplicity(self, order: int) -> int:
        """Number of components with the given order."""
        return sum(1 for c in self.components if c == order)


def aut_order(forest: LinearForest) -> int:
    """Order of the automorphism group of the forest.

    Every component of order >= 2 can be reversed independently, and
    components of equal order can be permuted among each other:
    2^(#components of order >= 2) * prod over distinct orders of mult!.
    """
    out = 1 << sum(1 for c in forest.components if c >= 2)
    for mult in Counter(forest.components).values():
        out *= factorial(mult)
    return out


def copies_from_injective_homs(inj: int, aut: int) -> int:
    """Copy count from an injective homomorphism count: inj / aut.

    The division is exact for every host; a remainder means an engine
    defect and raises RuntimeError (a check that holds under -O too).
    """
    copies, rem = divmod(inj, aut)
    if rem:
        raise RuntimeError(f"automorphism count {aut} does not divide {inj}")
    return copies


def edge_core(components: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """(edge core, factor) of a forest placed into n host vertices.

    The core is the components of order >= 2.  Isolated vertices demand
    no edge: once the core is placed they take any of the n - |core|
    vertices left, so every injective homomorphism count in any host is
    the core's times perm(n - |core|, #isolated).  A forest with more
    than n vertices gives ((), 0), before anything that grows with the
    forest is built.
    """
    if sum(components) > n:
        return (), 0
    core = tuple(c for c in components if c >= 2)
    return core, perm(n - sum(core), len(components) - len(core))


def back_edge_flags(components: tuple[int, ...]) -> tuple[bool, ...]:
    """One flag per forest vertex, the components laid down one after
    another in the given order: True when the vertex must be adjacent to
    the vertex placed just before it (every path vertex but the first)."""
    return tuple(t > 0 for c in components for t in range(c))


def delete_odd_endpoint(forest: LinearForest, order: int) -> LinearForest:
    """Remove one endpoint from a component of the given odd order (>= 3).

    The chosen component shrinks by one vertex.
    """
    if order % 2 == 0:
        raise ValueError(f"order {order} is even; expected an odd component order")
    if order < 3:
        raise ValueError("order must be >= 3 (use delete_isolated for P1 components)")
    return _replace_component(forest, order, order - 1)


def delete_even_end_pair(forest: LinearForest, order: int) -> LinearForest:
    """Remove the last two vertices from a component of the given even order.

    A component of order >= 4 shrinks by two vertices; a component of
    order 2 is removed entirely.
    """
    if order % 2 == 1:
        raise ValueError(f"order {order} is odd; expected an even component order")
    return _replace_component(forest, order, order - 2)


def delete_isolated(forest: LinearForest) -> LinearForest:
    """Remove one single-vertex component."""
    return _replace_component(forest, 1, 0)


def _replace_component(forest: LinearForest, order: int, new_order: int) -> LinearForest:
    comps = list(forest.components)
    try:
        comps.remove(order)
    except ValueError:
        raise ValueError(f"forest {forest} has no component of order {order}") from None
    if new_order > 0:
        comps.append(new_order)
    return LinearForest(tuple(comps))
