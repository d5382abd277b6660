"""Machine-checkable verdicts for the extremal counting claims.

Each verifier sweeps a finite parameter space, compares exact counts,
and returns a VerificationReport built by ``_report``: "holds" unless a
counterexample, computed only on failure, is given.  ``VERDICTS`` maps
each verdict to its exit code; a new verdict is added there.  Reports
serialize to JSON with the stable schema

    {claim, params, verdict, maximizers[], counterexample?, ratio?,
     instances_checked}

where counterexample appears only when the verdict is "counterexample"
and ratio only for the extension-identity claims (the observed constant
is an output of the run, never an input).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice
from operator import index

from .forest import (
    LinearForest,
    Record,
    aut_order,
    copies_from_injective_homs,
    delete_even_end_pair,
    delete_isolated,
    delete_odd_endpoint,
)
from .multipartite import (
    PartSizes,
    PartsLike,
    count_copies,
    count_injective_homs_many,
    turan_parts,
)
from .oracle import (
    EXHAUSTIVE_CAP_DEFAULT,
    WITNESS_CAP_DEFAULT,
    extremal_search,
)

VERDICTS = {"holds": 0, "counterexample": 1}
"""Each verdict with the exit code of ``verify``, least severe first."""


class VerificationReport(Record):
    __slots__ = ("claim", "params", "verdict", "maximizers", "counterexample",
                 "instances_checked", "ratio")

    def __init__(self, claim: str, params: dict, verdict: str,
                 maximizers: tuple[tuple[int, ...], ...] = (),
                 counterexample: dict | None = None,
                 instances_checked: int = 0, ratio: str | None = None) -> None:
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if verdict == "holds" and counterexample is not None:
            raise ValueError("a holding verdict cannot carry a counterexample")
        if instances_checked <= 0:
            raise ValueError("instances_checked must be positive")
        self._set(claim, params, verdict, maximizers, counterexample,
                  instances_checked, ratio)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "maximizers": [list(m) for m in self.maximizers],
            "instances_checked": self.instances_checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.ratio is not None:
            out["ratio"] = self.ratio
        return out


def _report(claim: str, params: dict, counterexample: dict | None, **fields) -> VerificationReport:
    """The verifier's report: "holds" unless a counterexample is given."""
    verdict = "holds" if counterexample is None else "counterexample"
    return VerificationReport(claim, params, verdict, counterexample=counterexample, **fields)


def partitions_at_most(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most k positive parts, non-increasing, in
    descending lexicographic order."""
    if n == 0:
        yield ()
        return
    if k < 1 or n < 1:
        return
    parts = [n]
    while True:
        yield tuple(parts)
        # the next partition keeps the longest prefix it can: lower the
        # rightmost part that stays >= 1 and leaves a tail (its old tail
        # plus the unit taken) that fits into the k - i - 1 slots after
        # it, each at most the lowered part; then refill them greedily
        tail = 0
        for i in range(len(parts) - 1, -1, -1):
            v = parts[i] - 1
            tail += 1
            if v and tail <= (k - i - 1) * v:
                break
            tail += v
        else:
            return
        q, r = divmod(tail, v)
        parts[i:] = [v] * (q + 1) + [r] * (r > 0)


def _n_values(n_range: Iterable[int]) -> list[int]:
    """The sorted distinct n of an identity sweep; below n = 2 no host has
    two nonempty parts, so a range without such an n would check nothing."""
    values = sorted(set(map(index, n_range)))
    if not values:
        raise ValueError("n range must be nonempty")
    if values[0] < 0:
        raise ValueError("n must be >= 0")
    if values[-1] < 2:
        raise ValueError("n range has no n >= 2, so no host with two nonempty parts")
    return values


def _bipartite_hosts(values: list[int]) -> Iterator[tuple[int, int, int]]:
    """The hosts K_{a,b}, a >= b >= 1, a + b = n, of an identity sweep, n as in
    ``values`` and then b ascending; one at least, as some n >= 2 is there."""
    for n in values:
        for b in range(1, n // 2 + 1):
            yield n, n - b, b


_SWEEP_CHUNK = 64
"""Hosts counted per DP batch in a multipartite-max sweep: enough for the
batch to share its states, few enough that the partition list is never
built whole."""


def verify_multipartite_max(forest: LinearForest, n: int, k: int) -> VerificationReport:
    """Check that among all complete multipartite graphs on n vertices
    with at most k parts, the Turan partition attains the largest copy
    count.  Ties are legal and all maximizers are reported, in the order
    of ``partitions_at_most``.  The hosts are counted in batches of
    _SWEEP_CHUNK, each in one pass of the counting DP."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    aut = aut_order(forest)
    best = -1
    maximizers: list[tuple[int, ...]] = []
    checked = 0
    hosts = partitions_at_most(n, k)
    while chunk := list(islice(hosts, _SWEEP_CHUNK)):
        checked += len(chunk)
        for part, inj in zip(chunk, count_injective_homs_many(forest, chunk)):
            cnt = copies_from_injective_homs(inj, aut)
            if cnt > best:
                best = cnt
                maximizers = [part]
            elif cnt == best:
                maximizers.append(part)
    target = turan_parts(n, k).canonical
    return _report(
        "multipartite-max", {"forest": str(forest), "n": n, "k": k},
        None if target in maximizers else {
            "turan_parts": list(target),
            "turan_count": count_copies(forest, target),
            "best_parts": list(maximizers[0]),
            "best_count": best,
        },
        maximizers=tuple(maximizers), instances_checked=checked)


def balancing_move(parts: PartSizes, i: int, j: int) -> PartSizes:
    """Move floor((sizes[j] - sizes[i]) / 2) vertices from part j to
    part i.  Requires sizes[i] < sizes[j] - 1; afterwards the two parts
    differ by at most one vertex."""
    sizes = list(parts.sizes)
    if not (0 <= i < len(sizes)) or not (0 <= j < len(sizes)) or i == j:
        raise ValueError(f"bad part indices ({i}, {j}) for {len(sizes)} parts")
    if sizes[i] >= sizes[j] - 1:
        raise ValueError(
            f"parts {i} and {j} already balanced within one ({sizes[i]} vs {sizes[j]})")
    moved = (sizes[j] - sizes[i]) // 2
    sizes[i] += moved
    sizes[j] -= moved
    return PartSizes(tuple(sizes))


def balance_trajectory(parts: PartSizes) -> list[PartSizes]:
    """Repeatedly balance the smallest part against the largest until all
    parts are within one vertex, returning the intermediate partitions
    (input excluded); a move past the max(n, 1)-th raises RuntimeError."""
    if parts.k == 0:
        return []
    max_steps = max(parts.n, 1)
    cur = parts
    out: list[PartSizes] = []
    while True:
        sizes = cur.sizes
        i = sizes.index(min(sizes))
        j = sizes.index(max(sizes))
        if sizes[j] - sizes[i] <= 1:
            return out
        if len(out) >= max_steps:
            raise RuntimeError(f"balancing failed to converge from {parts.sizes}")
        cur = balancing_move(cur, i, j)
        out.append(cur)


def verify_balancing_monotone(forest: LinearForest, parts: PartsLike) -> VerificationReport:
    """Check that no single balancing move decreases the copy count and
    that iterated moves reach the Turan partition."""
    parts = parts if isinstance(parts, PartSizes) else PartSizes(tuple(parts))
    target = turan_parts(parts.n, parts.k)
    found, checked = _balance_failure(forest, parts, target)
    return _report("balance", {"forest": str(forest), "parts": list(parts.sizes)}, found,
                   maximizers=() if found else (target.canonical,),
                   instances_checked=max(checked, 1))


def _balance_failure(forest: LinearForest, parts: PartSizes,
                     target: PartSizes) -> tuple[dict | None, int]:
    """The first failing check of the balance claim, or None, and the checks made."""
    base = count_copies(forest, parts)
    checked = 0
    sizes = parts.sizes
    for i in range(len(sizes)):
        for j in range(len(sizes)):
            if i == j or sizes[i] >= sizes[j] - 1:
                continue
            moved = balancing_move(parts, i, j)
            checked += 1
            after = count_copies(forest, moved)
            if after < base:
                return {"move": [i, j], "parts_after": list(moved.sizes),
                        "count_before": base, "count_after": after}, checked
    trajectory = balance_trajectory(parts)
    prev_parts, prev = parts, base
    for step in trajectory:
        checked += 1
        cur = count_copies(forest, step)
        if cur < prev:
            return {"move_from": list(prev_parts.sizes), "parts_after": list(step.sizes),
                    "count_before": prev, "count_after": cur}, checked
        prev_parts, prev = step, cur
    final = trajectory[-1] if trajectory else parts
    if final.canonical != target.canonical:
        return {"reached": list(final.sizes), "target": list(target.sizes),
                "steps": len(trajectory)}, checked + 1
    return None, checked + 1


def _ratio_identity(claim: str, forest: LinearForest, order: int,
                    n_range: Iterable[int],
                    rebuilt: Callable[[int, int, int], int]) -> VerificationReport:
    """Common body of the extension-identity verifiers: over every
    complete bipartite host K_{a,b} with a + b = n in the range, the
    ratio of rebuilt(n, a, b) to the forest's copy count, taken where
    that count is nonzero, must be one constant."""
    from fractions import Fraction  # here, not at start-up: it imports decimal

    values = _n_values(n_range)
    hosts: dict = {}  # each ratio seen -> the first host that gave it
    for checked, (n, a, b) in enumerate(_bipartite_hosts(values), 1):
        denom = count_copies(forest, (a, b))
        if denom == 0:
            continue
        numer = rebuilt(n, a, b)
        hosts.setdefault(Fraction(numer, denom), {
            "n": n, "parts": [a, b], "numerator": numer, "denominator": denom})
    lo, hi = min(hosts, default=None), max(hosts, default=None)
    found = ({"host_a": hosts[lo], "ratio_a": str(lo), "host_b": hosts[hi], "ratio_b": str(hi)}
             if lo != hi else None)
    return _report(claim, {"forest": str(forest), "order": order, "n_range": values}, found,
                   instances_checked=checked, ratio=str(lo) if hosts and not found else None)


def verify_odd_extension_identity(forest: LinearForest, order: int,
                                  n_range: Iterable[int]) -> VerificationReport:
    """Deleting an endpoint of an odd component leaves a forest whose
    copies extend back to the original in x * (n - |V|) ways, x the
    number of even components of the shrunken order.  The ratio of the
    two sides must be one constant over all complete bipartite hosts
    and all n in the range."""
    shrunk = delete_odd_endpoint(forest, order)
    x = shrunk.multiplicity(order - 1)
    return _ratio_identity(
        "odd-identity", forest, order, n_range,
        lambda n, a, b: count_copies(shrunk, (a, b)) * x * (n - shrunk.total_vertices))


def verify_even_extension_identity(forest: LinearForest, order: int,
                                   n_range: Iterable[int]) -> VerificationReport:
    """Deleting the last two vertices of an even component leaves a
    forest; copies of the original are rebuilt from an edge uv plus a
    copy of the shrunken forest on the remaining vertices.  Each edge of
    K_{a,b} leaves K_{a-1,b-1}, a component of the shrunken order can be
    extended at two ends, and when the component vanishes (order 2) the
    edge itself becomes the new component with a single orientation."""
    shrunk = delete_even_end_pair(forest, order)
    ways = 2 * shrunk.multiplicity(order - 2) if order >= 4 else 1
    return _ratio_identity(
        "even-identity", forest, order, n_range,
        lambda n, a, b: a * b * ways * count_copies(shrunk, (a - 1, b - 1)))


def verify_isolated_identity(forest: LinearForest,
                             n_range: Iterable[int]) -> VerificationReport:
    """Removing a single-vertex component is an exact bijection:
    N(H, G) * (#P1 components) = N(H - P1, G) * (n - |V(H)| + 1) on
    every complete bipartite host."""
    shrunk = delete_isolated(forest)
    isolated = forest.multiplicity(1)
    values = _n_values(n_range)
    found = None
    for checked, (n, a, b) in enumerate(_bipartite_hosts(values), 1):
        lhs = count_copies(forest, (a, b)) * isolated
        rhs = count_copies(shrunk, (a, b)) * (n - forest.total_vertices + 1)
        if lhs != rhs:
            found = {"n": n, "parts": [a, b], "lhs": lhs, "rhs": rhs}
            break
    return _report("isolated-identity", {"forest": str(forest), "n_range": values}, found,
                   instances_checked=checked)


def verify_conjecture(forest: LinearForest, n: int, k: int, *, ks: Sequence[int] = (),
                      cap: int = EXHAUSTIVE_CAP_DEFAULT,
                      witness_cap: int = WITNESS_CAP_DEFAULT) -> VerificationReport:
    """Exhaustively check that no K_{k+1}-free graph on n labeled
    vertices holds more copies of the forest than the Turan graph; ``ks``
    is passed on to ``extremal_search``."""
    result = extremal_search(forest, n, k, ks=ks, cap=cap, witness_cap=witness_cap)
    return _report(
        "conjecture", {"forest": str(forest), "n": n, "k": k},
        None if result.max_count == result.turan_count else {
            "max_count": result.max_count,
            "turan_count": result.turan_count,
            "witnesses": [w.to_json_dict() for w in result.witnesses],
        },
        instances_checked=result.graphs_scanned)
