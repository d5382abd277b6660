"""Spans around calls into the package's layers, recorded from outside it.

A traced pass rebinds module-level functions of ``turangood.*`` to timing
wrappers (``Tracer.install``); no file of the package changes.  Every
module attribute that refers to a wrapped function is replaced, so calls
made through ``from .multipartite import count_copies`` are seen too.

A span is ``[id, name, start, end, parent, meta]`` with times from
``time.perf_counter``.  Each thread keeps its own stack of open spans; a
span opened on a thread whose stack is empty (the scan pool's threads)
takes the main thread's innermost open span as its parent, which during
a scan is the enclosing ``oracle.extremal_search``.  Spans stay in memory
until the pass ends.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the union of its children's
intervals, so children that overlap (parallel scan shards) are not
subtracted twice.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from functools import wraps

from checks import canonical

# module -> functions whose calls are timed; span name is "<module>.<function>"
TRACED = {
    "cli": ("run", "cmd_count", "cmd_verify", "cmd_table"),
    "verify": ("verify_multipartite_max", "verify_balancing_monotone",
               "verify_odd_extension_identity", "verify_even_extension_identity",
               "verify_isolated_identity", "verify_conjecture"),
    "multipartite": ("count_copies_turan", "count_copies", "count_injective_homs"),
    "oracle": ("extremal_search", "_inj_counts_all_graphs", "_clique_free_selector",
               "_scan_shard", "count_copies_explicit", "count_injective_homs_explicit",
               "is_clique_free"),
}

ID, NAME, START, END, PARENT, META = range(6)


class Tracer:
    """Records spans for the calls into the wrapped package functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main: list[int] = []
        self._survivors: dict = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        """Rebind every traced function on every loaded turangood module.
        Call from the main thread, the one that runs the CLI."""
        self._main = self._stack()
        import turangood.cli  # noqa: F401  (loads every layer)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "turangood" or name.startswith("turangood.")]
        for short, names in TRACED.items():
            home = sys.modules[f"turangood.{short}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main and self._main:
                parent = self._main[-1]
            else:
                parent = None
            misses = cache_info().misses if cache_info else 0
            span = [next(ids), name, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            built = cache_info is not None and cache_info().misses > misses
            span[META] = self._meta(name, args, result, built)
            return result

        return wrapper

    def _meta(self, name: str, args: tuple, result, built: bool):
        """Counts taken at the layer boundary; JSON-ready."""
        if name == "multipartite.count_injective_homs":
            return [list(args[0].components), canonical(getattr(args[1], "sizes", args[1]))]
        if name.startswith("verify."):
            return result.instances_checked
        if name == "oracle.extremal_search":
            return result.graphs_scanned
        if name == "oracle._inj_counts_all_graphs":
            return {"bytes": result.nbytes if built else 0}
        if name == "oracle._clique_free_selector":
            if built or args not in self._survivors:
                self._survivors[args] = int(result.sum())
            return {"bytes": result.nbytes if built else 0,
                    "survivors": self._survivors[args], "masks": int(result.size)}
        return None


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans) -> dict:
    kids: dict = {}
    for s in spans:
        if s[PARENT] is not None:
            kids.setdefault(s[PARENT], []).append(s)
    return kids


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    kids = _children(spans)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = union_length(
            (max(c[START], lo), min(c[END], hi))
            for c in kids.get(s[ID], ()) if c[END] > lo and c[START] < hi)
        out[s[ID]] = (hi - lo) - covered
    return out


TIME_METRICS = (
    "cli.parse_s", "cli.emit_s", "cli.process_s", "verify.self_s", "multipartite.self_s",
    "oracle.counts_s", "oracle.selector_s", "oracle.scan_s", "oracle.witness_check_s",
    "oracle.turan_ref_s", "oracle.self_s",
)
"""Time metrics that partition a traced pass: with ``trace.unattributed_s``
they add up to its wall time (``oracle.scan_busy_s`` is not among them:
shards overlap)."""


def layer_metrics(groups, op_elapsed, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``groups`` holds one span list per process that served the pass
    (one for an in-process pass, one per op for cli-mix); ``op_elapsed``
    is each op's elapsed time as the pass saw it.
    """
    m = dict.fromkeys(TIME_METRICS, 0.0)
    m.update({"oracle.scan_busy_s": 0.0, "verify.instances_checked": 0,
              "multipartite.calls": 0, "oracle.witness_checks": 0,
              "oracle.graphs_scanned": 0, "oracle.array_bytes": 0})
    hosts = set()
    survivors = masks = 0
    run_time = 0.0
    for spans in groups:
        selfs = self_times(spans)
        by_id = {s[ID]: s for s in spans}
        kids = _children(spans)
        for s in spans:
            name, dur, own = s[NAME], s[END] - s[START], selfs[s[ID]]
            meta = s[META]  # None when the call raised
            parent = by_id.get(s[PARENT])
            parent_name = parent[NAME] if parent else None
            if name == "cli.run":
                m["cli.parse_s"] += own
                run_time += dur
            elif name.startswith("cli.cmd_"):
                m["cli.emit_s"] += own
            elif name.startswith("verify."):
                m["verify.self_s"] += own
                m["verify.instances_checked"] += meta or 0
            elif name.startswith("multipartite."):
                m["multipartite.self_s"] += own
                if name == "multipartite.count_injective_homs":
                    m["multipartite.calls"] += 1
                    if meta:
                        hosts.add((tuple(meta[0]), tuple(meta[1])))
            elif name == "oracle.extremal_search":
                m["oracle.self_s"] += own
                m["oracle.graphs_scanned"] += meta or 0
                shards = [(c[START], c[END]) for c in kids.get(s[ID], ())
                          if c[NAME] == "oracle._scan_shard"]
                m["oracle.scan_s"] += union_length(shards)
                m["oracle.scan_busy_s"] += sum(hi - lo for lo, hi in shards)
            elif name == "oracle._inj_counts_all_graphs":
                m["oracle.counts_s"] += own
                m["oracle.array_bytes"] += meta["bytes"] if meta else 0
            elif name == "oracle._clique_free_selector":
                m["oracle.selector_s"] += own
                if meta:
                    m["oracle.array_bytes"] += meta["bytes"]
                    survivors += meta["survivors"]
                    masks += meta["masks"]
            elif name == "oracle.count_copies_explicit":
                m["oracle.turan_ref_s"] += dur
            elif (name in ("oracle.count_injective_homs_explicit", "oracle.is_clique_free")
                  and parent_name == "oracle.extremal_search"):
                m["oracle.witness_check_s"] += dur
                m["oracle.witness_checks"] += 1
    m["multipartite.distinct_hosts"] = len(hosts)
    m["oracle.survivor_ratio"] = survivors / masks if masks else 0.0
    m["cli.process_s"] = sum(op_elapsed) - run_time
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(m[k] for k in TIME_METRICS)
    return m
