"""The benchmark's workloads: op lists drawn from a seed, with expectations.

An op is ``{"argv": [...], "expect": {...}}``: one CLI invocation and what
its output must satisfy (see ``checks.py``).  ``build(name, seed)`` gives
the same list for the same seed.

The seed varies the inputs, not the amount of work.  Each sweep slot
draws its forests from a pool whose members cost about the same on that
slot's hosts: the pools were cut from per-forest timings of the counting DP
(2-core x86 box, Python 3.11) and keep the forests within roughly +-10%
of the slot's median cost.  Pools are listed cheapest first and a slot
takes a mirrored pair (the i-th cheapest and the i-th dearest), so the
cost of a pass hardly depends on the seed.
"""

from __future__ import annotations

import random

from checks import aut, canonical, closed_copies, partition_count, turan

WORKLOADS = ("sweep", "exhaustive", "cli-mix")

# sweep: (n, k, forest pool, cheapest first); an op is one forest over
# every partition of n into at most k parts, so the DP runs on hundreds of
# hosts per forest.
SWEEP_SLOTS = (
    (36, 4, "4,4,1,1 6,2,1,1 3,2,2,1,1,1 3,2,1,1,1,1,1 4,2,2,1,1 5,1,1,1,1,1 4,3,1,1,1 "
            "3,3,1,1,1,1 4,1,1,1,1,1,1 5,2,1,1,1 4,4,2 2,2,2,2,1,1 8,1,1 "
            "2,1,1,1,1,1,1,1,1 4,2,2,2"),
    (40, 4, "2,2,2,2 7,1 3,1,1,1,1,1 6,2 2,2,1,1,1,1 8 2,1,1,1,1,1,1 4,4 "
            "1,1,1,1,1,1,1,1 5,1,1,1"),
    (24, 5, "2,2,1,1,1,1,1 2,2,2,1,1,1 4,2,2,1 5,1,1,1,1 2,2,2,2,1 3,1,1,1,1,1,1 5,2,1,1"),
)

# exhaustive: forests drawn per vertex count m, so every pass runs the
# same number of placement histograms of each size.
EXHAUSTIVE_PER_M = {3: 2, 4: 3, 5: 5, 6: 8, 7: 10}
EXHAUSTIVE_N = 7
EXHAUSTIVE_KS = [2, 3, 4]


def partitions(m: int, largest: int | None = None):
    """Partitions of m as non-increasing tuples."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def _fstr(comps) -> str:
    return ",".join(str(c) for c in sorted(comps, reverse=True))


def _count_op(comps, sizes, fmt: str, host_args: list[str]) -> dict:
    return {"argv": ["count", "--forest", _fstr(comps), *host_args, "--format", fmt],
            "expect": {"kind": "count", "rc": 0, "fmt": fmt, "forest": _fstr(comps),
                       "parts": canonical(sizes), "aut": aut(comps),
                       "copies": closed_copies(comps, sizes)}}


def _count_parts(comps, sizes, fmt: str) -> dict:
    return _count_op(comps, sizes, fmt, ["--parts", ",".join(map(str, sizes))])


def _count_turan(comps, n: int, k: int, fmt: str) -> dict:
    return _count_op(comps, turan(n, k), fmt, ["--turan", f"{n}/{k}"])


def _report(claim: str, params: dict, instances=None, maximizer=None) -> dict:
    return {"claim": claim, "params": params, "instances": instances, "maximizer": maximizer}


def _verify_op(argv: list[str], fmt: str, reports: list[dict]) -> dict:
    return {"argv": ["verify", *argv, "--format", fmt],
            "expect": {"kind": "verify", "rc": 0, "fmt": fmt, "reports": reports}}


def _range(lo: int, hi: int) -> str:
    return f"{lo}..{hi}" if hi != lo else str(lo)


def _mm_op(comps, ns, ks, fmt: str) -> dict:
    f = _fstr(comps)
    reports = [_report("multipartite-max", {"forest": f, "n": n, "k": k},
                       partition_count(n, k), turan(n, k))
               for k in ks for n in ns]
    return _verify_op(["multipartite-max", "--forest", f, "--n", _range(ns[0], ns[-1]),
                       "--k", _range(ks[0], ks[-1])], fmt, reports)


def _conjecture_op(comps, ns, ks, workers: int, fmt: str) -> dict:
    f = _fstr(comps)
    reports = [_report("conjecture", {"forest": f, "n": n, "k": k}, 2 ** (n * (n - 1) // 2))
               for k in ks for n in ns]
    return _verify_op(["conjecture", "--forest", f, "--n", _range(ns[0], ns[-1]),
                       "--k", _range(ks[0], ks[-1]), "--workers", str(workers)],
                      fmt, reports)


def _balance_op(comps, sizes: list[int], fmt: str) -> dict:
    f = _fstr(comps)
    return _verify_op(["balance", "--forest", f, "--parts", ",".join(map(str, sizes))], fmt,
                      [_report("balance", {"forest": f, "parts": sizes}, None,
                               turan(sum(sizes), len(sizes)))])


def _identity_op(claim: str, comps, orders, window, explicit_n: bool, fmt: str) -> dict:
    f = _fstr(comps)
    ns = list(range(window[0], window[1] + 1))
    instances = max(sum(n // 2 for n in ns), 1)
    if orders is None:
        reports = [_report(claim, {"forest": f, "n_range": ns}, instances)]
    else:
        reports = [_report(claim, {"forest": f, "order": o, "n_range": ns}, instances)
                   for o in orders]
    argv = [claim, "--forest", f]
    if explicit_n:
        argv += ["--n", _range(*window)]
    return _verify_op(argv, fmt, reports)


def _table_op(comps, ns, ks, fmt: str) -> dict:
    f = _fstr(comps)
    rows = [[n, k, f, closed_copies(comps, turan(n, k))] for k in ks for n in ns]
    return {"argv": ["table", "--forest", f, "--n", _range(ns[0], ns[-1]),
                     "--k", _range(ks[0], ks[-1]), "--format", fmt],
            "expect": {"kind": "table", "rc": 0, "fmt": fmt, "rows": rows}}


def _usage(argv: list[str]) -> dict:
    return {"argv": argv, "expect": {"kind": "usage", "rc": 2}}


def _mirrored_pair(rng: random.Random, text: str) -> tuple:
    pool = [tuple(int(c) for c in f.split(",")) for f in text.split()]
    i = rng.randrange(len(pool) // 2)
    return pool[i], pool[-1 - i]


def sweep(rng: random.Random) -> list[dict]:
    ops = [_mm_op(comps, [n], [k], "json") for n, k, pool in SWEEP_SLOTS
           for comps in _mirrored_pair(rng, pool)]
    rng.shuffle(ops)
    return ops


def exhaustive(rng: random.Random) -> list[dict]:
    ops = [_conjecture_op(comps, [EXHAUSTIVE_N], EXHAUSTIVE_KS, 2, "json")
           for m, count in EXHAUSTIVE_PER_M.items()
           for comps in rng.sample(list(partitions(m)), count)]
    rng.shuffle(ops)
    return ops


def _small_forest(rng: random.Random, max_comps: int = 3, max_order: int = 4):
    return tuple(rng.randint(1, max_order) for _ in range(rng.randint(1, max_comps)))


def _small_parts(rng: random.Random, max_parts: int = 4, max_size: int = 6):
    return [rng.randint(1, max_size) for _ in range(rng.randint(2, max_parts))]


def cli_mix(rng: random.Random) -> list[dict]:
    fmts = ("json", "csv", "human")
    a = rng.randint(3, 9)
    b = rng.randint(3, 9)
    deep = rng.randint(420, 470)
    odd = tuple(sorted(_small_forest(rng, 2, 3) + (rng.choice((3, 5)),), reverse=True))
    even = tuple(sorted(_small_forest(rng, 2, 3) + (rng.choice((2, 4)),), reverse=True))
    iso = tuple(sorted(_small_forest(rng, 2, 3) + (1,), reverse=True))
    odd_orders = sorted({c for c in odd if c % 2 == 1 and c >= 3})
    even_orders = sorted({c for c in even if c % 2 == 0})
    lo = rng.randint(6, 8)
    nk = rng.randint(5, 7)
    ops = [_count_parts(_small_forest(rng), _small_parts(rng), f) for f in fmts]
    ops += [
        _count_parts((2 * a,), [a, a], "json"),
        _count_parts((2 * b + 1,), [b, b + 1], "csv"),
        _count_parts((2,), _small_parts(rng), "human"),
        _count_turan((3,), rng.randint(8, 20), rng.randint(2, 5), "json"),
        _count_parts((1, 1, 1), _small_parts(rng), "csv"),
        # a path of about 900 vertices: the DP recursion runs near its depth limit
        _count_parts((2 * deep,), [deep, deep], "json"),
        _table_op((2,), list(range(1, 9)), [2, 3], "json"),
        _table_op((3,), list(range(3, 10)), [2], "csv"),
        _table_op(_small_forest(rng), list(range(4, 8)), [2, 3], "json"),
        _balance_op(_small_forest(rng), [1, rng.randint(5, 9), rng.randint(2, 4)], "json"),
        _balance_op(_small_forest(rng), [rng.randint(6, 10), 1], "human"),
        _identity_op("odd-identity", odd, odd_orders, (lo, lo + 3), True, "json"),
        _identity_op("even-identity", even, even_orders, (lo, lo + 2), True, "csv"),
        _identity_op("isolated-identity", iso, None, (lo, lo + 4), True, "json"),
        _identity_op("odd-identity", odd, odd_orders, (sum(odd), sum(odd) + 4), False, "human"),
        _mm_op(_small_forest(rng), list(range(1, 7)), [2, 3], "json"),
        _mm_op(_small_forest(rng), list(range(4, 7)), [2], "csv"),
        _mm_op(_small_forest(rng), [nk], [2, 3], "human"),
        _conjecture_op(_small_forest(rng), [4, 5, 6], [2], 2, "json"),
        _conjecture_op(_small_forest(rng), [5], [2, 3], 1, "csv"),
        _conjecture_op(_small_forest(rng), [6], [3], 2, "human"),
        _usage(["count", "--forest", "3"]),
        _usage(["count", "--forest", "3,x", "--parts", "2,3"]),
        _usage(["count", "--forest", "3", "--turan", "7"]),
        _usage(["verify", "conjecture", "--forest", "3", "--n", "9", "--k", "2"]),
        _usage(["verify", "multipartite-max", "--forest", "3", "--n", "5"]),
        _usage(["table", "--forest", "2", "--n", "5..3", "--k", "2"]),
    ]
    rng.shuffle(ops)
    return ops


# A path on 1000 vertices overflows the counting DP's recursion today
# (RecursionError, exit 1).  It stays out of the cli-mix op list, so that
# passes measure ops that succeed; run.py runs it once per cli-mix run as a
# probe and reports its outcome on its own.
KNOWN_DEFECT_OP = _count_parts((1000,), [500, 500], "json")

BUILDERS = {"sweep": sweep, "exhaustive": exhaustive, "cli-mix": cli_mix}


def build(name: str, seed: int) -> list[dict]:
    """The op list of workload ``name`` for ``seed``."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
