"""Count the hits and misses of the package's caches on the benchmark's ops.

Usage, from any directory:

    python3 tools/cache_traffic.py [CHECKOUT] [--workload NAME ...] [--seeds 1 2 3]

CHECKOUT defaults to the repository that holds this file.  Each
workload's ops (CHECKOUT's ``bench/workloads.py``) run as a benchmark
pass runs them: all ``sweep`` or ``exhaustive`` ops through
``turangood.cli.run`` in one fresh interpreter, each ``cli-mix`` op in a
fresh interpreter of its own.  Every interpreter has CHECKOUT's ``src``
on the path, no TURANGOOD_* variables and PYTHONDONTWRITEBYTECODE=1.
After its ops it reads ``cache_info()`` of every function in a loaded
``turangood.*`` module that has one.  An op that raises, which the CLI
never lets happen, stops the tool with its traceback.

One line per workload, seed and cache: its hits, misses and currsize.
Where the ops ran in several interpreters each number is the range over
them, as ``lo-hi``.  A cache that no interpreter loaded is not listed.
Stdlib only; nothing under ``bench/`` is written.
"""

import argparse
from pathlib import Path

from cli_diff import load_workloads, run_child

CHILD = """
import contextlib, io, json, sys
import turangood.cli as cli
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.run(argv)
caches = {}
for name, mod in list(sys.modules.items()):
    if name.startswith("turangood."):
        for fn in vars(mod).values():
            if callable(fn) and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                caches[f"{fn.__module__[len('turangood.'):]}.{fn.__qualname__}"] = [
                    info.hits, info.misses, info.currsize]
json.dump(caches, sys.stdout)
"""

FIELDS = ("hits", "misses", "currsize")


def span(values: list[int]) -> str:
    lo, hi = min(values), max(values)
    return str(lo) if lo == hi else f"{lo}-{hi}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--workload", action="append",
                        help="sweep, exhaustive or cli-mix; repeatable (default: all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    workloads = load_workloads(args.checkout)
    names = args.workload or list(workloads.WORKLOADS)
    print(f"{'workload':<11} {'seed':>4}  {'cache':<40} " + " ".join(f"{f:>9}" for f in FIELDS))
    for name in names:
        for seed in args.seeds:
            argv_list = [op["argv"] for op in workloads.build(name, seed)]
            groups = ([[argv] for argv in argv_list] if name == "cli-mix" else [argv_list])
            runs = [run_child(args.checkout, CHILD, group) for group in groups]
            for cache in sorted({c for run in runs for c in run}):
                cols = [span([run[cache][i] for run in runs if cache in run])
                        for i in range(len(FIELDS))]
                print(f"{name:<11} {seed:>4}  {cache:<40} " + " ".join(f"{c:>9}" for c in cols))


if __name__ == "__main__":
    main()
