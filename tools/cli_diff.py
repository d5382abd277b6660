"""Compare the CLI's exit code, stdout and stderr between two checkouts.

Usage, from any directory:

    python3 tools/cli_diff.py PARENT CHANGE [--seeds N]

The argvs are every op of the benchmark's workloads (CHANGE's
``bench/workloads.py``) at seeds 1..N (default 1), ``-h`` of each command,
and a fixed list of usage errors, vacuous ranges and short-core counts.
Each checkout runs all of them through ``turangood.cli.run`` in one fresh
interpreter (``run_child``).  The first argv whose exit code, stdout or
stderr differ is printed; the exit code is 1 on any difference, else 0.
Stdlib only; nothing under ``bench/`` is written.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

FIXED = [
    ["-h"], ["count", "-h"], ["verify", "-h"], ["table", "-h"], [],
    ["verify", "bogus", "--forest", "3"],
    ["verify", "conjecture", "--forest", "3", "--k", "2"],
    ["verify", "conjecture", "--forest", "3", "--n", "4"],
    ["verify", "multipartite-max", "--forest", "3", "--n", "4"],
    ["verify", "multipartite-max", "--forest", "3", "--n", "4", "--k", "0"],
    ["verify", "balance", "--forest", "3"],
    ["verify", "even-identity", "--forest", "3,1"],
    ["verify", "odd-identity", "--forest", "2,1"],
    ["verify", "odd-identity", "--forest", "3", "--k", "0"],
    ["verify", "isolated-identity", "--forest", "3,1", "--n", "0..1"],
    ["verify", "even-identity", "--forest", "2", "--n", "-1..3"],
    ["verify", "multipartite-max", "--forest", "2", "--n", "0..2", "--k", "1..3"],
    ["verify", "multipartite-max", "--forest", "2", "--n", "3", "--k", "1000000"],
    ["verify", "conjecture", "--forest", "3", "--n", "0..2", "--k", "5"],
    ["verify", "conjecture", "--forest", "2", "--n", "3", "--k", "1000000"],
    ["verify", "conjecture", "--forest", "3", "--n", "9", "--k", "2"],
    ["verify", "conjecture", "--forest", "3", "--n", "4", "--k", "2", "--workers", "0"],
    ["table", "--forest", "2", "--n", "0..2", "--k", "1..4"],
    ["table", "--forest", "2", "--n", "3", "--k", "1000000"],
    ["count", "--forest", "2", "--turan", "3/1000000"],
    ["count", "--forest", "2", "--turan", "0/4"],
    ["count", "--forest", "2", "--turan", "5/0"],
    ["count", "--forest", "2", "--turan", "-1/4"],
    # edge cores of at most four vertices, counted at their root, on hosts
    # the workloads do not use
    ["count", "--forest", "4,1", "--parts", "700,600,500"],
    ["count", "--forest", "2,2", "--turan", "1000/7"],
    ["table", "--forest", "3", "--n", "1..40", "--k", "1..6"],
    ["verify", "multipartite-max", "--forest", "2,2,1", "--n", "40", "--k", "5"],
    ["verify", "balance", "--forest", "4", "--parts", "12,1,1"],
    ["verify", "even-identity", "--forest", "4,2", "--n", "6..30"],
    # T(n, k) with more parts than vertices, and k < 1 where a grid is built
    ["verify", "balance", "--forest", "3", "--parts", "1,0,0,0"],
    ["count", "--forest", "2", "--turan", "0/5"],
    ["table", "--forest", "1", "--n", "0..2", "--k", "1..4"],
    ["verify", "conjecture", "--forest", "2,1", "--n", "0..3", "--k", "3..7"],
    ["verify", "conjecture", "--forest", "3", "--k", "0"],
    ["verify", "multipartite-max", "--forest", "3", "--n", "3", "--k", "0..1000000000"],
    ["table", "--forest", "3", "--n", "1..100", "--k", "0..1000000000"],
    # n = 7 searches whose ties lie past the lower half of the masks (K_7
    # alone ties at k = 7), that collect none, or many
    ["verify", "conjecture", "--forest", "2", "--n", "7", "--k", "7"],
    ["verify", "conjecture", "--forest", "3", "--n", "7", "--k", "2..7", "--witnesses", "0"],
    ["verify", "conjecture", "--forest", "2,2", "--n", "7", "--k", "6", "--witnesses", "500"],
]

CHILD = """
import contextlib, io, json, sys
import turangood.cli as cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except Exception as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
    results.append([rc, out.getvalue(), err.getvalue()])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""


def load_workloads(checkout: Path):
    """The checkout's ``bench/workloads.py`` as a module."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path.insert(0, str(checkout.resolve() / "bench"))
    import workloads
    return workloads


def run_child(checkout: Path, code: str, argv_list: list[list[str]]):
    """The JSON that ``code`` prints when it runs in a fresh interpreter
    in the checkout, with the checkout's ``src`` on the path, no
    TURANGOOD_* variables, PYTHONDONTWRITEBYTECODE=1 and argv_list as
    JSON on stdin.  A child that fails stops the tool with its stderr."""
    root = checkout.resolve()
    env = {key: val for key, val in os.environ.items() if not key.startswith("TURANGOOD_")}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(argv_list),
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{Path(sys.argv[0]).stem}: the child in {checkout} failed:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def argvs(change: Path, seeds: int) -> list[list[str]]:
    workloads = load_workloads(change)
    ops = [op["argv"] for seed in range(1, seeds + 1)
           for name in workloads.WORKLOADS for op in workloads.build(name, seed)]
    return ops + FIXED


def outputs(checkout: Path, argv_list: list[list[str]]) -> list:
    doc = run_child(checkout, CHILD, argv_list)
    if not Path(doc["module"]).resolve().is_relative_to(checkout.resolve()):
        raise SystemExit(f"cli_diff: {checkout} ran {doc['module']}, not its own package")
    return doc["results"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, default=1, help="workload seeds 1..N")
    args = parser.parse_args()
    argv_list = argvs(args.change, args.seeds)
    sides = [outputs(root, argv_list) for root in (args.parent, args.change)]
    differ = [i for i, (old, new) in enumerate(zip(*sides)) if old != new]
    print(f"cli_diff: {len(argv_list)} argvs, {len(differ)} differ")
    if differ:
        i = differ[0]
        print(f"first difference: turangood {shlex.join(argv_list[i])}")
        for field, old, new in zip(("exit code", "stdout", "stderr"), *(s[i] for s in sides)):
            if old != new:
                print(f"  {field}: parent {old!r:.300}\n  {field}: change {new!r:.300}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
