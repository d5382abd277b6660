"""Run ``bench/run.py`` on a parent and a change checkout in alternating pairs.

Usage, from any directory:

    python3 tools/ab_bench.py PARENT CHANGE --workload exhaustive --seed 1 \
        --pairs 10 --out BENCH_x.json

Pair i runs the parent first when i is odd and the change first when it
is even.  Before every run both checkouts lose their ``__pycache__``
directories and the run gets PYTHONDONTWRITEBYTECODE=1, so neither side
reads bytecode that the other did not compile.  Per end-to-end metric of
the change's ``BENCHMARK.json``, the out file gets each side's runs,
median and inclusive quartiles, the pairs the change won, and a verdict
(see ``verdict``), under ``end_to_end["<workload> seed <seed>"]``; its
other keys are kept.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float | None) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 5), "q1": round(q1, 5),
            "q3": round(q3, 5), "runs": [round(r, 5) for r in runs]}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one end-to-end metric, from the runs of each side in
    pair order, which way is better ("lower" or "higher") and the relative
    bound by which the metric may worsen:

    - ``better``: the change wins at least 9 of 10 pairs, and its median
      beats the parent's by more than the parent's interquartile range;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - ``unresolved``: the parent's interquartile range is wider than
      ``bound`` times its median, and not every change run beats every
      parent run;
    - ``same``: otherwise.
    """
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    if 10 * wins(parent, change, better) >= 9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        return "better"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    beats_all = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if q3 - q1 > bound * abs(p_med) and not beats_all:
        return "unresolved"
    return "same"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length; bench/run.py's default if unset")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            for cache in [p for root in (args.parent, args.change)
                          for p in root.rglob("__pycache__")]:
                shutil.rmtree(cache)
            runs[side].append(run(getattr(args, side), args.workload, args.seed, args.seconds))
        print(f"pair {i}: " + ", ".join(f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> "
                                        f"{runs['change'][-1][m['name']]:.4g}" for m in spec),
              file=sys.stderr)
    entry = {"pairs": args.pairs, "order": "odd pair index parent first, even change first"}
    for m in spec:
        name = m["name"]
        sides = {side: [r[name] for r in runs[side]] for side in runs}
        entry[name] = {side: summary(values) for side, values in sides.items()}
        entry[name]["change_better_in_pairs"] = wins(sides["parent"], sides["change"], m["better"])
        entry[name]["verdict"] = verdict(sides["parent"], sides["change"], m["better"], m["bound"])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("end_to_end", {})[f"{args.workload} seed {args.seed}"] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
