"""Benchmark of the turangood CLI: one workload, one seed, one run.

Usage, from the root of the repository:

    python3 bench/run.py --workload sweep --seed 1 --seconds 38 --trace 0

Each pass over the workload's op list runs in a fresh interpreter
(``child.py``), so the package's memo caches start empty as they do for a
user's CLI call.  Passes repeat while another one fits in ``--seconds``
(at least one).
Every op's output is checked (``checks.py``) outside the timed region, and
every op must print the same bytes in every pass.

``--trace 0`` prints the end-to-end metrics: medians over the passes.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (``spans.py``), with the tracing
overhead as traced minus untraced ``wall_s``.

The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Op results (stdout
sha256 per op, problems found) and, when traced, every span are written
to ``.bench_out/`` in the repository root.  Exits 2 without a result when
the package sources are not there or a pass process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import KNOWN_DEFECT_OP, WORKLOADS, build  # noqa: E402

MIN_SETUP_SAMPLES = 9
"""Fresh interpreters timed for setup_s per untraced run; empty probes top
up what the passes give."""

class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_pass(argvs: list[list[str]], trace: bool, spawn: bool) -> dict:
    """One pass in a fresh interpreter; returns its envelope (child.py)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py")],
        input=json.dumps({"ops": argvs, "trace": trace, "spawn": spawn, "t0": t0}),
        capture_output=True, text=True, env=_env(), check=False)
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_passes(ops: list[dict], passes: list[dict]) -> tuple[int, int, list[dict]]:
    """Check every op of every pass; an op whose stdout differs from its
    first pass fails too.  Returns (attempted, failed, per-op records)."""
    attempted = failed = 0
    records = []
    for i, op in enumerate(ops):
        digests, problems = [], []
        for env in passes:
            res = env["ops"][i]
            digest = _digest(res["stdout"])
            found = check(op, res)
            if digests and digest != digests[0]:
                found.append("stdout differs from the first pass")
            digests.append(digest)
            attempted += 1
            failed += bool(found)
            problems.extend(found)
        records.append({"argv": op["argv"], "rc": passes[0]["ops"][i]["rc"],
                        "stdout_sha256": digests[0], "problems": sorted(set(problems))})
    return attempted, failed, records


def end_to_end(passes: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(op["elapsed_s"] for p in passes for op in p["ops"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    per_pass = []
    for env in traced:
        m = layer_metrics(env["span_groups"], [op["elapsed_s"] for op in env["ops"]],
                          env["wall_s"])
        m["cli.stdout_bytes"] = sum(len(op["stdout"].encode()) for op in env["ops"])
        per_pass.append(m)
    # median_low: a value some pass measured, so counts stay whole numbers
    out = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def known_defect_probe() -> dict:
    """Run the known-failing op once, in a fresh interpreter, and report it."""
    res = run_pass([KNOWN_DEFECT_OP["argv"]], trace=False, spawn=False)["ops"][0]
    return {"argv": KNOWN_DEFECT_OP["argv"], "rc": res["rc"], "raised": res["raised"],
            "problems": check(KNOWN_DEFECT_OP, res)}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    ops = build(workload, seed)
    argvs = [op["argv"] for op in ops]
    spawn = workload == "cli-mix"
    untraced, traced, probes = [], [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        untraced.append(run_pass(argvs, False, spawn))
        if trace:
            traced.append(run_pass(argvs, True, spawn))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    passes = untraced + traced
    attempted, failed, records = check_passes(ops, passes)
    setups = [s for p in untraced for s in (p["op_setups_s"] or [p["setup_s"]])]
    if not trace:
        while len(setups) + len(probes) < MIN_SETUP_SAMPLES:
            probes.append(run_pass([], False, False)["setup_s"])
        metrics = end_to_end(untraced, setups + probes, attempted, failed)
    else:
        metrics = per_layer(traced, untraced)
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "passes": {"untraced": len(untraced), "traced": len(traced)},
              "ops": records, "setup_samples_s": setups + probes}
    probe = detail["known_defect_probe"] = known_defect_probe()
    if trace:
        metrics["cli.known_defect_fails"] = int(bool(probe["problems"]))
        detail["spans"] = [env["span_groups"] for env in traced]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}
    return result, detail


def _unit(name: str) -> str:
    """Units follow the metric's name suffix; bare counts have none."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "B"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "turangood" / "cli.py").is_file():
        print(f"bench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail))
    for rec in detail["ops"]:
        for problem in rec["problems"]:
            print(f"bench: FAIL {' '.join(rec['argv'])}: {problem}", file=sys.stderr)
    probe = detail["known_defect_probe"]
    print(f"bench: known-defect probe {' '.join(probe['argv'])}: exit {probe['rc']}"
          f" {probe['raised'] or ''}".rstrip(), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
