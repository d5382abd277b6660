"""One fresh interpreter of the benchmark: serves one pass over an op list.

Reads a job from stdin and prints one JSON envelope on stdout.  The job is
``{"ops": [argv, ...], "trace": bool, "spawn": bool, "t0": float}``, where
``t0`` is the parent's ``time.monotonic()`` just before it started this
process; ``setup_s`` is the time from then until ``turangood.cli`` is
imported, so it includes interpreter and numpy start-up.

With ``spawn`` false each op runs in this process through
``turangood.cli.run(argv)`` with stdout and stderr captured.  With
``spawn`` true each op gets a fresh interpreter of its own (this file
again, with one op and ``spawn`` false), one after another.

Usage (by the benchmark only): ``python3 bench/child.py < job.json``
"""

import time
import turangood.cli as cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def run_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as exc:  # an uncaught error: the CLI would exit 1
            raised = f"{type(exc).__name__}: {exc}"
            rc = 1
        elapsed = time.perf_counter() - start
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "raised": raised, "elapsed_s": elapsed}


def spawn_op(argv: list[str], trace: bool) -> tuple[dict, dict]:
    """Run one op in a fresh interpreter; return its op record and envelope."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        input=json.dumps({"ops": [argv], "trace": trace, "spawn": False, "t0": t0}),
        capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"op process exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = json.loads(proc.stdout)
    op = env["ops"][0]
    op["elapsed_s"] = elapsed
    return op, env


def main() -> None:
    job = json.loads(sys.stdin.read())
    setup_s = READY - job["t0"]
    tracer = None
    if job["trace"] and not job["spawn"]:
        tracer = Tracer()
        tracer.install()
    ops, setups, groups = [], [], []
    start = time.perf_counter()
    for argv in job["ops"]:
        if job["spawn"]:
            op, env = spawn_op(argv, job["trace"])
            setups.append(env["setup_s"])
            groups.extend(env["span_groups"])
        else:
            op = run_op(argv)
        ops.append(op)
    wall = time.perf_counter() - start
    if tracer is not None:
        groups.append(tracer.spans)
    usage = resource.RUSAGE_CHILDREN if job["spawn"] else resource.RUSAGE_SELF
    json.dump({
        "setup_s": setup_s,
        "op_setups_s": setups,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "ops": ops,
        "span_groups": groups,
    }, sys.stdout)


if __name__ == "__main__":
    main()
