"""Output checks for benchmark ops, from facts the benchmark derives itself.

Every op carries an ``expect`` dict built with the op (``workloads.py``);
``check`` compares a captured result with it and returns the problems it
finds, an empty list when the op passed.  Expected values come from
closed forms and counting identities computed here, never from the
package under test.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from math import comb, factorial


# ---------------------------------------------------------------------------
# Independent facts
# ---------------------------------------------------------------------------

def aut(comps) -> int:
    """Automorphisms of a linear forest: each path of order >= 2 reverses,
    equal paths permute."""
    out = 2 ** sum(1 for c in comps if c >= 2)
    for mult in Counter(comps).values():
        out *= factorial(mult)
    return out


def canonical(sizes) -> list[int]:
    return sorted((s for s in sizes if s > 0), reverse=True)


def turan(n: int, k: int) -> list[int]:
    q, r = divmod(n, k)
    return canonical([q + 1] * r + [q] * (k - r))


def partition_count(n: int, k: int) -> int:
    """Partitions of n into at most k positive parts."""
    table = [[1] + [0] * n for _ in range(k + 1)]
    for j in range(1, k + 1):
        for m in range(1, n + 1):
            table[j][m] = table[j - 1][m] + (table[j][m - j] if m >= j else 0)
    return table[k][n]


def closed_copies(comps, sizes) -> int | None:
    """Copies of the forest in the complete multipartite host, where a
    closed form is known; None otherwise."""
    comps = sorted(comps, reverse=True)
    sizes = canonical(sizes)
    n = sum(sizes)
    if all(c == 1 for c in comps):
        return comb(n, len(comps))
    if comps == [2]:
        return (n * n - sum(s * s for s in sizes)) // 2
    if comps == [3]:
        return sum(s * comb(n - s, 2) for s in sizes)
    if len(comps) == 1 and len(sizes) == 2:
        m = comps[0]
        a = m // 2
        if m % 2 == 0 and sizes == [a, a]:
            return factorial(a) ** 2
        if m % 2 == 1 and sizes == [a + 1, a]:
            return factorial(a + 1) * factorial(a) // 2
    return None


# ---------------------------------------------------------------------------
# Parsing the three output formats
# ---------------------------------------------------------------------------

def _key_values(block: str) -> dict:
    return dict(line.split(": ", 1) for line in block.splitlines() if line)


def _parse_count(fmt: str, text: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(text)))
        rec = dict(zip(header, row))
    else:
        rec = _key_values(text)
    rec["parts"] = [int(x) for x in rec["parts"].split(",")]
    for key in ("injective_homs", "aut", "copies"):
        rec[key] = int(rec[key])
    return rec


def _parse_reports(fmt: str, text: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return [{"claim": r["claim"], "params": json.loads(r["params"]),
                 "verdict": r["verdict"], "instances_checked": int(r["instances_checked"])}
                for r in rows]
    reports = []
    for block in text.strip("\n").split("\n\n"):
        rec = _key_values(block)
        rec["params"] = json.loads(rec["params"])
        rec["maximizers"] = json.loads(rec["maximizers"])
        rec["instances_checked"] = int(rec["instances_checked"])
        reports.append(rec)
    return reports


def _parse_table(fmt: str, text: str) -> list[list]:
    if fmt == "json":
        return [[r["n"], r["k"], r["forest"], r["count"]] for r in json.loads(text)]
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [[int(n), int(k), f, int(c)] for n, k, f, c in rows]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _check_count(exp: dict, text: str) -> list[str]:
    rec = _parse_count(exp["fmt"], text)
    bad = []
    for key in ("forest", "parts", "aut"):
        if rec[key] != exp[key]:
            bad.append(f"{key} {rec[key]!r} != {exp[key]!r}")
    if rec["injective_homs"] != rec["copies"] * rec["aut"]:
        bad.append("injective_homs != copies * aut")
    if exp["copies"] is not None and rec["copies"] != exp["copies"]:
        bad.append(f"copies differ from the closed form {exp['copies']}")
    return bad


def _check_reports(exp: dict, text: str) -> list[str]:
    reports = _parse_reports(exp["fmt"], text)
    want = exp["reports"]
    if len(reports) != len(want):
        return [f"{len(reports)} reports, expected {len(want)}"]
    bad = []
    for rep, w in zip(reports, want):
        if rep["claim"] != w["claim"] or rep["verdict"] != "holds":
            bad.append(f"{rep['claim']} verdict {rep['verdict']}")
        for key, val in w["params"].items():
            if rep["params"].get(key) != val:
                bad.append(f"param {key} {rep['params'].get(key)!r} != {val!r}")
        if w["instances"] is not None and rep["instances_checked"] != w["instances"]:
            bad.append(f"instances_checked {rep['instances_checked']} != {w['instances']}")
        if w["maximizer"] is not None and "maximizers" in rep \
                and w["maximizer"] not in rep["maximizers"]:
            bad.append(f"Turan parts {w['maximizer']} not among the maximizers")
    return bad


def _check_table(exp: dict, text: str) -> list[str]:
    rows = _parse_table(exp["fmt"], text)
    want = exp["rows"]
    if [r[:3] for r in rows] != [w[:3] for w in want]:
        return ["table rows differ from the requested n x k grid"]
    return [f"count at n={w[0]} k={w[1]}: {r[3]} != closed form {w[3]}"
            for r, w in zip(rows, want) if w[3] is not None and r[3] != w[3]]


CHECKERS = {"count": _check_count, "verify": _check_reports, "table": _check_table}


def check(op: dict, result: dict) -> list[str]:
    """Problems with one op's captured result; empty when it passed."""
    exp = op["expect"]
    if result["raised"] is not None or "Traceback" in result["stderr"]:
        return [f"traceback leaked: {result['raised'] or result['stderr'][-200:]}"]
    if result["rc"] != exp["rc"]:
        return [f"exit code {result['rc']}, expected {exp['rc']}"]
    if exp["rc"] == 2:
        ok = result["stdout"] == "" and "error" in result["stderr"]
        return [] if ok else ["usage error without an error message, or with stdout"]
    try:
        return CHECKERS[exp["kind"]](exp, result["stdout"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable {exp['fmt']} output: {exc!r}"]
