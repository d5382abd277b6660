"""Command line front end.

Subcommands: count, verify, table.  Exit codes: 0 when everything
computed or verified, 1 when the most severe verdict among the reports
of ``verify`` is "counterexample", 2 on usage or parse errors, 3 on an
internal error of an engine (a failed self-check, an overflow guard,
running out of memory or of recursion depth), reported as "turangood:
internal error: ..." on stderr with no traceback.  New verdicts go in
``verify.VERDICTS``, new claims with their builders in ``CLAIMS``.  Machine
formats (json, csv) are the contract; human output mirrors the JSON
fields one per line, except that ``table --format human`` prints CSV.

Every command builds its result once, as JSON objects, CSV rows under
one header and human blocks, and ``_write`` alone prints it in the
chosen format.  When the reader of stdout has gone (a closed pipe, as
in ``| head -1``), the rest of the output is dropped without a
traceback and the command keeps its exit code.

Defaults for --format, --workers, --cap and --witnesses can be set via
the TURANGOOD_FORMAT, TURANGOOD_WORKERS, TURANGOOD_CAP and
TURANGOOD_WITNESSES environment variables.  FORMAT applies to every
command; WORKERS, CAP and WITNESSES apply to ``verify`` only and are
ignored by the others.  An invalid value exits 2 in the commands it
applies to.  --workers (TURANGOOD_WORKERS) is kept so that old command
lines still run: it is validated here and then ignored, since the
exhaustive scan runs on one thread and the library takes no worker
count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from collections.abc import Iterator
from functools import lru_cache, partial

from .forest import LinearForest, aut_order, copies_from_injective_homs, delete_isolated
from .multipartite import PartSizes, count_copies_turan, count_injective_homs, turan_parts
from .oracle import EXHAUSTIVE_CAP_DEFAULT, WITNESS_CAP_DEFAULT, _check_memory
from . import verify as verify_mod

ENV_PREFIX = "TURANGOOD_"
FORMATS = ("human", "json", "csv")
ENV_NAMES = ("FORMAT", "CAP", "WORKERS", "WITNESSES")
"""The environment defaults that ``build_parser`` reads."""


def _env_default(name: str, fallback):
    return os.environ.get(ENV_PREFIX + name, fallback)


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range "a..b"; a single value "a" means a..a."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _parse_turan(text: str) -> PartSizes:
    """Turan shorthand "n/k", e.g. "10/3"."""
    try:
        n_s, k_s = text.split("/", 1)
        n, k = int(n_s), int(k_s)
    except ValueError:
        raise ValueError(f"invalid Turan shorthand {text!r}; expected n/k") from None
    return turan_parts(n, k)


def _write(fmt: str, objs, header: list[str], rows: list[list],
           blocks: list[str] | None = None) -> None:
    """Print one result in ``fmt``: ``objs`` as indented JSON, ``rows``
    under ``header`` as CSV, or the human ``blocks`` separated by a
    blank line (CSV when there are none), in one write and one flush."""
    if fmt == "json":
        text = json.dumps(objs, indent=2, sort_keys=True)
    elif fmt == "csv" or blocks is None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n\n".join(blocks)
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the flush at exit must not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_count(args: argparse.Namespace) -> int:
    forest = args.forest
    parts = args.parts
    inj = count_injective_homs(forest, parts)
    aut = aut_order(forest)
    header = ["forest", "parts", "injective_homs", "aut", "copies"]
    row = [str(forest), ",".join(map(str, parts.canonical)), inj, aut,
           copies_from_injective_homs(inj, aut)]
    _write(args.format, dict(zip(header, row), parts=list(parts.canonical)), header, [row],
           ["\n".join(f"{key}: {val}" for key, val in zip(header, row))])
    return 0


# Bytes a request holds until it prints (its result as objects, JSON
# text, CSV rows and human blocks): per (n, k) pair, and per int a report
# lists (a part of a ``verify`` host, an n of an identity window).  Peak
# RSS, JSON, in a fresh interpreter: table 1.3 KB a pair; conjecture
# 2.7 KB at n = 3; multipartite-max 3.5, 4.2, 6.2 and 7.9 KB at n = 3, 12,
# 24 and 36; an identity window 148 and 167 bytes an n at 10^5 and 10^6 n.
_PAIR_BYTES = 4096
_ITEM_BYTES = 256


def _grid(args: argparse.Namespace) -> Iterator[tuple[int, int]]:
    """The (n, k) pairs of --n x --k, k outer.  A k < 1, a missing --n or
    --k, and a grid whose results would not fit in the memory available
    now are refused here, in that order, before anything is counted."""
    if args.k is not None and args.k[0] < 1:
        raise ValueError(f"k must be >= 1, got {args.k[0]}")
    if args.n is None or args.k is None:
        raise ValueError(f"{args.claim} needs --n and --k")
    (n_lo, n_hi), (k_lo, k_hi) = args.n, args.k
    pairs = (n_hi - n_lo + 1) * (k_hi - k_lo + 1)
    parts = max(min(n_hi, k_hi), 0) if args.subcommand == "verify" else 0
    _check_memory(pairs * (_PAIR_BYTES + _ITEM_BYTES * parts), f"{pairs} (n, k) pairs need",
                  "results")
    return ((n, k) for k in range(k_lo, k_hi + 1) for n in range(n_lo, n_hi + 1))


def _balance(args: argparse.Namespace) -> list:
    if args.parts is None:
        raise ValueError("balance needs --parts")
    return [verify_mod.verify_balancing_monotone(args.forest, args.parts)]


def _isolated(args: argparse.Namespace) -> list:
    delete_isolated(args.forest)  # refuses a forest without a P1 before the window is sized
    return [verify_mod.verify_isolated_identity(args.forest, _n_window(args))]


def _n_window(args: argparse.Namespace, reports: int = 1) -> range:
    """The n of an identity sweep, which each report lists: refused before
    anything is counted when the lists would not fit in memory now."""
    v = args.forest.total_vertices
    lo, hi = args.n or (v, v + 4)  # default window [|V(H)|, |V(H)| + 4]
    _check_memory((hi - lo + 1) * reports * _ITEM_BYTES, f"{hi - lo + 1} n values need",
                  "results")
    return range(lo, hi + 1)


def _identity(parity: int, verifier: str, args: argparse.Namespace) -> list:
    """One report per component order c > 1 with c % 2 == parity."""
    orders = sorted({c for c in args.forest.components if c % 2 == parity and c > 1})
    if not orders:
        raise ValueError(f"forest {args.forest} has no "
                         + ("odd component of order >= 3" if parity else "even component"))
    n_range = _n_window(args, len(orders))
    return [getattr(verify_mod, verifier)(args.forest, order, n_range) for order in orders]


# Each claim, in ``verify -h`` order, and the builder of its reports (which looks
# its verifier up on verify_mod on call; those that read --k use ``_grid``)
CLAIMS = {
    "multipartite-max": lambda args: [
        verify_mod.verify_multipartite_max(args.forest, n, k) for n, k in _grid(args)],
    "balance": _balance,
    "odd-identity": partial(_identity, 1, "verify_odd_extension_identity"),
    "even-identity": partial(_identity, 0, "verify_even_extension_identity"),
    "isolated-identity": _isolated,
    "conjecture": lambda args: [
        verify_mod.verify_conjecture(args.forest, n, k, ks=range(args.k[0], args.k[1] + 1),
                                     cap=args.cap, witness_cap=args.witnesses)
        for n, k in _grid(args)],
}


def cmd_verify(args: argparse.Namespace) -> int:
    reports = CLAIMS[args.claim](args)
    dicts = [r.to_json_dict() for r in reports]
    rows, blocks = [], []
    for d in dicts:
        params = json.dumps(d["params"], sort_keys=True)
        found = (json.dumps(d["counterexample"], sort_keys=True)
                 if "counterexample" in d else "")
        rows.append([d["claim"], params, d["verdict"], d["instances_checked"], found])
        lines = [f"claim: {d['claim']}", f"params: {params}", f"verdict: {d['verdict']}",
                 f"maximizers: {json.dumps(d['maximizers'])}",
                 f"instances_checked: {d['instances_checked']}"]
        if "ratio" in d:
            lines.append(f"ratio: {d['ratio']}")
        if found:
            lines.append(f"counterexample: {found}")
        blocks.append("\n".join(lines))
    _write(args.format, dicts,
           ["claim", "params", "verdict", "instances_checked", "counterexample"], rows, blocks)
    return max((verify_mod.VERDICTS[r.verdict] for r in reports), default=0)


def cmd_table(args: argparse.Namespace) -> int:
    forest = args.forest
    header = ["n", "k", "forest", "count"]
    rows = [[n, k, str(forest), count_copies_turan(forest, n, k)] for n, k in _grid(args)]
    _write(args.format, [dict(zip(header, row)) for row in rows], header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turangood",
        description="Exact linear-forest copy counts in complete multipartite "
                    "graphs and exhaustive extremal verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, host: bool = False) -> None:
        p.add_argument("--forest", required=True,
                       help="component orders, e.g. 5,3,1")
        p.add_argument("--format", choices=FORMATS,
                       default=_env_default("FORMAT", "human"))
        if host:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--parts", help="part sizes, e.g. 2,3")
            group.add_argument("--turan", help="Turan shorthand n/k, e.g. 10/3")

    p_count = sub.add_parser("count", help="copy count in one host graph")
    add_common(p_count, host=True)

    p_verify = sub.add_parser("verify", help="machine-check a claim")
    p_verify.add_argument("claim", choices=CLAIMS)
    add_common(p_verify)
    p_verify.add_argument("--parts", help="part sizes (balance claim)")
    p_verify.add_argument("--n", help="n value or inclusive range a..b")
    p_verify.add_argument("--k", help="k value or inclusive range a..b")
    p_verify.add_argument("--cap", type=int,
                          default=_env_default("CAP", EXHAUSTIVE_CAP_DEFAULT),
                          help="exhaustive search cap on n (hard limit 8)")
    p_verify.add_argument("--workers", type=int,
                          default=_env_default("WORKERS", None),
                          help="accepted for compatibility; has no effect")
    p_verify.add_argument("--witnesses", type=int,
                          default=_env_default("WITNESSES", WITNESS_CAP_DEFAULT),
                          help="maximum witnesses kept per counterexample")

    p_table = sub.add_parser("table", help="Turan-graph counts over an n range")
    add_common(p_table)
    p_table.add_argument("--n", required=True, help="n value or inclusive range a..b")
    p_table.add_argument("--k", required=True, help="k value or inclusive range a..b")
    return parser


@lru_cache(maxsize=1)
def _parser(env: tuple) -> argparse.ArgumentParser:
    """``build_parser()``, built once per process while ``env``, the values
    of the ENV_NAMES variables it reads, stays the same."""
    return build_parser()


def _parse_values(args: argparse.Namespace) -> None:
    """Replace each option's text on the namespace with its parsed value.
    The order fixes which error is reported first."""
    if args.format not in FORMATS:  # argparse checks choices on argv only
        raise ValueError(f"{ENV_PREFIX}FORMAT must be one of {', '.join(FORMATS)}, "
                         f"got {args.format!r}")
    args.forest = LinearForest.parse(args.forest)
    if args.subcommand == "count":
        args.parts = (_parse_turan(args.turan) if args.turan is not None
                      else PartSizes.parse(args.parts))
        return
    verify = args.subcommand == "verify"
    if verify and args.parts is not None:
        args.parts = PartSizes.parse(args.parts)
    if args.n is not None:
        args.n = _parse_range(args.n)
    if args.k is not None:
        args.k = _parse_range(args.k)
    if verify and args.workers is not None and args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")


@contextlib.contextmanager
def _full_decimal():
    """Lift Python's int-to-str digit limit while a command prints its
    counts, which are exact and may have more than 4300 digits.  Parsing
    argv happens outside, under the limit."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters that predate the limit
        yield
        return
    old = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def run(argv: list[str] | None = None) -> int:
    try:
        env = tuple(os.environ.get(ENV_PREFIX + name) for name in ENV_NAMES)
        args = _parser(env).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"turangood: error: {exc}", file=sys.stderr)
        return 2
    try:
        _parse_values(args)
        with _full_decimal():
            if args.subcommand == "count":
                return cmd_count(args)
            if args.subcommand == "verify":
                return cmd_verify(args)
            return cmd_table(args)
    except ValueError as exc:
        print(f"turangood: error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError, MemoryError) as exc:  # RecursionError too
        print(f"turangood: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
