"""Checks that need a fresh interpreter: the ``python -m`` entry points,
which modules start-up loads (numpy belongs to the exhaustive array
engine alone, so only ``verify conjecture`` from n = 7 on may import
it; fractions to the two ratio verifiers), the benchmark's tracer, and
how many count arrays a process keeps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turangood
from turangood import LinearForest, extremal_search
from turangood.cli import run

SRC = str(Path(turangood.__file__).resolve().parents[1])
BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          stdout=stdout, stderr=subprocess.PIPE, check=False, timeout=120)


def modules_added(*argvs: list[str]) -> list[set[str]]:
    """Import the CLI, then run each argv through cli.run; return the
    modules each step added to sys.modules, the import first.  Modules
    that the interpreter's start-up (``site``) preloads do not count."""
    code = ("import contextlib, io, json, sys\n"
            "seen = set(sys.modules)\n"
            "def added():\n"
            "    new = sorted(set(sys.modules) - seen)\n"
            "    seen.update(new)\n"
            "    return new\n"
            "import turangood, turangood.cli as cli\n"
            "steps = [added()]\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run(argv) == 0, argv\n"
            "    steps.append(added())\n"
            "print(json.dumps(steps))\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    return [set(step) for step in json.loads(proc.stdout)]


class TestEntryPoints:
    ARGV = ["count", "--forest", "3", "--parts", "2,3", "--format", "json"]

    @pytest.mark.parametrize("module", ["turangood", "turangood.cli"])
    def test_prints_what_run_prints(self, module, capsys):
        assert run(self.ARGV) == 0
        expected = capsys.readouterr().out.encode()
        proc = python("-m", module, *self.ARGV)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == expected

    @pytest.mark.parametrize("module", ["turangood", "turangood.cli"])
    def test_usage_error_exits_2(self, module):
        proc = python("-m", module, "count", "--parts", "2,3")
        assert proc.returncode == 2
        assert b"--forest" in proc.stderr


class TestClosedStdout:
    """A reader that has gone (``| head -1``) costs the rest of the output,
    not a traceback or the exit code of a counterexample."""

    # a stand-in verifier, so that a counterexample exists
    FAKE = ["from turangood import VerificationReport, verify",
            "verify.verify_conjecture = lambda *a, **kw: VerificationReport(",
            "    'conjecture', {}, 'counterexample', counterexample={}, instances_checked=1)"]

    @pytest.mark.parametrize("argv, code", [
        (["count", "--forest", "3", "--parts", "2,3"], 0),
        (["table", "--forest", "2", "--k", "2", "--n", "1..6", "--format", "json"], 0),
        (["verify", "multipartite-max", "--forest", "3,2", "--n", "8", "--k", "3"], 0),
        (["verify", "odd-identity", "--forest", "5,3", "--n", "8..10", "--format", "csv"], 0),
        (["verify", "conjecture", "--forest", "3", "--n", "5", "--k", "2"], 1),
    ], ids=["count", "table", "multipartite-max", "odd-identity", "counterexample"])
    def test_exit_code_kept_without_traceback(self, argv, code):
        lines = [*(self.FAKE if code else []), "from turangood import cli",
                 f"raise SystemExit(cli.run({argv!r}))"]
        read, write = os.pipe()
        os.close(read)
        try:
            proc = python("-c", "\n".join(lines), stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr.decode()) == (code, "")


class TestStartupImports:
    def test_import_leaves_numpy_unloaded(self):
        assert "numpy" not in modules_added()[0]

    def test_import_leaves_heavy_stdlib_unloaded(self):
        # dataclasses pulls in inspect (and ast, dis, tokenize); fractions
        # pulls in decimal; numpy belongs to the array engine
        heavy = {"dataclasses", "inspect", "fractions", "decimal", "numpy"}
        [imported] = modules_added()
        assert not heavy & imported

    @pytest.mark.parametrize("argv", [
        ["count", "--forest", "3,1", "--parts", "2,3"],
        ["table", "--forest", "2", "--k", "2", "--n", "1..6"],
        ["verify", "multipartite-max", "--forest", "3,2", "--n", "8", "--k", "3"],
        ["verify", "balance", "--forest", "3", "--parts", "1,4"],
        ["verify", "odd-identity", "--forest", "5,3", "--n", "8..10"],
        ["verify", "even-identity", "--forest", "4,2"],
        ["verify", "isolated-identity", "--forest", "3,1", "--n", "4..6"],
        ["verify", "conjecture", "--forest", "3,2", "--n", "5..6", "--k", "2..3"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_commands_without_arrays_leave_numpy_unloaded(self, argv):
        loaded = set().union(*modules_added(argv))
        assert "numpy" not in loaded
        # only the odd and even identities compare ratios as fractions
        if argv[1] not in ("odd-identity", "even-identity"):
            assert "fractions" not in loaded

    def test_reference_counter_leaves_numpy_unloaded(self):
        # the reference counter runs on Python ints at every n, also
        # where the exhaustive engine would load numpy
        code = ("import sys\n"
                "from turangood import (LinearForest, count_copies, count_copies_explicit,\n"
                "                       explicit_multipartite)\n"
                "for n in range(7, 11):\n"
                "    for parts in [(n // 2, n - n // 2), (2, 2, n - 4)]:\n"
                "        forest = LinearForest((4, 3))\n"
                "        got = count_copies_explicit(forest, explicit_multipartite(parts))\n"
                "        assert got == count_copies(forest, parts) > 0, (n, parts)\n"
                "print('numpy' in sys.modules)\n")
        proc = python("-c", code)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"False\n"

    def test_conjecture_loads_numpy(self):
        argv = ["verify", "conjecture", "--forest", "3", "--n", "7", "--k", "2"]
        assert "numpy" in modules_added(argv)[1]

    def test_conjecture_leaves_numpy_ma_unloaded(self):
        # a plain np.unique imports numpy.ma on numpy 2.4
        argv = ["verify", "conjecture", "--forest", "3,2", "--n", "7", "--k", "2..3"]
        loaded = modules_added(argv)[1]
        assert "numpy" in loaded
        assert "numpy.ma" not in loaded


class TestTracedRuns:
    """``bench/spans.py`` rebinds engine functions to plain wrappers; the
    CLI must print the same bytes with them in place."""

    @pytest.mark.parametrize("argv", [
        # n = 6 runs on lanes, n = 7 on the traced array stages
        ["verify", "conjecture", "--forest", "3,1", "--n", "6..7", "--k", "2..3"],
        ["verify", "multipartite-max", "--forest", "3,2", "--n", "8", "--k", "3"],
    ], ids=lambda argv: argv[1])
    def test_tracer_keeps_output(self, argv):
        def cli(traced: bool) -> subprocess.CompletedProcess:
            lines = ["import sys", "from turangood import cli"]
            if traced:
                lines += [f"sys.path.insert(0, {BENCH!r})", "from spans import Tracer",
                          "tracer = Tracer()", "tracer.install()"]
            lines += [f"rc = cli.run({argv!r})", "sys.stdout.flush()"]
            if traced:
                lines.append("print(len(tracer.spans), file=sys.stderr)")
            return python("-c", "\n".join(lines + ["sys.exit(rc)"]))

        plain, traced = cli(False), cli(True)
        assert plain.returncode == 0, plain.stderr.decode()
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
        assert int(traced.stderr.decode().split()[-1]) > 0

    def test_self_check_is_traced(self):
        # the reference counts of the Turan graph and of every witness,
        # and the clique check of every witness, are spans of the search
        argv = ["verify", "conjecture", "--forest", "3,1", "--n", "7", "--k", "2"]
        code = "\n".join([
            "import contextlib, io, json, sys, time",
            f"sys.path.insert(0, {BENCH!r})",
            "from spans import ID, NAME, PARENT, Tracer, layer_metrics",
            "from turangood import cli",
            "tracer = Tracer()",
            "tracer.install()",
            "start = time.perf_counter()",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    rc = cli.run({argv!r})",
            "wall = time.perf_counter() - start",
            "names = {s[ID]: s[NAME] for s in tracer.spans}",
            "parents = {}",
            "for s in tracer.spans:",
            "    parents.setdefault(s[NAME], set()).add(names.get(s[PARENT]))",
            "print(json.dumps({'rc': rc, 'metrics': layer_metrics([tracer.spans], [wall], wall),",
            "                  'parents': {k: sorted(map(str, v)) for k, v in parents.items()}}))",
        ])
        proc = python("-c", code)
        assert proc.returncode == 0, proc.stderr.decode()
        out = json.loads(proc.stdout)
        metrics, parents = out["metrics"], out["parents"]
        assert out["rc"] == 0
        witnesses = extremal_search(LinearForest((3, 1)), 7, 2).witnesses
        assert metrics["oracle.turan_ref_s"] > 0
        assert metrics["oracle.witness_checks"] == 2 * len(witnesses) > 0
        search = "oracle.extremal_search"
        assert parents["oracle.count_copies_explicit"] == [search]
        assert parents["oracle.is_clique_free"] == [search]
        # the Turan count calls the injective counter once more, inside it
        assert parents["oracle.count_injective_homs_explicit"] == sorted(
            [search, "oracle.count_copies_explicit"])


def test_one_count_array_outlives_searches():
    code = ("import gc\n"
            "import numpy as np\n"
            "from turangood import LinearForest, extremal_search\n"
            "for comps in [(3,), (2, 2), (3, 1), (4,), (2,), (5,)]:\n"
            "    extremal_search(LinearForest(comps), 7, 2)\n"
            "gc.collect()\n"
            "# arrays are not gc-tracked; find them among what tracked objects hold\n"
            "live = {id(o) for r in gc.get_objects() for o in (r, *gc.get_referents(r))\n"
            "        if isinstance(o, np.ndarray) and o.dtype == np.uint16 and o.size == 1 << 21}\n"
            "print(len(live))\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert int(proc.stdout) <= 1


def test_one_array_of_each_kind_while_holding_one():
    # from oracle._HOLD_ONE_N on each array cache drops its entry before it
    # builds the next; lowered to n = 7 here so the check stays small
    specs = [((3,), 2), ((3,), 3), ((3,), 4), ((3, 1), 3), ((2, 2), 2), ((2, 2), 4)]
    code = ("import gc, json, tracemalloc\n"
            "import numpy as np\n"
            "from turangood import LinearForest, extremal_search, oracle\n"
            "oracle._HOLD_ONE_N = 7\n"
            "tracemalloc.start()\n"
            f"found = [extremal_search(LinearForest(c), 7, k) for c, k in {specs!r}]\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "tracemalloc.stop()\n"
            "gc.collect()\n"
            "# arrays are not gc-tracked; find them among what tracked objects hold\n"
            "live = {id(o): o.dtype.name for r in gc.get_objects()\n"
            "        for o in (r, *gc.get_referents(r))\n"
            "        if isinstance(o, np.ndarray) and o.size == 1 << 21}\n"
            "print(json.dumps({'peak': peak, 'need': oracle._peak_bytes(7),\n"
            "                  'live': sorted(live.values()),\n"
            "                  'found': [repr(r) for r in found]}))\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout)
    assert out["peak"] <= out["need"]
    assert out["live"] in ([], ["bool"], ["uint16"], ["bool", "uint16"])
    assert out["found"] == [repr(extremal_search(LinearForest(c), 7, k)) for c, k in specs]


@pytest.mark.parametrize("n", [4, 7])  # either side of oracle._SMALL_N
def test_self_check_holds_under_optimize(n):
    # the engine's self-check raises, not asserts: under python -O a scan
    # whose maximum the reference counter does not confirm still exits 3
    code = ("import sys\n"
            "from turangood import oracle\n"
            "from turangood.cli import run\n"
            f"best, masks = oracle._core_search({n}, (2,), 2, 10)\n"
            "oracle._core_search = lambda n, core, k, cap: (best + 2, masks)\n"
            "print(masks[0], flush=True)\n"
            f"sys.exit(run(['verify', 'conjecture', '--forest', '2', '--n', '{n}', '--k', '2']))\n")
    proc = python("-O", "-c", code)
    mask = int(proc.stdout)
    assert proc.returncode == 3, proc.stderr.decode()
    assert proc.stderr.decode() == ("turangood: internal error: RuntimeError: "
                                    f"scan self-check failed on mask {mask}\n")
