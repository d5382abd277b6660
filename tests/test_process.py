"""Checks that need a fresh interpreter: the ``python -m`` entry points,
which modules start-up loads (numpy belongs to the exhaustive array
engine alone, so only ``verify conjecture`` from n = 7 on may import
it; fractions to the two ratio verifiers), the benchmark's tracer, and
how many count arrays a process keeps."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import turangood
from turangood import LinearForest, extremal_search, oracle
from turangood.cli import run

SRC = str(Path(turangood.__file__).resolve().parents[1])
BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def python(*args: str, stdout=subprocess.PIPE, cwd=None, env=None) -> subprocess.CompletedProcess:
    """Run the interpreter on args with SRC on its path, in ``env`` (the
    caller's environment by default)."""
    env = os.environ if env is None else env
    path = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**env, "PYTHONPATH": path},
                          stdout=stdout, stderr=subprocess.PIPE, check=False, timeout=120,
                          cwd=cwd)


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
    BLAS_ARGV = ["verify", "conjecture", "--forest", "3", "--n", "7", "--k", "2"]

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

    # the variables are cleared first, so each case sets only its own
    @pytest.mark.parametrize("given, first", [
        ({}, False), ({"OPENBLAS_NUM_THREADS": "2"}, False), ({"OMP_NUM_THREADS": "2"}, False),
        ({}, True),
    ], ids=["default", "openblas-2", "omp-2", "numpy-first"])
    def test_engine_loads_numpy_without_a_blas_worker(self, capsys, given, first):
        """The engine imports numpy with one OpenBLAS thread unless the
        caller chose a count or imported numpy first, and leaves the
        caller's environment as it was."""
        env = {k: v for k, v in os.environ.items() if k not in oracle._BLAS_THREADS} | given
        threads = ("import json, os, sys\n"
                   "def threads():\n"
                   "    try:\n"
                   "        return len(os.listdir('/proc/self/task'))\n"
                   "    except OSError:\n"
                   "        return None\n")
        # the threads of a process that imported numpy and nothing else
        own = python("-c", threads + "import numpy\nprint(threads())", env=env)
        assert own.returncode == 0, own.stderr.decode()
        code = (threads + ("import numpy\n" if first else "")
                + "from turangood import cli\n"
                f"assert cli.run({self.BLAS_ARGV!r}) == 0\n"
                "blas = {k: os.environ.get(k) for k in "
                f"{oracle._BLAS_THREADS!r}}}\n"
                "print(json.dumps([threads(), blas]), file=sys.stderr)\n")
        proc = python("-c", code, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        count, blas = json.loads(proc.stderr.decode().splitlines()[-1])
        assert blas == {k: given.get(k) for k in oracle._BLAS_THREADS}
        assert run(self.BLAS_ARGV) == 0
        assert proc.stdout == capsys.readouterr().out.encode()
        if count is None:
            pytest.skip("/proc/self/task is unreadable")
        assert count == (json.loads(own.stdout) if given or first else 1)

    def test_numpy_is_imported_only_by_the_loader(self):
        # every array stage gets numpy from oracle._numpy, so none can
        # start OpenBLAS's worker by importing numpy itself
        tree = ast.parse(Path(oracle.__file__).read_text())
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"
                    or isinstance(node, ast.FunctionDef) and node.name == "_numpy"):
                allowed.update(map(id, ast.walk(node)))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   and any(a.name.split(".")[0] == "numpy" for a in node.names)
                   or isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "numpy"]
        assert imports
        assert [node.lineno for node in imports if id(node) not in allowed] == []


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

    def test_array_builds_and_survivors_are_booked_once(self):
        # the lower half of the counts (2^20 uint16) is booked as built,
        # and the clique-free masks of each selection once.  Each k
        # selects the six rows of 2^15 masks, then shards of 2^17 up to
        # the one that holds its 10th witness: for k = 2, 17,284
        # triangle-free masks on the rows and 87,580 in 7 shards; for
        # k = 3, 140,144 K_4-free masks on the rows and 804,472 in 8
        argv = ["verify", "conjecture", "--forest", "3", "--n", "7", "--k", "2..3"]
        code = "\n".join([
            "import contextlib, io, json, sys",
            f"sys.path.insert(0, {BENCH!r})",
            "from spans import Tracer, layer_metrics",
            "from turangood import cli",
            "tracer = Tracer()",
            "tracer.install()",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    rc = cli.run({argv!r})",
            "print(json.dumps({'rc': rc, 'metrics': layer_metrics([tracer.spans], [1.0], 1.0)}))",
        ])
        proc = python("-c", code)
        assert proc.returncode == 0, proc.stderr.decode()
        out = json.loads(proc.stdout)
        assert out["rc"] == 0
        assert out["metrics"]["oracle.array_bytes"] == 2 << 20
        assert out["metrics"]["oracle.survivor_ratio"] == (
            (17_284 + 87_580 + 140_144 + 804_472) / (12 * (1 << 15) + 15 * (1 << 17)))

    def test_one_pass_selects_each_k_and_shard_once(self):
        # the search for k = 2 builds the lower half of the counts once,
        # selects its six rows for k = 2, 3 and 4, and then each shard
        # once for each k that lacks witnesses: 7 shards for k = 2 and 8
        # for k = 3 and 4, all in the lower half; those for k = 3 and 4
        # read the batch.  As above, and for k = 4 193,190 K_5-free masks
        # on the rows and 1,038,902 in 8 shards
        argv = ["verify", "conjecture", "--forest", "3", "--n", "7", "--k", "2..4"]
        code = "\n".join([
            "import contextlib, io, json, sys",
            f"sys.path.insert(0, {BENCH!r})",
            "from spans import NAME, Tracer, layer_metrics",
            "from turangood import cli, oracle",
            "tracer = Tracer()",
            "tracer.install()",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    rc = cli.run({argv!r})",
            "names = [s[NAME] for s in tracer.spans]",
            "print(json.dumps({'rc': rc, 'metrics': layer_metrics([tracer.spans], [1.0], 1.0),",
            "                  'shard': oracle._SHARD_SIZE,",
            "                  'builds': names.count('oracle._inj_counts_all_graphs'),",
            "                  'selections': names.count('oracle._clique_free_selector')}))",
        ])
        proc = python("-c", code)
        assert proc.returncode == 0, proc.stderr.decode()
        out = json.loads(proc.stdout)
        assert out["rc"] == 0
        assert out["builds"] == 1
        assert out["shard"] == 1 << 17
        assert out["selections"] == 3 * 6 + 7 + 8 + 8
        assert out["metrics"]["oracle.array_bytes"] == 2 << 20
        assert out["metrics"]["oracle.survivor_ratio"] == (
            (17_284 + 87_580 + 140_144 + 804_472 + 193_190 + 1_038_902)
            / (18 * (1 << 15) + 23 * (1 << 17)))


def test_no_count_array_outlives_searches():
    code = ("import gc\n"
            "import numpy as np\n"
            "from turangood import LinearForest, extremal_search\n"
            "for comps in [(3,), (2, 2), (3, 1), (4,), (2,), (5,)]:\n"
            "    extremal_search(LinearForest(comps), 7, 2)\n"
            "gc.collect()\n"
            "# arrays are not gc-tracked; find them among what tracked objects hold\n"
            "live = {id(o) for r in gc.get_objects() for o in (r, *gc.get_referents(r))\n"
            "        if isinstance(o, np.ndarray) and o.dtype == np.uint16\n"
            "        and o.size in (1 << 20, 1 << 21)}\n"
            "print(len(live))\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert int(proc.stdout) == 0


def test_one_array_of_each_kind_while_holding_one():
    # no count array outlives its search, and only the clique numbers of
    # the latest n are kept, so one 2^21-entry array is alive
    specs = [((3,), 2), ((3,), 3), ((3,), 4), ((3, 1), 3), ((2, 2), 2), ((2, 2), 4)]
    code = ("import gc, json, tracemalloc\n"
            "import numpy as np\n"
            "from turangood import LinearForest, extremal_search, oracle\n"
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
    assert out["live"] == ["uint8"]
    assert out["found"] == [repr(extremal_search(LinearForest(c), 7, k)) for c, k in specs]


def fresh_peak(n: int, specs: list, ks, witness_cap: int) -> dict:
    """Peak traced bytes of ``extremal_search`` on each (components, k) of
    specs, with ``ks`` and ``witness_cap``, in a fresh interpreter that
    has not imported numpy, and the pre-flight estimate of one batch."""
    code = ("import json, sys, tracemalloc\n"
            "from turangood import LinearForest, extremal_search, oracle\n"
            "fresh = 'numpy' not in sys.modules\n"
            f"ks, cap = {ks!r}, {witness_cap}\n"
            f"need = oracle._peak_bytes({n}, len({{min(k, {n}) for k in ks}}), cap)\n"
            "tracemalloc.start()\n"
            f"for comps, k in {specs!r}:\n"
            f"    extremal_search(LinearForest(comps), {n}, k, ks=ks, witness_cap=cap)\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "tracemalloc.stop()\n"
            "print(json.dumps({'fresh': fresh, 'peak': peak, 'need': need,\n"
            f"                  'loaded': oracle._peak_bytes({n}, len(ks), cap)}}))\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout)
    assert out["fresh"]
    return out


def test_peak_estimate_covers_numpy_import():
    # the first search from n = 7 in a process imports numpy, which the
    # estimate adds until numpy is loaded
    out = fresh_peak(7, [((3,), 2)], (2,), 10)
    assert out["peak"] <= out["need"], out
    assert out["loaded"] < out["need"]


@pytest.mark.parametrize("comps", [(4, 3), (1,) * 6], ids=str)
@pytest.mark.parametrize("ks", [(2,), (2, 5)], ids=str)
def test_peak_estimate_covers_batch_witnesses(comps, ks):
    # a forest larger than n, or one of n isolated vertices, ties on
    # every selected mask, so every k of the batch keeps 5000 witnesses
    out = fresh_peak(6, [(comps, k) for k in ks], ks, 5000)
    assert out["peak"] <= out["need"], out


@pytest.mark.parametrize("n", [4, 7])  # either side of oracle._SMALL_N
def test_self_check_holds_under_optimize(n):
    # the engine's self-check raises, not asserts: under python -O a scan
    # whose maximum the reference counter does not confirm still exits 3
    code = ("import sys\n"
            "from turangood import oracle\n"
            "from turangood.cli import run\n"
            f"[(best, masks)] = oracle._core_search({n}, (2,), (2,), 10)\n"
            "oracle._core_search = lambda n, core, ks, cap: ((best + 2, masks),) * len(ks)\n"
            "print(masks[0], flush=True)\n"
            f"sys.exit(run(['verify', 'conjecture', '--forest', '2', '--n', '{n}', '--k', '2']))\n")
    proc = python("-O", "-c", code)
    mask = int(proc.stdout)
    assert proc.returncode == 3, proc.stderr.decode()
    assert proc.stderr.decode() == ("turangood: internal error: RuntimeError: "
                                    f"scan self-check failed on mask {mask}\n")


@pytest.mark.skipif(oracle._mem_available() is None, reason="no MemAvailable to compare with")
@pytest.mark.parametrize("argv", ["verify conjecture --forest 2 --n 3",
                                  "verify multipartite-max --forest 2 --n 3",
                                  "table --forest 2 --n 3"])
def test_huge_grid_is_refused_at_once(argv):
    start = time.perf_counter()
    proc = python("-m", "turangood", *argv.split(), "--k", "1..1000000000")
    assert proc.returncode == 2, proc.stderr.decode()
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"turangood: error: 1000000000 (n, k) pairs need about ")
    assert time.perf_counter() - start < 10


@pytest.mark.skipif(oracle._mem_available() is None, reason="no MemAvailable to compare with")
def test_huge_identity_window_is_refused_at_once():
    start = time.perf_counter()
    proc = python("-m", "turangood", "verify", "odd-identity", "--forest", "3",
                  "--n", "5..1000000000")
    assert proc.returncode == 2, proc.stderr.decode()
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"turangood: error: 999999996 n values need about ")
    assert time.perf_counter() - start < 10


def test_cli_diff_finds_no_difference_between_the_repo_and_itself():
    root = Path(__file__).resolve().parents[1]
    proc = python(str(root / "tools" / "cli_diff.py"), str(root), str(root), "--seeds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(b" argvs, 0 differ\n")


def test_cli_diff_takes_a_checkout_path_relative_to_the_caller():
    # the child runs in the checkout, so a relative path must be resolved
    # before it becomes the child's PYTHONPATH
    root = Path(__file__).resolve().parents[1]
    proc = python(str(root / "tools" / "cli_diff.py"), root.name, root.name, "--seeds", "1",
                  cwd=root.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(b" argvs, 0 differ\n")


def test_cache_traffic_reads_the_sweep_caches():
    # a sweep runs the counting DP alone: its memo hits, and the
    # exhaustive engine's array caches are never called
    root = Path(__file__).resolve().parents[1]
    proc = python(str(root / "tools" / "cache_traffic.py"), str(root),
                  "--workload", "sweep", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr.decode()
    rows = {cols[2]: [int(c) for c in cols[3:]]
            for cols in map(str.split, proc.stdout.decode().splitlines()[1:])
            if cols[:2] == ["sweep", "1"]}
    assert rows["multipartite._core_memo"][0] > 0
    assert rows["oracle._inj_counts_all_graphs"] == [0, 0, 0]
    assert rows["oracle._clique_numbers"] == [0, 0, 0]
