"""Checks that need a fresh interpreter: the ``python -m`` entry points,
which modules start-up loads (numpy belongs to the exhaustive array
engine alone, so only ``verify conjecture`` may import it; fractions to
the two ratio verifiers), the benchmark's tracer, and how many count
arrays a process keeps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turangood
from turangood.cli import run

SRC = str(Path(turangood.__file__).resolve().parents[1])
BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, check=False, timeout=120)


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
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_commands_without_arrays_leave_numpy_unloaded(self, argv):
        loaded = set().union(*modules_added(argv))
        assert "numpy" not in loaded
        # only the odd and even identities compare ratios as fractions
        if argv[1] not in ("odd-identity", "even-identity"):
            assert "fractions" not in loaded

    def test_conjecture_loads_numpy(self):
        argv = ["verify", "conjecture", "--forest", "3", "--n", "5", "--k", "2"]
        assert "numpy" in modules_added(argv)[1]


class TestTracedRuns:
    """``bench/spans.py`` rebinds engine functions to plain wrappers; the
    CLI must print the same bytes with them in place."""

    @pytest.mark.parametrize("argv", [
        ["verify", "conjecture", "--forest", "3,1", "--n", "6", "--k", "2..3"],
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
