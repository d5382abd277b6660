import contextlib
import csv
import hashlib
import io
import json
import sys
import tracemalloc
from functools import partial
from math import factorial
from pathlib import Path

import pytest
from conftest import clear_engine_caches
from hypothesis import given, settings
from hypothesis import strategies as st

from turangood import (LinearForest, VerificationReport, count_copies_turan, extremal_search,
                       oracle, verify_multipartite_max)
from turangood import cli
from turangood import verify as verify_mod
from turangood.cli import CLAIMS, FORMATS, _parse_turan, build_parser, run
from turangood.verify import VERDICTS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_human_output(self, capsys):
        code, out, _ = invoke(capsys, "count", "--forest", "3", "--parts", "2,3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["forest: 3", "parts: 3,2", "injective_homs: 18",
                         "aut: 2", "copies: 9"]

    def test_turan_shorthand(self, capsys):
        code, out, _ = invoke(capsys, "count", "--forest", "2", "--turan", "7/3")
        assert code == 0
        assert "copies: 16" in out

    def test_json_output(self, capsys):
        code, out, _ = invoke(capsys, "count", "--forest", "2,2",
                              "--parts", "2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"forest": "2,2", "parts": [2, 2],
                           "injective_homs": 16, "aut": 8, "copies": 2}

    def test_csv_output(self, capsys):
        code, out, _ = invoke(capsys, "count", "--forest", "3",
                              "--parts", "2,3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "forest,parts,injective_homs,aut,copies"
        assert lines[1] == '3,"3,2",18,2,9'

    @pytest.mark.parametrize("exc", [RuntimeError, OverflowError, MemoryError,
                                     RecursionError])
    def test_internal_error_exits_3(self, capsys, monkeypatch, exc):
        def broken(*args):
            raise exc("engine self-check failed")
        monkeypatch.setattr("turangood.cli.count_injective_homs", broken)
        code, out, err = invoke(capsys, "count", "--forest", "3", "--parts", "2,3")
        assert code == 3
        assert out == ""
        assert err.startswith("turangood: internal error: ")
        assert "engine self-check failed" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="interpreter without an int-to-str digit limit")
    def test_counts_beyond_int_str_digit_limit(self, capsys):
        # 1000!^2 has about 5135 digits, past Python's default 4300
        limit = sys.get_int_max_str_digits()
        outs = {}
        for fmt in ("json", "csv", "human"):
            code, outs[fmt], err = invoke(capsys, "count", "--forest", "2000",
                                          "--parts", "1000,1000", "--format", fmt)
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            copies = str(factorial(1000) ** 2)
            inj = str(2 * factorial(1000) ** 2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert outs["json"] == (f'{{\n  "aut": 2,\n  "copies": {copies},\n  "forest": "2000",\n'
                                f'  "injective_homs": {inj},\n  "parts": [\n    1000,\n    1000\n'
                                f'  ]\n}}\n')
        assert outs["csv"] == (f'forest,parts,injective_homs,aut,copies\n'
                               f'2000,"1000,1000",{inj},2,{copies}\n')
        assert outs["human"] == (f"forest: 2000\nparts: 1000,1000\ninjective_homs: {inj}\n"
                                 f"aut: 2\ncopies: {copies}\n")

    def test_bad_forest_exits_2(self, capsys):
        code, _, err = invoke(capsys, "count", "--forest", "x", "--parts", "2,3")
        assert code == 2
        assert "error" in err

    def test_missing_host_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "count", "--forest", "3")
        assert code == 2

    @pytest.mark.parametrize("host", [["--turan", ""], ["--parts", ""]])
    def test_empty_host_exits_2(self, capsys, host):
        code, out, err = invoke(capsys, "count", "--forest", "3", *host)
        assert (code, out) == (2, "")
        assert err.startswith("turangood: error: ") and "Traceback" not in err

    def test_both_hosts_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "count", "--forest", "3",
                            "--parts", "2,3", "--turan", "5/2")
        assert code == 2


class TestVerify:
    def test_multipartite_max_sweep(self, capsys):
        code, out, _ = invoke(capsys, "verify", "multipartite-max",
                              "--forest", "3,2", "--n", "12", "--k", "3",
                              "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["verdict"] == "holds"

    def test_conjecture(self, capsys):
        code, out, _ = invoke(capsys, "verify", "conjecture", "--forest", "4",
                              "--n", "6", "--k", "2", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["verdict"] == "holds"
        assert reports[0]["instances_checked"] == 1 << 15

    def test_balance(self, capsys):
        code, out, _ = invoke(capsys, "verify", "balance", "--forest", "3",
                              "--parts", "1,4")
        assert code == 0
        assert "verdict: holds" in out

    def test_identity_claims_sweep_orders(self, capsys):
        code, out, _ = invoke(capsys, "verify", "odd-identity", "--forest", "5,3",
                              "--n", "8..9", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["params"]["order"] for r in reports] == [3, 5]
        assert all(r["verdict"] == "holds" for r in reports)
        assert all("ratio" in r for r in reports)

    def test_even_identity_default_window(self, capsys):
        code, out, _ = invoke(capsys, "verify", "even-identity", "--forest", "4",
                              "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["params"]["n_range"] == [4, 5, 6, 7, 8]

    def test_isolated_identity(self, capsys):
        code, out, _ = invoke(capsys, "verify", "isolated-identity",
                              "--forest", "2,1", "--n", "4..5", "--format", "json")
        assert code == 0

    def test_range_sweep_multiple_reports(self, capsys):
        code, out, _ = invoke(capsys, "verify", "multipartite-max", "--forest", "2",
                              "--n", "4..6", "--k", "2..3", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [(r["params"]["k"], r["params"]["n"]) for r in reports] == [
            (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]

    def test_unknown_claim_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "verify", "nonsense", "--forest", "2")
        assert code == 2

    def test_missing_required_flags_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "verify", "conjecture", "--forest", "2")
        assert code == 2
        code, _, _ = invoke(capsys, "verify", "balance", "--forest", "2")
        assert code == 2

    def test_identity_on_inapplicable_forest_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "verify", "odd-identity", "--forest", "2")
        assert code == 2

    @pytest.mark.parametrize("claim, forest", [
        ("odd-identity", "3"), ("even-identity", "2"), ("isolated-identity", "2,1")])
    def test_identity_range_without_hosts_exits_2(self, capsys, claim, forest):
        code, out, err = invoke(capsys, "verify", claim, "--forest", forest, "--n", "0..1")
        assert (code, out) == (2, "")
        assert err.startswith("turangood: error: ") and err.count("\n") == 1
        code, out, _ = invoke(capsys, "verify", claim, "--forest", forest, "--n", "0..2",
                              "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["instances_checked"] == 1

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        fake = VerificationReport(
            "conjecture", {"forest": "2", "n": 5, "k": 2}, "counterexample",
            counterexample={"max_count": 7, "turan_count": 6, "witnesses": []},
            instances_checked=1024)
        monkeypatch.setattr("turangood.verify.verify_conjecture",
                            lambda *a, **kw: fake)
        code, out, _ = invoke(capsys, "verify", "conjecture", "--forest", "2",
                              "--n", "5", "--k", "2", "--format", "json")
        assert code == 1
        reports = json.loads(out)
        assert reports[0]["counterexample"]["max_count"] == 7

    @pytest.mark.parametrize("argv", [
        "balance --forest 3 --parts 1,4", "odd-identity --forest 3",
        "even-identity --forest 2 --n 2..3", "isolated-identity --forest 2,1 --n 2..3"])
    def test_k_ignored_where_not_read(self, capsys, argv):
        code, _, err = invoke(capsys, "verify", *argv.split(), "--k", "0")
        assert (code, err) == (0, "")

    def test_conjecture_bad_k_exits_2(self, capsys):
        assert invoke(capsys, "verify", "conjecture", "--forest", "3", "--n", "4",
                      "--k", "0") == (2, "", "turangood: error: k must be >= 1, got 0\n")

    def test_cap_hard_limit(self, capsys):
        code, _, err = invoke(capsys, "verify", "conjecture", "--forest", "2",
                              "--n", "9", "--k", "2", "--cap", "9")
        assert code == 2


class TestTable:
    def test_squares_over_four(self, capsys):
        code, out, _ = invoke(capsys, "table", "--forest", "2", "--k", "2",
                              "--n", "1..6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,forest,count"
        counts = [int(line.split(",")[-1]) for line in lines[1:]]
        assert counts == [0, 1, 2, 4, 6, 9]

    def test_isolated_vertex(self, capsys):
        code, out, _ = invoke(capsys, "table", "--forest", "1", "--k", "3",
                              "--n", "1..3")
        assert code == 0
        counts = [int(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
        assert counts == [1, 2, 3]

    def test_single_n(self, capsys):
        code, out, _ = invoke(capsys, "table", "--forest", "3", "--k", "2",
                              "--n", "5..5")
        assert code == 0
        assert out.strip().splitlines()[1] == '5,2,3,9'

    def test_json_rows(self, capsys):
        from conftest import brute_copies_multipartite
        assert brute_copies_multipartite((3, 2), (3, 2)) == 6
        assert brute_copies_multipartite((3, 2), (3, 3)) == 36
        code, out, _ = invoke(capsys, "table", "--forest", "3,2", "--k", "2",
                              "--n", "5..6", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows == [{"n": 5, "k": 2, "forest": "3,2", "count": 6},
                        {"n": 6, "k": 2, "forest": "3,2", "count": 36}]

    def test_forest_field_quoted_in_csv(self, capsys):
        code, out, _ = invoke(capsys, "table", "--forest", "3,2", "--k", "2",
                              "--n", "5..5")
        assert code == 0
        assert out.strip().splitlines()[1].split(",", 2)[2].startswith('"3,2"')

    def test_empty_range_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "table", "--forest", "2", "--k", "2",
                            "--n", "6..1")
        assert code == 2

    def test_bad_k_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "table", "--forest", "2", "--k", "0",
                            "--n", "1..3")
        assert code == 2


class TestEnvironmentOverrides:
    def test_format_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TURANGOOD_FORMAT", "json")
        code, out, _ = invoke(capsys, "count", "--forest", "3", "--parts", "2,3")
        assert code == 0
        assert json.loads(out)["copies"] == 9

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TURANGOOD_FORMAT", "json")
        code, out, _ = invoke(capsys, "count", "--forest", "3", "--parts", "2,3",
                              "--format", "human")
        assert code == 0
        assert out.startswith("forest: 3")

    def test_witnesses_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TURANGOOD_WITNESSES", "2")
        code, out, _ = invoke(capsys, "verify", "conjecture", "--forest", "2",
                              "--n", "4", "--k", "2", "--format", "json")
        assert code == 0


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(self, capsys):
        # each run starts from cold caches, so every run searches n = 5
        # and n = 6 again instead of reading the first run's results
        outputs = []
        for workers in ("1", "2", "4", "1"):
            clear_engine_caches()
            code, out, _ = invoke(capsys, "verify", "conjecture", "--forest", "3,2",
                                  "--n", "5..6", "--k", "2", "--format", "json",
                                  "--workers", workers)
            assert code == 0
            info = oracle._core_search.cache_info()
            assert (info.hits, info.misses) == (0, 2)
            outputs.append(out)
        assert len(set(outputs)) == 1

    def test_k_range_scans_once_per_n(self, capsys):
        # the search for the first k at each n scans for the whole --k
        # range; the later k read its results, as a repeat run reads all
        clear_engine_caches()
        outputs = []
        for repeat in range(2):
            code, out, _ = invoke(capsys, "verify", "conjecture", "--forest", "3,2",
                                  "--n", "5..7", "--k", "2..4", "--format", "json")
            assert code == 0
            info = oracle._core_search.cache_info()
            assert (info.hits, info.misses) == (6 + 9 * repeat, 3)
            outputs.append(out)
        assert outputs[0] == outputs[1]



class TestInvalidEnvironment:
    """argparse checks choices against argv only and converts a default
    only for the subcommand that has the option."""

    _COUNT = ("count", "--forest", "3", "--parts", "2,3")
    _TABLE = ("table", "--forest", "3", "--n", "5", "--k", "2")
    _VERIFY = ("verify", "conjecture", "--forest", "2", "--n", "4", "--k", "2")

    @pytest.mark.parametrize("argv", [_COUNT, _TABLE, _VERIFY])
    def test_bad_format_exits_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("TURANGOOD_FORMAT", "xml")
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("turangood: error: TURANGOOD_FORMAT must be one of "
                       "human, json, csv, got 'xml'\n")

    @pytest.mark.parametrize("name", ["CAP", "WITNESSES", "WORKERS"])
    def test_verify_values_do_not_reach_other_commands(self, capsys, monkeypatch, name):
        monkeypatch.setenv("TURANGOOD_" + name, "x")
        for argv in (self._COUNT, self._TABLE):
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, "")
            assert out
        code, out, err = invoke(capsys, *self._VERIFY)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err.endswith(f"error: argument --{name.lower()}: invalid int value: 'x'\n")

    def test_environment_read_on_every_call(self, capsys, monkeypatch):
        # one parser per process while the variables stay the same; a
        # change between two calls in one process still takes effect
        from turangood import cli
        for name in cli.ENV_NAMES:
            monkeypatch.delenv("TURANGOOD_" + name, raising=False)
        code, out, _ = invoke(capsys, *self._COUNT)
        assert (code, out.splitlines()[0]) == (0, "forest: 3")
        hits = cli._parser.cache_info().hits
        assert invoke(capsys, *self._COUNT)[:2] == (code, out)
        assert cli._parser.cache_info().hits == hits + 1
        monkeypatch.setenv("TURANGOOD_FORMAT", "json")
        code, out, _ = invoke(capsys, *self._COUNT)
        assert (code, json.loads(out)["copies"]) == (0, 9)
        monkeypatch.setenv("TURANGOOD_FORMAT", "xml")
        code, _, err = invoke(capsys, *self._COUNT)
        assert (code, err) == (2, "turangood: error: TURANGOOD_FORMAT must be one of "
                                  "human, json, csv, got 'xml'\n")
        monkeypatch.delenv("TURANGOOD_FORMAT")
        assert invoke(capsys, *self._VERIFY)[0] == 0
        monkeypatch.setenv("TURANGOOD_CAP", "3")
        code, _, err = invoke(capsys, *self._VERIFY)
        assert (code, err) == (2, "turangood: error: n=4 outside [0, 3]; "
                                  "refusing unbounded scan\n")
        monkeypatch.setenv("TURANGOOD_CAP", "y")
        code, _, err = invoke(capsys, *self._VERIFY)
        assert code == 2 and err.endswith("argument --cap: invalid int value: 'y'\n")
        monkeypatch.delenv("TURANGOOD_CAP")
        monkeypatch.setenv("TURANGOOD_WORKERS", "0")
        code, _, err = invoke(capsys, *self._VERIFY)
        assert (code, err) == (2, "turangood: error: workers must be >= 1, got 0\n")
        monkeypatch.delenv("TURANGOOD_WORKERS")
        assert invoke(capsys, *self._VERIFY)[0] == 0


# stdout sha256 of each command form in each format, taken before the
# argv-to-verifier plumbing was rewritten; every form exits 0
_PINNED = {
    "count --forest 3,1 --parts 2,3": (
        "ee83406ace8b1d5c8bf6ee288f13a1c6904dccbd0dd9213f4860470444d111af",
        "4de2267748f0546dafc7108f805bd088ff72c16fc78e2b4b57ececc5be52dd9d",
        "46839050e607f6ea0dbb4a64489ca7c4b8ea403bee785a0658e761f643ac3ca7"),
    "count --forest 3,1 --turan 7/3": (
        "2dfe4792fb9b09832b17f188fca64d8d69d901f1f6705ee91e16e62ce2c50e6b",
        "73df8d66c2873076e12d823f99eee34096003fa395b1abf08e3bbca509efa077",
        "b46462629f179feeb555b431c30c824609ac66b9fdb98fb850d28d46346e5f58"),
    # human prints CSV
    "table --forest 3 --n 4..6 --k 2..3": (
        "c404e4514102101cdb229c28649caf087241c42b98e2e157e2ec879d143aa70a",
        "bae4df14caf82699c3459b74bb77d23634350acc6c2e58e66692396951bf6648",
        "c404e4514102101cdb229c28649caf087241c42b98e2e157e2ec879d143aa70a"),
    "verify multipartite-max --forest 3 --n 5..6 --k 2..3": (
        "12c3d6b62ace4b484b5ddb2bd7dfbf27c4c75e2916521cf037d7bbe3add55943",
        "e7081035412bc4587096d2c43493cadb45859f33c1d9ccbf8761e757a1828bfb",
        "da5dcdbb97dfac23e6ba438f964a16a5a407cd288e735e473df3ab17dae84cc9"),
    "verify balance --forest 3,1 --parts 1,5,2": (
        "ac5cccd10a675899bb8220ed627d160f6342aefca93512053dfa560a57306e01",
        "9fa0365c66f7dba458cfcacccc3ba9746caa6f72b2eb42d0708c016219295b84",
        "6571de3753477c5d25e5f1631c054d9ce068b25e8363cf838e3250add4e58561"),
    "verify odd-identity --forest 5,3,1 --n 6..9": (
        "f61ea341d6addf208fb2adb59d9a8e6097399fe90db085bba064d2748051e572",
        "bd37c344cb4acea745b2acd588f528226cc917e1913ef3052aa730ac1797a79c",
        "dcc2c5bab37188776287dc9445aff1b7fc2b076e3ab57e78cc1f9178673ab265"),
    "verify even-identity --forest 4,2": (
        "7ec15fc90a2a4bd474b3376ca0dce23c3335ebea4f3657d6936a016349206409",
        "4f331b95c240db92c66bb01fa3ae58a685773f7e0eefee0bb20381c23f0860e9",
        "ed70a892a5c36da7dffc65103dcaf06d7bd7e675ce4a061c662e3fda36c48c79"),
    "verify isolated-identity --forest 3,1,1 --n 5..8": (
        "6657955a65eebb9476010be5646bf974cc6e08f7f9cb9e274a18d540a154c254",
        "fc5e88a9dbb260fdd0313d9f161acf808c6f2410451d6312df865f3cd563d8e8",
        "7f59b4bfd24726f87b33ba18589e2722a3fcde80e20d8e909840637a466519c8"),
    "verify conjecture --forest 3 --n 5 --k 2..3": (
        "436ac62837e69599eea72549365847eefdc8a93c870b24ebe336f8b901251504",
        "9bbd8c8c3a5365ce792015572c976ec62c7dc60d9d1472dd476642560c837cc3",
        "eed978d70a073968eeba571d49bd2fad819f6384b01ffd553f67314098252f10"),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("argv", sorted(_PINNED))
    def test_stdout(self, capsys, argv, fmt):
        code, out, err = invoke(capsys, *argv.split(), "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[argv][FORMATS.index(fmt)]

    @pytest.mark.parametrize("argv,message", [
        ("count --forest 3,x --parts 2,3", "invalid forest spec '3,x'"),
        ("table --forest 3 --n 4 --k 0..2", "k must be >= 1, got 0"),
        ("verify multipartite-max --forest 3 --n 4 --k 0", "k must be >= 1, got 0"),
        ("verify conjecture --forest 3 --k 2", "conjecture needs --n and --k"),
        ("verify odd-identity --forest 2", "forest 2 has no odd component of order >= 3"),
    ])
    def test_usage_error_stderr(self, capsys, argv, message):
        assert invoke(capsys, *argv.split()) == (2, "", f"turangood: error: {message}\n")



def _fake_conjecture(forest, n, k, *, holds_at_2=True, **kwargs):
    """A holding report at k = 2 and a counterexample with one witness
    (the 5-cycle) at every other k; the other way round when not
    ``holds_at_2``."""
    params = {"forest": str(forest), "n": n, "k": k}
    if (k == 2) == holds_at_2:
        return VerificationReport("conjecture", params, "holds", instances_checked=1024)
    witness = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [0, 4], [3, 4]], "graph6": "Dhc"}
    return VerificationReport(
        "conjecture", params, "counterexample",
        counterexample={"max_count": 7, "turan_count": 6, "witnesses": [witness]},
        instances_checked=1024)


# stdout sha256 of _fake_conjecture's two reports in each format, taken
# before the three per-command format switches became one writer
_COUNTEREXAMPLE_PINS = {
    "human": "01cddbf8808ca3376f4986b21ff3746d4cf90a75ad8b43ab1837c1a683caa4dd",
    "json": "8b9be5bf6600caaa793abbe43cfc48a1d841afb77eec0d1112408a4f1419ec19",
    "csv": "2fe99aa663a5e453f2fb45a270d666cb82b970117a2dba148920f3b27e1fd12f",
}
# the bytes each pin must cover: the blank line between human blocks and
# the CSV quoting of the counterexample's JSON
_COUNTEREXAMPLE_SHOWS = {
    "human": "instances_checked: 1024\n\nclaim: conjecture\n",
    "json": '"counterexample": {\n',
    "csv": ',counterexample,1024,"{""max_count"": 7, ""turan_count"": 6, ""witnesses"": [{',
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_counterexample_bytes(capsys, monkeypatch, fmt):
    monkeypatch.setattr("turangood.verify.verify_conjecture", _fake_conjecture)
    code, out, err = invoke(capsys, "verify", "conjecture", "--forest", "3", "--n", "5",
                            "--k", "2..3", "--format", fmt)
    assert (code, err) == (1, "")
    assert _COUNTEREXAMPLE_SHOWS[fmt] in out
    assert hashlib.sha256(out.encode()).hexdigest() == _COUNTEREXAMPLE_PINS[fmt]


@pytest.mark.parametrize("holds_at_2, verdicts", [
    (True, ["holds", "counterexample"]),
    (False, ["counterexample", "holds"]),
], ids=["holds-first", "counterexample-first"])
def test_mixed_verdicts_exit_1(capsys, monkeypatch, holds_at_2, verdicts):
    monkeypatch.setattr("turangood.verify.verify_conjecture",
                        partial(_fake_conjecture, holds_at_2=holds_at_2))
    code, out, err = invoke(capsys, "verify", "conjecture", "--forest", "3", "--n", "5",
                            "--k", "2..3", "--format", "json")
    assert (code, err) == (1, "")
    assert [r["verdict"] for r in json.loads(out)] == verdicts


_TURAN_CALLS = {  # each call that builds T(3, k) from a k given by the user
    "cli._parse_turan": lambda k: _parse_turan(f"3/{k}"),
    "count_copies_turan": lambda k: count_copies_turan(LinearForest((2,)), 3, k),
    "verify_multipartite_max": lambda k: verify_multipartite_max(LinearForest((2,)), 3, k),
    "extremal_search": lambda k: extremal_search(LinearForest((2,)), 3, k),
}


class TestTuranKBeyondN:
    """T(n, k) for k > n is K_n plus empty parts: built without them, it
    takes no memory per part and prints as T(n, n) does."""

    @pytest.mark.parametrize("name", sorted(_TURAN_CALLS))
    def test_peak_memory_under_1_mib(self, name):
        call = _TURAN_CALLS[name]
        call(3)  # fill the caches first; their size does not depend on k
        tracemalloc.start()
        try:
            call(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("argv", ["count --forest 2 --turan 3/{k}",
                                      "table --forest 2 --n 3 --k {k}",
                                      "verify multipartite-max --forest 2 --n 3 --k {k}",
                                      "verify conjecture --forest 2 --n 3 --k {k}"])
    def test_output_as_at_k_equal_n(self, capsys, argv, fmt):
        big = invoke(capsys, *argv.format(k=10**6).split(), "--format", fmt)
        at_n = invoke(capsys, *argv.format(k=3).split(), "--format", fmt)
        assert at_n[0] == 0
        assert (big[0], big[1].replace("1000000", "3"), big[2]) == at_n


class TestGridMemory:
    """A --n x --k grid whose results cannot fit in the memory available
    is refused with exit 2 before anything is counted."""

    GRIDS = {  # argv with a 2 x 5 grid: its bytes at 4,096 a pair, plus 256 a part of T(4, 5)
        "table": ("table --forest 2 --n 3..4 --k 1..5", 10 * 4096),
        "multipartite-max": ("verify multipartite-max --forest 2 --n 3..4 --k 1..5",
                             10 * (4096 + 4 * 256)),
        "conjecture": ("verify conjecture --forest 2 --n 3..4 --k 1..5", 10 * (4096 + 4 * 256)),
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_refused_when_one_byte_short(self, capsys, monkeypatch, name):
        argv, need = self.GRIDS[name]

        def refuse(*args, **kwargs):
            raise AssertionError("counted a grid that was refused")

        for fn in ("verify_multipartite_max", "verify_conjecture"):
            monkeypatch.setattr(verify_mod, fn, refuse)
        monkeypatch.setattr(cli, "count_copies_turan", refuse)
        monkeypatch.setattr(oracle, "_mem_available", lambda: need - 1)
        assert invoke(capsys, *argv.split()) == (
            2, "", f"turangood: error: 10 (n, k) pairs need about 0 MiB of results, "
                   f"only 0 MiB available\n")

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_runs_when_it_fits_or_memory_is_unknown(self, capsys, monkeypatch, name):
        argv, need = self.GRIDS[name]
        expected = invoke(capsys, *argv.split())
        assert expected[0] == 0
        for avail in (need, None):
            monkeypatch.setattr(oracle, "_mem_available", lambda: avail)
            assert invoke(capsys, *argv.split()) == expected


_VERIFIERS = {  # each claim: its verifier on turangood.verify, the options it needs
    "multipartite-max": ("verify_multipartite_max", ["--n", "3", "--k", "2"]),
    "balance": ("verify_balancing_monotone", ["--parts", "1,3"]),
    "odd-identity": ("verify_odd_extension_identity", []),
    "even-identity": ("verify_even_extension_identity", []),
    "isolated-identity": ("verify_isolated_identity", []),
    "conjecture": ("verify_conjecture", ["--n", "3", "--k", "2"]),
}


class TestTables:
    """The verdict table of verify.py and the claim table of cli.py."""

    def test_verdicts_pinned(self):
        assert list(VERDICTS.items()) == [("holds", 0), ("counterexample", 1)]

    def test_parser_choices_are_the_claims(self):
        verify = build_parser()._subparsers._group_actions[0].choices["verify"]
        [claim] = [a for a in verify._actions if a.dest == "claim"]
        assert list(claim.choices) == list(CLAIMS) == list(_VERIFIERS)

    def test_claims_that_read_k(self):
        assert [c for c, (reads_k, _) in CLAIMS.items() if reads_k] == [
            "multipartite-max", "conjecture"]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert ("Only `multipartite-max`, `conjecture` and `table` read `--k`"
                in " ".join(readme.split()))

    @pytest.mark.parametrize("claim", list(_VERIFIERS))
    def test_run_reaches_verifier_rebound_on_verify(self, capsys, monkeypatch, claim):
        verifier, argv = _VERIFIERS[claim]
        calls = []

        def fake(*args, **kwargs):
            calls.append(args)
            return VerificationReport(claim, {}, "holds", instances_checked=1)
        monkeypatch.setattr(f"turangood.verify.{verifier}", fake)
        code, out, err = invoke(capsys, "verify", claim, "--forest", "4,3,1", *argv,
                                "--format", "json")
        assert (code, err) == (0, "")
        assert calls and all(str(args[0]) == "4,3,1" for args in calls)
        assert [r["claim"] for r in json.loads(out)] == [claim] * len(calls)




# Numbers stay in -2..6 and junk has no digits, so every n, part size and
# forest order is small and no example is expensive (conjecture at n <= 6,
# no --cap above 7).
_num = st.integers(-2, 6).map(str)
_list = st.lists(st.integers(1, 6).map(str), min_size=1, max_size=3).map(",".join)
_range = st.one_of(_num, st.tuples(_num, _num).map(lambda ab: "..".join(sorted(ab))))
_junk = st.text(alphabet=" -.,/=xh", max_size=4)
_OPTIONS = {
    "--forest": _list, "--parts": _list, "--turan": st.tuples(_num, _num).map("/".join),
    "--n": _range, "--k": _range, "--cap": _num, "--workers": _num, "--witnesses": _num,
    "--format": st.sampled_from(FORMATS),
}
_NEEDS = {"multipartite-max": ("--n", "--k"), "conjecture": ("--n", "--k"),
          "balance": ("--parts",)}
# each command with the options it needs besides --forest
_COMMANDS = [(["count"], ("--parts",)), (["count"], ("--turan",)), (["table"], ("--n", "--k")),
             *((["verify", claim], _NEEDS.get(claim, ())) for claim in CLAIMS)]
_JUNK_TOKEN = st.one_of(_junk, _num, st.sampled_from(["--bogus", "-h", "verify", *CLAIMS,
                                                      *_OPTIONS]))



def _one_in(n: int):
    # sampled_from draws about uniformly (integers() favours its bounds)
    # and shrinks to its first element: here, no junk
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def _argv(draw) -> list[str]:
    """A command with its required options and up to three more, each
    value now and then replaced by junk; then up to two junk tokens
    spliced in anywhere."""
    argv, needs = draw(st.sampled_from(_COMMANDS))
    argv = list(argv)
    extra = draw(st.lists(st.sampled_from(sorted(_OPTIONS)), max_size=3))
    for flag in ("--forest", *needs, *extra):
        argv += [flag, draw(_junk if draw(_one_in(10)) else _OPTIONS[flag])]
    for _ in range(2):
        if draw(_one_in(3)):
            argv.insert(draw(st.sampled_from(range(len(argv), -1, -1))), draw(_JUNK_TOKEN))
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=_argv())
    def test_no_traceback_and_documented_exit_codes(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        assert code in (0, 1, 2), (code, err)
        if code == 1:  # only a verifier's counterexample exits 1
            assert ("verdict: counterexample" in out or '"verdict": "counterexample"' in out
                    or ",counterexample," in out), out

    @settings(max_examples=200, deadline=None)
    @given(argv=_argv())
    def test_formats_carry_the_same_values(self, argv):
        codes, outs = {}, {}
        for fmt in FORMATS:  # the last --format wins
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes[fmt] = run([*argv, "--format", fmt])
            outs[fmt] = out.getvalue()
        assert len(set(codes.values())) == 1, codes
        if codes["json"] != 0 or outs["json"].startswith("usage: "):  # an error or -h
            return
        data = json.loads(outs["json"])
        header, *rows = csv.reader(io.StringIO(outs["csv"]))
        if isinstance(data, dict):  # count
            [row] = rows
            assert sorted(header) == sorted(data)
            assert row == [",".join(map(str, v)) if isinstance(v, list) else str(v)
                           for v in map(data.get, header)]
            assert outs["human"].splitlines() == [f"{h}: {v}" for h, v in zip(header, row)]
        elif "claim" not in data[0]:  # table, whose human output is CSV
            assert rows == [[str(d[h]) for h in header] for d in data]
            assert outs["human"] == outs["csv"]
        else:  # verify
            blocks = outs["human"].rstrip("\n").split("\n\n")
            assert len(rows) == len(blocks) == len(data)
            for d, row, block in zip(data, rows, blocks):
                line = dict(zip(header, row))
                human = dict(text.split(": ", 1) for text in block.splitlines())
                for fields in (line, human):
                    assert fields["claim"] == d["claim"]
                    assert json.loads(fields["params"]) == d["params"]
                    assert fields["verdict"] == d["verdict"]
                    assert fields["instances_checked"] == str(d["instances_checked"])
                assert json.loads(human["maximizers"]) == d["maximizers"]
                assert human.get("ratio") == d.get("ratio")
