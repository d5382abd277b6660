"""Tests of the benchmark itself (not of the package).

Run from the repository root:  python3 -m pytest bench -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from checks import partition_count  # noqa: E402
from spans import ID, NAME, PARENT, layer_metrics, self_times, union_length  # noqa: E402
from workloads import WORKLOADS, build, partitions  # noqa: E402


def span(i, name, start, end, parent=None, meta=None):
    return [i, name, float(start), float(end), parent, meta]


def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10


def test_self_time_nested_and_overlapping_children():
    spans = [
        span(0, "cli.run", 0, 10),
        span(1, "oracle._scan_shard", 1, 4, 0),
        span(2, "oracle._scan_shard", 3, 6, 0),   # overlaps its sibling
        span(3, "verify.x", 8, 9, 0),
        span(4, "multipartite.count_copies", 8.25, 8.75, 3),  # grandchild of 0
        span(5, "oracle._scan_shard", 9.5, 11, 0),  # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - (5 + 1 + 0.5))
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(0.5)
    assert selfs[1] == pytest.approx(3)


def test_layer_metrics_partition_the_wall_time():
    spans = [
        span(0, "cli.run", 0, 10),
        span(1, "cli.cmd_verify", 1, 9, 0),
        span(2, "verify.verify_conjecture", 2, 8, 1, 128),
        span(3, "oracle.extremal_search", 2.5, 7.5, 2, 128),
        span(4, "oracle._scan_shard", 3, 5, 3),
        span(5, "oracle._scan_shard", 4, 6, 3),
        span(6, "oracle._clique_free_selector", 6, 7, 3,
             {"bytes": 128, "survivors": 32, "masks": 128}),
    ]
    m = layer_metrics([spans], [10.5], 11.0)
    assert m["oracle.scan_s"] == pytest.approx(3)
    assert m["oracle.scan_busy_s"] == pytest.approx(4)
    assert m["oracle.self_s"] == pytest.approx(5 - 3 - 1)
    assert m["oracle.survivor_ratio"] == pytest.approx(0.25)
    assert m["cli.process_s"] == pytest.approx(0.5)
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert m["verify.instances_checked"] == 128 == m["oracle.graphs_scanned"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_ops(name):
    assert build(name, 7) == build(name, 7)
    assert build(name, 7) != build(name, 8)


def test_partition_count_matches_enumeration():
    for n in range(0, 12):
        for k in range(1, 5):
            assert partition_count(n, k) == sum(1 for p in partitions(n) if len(p) <= k)


def _small_ops():
    mix = build("cli-mix", 3)
    return build("exhaustive", 3)[:2] + [op for op in mix if "count" in op["argv"][:1]][:3] + \
        [op for op in mix if op["argv"][:2] == ["verify", "multipartite-max"]][:1] + \
        [op for op in mix if op["expect"]["rc"] == 2][:2]


def test_wrong_expectation_raises_failures():
    ops = _small_ops()
    env = bench.run_pass([op["argv"] for op in ops], trace=False, spawn=False)
    attempted, failed, _ = bench.check_passes(ops, [env])
    assert (attempted, failed) == (len(ops), 0)
    wrong = copy.deepcopy(ops)
    for op in wrong:
        exp = op["expect"]
        if exp["kind"] == "verify":
            exp["reports"][0]["instances"] += 1
        elif exp["kind"] == "count":
            exp["aut"] += 1
    n_wrong = sum(op["expect"]["kind"] in ("verify", "count") for op in wrong)
    attempted, failed, records = bench.check_passes(wrong, [env])
    assert failed == n_wrong > 0
    assert 1 - failed / attempted < 1


def test_counts_repeat_exactly_and_stdout_is_unchanged_by_tracing():
    ops = _small_ops()
    argvs = [op["argv"] for op in ops]
    runs = []
    for _ in range(2):
        untraced = bench.run_pass(argvs, trace=False, spawn=False)
        traced = bench.run_pass(argvs, trace=True, spawn=False)
        attempted, failed, _ = bench.check_passes(ops, [untraced, traced])
        assert failed == 0
        runs.append(bench.per_layer([traced], [untraced]))
        groups = traced["span_groups"]
        by_id = {s[ID]: s for s in groups[0]}
        shards = [s for s in groups[0] if s[NAME] == "oracle._scan_shard"]
        assert shards and all(by_id[s[PARENT]][NAME] == "oracle.extremal_search"
                              for s in shards)
    for key in ("cli.stdout_bytes", "multipartite.calls", "multipartite.distinct_hosts",
                "verify.instances_checked", "oracle.graphs_scanned", "oracle.array_bytes",
                "oracle.witness_checks"):
        assert runs[0][key] == runs[1][key], key
    assert runs[0]["multipartite.calls"] > 0 and runs[0]["oracle.graphs_scanned"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_names_every_metric_of_the_spec(monkeypatch, trace):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    monkeypatch.setattr(bench, "build", lambda workload, seed: _small_ops())
    result, detail = bench.measure("exhaustive", 1, 0.0, trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert detail["known_defect_probe"]["rc"] in (0, 1)
