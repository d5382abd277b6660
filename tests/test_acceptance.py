"""Acceptance suite.

Each criterion prints one [PASS]/[FAIL] line (run pytest with -s to see
them on success).  Criteria 1-5 build canonical JSON report blobs; the
determinism criterion regenerates every blob with the engines' caches
cleared and demands byte-identical output.
"""

import json
import time

from conftest import all_forests, clear_engine_caches

from turangood import (
    LinearForest,
    count_copies_explicit,
    count_copies_turan,
    count_injective_homs,
    count_injective_homs_explicit,
    explicit_multipartite,
    extremal_search,
    turan_parts,
    verify_balancing_monotone,
    verify_conjecture,
    verify_even_extension_identity,
    verify_multipartite_max,
    verify_odd_extension_identity,
)
from turangood.multipartite import PartSizes
from turangood.verify import balance_trajectory, partitions_at_most

FORESTS_LE6 = [LinearForest(c) for c in all_forests(6)]
FORESTS_LE5 = [LinearForest(c) for c in all_forests(5)]

# blobs and timings of the first generation, reused by criterion 7
_store: dict[int, bytes] = {}
_elapsed: dict[int, float] = {}


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def _generate(num: int) -> bytes:
    gen = {1: _gen_oracle_equivalence,
           2: _gen_multipartite_max_sweep,
           3: _gen_balancing_sweep,
           4: _gen_identity_sweep,
           5: _gen_conjecture_sweep}[num]
    return gen()


def _blob(num: int) -> bytes:
    if num not in _store:
        start = time.perf_counter()
        _store[num] = _generate(num)
        _elapsed[num] = time.perf_counter() - start
    return _store[num]


# -- report generators -------------------------------------------------------

def _gen_oracle_equivalence() -> bytes:
    rows = []
    for forest in FORESTS_LE6:
        for n in range(0, 10):
            for part in partitions_at_most(n, 4):
                dp = count_injective_homs(forest, part)
                explicit = count_injective_homs_explicit(
                    forest, explicit_multipartite(part))
                rows.append({"forest": str(forest), "parts": list(part),
                             "dp": dp, "explicit": explicit})
    return _dump(rows)


def _gen_multipartite_max_sweep() -> bytes:
    reports = []
    for forest in FORESTS_LE6:
        for k in (2, 3, 4):
            for n in range(1, 19):
                reports.append(verify_multipartite_max(forest, n, k).to_json_dict())
    return _dump(reports)


def _balancing_inputs():
    for n in range(1, 15):
        for part in partitions_at_most(n, 4):
            yield PartSizes(part)
            if len(part) < 4:
                yield PartSizes(part + (0,) * (4 - len(part)))


def _gen_balancing_sweep() -> bytes:
    reports = []
    for forest in FORESTS_LE5:
        for parts in _balancing_inputs():
            reports.append(verify_balancing_monotone(forest, parts).to_json_dict())
    return _dump(reports)


def _gen_identity_sweep() -> bytes:
    reports = []
    for forest in FORESTS_LE6:
        v = forest.total_vertices
        window = range(v, v + 5)
        for order in sorted(set(c for c in forest.components if c % 2 == 1 and c >= 3)):
            reports.append(verify_odd_extension_identity(
                forest, order, window).to_json_dict())
        for order in sorted(set(c for c in forest.components if c % 2 == 0)):
            reports.append(verify_even_extension_identity(
                forest, order, window).to_json_dict())
    return _dump(reports)


def _gen_conjecture_sweep() -> bytes:
    reports = []
    for forest in FORESTS_LE5:
        for k in (2, 3):
            for n in range(forest.total_vertices, 8):
                reports.append(verify_conjecture(forest, n, k).to_json_dict())
    return _dump(reports)


# -- criteria ----------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    rows = json.loads(_blob(1))
    mismatches = [r for r in rows if r["dp"] != r["explicit"]]
    ok = not mismatches and len(rows) == 29 * 71 and _elapsed[1] < 120
    _criterion(1, f"DP equals backtracking on {len(rows)} (forest, parts) pairs "
                  f"({_elapsed[1]:.1f}s)", ok, str(mismatches[:3]))


def test_criterion_2_multipartite_max_sweep():
    reports = json.loads(_blob(2))
    failures = [r for r in reports if r["verdict"] != "holds"]
    ok = (not failures and len(reports) == 29 * 3 * 18 and _elapsed[2] < 300)
    _criterion(2, f"Turan partition maximal in all {len(reports)} sweeps "
                  f"(n<=18, k in 2..4, {_elapsed[2]:.1f}s)", ok, str(failures[:3]))


def test_criterion_3_balancing_monotone():
    reports = json.loads(_blob(3))
    failures = [r for r in reports if r["verdict"] != "holds"]
    steps_ok = True
    for parts in _balancing_inputs():
        if len(balance_trajectory(parts)) > max(parts.n, 1):
            steps_ok = False
    ok = not failures and steps_ok
    _criterion(3, f"balancing moves monotone and reach the Turan partition "
                  f"within n steps on {len(reports)} sweeps", ok, str(failures[:3]))


def test_criterion_4_extension_identities():
    reports = json.loads(_blob(4))
    failures = [r for r in reports if r["verdict"] != "holds"]
    by_key = {(r["claim"], r["params"]["forest"], r["params"]["order"]): r
              for r in reports}
    # pinned examples, both ratios derived from explicit-graph counts:
    # odd {P3}: N(P2,K23)*1*3 / N(P3,K23) = 6*3/9 and 4*3/6 on K14
    p2, p3, p4 = LinearForest((2,)), LinearForest((3,)), LinearForest((4,))
    k23 = explicit_multipartite((2, 3))
    k14 = explicit_multipartite((1, 4))
    odd_ratio_a = count_copies_explicit(p2, k23) * 3 / count_copies_explicit(p3, k23)
    odd_ratio_b = count_copies_explicit(p2, k14) * 3 / count_copies_explicit(p3, k14)
    # even {P4}: sum over edges of N(P2, host minus endpoints) * 2 over N(P4)
    k22 = explicit_multipartite((2, 2))
    even_ratio_a = 4 * count_copies_explicit(p2, explicit_multipartite((1, 1))) * 2 \
        / count_copies_explicit(p4, k22)
    even_ratio_b = 6 * count_copies_explicit(p2, explicit_multipartite((1, 2))) * 2 \
        / count_copies_explicit(p4, k23)
    pinned_ok = (odd_ratio_a == odd_ratio_b == 2.0
                 and even_ratio_a == even_ratio_b == 2.0
                 and by_key[("odd-identity", "3", 3)]["ratio"] == "2"
                 and by_key[("even-identity", "4", 4)]["ratio"] == "2")
    constant_ok = all("ratio" in r for r in reports)
    ok = not failures and pinned_ok and constant_ok
    _criterion(4, f"extension identity ratios constant across hosts and n "
                  f"on {len(reports)} (forest, order) sweeps", ok, str(failures[:3]))


def test_criterion_5_conjecture_exhaustive():
    reports = json.loads(_blob(5))
    failures = [r for r in reports if r["verdict"] != "holds"]
    # any strict inequality must surface as a structured counterexample
    structured = all("counterexample" in r for r in failures)
    ex_p3 = extremal_search(LinearForest((3,)), 5, 2).max_count
    ex_p2 = extremal_search(LinearForest((2,)), 6, 2).max_count
    ok = (not failures and structured and ex_p3 == 9 and ex_p2 == 9
          and _elapsed[5] < 600)
    _criterion(5, f"exhaustive scans confirm the Turan graph extremal on "
                  f"{len(reports)} (forest, n, k) instances up to n=7 "
                  f"({_elapsed[5]:.1f}s)", ok, str(failures[:3]))


def test_criterion_6_pinned_values():
    p2 = LinearForest((2,))
    checks = [
        count_copies_turan(LinearForest((3,)), 5, 2) == 9,
        count_copies_explicit(LinearForest((3,)),
                              explicit_multipartite(turan_parts(5, 2))) == 9,
        count_copies_turan(LinearForest((4,)), 4, 2) == 4,
        count_copies_explicit(LinearForest((4,)),
                              explicit_multipartite(turan_parts(4, 2))) == 4,
        count_copies_explicit(LinearForest((2, 2)),
                              explicit_multipartite((2, 2))) == 2,
        count_copies_turan(p2, 7, 3) == 16,
        all(count_copies_turan(p2, n, 2) == n * n // 4 for n in range(1, 13)),
    ]
    _criterion(6, "pinned exact counts (9, 4, 2, 16 and the floor(n^2/4) table)",
               all(checks), str(checks))


def test_criterion_7_determinism():
    mismatches = []
    for num in (1, 2, 3, 4, 5):
        first = _blob(num)
        clear_engine_caches()
        if _generate(num) != first:
            mismatches.append(num)
    _criterion(7, "criteria 1-5 reports byte-identical when rerun with cold caches",
               not mismatches, str(mismatches))
