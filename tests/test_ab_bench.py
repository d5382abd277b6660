"""The verdicts of ``tools/ab_bench.py`` on synthetic runs; no benchmark
is run and no subprocess started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]   # IQR 0.0375


@pytest.mark.parametrize("change, better, bound, expected", [
    # wins 10 of 10 pairs by more than the parent's IQR
    ([p - 0.1 for p in PARENT], "lower", 0.25, "better"),
    ([p + 0.1 for p in PARENT], "higher", 0.25, "better"),
    # wins 9 of 10: still better
    ([p - 0.1 for p in PARENT[:9]] + [1.5], "lower", 0.25, "better"),
    # wins 8 of 10: not better, and within the bound
    ([p - 0.1 for p in PARENT[:8]] + [1.5, 1.5], "lower", 0.25, "same"),
    # wins every pair, but the medians differ by less than the parent's IQR
    ([p - 0.01 for p in PARENT], "lower", 0.25, "same"),
    # the median worse by more than the bound
    ([p * 1.3 for p in PARENT], "lower", 0.25, "worse"),
    ([p * 0.7 for p in PARENT], "higher", 0.25, "worse"),
    # worse, but within the bound
    ([p * 1.2 for p in PARENT], "lower", 0.25, "same"),
    # the parent's spread is wider than the bound: unresolved ...
    ([p * 1.01 for p in PARENT], "lower", 0.02, "unresolved"),
    ([p - 0.01 for p in PARENT], "lower", 0.02, "unresolved"),
    # ... unless every change run beats every parent run
    ([0.968] * 10, "lower", 0.02, "same"),
    # a metric that never moves, such as ok_ratio
    ([1.0] * 10, "higher", 0.001, "same"),
    # better in every pair of the first 2 or 9 runs: too few pairs to tell
    ([p - 0.5 for p in PARENT[:2]], "lower", 0.25, "unresolved"),
    ([p - 0.1 for p in PARENT[:9]], "lower", 0.25, "unresolved"),
    # worse needs no minimum
    ([p * 1.3 for p in PARENT[:2]], "lower", 0.25, "worse"),
])
def test_verdict(change, better, bound, expected):
    parent = [1.0] * 10 if better == "higher" and bound == 0.001 else PARENT
    assert ab_bench.verdict(parent[:len(change)], change, better, bound) == expected
