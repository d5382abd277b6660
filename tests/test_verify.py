import json

import numpy as np
import pytest
from conftest import brute_copies, multipartite_edge_set

from turangood import (
    LinearForest,
    PartSizes,
    balance_trajectory,
    balancing_move,
    count_copies,
    count_copies_explicit,
    explicit_multipartite,
    verify_balancing_monotone,
    verify_conjecture,
    verify_even_extension_identity,
    verify_isolated_identity,
    verify_multipartite_max,
    verify_odd_extension_identity,
)
from turangood import verify as verify_mod
from turangood.verify import VerificationReport, partitions_at_most


class TestPartitionEnumeration:
    def test_partitions_of_five_into_two(self):
        assert list(partitions_at_most(5, 2)) == [(5,), (4, 1), (3, 2)]

    def test_counts(self):
        assert len(list(partitions_at_most(6, 6))) == 11
        assert list(partitions_at_most(0, 3)) == [()]

    def test_non_increasing(self):
        for part in partitions_at_most(9, 4):
            assert all(a >= b for a, b in zip(part, part[1:]))
            assert sum(part) == 9
            assert len(part) <= 4

    def test_matches_recursive_reference(self):
        def reference(n, k, largest=None):
            if largest is None:
                largest = n
            if n == 0:
                yield ()
                return
            if k == 0:
                return
            for first in range(min(n, largest), 0, -1):
                for rest in reference(n - first, k - 1, first):
                    yield (first,) + rest

        for n in range(26):
            for k in range(9):
                for largest in (None, *range(-1, n + 2)):
                    assert (list(partitions_at_most(n, k, largest))
                            == list(reference(n, k, largest))), (n, k, largest)


class TestMultipartiteMax:
    def test_single_edge_n5(self):
        rep = verify_multipartite_max(LinearForest((2,)), 5, 2)
        assert rep.holds
        assert rep.maximizers == ((3, 2),)
        assert rep.instances_checked == 3
        # the swept values, pinned by the explicit-graph oracle
        assert count_copies_explicit(LinearForest((2,)), explicit_multipartite((3, 2))) == 6
        assert count_copies_explicit(LinearForest((2,)), explicit_multipartite((4, 1))) == 4
        assert count_copies_explicit(LinearForest((2,)), explicit_multipartite((5,))) == 0

    def test_p4_n4(self):
        rep = verify_multipartite_max(LinearForest((4,)), 4, 2)
        assert rep.holds
        assert rep.maximizers == ((2, 2),)

    def test_isolated_vertex_ties_everywhere(self):
        rep = verify_multipartite_max(LinearForest((1,)), 4, 2)
        assert rep.holds
        assert set(rep.maximizers) == set(partitions_at_most(4, 2))

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            verify_multipartite_max(LinearForest((2,)), 5, 0)

    @pytest.mark.parametrize("comps, n, k", [((1,), 14, 5), ((3, 2), 17, 5), ((4,), 18, 4)])
    def test_chunked_sweep_matches_host_by_host(self, comps, n, k):
        # more hosts than one batch, and a last batch that is not full
        forest = LinearForest(comps)
        hosts = list(partitions_at_most(n, k))
        assert len(hosts) > verify_mod._SWEEP_CHUNK and len(hosts) % verify_mod._SWEEP_CHUNK
        counts = [count_copies(forest, h) for h in hosts]
        rep = verify_multipartite_max(forest, n, k)
        assert rep.instances_checked == len(hosts)
        assert rep.maximizers == tuple(h for h, c in zip(hosts, counts) if c == max(counts))


class TestBalancingMove:
    def test_one_four(self):
        assert balancing_move(PartSizes((1, 4)), 0, 1).sizes == (2, 3)

    def test_zero_five(self):
        assert balancing_move(PartSizes((0, 5)), 0, 1).sizes == (2, 3)

    def test_already_balanced_rejected(self):
        with pytest.raises(ValueError):
            balancing_move(PartSizes((2, 3)), 0, 1)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            balancing_move(PartSizes((1, 4)), 0, 0)
        with pytest.raises(ValueError):
            balancing_move(PartSizes((1, 4)), 0, 2)

    def test_result_within_one(self):
        for small in range(0, 6):
            for big in range(small + 2, 12):
                moved = balancing_move(PartSizes((small, big)), 0, 1)
                assert abs(moved.sizes[0] - moved.sizes[1]) <= 1
                assert sum(moved.sizes) == small + big


class TestBalanceTrajectory:
    def test_direct_hit(self):
        steps = balance_trajectory(PartSizes((0, 6, 3)))
        assert [s.sizes for s in steps] == [(3, 3, 3)]

    def test_already_balanced(self):
        assert balance_trajectory(PartSizes((3, 3, 2))) == []

    def test_reaches_turan_within_n_steps(self):
        from turangood import turan_parts
        for n in range(0, 15):
            for k in range(1, 5):
                for part in partitions_at_most(n, k):
                    padded = PartSizes(part + (0,) * (k - len(part)))
                    steps = balance_trajectory(padded)
                    final = steps[-1] if steps else padded
                    assert final.canonical == turan_parts(n, k).canonical
                    assert len(steps) <= max(n, 1)


class TestBalancingMonotone:
    def test_p3_on_1_4(self):
        # both counts pinned by the explicit-graph oracle first
        assert count_copies_explicit(LinearForest((3,)), explicit_multipartite((2, 3))) == 9
        assert count_copies_explicit(LinearForest((3,)), explicit_multipartite((1, 4))) == 6
        rep = verify_balancing_monotone(LinearForest((3,)), PartSizes((1, 4)))
        assert rep.holds

    def test_edge_count_on_three_parts(self):
        rep = verify_balancing_monotone(LinearForest((2,)), PartSizes((0, 6, 3)))
        assert rep.holds
        assert rep.maximizers == ((3, 3, 3),)

    def test_isolated_vertex_all_equal(self):
        rep = verify_balancing_monotone(LinearForest((1,)), PartSizes((0, 7, 2, 1)))
        assert rep.holds


class TestOddExtensionIdentity:
    def test_p3_ratio_two(self):
        # K_{2,3}: N(P2)=6, one P2 component, 3 outside vertices -> 18;
        # N(P3)=9; K_{1,4}: 4*3=12 over N(P3)=6; both give 2
        n, eset = multipartite_edge_set((2, 3))
        assert brute_copies((2,), n, eset) * 1 * 3 == 18
        assert brute_copies((3,), n, eset) == 9
        n, eset = multipartite_edge_set((1, 4))
        assert brute_copies((2,), n, eset) * 1 * 3 == 12
        assert brute_copies((3,), n, eset) == 6
        rep = verify_odd_extension_identity(LinearForest((3,)), 3, [5])
        assert rep.holds
        assert rep.ratio == "2"

    def test_precondition_rejects_p1(self):
        with pytest.raises(ValueError):
            verify_odd_extension_identity(LinearForest((1,)), 1, [3])

    def test_p5_ratio_stable_over_n(self):
        rep6 = verify_odd_extension_identity(LinearForest((5,)), 5, [6])
        rep67 = verify_odd_extension_identity(LinearForest((5,)), 5, [6, 7])
        assert rep6.holds and rep67.holds
        assert rep6.ratio == rep67.ratio == "2"

    def test_multi_component_forest(self):
        rep = verify_odd_extension_identity(LinearForest((3, 3)), 3, [6, 7])
        assert rep.holds
        # two odd components, each losing either endpoint: ratio 4
        assert rep.ratio == "4"


class TestEvenExtensionIdentity:
    def test_p4_ratio_two(self):
        # K_{2,2}: 4 edges, each leaves one edge: S = 4*2*1 = 8 over N(P4)=4
        n, eset = multipartite_edge_set((2, 2))
        assert brute_copies((4,), n, eset) == 4
        n, eset = multipartite_edge_set((2, 3))
        assert brute_copies((4,), n, eset) == 12
        rep = verify_even_extension_identity(LinearForest((4,)), 4, [4, 5])
        assert rep.holds
        assert rep.ratio == "2"

    def test_p2_ratio_one(self):
        rep = verify_even_extension_identity(LinearForest((2,)), 2, [4])
        assert rep.holds
        assert rep.ratio == "1"

    def test_two_matchings_ratio_two(self):
        rep = verify_even_extension_identity(LinearForest((2, 2)), 2, [4, 5, 6])
        assert rep.holds
        assert rep.ratio == "2"

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_even_extension_identity(LinearForest((3,)), 4, [4])


class TestIsolatedIdentity:
    def test_edge_plus_isolated(self):
        # K_{2,2}: 8 * 1 == 4 * 2
        n, eset = multipartite_edge_set((2, 2))
        assert brute_copies((2, 1), n, eset) == 8
        assert brute_copies((2,), n, eset) == 4
        rep = verify_isolated_identity(LinearForest((2, 1)), [4])
        assert rep.holds

    def test_single_vertex(self):
        rep = verify_isolated_identity(LinearForest((1,)), [3])
        assert rep.holds

    def test_two_isolated(self):
        # K_{1,3}: C(4,2)=6 pairs, 6*2 == 4*3
        n, eset = multipartite_edge_set((1, 3))
        assert brute_copies((1, 1), n, eset) == 6
        rep = verify_isolated_identity(LinearForest((1, 1)), [4])
        assert rep.holds

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_isolated_identity(LinearForest((3,)), [4])


IDENTITY_SWEEPS = pytest.mark.parametrize("verify", [
    lambda n: verify_odd_extension_identity(LinearForest((3,)), 3, n),
    lambda n: verify_even_extension_identity(LinearForest((2,)), 2, n),
    lambda n: verify_isolated_identity(LinearForest((2, 1)), n),
], ids=["odd", "even", "isolated"])
"""The three identity sweeps, each as a function of its n range."""


class TestIdentityRangeWithoutHosts:
    """No n below 2 has a host with two nonempty parts; a range of such n
    would check nothing, so it is refused rather than reported."""

    @IDENTITY_SWEEPS
    def test_refused_below_two(self, verify):
        for n_range in ([0], [1], [0, 1]):
            with pytest.raises(ValueError, match="no n >= 2"):
                verify(n_range)
        assert verify([0, 1, 2]).instances_checked == 1


class TestIdentityRangeIntegers:
    """Each n of an identity sweep must be an integer: a float or a
    string is refused, not truncated; numpy integers are accepted."""

    @IDENTITY_SWEEPS
    @pytest.mark.parametrize("bad", [5.5, "6"])
    def test_non_integer_refused(self, verify, bad):
        with pytest.raises(TypeError):
            verify([5, bad])

    @IDENTITY_SWEEPS
    def test_numpy_integer_accepted(self, verify):
        rep = verify([5, np.int64(6)])
        assert rep.params["n_range"] == [5, 6]
        assert all(type(n) is int for n in rep.params["n_range"])
        assert rep == verify([5, 6])


class TestConjecture:
    def test_p3_n5(self):
        rep = verify_conjecture(LinearForest((3,)), 5, 2)
        assert rep.holds
        assert rep.instances_checked == 1 << 10

    def test_p2_n6(self):
        rep = verify_conjecture(LinearForest((2,)), 6, 2)
        assert rep.holds

    def test_two_matchings_n5(self):
        from turangood import count_copies_turan, extremal_search
        result = extremal_search(LinearForest((2, 2)), 5, 2)
        assert result.max_count == result.turan_count == 6
        assert count_copies_turan(LinearForest((2, 2)), 5, 2) == 6
        rep = verify_conjecture(LinearForest((2, 2)), 5, 2)
        assert rep.holds

    def test_cap_propagates(self):
        with pytest.raises(ValueError):
            verify_conjecture(LinearForest((2,)), 8, 2)


class TestReports:
    def test_holding_report_rejects_counterexample(self):
        with pytest.raises(ValueError):
            VerificationReport("conjecture", {}, "holds",
                               counterexample={"x": 1}, instances_checked=1)

    def test_verdict_validated(self):
        with pytest.raises(ValueError):
            VerificationReport("conjecture", {}, "maybe", instances_checked=1)

    def test_instances_positive(self):
        with pytest.raises(ValueError):
            VerificationReport("conjecture", {}, "holds", instances_checked=0)

    def test_counterexample_roundtrip(self):
        rep = VerificationReport(
            "conjecture", {"forest": "2", "n": 5, "k": 2}, "counterexample",
            counterexample={"max_count": 7, "turan_count": 6,
                            "witnesses": [{"n": 2, "edges": [[0, 1]], "graph6": "A_"}]},
            instances_checked=1024)
        blob = json.dumps(rep.to_json_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["verdict"] == "counterexample"
        assert back["counterexample"]["max_count"] == 7
        assert back["counterexample"]["witnesses"][0]["graph6"] == "A_"

    def test_reports_deterministic(self):
        a = verify_multipartite_max(LinearForest((3, 2)), 9, 3)
        b = verify_multipartite_max(LinearForest((3, 2)), 9, 3)
        assert (json.dumps(a.to_json_dict(), sort_keys=True)
                == json.dumps(b.to_json_dict(), sort_keys=True))
        c = verify_conjecture(LinearForest((3,)), 5, 2)
        d = verify_conjecture(LinearForest((3,)), 5, 2)
        assert c.to_json_dict() == d.to_json_dict()
