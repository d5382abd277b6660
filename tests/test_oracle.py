import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from conftest import (all_forests, brute_copies, brute_inj_homs, forest_edges,
                      multipartite_edge_set)
from hypothesis import given, settings
from hypothesis import strategies as st

from turangood import (
    LinearForest,
    SmallGraph,
    count_copies,
    count_copies_explicit,
    count_injective_homs_explicit,
    explicit_multipartite,
    extremal_search,
    is_clique_free,
)
from turangood import oracle
from turangood.oracle import (
    _clique_free_selector,
    _edge_index,
    _edge_pairs,
    _inj_counts_all_graphs,
    _placement_histogram,
    _seeded_zeta,
    _zeta,
)


def graphs_equal(g, n, edge_set):
    return g.n == n and set(map(tuple, g.edges())) == {tuple(sorted(e)) for e in edge_set}


class TestSmallGraph:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            SmallGraph(2, (0b10, 0b00))

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            SmallGraph(1, (0b1,))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            SmallGraph(11, (0,) * 11)

    def test_edge_mask_roundtrip(self):
        for n in range(0, 6):
            nbits = n * (n - 1) // 2
            for _ in range(20):
                mask = random.randrange(1 << nbits) if nbits else 0
                g = SmallGraph.from_edge_mask(n, mask)
                assert g.edge_mask() == mask

    def test_graph6_known_values(self):
        k4 = SmallGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert k4.to_graph6() == "C~"
        assert explicit_multipartite((2, 2)).to_graph6() == "C]"
        assert SmallGraph(1, (0,)).to_graph6() == "@"
        assert SmallGraph(5, (0,) * 5).to_graph6() == "D??"

    def test_graph6_roundtrip(self):
        random.seed(7)
        for n in range(0, 8):
            nbits = n * (n - 1) // 2
            for _ in range(25):
                mask = random.randrange(1 << nbits) if nbits else 0
                g = SmallGraph.from_edge_mask(n, mask)
                assert SmallGraph.from_graph6(g.to_graph6()) == g

    def test_graph6_matches_networkx_on_atlas(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g():  # every graph on <= 7 vertices, up to isomorphism
            n = h.number_of_nodes()
            edges = {tuple(sorted(e)) for e in h.edges()}
            g = SmallGraph.from_edges(n, h.edges())
            text = nx.to_graph6_bytes(h, header=False).rstrip(b"\n").decode()
            assert g.to_graph6() == text
            assert SmallGraph.from_graph6(text) == g
            back = nx.from_graph6_bytes(g.to_graph6().encode())
            assert back.number_of_nodes() == n
            assert {tuple(sorted(e)) for e in back.edges()} == edges


class TestExplicitMultipartite:
    def test_k22_is_four_cycle(self):
        g = explicit_multipartite((2, 2))
        assert graphs_equal(g, 4, {(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_triangle(self):
        g = explicit_multipartite((1, 1, 1))
        assert graphs_equal(g, 3, {(0, 1), (0, 2), (1, 2)})

    def test_single_part_is_edgeless(self):
        g = explicit_multipartite((3,))
        assert g.n == 3 and g.edge_count() == 0

    def test_zero_parts_stripped(self):
        assert explicit_multipartite((2, 0, 2)) == explicit_multipartite((2, 2))

    def test_cap(self):
        with pytest.raises(ValueError):
            explicit_multipartite((6, 6))


class TestCountCopiesExplicit:
    def test_p3_in_triangle(self):
        g = explicit_multipartite((1, 1, 1))
        assert count_copies_explicit(LinearForest((3,)), g) == 3

    def test_p4_in_four_cycle(self):
        g = explicit_multipartite((2, 2))
        assert count_copies_explicit(LinearForest((4,)), g) == 4

    def test_edge_plus_isolated_in_four_cycle(self):
        g = explicit_multipartite((2, 2))
        assert count_copies_explicit(LinearForest((2, 1)), g) == 8

    def test_agrees_with_permutation_brute_force(self):
        random.seed(3)
        for n in range(1, 7):
            nbits = n * (n - 1) // 2
            for _ in range(10):
                mask = random.randrange(1 << nbits) if nbits else 0
                g = SmallGraph.from_edge_mask(n, mask)
                eset = set(g.edges())
                for comps in [(2,), (3,), (2, 1), (2, 2)]:
                    assert (count_copies_explicit(LinearForest(comps), g)
                            == brute_copies(comps, n, eset))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_memoized_counter_matches_permutations(self, data):
        n = data.draw(st.integers(0, 6))
        nbits = n * (n - 1) // 2
        g = SmallGraph.from_edge_mask(n, data.draw(st.integers(0, (1 << nbits) - 1)))
        comps = [data.draw(st.integers(1, 6))]  # forests on <= 6 vertices
        while sum(comps) < 6 and data.draw(st.booleans()):
            comps.append(data.draw(st.integers(1, 6 - sum(comps))))
        assert (count_injective_homs_explicit(LinearForest(tuple(comps)), g)
                == brute_inj_homs(comps, n, set(g.edges())))


class TestIsCliqueFree:
    def test_triangle(self):
        assert is_clique_free(explicit_multipartite((1, 1, 1)), 3) is False

    def test_four_cycle(self):
        assert is_clique_free(explicit_multipartite((2, 2)), 3) is True

    def test_three_partite_has_no_k4(self):
        assert is_clique_free(explicit_multipartite((3, 2, 2)), 4) is True

    def test_multipartite_with_k_parts_is_k_plus_1_clique_free(self):
        from turangood.verify import partitions_at_most
        for n in range(1, 8):
            for part in partitions_at_most(n, 4):
                g = explicit_multipartite(part)
                assert is_clique_free(g, len(part) + 1)

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_clique_free(explicit_multipartite((2, 2)), 1)

    def test_k2_free_means_edgeless(self):
        assert is_clique_free(SmallGraph.from_edge_mask(3, 0), 2)
        assert not is_clique_free(explicit_multipartite((1, 2)), 2)


class TestScanEngine:
    """The transform-based per-graph counts must equal plain backtracking."""

    def test_all_masks_up_to_n5(self):
        for n in range(0, 6):
            nbits = n * (n - 1) // 2
            for comps in [(2,), (3,), (2, 1), (2, 2), (4,), (1,)]:
                counts = _inj_counts_all_graphs(n, comps)
                forest = LinearForest(comps)
                for mask in range(1 << nbits):
                    g = SmallGraph.from_edge_mask(n, mask)
                    assert int(counts[mask]) == count_injective_homs_explicit(forest, g)

    def test_sampled_masks_n6_n7(self):
        random.seed(11)
        for n in (6, 7):
            nbits = n * (n - 1) // 2
            for comps in [(3, 2), (5,), (2, 2, 1)]:
                counts = _inj_counts_all_graphs(n, comps)
                forest = LinearForest(comps)
                for _ in range(40):
                    mask = random.randrange(1 << nbits)
                    g = SmallGraph.from_edge_mask(n, mask)
                    assert int(counts[mask]) == count_injective_homs_explicit(forest, g)

    def test_clique_selector_matches_reference(self):
        for n in range(1, 6):
            nbits = n * (n - 1) // 2
            for r in (2, 3, 4):
                ok = _clique_free_selector(n, r)
                for mask in range(1 << nbits):
                    g = SmallGraph.from_edge_mask(n, mask)
                    assert bool(ok[mask]) == is_clique_free(g, r)

    def test_edge_pair_order_matches_graph6(self):
        assert _edge_pairs(4) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


def _brute_selector(n, r):
    """Clique-free flags by testing every mask against every clique mask."""
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    eidx = _edge_index(n)
    bad = np.zeros(masks.size, dtype=bool)
    for group in combinations(range(n), r):
        em = sum(1 << eidx[p] for p in combinations(group, 2))
        bad |= (masks & em) == em
    return ~bad


class TestLeanEngine:
    """Strided transform, uint16 counts, edge-core factor, closure selector
    and masked scan, each against a reference that does not share it."""

    @pytest.mark.parametrize("op,dtype", [(np.add, np.int64), (np.logical_or, bool)])
    def test_zeta_matches_subset_sums(self, op, dtype):
        rng = np.random.default_rng(5)
        nbits = 6  # steps 1..32: strided slices and the 2-D view both run
        a = rng.integers(0, 3, 1 << nbits).astype(dtype)
        want = np.array([op.reduce([a[t] for t in range(1 << nbits) if t & s == t])
                         for s in range(1 << nbits)], dtype=dtype)
        _zeta(a, nbits, op)
        assert np.array_equal(a, want)

    @pytest.mark.parametrize("comps", [(7,), (5, 1, 1)])
    def test_overflow_refused_before_allocation(self, monkeypatch, comps):
        def allocates(*args):
            raise AssertionError("counts allocated before the overflow guard")
        monkeypatch.setattr(oracle, "_core_counts", allocates)
        with pytest.raises(OverflowError):
            _inj_counts_all_graphs(9, comps)

    def test_count_max_is_uint16_max(self):
        assert oracle._COUNT_MAX == np.iinfo(np.uint16).max

    def test_counts_are_uint16(self):
        assert _inj_counts_all_graphs(8, (8,)).dtype == np.uint16
        assert int(_inj_counts_all_graphs(5, (3, 1)).max()) == 5 * 4 * 3 * 2

    def test_isolated_vertices_match_backtracking(self):
        random.seed(13)
        for n in (6, 7):
            nbits = n * (n - 1) // 2
            # the last two have more vertices than n
            for comps in [(3, 1, 1), (2, 1, 1, 1), (1, 1, 1), (3, 1, 1, 1, 1), (1,) * (n + 1)]:
                counts = _inj_counts_all_graphs(n, comps)
                forest = LinearForest(comps)
                if sum(comps) > n:
                    assert not counts.any()
                for mask in [0, (1 << nbits) - 1] + [random.randrange(1 << nbits)
                                                     for _ in range(30)]:
                    g = SmallGraph.from_edge_mask(n, mask)
                    assert int(counts[mask]) == count_injective_homs_explicit(forest, g)

    def test_closure_selector_matches_clique_search(self):
        random.seed(17)
        for n in (6, 7):
            nbits = n * (n - 1) // 2
            for r in (3, 4, 5):
                ok = _clique_free_selector(n, r)
                assert ok.dtype == bool and not ok.flags.writeable
                for mask in [0, (1 << nbits) - 1] + [random.randrange(1 << nbits)
                                                     for _ in range(40)]:
                    g = SmallGraph.from_edge_mask(n, mask)
                    assert bool(ok[mask]) == is_clique_free(g, r)

    def test_closure_selector_matches_brute_numpy(self):
        for r in (2, 3, 4, 7):
            assert np.array_equal(_clique_free_selector(6, r), _brute_selector(6, r))

    @pytest.mark.parametrize("shard_bits", [10, 18])
    def test_scan_witnesses_are_first_ties(self, monkeypatch, shard_bits):
        # a cached result would skip the scan at this shard size
        oracle._core_search.cache_clear()
        monkeypatch.setattr(oracle, "_SHARD_SIZE", 1 << shard_bits)
        n = 6
        for comps, k, cap in [((1,), 2, 10), ((3,), 2, 3), ((2, 2), 3, 10),
                              ((4, 1), 2, 0), ((2,), 4, 50)]:
            forest = LinearForest(comps)
            counts = _inj_counts_all_graphs(n, comps).astype(np.int64)
            ok = _brute_selector(n, k + 1)
            best = counts[ok].max()
            want = np.flatnonzero(ok & (counts == best))[:cap].tolist()
            r = extremal_search(forest, n, k, witness_cap=cap)
            assert [w.edge_mask() for w in r.witnesses] == want
            assert r.max_count * oracle.aut_order(forest) == best

    def test_memory_preflight_refuses(self, monkeypatch, capsys):
        from turangood.cli import run
        need = oracle._peak_bytes(6)
        monkeypatch.setattr(oracle, "_mem_available", lambda: need - 1)
        with pytest.raises(ValueError, match="MiB"):
            extremal_search(LinearForest((3,)), 6, 2)
        assert run(["verify", "conjecture", "--forest", "3", "--n", "6", "--k", "2"]) == 2
        assert "MiB" in capsys.readouterr().err
        monkeypatch.setattr(oracle, "_mem_available", lambda: need)
        assert extremal_search(LinearForest((3,)), 6, 2).max_count == 18
        monkeypatch.setattr(oracle, "_mem_available", lambda: None)
        assert extremal_search(LinearForest((3,)), 6, 2).max_count == 18

    def test_peak_estimate_covers_core_array(self):
        assert oracle._peak_bytes(8) >= 3 * (1 << 28)
        assert oracle._mem_available() is None or oracle._mem_available() > 0
        # numpy reports its buffers to tracemalloc; a search from cold
        # caches must allocate no more than the pre-flight assumes
        for n in (6, 7):
            for comps in [(3,), (3, 1), (2, 2, 1)]:
                clear_engine_caches()
                tracemalloc.start()
                try:
                    extremal_search(LinearForest(comps), n, 2)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= oracle._peak_bytes(n), (n, comps, peak)


    @pytest.mark.parametrize("comps", [(7,), (6,), (4, 3)])
    def test_peak_estimate_covers_seeded_rows(self, monkeypatch, comps):
        # the cores with the most seeded rows at n = 7, built while the
        # selector of an earlier search is alive, as at n = 8 where each
        # cache holds one array; small shards keep the scan's temporaries
        # below the build's, which the estimate must then cover
        monkeypatch.setattr(oracle, "_HOLD_ONE_N", 7)
        monkeypatch.setattr(oracle, "_SHARD_SIZE", 1 << 12)
        clear_engine_caches()
        tracemalloc.start()
        try:
            extremal_search(LinearForest((3,)), 7, 2)
            extremal_search(LinearForest(comps), 7, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= oracle._peak_bytes(7), (comps, peak)


def recursive_histogram(n, comps):
    """Demanded edge mask -> number of placements, by plain recursion
    over injective maps; edge (u, v), u < v, is bit v(v-1)/2 + u."""
    edges = forest_edges(comps)
    hist = Counter()

    def place(img):
        if len(img) == sum(comps):
            mask = 0
            for a, b in edges:
                u, v = sorted((img[a], img[b]))
                mask |= 1 << (v * (v - 1) // 2 + u)
            hist[mask] += 1
            return
        for v in range(n):
            if v not in img:
                place(img + (v,))

    place(())
    return hist


class TestSeededEngine:
    """The seeded transform and the numpy placement histogram, each
    against a reference that does not share it."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_seeded_zeta_matches_dense(self, data):
        nbits = data.draw(st.integers(0, 12), label="nbits")
        seeds = sorted(data.draw(st.sets(st.integers(0, (1 << nbits) - 1), max_size=40),
                                 label="seeds"))
        values = data.draw(st.lists(st.integers(0, 0xFFFF), min_size=len(seeds),
                                    max_size=len(seeds)), label="values")
        chunk = data.draw(st.integers(1, 300), label="chunk rows")
        for op, dtype, vals in [(np.add, np.uint16, np.array(values, dtype=np.uint16)),
                                (np.logical_or, bool, True)]:
            dense = np.zeros(1 << nbits, dtype=dtype)
            dense[seeds] = vals
            _zeta(dense, nbits, op)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "_CHUNK_ROWS", chunk)
                got = _seeded_zeta(np.array(seeds, dtype=np.int64), vals, nbits, dtype, op)
            assert got.dtype == dtype
            assert np.array_equal(got, dense)

    def test_histogram_matches_recursion(self):
        for n in range(0, 7):
            # the empty core, and every forest up to one vertex past n
            for comps in [()] + all_forests(n + 1):
                demanded, hits = _placement_histogram(n, comps)
                want = recursive_histogram(n, comps)
                assert demanded.tolist() == sorted(want), (n, comps)
                assert hits.tolist() == [want[m] for m in sorted(want)], (n, comps)


def clear_engine_caches():
    for fn in (oracle._core_search, _inj_counts_all_graphs, _clique_free_selector):
        fn.cache_clear()


class TestCoreSearchCache:
    """Forests that share an edge core share one cached scan; each result
    must equal a search run from cold caches."""

    SPECS = [(comps, k, cap)
             for comps in [(3,), (3, 1), (3, 1, 1), (4, 1, 1, 1),  # core (3,) or (4,)
                           (2, 2), (4,), (2, 1), (5,)]
             for k in (2, 3) for cap in (0, 3, 10)]

    def test_results_equal_cold_searches(self):
        n = 6
        cold = {}
        for comps, k, cap in self.SPECS:
            clear_engine_caches()
            cold[comps, k, cap] = extremal_search(LinearForest(comps), n, k, witness_cap=cap)
        # the core of (4, 1, 1, 1) fits, the forest does not: every count
        # is 0, so the witnesses are the first K_{k+1}-free masks
        for k in (2, 3):
            first_free = np.flatnonzero(_brute_selector(n, k + 1))[:10].tolist()
            r = cold[(4, 1, 1, 1), k, 10]
            assert r.max_count == 0
            assert [w.edge_mask() for w in r.witnesses] == first_free
        rng = random.Random(23)
        clear_engine_caches()
        for _ in range(3):
            order = self.SPECS[:]
            rng.shuffle(order)
            for comps, k, cap in order:
                got = extremal_search(LinearForest(comps), n, k, witness_cap=cap)
                assert got == cold[comps, k, cap], (comps, k, cap)
        assert oracle._core_search.cache_info().hits > 0


class TestExtremalSearch:
    def test_single_edge_n5(self):
        r = extremal_search(LinearForest((2,)), 5, 2)
        assert (r.max_count, r.turan_count) == (6, 6)
        assert r.graphs_scanned == 1 << 10

    def test_p3_n4(self):
        r = extremal_search(LinearForest((3,)), 4, 2)
        assert (r.max_count, r.turan_count) == (4, 4)

    def test_isolated_vertices_tie_everywhere(self):
        r = extremal_search(LinearForest((1,)), 3, 2)
        assert (r.max_count, r.turan_count) == (3, 3)
        # every triangle-free graph attains the maximum; witnesses keep
        # the smallest edge masks
        assert [w.edge_mask() for w in r.witnesses] == list(range(10))[:len(r.witnesses)]

    def test_witnesses_are_clique_free_maximizers(self):
        forest = LinearForest((2, 2))
        r = extremal_search(forest, 5, 2, witness_cap=5)
        assert len(r.witnesses) == 5
        for w in r.witnesses:
            assert is_clique_free(w, 3)
            assert count_copies_explicit(forest, w) == r.max_count

    def test_max_at_least_turan(self):
        for comps in [(2,), (3,), (2, 2), (4, 1)]:
            for k in (2, 3):
                r = extremal_search(LinearForest(comps), 6, k)
                assert r.max_count >= r.turan_count

    def test_cap_refusal(self):
        with pytest.raises(ValueError):
            extremal_search(LinearForest((2,)), 8, 2)
        with pytest.raises(ValueError):
            extremal_search(LinearForest((2,)), 9, 2, cap=9)

    def test_worker_counts_agree(self):
        forest = LinearForest((3, 2))
        results = [extremal_search(forest, 6, 2, workers=w) for w in (None, 1, 2, 4)]
        first = results[0]
        for r in results[1:]:
            assert r == first

    def test_forest_larger_than_host(self):
        r = extremal_search(LinearForest((4, 4)), 5, 2)
        assert (r.max_count, r.turan_count) == (0, 0)

    def test_matches_direct_scan_n4(self):
        # full independent scan: filter + per-graph backtracking
        forest = LinearForest((3,))
        best = -1
        for mask in range(1 << 6):
            g = SmallGraph.from_edge_mask(4, mask)
            if is_clique_free(g, 3):
                best = max(best, count_copies_explicit(forest, g))
        r = extremal_search(forest, 4, 2)
        assert r.max_count == best == 4

    def test_matches_atlas_maximum(self):
        # every graph on n <= 7 vertices up to isomorphism, with its clique
        # number from networkx: the maximum over the K_{k+1}-free ones,
        # counted by backtracking, is what the labeled scan must find
        nx = pytest.importorskip("networkx")
        forests = [LinearForest(c) for c in [(3,), (2, 2), (3, 1), (2, 1, 1), (4,)]]
        for n in range(5, 8):
            hosts = [(max(len(c) for c in nx.find_cliques(h)),
                      SmallGraph.from_edges(n, h.edges()))
                     for h in nx.graph_atlas_g() if h.number_of_nodes() == n]
            for forest in forests:
                counts = [(omega, count_copies_explicit(forest, g)) for omega, g in hosts]
                for k in range(1, 4):
                    best = max(c for omega, c in counts if omega <= k)
                    assert extremal_search(forest, n, k).max_count == best, (forest, n, k)


def test_oracle_equivalence_with_dp_small():
    from turangood.verify import partitions_at_most
    for comps in all_forests(4):
        forest = LinearForest(comps)
        for n in range(0, 7):
            for part in partitions_at_most(n, 3):
                g = explicit_multipartite(part)
                assert count_copies(forest, part) == count_copies_explicit(forest, g)
