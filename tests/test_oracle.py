import random
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations, permutations
from math import perm

import numpy as np
import pytest
from conftest import (all_forests, brute_copies, brute_inj_homs, clear_engine_caches,
                      forest_edges, multipartite_edge_set)
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
    MAX_GRAPH_VERTICES,
    WITNESS_CAP_DEFAULT,
    _clique_free_selector,
    _clique_numbers,
    _edge_bits,
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

    def test_edge_mask_equals_validated_graph(self):
        # from_edge_mask skips __init__'s symmetry check; every mask must
        # still give the graph that the validating constructor accepts
        for n in range(0, 6):
            pairs = _edge_pairs(n)
            for mask in range(1 << len(pairs)):
                adj = [0] * n
                for t, (i, j) in enumerate(pairs):
                    if mask >> t & 1:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
                assert SmallGraph.from_edge_mask(n, mask) == SmallGraph(n, tuple(adj))

    @pytest.mark.parametrize("n,mask", [(3, -1), (3, 8), (0, 1), (5, 1 << 10), (-1, 0),
                                        (11, 0)])
    def test_edge_mask_out_of_range_raises(self, n, mask):
        with pytest.raises(ValueError):
            SmallGraph.from_edge_mask(n, mask)

    def test_graph6_known_values(self):
        k4 = SmallGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert k4.to_graph6() == "C~"
        assert explicit_multipartite((2, 2)).to_graph6() == "C]"
        assert SmallGraph(1, (0,)).to_graph6() == "@"
        assert SmallGraph(5, (0,) * 5).to_graph6() == "D??"

    def test_graph6_matches_networkx_on_atlas(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g():  # every graph on <= 7 vertices, up to isomorphism
            n = h.number_of_nodes()
            edges = {tuple(sorted(e)) for e in h.edges()}
            g = SmallGraph.from_edges(n, h.edges())
            text = nx.to_graph6_bytes(h, header=False).rstrip(b"\n").decode()
            assert g.to_graph6() == text
            back = nx.from_graph6_bytes(g.to_graph6().encode())
            assert back.number_of_nodes() == n
            assert {tuple(sorted(e)) for e in back.edges()} == edges

    def test_graph6_matches_networkx_on_random_labeled_graphs(self):
        # the atlas holds one labelling per class and stops at 7 vertices
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        for n in range(MAX_GRAPH_VERTICES + 1):
            nbits = n * (n - 1) // 2
            for _ in range(25):
                g = SmallGraph.from_edge_mask(n, rng.getrandbits(nbits))
                h = nx.empty_graph(n)
                h.add_edges_from(g.edges())
                text = nx.to_graph6_bytes(h, header=False).rstrip(b"\n").decode()
                assert g.to_graph6() == text


class TestExplicitMultipartite:
    def test_k22_is_four_cycle(self):
        g = explicit_multipartite((2, 2))
        assert graphs_equal(g, 4, {(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_triangle(self):
        g = explicit_multipartite((1, 1, 1))
        assert graphs_equal(g, 3, {(0, 1), (0, 2), (1, 2)})

    def test_single_part_is_edgeless(self):
        g = explicit_multipartite((3,))
        assert g.n == 3 and g.edges() == []

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


def random_graphs(rng, n, count):
    nbits = n * (n - 1) // 2
    return [SmallGraph.from_edge_mask(n, rng.randrange(1 << nbits)) for _ in range(count)]


class TestReferenceBatch:
    """The reference counter, graph by graph, against a permutation brute
    force."""

    @pytest.mark.parametrize("n", range(0, 11))
    def test_random_batches_match_permutations(self, n):
        # every forest on <= 6 vertices up to n = 7, on <= 4 vertices
        # from n = 8 on; below n = 6 this includes forests larger than n
        rng = random.Random(100 + n)
        for comps in [()] + all_forests(6 if n <= 7 else 4):
            for g in random_graphs(rng, n, rng.randint(1, 4)):
                assert (count_injective_homs_explicit(LinearForest(comps), g)
                        == brute_inj_homs(comps, n, set(g.edges()))), (n, comps)

    def test_edge_cases(self):
        rng = random.Random(7)
        graphs = random_graphs(rng, 5, 6)
        for comps, want in [((), 1), ((4, 2), 0), ((1,) * 5, 120)]:
            assert [count_injective_homs_explicit(LinearForest(comps), g)
                    for g in graphs] == [want] * 6
        assert count_injective_homs_explicit(LinearForest(()), SmallGraph(0, ())) == 1
        assert count_injective_homs_explicit(LinearForest((1,)), SmallGraph(0, ())) == 0

    def test_exact_at_the_lane_bound(self):
        # every lane and every total the counter can meet is at most
        # perm(MAX_GRAPH_VERTICES, MAX_GRAPH_VERTICES): it must stay below
        # 2^_LANE - 1, so no lane carries and the final modulus is exact
        top = MAX_GRAPH_VERTICES
        assert perm(top, top) < 2 ** oracle._LANE - 1
        k10 = explicit_multipartite((1,) * top)
        no_edge = SmallGraph.from_edges(top, [e for e in k10.edges() if e != (0, 1)])
        path = LinearForest((top,))
        got = [count_injective_homs_explicit(path, g) for g in (k10, no_edge)]
        # Hamiltonian paths as vertex sequences; 2 * 9! of them use edge 01
        assert got == [perm(top, top), perm(top, top) - 2 * perm(top - 1, top - 1)]
        assert all(type(c) is int for c in got)
        assert count_injective_homs_explicit(LinearForest((1,) * top), k10) == perm(top, top)
        assert count_injective_homs_explicit(LinearForest((2,) * 5), k10) == perm(top, top)

    @pytest.mark.parametrize("n", [5, 8, 10])
    def test_chunks_bound_the_arrays(self, n):
        # 500 graphs, one call each; paths and matchings keep every layer
        # full.  From cold caches, so the lane masks and vertex lists are
        # counted
        graphs = random_graphs(random.Random(n), n, 500)
        for comps in [(n,), (2,) * (n // 2)]:
            forest = LinearForest(comps)
            oracle._without.cache_clear()
            oracle._members.cache_clear()
            tracemalloc.start()
            try:
                for g in graphs:
                    count_injective_homs_explicit(forest, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= oracle._ref_peak_bytes(n), (n, comps, peak)


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
    """The transform-based per-graph counts must equal the reference counter."""

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
                ok = _clique_free_selector(n, r, 0, 1 << nbits)
                for mask in range(1 << nbits):
                    g = SmallGraph.from_edge_mask(n, mask)
                    assert bool(ok[mask]) == is_clique_free(g, r)

    def test_edge_pair_order_matches_graph6(self):
        assert _edge_pairs(4) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))

    def test_edge_bits_follow_pair_order(self):
        for n in range(MAX_GRAPH_VERTICES + 1):
            bits = _edge_bits(n)
            assert len(bits) == n and all(len(row) == n for row in bits)
            for v in range(n):
                assert bits[v][v] == 0
            for t, (i, j) in enumerate(_edge_pairs(n)):
                assert bits[i][j] == bits[j][i] == 1 << t
                assert SmallGraph.from_edge_mask(n, bits[i][j]).edges() == [(i, j)]


def _brute_selector(n, r):
    """Clique-free flags by testing every mask against every clique mask."""
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    bits = _edge_bits(n)
    bad = np.zeros(masks.size, dtype=bool)
    for group in combinations(range(n), r):
        em = sum(bits[i][j] for i, j in combinations(group, 2))
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
        monkeypatch.setattr(oracle, "_placement_histogram", allocates)
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
            assert not _clique_numbers(n).flags.writeable
            for r in (3, 4, 5):
                ok = _clique_free_selector(n, r, 0, 1 << nbits)
                assert ok.dtype == bool and ok.size == 1 << nbits
                for mask in [0, (1 << nbits) - 1] + [random.randrange(1 << nbits)
                                                     for _ in range(40)]:
                    g = SmallGraph.from_edge_mask(n, mask)
                    assert bool(ok[mask]) == is_clique_free(g, r)

    def test_closure_selector_matches_brute_numpy(self):
        for r in (2, 3, 4, 7):
            assert np.array_equal(_clique_free_selector(6, r, 0, 1 << 15),
                                  _brute_selector(6, r))

    @pytest.mark.parametrize("shard_bits", [10, 18])
    def test_scan_witnesses_are_first_ties(self, monkeypatch, shard_bits):
        # a cached result would skip the scan at this shard size, and the
        # lane path at n = 6 has no shards
        oracle._core_search.cache_clear()
        monkeypatch.setattr(oracle, "_SHARD_SIZE", 1 << shard_bits)
        monkeypatch.setattr(oracle, "_SMALL_N", -1)
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

    def test_preflight_only_on_cache_misses(self, monkeypatch):
        # a search whose core result is cached builds no array: it does
        # not read the available memory again
        reads = []
        monkeypatch.setattr(oracle, "_mem_available", lambda: reads.append(1))
        clear_engine_caches()
        for n in (5, 7):  # either side of _SMALL_N
            extremal_search(LinearForest((3,)), n, 2)
            assert len(reads) == 1
            for comps in [(3,), (3, 1), (1, 3, 1)]:
                extremal_search(LinearForest(comps), n, 2)
            assert len(reads) == 1
            reads.clear()

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
        # clique numbers of an earlier search are alive, as the latest n's
        # are kept; small shards keep the scan's temporaries below the
        # build's, which the estimate must then cover
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

    @pytest.mark.parametrize("comps", [(4, 3), (1,) * 6])
    def test_peak_estimate_covers_many_witnesses(self, comps):
        # a forest larger than n, or one of n isolated vertices, ties on
        # every triangle-free mask, so 5000 witnesses go to the reference
        # counter; its arrays stay at one chunk of graphs.  The witnesses
        # are Python objects the search returns, not arrays: their bytes
        # are measured by building them again
        clear_engine_caches()
        tracemalloc.start()
        try:
            r = extremal_search(LinearForest(comps), 6, 2, witness_cap=5000)
            peak = tracemalloc.get_traced_memory()[1]
            before = tracemalloc.get_traced_memory()[0]
            held = [SmallGraph.from_edge_mask(6, w.edge_mask()) for w in r.witnesses]
            held_bytes = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(held) == 5000
        assert peak <= oracle._peak_bytes(6) + held_bytes, (comps, peak, held_bytes)


def brute_clique_number(n, mask):
    """Order of the largest vertex set whose pairs are all edges of the
    mask; edge (u, v), u < v, is bit v(v-1)/2 + u."""
    def edge(u, v):
        return mask >> (v * (v - 1) // 2 + u) & 1

    return max(r for r in range(n + 1) for group in combinations(range(n), r)
               if all(edge(u, v) for u, v in combinations(group, 2)))


class TestCliqueNumbers:
    """The max-closed clique-number array and the shard selector read
    from it, against brute force and the clique search."""

    def test_every_mask_up_to_n5(self):
        for n in range(0, 6):
            numbers = _clique_numbers(n)
            assert numbers.dtype == np.uint8 and numbers.size == 1 << (n * (n - 1) // 2)
            assert [brute_clique_number(n, m) for m in range(numbers.size)] == numbers.tolist()

    def test_sampled_masks_n6_n7(self):
        rng = random.Random(23)
        for n in (6, 7):
            numbers = _clique_numbers(n)
            full = numbers.size - 1
            for mask in [0, full] + [rng.randrange(full) for _ in range(150)]:
                assert int(numbers[mask]) == brute_clique_number(n, mask), (n, mask)

    def test_selector_slices_match_clique_search(self):
        # r = n + 1 and r far past 255 select every mask: the uint8
        # entries must compare against any int, not wrap
        rng = random.Random(29)
        for n in range(1, 8):
            size = 1 << (n * (n - 1) // 2)
            for r in [*range(2, n + 2), 256, 257, 100001]:
                if size <= 1024:
                    lo, hi = 0, size
                    masks = range(size)
                else:
                    lo = rng.randrange(size)
                    hi = rng.randrange(lo, size) + 1
                    masks = [lo, hi - 1] + [rng.randrange(lo, hi) for _ in range(60)]
                ok = _clique_free_selector(n, r, lo, hi)
                assert ok.dtype == bool and ok.size == hi - lo
                for mask in masks:
                    g = SmallGraph.from_edge_mask(n, mask)
                    assert bool(ok[mask - lo]) == is_clique_free(g, r), (n, r, mask)
                if r > n:
                    assert _clique_free_selector(n, r, 0, size).all(), (n, r)


class TestEngineCaches:
    """No count array outlives the call that builds it, and the clique
    numbers of the latest n are kept; both caches count every build."""

    def test_count_arrays_are_not_kept(self):
        clear_engine_caches()
        refs = [weakref.ref(_inj_counts_all_graphs(7, comps))
                for comps in [(3,), (2, 2), (3,)]]
        assert [ref() for ref in refs] == [None] * 3
        info = _inj_counts_all_graphs.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (0, 3, 0, 0)

    def test_clique_numbers_keep_the_latest_n(self):
        clear_engine_caches()
        for n in (7, 6, 7):
            _clique_numbers(n)
        info = _clique_numbers.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (0, 3, 1, 1)
        assert _clique_numbers(7) is _clique_numbers(7)
        assert _clique_numbers.cache_info().hits == 2
        clear_engine_caches()
        assert _clique_numbers.cache_info().currsize == 0


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
        for op, dtype, vals in [(np.add, np.uint16, np.array(values, dtype=np.uint16)),
                                (np.logical_or, bool, True)]:
            dense = np.zeros(1 << nbits, dtype=dtype)
            dense[seeds] = vals
            _zeta(dense, nbits, op)
            got = _seeded_zeta(np.array(seeds, dtype=np.int64), vals, nbits, dtype, op)
            assert got.dtype == dtype
            assert np.array_equal(got, dense)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lane_sums_match_dense(self, data):
        # at most 40 seeds of at most 1638: no sum reaches 2^16
        nbits = data.draw(st.integers(0, 12), label="nbits")
        seeds = data.draw(st.dictionaries(st.integers(0, (1 << nbits) - 1),
                                          st.integers(0, 0xFFFF // 40), max_size=40),
                          label="seeds")
        dense = np.zeros(1 << nbits, dtype=np.int64)
        dense[list(seeds)] = list(seeds.values())
        _zeta(dense, nbits, np.add)
        assert oracle._lane_sums(seeds.items(), nbits).tolist() == dense.tolist()

    @pytest.mark.parametrize("row_bits, block_bits", [(2, 5), (3, 3), (4, 2)])
    def test_blocked_zeta_matches_dense(self, monkeypatch, row_bits, block_bits):
        # nbits below, at and above the block: the bits between the rows
        # and the block run block by block, the rest on the whole array;
        # a block below the rows is as large as a row
        monkeypatch.setattr(oracle, "_ROW_BITS", row_bits)
        monkeypatch.setattr(oracle, "_BLOCK_BITS", block_bits)
        rng = np.random.default_rng(row_bits * 10 + block_bits)
        for nbits in range(0, block_bits + 4):
            for density in (0.05, 0.5, 1.0):
                seeds = np.flatnonzero(rng.random(1 << nbits) < density)
                values = rng.integers(0, 64, seeds.size).astype(np.uint16)
                for op, dtype, vals in [(np.add, np.uint16, values),
                                        (np.maximum, np.uint8, values.astype(np.uint8)),
                                        (np.logical_or, bool, True)]:
                    dense = np.zeros(1 << nbits, dtype=dtype)
                    dense[seeds] = vals
                    _zeta(dense, nbits, op)
                    got = _seeded_zeta(seeds, vals, nbits, dtype, op)
                    assert np.array_equal(got, dense), (nbits, density, op)

    def test_placements_histogram(self):
        # the placements built by numpy are the m-permutations of
        # itertools.permutations, in its order, and give its histogram for
        # every forest of m <= n <= 7 vertices; a forest of more than n
        # has none
        for n in range(0, 8):
            bits = _edge_bits(n)
            for m in range(0, n + 1):
                want = [list(p) for p in permutations(range(n), m)]
                assert oracle._placements(n, m).tolist() == want, (n, m)
            for comps in [()] + all_forests(n + 2):
                m = sum(comps)
                demanded, hits = _placement_histogram(n, comps)
                if m > n:
                    assert demanded.size == hits.size == 0, (n, comps)
                    continue
                flags = oracle.back_edge_flags(comps)
                want = Counter(sum(bits[p[i - 1]][p[i]] for i in range(1, m) if flags[i])
                               for p in permutations(range(n), m))
                assert demanded.tolist() == sorted(want), (n, comps)
                assert hits.tolist() == [want[d] for d in sorted(want)], (n, comps)

    def test_histogram_matches_recursion(self):
        for n in range(0, 7):
            # the empty core, and every forest up to one vertex past n
            for comps in [()] + all_forests(n + 1):
                demanded, hits = _placement_histogram(n, comps)
                want = recursive_histogram(n, comps)
                assert demanded.tolist() == sorted(want), (n, comps)
                assert hits.tolist() == [want[m] for m in sorted(want)], (n, comps)


def brute_scan(counts, ok, cap):
    """The best count over the selected masks (0 when none is) and the
    first cap selected masks that reach it, one mask at a time."""
    best = max((int(c) for c, sel in zip(counts, ok) if sel), default=0)
    ties = [m for m in range(counts.size) if ok[m] and counts[m] == best]
    return best, tuple(ties[:cap])


def shards_of(ok, selected=None):
    """A selector of the kind ``_ties`` takes: the flags of the masks in
    [lo, hi); ``selected`` records each (lo, hi) it is called on."""
    def select(lo, hi):
        if selected is not None:
            selected.append((lo, hi))
        return ok[lo:hi]
    return select


def halves(counts, drawn=None):
    """``counts`` as the two runs ``_ties`` draws, the masks below
    size // 2 and the rest, as (first mask, counts); ``drawn`` records
    the first mask of each run when it is drawn."""
    cut = counts.size // 2
    for base, run in ((0, counts[:cut]), (cut, counts[cut:])):
        if drawn is not None:
            drawn.append(base)
        yield base, run


def brute_ties(counts, oks, cap, runs=None):
    """``_ties`` over ``counts`` with each select's best from
    ``brute_scan``, against the ties ``brute_scan`` finds."""
    want = [brute_scan(counts, ok, cap) for ok in oks]
    got = oracle._ties(halves(counts) if runs is None else runs,
                       [shards_of(ok) for ok in oks], [best for best, _ in want], cap)
    assert [tuple(ties) for ties in got] == [ties for _, ties in want]
    return want


class TestTwoPhaseScan:
    """The tie pass, given each select's best, against ``brute_scan``:
    the first ties of every select in mask order, selecting each shard
    at most once and only while a select lacks ties, and drawing no run
    past the one where every select has its cap."""

    @pytest.mark.parametrize("shard_bits", [4, 10])
    def test_random_arrays_match_brute(self, monkeypatch, shard_bits):
        monkeypatch.setattr(oracle, "_SHARD_SIZE", 1 << shard_bits)
        rng = np.random.default_rng(shard_bits)
        for size in (1, 8, 1 << 10, 1 << 12):
            for _ in range(6):
                top = int(rng.choice([1, 3, 0xFFFF]))
                counts = rng.integers(0, top + 1, size).astype(np.uint16)
                ok = rng.random(size) < rng.choice([0.0, 0.01, 0.3, 1.0])
                for cap in (0, 1, 3, 10, size + 1):
                    brute_ties(counts, [ok], cap)
                    # one run as well as two
                    brute_ties(counts, [ok], cap, [(0, counts)])

    @pytest.mark.parametrize("shard_bits", [4, 10])
    def test_edge_cases(self, monkeypatch, shard_bits):
        shard = 1 << shard_bits
        monkeypatch.setattr(oracle, "_SHARD_SIZE", shard)
        size = 4 * shard
        counts = np.zeros(size, dtype=np.uint16)
        nothing = np.zeros(size, dtype=bool)
        assert brute_ties(counts + 5, [nothing], 10) == [(0, ())]
        # best 0: the unselected masks 0..2 also count 0 and must not tie
        ok = np.zeros(size, dtype=bool)
        ok[[3, shard + 1, size - 1]] = True
        counts[3:] = 7
        counts[[3, shard + 1, size - 1]] = 0
        assert brute_ties(counts, [ok], 10) == [(0, (3, shard + 1, size - 1))]
        assert brute_ties(counts, [ok], 0) == [(0, ())]
        # best > 0: unselected masks with a higher and with the same count
        counts[:] = 2
        ok[:] = True
        ok[:4] = False
        counts[0] = 9
        tied = [1, 2, shard - 2, shard - 1, shard, shard + 1, 3 * shard]
        counts[tied] = 5
        for cap in range(7):
            assert brute_ties(counts, [ok], cap) == [(5, tuple(tied[2:2 + cap]))]

    def test_tie_pass_stops_at_the_completing_shard(self, monkeypatch):
        shard = 16
        monkeypatch.setattr(oracle, "_SHARD_SIZE", shard)
        size = 8 * shard
        counts = np.ones(size, dtype=np.uint16)
        ok = np.ones(size, dtype=bool)
        # two ties in each of shards 0, 2, 3, 4, 5; shard 1 stays below.
        # Shards 0..3 are the first run, 4..7 the second
        for s in (0, 2, 3, 4, 5):
            counts[[s * shard + 3, s * shard + 9]] = 4
        for cap, last in [(0, -1), (1, 0), (2, 0), (3, 2), (4, 2), (5, 3), (10, 5), (11, 7)]:
            selected, drawn = [], []
            [ties] = oracle._ties(halves(counts, drawn), [shards_of(ok, selected)], [4], cap)
            assert len(ties) == min(cap, 10)
            assert selected == [(s * shard, (s + 1) * shard) for s in range(last + 1)]
            # the second run is drawn only when ties are still missing
            # after the first
            assert drawn == [0, 4 * shard][:1 + (last >= 4)], cap

    @pytest.mark.parametrize("cap", [0, 1, 5, 100])
    def test_each_shard_selected_once(self, monkeypatch, cap):
        # the best, 2, lies in shards 4 and 5 alone, 16 ties in each: the
        # pass selects the shards before them once each and stops at the
        # first shard that completes the cap
        shards = {0: 0, 1: 5, 5: 5, 100: 6}[cap]
        shard = 16
        monkeypatch.setattr(oracle, "_SHARD_SIZE", shard)
        size = 6 * shard
        counts = np.arange(size, dtype=np.uint16) // (2 * shard)
        ok = np.ones(size, dtype=bool)
        selected = []
        want = brute_scan(counts, ok, cap)
        assert want[0] == 2
        ties = oracle._ties(halves(counts), [shards_of(ok, selected)], [2], cap)
        assert [tuple(t) for t in ties] == [want[1]]
        assert selected == [(lo, lo + shard) for lo in range(0, shards * shard, shard)]

    @pytest.mark.parametrize("cap", [0, 1, 5, 100])
    def test_selects_share_each_shard(self, monkeypatch, cap):
        # every select of one pass takes each shard in turn, once, while
        # it lacks ties, and gets what a pass of its own would give
        shard = 16
        monkeypatch.setattr(oracle, "_SHARD_SIZE", shard)
        rng = np.random.default_rng(cap)
        size = 6 * shard
        counts = rng.integers(0, 4, size).astype(np.uint16)
        oks = [rng.random(size) < p for p in (0.0, 0.2, 0.7, 1.0)]
        want = [brute_scan(counts, ok, size) for ok in oks]
        selected = []

        def selector(i):
            def select(lo, hi):
                selected.append((lo, i))
                return oks[i][lo:hi]
            return select

        got = oracle._ties(halves(counts), [selector(i) for i in range(len(oks))],
                           [best for best, _ in want], cap)
        assert [tuple(t) for t in got] == [ties[:cap] for _, ties in want]
        # select i takes shard lo iff fewer than cap of its ties lie below
        # lo, and the pass ends after the shard that gives every select
        # its cap
        expect = []
        for lo in range(0, size, shard):
            lacking = [i for i, (_, ties) in enumerate(want)
                       if sum(m < lo for m in ties) < cap]
            if not lacking:
                break
            expect += [(lo, i) for i in lacking]
        assert selected == expect
        # below cap 100 some select stops before the last shard
        assert len(expect) < len(oks) * size // shard or cap == 100


class TestOrbitRows:
    """The numpy path takes each k's best from the n - 1 rows of the
    lower half and K_n, and its ties from the lower half, building the
    upper half only for ties past it.  Against a whole array: every
    mask's count by one ``_seeded_zeta`` over all C(n, 2) bits, and the
    best and first ties over every selected mask."""

    @staticmethod
    def spy_builds(monkeypatch):
        """The ``half`` of every count build from now on, in call order."""
        builds = []
        build = oracle._inj_counts_all_graphs

        def spy(n, core, half=None):
            builds.append(half)
            return build(n, core, half)

        monkeypatch.setattr(oracle, "_inj_counts_all_graphs", spy)
        return builds

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_whole_array(self, monkeypatch, n):
        monkeypatch.setattr(oracle, "_SMALL_N", -1)
        builds = self.spy_builds(monkeypatch)
        search = oracle._core_search.__wrapped__
        nbits = n * (n - 1) // 2
        ks = tuple(range(1, n + 1))
        free = [_brute_selector(n, k + 1) if n < 7 else _clique_numbers(n) <= k for k in ks]
        # at n = 7 the empty core ties on every selected mask, 10 M ties
        # past the tie count, so it is compared up to n = 6
        for core in [()] * (n < 7) + [c for c in all_forests(n) if min(c) >= 2]:
            demanded, hits = _placement_histogram(n, core)
            counts = _seeded_zeta(demanded, hits, nbits, np.uint16, np.add)
            want = []
            for ok in free:
                best = int(counts[ok].max())
                want.append((best, np.flatnonzero(ok & (counts == best)).tolist()))
            above = max(len(ties) for _, ties in want) + 1
            for cap in (0, 1, 10, above):
                builds.clear()
                got = search(n, core, ks, cap)
                assert got == tuple((best, tuple(ties[:cap])) for best, ties in want), \
                    (n, core, cap)
                # the upper half is built iff some k has fewer than cap
                # ties below it; past the tie count it always is, as K_n
                # ties for k = n
                short = any(sum(m < 1 << nbits - 1 for m in ties) < cap for _, ties in want)
                assert builds == [0] + [1] * short, (n, core, cap)
                assert short or cap < above

    def test_n7_ties_lie_in_the_lower_half(self, monkeypatch):
        # at n = 7, k = 2..4 and the default cap, every edge core of at
        # most 7 vertices finds its witnesses without the upper half
        builds = self.spy_builds(monkeypatch)
        cores = [c for c in all_forests(7) if min(c) >= 2]
        assert len(cores) == 14
        for core in cores:
            found = oracle._core_search.__wrapped__(7, core, (2, 3, 4), WITNESS_CAP_DEFAULT)
            assert [len(ties) for _, ties in found] == [WITNESS_CAP_DEFAULT] * 3
        assert builds == [0] * len(cores)


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


class TestBatchedSearch:
    """One search over several k equals one search per k, on both paths;
    the first search of a request scans for every k of it."""

    CORES = [()] + [c for c in all_forests(5) if min(c) >= 2]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_batch_equals_one_search_per_k(self, n):
        search = oracle._core_search.__wrapped__
        # one k, non-adjacent k, and k at and past n
        for ks in [(3,), (1, 3), (2, 4, n, n + 3)]:
            for core in self.CORES:
                for cap in (0, 3):
                    got = search(n, core, ks, cap)
                    assert got == tuple(search(n, core, (k,), cap)[0] for k in ks), \
                        (n, core, ks, cap)

    @pytest.mark.parametrize("n", [5, 7])
    def test_request_searches_once(self, n):
        # every k of a request reads the batch that its first search
        # scanned, and gets what a search of its own from cold caches gets
        forests = [LinearForest(c) for c in [(3,), (3, 1), (2, 2)]]
        ks = (1, 2, 4, n, n + 5)
        alone = {}
        for forest in forests:
            for k in ks:
                clear_engine_caches()
                alone[forest, k] = extremal_search(forest, n, k, witness_cap=3)
        for request in [ks, range(1, n + 6), range(1, 100000)]:
            clear_engine_caches()
            for forest in forests:
                for k in ks:
                    got = extremal_search(forest, n, k, ks=request, witness_cap=3)
                    assert got == alone[forest, k], (request, forest, k)
            # one batch per edge core: (3,) and (3, 1) share theirs
            info = oracle._core_search.cache_info()
            assert (info.misses, info.hits) == (2, 13), (request, info)


class TestLanePath:
    """Up to oracle._SMALL_N the search runs on Python ints; with _SMALL_N
    patched to -1 the numpy path runs, and both must give the same
    results."""

    # every edge core on at most 6 vertices; below n = 6 some are larger
    # than n and have no placement
    CORES = [()] + [c for c in all_forests(6) if min(c) >= 2]

    def test_core_search_matches_numpy(self, monkeypatch):
        # one batch holds every k = 0..5
        search = oracle._core_search.__wrapped__
        ks = tuple(range(6))
        specs = [(n, core, ks, cap) for n in range(7) for core in self.CORES
                 for cap in (0, 1, 10)]
        lanes = [search(*spec) for spec in specs]
        monkeypatch.setattr(oracle, "_SMALL_N", -1)
        for spec, got in zip(specs, lanes):
            assert got == search(*spec), spec
        # k = 0 selects nothing, as a K_1-free graph has no vertex; k = 1
        # selects only the edgeless graph
        assert lanes[specs.index((6, (2,), ks, 10))][0] == (0, ())
        assert lanes[specs.index((6, (2,), ks, 10))][1] == (0, (0,))

    @pytest.mark.parametrize("path", ["lanes", "arrays"])
    def test_integrity_check(self, monkeypatch, capsys, path):
        # a transform that miscounts the placements at the full mask is an
        # engine defect on either path: the search raises and
        # ``verify conjecture`` exits 3 without a traceback
        from turangood.cli import run
        if path == "lanes":
            lane_sums = oracle._lane_sums

            def corrupt(seeds, nbits):
                sums = lane_sums(seeds, nbits)
                sums[-1] += 1
                return sums

            monkeypatch.setattr(oracle, "_lane_sums", corrupt)
        else:
            seeded_zeta = oracle._seeded_zeta

            def corrupt(seeds, values, nbits, dtype, op):
                a = seeded_zeta(seeds, values, nbits, dtype, op)
                if dtype is np.uint16:  # the counts, not the clique selector
                    a[-1] += 1
                return a

            monkeypatch.setattr(oracle, "_SMALL_N", -1)
            monkeypatch.setattr(oracle, "_seeded_zeta", corrupt)
        clear_engine_caches()
        message = "subset-sum transform integrity check failed"
        with pytest.raises(RuntimeError, match=message):
            extremal_search(LinearForest((3,)), 5, 2)
        assert run(["verify", "conjecture", "--forest", "3", "--n", "5", "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"turangood: internal error: RuntimeError: {message}\n"

    @pytest.mark.parametrize("edgeless_turan", [False, True])
    def test_cli_output_matches_numpy(self, monkeypatch, capsys, edgeless_turan):
        from turangood.cli import FORMATS, run
        if edgeless_turan:
            # against a one-part host every forest with an edge and at most
            # n vertices is a counterexample, reported with its witnesses
            monkeypatch.setattr(oracle, "turan_parts", lambda n, k: (n,))
        argvs = [["--forest", "3", "--n", "0..6", "--k", "2"],
                 ["--forest", "2,2", "--n", "5..6", "--k", "1..3"],
                 ["--forest", "4,3", "--n", "5..6", "--k", "2"],
                 ["--forest", "3,1,1", "--n", "6", "--k", "3", "--witnesses", "3"]]

        def outputs():
            oracle._core_search.cache_clear()
            got = []
            for argv in argvs:
                for fmt in FORMATS:
                    code = run(["verify", "conjecture", *argv, "--format", fmt])
                    got.append((code, capsys.readouterr().out))
            return got

        lanes = outputs()
        monkeypatch.setattr(oracle, "_SMALL_N", -1)
        assert outputs() == lanes
        assert {code for code, _ in lanes} == ({0, 1} if edgeless_turan else {0})


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


@pytest.mark.parametrize("n", [4, 7])  # either side of oracle._SMALL_N
class TestSelfCheck:
    """A scan that disagrees with the reference counter or the clique
    search is an engine defect: the search raises, and ``verify
    conjecture`` exits 3 without a traceback.  One edge at k = 2: the
    maximum is 2 * floor(n^2 / 4) injective maps, on the labeled
    complete bipartite graphs with balanced parts (at n = 4 the three
    4-cycles)."""

    @staticmethod
    def faulty_scans(n):
        [(best, masks)] = oracle._core_search(n, (2,), (2,), WITNESS_CAP_DEFAULT)
        assert best == 2 * (n * n // 4) and masks
        return [
            # a wrong maximum (even, as every count of one edge is): the
            # first witness does not reach it
            ((best + 2, masks), f"scan self-check failed on mask {masks[0]}"),
            # mask 7 is the triangle on vertices 0-2, with its own count 6
            ((6, (7,)), "clique filter self-check failed on mask 7"),
            # the edgeless graph, correctly counted, is below Turan
            ((0, (0,)), "scan missed the Turan graph; engine defect"),
        ]

    def test_faulty_scans_raise_in_order(self, monkeypatch, capsys, n):
        from turangood.cli import run
        argv = ["verify", "conjecture", "--forest", "2", "--n", str(n), "--k", "2"]
        for scan, message in self.faulty_scans(n):
            with monkeypatch.context() as mp:
                mp.setattr(oracle, "_core_search",
                           lambda n, core, ks, cap, scan=scan: (scan,) * len(ks))
                with pytest.raises(RuntimeError, match=message):
                    extremal_search(LinearForest((2,)), n, 2)
                assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"turangood: internal error: RuntimeError: {message}\n"


def test_oracle_equivalence_with_dp_small():
    from turangood.verify import partitions_at_most
    for comps in all_forests(4):
        forest = LinearForest(comps)
        for n in range(0, 7):
            for part in partitions_at_most(n, 3):
                g = explicit_multipartite(part)
                assert count_copies(forest, part) == count_copies_explicit(forest, g)
