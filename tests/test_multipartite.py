import json
import random
from itertools import combinations_with_replacement
from math import factorial, perm

import numpy as np
import pytest
from colour_hist import forest_hist, inj_homs
from conftest import all_forests, brute_copies_multipartite, brute_inj_homs_multipartite
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turangood import multipartite
from turangood import (
    LinearForest,
    PartSizes,
    count_copies,
    count_copies_turan,
    count_injective_homs,
    turan_parts,
    verify_multipartite_max,
)
from turangood.cli import run
from turangood.forest import edge_core
from turangood.multipartite import canonical_sizes, count_injective_homs_many
from turangood.verify import partitions_at_most


class TestPartSizes:
    def test_keeps_positions_as_given(self):
        assert PartSizes((0, 5, 3)).sizes == (0, 5, 3)

    def test_canonical_strips_zeros_and_sorts(self):
        assert PartSizes((0, 5, 3)).canonical == (5, 3)
        assert str(PartSizes((0, 5, 3))) == "5,3"

    def test_n_and_k(self):
        p = PartSizes((0, 5, 3))
        assert p.n == 8
        assert p.k == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PartSizes((2, -1))

    def test_parse(self):
        assert PartSizes.parse("2, 3").sizes == (2, 3)
        with pytest.raises(ValueError):
            PartSizes.parse("")
        with pytest.raises(ValueError):
            PartSizes.parse("2,a")


@pytest.mark.parametrize("value", [2.5, 3.0, "3", np.int64(3)],
                         ids=["float", "integral-float", "str", "numpy-int"])
def test_records_take_integers_only(value):
    # int() would truncate 2.5 and parse "3"; only integer types are taken
    if isinstance(value, np.integer):
        assert LinearForest((value,)).components == (3,)
        assert PartSizes((value,)).sizes == (3,)
        assert type(PartSizes((value,)).sizes[0]) is int
        return
    with pytest.raises(TypeError):
        LinearForest((value,))
    with pytest.raises(TypeError):
        PartSizes((value,))
    with pytest.raises(TypeError):
        count_copies(LinearForest((3,)), (value, 3))


class TestTuranParts:
    def test_examples(self):
        assert turan_parts(7, 3).sizes == (3, 2, 2)
        assert turan_parts(6, 3).sizes == (2, 2, 2)
        assert turan_parts(5, 2).sizes == (3, 2)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            turan_parts(5, 0)

    def test_shape_for_all_small_n_k(self):
        for n in range(0, 25):
            for k in range(1, 7):
                p = turan_parts(n, k)
                q, r = divmod(n, k)
                padded = (q + 1,) * r + (q,) * (k - r)  # T(n, k) with its empty parts
                assert sum(p.sizes) == n
                assert len(p.sizes) == min(k, max(n, 1))
                assert max(p.sizes) - min(p.sizes) <= 1
                assert p.canonical == PartSizes(padded).canonical


class TestCanonicalSizes:
    @pytest.mark.parametrize("parts, canonical", [
        ((), ()), ((3, 2), (3, 2)), ((1, 1, 1), (1, 1, 1)), ((3, 0), (3,)), ((2, 3), (3, 2)),
        ([3, 2], (3, 2)), ((np.int64(3), 2), (3, 2)), ((True, 1), (1, 1)),
        (PartSizes((0, 2, 5)), (5, 2)),
    ])
    def test_canonical_form(self, parts, canonical):
        got = canonical_sizes(parts)
        assert got == canonical
        assert all(type(s) is int for s in got)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            canonical_sizes((3, -1))


class TestCountInjectiveHoms:
    def test_single_edge(self):
        # ordered edges of K_{2,3}: 2 * (2*3)
        assert count_injective_homs(LinearForest((2,)), (2, 3)) == 12

    def test_path3_in_k23(self):
        # enumerated over all ordered triples of the explicit host
        assert brute_inj_homs_multipartite((3,), (2, 3)) == 18
        assert count_injective_homs(LinearForest((3,)), (2, 3)) == 18

    def test_matching_in_k22(self):
        assert brute_inj_homs_multipartite((2, 2), (2, 2)) == 16
        assert count_injective_homs(LinearForest((2, 2)), (2, 2)) == 16

    def test_path4_in_k23(self):
        assert brute_inj_homs_multipartite((4,), (2, 3)) == 24
        assert count_injective_homs(LinearForest((4,)), (2, 3)) == 24

    def test_accepts_part_sizes_value(self):
        assert count_injective_homs(LinearForest((2,)), PartSizes((3, 0, 2))) == 12


class TestCountCopies:
    def test_path3_in_k23(self):
        assert count_copies(LinearForest((3,)), (2, 3)) == 9

    def test_perfect_matchings_of_k22(self):
        assert count_copies(LinearForest((2, 2)), (2, 2)) == 2

    def test_isolated_vertices(self):
        assert count_copies(LinearForest((1,)), (5,)) == 5

    def test_edgeless_host(self):
        assert count_copies(LinearForest((2,)), (5,)) == 0

    def test_empty_forest_counts_once(self):
        assert count_copies(LinearForest(()), (3, 2)) == 1
        assert count_copies(LinearForest(()), ()) == 1

    def test_turan_shorthand(self):
        assert count_copies_turan(LinearForest((2,)), 7, 3) == 16
        assert count_copies_turan(LinearForest((4,)), 4, 2) == 4
        assert count_copies_turan(LinearForest((3,)), 5, 2) == 9


class TestCountingInvariants:
    def test_matches_brute_force_small(self):
        for comps in all_forests(4):
            forest = LinearForest(comps)
            for n in range(0, 7):
                for part in partitions_at_most(n, 3):
                    assert (count_injective_homs(forest, part)
                            == brute_inj_homs_multipartite(comps, part)), (comps, part)

    def test_permutation_invariance(self):
        import itertools
        forest = LinearForest((3, 2))
        for sizes in [(1, 2, 4), (0, 3, 3), (2, 2, 5)]:
            base = count_copies(forest, sizes)
            for perm in itertools.permutations(sizes):
                assert count_copies(forest, perm) == base

    def test_monotone_in_part_growth(self):
        for comps in all_forests(5, min_vertices=3):
            forest = LinearForest(comps)
            for part in partitions_at_most(6, 3):
                base = count_copies(forest, part)
                for i in range(len(part)):
                    grown = part[:i] + (part[i] + 1,) + part[i + 1:]
                    assert count_copies(forest, grown) >= base, (comps, part, i)

    def test_aut_divides_inj_homs(self):
        from turangood import aut_order
        for comps in all_forests(6):
            forest = LinearForest(comps)
            aut = aut_order(forest)
            for part in partitions_at_most(7, 4):
                assert count_injective_homs(forest, part) % aut == 0

    def test_vacuity(self):
        assert count_copies(LinearForest((3, 2)), (2, 2)) == 0   # 5 vertices > 4
        assert count_copies(LinearForest((3,)), (9,)) == 0       # one part, no edges
        assert count_copies(LinearForest((1, 1)), (9,)) == 36    # no edges needed

    def test_copies_times_aut_is_inj(self):
        for comps in [(3,), (2, 2), (4, 1)]:
            forest = LinearForest(comps)
            assert (brute_copies_multipartite(comps, (3, 2))
                    == count_copies(forest, (3, 2)))


@st.composite
def _bounded_lists(draw, least, total, max_len):
    """Nonempty lists of ints >= least, at most max_len long, sum <= total."""
    out = [draw(st.integers(least, total))]
    for _ in range(draw(st.integers(0, max_len - 1))):
        if total - sum(out) < least:
            break
        out.append(draw(st.integers(least, total - sum(out))))
    return out


class TestCountingCore:
    def test_path_of_1000_vertices(self, capsys):
        # far deeper than the interpreter's recursion limit
        code = run(["count", "--forest", "1000", "--parts", "500,500", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["copies"] == factorial(500) ** 2

    @settings(max_examples=40, deadline=None)
    @given(comps=_bounded_lists(1, 7, 7), sizes=_bounded_lists(0, 9, 5))
    def test_matches_brute_force_random(self, comps, sizes):
        assert (count_injective_homs(LinearForest(tuple(comps)), sizes)
                == brute_inj_homs_multipartite(tuple(comps), tuple(sizes)))

    def test_memo_order_independent(self):
        target = LinearForest((5, 3, 2))
        others = [LinearForest((4, 4, 1)), LinearForest((6, 2))]
        hosts = list(partitions_at_most(16, 4))
        shuffled = hosts[:]
        random.Random(7).shuffle(shuffled)

        def counts(order, interleave=()):
            multipartite._core_memo.cache_clear()
            out = {}
            for h in order:
                out[h] = count_injective_homs(target, h)
                for f in interleave:
                    count_injective_homs(f, h)
            return out

        alone = {h: counts([h])[h] for h in hosts}
        assert counts(hosts) == alone
        assert counts(shuffled) == alone
        # three forests in turn overflow the two-forest memo on every host
        assert counts(shuffled, others) == alone
        assert not _memo_holds(target.components)


def _hosts(largest_part: int, most_parts: int):
    """Every sorted host with at most most_parts parts, each of size 1..largest_part."""
    return [tuple(sorted(h, reverse=True)) for r in range(most_parts + 1)
            for h in combinations_with_replacement(range(1, largest_part + 1), r)]


def test_colour_histogram_matches_brute_force():
    for comps in all_forests(5):
        hist = forest_hist(comps, 3)
        for h in _hosts(2, 3):
            assert inj_homs(hist, 3, h) == brute_inj_homs_multipartite(comps, h), (comps, h)


def test_dp_equals_colour_histogram_on_the_grid():
    # N_inj(H, K_{a_1..a_k}) is a symmetric polynomial of degree at most
    # m = |V(H)| in each part size, so agreement on every sorted host of
    # at most 4 parts of size at most m fixes it on every host with at
    # most 4 parts
    multipartite._core_memo.cache_clear()
    pairs = 0
    for comps in all_forests(7, 2):
        if max(comps) < 2:
            continue
        forest, hist = LinearForest(comps), forest_hist(comps, 4)
        by_n = {}
        for h in _hosts(sum(comps), 4):
            by_n.setdefault(sum(h), []).append(h)
        for hosts in by_n.values():
            got = count_injective_homs_many(forest, hosts)
            assert got == [inj_homs(hist, 4, h) for h in hosts], comps
            pairs += len(hosts)
    assert pairs == 7841


def _plain(caps, binds, forbidden=None):
    """Ways to place len(binds) + 1 vertices on parts with the given free
    capacities, the first off the part of index forbidden (None for no
    such part) and vertex i + 1 off vertex i's part when binds[i]: the
    plain recursion over labeled parts."""
    def place(i, caps, off):
        if i > len(binds):
            return 1
        out = 0
        for p, c in enumerate(caps):
            if c and p != off:
                rest = list(caps)
                rest[p] -= 1
                out += c * place(i + 1, rest, p if i < len(binds) and binds[i] else None)
        return out

    return place(0, caps, forbidden)


class TestTail:
    """The closed forms of the last four vertices and of every edge core of
    at most four vertices, on every caps of at most 5 parts of size at
    most 5 and every marker."""

    @pytest.mark.parametrize("bind2, bind3", [(True, True), (True, False), (False, True)],
                             ids=["path", "then-P2", "then-P3"])
    def test_every_state_of_the_last_layer(self, bind2, bind3):
        binds = (bind2, bind3, True)
        small = _hosts(5, 5)
        # v1 starts a path: the roots are the states, marker -1 only
        memo = [{}]
        multipartite._fill((False, bind2, bind3, True), memo, small)
        assert memo[0] == {caps: _plain(caps, binds) for caps in small}
        # v1 follows a bound vertex: one move from the roots below reaches
        # every small caps with every marker, -1 where the move used up a part
        memo = [{}, {}]
        multipartite._fill((False, True, bind2, bind3, True), memo, _hosts(6, 6))
        states = {(caps, f): got for caps, held in memo[1].items() for f, got in held.items()}
        assert {(caps, f) for caps in small for f in {-1, *caps}} <= states.keys()
        for (caps, f), got in states.items():
            assert got == _plain(caps, binds, caps.index(f) if f > 0 else None), (caps, f)

    @pytest.mark.parametrize("core", [(2,), (3,), (4,), (2, 2)], ids=["2", "3", "4", "2,2"])
    def test_short_cores_are_counted_at_the_root(self, core):
        multipartite._core_memo.cache_clear()
        count_injective_homs(LinearForest((5,)), (2, 2, 1))
        before = multipartite._core_memo.cache_info()
        binds = tuple(t > 0 for c in core for t in range(c))[1:]
        for caps in _hosts(5, 5):
            got = count_injective_homs(LinearForest(core), caps)
            assert got == _plain(caps, binds), caps
            assert count_injective_homs(LinearForest(core + (1,)), caps) == (
                got * max(sum(caps) - sum(core), 0))
        assert multipartite._core_memo.cache_info() == before
        assert _memo_holds((5,))


def test_memo_keeps_all_positions_but_the_last_three():
    for core in all_forests(9, 5):
        if min(core) >= 2:
            flags, memo = multipartite._core_memo(core)
            assert len(memo) == sum(core) - 3 == len(flags) - 3


def _memo_holds(core):
    """Whether the memo of the core is cached.  The lookup caches it and
    makes it the most recently used."""
    misses = multipartite._core_memo.cache_info().misses
    multipartite._core_memo(core)
    return multipartite._core_memo.cache_info().misses == misses


def _memo_states(core):
    """Every (position, caps, marker) the memo of the core holds."""
    flags, memo = multipartite._core_memo(core)
    out = set()
    for pos, layer in enumerate(memo):
        for caps, held in layer.items():
            assert isinstance(held, dict) == flags[pos]
            out.update((pos, caps, f) for f in (held if flags[pos] else (-1,)))
    return out


def _reachable_states(core, roots):
    """(position, caps, marker) reachable from the roots by the plain move
    rule: the next vertex takes any part but the forbidden one, and when
    it must be adjacent to the vertex after it, its part becomes the
    forbidden one.  The deepest four positions are left out, as in the memo."""
    flags = [t > 0 for c in core for t in range(c)]
    seen = set()
    layer = {(tuple(caps), -1) for caps in roots}
    for pos in range(len(flags) - 3):
        seen.update((pos, caps, f) for caps, f in layer)
        nxt = set()
        for caps, f in layer:
            for i, c in enumerate(caps):
                if i and caps[i - 1] == c:
                    continue
                if caps.count(c) == 1 and c == f:
                    continue
                rest = list(caps)
                rest[i] = c - 1
                succ = tuple(sorted((x for x in rest if x), reverse=True))
                nxt.add((succ, c - 1 if flags[pos + 1] and c > 1 else -1))
        layer = nxt
    return seen


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(comps=_bounded_lists(1, 7, 7), n=st.integers(0, 8), data=st.data())
    def test_batch_matches_brute_force(self, comps, n, data):
        def host(cuts):
            bounds = [0, *sorted(cuts), n]
            return [b - a for a, b in zip(bounds, bounds[1:])]   # zeros included

        cuts = st.lists(st.integers(0, n), max_size=4)
        hosts = data.draw(st.lists(cuts.map(host), min_size=1, max_size=6))
        hosts += data.draw(st.lists(st.sampled_from(hosts), max_size=3))   # duplicates
        warm = data.draw(st.lists(st.sampled_from(hosts), max_size=2))     # in the memo already
        forest = LinearForest(tuple(comps))
        multipartite._core_memo.cache_clear()
        for h in warm:
            count_injective_homs(forest, h)
        assert (count_injective_homs_many(forest, hosts)
                == [brute_inj_homs_multipartite(forest.components, tuple(h)) for h in hosts])

    def test_empty_batch(self):
        assert count_injective_homs_many(LinearForest((3, 2)), []) == []

    def test_mixed_n_rejected(self):
        with pytest.raises(ValueError):
            count_injective_homs_many(LinearForest((3, 2)), [(3, 2), (3, 3)])

    @pytest.mark.parametrize("comps, n, k", [((4, 3, 2), 14, 4), ((6,), 17, 5), ((3, 2, 1), 12, 6)])
    def test_memo_holds_exactly_the_reachable_states(self, comps, n, k):
        multipartite._core_memo.cache_clear()
        forest = LinearForest(comps)
        core, _ = edge_core(forest.components, n)
        lone = turan_parts(n, k).canonical
        count_injective_homs(forest, lone)
        assert _memo_states(core) == _reachable_states(core, [lone])
        verify_multipartite_max(forest, n, k)
        assert _memo_states(core) == _reachable_states(core, partitions_at_most(n, k))


class TestEdgeCore:
    @settings(max_examples=60, deadline=None)
    @given(comps=st.lists(st.integers(1, 4), max_size=2), r=st.integers(0, 3),
           sizes=st.lists(st.integers(0, 3), max_size=3))
    @example(comps=[2], r=1, sizes=[])        # a host with no parts
    @example(comps=[3], r=2, sizes=[2, 2])    # more vertices than the host
    @example(comps=[], r=3, sizes=[0, 0])     # isolated vertices only, n = 0
    def test_isolated_vertices_are_one_factor(self, comps, r, sizes):
        m, n = sum(comps), sum(sizes)
        grown = LinearForest(tuple(comps) + (1,) * r)
        got = count_injective_homs(grown, sizes)
        assert got == brute_inj_homs_multipartite(grown.components, tuple(sizes))
        base = count_injective_homs(LinearForest(tuple(comps)), sizes)
        assert got == (base * perm(n - m, r) if m + r <= n else 0)

    def test_forests_with_one_core_share_a_memo_entry(self):
        forests = [LinearForest((4, 2) + (1,) * r) for r in range(4)]
        hosts = list(partitions_at_most(11, 4))
        pairs = [(f, h) for f in forests for h in hosts]
        cold = {}
        for f, h in pairs:
            multipartite._core_memo.cache_clear()
            cold[f, h] = count_injective_homs(f, h)
        for seed in range(3):
            random.Random(seed).shuffle(pairs)
            multipartite._core_memo.cache_clear()
            assert {(f, h): count_injective_homs(f, h) for f, h in pairs} == cold
            assert multipartite._core_memo.cache_info().currsize == 1
            assert _memo_holds((4, 2))

    def test_isolated_identity_alternation_uses_one_entry(self):
        multipartite._core_memo.cache_clear()
        forest = LinearForest((3, 2, 1))
        for n in range(2, 9):
            for a in range(1, n // 2 + 1):
                count_copies(forest, (n - a, a))
                count_copies(LinearForest((3, 2)), (n - a, a))
        assert multipartite._core_memo.cache_info().currsize == 1
        assert _memo_holds((3, 2))

    def test_path_states_grow_linearly(self):
        # a marker-free memo (caps alone) would visit every unbalanced
        # pair of capacities: about n^2 / 4 states here
        multipartite._core_memo.cache_clear()
        count_injective_homs(LinearForest((1000,)), (500, 500))
        assert len(_memo_states((1000,))) <= 2 * 1000

    def test_too_large_forest_builds_nothing(self, monkeypatch, capsys):
        def refuse(components):
            raise AssertionError("back-edge flags built for a forest that cannot fit")

        monkeypatch.setattr(multipartite, "back_edge_flags", refuse)
        assert count_injective_homs(LinearForest((10 ** 7,)), (1,)) == 0
        assert run(["count", "--forest", "10000000", "--parts", "1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["copies"] == 0
