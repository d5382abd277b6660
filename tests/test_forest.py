import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import all_forests, brute_aut_order

import turangood
from turangood import (
    LinearForest,
    aut_order,
    delete_even_end_pair,
    delete_isolated,
    delete_odd_endpoint,
)
from turangood.forest import back_edge_flags, copies_from_injective_homs, edge_core


class TestCanonicalForm:
    def test_sorted_non_increasing(self):
        assert LinearForest((1, 3, 2)).components == (3, 2, 1)

    def test_parse_order_insensitive(self):
        assert LinearForest.parse("2,3,1") == LinearForest.parse("3,2,1")

    def test_parse_ignores_whitespace(self):
        assert LinearForest.parse(" 5 , 3 ,1 ") == LinearForest((5, 3, 1))

    def test_parse_print_roundtrip(self):
        f = LinearForest.parse("1,4,4,2")
        assert LinearForest.parse(str(f)) == f
        assert str(f) == "4,4,2,1"

    def test_canonicalization_idempotent(self):
        f = LinearForest((2, 5, 2))
        assert LinearForest(f.components) == f

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            LinearForest.parse("")
        with pytest.raises(ValueError):
            LinearForest.parse(" , ")

    def test_bad_component_rejected(self):
        with pytest.raises(ValueError):
            LinearForest((3, 0))
        with pytest.raises(ValueError):
            LinearForest.parse("3,-1")
        with pytest.raises(ValueError):
            LinearForest.parse("3,x")

    def test_totals(self):
        f = LinearForest((5, 3, 1))
        assert f.total_vertices == 9
        assert f.multiplicity(3) == 1
        assert f.multiplicity(2) == 0

    def test_empty_forest_is_internal_value(self):
        f = LinearForest(())
        assert f.components == ()
        assert f.total_vertices == 0
        assert str(f) == ""


class TestAutOrder:
    def test_single_vertex(self):
        assert aut_order(LinearForest((1,))) == 1

    def test_single_path_reversal(self):
        assert aut_order(LinearForest((4,))) == 2

    def test_two_matching_edges(self):
        # brute force over all 4! permutations of the 4-vertex graph gives 8
        assert brute_aut_order((2, 2)) == 8
        assert aut_order(LinearForest((2, 2))) == 8

    def test_two_paths_and_isolated(self):
        # brute force over all 7! permutations gives 8
        assert brute_aut_order((3, 3, 1)) == 8
        assert aut_order(LinearForest((3, 3, 1))) == 8

    def test_empty_forest(self):
        assert aut_order(LinearForest(())) == 1

    def test_matches_permutation_count_up_to_8_vertices(self):
        for comps in all_forests(8):
            assert aut_order(LinearForest(comps)) == brute_aut_order(comps), comps


class TestCopiesFromInjectiveHoms:
    def test_exact_division(self):
        assert copies_from_injective_homs(18, 2) == 9
        assert copies_from_injective_homs(0, 8) == 0

    def test_remainder_raises(self):
        with pytest.raises(RuntimeError, match="does not divide"):
            copies_from_injective_homs(7, 2)

    def test_remainder_raises_under_optimize(self):
        # the guard must not be an assert, which -O strips
        code = ("from turangood.forest import copies_from_injective_homs\n"
                "try:\n"
                "    copies_from_injective_homs(7, 2)\n"
                "except RuntimeError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        src = str(Path(turangood.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestBackEdgeFlags:
    def test_one_flag_per_vertex(self):
        assert back_edge_flags((3, 1, 2)) == (False, True, True, False, False, True)

    def test_empty_forest(self):
        assert back_edge_flags(()) == ()


class TestEdgeCore:
    def test_isolated_vertices_become_one_factor(self):
        # P3 takes 3 of 5 vertices; the two isolated ones fill 2 of the
        # other 2 in order: 2! ways
        assert edge_core((3, 1, 1), 5) == ((3,), 2)
        assert edge_core((4, 2, 1), 10) == ((4, 2), 4)

    def test_no_isolated_vertices(self):
        assert edge_core((3, 2), 5) == ((3, 2), 1)

    def test_isolated_only(self):
        assert edge_core((1, 1), 3) == ((), 6)
        assert edge_core((), 0) == ((), 1)

    def test_forest_larger_than_host(self):
        assert edge_core((2, 1), 2) == ((), 0)
        assert edge_core((10 ** 7,), 1) == ((), 0)


class TestDeleteOddEndpoint:
    def test_p3_shrinks_to_p2(self):
        assert delete_odd_endpoint(LinearForest((3,)), 3) == LinearForest((2,))

    def test_p5_in_larger_forest(self):
        assert delete_odd_endpoint(LinearForest((5, 2)), 5) == LinearForest((4, 2))

    def test_missing_component(self):
        with pytest.raises(ValueError):
            delete_odd_endpoint(LinearForest((2,)), 3)

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            delete_odd_endpoint(LinearForest((4,)), 4)

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            delete_odd_endpoint(LinearForest((1,)), 1)


class TestDeleteEvenEndPair:
    def test_p4_shrinks_to_p2(self):
        assert delete_even_end_pair(LinearForest((4,)), 4) == LinearForest((2,))

    def test_p2_component_vanishes(self):
        assert delete_even_end_pair(LinearForest((2, 3)), 2) == LinearForest((3,))

    def test_missing_component(self):
        with pytest.raises(ValueError):
            delete_even_end_pair(LinearForest((3,)), 4)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            delete_even_end_pair(LinearForest((3,)), 3)


class TestDeleteIsolated:
    def test_removes_one_p1(self):
        assert delete_isolated(LinearForest((2, 1))) == LinearForest((2,))

    def test_last_component_leaves_empty_forest(self):
        assert delete_isolated(LinearForest((1,))) == LinearForest(())

    def test_no_p1_present(self):
        with pytest.raises(ValueError):
            delete_isolated(LinearForest((3,)))


def test_parity_guards_reject_exactly_the_mismatches():
    for comps in all_forests(6):
        forest = LinearForest(comps)
        for order in range(1, 8):
            odd_ok = order % 2 == 1 and order >= 3 and order in comps
            even_ok = order % 2 == 0 and order in comps
            if odd_ok:
                shrunk = delete_odd_endpoint(forest, order)
                assert shrunk.total_vertices == forest.total_vertices - 1
            else:
                with pytest.raises(ValueError):
                    delete_odd_endpoint(forest, order)
            if even_ok:
                shrunk = delete_even_end_pair(forest, order)
                assert shrunk.total_vertices == forest.total_vertices - 2
            else:
                with pytest.raises(ValueError):
                    delete_even_end_pair(forest, order)
