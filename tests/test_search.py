import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab.search import (
    GOLDEN_TOL,
    coordinate_descent_triangle,
    first_near_max,
    golden_refine,
    simplex_grid_array,
)
from oracles import enumerate_simplex

STEPS = (0.02, 0.005, 0.001)


class TestSimplexEnumeration:
    @given(st.integers(1, 5), st.integers(1, 8))
    @settings(max_examples=40)
    def test_count_matches_formula(self, dims, res):
        assert simplex_grid_array(dims, res).shape == (math.comb(res + dims - 1, dims - 1), dims)

    def test_points_sum_to_one(self):
        for p in simplex_grid_array(3, 4):
            assert sum(p) == pytest.approx(1.0, abs=1e-12)
            assert all(x >= 0 for x in p)

    def test_lexicographic_order(self):
        assert simplex_grid_array(2, 2).tolist() == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
        assert simplex_grid_array(1, 3).tolist() == [[1.0]]

    def test_no_duplicates(self):
        pts = {tuple(np.round(p, 12)) for p in simplex_grid_array(3, 6)}
        assert len(pts) == math.comb(6 + 3 - 1, 3 - 1)

    def test_array_matches_generator(self):
        # The recursive listing is the oracle for the stars-and-bars rows.
        for k in range(1, 7):
            for m in range(1, 13):
                oracle = np.array(list(enumerate_simplex(k, m)))
                assert np.array_equal(simplex_grid_array(k, m), oracle), (k, m)


class TestFirstNearMax:
    @staticmethod
    def rows_of(table):
        calls = []

        def values(i):
            calls.append(i)
            return np.asarray(table[i])
        return values, calls

    def test_tie_across_rows_takes_the_first_row(self):
        values, _ = self.rows_of([[0.1, 0.5], [0.5 + 1e-13, 0.2], [0.3, 0.3]])
        assert first_near_max(values, 3, 1e-12) == (0, 1, 0.5)

    def test_value_just_outside_the_band_loses(self):
        values, _ = self.rows_of([[0.1, 0.5 - 2e-12], [0.2, 0.5]])
        assert first_near_max(values, 2, 1e-12) == (1, 1, 0.5)

    def test_zero_tol_takes_the_first_strict_maximum(self):
        values, _ = self.rows_of([[0.1, 0.5 - 1e-15], [0.5, 0.5]])
        assert first_near_max(values, 2, 0.0) == (1, 0, 0.5)

    def test_first_row_wins(self):
        values, _ = self.rows_of([[0.9, 0.1], [0.2, 0.8]])
        assert first_near_max(values, 2, 1e-12) == (0, 0, 0.9)

    def test_c_order_within_a_2d_row(self):
        row = np.array([[0.0, 0.1, 0.2], [0.7, 0.0, 0.7]])
        values, _ = self.rows_of([np.zeros((2, 3)), row])
        r, k, v = first_near_max(values, 2, 0.0)
        assert (r, np.unravel_index(k, row.shape), v) == (1, (1, 0), 0.7)

    def test_all_rows_equal_takes_the_first_entry(self):
        # Every candidate scores 0, as on a channel that carries nothing.
        values, _ = self.rows_of([np.zeros(4)] * 3)
        assert first_near_max(values, 3, 1e-12) == (0, 0, 0.0)

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_scores_each_row_once_and_the_winner_again(self, rows):
        values, calls = self.rows_of([[float(i % 3), 1.0] for i in range(rows)])
        first_near_max(values, rows, 0.0)
        assert len(calls) == rows + 1


class TestGoldenRefine:
    def test_parabola_interior(self):
        x, f, converged = golden_refine(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert converged
        assert x == pytest.approx(0.3, abs=1e-6)
        assert f == pytest.approx(0.0, abs=1e-10)

    def test_maximum_at_endpoint(self):
        x, f, _ = golden_refine(lambda x: x, 0.0, 2.0)
        assert f == pytest.approx(2.0, abs=1e-6)

    def test_respects_tol(self):
        x, _, converged = golden_refine(lambda x: -abs(x - 0.25), 0.0, 1.0)
        assert converged and abs(x - 0.25) < GOLDEN_TOL

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=30)
    def test_finds_random_peak(self, peak):
        x, _, _ = golden_refine(lambda x: -(x - peak) ** 2, 0.0, 1.0)
        assert x == pytest.approx(peak, abs=1e-5)


class TestCoordinateDescentTriangle:
    def test_interior_optimum(self):
        f = lambda a, b: -(a - 0.2) ** 2 - (b - 0.3) ** 2
        (a, b), v = coordinate_descent_triangle(f, (0.5, 0.25), STEPS)
        assert a == pytest.approx(0.2, abs=1e-4)
        assert b == pytest.approx(0.3, abs=1e-4)
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_respects_triangle_constraint(self):
        f = lambda a, b: a + b
        (a, b), v = coordinate_descent_triangle(f, (0.1, 0.1), STEPS)
        assert a + b <= 1.0 + 1e-9
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_never_worse_than_start(self):
        f = lambda a, b: math.sin(5 * a) * math.cos(3 * b)
        start = (0.4, 0.2)
        (_, _), v = coordinate_descent_triangle(f, start, STEPS)
        assert v >= f(*start) - 1e-12
