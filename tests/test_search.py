import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab.search import (
    coordinate_descent_triangle,
    golden_refine,
    simplex_grid_array,
)
from oracles import enumerate_simplex


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


class TestGoldenRefine:
    def test_parabola_interior(self):
        x, f, converged = golden_refine(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-10)
        assert converged
        assert x == pytest.approx(0.3, abs=1e-6)
        assert f == pytest.approx(0.0, abs=1e-10)

    def test_maximum_at_endpoint(self):
        x, f, _ = golden_refine(lambda x: x, 0.0, 2.0, tol=1e-10)
        assert f == pytest.approx(2.0, abs=1e-6)

    def test_respects_tol(self):
        x, _, converged = golden_refine(lambda x: -abs(x - 0.25), 0.0, 1.0, tol=1e-8)
        assert converged and abs(x - 0.25) < 1e-6

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=30)
    def test_finds_random_peak(self, peak):
        x, _, _ = golden_refine(lambda x: -(x - peak) ** 2, 0.0, 1.0, tol=1e-10)
        assert x == pytest.approx(peak, abs=1e-5)


class TestCoordinateDescentTriangle:
    def test_interior_optimum(self):
        f = lambda a, b: -(a - 0.2) ** 2 - (b - 0.3) ** 2
        (a, b), v = coordinate_descent_triangle(f, (0.5, 0.25))
        assert a == pytest.approx(0.2, abs=1e-4)
        assert b == pytest.approx(0.3, abs=1e-4)
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_respects_triangle_constraint(self):
        f = lambda a, b: a + b
        (a, b), v = coordinate_descent_triangle(f, (0.1, 0.1))
        assert a + b <= 1.0 + 1e-9
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_never_worse_than_start(self):
        f = lambda a, b: math.sin(5 * a) * math.cos(3 * b)
        start = (0.4, 0.2)
        (_, _), v = coordinate_descent_triangle(f, start)
        assert v >= f(*start) - 1e-12
