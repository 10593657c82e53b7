"""Deterministic optimization helpers shared by the bound evaluators.

Simplex grids, the grid-winner rule, golden section and coordinate
descent.  All routines are pure and deterministic given their arguments.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb, sqrt
from typing import Callable

import numpy as np

GOLDEN = (sqrt(5.0) - 1.0) / 2.0
# Golden section's bracket width and step cap (converged=False when hit).
GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200
# Refinement accepts only improvements beyond this to avoid cycling on
# piecewise-smooth objectives.
IMPROVE_TOL = 1e-12
# Coordinate-descent sweeps per step size.
COORD_MAX_ROUNDS = 60


def simplex_grid_array(k: int, m: int) -> np.ndarray:
    """All pmfs on k symbols with coordinates j/m, one per row, lexicographic.

    Stars and bars: each row's counts are the gaps between k - 1 bars placed
    in slots 1 .. m + k - 1 (and the fixed ends 0 and m + k), with the bar
    positions in lexicographic order.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    rows = comb(m + k - 1, k - 1)
    dtype = np.min_scalar_type(m + k)
    bars = np.fromiter(chain.from_iterable(combinations(range(1, m + k), k - 1)),
                       dtype=dtype, count=rows * (k - 1)).reshape(rows, k - 1)
    gaps = np.diff(bars, axis=1, prepend=dtype.type(0), append=dtype.type(m + k))
    gaps -= 1
    return gaps / m


def first_near_max(values: Callable[[int], np.ndarray], rows: int,
                   tol: float) -> tuple[int, int, float]:
    """The first entry whose value is at least the largest minus tol.

    values(i) scores row i; entries are ordered by row, then in C order
    within a row.  One pass records each row's largest value, and only the
    first row that reaches the band is scored again.  Returns (row, C-order
    index within that row, value).
    """
    tops = [np.max(values(i)) for i in range(rows)]
    floor = max(tops) - tol
    row = next(i for i, top in enumerate(tops) if top >= floor)
    vals = np.ravel(values(row))
    k = int(np.argmax(vals >= floor))
    return row, k, float(vals[k])


def golden_refine(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, bool]:
    """Golden-section maximization on [lo, hi].

    Returns (x, f(x), converged); `converged` is False when GOLDEN_MAX_ITER
    steps did not shrink the bracket below GOLDEN_TOL.
    """
    if not lo < hi:
        raise ValueError("invalid bracket")
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    converged = True
    it = 0
    while b - a > GOLDEN_TOL:
        if it >= GOLDEN_MAX_ITER:
            converged = False
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        it += 1
    # Include the endpoints so monotone objectives return a bracket edge.
    cands = [(a, f(a)), (x1, f1), (x2, f2), (b, f(b))]
    best = max(cands, key=lambda t: t[1])
    return best[0], best[1], converged


def coordinate_descent_triangle(
    f: Callable[[float, float], float],
    start: tuple[float, float],
    steps: tuple[float, ...],
) -> tuple[tuple[float, float], float]:
    """Coordinate ascent of f(alpha, beta) on {a, b >= 0, a + b <= 1}.

    Feasibility is preserved at every iterate and the value never decreases.
    """
    a, b = start
    if a < 0 or b < 0 or a + b > 1 + 1e-12:
        raise ValueError("infeasible start")
    best = f(a, b)
    for step in steps:
        for _ in range(COORD_MAX_ROUNDS):
            improved = False
            for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                na, nb = a + da, b + db
                if na < -1e-15 or nb < -1e-15 or na + nb > 1 + 1e-12:
                    continue
                na, nb = max(na, 0.0), max(nb, 0.0)
                val = f(na, nb)
                if val > best + IMPROVE_TOL:
                    a, b, best = na, nb, val
                    improved = True
            if not improved:
                break
    return (a, b), best
