"""Closed-form achievable-rate bounds for the Gaussian two-way relay channel.

Implements the general hybrid analog/digital region over (alpha, beta,
sigma2), its compress-forward (nnc), amplify-forward (af) and digital-hybrid
special cases, a derived cutset reference, deterministic parameter
optimization and the node-distance sweep used for comparison plots.

All rates are in bits per transmission, in one arithmetic: numpy's sqrt and
log2, which give the same bits on a scalar as on any element of an array.
Each scheme with free parameters has one rate-terms function (`_nnc_terms`,
`_hc_special_terms`, `_hc_general_terms`) that takes sigma2 (and alpha, beta)
as scalars or broadcastable arrays.  Each rate is the first minimum of its
two terms, clamped at 0: `_clamp_pair` on scalars, `_grid_sums` on arrays.
The reported points, the batched search grids, the golden-section and the
coordinate-descent refinements all evaluate these, so a grid maximum is the
maximum a scalar loop over the same points would find.  SNRs above SNR_MAX
are rejected: beyond it the general region overflows or divides by zero.

Known defect: the general-region formulas are implemented verbatim as printed
in the source material, including the (1 - alpha) factor in the second
numerator, and they overstate the rates: at r = 0.3 the fig8 scenario gets
R2 = 3.491 and a sum rate of 5.766 bits, above the per-user cutset 2.457 and
the sum cutset 4.914.  The fix moves recorded benchmark values, so it waits
for a benchmark change (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .infotheory import ScenarioError
from .search import coordinate_descent_triangle, golden_refine

SIGMA2_GRID_LO = 1e-3
SIGMA2_GRID_HI = 1e6
SIGMA2_GRID_POINTS = 120
ALPHA_BETA_STEP = 0.02
# Largest accepted SNR (150 dB).  With SNRs in {0, 1e-9, 1e-3, 0.5, 10, 1e4,
# 1e9, S/3, S}, every scheme is finite and warning-free at S = 2e15, not at 5e15.
SNR_MAX = 1e15


@dataclass(frozen=True)
class GaussianTwrcParams:
    """Received SNRs (linear scale) of a Gaussian two-way relay network.

    S_jk is the SNR at node j of the signal from node k, in [0, SNR_MAX].
    """

    S13: float
    S23: float
    S31: float
    S32: float

    def __post_init__(self):
        for name in ("S13", "S23", "S31", "S32"):
            if not 0.0 <= getattr(self, name) <= SNR_MAX:     # also rejects NaN
                raise ScenarioError(f"{name} must lie in [0, {SNR_MAX:g}]")


@dataclass(frozen=True)
class SchemeParams:
    alpha: float
    beta: float
    sigma2: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("alpha and beta must lie in [0, 1]")
        if self.alpha + self.beta > 1.0 + 1e-12:
            raise ValueError("alpha + beta must not exceed 1")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")


@dataclass(frozen=True)
class RatePoint:
    R1: float
    R2: float
    scheme: str

    @property
    def sum_rate(self) -> float:
        return self.R1 + self.R2


def gauss_c(x):
    """Gaussian capacity function C(x) = 0.5 * log2(1 + x), elementwise for x >= 0."""
    return 0.5 * np.log2(1.0 + x)


def _clamp_pair(r1_terms, r2_terms, scheme: str) -> RatePoint:
    """Each rate is the first minimum of its two terms, clamped at 0."""
    return RatePoint(max(float(min(r1_terms)), 0.0), max(float(min(r2_terms)), 0.0), scheme)


def _grid_sums(r1_terms, r2_terms) -> np.ndarray:
    """Sum rates of array-valued terms, clamped as `_clamp_pair` clamps scalars."""
    return np.maximum(np.minimum(*r1_terms), 0.0) + np.maximum(np.minimum(*r2_terms), 0.0)


def _hc_direction(Sa, Sb, S31, S32, alpha, beta, sigma2):
    """The two rate expressions of the general region for one direction.

    For R1 pass (Sa, Sb) = (S23, S31); for R2 pass (S13, S32).  The printed
    formulas for R2 mirror R1 with those substitutions.
    """
    T = S31 + S32 + 1.0
    mix = np.sqrt(alpha / T) + np.sqrt(beta * sigma2)
    mix_up = np.sqrt(alpha * (Sb + 1.0) / T) + np.sqrt(beta * sigma2)

    num1 = (alpha * Sa * (Sb + 1.0) / T + beta * Sa + 1.0) * (Sb + 1.0 + sigma2) \
        - Sa * mix_up * mix_up
    den1 = (alpha * Sa / T + beta * Sa + 1.0) * (1.0 + sigma2) - Sa * mix * mix
    expr1 = 0.5 * np.log2(num1 / den1)

    num2 = (alpha * Sa * (Sb + 1.0) / T + (1.0 - alpha) * Sa + 1.0) * (1.0 + sigma2)
    den2 = den1
    expr2 = 0.5 * np.log2(num2 / den2) - gauss_c(1.0 / sigma2)
    return expr1, expr2


def _hc_general_terms(ch: GaussianTwrcParams, alpha, beta, sigma2):
    """(R1 terms, R2 terms) of the general region; every argument after ch
    may be an array, and they broadcast."""
    return (_hc_direction(ch.S23, ch.S31, ch.S31, ch.S32, alpha, beta, sigma2),
            _hc_direction(ch.S13, ch.S32, ch.S31, ch.S32, alpha, beta, sigma2))


def hc_general_rates(ch: GaussianTwrcParams, sp: SchemeParams) -> RatePoint:
    """General hybrid-coding rate corner for given (alpha, beta, sigma2);
    it overstates the rates, a known defect (see the module docstring)."""
    return _clamp_pair(*_hc_general_terms(ch, sp.alpha, sp.beta, sp.sigma2), "hc_general")


def _nnc_terms(ch: GaussianTwrcParams, sigma2):
    """(R1 terms, R2 terms) of compress-forward; sigma2 may be an array."""
    pen = gauss_c(1.0 / sigma2)
    return ((gauss_c(ch.S31 / (1.0 + sigma2)), gauss_c(ch.S23) - pen),
            (gauss_c(ch.S32 / (1.0 + sigma2)), gauss_c(ch.S13) - pen))


def nnc_rates(ch: GaussianTwrcParams, sigma2: float) -> RatePoint:
    """Compress-forward (noisy network coding) corner at quantizer noise sigma2."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return _clamp_pair(*_nnc_terms(ch, sigma2), "nnc")


def af_rates(ch: GaussianTwrcParams) -> RatePoint:
    """Amplify-forward corner (no free parameters)."""
    r1 = gauss_c(ch.S23 * ch.S31 / (1.0 + ch.S23 + ch.S31 + ch.S32))
    r2 = gauss_c(ch.S13 * ch.S32 / (1.0 + ch.S13 + ch.S31 + ch.S32))
    return RatePoint(float(r1), float(r2), "af")


def _hc_special_terms(ch: GaussianTwrcParams, sigma2):
    """(R1 terms, R2 terms) of the digital-hybrid corner; sigma2 may be an array."""
    pen = gauss_c(1.0 / sigma2)
    return ((gauss_c(ch.S31 * (1.0 + ch.S23) / (1.0 + sigma2 + ch.S23)),
             gauss_c(ch.S23 * sigma2 / (1.0 + sigma2 + ch.S23)) - pen),
            (gauss_c(ch.S32 * (1.0 + ch.S13) / (1.0 + sigma2 + ch.S13)),
             gauss_c(ch.S13 * sigma2 / (1.0 + sigma2 + ch.S13)) - pen))


def hc_special_rates(ch: GaussianTwrcParams, sigma2: float) -> RatePoint:
    """Digital-hybrid corner (alpha = 0, beta = 1) at quantizer noise sigma2."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return _clamp_pair(*_hc_special_terms(ch, sigma2), "hc_special")


def cutset_rates(ch: GaussianTwrcParams) -> RatePoint:
    """Derived reference outer bound from the standard two-cut argument.

    Not taken from the source material (which only plots it); labeled as a
    derived reference in all outputs.
    """
    c31, c23, c32, c13 = (float(gauss_c(snr)) for snr in (ch.S31, ch.S23, ch.S32, ch.S13))
    return RatePoint(min(c31, c23), min(c32, c13), "cutset (derived reference, not from source)")


@dataclass(frozen=True)
class OptimizedScheme:
    params: SchemeParams | None
    point: RatePoint


def _log_sigma_grid() -> np.ndarray:
    return np.logspace(math.log10(SIGMA2_GRID_LO), math.log10(SIGMA2_GRID_HI),
                       SIGMA2_GRID_POINTS)


def _optimize_sigma(terms) -> float:
    """The sigma2 that maximizes the clamped sum rate of terms(sigma2).

    The whole log-grid is scored in one array call; golden section in
    log-space then refines between the neighbours of its first maximum,
    calling the same terms on scalars.
    """
    grid = _log_sigma_grid()
    vals = _grid_sums(*terms(grid))
    i = int(np.argmax(vals))
    x, v, _ = golden_refine(lambda t: _clamp_pair(*terms(math.exp(t)), "").sum_rate,
                            math.log(grid[max(i - 1, 0)]), math.log(grid[min(i + 1, grid.size - 1)]),
                            tol=1e-10, max_iter=200)
    return math.exp(x) if v >= vals[i] else float(grid[i])


def optimize_scheme(ch: GaussianTwrcParams, scheme: str) -> OptimizedScheme:
    """Deterministically maximize the sum rate over the scheme's free parameters."""
    if scheme == "af":
        return OptimizedScheme(None, af_rates(ch))
    if scheme == "cutset":
        return OptimizedScheme(None, cutset_rates(ch))
    if scheme == "nnc":
        s2 = _optimize_sigma(lambda s: _nnc_terms(ch, s))
        return OptimizedScheme(SchemeParams(0.0, 0.0, s2), nnc_rates(ch, s2))
    if scheme == "hc_special":
        s2 = _optimize_sigma(lambda s: _hc_special_terms(ch, s))
        return OptimizedScheme(SchemeParams(0.0, 1.0, s2), hc_special_rates(ch, s2))
    if scheme == "hc_general":
        return _optimize_general(ch)
    raise ValueError(f"unknown scheme {scheme!r}")


def _grid_incumbent(ch: GaussianTwrcParams) -> tuple:
    """Coarse (alpha, beta, sigma2) grid argmax: (v, alpha, beta, sigma2).

    Each alpha row is scored in one array call, and the first strict maximum
    in (alpha, beta, sigma2) order wins, as a scalar triple loop would pick.
    """
    step = ALPHA_BETA_STEP
    n = int(round(1.0 / step))
    s2 = _log_sigma_grid()[::6]
    best = (-1.0, 0.0, 0.0, s2[0])
    for ia in range(n + 1):
        alpha = ia * step
        betas = np.arange(n - ia + 1)[:, None] * step
        vals = _grid_sums(*_hc_general_terms(ch, alpha, betas, s2))
        ib, js = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[ib, js] > best[0]:
            best = (float(vals[ib, js]), alpha, int(ib) * step, s2[js])
    return best


def _optimize_general(ch: GaussianTwrcParams) -> OptimizedScheme:
    """Maximize the general-region sum rate over (alpha, beta, sigma2).

    The coarse grid is alpha, beta in steps of ALPHA_BETA_STEP with
    alpha + beta <= 1, times every sixth point of the sigma2 log-grid.
    """
    step = ALPHA_BETA_STEP
    _, alpha, beta, s2 = _grid_incumbent(ch)
    # Refine sigma2 at the incumbent (alpha, beta), then (alpha, beta) by
    # coordinate descent, then sigma2 once more.
    s2 = _optimize_sigma(lambda s: _hc_general_terms(ch, alpha, beta, s))
    (alpha, beta), _ = coordinate_descent_triangle(
        lambda a, b: _clamp_pair(*_hc_general_terms(ch, a, b, s2), "").sum_rate,
        (alpha, beta), steps=(step, step / 4, step / 20))
    s2 = _optimize_sigma(lambda s: _hc_general_terms(ch, alpha, beta, s))
    params = SchemeParams(alpha, beta, s2)
    return OptimizedScheme(params, hc_general_rates(ch, params))


def params_from_distance(r: float, P: float = 10.0, path_loss_exp: float = 3.0) -> GaussianTwrcParams:
    """Relay at distance r from node 1 on the unit segment; amplitude gains
    r_jk^(-path_loss_exp / 2)."""
    if not 0.0 < r < 1.0:
        raise ScenarioError(f"distance r={r} must lie strictly in (0, 1)")
    e = path_loss_exp / 2.0
    g13 = g31 = r ** (-e)
    g23 = g32 = (1.0 - r) ** (-e)
    return GaussianTwrcParams(S13=g13 * g13 * P, S23=g23 * g23 * P,
                              S31=g31 * g31 * P, S32=g32 * g32 * P)


def fig8_sweep(P: float = 10.0, r_grid=None, path_loss_exp: float = 3.0) -> list[dict]:
    """Sum-rate comparison of cutset / af / nnc / digital-hybrid versus
    relay position r.  Returns rows with keys r, R_CS, R_AF, R_NNC, R_HC.
    Every distance is checked before the first row is computed."""
    if r_grid is None:
        r_grid = [round(0.05 * i, 10) for i in range(1, 20)]
    if not r_grid:
        raise ScenarioError("r_grid must hold at least one distance")
    channels = [params_from_distance(r, P, path_loss_exp) for r in r_grid]
    rows = []
    for r, ch in zip(r_grid, channels):
        rows.append({
            "r": float(r),
            "R_CS": cutset_rates(ch).sum_rate,
            "R_AF": af_rates(ch).sum_rate,
            "R_NNC": optimize_scheme(ch, "nnc").point.sum_rate,
            "R_HC": optimize_scheme(ch, "hc_special").point.sum_rate,
        })
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    lines = ["r,R_CS,R_AF,R_NNC,R_HC"]
    for row in rows:
        lines.append("%.6f,%.6f,%.6f,%.6f,%.6f" % (
            row["r"], row["R_CS"], row["R_AF"], row["R_NNC"], row["R_HC"]))
    return "\n".join(lines) + "\n"
