"""Closed-form achievable-rate bounds for the Gaussian two-way relay channel.

Implements the general hybrid analog/digital region over (alpha, beta,
sigma2), its compress-forward (nnc), amplify-forward (af) and digital-hybrid
special cases, a derived cutset reference, deterministic parameter
optimization and the node-distance sweep used for comparison plots.

`nnc` and the digital-hybrid corner `hc_special` are one quantize-forward
(qf) family: user k's `hc_special` terms are `nnc`'s at sigma2 / (1 + Sa_k),
Sa_k the SNR of the relay's link to user k's receiver (S23 for R1, S13 for
R2).  One terms function and one sigma2 candidate list serve both, at the
per-user scales of `_qf_scales`.

All rates are in bits per transmission, in one arithmetic: numpy's sqrt and
log2, which give the same bits on a scalar as on any element of an array.
The rate terms (`_qf_terms`, `_hc_general_terms`) take sigma2 (and alpha,
beta) as scalars or broadcastable arrays.  Each rate is the first minimum of
its two terms, clamped at 0.  Every search evaluation scores the clamped sum
with `_grid_sums`, on arrays and scalars alike, so a grid maximum is the
maximum a scalar loop over the same points would find; `_clamp_pair` builds
only the reported points.  `nnc` and `hc_special` score a finite set of
closed-form sigma2 candidates that holds the exact optimum, in one array
call; `hc_general` is searched by a batched grid, golden section over sigma2
and coordinate descent over (alpha, beta).  SNRs above SNR_MAX are rejected:
beyond it the general region overflows or divides by zero.

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
from .search import coordinate_descent_triangle, first_near_max, golden_refine

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


def _grid_sums(r1_terms, r2_terms):
    """Sum rates of scalar or array terms, clamped as `_clamp_pair` clamps a
    reported point; every search evaluation scores with this."""
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


def _qf_scales(ch: GaussianTwrcParams, scheme: str) -> tuple[float, float]:
    """Per-user sigma2 scales: (1, 1) for `nnc`, (1 + S23, 1 + S13) for
    `hc_special`."""
    return (1.0, 1.0) if scheme == "nnc" else (1.0 + ch.S23, 1.0 + ch.S13)


def _qf_terms(ch: GaussianTwrcParams, sigma2, scales):
    """(R1 terms, R2 terms) of a quantize-forward corner; sigma2 may be an
    array.  User k's are compress-forward's at sigma2 / scales[k], multiplied
    out so that scales (1, 1) give compress-forward's bits."""
    A1, A2 = scales
    return ((gauss_c(ch.S31 * A1 / (A1 + sigma2)), gauss_c(ch.S23) - gauss_c(A1 / sigma2)),
            (gauss_c(ch.S32 * A2 / (A2 + sigma2)), gauss_c(ch.S13) - gauss_c(A2 / sigma2)))


def _qf_rates(ch: GaussianTwrcParams, sigma2: float, scheme: str) -> RatePoint:
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return _clamp_pair(*_qf_terms(ch, sigma2, _qf_scales(ch, scheme)), scheme)


def nnc_rates(ch: GaussianTwrcParams, sigma2: float) -> RatePoint:
    """Compress-forward (noisy network coding) corner at quantizer noise sigma2."""
    return _qf_rates(ch, sigma2, "nnc")


def af_rates(ch: GaussianTwrcParams) -> RatePoint:
    """Amplify-forward corner (no free parameters)."""
    r1 = gauss_c(ch.S23 * ch.S31 / (1.0 + ch.S23 + ch.S31 + ch.S32))
    r2 = gauss_c(ch.S13 * ch.S32 / (1.0 + ch.S13 + ch.S31 + ch.S32))
    return RatePoint(float(r1), float(r2), "af")


def hc_special_rates(ch: GaussianTwrcParams, sigma2: float) -> RatePoint:
    """Digital-hybrid corner (alpha = 0, beta = 1) at quantizer noise sigma2;
    within a few ulps of the printed formulas."""
    return _qf_rates(ch, sigma2, "hc_special")


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
    """The sigma2 that maximizes the clamped sum rate of terms(sigma2), for
    `hc_general` at fixed (alpha, beta).

    The whole log-grid is scored in one array call; golden section in
    log-space then refines between the neighbours of its first maximum,
    scoring the same terms on scalars.
    """
    grid = _log_sigma_grid()
    vals = _grid_sums(*terms(grid))
    i = int(np.argmax(vals))
    x, v, _ = golden_refine(lambda t: _grid_sums(*terms(math.exp(t))),
                            math.log(grid[max(i - 1, 0)]), math.log(grid[min(i + 1, grid.size - 1)]))
    return math.exp(x) if v >= vals[i] else float(grid[i])


def _qf_sigma_candidates(ch: GaussianTwrcParams, scales) -> list[float]:
    """Per user, with (Sa, Sb) = (S23, S31) for user 1 and (S13, S32) for
    user 2, A its own scale, B the other user's and K = Sb * A: the
    crossing A (1 + Sb) / Sa of its two terms, the zero A / Sa of its
    increasing term, and the stationary point of its decreasing term plus
    the other user's increasing term, the positive root of
    (B - K) s^2 + 2 A B s + A B (A + K) = 0, which exists only when K > B.
    At scales (1, 1) these are (1 + Sb) / Sa, 1 / Sa and (1 + Sb) / (Sb - 1)."""
    cands = []
    for Sa, Sb, A, B in ((ch.S23, ch.S31, *scales), (ch.S13, ch.S32, *scales[::-1])):
        K = Sb * A
        if Sa > 0:
            cands += [A * (1.0 + Sb) / Sa, A / Sa]
        if K > B:
            # Both numerator terms are positive.  The discriminant / 4 is
            # A B K (A + K - B); A - B is exactly 0 at scales (1, 1), which
            # so give (1 + Sb) / (Sb - 1) bit for bit.
            AB = A * B
            cands.append((AB + math.sqrt(AB * K * ((A - B) + K))) / (K - B))
    return cands


def _best_sigma(terms, candidates: list[float]) -> float:
    """The first sigma2 of largest clamped sum among the ascending candidates,
    scored in one array call (`first_near_max`'s rule at tolerance 0).

    A candidate past DBL_MAX / SNR_MAX is dropped, since the terms form
    SNR * sigma2; every rate there is below 1e-260 bits.  With no candidate
    left every sigma2 scores 0, and sigma2 = 1 is returned.
    """
    s2 = np.sort(np.array([c for c in candidates if math.isfinite(c * SNR_MAX)] or [1.0]))
    return float(s2[np.argmax(_grid_sums(*terms(s2)))])


def optimize_scheme(ch: GaussianTwrcParams, scheme: str) -> OptimizedScheme:
    """Deterministically maximize the sum rate over the scheme's free parameters.

    For `nnc` and `hc_special` each rate is max(min(a, b), 0), a decreasing
    and b increasing in sigma2, and both clamped sums tend to 0 as sigma2 -> 0
    and as sigma2 -> inf.  So the exact optimum is among the crossings of a
    and b, the zeros of b and the stationary points of a1 + b2 and a2 + b1,
    which `_best_sigma` scores.  `hc_general` is searched by `_optimize_general`.
    """
    if scheme == "af":
        return OptimizedScheme(None, af_rates(ch))
    if scheme == "cutset":
        return OptimizedScheme(None, cutset_rates(ch))
    if scheme in ("nnc", "hc_special"):
        beta, rates = (0.0, nnc_rates) if scheme == "nnc" else (1.0, hc_special_rates)
        scales = _qf_scales(ch, scheme)
        s2 = _best_sigma(lambda s: _qf_terms(ch, s, scales), _qf_sigma_candidates(ch, scales))
        return OptimizedScheme(SchemeParams(0.0, beta, s2), rates(ch, s2))
    if scheme == "hc_general":
        return _optimize_general(ch)
    raise ValueError(f"unknown scheme {scheme!r}")


def _grid_incumbent(ch: GaussianTwrcParams) -> tuple:
    """Coarse (alpha, beta, sigma2) grid argmax: (v, alpha, beta, sigma2).

    Each alpha row is scored in one array call, and the first maximum in
    (alpha, beta, sigma2) order wins, as a scalar triple loop would pick.
    """
    step = ALPHA_BETA_STEP
    n = int(round(1.0 / step))
    s2 = _log_sigma_grid()[::6]

    def row(ia):
        betas = np.arange(n - ia + 1)[:, None] * step
        return _grid_sums(*_hc_general_terms(ch, ia * step, betas, s2))

    ia, k, v = first_near_max(row, n + 1, 0.0)
    ib, js = divmod(k, s2.size)
    return v, ia * step, ib * step, s2[js]


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
        lambda a, b: _grid_sums(*_hc_general_terms(ch, a, b, s2)),
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
    try:
        g13 = g31 = r ** (-e)
        g23 = g32 = (1.0 - r) ** (-e)
    except OverflowError:
        raise ScenarioError(f"path_loss_exp={path_loss_exp} at distance r={r} gives a gain "
                            "past the float range") from None
    return GaussianTwrcParams(S13=g13 * g13 * P, S23=g23 * g23 * P,
                              S31=g31 * g31 * P, S32=g32 * g32 * P)


# (column, scheme) of each sweep row after r, in CSV order.
SWEEP_COLUMNS = (("R_CS", "cutset"), ("R_AF", "af"), ("R_NNC", "nnc"), ("R_HC", "hc_special"))


def fig8_sweep(P: float = 10.0, r_grid=None, path_loss_exp: float = 3.0) -> list[dict]:
    """Sum-rate comparison of cutset / af / nnc / digital-hybrid versus
    relay position r.  Returns rows with keys r and the SWEEP_COLUMNS, each
    the sum rate of optimize_scheme for its scheme.  Every distance is
    checked before the first row is computed."""
    if r_grid is None:
        r_grid = [round(0.05 * i, 10) for i in range(1, 20)]
    if not r_grid:
        raise ScenarioError("r_grid must hold at least one distance")
    channels = [params_from_distance(r, P, path_loss_exp) for r in r_grid]
    return [{"r": float(r), **{col: optimize_scheme(ch, scheme).point.sum_rate
                               for col, scheme in SWEEP_COLUMNS}}
            for r, ch in zip(r_grid, channels)]


def sweep_to_csv(rows: list[dict]) -> str:
    cols = ["r"] + [col for col, _ in SWEEP_COLUMNS]
    lines = [",".join(cols)] + [",".join("%.6f" % row[c] for c in cols) for row in rows]
    return "\n".join(lines) + "\n"
