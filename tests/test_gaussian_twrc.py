import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab import gaussian_twrc
from hybridlab.gaussian_twrc import (
    GaussianTwrcParams,
    RatePoint,
    SchemeParams,
    af_rates,
    fig8_sweep,
    gauss_c,
    hc_general_rates,
    hc_special_rates,
    nnc_rates,
    optimize_scheme,
    params_from_distance,
    sweep_to_csv,
)
from oracles import dense_sigma_max, hc_special_printed_terms

snr = st.floats(0.1, 50.0)


def random_params(seed):
    rng = np.random.default_rng(seed)
    s = 10 ** rng.uniform(-1, 2, size=4)
    return GaussianTwrcParams(S13=s[0], S23=s[1], S31=s[2], S32=s[3])


def qf_terms(ch, scheme):
    """The rate terms of sigma2 that optimize_scheme scores for scheme."""
    scales = gaussian_twrc._qf_scales(ch, scheme)
    return lambda s: gaussian_twrc._qf_terms(ch, s, scales)


class TestGaussC:
    def test_zero(self):
        assert gauss_c(0.0) == 0.0

    def test_unit(self):
        assert gauss_c(1.0) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(0.0, 1e4))
    def test_monotone_nonneg(self, x):
        assert gauss_c(x) >= 0.0
        assert gauss_c(x + 1.0) > gauss_c(x)


class TestSchemeRates:
    @given(snr, snr, snr, snr)
    @settings(max_examples=50)
    def test_nnc_equals_alpha_beta_zero(self, a, b, c, d):
        p = GaussianTwrcParams(S13=a, S23=b, S31=c, S32=d)
        got = hc_general_rates(p, SchemeParams(alpha=0.0, beta=0.0, sigma2=1.0))
        ref = nnc_rates(p, sigma2=1.0)
        assert got.R1 == pytest.approx(ref.R1, abs=1e-9)
        assert got.R2 == pytest.approx(ref.R2, abs=1e-9)

    @given(snr, snr, snr, snr)
    @settings(max_examples=50)
    def test_special_case_alpha0_beta1(self, a, b, c, d):
        p = GaussianTwrcParams(S13=a, S23=b, S31=c, S32=d)
        got = hc_general_rates(p, SchemeParams(alpha=0.0, beta=1.0, sigma2=2.0))
        ref = hc_special_rates(p, sigma2=2.0)
        assert got.R1 == pytest.approx(ref.R1, abs=1e-9)
        assert got.R2 == pytest.approx(ref.R2, abs=1e-9)

    @given(snr, snr, snr, snr)
    @settings(max_examples=50)
    def test_af_limit(self, a, b, c, d):
        p = GaussianTwrcParams(S13=a, S23=b, S31=c, S32=d)
        got = hc_general_rates(p, SchemeParams(alpha=1.0, beta=0.0, sigma2=1e8))
        ref = af_rates(p)
        assert got.R1 == pytest.approx(ref.R1, abs=1e-3)
        assert got.R2 == pytest.approx(ref.R2, abs=1e-3)

    @given(st.integers(0, 200))
    @settings(max_examples=40)
    def test_rates_nonnegative(self, seed):
        p = random_params(seed)
        rng = np.random.default_rng(seed + 1)
        alpha = rng.uniform(0, 1)
        beta = rng.uniform(0, 1 - alpha)
        pt = hc_general_rates(p, SchemeParams(alpha=alpha, beta=beta, sigma2=rng.uniform(0.1, 10)))
        assert pt.R1 >= 0.0 and pt.R2 >= 0.0

    def test_af_symmetric(self):
        ps = GaussianTwrcParams(S13=5.0, S23=5.0, S31=7.0, S32=7.0)
        pt = af_rates(ps)
        assert pt.R1 == pytest.approx(pt.R2, abs=1e-12)

    def test_symmetric_channel_symmetric_rates(self):
        p = GaussianTwrcParams(S13=3.0, S23=3.0, S31=6.0, S32=6.0)
        for fn in (nnc_rates, hc_special_rates):
            pt = fn(p, sigma2=1.7)
            assert pt.R1 == pytest.approx(pt.R2, abs=1e-12)

    def test_binding_term_is_the_first_minimum(self):
        pt = gaussian_twrc._clamp_pair((0.5, 0.5), (0.7, -0.2), "x")
        assert (pt.R1, pt.R2) == (0.5, 0.0)
        pt = gaussian_twrc._clamp_pair((0.3, 0.2), (0.1, 0.4), "x")
        assert (pt.R1, pt.R2) == (0.2, 0.1)


class TestOptimization:
    def test_scheme_ordering_midpoint(self):
        p = params_from_distance(0.5)
        sums = {name: optimize_scheme(p, name).point.sum_rate
                for name in ("af", "nnc", "hc_special", "hc_general", "cutset")}
        assert sums["cutset"] >= sums["hc_general"] - 1e-9
        assert sums["hc_general"] >= sums["hc_special"] - 1e-9
        assert sums["hc_special"] >= sums["nnc"] - 1e-6
        assert sums["hc_general"] >= sums["af"] - 1e-9

    def test_optimize_beats_fixed_sigma(self):
        p = params_from_distance(0.3)
        best = optimize_scheme(p, "nnc")
        fixed = nnc_rates(p, sigma2=1.0)
        assert best.point.sum_rate >= fixed.sum_rate - 1e-9

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            optimize_scheme(params_from_distance(0.5), "nope")


_REFERENCE_GRIDS: dict = {}


def reference_grid(ch):
    """The coarse-grid argmax as a plain scalar triple loop, memoized per
    channel: it takes about 0.5 s."""
    key = (ch.S13, ch.S23, ch.S31, ch.S32)
    if key in _REFERENCE_GRIDS:
        return _REFERENCE_GRIDS[key]
    step = gaussian_twrc.ALPHA_BETA_STEP
    n = int(round(1.0 / step))
    sgrid = gaussian_twrc._log_sigma_grid()
    best = (-1.0, 0.0, 0.0, sgrid[0])
    for ia in range(n + 1):
        alpha = ia * step
        for ib in range(n - ia + 1):
            beta = ib * step
            for s2 in sgrid[::6]:
                v = hc_general_rates(ch, SchemeParams(alpha, beta, s2)).sum_rate
                if v > best[0]:
                    best = (v, alpha, beta, s2)
    _REFERENCE_GRIDS[key] = best
    return best


GRID_CHANNELS = (
    [(f"r={r},P={P}", params_from_distance(r, P))
     for r in (0.1, 0.3, 0.5, 0.7, 0.9) for P in (1.0, 100.0)]
    + [("r=0.41,P=10", params_from_distance(0.41, 10.0))]
    + [(f"random{seed}", random_params(seed)) for seed in range(9)]
    # Every grid point has sum rate exactly 0, so the first point must win.
    + [("zero", GaussianTwrcParams(S13=0.0, S23=0.0, S31=0.0, S32=0.0))]
)


class TestGeneralGrid:
    # One value: the suffix keeps the ids these cases have always had.
    @pytest.mark.parametrize("perturbed", [False])
    @pytest.mark.parametrize("ch", [c for _, c in GRID_CHANNELS],
                             ids=[name for name, _ in GRID_CHANNELS])
    def test_matches_scalar_triple_loop(self, ch, perturbed):
        assert gaussian_twrc._grid_incumbent(ch) == reference_grid(ch)

    @pytest.mark.parametrize("r, params, point", [
        (0.3, SchemeParams(alpha=0.621, beta=0.009999999999999998, sigma2=4.368477857839868),
         RatePoint(R1=2.2749981623136235, R2=3.4909003769724705, scheme="hc_general")),
        (0.5, SchemeParams(alpha=0.2, beta=0.02, sigma2=12.949165324529844),
         RatePoint(R1=3.040863042416072, R2=3.040863042416072, scheme="hc_general")),
        (0.7, SchemeParams(alpha=0.621, beta=0.009999999999999998, sigma2=4.368477857839868),
         RatePoint(R1=3.4909003769724696, R2=2.2749981623136235, scheme="hc_general")),
    ])
    def test_optimize_pins_recorded_result(self, r, params, point):
        best = optimize_scheme(params_from_distance(r), "hc_general")
        assert best.params == params
        assert best.point == point


class TestOneArithmetic:
    """The rate-terms functions give the same bits on arrays as on scalars."""

    @pytest.mark.parametrize("seed", range(6))
    def test_array_equals_scalar_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_params(seed) if seed else params_from_distance(0.41)
        n = 400
        alpha = rng.uniform(0, 1, n)
        beta = rng.uniform(0, 1, n) * (1.0 - alpha)
        sigma2 = 10 ** rng.uniform(-3, 6, n)
        schemes = [
            (lambda i: hc_general_rates(ch, SchemeParams(alpha[i], beta[i], sigma2[i])),
             gaussian_twrc._hc_general_terms(ch, alpha, beta, sigma2)),
            (lambda i: nnc_rates(ch, sigma2[i]), qf_terms(ch, "nnc")(sigma2)),
            (lambda i: hc_special_rates(ch, sigma2[i]), qf_terms(ch, "hc_special")(sigma2)),
        ]
        for scalar, (r1, r2) in schemes:
            sums = gaussian_twrc._grid_sums(r1, r2)
            rates1, rates2 = (np.maximum(np.minimum(*terms), 0.0) for terms in (r1, r2))
            for i in range(n):
                pt = scalar(i)
                assert (pt.R1, pt.R2) == (rates1[i], rates2[i])
                assert pt.sum_rate == sums[i]

    @pytest.mark.parametrize("ch", [c for _, c in GRID_CHANNELS],
                             ids=[name for name, _ in GRID_CHANNELS])
    def test_sigma_grid_index_is_first_scalar_maximum(self, ch, monkeypatch):
        brackets = []

        def record(f, lo, hi, **kw):
            brackets.append((lo, hi))
            return lo, f(lo), True

        monkeypatch.setattr(gaussian_twrc, "golden_refine", record)
        grid = gaussian_twrc._log_sigma_grid()
        for scalar, terms in [
            (lambda s: nnc_rates(ch, s), qf_terms(ch, "nnc")),
            (lambda s: hc_special_rates(ch, s), qf_terms(ch, "hc_special")),
            (lambda s: hc_general_rates(ch, SchemeParams(0.3, 0.2, s)),
             lambda s: gaussian_twrc._hc_general_terms(ch, 0.3, 0.2, s)),
        ]:
            best, first = -1.0, None
            for i, s2 in enumerate(grid):
                v = scalar(s2).sum_rate
                if v > best:
                    best, first = v, i
            brackets.clear()
            gaussian_twrc._optimize_sigma(terms)
            assert brackets == [(math.log(grid[max(first - 1, 0)]),
                                 math.log(grid[min(first + 1, grid.size - 1)]))]


# Seeded random SNRs over nine decades, channels that bounds-twrc reaches by
# distance (among them the two where the former sigma2 grid and golden section
# fell short: P = 1e5, exponent 2, r = 0.05 and P = 0.01, exponent 4, r = 0.3),
# and edge channels.
SIGMA_CHANNELS = (
    [GaussianTwrcParams(*10 ** np.random.default_rng(seed).uniform(-3, 6, 4)) for seed in range(30)]
    + [params_from_distance(r, P, ple) for P in (0.01, 1.0, 1e3, 1e5) for ple in (2, 3, 4)
       for r in (0.05, 0.3, 0.5, 0.8, 0.95)]
    + [GaussianTwrcParams(*snrs) for snrs in [
        (0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 5.0, 3.0), (0.0, 2.0, 5.0, 3.0), (0.0, 0.0, 0.5, 1.0),
        (1e15, 1e15, 1e15, 1e15), (1e15, 1e-9, 1e15, 1e-9), (1e15, 1e-300, 1e15, 1e15),
        (4e-323, 4e-323, 4e-323, 4e-323)]]
)


class TestExactSigma:
    """nnc and hc_special take the best of a finite set of sigma2 candidates."""

    @pytest.mark.parametrize("scheme", ["nnc", "hc_special"])
    def test_never_below_a_dense_sigma2_grid(self, scheme):
        for ch in SIGMA_CHANNELS:
            best = optimize_scheme(ch, scheme).point.sum_rate
            assert best >= dense_sigma_max(qf_terms(ch, scheme)) - 1e-12, ch

    def test_no_candidate_gives_sigma2_1(self):
        zero = GaussianTwrcParams(S13=0.0, S23=0.0, S31=0.0, S32=0.0)
        one_sided = GaussianTwrcParams(S13=0.0, S23=0.0, S31=0.5, S32=1.0)
        assert gaussian_twrc._qf_sigma_candidates(one_sided, (1.0, 1.0)) == []
        for ch in (zero, one_sided):
            for scheme in ("nnc", "hc_special"):
                best = optimize_scheme(ch, scheme)
                assert (best.point.sum_rate, best.params.sigma2) == (0.0, 1.0)

    def test_ties_go_to_the_least_sigma2(self):
        # Every sigma2 scores 0; the stationary points are 4 / 2 and 6 / 4.
        ch = GaussianTwrcParams(S13=0.0, S23=0.0, S31=3.0, S32=5.0)
        assert optimize_scheme(ch, "nnc").params.sigma2 == 1.5


class TestQuantizeForward:
    """hc_special is nnc with user k's quantizer noise divided by 1 + Sa_k."""

    # The two forms round differently; 1e-13 is about 14 ulps of the largest
    # term on these channels (about 50 bits).  The largest difference on
    # this grid is 7.1e-15.
    PRINTED_TOL = 1e-13

    def test_matches_the_printed_formulas(self):
        s = np.logspace(-10.0, 12.0, 2201)
        for ch in SIGMA_CHANNELS:
            for got, ref in zip(qf_terms(ch, "hc_special")(s), hc_special_printed_terms(ch, s)):
                for a, b in zip(got, ref):
                    assert np.abs(a - b).max() <= self.PRINTED_TOL, ch

    def test_symmetric_channel_gives_the_nnc_optimum(self):
        # With S13 = S23 both scales are A = 1 + S23, so hc_special's sum at
        # sigma2 is nnc's at sigma2 / A, and the optima are equal.
        rng = np.random.default_rng(31)
        channels = [GaussianTwrcParams(s[0], s[0], s[1], s[2])
                    for s in 10 ** rng.uniform(-3, 6, (40, 3))]
        fig8_mid = params_from_distance(0.5, 10.0, 3.0)     # fig8.json at r = 0.5
        for ch in channels + [fig8_mid]:
            hc, nnc = optimize_scheme(ch, "hc_special"), optimize_scheme(ch, "nnc")
            assert hc.point.sum_rate == pytest.approx(nnc.point.sum_rate, rel=0, abs=1e-12), ch
        # The loop ends on fig8_mid, whose recorded optima are
        # 82.0125 = 81 * 1.0125.
        assert hc.params.sigma2 == pytest.approx((1.0 + fig8_mid.S23) * nnc.params.sigma2,
                                                 rel=1e-12)
        assert (nnc.params.sigma2, hc.params.sigma2) == pytest.approx((1.0125, 82.0125), rel=1e-12)


class TestSweep:
    def test_columns_and_dominance(self):
        rows = fig8_sweep(r_grid=[0.2, 0.5, 0.8])
        assert [round(r["r"], 3) for r in rows] == [0.2, 0.5, 0.8]
        for row in rows:
            assert row["R_CS"] >= row["R_HC"] - 1e-9
            assert row["R_HC"] >= row["R_NNC"] - 1e-6
            assert row["R_AF"] >= 0.0

    def test_csv_format(self):
        rows = fig8_sweep(r_grid=[0.4])
        text = sweep_to_csv(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["r", "R_CS", "R_AF", "R_NNC", "R_HC"]
        assert len(parsed) == 2
        assert float(parsed[1][0]) == pytest.approx(0.4)

    def test_params_from_distance_symmetry(self):
        p = params_from_distance(0.5)
        assert p.S13 == pytest.approx(p.S23, abs=1e-12)
        assert p.S31 == pytest.approx(p.S32, abs=1e-12)

    def test_params_from_distance_monotone(self):
        near = params_from_distance(0.1)
        far = params_from_distance(0.9)
        assert near.S13 > far.S13
