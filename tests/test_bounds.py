import dataclasses
import json
import math
import time
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab import bounds
from hybridlab.bounds import (
    HybridCodeSpec,
    MacHybridSpec,
    TwrcSpec,
    capacity,
    check_p2p,
    det_diamond_bounds,
    distributed_mac_spec,
    distributed_reduced_values,
    lossless_mac_spec,
    lossless_reduced_values,
    mac_region_check,
    p2p_feasibility_sweep,
    p2p_optimize,
    rd_function,
    twrc_region_check,
)
from hybridlab.infotheory import (
    ConditionalPmf,
    DistortionMeasure,
    JointPmf,
    MemoryCapError,
    Pmf,
    ScenarioError,
)
from hybridlab.search import simplex_grid_array
from oracles import (DiamondSpec, bsc_kernel, diamond_bound, hamming_measure, reference_det_diamond,
                     relay_forwarding_spec, uniform_pmf)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


HAMMING2 = hamming_measure(2)
UNIF2 = uniform_pmf(2)
CRITERION4_TARGETS = [round(0.02 * i, 10) for i in range(1, 26)]


def bec(e):
    """Binary input, ternary output with erasure symbol last."""
    return ConditionalPmf([[1 - e, 0.0, e], [0.0, 1 - e, e]])


class TestCheckP2p:
    def test_uncoded_satisfied_by_convention(self):
        spec = HybridCodeSpec.uncoded(enc=[0, 1], dec=[0, 1], num_sources=2)
        rep = check_p2p(UNIF2, bsc_kernel(0.1), HAMMING2, spec)
        assert rep.satisfied
        assert rep.info["uncoded"]
        c = rep.constraints[0]
        assert c.lhs == 0.0 and c.rhs == 0.0
        assert rep.distortions[0] == pytest.approx(0.1, abs=1e-12)

    def test_coded_spec_on_erasure_channel(self):
        # Aux = source through BSC(0.3), channel BEC(0.5): the condition
        # holds with a wide gap.
        spec = HybridCodeSpec(
            aux_size=2,
            aux_kernel=bsc_kernel(0.3),
            enc_map=[[0, 0], [1, 1]],
            dec_map=[[0, 1, 0], [0, 1, 1]],
            rate=0.35,
        )
        rep = check_p2p(UNIF2, bec(0.5), HAMMING2, spec)
        assert rep.satisfied
        c = rep.constraints[0]
        assert c.lhs == pytest.approx(1 - h2(0.3), abs=1e-12)
        assert rep.info["slack"] == pytest.approx(c.rhs - c.lhs, abs=1e-15)

    def test_separation_identity(self):
        # Aux = reconstruction through a test channel, enc independent of s:
        # lhs is I(S;Shat) of the test channel, rhs is I(X;Y).
        spec = HybridCodeSpec(
            aux_size=2,
            aux_kernel=bsc_kernel(0.2),
            enc_map=[[0, 0], [1, 1]],
            dec_map=[[0, 0], [1, 1]],
            rate=0.5,
        )
        rep = check_p2p(UNIF2, bsc_kernel(0.1), HAMMING2, spec)
        c = rep.constraints[0]
        assert c.lhs == pytest.approx(1 - h2(0.2), abs=1e-12)
        # Here x = u and u is uniform, so rhs is the BSC mutual information.
        assert c.rhs == pytest.approx(1 - h2(0.1), abs=1e-12)

    def test_equality_not_satisfied(self):
        # Identity aux over identity channel: lhs == rhs == 1 exactly, and
        # the strict margin rejects it.
        spec = HybridCodeSpec(
            aux_size=2,
            aux_kernel=ConditionalPmf.identity(2),
            enc_map=[[0, 0], [1, 1]],
            dec_map=[[0, 0], [1, 1]],
            rate=1.0,
        )
        rep = check_p2p(UNIF2, ConditionalPmf.identity(2), HAMMING2, spec)
        assert not rep.satisfied
        assert rep.info["slack"] == pytest.approx(0.0, abs=1e-12)


class TestBlahutArimoto:
    def test_bsc_capacity(self):
        assert capacity(bsc_kernel(0.1)) == pytest.approx(1 - h2(0.1), abs=1e-8)

    def test_bec_capacity(self):
        assert capacity(bec(0.5)) == pytest.approx(0.5, abs=1e-8)

    def test_noiseless_capacity(self):
        assert capacity(ConditionalPmf.identity(3)) == pytest.approx(math.log2(3), abs=1e-8)

    def test_useless_channel(self):
        assert capacity(ConditionalPmf([[0.5, 0.5], [0.5, 0.5]])) == pytest.approx(0.0, abs=1e-8)

    @given(st.floats(0.0, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_bsc_capacity_formula(self, p):
        expect = 1.0 if p in (0.0,) else (0.0 if p == 0.5 else 1 - h2(p))
        assert capacity(bsc_kernel(p)) == pytest.approx(expect, abs=1e-7)

    def test_rd_uniform_binary(self):
        for D in CRITERION4_TARGETS:
            expect = 1 - h2(D) if D < 0.5 else 0.0
            assert rd_function(UNIF2, HAMMING2, D) == pytest.approx(expect, abs=1e-14)

    def test_rd_nonuniform_binary(self):
        src = Pmf([0.2, 0.8])
        for D in (0.05, 0.1, 0.15):
            assert rd_function(src, HAMMING2, D) == pytest.approx(h2(0.2) - h2(D), abs=1e-14)

    @pytest.mark.parametrize("D", [0.05, 0.25, 0.5, 0.5642055137844612, 0.62])
    def test_rd_uniform_ternary(self, D):
        # At D = 0.5642... the search reaches a lo-side point with D(beta)
        # within 1e-15 of D while D - D(hi) is still 2.4e-5; a stop on that
        # |D(beta) - D| alone returns hi's line 1.6e-9 below R(D).
        expect = math.log2(3) - h2(D) - D
        got = rd_function(uniform_pmf(3), hamming_measure(3), D)
        assert got == pytest.approx(expect, abs=1e-14)

    def test_rd_positive_row_minimum(self):
        # Every row's least distortion is 1, so exp2(-1e5 * d) underflows
        # to 0 across whole rows unless each row is shifted by its minimum.
        shifted = DistortionMeasure(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rd_function(UNIF2, shifted, 1.0) == pytest.approx(1.0, abs=1e-14)
            assert rd_function(UNIF2, shifted, 1 + 1e-6) == pytest.approx(
                1 - h2(1e-6), abs=1e-14)

    def test_rd_slope_search_work(self, monkeypatch):
        # Bisection to the same width needs about 42 points per target.
        point = bounds._rd_point
        calls = []

        def counted(*args):
            calls.append(args[2])
            return point(*args)

        monkeypatch.setattr(bounds, "_rd_point", counted)
        for D in CRITERION4_TARGETS:
            calls.clear()
            rd_function(UNIF2, HAMMING2, D)
            assert len(calls) <= 16, (D, len(calls))

    def test_rd_zero_beyond_dmax(self):
        assert rd_function(Pmf([0.2, 0.8]), HAMMING2, 0.25) == 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: _rd_point runs all BA_MAX_ITER iterations near the "
        "slope of D = 0.49 and stops with the erasure column at q = 0.05, not 0"))
    def test_rd_ignores_a_column_at_dmax(self):
        # The erasure column costs d_max = 0.5 from either symbol, so it
        # never lowers the rate and R(D) = 1 - h(D).
        erasure = DistortionMeasure([[0, 1, 0.5], [1, 0, 0.5]])
        got = rd_function(UNIF2, erasure, 0.49)
        assert got == pytest.approx(1 - h2(0.49), abs=bounds.BA_TOL)

    def test_rd_below_minimum_raises(self):
        with pytest.raises(ValueError):
            rd_function(UNIF2, HAMMING2, -0.05)

    @given(st.floats(0.02, 0.45), st.floats(0.02, 0.45))
    @settings(max_examples=30, deadline=None)
    def test_rd_nonincreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert rd_function(UNIF2, HAMMING2, lo) >= rd_function(UNIF2, HAMMING2, hi) - 1e-7


class TestP2pOptimize:
    def test_uncoded_hits_crossover_distortion(self):
        rep, spec = p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2,
                                 target_D=0.10, aux_cap=2, grid_res=4)
        assert rep.info["achievable"]
        assert rep.info["uncoded_distortion"] == pytest.approx(0.1, abs=1e-12)

    def test_infeasible_below_channel_limit(self):
        # R(0.02) > C for BSC(0.1), so no spec can satisfy the condition.
        rep, _ = p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2,
                              target_D=0.02, aux_cap=2, grid_res=4)
        assert not rep.info["achievable"]

    def test_loose_target_achievable(self):
        rep, spec = p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2,
                                 target_D=0.45, aux_cap=2, grid_res=4)
        assert rep.info["achievable"]
        assert spec is not None

    def test_deterministic_tie_break(self):
        a = p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2,
                         target_D=0.3, aux_cap=2, grid_res=3)
        b = p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2,
                         target_D=0.3, aux_cap=2, grid_res=3)
        assert np.array_equal(a[1].enc_map, b[1].enc_map)
        assert np.allclose(a[1].aux_kernel.rows, b[1].aux_kernel.rows)

    def test_sweep_matches_single_calls(self):
        targets = [0.05, 0.15, 0.3]
        sweep = p2p_feasibility_sweep(UNIF2, bsc_kernel(0.1), HAMMING2,
                                      targets, aux_cap=2, grid_res=4)
        singles = [p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2,
                                target_D=t, aux_cap=2, grid_res=4)[0].info["achievable"]
                   for t in targets]
        assert sweep == singles

    def test_sweep_monotone(self):
        targets = [round(0.02 * i, 10) for i in range(1, 25)]
        sweep = p2p_feasibility_sweep(UNIF2, bsc_kernel(0.1), HAMMING2,
                                      targets, aux_cap=2, grid_res=4)
        # Once a target is achievable every looser target stays achievable.
        first = sweep.index(True)
        assert all(sweep[first:])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2,
                         target_D=0.1, aux_cap=0)

    def test_column_codes_past_int64(self):
        # An 11-symbol source at grid 52 has columns of code 53^11 - 1, past
        # int64; wrapped, the one aux-size-1 kernel read as all zero and the
        # scan found no candidate.
        args = (uniform_pmf(11), bsc_kernel(0.1), hamming_measure(11), 1.0, 1)
        assert bounds._count_codes(np.full((1, 11), 52), 52, 1).tolist() == [53 ** 11 - 1]
        assert bounds._p2p_winner(*args, 52) == bounds._p2p_winner(*args, 1)

    def test_over_cap_raises_before_allocating(self, monkeypatch):
        # BSC at aux size 2, grid 4: 16 encoder maps, and 25 kernels' p(y)
        # of 2 entries per map, 800 entries, the largest of the scan's tables.
        def no_tables(*args):
            raise AssertionError("built the encoder maps before the cap check")

        monkeypatch.setattr(bounds, "MEMORY_CAP_SYMBOLS", 800)
        p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2, target_D=0.1,
                     aux_cap=2, grid_res=4)
        monkeypatch.setattr(bounds, "MEMORY_CAP_SYMBOLS", 799)
        monkeypatch.setattr(bounds, "_digits", no_tables)
        with pytest.raises(MemoryCapError, match="16 encoder maps at aux size 2 need 800"):
            p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2, target_D=0.1,
                         aux_cap=2, grid_res=4)

    def test_quaternary_scan_over_cap(self, monkeypatch):
        # |S| = |X| = 4 at aux size 4 has 4^16 encoder maps of 16 entries
        # each.  The table builder fails the test if the check lets it run.
        def no_tables(*args):
            raise AssertionError("built the encoder maps before the cap check")

        monkeypatch.setattr(bounds, "_digits", no_tables)
        with pytest.raises(MemoryCapError, match="4294967296 encoder maps"):
            p2p_feasibility_sweep(uniform_pmf(4), ConditionalPmf(np.eye(4)),
                                  hamming_measure(4), [0.1], aux_cap=4, grid_res=1)

    def test_row_grid_over_cap_raises_before_allocating(self, monkeypatch):
        # Grid 400 at aux size 4 has C(403, 3) = 10827401 simplex rows of 4
        # entries, ten times the 2^22 cap, while the 256 encoder maps need
        # 524288 entries.  Building that grid used to take about a minute.
        def no_grid(*args):
            raise AssertionError("built the simplex grid before the cap check")

        monkeypatch.setattr(bounds, "simplex_grid_array", no_grid)
        with pytest.raises(MemoryCapError, match="10827401 rows, 43309604 entries"):
            p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2, target_D=0.15,
                         aux_cap=4, grid_res=400)

    def test_row_grid_cap_is_exact(self, monkeypatch):
        # A one-symbol source over a one-input channel has a single encoder
        # map, so at aux size 3 and grid 4 the simplex grid, 15 rows of 3,
        # is the largest table: 45 entries.
        args = (Pmf([1.0]), ConditionalPmf([[0.5, 0.5]]), DistortionMeasure([[0.0, 1.0]]),
                0.5, 3, 4)
        monkeypatch.setattr(bounds, "MEMORY_CAP_SYMBOLS", 45)
        (_, key, _), _ = bounds._p2p_winner(*args)
        assert key is not None
        monkeypatch.setattr(bounds, "MEMORY_CAP_SYMBOLS", 44)
        with pytest.raises(MemoryCapError, match="15 rows, 45 entries, cap is 44"):
            bounds._p2p_winner(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_target_raises_before_scanning(self, monkeypatch, bad):
        # The callers check their targets; the scan takes none.
        def no_chunks(*args):
            raise AssertionError("built a kernel chunk before the target check")

        monkeypatch.setattr(bounds, "_canonical_kernels", no_chunks)
        with pytest.raises(ScenarioError, match="must be finite"):
            p2p_feasibility_sweep(UNIF2, bsc_kernel(0.1), HAMMING2, [0.1, bad],
                                  aux_cap=2, grid_res=4)
        with pytest.raises(ScenarioError, match="must be finite"):
            p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2, target_D=bad,
                         aux_cap=2, grid_res=4)

    @pytest.mark.parametrize("aux_cap, grid_res", [(0, 4), (2, 0)])
    def test_sweep_bad_arguments(self, aux_cap, grid_res):
        # aux_cap=0 used to scan nothing and report even uncoded targets
        # infeasible; grid_res=0 failed inside the simplex enumeration.
        with pytest.raises(ValueError, match="aux_cap and grid_res must be >= 1"):
            p2p_feasibility_sweep(UNIF2, bsc_kernel(0.1), HAMMING2,
                                  [0.2, 0.5], aux_cap=aux_cap, grid_res=grid_res)


def scenario_channel(name):
    with open(resources.files("hybridlab") / "scenarios" / name) as fh:
        return ConditionalPmf(json.load(fh)["channel"])


ORACLE_CHANNELS = {"bsc": bsc_kernel(0.1),
                   "erasure": scenario_channel("p2p_hybrid.json")}


def brute_force_scores(channel, aux_cap, grid_res):
    """(key, slack, E[d]) of every candidate, each built by _spec_from_key
    and scored by check_p2p, independently of the scan's arithmetic."""
    scores = []
    for u in range(1, aux_cap + 1):
        kernels = simplex_grid_array(u, grid_res).shape[0] ** UNIF2.alphabet_size
        encs = channel.input_size ** (u * UNIF2.alphabet_size)
        for kern in range(kernels):
            for enc in range(encs):
                key = (u, kern, enc)
                spec = bounds._spec_from_key(UNIF2, channel, HAMMING2, key, grid_res)
                rep = check_p2p(UNIF2, channel, HAMMING2, spec)
                c = rep.constraints[0]
                scores.append((key, c.rhs - c.lhs, rep.distortions[0]))
    return scores


def assert_first_reference_maximum(source, channel, d, aux_cap, grid_res, targets):
    """Every candidate scored by the reference formula at once: the winner
    path, run for each target on its own, must return exactly the first
    maximum in key order among those that meet the target."""
    W, p_s = channel.rows, source.probs
    s_size = source.alphabet_size
    h_s = float(bounds._entropy_rows(p_s, 0))
    keys, slacks, eds = [], [], []
    for u in range(1, aux_cap + 1):
        grid = simplex_grid_array(u, grid_res)
        kernels = grid[bounds._digits(np.arange(grid.shape[0] ** s_size), grid.shape[0], s_size)]
        x_size = channel.input_size
        enc_maps = bounds._digits(np.arange(x_size ** (u * s_size)), x_size,
                                  u * s_size).reshape(-1, u, s_size)
        kern, enc = np.divmod(np.arange(kernels.shape[0] * enc_maps.shape[0]),
                              enc_maps.shape[0])
        wm = W[enc_maps[enc]].transpose(0, 2, 1, 3)
        slack, ed = bounds._score_candidates(p_s[None, :, None] * kernels[kern], wm,
                                             d.table, h_s)
        keys += [(u, int(k), int(e)) for k, e in zip(kern, enc)]
        slacks.append(slack)
        eds.append(ed)
    slack, ed = np.concatenate(slacks), np.concatenate(eds)
    for target in targets:
        (best_slack, best_key, best_ed), uncoded_ed = bounds._p2p_winner(
            source, channel, d, target, aux_cap, grid_res)
        feas = ed <= target + 1e-12
        assert uncoded_ed == float(ed[:channel.input_size ** s_size].min())
        if not feas.any():
            assert best_key is None
            continue
        i = int(np.argmax(np.where(feas, slack, -np.inf)))
        assert (best_key, best_slack, best_ed) == (keys[i], float(slack[i]), float(ed[i]))


def random_p2p_problem(rng):
    """A small p2p problem with |S|, |X|, |Y| <= 3, a zero-probability source
    symbol now and then, zero channel entries and an integer or a fractional
    distortion table, with an aux cap and grid that keep the scan small."""
    s_size, x_size, y_size = (int(v) for v in rng.integers(1, 4, size=3))
    p_s = rng.dirichlet(np.ones(s_size))
    if s_size > 1 and rng.random() < 0.3:
        p_s[rng.integers(s_size)] = 0.0
    W = rng.dirichlet(np.ones(y_size), size=x_size).round(2)
    W[rng.random(W.shape) < 0.2] = 0.0
    W[W.sum(axis=1) == 0, 0] = 1.0
    r_size = int(rng.integers(1, 4))
    table = (rng.integers(0, 3, size=(s_size, r_size)).astype(float) if rng.random() < 0.5
             else rng.random((s_size, r_size)).round(2))
    aux_cap = int(rng.integers(1, 4))
    while x_size ** (aux_cap * s_size) > 81:
        aux_cap -= 1
    return (Pmf(p_s / p_s.sum()), ConditionalPmf(W / W.sum(axis=1, keepdims=True)),
            DistortionMeasure(table), aux_cap, int(rng.integers(1, 5)))


class TestScanOracle:
    """The factorized candidate scan against exhaustive enumeration."""

    TARGETS = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5]

    @pytest.mark.parametrize("channel_name", sorted(ORACLE_CHANNELS))
    def test_scan_matches_enumeration(self, channel_name):
        channel = ORACLE_CHANNELS[channel_name]
        scores = brute_force_scores(channel, 3, 3)
        by_key = {key: (slack, ed) for key, slack, ed in scores}
        uncoded = min(ed for key, _, ed in scores if key[0] == 1)
        for target in self.TARGETS:
            (best_slack, best_key, best_ed), uncoded_ed = bounds._p2p_winner(
                UNIF2, channel, HAMMING2, target, aux_cap=3, grid_res=3)
            assert uncoded_ed == pytest.approx(uncoded, abs=1e-12)
            feasible = [slack for _, slack, ed in scores if ed <= target + 1e-12]
            if not feasible:
                assert best_key is None
                continue
            assert best_slack == pytest.approx(max(feasible), abs=1e-12)
            slack, ed = by_key[best_key]
            assert best_ed == pytest.approx(ed, abs=1e-12)
            assert best_slack == pytest.approx(slack, abs=1e-12)
            assert best_ed <= target + 1e-12

    def test_sweep_matches_optimizer_on_random_problems(self):
        # The sweep answers from the factorized scan alone; p2p_optimize from
        # its winner by the reference arithmetic.  Most targets are E[d]
        # values that some candidate reaches exactly, the rest random.
        rng = np.random.default_rng(16)
        answers = []
        for case in range(300):
            source, channel, d, aux_cap, grid_res = random_p2p_problem(rng)
            targets = [float(rng.random() * d.table.max())]
            for _ in range(3):
                u = int(rng.integers(1, aux_cap + 1))
                kernels = simplex_grid_array(u, grid_res).shape[0] ** source.alphabet_size
                key = (u, int(rng.integers(kernels)),
                       int(rng.integers(channel.input_size ** (u * source.alphabet_size))))
                spec = bounds._spec_from_key(source, channel, d, key, grid_res)
                targets.append(check_p2p(source, channel, d, spec).distortions[0])
            sweep = p2p_feasibility_sweep(source, channel, d, targets, aux_cap, grid_res)
            singles = [p2p_optimize(source, channel, d, t, aux_cap, grid_res)[0].info["achievable"]
                       for t in targets]
            assert sweep == singles, f"case {case}: targets {targets}"
            answers += sweep
            # Descending and repeated targets keep each target's answer.
            down = sorted(range(len(targets)), key=lambda i: -targets[i])
            assert (p2p_feasibility_sweep(source, channel, d, [targets[i] for i in down]
                                          + targets[:2], aux_cap, grid_res)
                    == [singles[i] for i in down] + singles[:2]), f"case {case}"
            if case % 50 == 0:
                assert p2p_feasibility_sweep(source, channel, d, [], aux_cap, grid_res) == []
        assert set(answers) == {True, False}

    @pytest.mark.parametrize("channel_name", sorted(ORACLE_CHANNELS))
    @pytest.mark.parametrize("aux_cap, grid_res", [(3, 6), (4, 3)])
    @pytest.mark.parametrize("source", [UNIF2, Pmf([0.3, 0.7])], ids=["uniform", "skewed"])
    def test_scan_picks_first_reference_maximum(self, channel_name, aux_cap, grid_res, source):
        assert_first_reference_maximum(source, ORACLE_CHANNELS[channel_name], HAMMING2,
                                       aux_cap, grid_res, [round(0.02 * i, 10) for i in range(26)])

    @pytest.mark.parametrize("source, channel, aux_cap, grid_res", [
        (Pmf([0.2, 0.3, 0.5]), bsc_kernel(0.1), 2, 4),
        (Pmf([0.2, 0.3, 0.5]), ORACLE_CHANNELS["erasure"], 3, 2),
        (UNIF2, ConditionalPmf([[0.9, 0.1], [0.5, 0.5], [0.0, 1.0]]), 3, 3),
        (Pmf([0.3, 0.7]), ConditionalPmf([[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]]),
         2, 5),
        # A zero-probability source symbol makes candidates tie exactly.
        (Pmf([0.5, 0.0, 0.5]), bsc_kernel(0.1), 2, 4),
    ], ids=["source3-bsc", "source3-erasure", "input3-binary-out", "input3-ternary-out",
            "source3-zero-bsc"])
    def test_scan_picks_first_reference_maximum_ternary(self, source, channel, aux_cap,
                                                         grid_res):
        d = hamming_measure(source.alphabet_size)
        assert_first_reference_maximum(source, channel, d, aux_cap, grid_res,
                                       [round(0.03 * i, 10) for i in range(24)])

    @pytest.mark.parametrize("s_size, x_size, aux_cap, grid_res", [
        (2, 2, 3, 3), (2, 2, 4, 2), (2, 3, 2, 3), (3, 2, 2, 3), (3, 2, 3, 1)])
    def test_orbits_cover_every_candidate_once(self, s_size, x_size, aux_cap, grid_res):
        # Expanding every canonical candidate gives every key of the full
        # scan whose empty aux slots carry column map 0 exactly once, each
        # with its representative's reference slack and E[d], and placed
        # kernel counts that match its kernel index.
        rng = np.random.default_rng(13)
        p_s = rng.dirichlet(np.ones(s_size))
        W = rng.dirichlet(np.ones(3), size=x_size)
        d_table = rng.random((s_size, 2))
        h_s = float(bounds._entropy_rows(p_s, 0))
        C = x_size ** s_size
        grids = {u: simplex_grid_array(u, grid_res) for u in range(1, aux_cap + 1)}
        keys = []
        for u in range(1, aux_cap + 1):
            for _, K in bounds._canonical_kernels(grids[u], s_size, grid_res):
                for counts in np.rint(K * grid_res).astype(int):
                    for e in range(C ** u):
                        rep = bounds._score_keys(p_s, W, d_table, h_s, counts[None],
                                                 np.array([e]), grid_res)
                        for size in range(u, aux_cap + 1):
                            grid = grids[size]
                            for placed, kern, enc in bounds._orbit_keys(
                                    counts[None], np.array([e]), size, x_size, grid_res):
                                rows = bounds._digits(kern, grid.shape[0], s_size)
                                assert np.array_equal(grid[rows], placed / grid_res)
                                slack, ed = bounds._score_keys(p_s, W, d_table, h_s, placed,
                                                               enc, grid_res)
                                assert np.allclose(slack, rep[0], rtol=0, atol=1e-12)
                                assert np.allclose(ed, rep[1], rtol=0, atol=1e-12)
                                keys += [(size, k, m) for k, m in zip(kern.tolist(), enc.tolist())]
        full = []
        for u in range(1, aux_cap + 1):
            kernels = grids[u][bounds._digits(np.arange(grids[u].shape[0] ** s_size),
                                              grids[u].shape[0], s_size)]   # (K, s, u)
            empty = (kernels == 0).all(axis=1)                               # (K, u)
            maps = bounds._digits(np.arange(C ** u), C, u)                   # (E, u)
            k, e = np.nonzero(~(empty[:, None] & (maps[None] != 0)).any(axis=2))
            full += [(u, int(a), int(b)) for a, b in zip(k, e)]
        assert len(keys) == len(full)
        assert set(keys) == set(full)

    @pytest.mark.parametrize("s_size, x_size, size", [(2, 2, 3), (3, 2, 2), (2, 3, 3)])
    def test_empty_slot_maps_score_identically(self, s_size, x_size, size):
        # An empty aux slot's column map multiplies probability 0, so keys
        # that differ only there score bit-identical slack and E[d]: the
        # orbits enumerate map 0 alone for such slots.
        rng = np.random.default_rng(29)
        grid_res, C = 4, x_size ** s_size
        p_s = rng.dirichlet(np.ones(s_size))
        W = rng.dirichlet(np.ones(3), size=x_size)
        d_table = rng.random((s_size, 2))
        h_s = float(bounds._entropy_rows(p_s, 0))
        col_weight = C ** np.arange(size - 1, -1, -1)
        for _ in range(20):
            counts = rng.multinomial(grid_res, np.ones(size - 1) / (size - 1), size=s_size)
            slot = int(rng.integers(size))
            counts = np.insert(counts, slot, 0, axis=1)                     # (s, size)
            maps = rng.integers(C, size=size)
            maps[slot] = 0
            enc = int(maps @ col_weight) + np.arange(C) * col_weight[slot]
            slack, ed = bounds._score_keys(p_s, W, d_table, h_s,
                                           np.repeat(counts[None], C, axis=0), enc, grid_res)
            assert (slack == slack[0]).all() and (ed == ed[0]).all()

    @pytest.mark.parametrize("s_size, x_size, aux_cap, grid_res", [(2, 2, 3, 3), (3, 2, 2, 3)])
    def test_orbit_batches_of_three_keys(self, monkeypatch, s_size, x_size, aux_cap, grid_res):
        # Every chunk elsewhere holds more keys than the tests' orbits, so
        # _orbit_keys yields one batch.  Chunks of 3 split the permutations
        # into batches and the winner's candidates into groups of one.
        monkeypatch.setattr(bounds, "_SCAN_CHUNK", 3)
        self.test_orbits_cover_every_candidate_once(s_size, x_size, aux_cap, grid_res)
        source = Pmf(np.full(s_size, 1 / s_size))
        assert_first_reference_maximum(source, bsc_kernel(0.1),
                                       hamming_measure(s_size), aux_cap, grid_res,
                                       [round(0.05 * i, 10) for i in range(12)])

    @pytest.mark.parametrize("scenario, expected", [
        ("bsc_uncoded.json", {
            "aux_size": 2,
            "enc_map": [[1, 1], [0, 1]],
            "aux_kernel": [[1 / 6, 5 / 6], [1 / 2, 1 / 2]],
            "dec_map": [[1, 1], [0, 1]],
        }),
        ("p2p_hybrid.json", {
            "aux_size": 3,
            "enc_map": [[1, 1], [1, 0], [0, 0]],
            "aux_kernel": [[5 / 6, 1 / 6, 0.0], [1 / 6, 5 / 6, 0.0]],
            "dec_map": [[0, 0, 0], [1, 0, 1], [0, 0, 0]],
        }),
        # The CLI default, grid 12.
        ("bsc_uncoded.json", {
            "grid_res": 12,
            "aux_size": 3,
            "enc_map": [[0, 0], [1, 1], [0, 1]],
            "aux_kernel": [[1 / 6, 7 / 12, 1 / 4], [2 / 3, 1 / 12, 1 / 4]],
            "dec_map": [[1, 1], [0, 0], [0, 1]],
        }),
        ("p2p_hybrid.json", {
            "grid_res": 12,
            "aux_size": 3,
            "enc_map": [[0, 0], [1, 1], [1, 0]],
            "aux_kernel": [[1 / 6, 7 / 12, 1 / 4], [5 / 6, 1 / 12, 1 / 12]],
            "dec_map": [[1, 0, 1], [0, 0, 0], [1, 0, 0]],
        }),
    ])
    def test_optimize_pins_recorded_spec(self, scenario, expected):
        # The spec recorded for check-thm1 --optimize at aux_cap 4, grid 6
        # unless stated, D = 0.15: it depends on which of many exactly tied
        # candidates the scan picks, so any change to the tie-break shows here.
        _, spec = p2p_optimize(UNIF2, scenario_channel(scenario), HAMMING2, target_D=0.15,
                               aux_cap=4, grid_res=expected.get("grid_res", 6))
        assert spec.aux_size == expected["aux_size"]
        assert spec.enc_map.tolist() == expected["enc_map"]
        assert spec.dec_map.tolist() == expected["dec_map"]
        assert np.allclose(spec.aux_kernel.rows, expected["aux_kernel"], rtol=0, atol=1e-15)


def optimizer_corpus():
    """The bundled BSC and erasure channels at five targets and grids 6 and
    12, then 300 random problems with two random targets each."""
    for _, channel in sorted(ORACLE_CHANNELS.items()):
        for target in (0.05, 0.1, 0.15, 0.2, 0.3):
            for grid_res in (6, 12):
                yield UNIF2, channel, HAMMING2, target, 4, grid_res
    rng = np.random.default_rng(30)
    for _ in range(300):
        source, channel, d, aux_cap, grid_res = random_p2p_problem(rng)
        for _ in range(2):
            yield source, channel, d, float(rng.random() * d.table.max()), aux_cap, grid_res


class TestOptimizerReport:
    """p2p_optimize reports check_p2p of the spec it returns, plus two
    entries: the uncoded E[d] and the verdict read from the report."""

    def test_report_is_check_p2p_of_its_spec(self):
        verdicts = {True: 0, False: 0, None: 0}
        for source, channel, d, target, aux_cap, grid_res in optimizer_corpus():
            rep, spec = p2p_optimize(source, channel, d, target, aux_cap, grid_res)
            info = dict(rep.info)
            achievable = info.pop("achievable")
            uncoded_ed = info.pop("uncoded_distortion")
            assert uncoded_ed == bounds._uncoded_ed(source, channel, d)
            assert achievable is (uncoded_ed <= target + bounds.TARGET_D_TOL or rep.satisfied)
            if spec is None:
                assert (rep.constraints, rep.satisfied, info) == (
                    (), False, {"reason": "no candidate met the distortion target"})
            else:
                want = dataclasses.asdict(check_p2p(source, channel, d, spec))
                assert repr({**dataclasses.asdict(rep), "info": info}) == repr(want)
            verdicts[None if spec is None else achievable] += 1
        assert min(verdicts.values()) >= 10, verdicts

    def test_every_report_has_the_optimizer_entries(self):
        # An infeasible target, a coded winner and an uncoded one.
        for target, aux_cap in ((0.05, 1), (0.15, 3), (0.45, 1)):
            rep, _ = p2p_optimize(UNIF2, bsc_kernel(0.1), HAMMING2, target_D=target,
                                  aux_cap=aux_cap, grid_res=4)
            assert {"achievable", "uncoded_distortion"} <= rep.info.keys()
            assert not {"best_slack", "best_distortion"} & rep.info.keys()


def correlated_sources():
    return JointPmf([[0.35, 0.15], [0.15, 0.35]])


def xor_bsc_mac(p=0.1):
    rows = [[1 - p, p], [p, 1 - p], [p, 1 - p], [1 - p, p]]
    return ConditionalPmf(rows)


class TestMacRegion:
    def test_lossless_substitution_matches_reduction(self):
        sources = correlated_sources()
        mac = xor_bsc_mac(0.1)
        spec = lossless_mac_spec(sources, UNIF2, UNIF2, 2)
        rep = mac_region_check(sources, mac, HAMMING2, HAMMING2, spec, 2, 2)
        reduced = lossless_reduced_values(sources, mac, UNIF2, UNIF2)
        for c, (lhs, rhs) in zip(rep.constraints, reduced):
            assert c.lhs == pytest.approx(lhs, abs=1e-12)
            assert c.rhs == pytest.approx(rhs, abs=1e-12)

    def test_lossless_substitution_zero_distortion(self):
        sources = correlated_sources()
        spec = lossless_mac_spec(sources, UNIF2, UNIF2, 4)
        rep = mac_region_check(sources, ConditionalPmf.identity(4),
                               HAMMING2, HAMMING2, spec, 2, 2)
        assert rep.distortions[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.distortions[1] == pytest.approx(0.0, abs=1e-12)
        assert rep.satisfied

    def test_distributed_substitution_matches_reduction(self):
        sources = correlated_sources()
        k1 = bsc_kernel(0.2)
        k2 = bsc_kernel(0.3)
        spec = distributed_mac_spec(k1, k2, UNIF2, UNIF2)
        rep = mac_region_check(sources, ConditionalPmf.identity(4),
                               HAMMING2, HAMMING2, spec, 2, 2)
        reduced = distributed_reduced_values(sources, k1, k2, UNIF2, UNIF2)
        for c, (lhs, rhs) in zip(rep.constraints, reduced):
            assert c.lhs == pytest.approx(lhs, abs=1e-12)
            assert c.rhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("px1", [UNIF2, Pmf([0.2, 0.3, 0.5])], ids=["binary", "ternary"])
    def test_substitutions_share_aux_and_encoders(self, px1):
        # U = (X, Ut) with u = x * |Ut| + ut: the lossless form is the
        # distributed one with identity test channels.
        sources = correlated_sources()
        k1 = ConditionalPmf([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]])
        dist = distributed_mac_spec(k1, ConditionalPmf.identity(2), px1, UNIF2)
        for s in range(2):
            for x in range(px1.alphabet_size):
                for t in range(3):
                    assert dist.aux1[0, s, x * 3 + t] == px1.probs[x] * k1.rows[s, t]
                    assert dist.enc1[0, x * 3 + t, s] == x
        lossless = lossless_mac_spec(sources, px1, UNIF2, 4)
        ident = distributed_mac_spec(ConditionalPmf.identity(2), ConditionalPmf.identity(2),
                                     px1, UNIF2)
        for name in ("aux1", "aux2", "enc1", "enc2"):
            assert np.array_equal(getattr(lossless, name), getattr(ident, name))

    def test_mac_rows_must_match_encoder_alphabets(self):
        # Declared alphabets of 2 x 1 inputs do not index the 4 rows of the
        # pair channel, which must not be re-indexed, though the encoders fit.
        ident = [[[1.0, 0.0], [0.0, 1.0]]]
        dec = np.zeros((1, 2, 2, 4), dtype=int)
        spec = MacHybridSpec(q_pmf=Pmf([1.0]), aux1=ident, aux2=ident,
                             enc1=[[[0, 1], [0, 1]]], enc2=[[[0, 0], [0, 0]]],
                             dec1=dec, dec2=dec)
        with pytest.raises(ScenarioError, match="MAC has 4 rows"):
            mac_region_check(correlated_sources(), ConditionalPmf.identity(4),
                             HAMMING2, HAMMING2, spec, 2, 1)

    @pytest.mark.parametrize("name", ["aux1", "aux2"])
    @pytest.mark.parametrize("rows", [[[[0.9, 0.0], [0.0, 1.0]]], [[[1.2, -0.2], [0.0, 1.0]]],
                                      [[[math.nan, 1.0], [0.0, 1.0]]]],
                             ids=["sum-0.9", "negative", "nan"])
    def test_aux_rows_must_be_pmfs(self, name, rows):
        # The spec checks only the shape of its aux arrays; the kernels that
        # _mac_joint builds check the rows, and the error names the array.
        ident = [[[1.0, 0.0], [0.0, 1.0]]]
        dec = np.zeros((1, 2, 2, 4), dtype=int)
        spec = MacHybridSpec(q_pmf=Pmf([1.0]), **{"aux1": ident, "aux2": ident, name: rows},
                             enc1=[[[0, 1], [0, 1]]], enc2=[[[0, 1], [0, 1]]],
                             dec1=dec, dec2=dec)
        with pytest.raises(ScenarioError, match=f"^{name}: kernel"):
            mac_region_check(correlated_sources(), ConditionalPmf.identity(4),
                             HAMMING2, HAMMING2, spec, 2, 2)

    def test_sources_must_match_aux_kernels(self):
        # aux1 takes three source symbols; the sources have two.
        spec = MacHybridSpec(q_pmf=Pmf([1.0]), aux1=[[[1, 0], [0, 1], [0.5, 0.5]]],
                             aux2=[[[1, 0], [0, 1]]],
                             enc1=[[[0, 0, 0], [1, 1, 1]]], enc2=[[[0, 0], [1, 1]]],
                             dec1=np.zeros((1, 2, 3, 4), dtype=int),
                             dec2=np.zeros((1, 2, 2, 4), dtype=int))
        with pytest.raises(ScenarioError, match="sources have shape"):
            mac_region_check(correlated_sources(), ConditionalPmf.identity(4),
                             HAMMING2, HAMMING2, spec, 2, 2)

    def test_binding_constraint_has_min_slack(self):
        sources = correlated_sources()
        spec = lossless_mac_spec(sources, UNIF2, UNIF2, 2)
        rep = mac_region_check(sources, xor_bsc_mac(0.1), HAMMING2, HAMMING2, spec, 2, 2)
        slacks = {c.name: c.rhs - c.lhs for c in rep.constraints}
        assert slacks[rep.binding_constraint] == pytest.approx(min(slacks.values()), abs=1e-15)

    def test_orthogonal_mac_factorizes(self):
        # Independent sources over a product channel: the sum constraint is
        # the sum of the per-sender constraints.
        sources = JointPmf.product(Pmf([0.6, 0.4]), Pmf([0.3, 0.7]))
        pa, pb = 0.1, 0.2
        rows = np.zeros((4, 4))
        for x1 in range(2):
            for x2 in range(2):
                for y1 in range(2):
                    for y2 in range(2):
                        rows[x1 * 2 + x2, y1 * 2 + y2] = (
                            (1 - pa if y1 == x1 else pa) * (1 - pb if y2 == x2 else pb))
        mac = ConditionalPmf(rows)
        spec = lossless_mac_spec(sources, UNIF2, UNIF2, 4)
        rep = mac_region_check(sources, mac, HAMMING2, HAMMING2, spec, 2, 2)
        c1, c2, c3 = rep.constraints
        assert c3.lhs == pytest.approx(c1.lhs + c2.lhs, abs=1e-12)
        assert c3.rhs == pytest.approx(c1.rhs + c2.rhs, abs=1e-12)


class TestTwrc:
    @staticmethod
    def xor_network():
        uplink = ConditionalPmf.deterministic([0, 1, 1, 0], 2)   # y3 = x1 xor x2
        # Noiseless broadcast: y1 = y2 = x3, pair index y1*2 + y2.
        downlink = ConditionalPmf.deterministic([0, 3], 4)
        spec = TwrcSpec(px1=UNIF2, px2=UNIF2,
                        relay_kernel=ConditionalPmf.identity(2),
                        relay_map=[[0, 0], [1, 1]])
        return uplink, downlink, spec

    def test_xor_exchange_one_bit_each(self):
        uplink, downlink, spec = self.xor_network()
        rep = twrc_region_check(uplink, downlink, 2, 2, spec)
        assert rep.info["R1"] == pytest.approx(1.0, abs=1e-12)
        assert rep.info["R2"] == pytest.approx(1.0, abs=1e-12)
        assert not rep.info["clamped"]

    def test_degenerate_downlink_gives_zero(self):
        uplink, _, spec = self.xor_network()
        downlink = ConditionalPmf([[0.25] * 4, [0.25] * 4])
        rep = twrc_region_check(uplink, downlink, 2, 2, spec)
        assert rep.info["R1"] == pytest.approx(0.0, abs=1e-12)
        assert rep.info["R2"] == pytest.approx(0.0, abs=1e-12)

    def test_swapping_users_swaps_rates(self):
        # Relabel user 1 as user 2: px1 <-> px2, uplink rows (x1, x2) ->
        # (x2, x1) and downlink outputs (y1, y2) -> (y2, y1).  R1 and R2
        # must trade places, which holds only with each R's penalty
        # conditioned on its own user's input.
        rng = np.random.default_rng(7)
        for _ in range(50):
            px1, px2 = (Pmf(rng.dirichlet(np.ones(2))) for _ in range(2))
            uplink = rng.dirichlet(np.ones(3), size=(2, 2))          # (x1, x2, y3)
            downlink = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)  # (x3, y1, y2)
            spec = dict(relay_kernel=ConditionalPmf(rng.dirichlet(np.ones(2), size=3)),
                        relay_map=rng.integers(0, 2, (2, 3)))
            rep = twrc_region_check(ConditionalPmf(uplink.reshape(4, 3)),
                                    ConditionalPmf(downlink.reshape(2, 4)), 2, 2,
                                    TwrcSpec(px1=px1, px2=px2, **spec))
            swapped = twrc_region_check(
                ConditionalPmf(uplink.transpose(1, 0, 2).reshape(4, 3)),
                ConditionalPmf(downlink.transpose(0, 2, 1).reshape(2, 4)), 2, 2,
                TwrcSpec(px1=px2, px2=px1, **spec))
            assert swapped.info["R1"] == pytest.approx(rep.info["R2"], abs=1e-12)
            assert swapped.info["R2"] == pytest.approx(rep.info["R1"], abs=1e-12)

    def test_bad_factorization(self):
        uplink, downlink, spec = self.xor_network()
        with pytest.raises(ValueError):
            twrc_region_check(uplink, downlink, 3, 2, spec)


DIAMOND_Y2 = [0, 0, 1]
DIAMOND_Y3 = [0, 1, 1]
DIAMOND_Y4 = [[0, 1], [1, 2]]
# Both relays see nothing of the source and y4 = (x2 + x3) mod 5.
CONSTANT_STAGE_CYCLIC = ([0, 0], [0, 0], [[(a + b) % 5 for b in range(5)] for a in range(5)], 5, 5)


class TestDiamond:
    def test_substitution_achieves_cutset(self):
        # Relays forward their observation: value is log2(3) on the bundled
        # deterministic network.
        y2 = np.array(DIAMOND_Y2)
        y3 = np.array(DIAMOND_Y3)
        bc = ConditionalPmf.deterministic(y2 * 2 + y3, 4)
        mac = ConditionalPmf.deterministic(np.asarray(DIAMOND_Y4).reshape(-1), 3)
        spec = DiamondSpec(px1=uniform_pmf(3),
                           k2=ConditionalPmf.identity(2),
                           k3=ConditionalPmf.identity(2),
                           map2=[[0, 0], [1, 1]], map3=[[0, 0], [1, 1]])
        rep = diamond_bound(bc, mac, 2, 2, 2, 2, spec)
        assert rep.value == pytest.approx(math.log2(3), abs=1e-12)
        assert rep.value == pytest.approx(min(c.rhs for c in rep.constraints), abs=1e-15)

    def test_det_bounds_reference_values(self):
        res = det_diamond_bounds(DIAMOND_Y2, DIAMOND_Y3, DIAMOND_Y4, 2, 2)
        assert res.hybrid == pytest.approx(math.log2(3), abs=1e-9)
        assert res.adt == pytest.approx(1.5, abs=1e-9)
        assert res.cutset == pytest.approx(math.log2(3), abs=1e-9)

    def test_family_ordering(self):
        res = det_diamond_bounds(DIAMOND_Y2, DIAMOND_Y3, DIAMOND_Y4, 2, 2)
        assert res.cutset >= res.hybrid - 1e-12
        assert res.hybrid >= res.adt - 1e-12

    def test_identity_network(self):
        # Both relays see the full input and forward it: rate is log2 |X1|.
        res = det_diamond_bounds([0, 1], [0, 1], [[0, 1], [2, 3]], 2, 2)
        assert res.hybrid == pytest.approx(1.0, abs=1e-9)
        assert res.cutset == pytest.approx(1.0, abs=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            det_diamond_bounds([0, 1], [0, 1], [[0, 1]], 2, 2)

    def test_over_cap_raises_before_allocating(self):
        # Ternary relays at grid 6: 28^3 x 28^3 = 4.8e8 hybrid candidates per
        # source pmf, which the full conditional tensor would hold 81 times.
        cyclic = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        start = time.perf_counter()
        with pytest.raises(MemoryCapError, match="21952 x 21952"):
            det_diamond_bounds([0, 1, 2], [0, 1, 2], cyclic, 3, 3, grid_res=6)
        assert time.perf_counter() - start < 1.0

    def test_cutset_grid_over_cap_raises_before_allocating(self):
        # Five-symbol relays behind constant stage maps: the hybrid family is
        # only 210 x 210 at grid 6, but the 593775 joint pmfs of (X2, X3)
        # hold 25 entries each, 3.5 times the cap.
        start = time.perf_counter()
        with pytest.raises(MemoryCapError, match="593775 joint pmfs"):
            det_diamond_bounds(*CONSTANT_STAGE_CYCLIC, grid_res=6)
        assert time.perf_counter() - start < 1.0

    def test_cutset_y4_tables_over_cap_raise_before_allocating(self):
        # Ternary relays and an injective y4 map at grid 12: the 125970 joint
        # pmfs of (X2, X3) hold 9 entries each, within the cap, but their
        # pmfs of (X2, Y4) and (X3, Y4) hold 2 x 27.
        start = time.perf_counter()
        with pytest.raises(MemoryCapError, match="125970 joint pmfs .* 6802380 entries"):
            det_diamond_bounds([0, 0], [0, 0], [[0, 1, 2], [3, 4, 5], [6, 7, 8]], 3, 3,
                               grid_res=12)
        assert time.perf_counter() - start < 1.0


def random_diamond(rng):
    """|X1| <= 4, |X2|, |X3| <= 3, stage maps into at most 3 symbols."""
    x1, x2, x3 = (int(v) for v in rng.integers(1, [5, 4, 4]))
    return (rng.integers(0, 3, x1).tolist(), rng.integers(0, 3, x1).tolist(),
            rng.integers(0, 3, (x2, x3)).tolist(), x2, x3)


def random_diamond_cases(seed, count, max_entries=100_000):
    """Random diamonds with a grid in 1..4, kept where the reference loop's
    hybrid tensor over the px1 grid stays under max_entries candidates."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        case = random_diamond(rng)
        grid = int(rng.integers(1, 5))
        y2_map, y3_map, _, x2, x3 = case
        na = math.comb(grid + x2 - 1, x2 - 1) ** (max(y2_map) + 1)
        nb = math.comb(grid + x3 - 1, x3 - 1) ** (max(y3_map) + 1)
        if na * nb * math.comb(grid + len(y2_map) - 1, grid) <= max_entries:
            cases.append((case, grid))
    return cases


DIAMOND_ORACLE_CASES = (
    [((DIAMOND_Y2, DIAMOND_Y3, DIAMOND_Y4, 2, 2), g) for g in range(1, 7)]
    + [(([0, 1], [0, 1], [[0, 1], [2, 3]], 2, 2), 6), (CONSTANT_STAGE_CYCLIC, 3)]
    + [c for seed in range(5) for c in random_diamond_cases(seed, 20)]
)


def perturb_factored_values(monkeypatch, name, scale=4e-13):
    """Move every value of the filter bounds.<name> by up to scale, less than
    half the tie band."""
    rng = np.random.default_rng(0)
    exact = getattr(bounds, name)

    def noisy(*args):
        vals = exact(*args)
        return vals + rng.uniform(-scale, scale, size=vals.shape)

    monkeypatch.setattr(bounds, name, noisy)


class TestDiamondFactored:
    def test_terms_match_theorem_oracle(self):
        # oracles.diamond_bound on a compose_joint joint, with relays that
        # forward U2 = (Y2, X2) and U3 = (Y3, X3), against the closed-form
        # terms of every random product candidate a(x2|y2) b(x3|y3).  Its
        # second and third expressions are the other relay's terms.
        rng = np.random.default_rng(12)
        candidates = zero_entries = zero_symbols = 0
        while candidates < 300:
            y2_map, y3_map, y4_map, x2, x3 = random_diamond(rng)
            y2_size, y3_size = max(y2_map) + 1, max(y3_map) + 1
            y4_size = max(map(max, y4_map)) + 1
            y4_onehot = np.eye(y4_size)[np.asarray(y4_map)]
            broadcast = ConditionalPmf.deterministic(
                np.asarray(y2_map) * y3_size + np.asarray(y3_map), y2_size * y3_size)
            mac = ConditionalPmf.deterministic(np.ravel(y4_map), y4_size)
            for _ in range(10):
                a = rng.dirichlet(np.full(x2, 0.5), size=y2_size)
                b = rng.dirichlet(np.full(x3, 0.5), size=y3_size)
                px1 = rng.dirichlet(np.ones(len(y2_map)))
                if rng.random() < 0.5:
                    a[0] = np.eye(x2)[x2 - 1]
                    b[-1] = np.eye(x3)[0]
                if px1.size > 1 and rng.random() < 0.5:
                    px1[int(rng.integers(px1.size))] = 0.0
                    px1 /= px1.sum()
                zero_entries += bool((a == 0).any() or (b == 0).any())
                zero_symbols += bool((px1 == 0).any())
                cond = np.einsum("ac,bd->abcd", a, b)[None]
                terms = bounds._det_diamond_terms(px1, y2_map, y3_map, y4_onehot, cond)[:, 0]
                rep = diamond_bound(broadcast, mac, y2_size, y3_size, x2, x3,
                                    relay_forwarding_spec(Pmf(px1), a, b))
                oracle = [rep.constraints[i].rhs for i in (0, 2, 1, 3)]
                assert np.max(np.abs(terms - oracle)) <= 1e-13, (y2_map, y3_map, y4_map, a, b, px1)
                assert terms.min() == pytest.approx(rep.value, abs=1e-13)
                candidates += 1
        assert zero_entries >= 50 and zero_symbols >= 50

    @pytest.mark.parametrize("start", range(0, len(DIAMOND_ORACLE_CASES), 25))
    def test_matches_full_batch_loop(self, start):
        for case, grid in DIAMOND_ORACLE_CASES[start:start + 25]:
            assert (repr(det_diamond_bounds(*case, grid_res=grid))
                    == repr(reference_det_diamond(*case, grid_res=grid))), (case, grid)

    @pytest.mark.parametrize("seed", range(4))
    def test_values_match_reference_terms(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            y2_map, y3_map, y4_map, x2, x3 = random_diamond(rng)
            y2_size, y3_size = max(y2_map) + 1, max(y3_map) + 1
            y4_onehot = np.eye(max(map(max, y4_map)) + 1)[np.asarray(y4_map)]
            a = rng.dirichlet(np.full(x2, 0.5), size=(7, y2_size))
            b = rng.dirichlet(np.full(x3, 0.5), size=(5, y3_size))
            a[0, 0] = np.eye(x2)[0]            # a zero entry in a conditional
            px1 = rng.dirichlet(np.ones(len(y2_map)))
            if px1.size > 1:
                px1[0] = 0.0                   # and a zero source symbol
                px1 /= px1.sum()
            p23 = bounds._stage_joint(px1, y2_map, y3_map, (y2_size, y3_size))
            family = bounds._product_family(a, b, y4_onehot)
            vals = bounds._product_family_values(p23, family)
            cond = np.einsum("iac,jbd->ijabcd", a, b).reshape(
                -1, y2_size, y3_size, x2, x3)
            ref = bounds._det_diamond_terms(px1, y2_map, y3_map, y4_onehot, cond).min(axis=0)
            assert np.max(np.abs(vals - ref)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_cutset_values_match_reference_terms(self, seed):
        rng = np.random.default_rng(200 + seed)
        for _ in range(10):
            y2_map, y3_map, y4_map, x2, x3 = random_diamond(rng)
            y2_size, y3_size = max(y2_map) + 1, max(y3_map) + 1
            y4_onehot = np.eye(max(map(max, y4_map)) + 1)[np.asarray(y4_map)]
            joints = rng.dirichlet(np.full(x2 * x3, 0.5), size=9)
            joints[0] = np.eye(x2 * x3)[-1]        # zero entries in a joint
            joints[1, :x2 * x3 // 2] = 0.0
            joints[1] /= joints[1].sum()
            joints = joints.reshape(-1, x2, x3)
            px1 = rng.dirichlet(np.ones(len(y2_map)))
            if px1.size > 1:
                px1[0] = 0.0                       # and a zero source symbol
                px1 /= px1.sum()
            p23 = bounds._stage_joint(px1, y2_map, y3_map, (y2_size, y3_size))
            family = bounds._cutset_family(joints, y4_onehot)
            vals = bounds._cutset_values(p23, family)
            cond = np.broadcast_to(joints[:, None, None], (9, y2_size, y3_size, x2, x3))
            ref = bounds._det_diamond_terms(px1, y2_map, y3_map, y4_onehot, cond).min(axis=0)
            assert np.max(np.abs(vals - ref)) < 1e-12

    @pytest.mark.parametrize("case, name", [
        (case, name) for name in ("_product_family_values", "_cutset_values")
        for case in [(DIAMOND_Y2, DIAMOND_Y3, DIAMOND_Y4, 2, 2),
                     ([0, 1], [0, 1], [[0, 1], [2, 3]], 2, 2),
                     ([0, 0], [0, 0], [[0, 1], [1, 0]], 2, 2)]
    ], ids=["example1", "identity", "constant-stage",
            "example1-cutset", "identity-cutset", "constant-stage-cutset"])
    def test_reference_terms_decide_near_ties(self, case, name, monkeypatch):
        # Many candidates bind at the same H(Y2,Y3) or tie at 0; the filter
        # values only pick the winner inside a band of DIAMOND_TIE_TOL, so
        # perturbed ones must leave it as it is.
        expected = repr(reference_det_diamond(*case, grid_res=4))
        perturb_factored_values(monkeypatch, name)
        assert repr(det_diamond_bounds(*case, grid_res=4)) == expected
