"""End-to-end acceptance gate.

Each test covers one numbered criterion; the conftest summary hook prints a
pass/fail line per criterion after the run.  Tests are ordered and named
test_criterion_<k>.
"""

import json
import math
import time
from importlib import resources
from itertools import product as iproduct

import numpy as np
import pytest

from hybridlab import bounds, cli, gaussian_twrc, sim
from hybridlab.infotheory import ConditionalPmf, DistortionMeasure, JointPmf, Pmf
from oracles import bsc_kernel, hamming_measure, uniform_pmf

SCENARIOS = resources.files("hybridlab") / "scenarios"
HAMMING2 = hamming_measure(2)
UNIF2 = uniform_pmf(2)


def scen(name: str) -> str:
    return str(SCENARIOS / name)


def load(name: str) -> dict:
    with open(scen(name)) as fh:
        return json.load(fh)


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.2f}s exceeds the {self.seconds:g}s budget")


def test_criterion_1_diamond_reference_values():
    doc = load("example1.json")
    with Budget(0.4):
        res = bounds.det_diamond_bounds(
            doc["y2_map"], doc["y3_map"], doc["y4_map"],
            doc["x2_size"], doc["x3_size"])
    assert res.hybrid == pytest.approx(math.log2(3), abs=1e-9)
    assert res.adt == pytest.approx(1.5, abs=1e-6)
    assert res.cutset >= res.hybrid - 1e-12


def test_criterion_2_twrc_sweep_ordering():
    r_values = [round(0.05 * i, 10) for i in range(1, 10)]   # 0.05 .. 0.45
    with Budget(0.4):
        rows = gaussian_twrc.fig8_sweep(P=10.0, r_grid=r_values, path_loss_exp=3.0)
    assert len(rows) == len(r_values)
    for row in rows:
        assert row["R_HC"] >= row["R_NNC"] + 1e-3
        assert row["R_HC"] >= row["R_AF"] + 1e-3
        assert row["R_CS"] >= row["R_HC"] - 1e-12
        assert row["R_CS"] >= row["R_AF"] - 1e-12
        assert row["R_CS"] >= row["R_NNC"] - 1e-12


def test_criterion_3_scheme_special_cases():
    rng = np.random.default_rng(0)
    with Budget(0.25):
        for _ in range(100):
            s = 10 ** rng.uniform(-1, 2, size=4)
            ch = gaussian_twrc.GaussianTwrcParams(S13=s[0], S23=s[1],
                                                  S31=s[2], S32=s[3])
            sigma2 = 10 ** rng.uniform(-1, 1)
            a = gaussian_twrc.hc_general_rates(
                ch, gaussian_twrc.SchemeParams(alpha=0.0, beta=0.0, sigma2=sigma2))
            b = gaussian_twrc.nnc_rates(ch, sigma2=sigma2)
            assert a.R1 == pytest.approx(b.R1, abs=1e-9)
            assert a.R2 == pytest.approx(b.R2, abs=1e-9)
            a = gaussian_twrc.hc_general_rates(
                ch, gaussian_twrc.SchemeParams(alpha=0.0, beta=1.0, sigma2=sigma2))
            b = gaussian_twrc.hc_special_rates(ch, sigma2=sigma2)
            assert a.R1 == pytest.approx(b.R1, abs=1e-9)
            assert a.R2 == pytest.approx(b.R2, abs=1e-9)
            a = gaussian_twrc.hc_general_rates(
                ch, gaussian_twrc.SchemeParams(alpha=1.0, beta=0.0, sigma2=1e8))
            b = gaussian_twrc.af_rates(ch)
            assert a.R1 == pytest.approx(b.R1, abs=1e-3)
            assert a.R2 == pytest.approx(b.R2, abs=1e-3)


def test_criterion_4_separation_recovery():
    channel = bsc_kernel(0.1)
    targets = [round(0.02 * i, 10) for i in range(1, 26)]   # 0.02 .. 0.50
    with Budget(5.0):
        achievable = bounds.p2p_feasibility_sweep(
            UNIF2, channel, HAMMING2, targets, aux_cap=4, grid_res=12)
    cap = bounds.capacity(channel)
    for target, got in zip(targets, achievable):
        # The theorem's R(D) <= C, with BA_TOL for the solvers' error: at
        # D = 0.1, R(D) = C = 1 - h(0.1) exactly.
        separation = bounds.rd_function(UNIF2, HAMMING2, target) <= cap + bounds.BA_TOL
        assert got == separation, (
            f"feasibility at D={target}: search says {got}, "
            f"separation says {separation}")


def test_criterion_5_mac_substitution_identities():
    with Budget(0.2):
        # Lossless substitution on the correlated-source and orthogonal
        # scenarios.
        for name in ("mac_correlated.json", "mac_orthogonal.json"):
            doc = load(name)
            sources = JointPmf(doc["sources"])
            mac = ConditionalPmf(doc["mac"])
            spec = bounds.lossless_mac_spec(sources, UNIF2, UNIF2, mac.output_size)
            rep = bounds.mac_region_check(sources, mac, HAMMING2, HAMMING2, spec, 2, 2)
            reduced = bounds.lossless_reduced_values(sources, mac, UNIF2, UNIF2)
            for c, (lhs, rhs) in zip(rep.constraints, reduced):
                assert abs(c.lhs - lhs) <= 1e-12
                assert abs(c.rhs - rhs) <= 1e-12
        # Distributed-compression substitution over the noiseless pair channel.
        doc = load("mac_noiseless_pair.json")
        sources = JointPmf(doc["sources"])
        k1, k2 = bsc_kernel(0.2), bsc_kernel(0.3)
        spec = bounds.distributed_mac_spec(k1, k2, UNIF2, UNIF2)
        rep = bounds.mac_region_check(sources, ConditionalPmf.identity(4),
                                      HAMMING2, HAMMING2, spec, 2, 2)
        reduced = bounds.distributed_reduced_values(sources, k1, k2, UNIF2, UNIF2)
        for c, (lhs, rhs) in zip(rep.constraints, reduced):
            assert abs(c.lhs - lhs) <= 1e-12
            assert abs(c.rhs - rhs) <= 1e-12


def test_criterion_6_uncoded_distortion():
    scenario = sim.P2pScenario(source=UNIF2, channel=bsc_kernel(0.1),
                               distortion=HAMMING2)
    spec = bounds.HybridCodeSpec.uncoded(enc=[0, 1], dec=[0, 1], num_sources=2)
    with Budget(0.7):
        rep = sim.run_p2p(scenario, spec,
                          sim.TrialConfig(n=1000, trials=100, seed=0))
    se = rep["distortion_halfwidth"] / 1.96
    assert abs(rep["mean_distortion"] - 0.1) <= 3 * se


def test_criterion_7_error_probability_trend():
    doc = load("p2p_hybrid.json")
    scenario = sim.P2pScenario(source=Pmf(doc["source"]),
                               channel=ConditionalPmf(doc["channel"]),
                               distortion=DistortionMeasure(doc["distortion"]))
    spec_doc = load("p2p_hybrid_spec.json")
    spec = bounds.HybridCodeSpec(
        aux_size=spec_doc["aux_size"],
        aux_kernel=ConditionalPmf(spec_doc["aux_kernel"]),
        enc_map=spec_doc["enc_map"], dec_map=spec_doc["dec_map"],
        rate=spec_doc["rate"])
    # The bundled spec must have a comfortable information gap.
    rep = bounds.check_p2p(scenario.source, scenario.channel,
                           scenario.distortion, spec)
    assert rep.info["slack"] >= 0.15
    with Budget(13.0):
        reports = [sim.run_p2p(scenario, spec,
                               sim.TrialConfig(n=n, trials=2000, epsilon=0.75,
                                               epsilon_prime=0.5, seed=0))
                   for n in (8, 12, 16, 20)]
        for a, b in zip(reports, reports[1:]):
            tol = a["halfwidth_error"] + b["halfwidth_error"]
            assert b["p_error"] <= a["p_error"] + tol, (
                f"P(E) rose from {a['p_error']} (n={a['n']}) to "
                f"{b['p_error']} (n={b['n']}) beyond the confidence slack")
        # Under-rate spec: covering collapses.
        under_doc = load("p2p_underrate_spec.json")
        under = bounds.HybridCodeSpec(
            aux_size=under_doc["aux_size"],
            aux_kernel=ConditionalPmf(under_doc["aux_kernel"]),
            enc_map=under_doc["enc_map"], dec_map=under_doc["dec_map"],
            rate=under_doc["rate"])
        under_rep = sim.run_p2p(scenario, under,
                                sim.TrialConfig(n=20, trials=2000, epsilon=0.75,
                                                epsilon_prime=0.5, seed=0))
        assert under_rep["p_e1"] >= 0.9


def test_criterion_8_codebook_independence():
    doc = load("lemma1.json")
    joint_us = JointPmf(doc["joint_us"])
    rate = doc["rate"]
    eps_prime = doc["eps_prime"]
    with Budget(23.0):
        oracle = sim.lemma1_exact_n2(rate, joint_us, eps_prime)
        mc = sim.lemma1_check(2, rate, joint_us, eps_prime,
                              outer_trials=40000, seed=0, min_count=200)
        assert mc["conclusive"]
        u_size = joint_us.dims[0]
        patterns = list(iproduct(range(u_size), repeat=2))
        violations = 0
        compared = 0
        for key, stats in mc["cells"].items():
            exact = oracle["cells"][key]["conditional"]
            count = stats["count"]
            hist = np.asarray(stats["histogram"], dtype=float)
            emp = hist / count
            for idx, pat in enumerate(patterns):
                q = exact.get(pat, 0.0)
                sigma = math.sqrt(max(q * (1 - q), 0.0) / count)
                compared += 1
                if abs(emp[idx] - q) > 3 * sigma + 1e-12:
                    violations += 1
        assert compared > 0
        assert violations == 0, f"{violations}/{compared} cells beyond 3 sigma"

        # At n=4 the per-cell ratio stays below the n=2-calibrated threshold.
        threshold = oracle["max_ratio"]
        mc4 = sim.lemma1_check(4, rate, joint_us, eps_prime,
                               outer_trials=120000, seed=0, min_count=300)
        assert mc4["conclusive"]
        p_u = joint_us.marginal_pmf(0).probs
        patterns4 = np.array(list(iproduct(range(u_size), repeat=4)))
        gen_prob = np.prod(p_u[patterns4], axis=1)
        for stats in mc4["cells"].values():
            count = stats["count"]
            emp = np.asarray(stats["histogram"], dtype=float) / count
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(gen_prob > 0, emp / gen_prob, 0.0)
                sigma = np.where(
                    gen_prob > 0,
                    np.sqrt(np.maximum(emp * (1 - emp), 0.0) / count) / gen_prob,
                    0.0)
            assert np.all(ratio - 3 * sigma <= threshold + 1e-9), (
                "conditional pmf of the unselected codeword exceeds the "
                "n=2-calibrated ratio threshold")


def test_criterion_9_determinism_and_replay(tmp_path):
    # Two runs of every subcommand into two directories write byte-identical
    # outputs, and replaying every manifest reproduces the recorded digests.
    def run(argv):
        assert cli.main(argv) == 0

    mac_spec = tmp_path / "mac_spec.json"
    mac_spec.write_text(json.dumps({"px1": [0.5, 0.5], "px2": [0.5, 0.5]}))
    outputs = {}
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        run(["bounds-diamond", scen("example1.json"), "--out", str(base / "dia")])
        run(["bounds-twrc", scen("fig8.json"), "--sweep", "--r", "0.5",
             "--out", str(base / "twrc")])
        run(["plot", str(base / "twrc.csv"), "--out", str(base / "plot")])
        run(["region-mac", scen("mac_correlated.json"), "--spec", str(mac_spec),
             "--substitution", "lossless", "--out", str(base / "mac")])
        run(["check-thm1", scen("p2p_hybrid.json"),
             "--spec", scen("p2p_hybrid_spec.json"), "--out", str(base / "t1")])
        run(["check-thm3", scen("twrc_xor.json"),
             "--spec", scen("twrc_xor_spec.json"), "--out", str(base / "t3")])
        run(["simulate", scen("p2p_hybrid.json"),
             "--spec", scen("p2p_hybrid_spec.json"),
             "--n", "8", "--trials", "50", "--eps", "0.75",
             "--eps-prime", "0.5", "--out", str(base / "sim")])
        outputs[name] = {
            p.name: p.read_bytes()
            for p in sorted(base.iterdir()) if not p.name.endswith("manifest.json")}
    assert len(outputs["a"]) == 8
    assert outputs["a"] == outputs["b"]

    replayed = 0
    for manifest_path in sorted((tmp_path / "a").glob("*.manifest.json")):
        with open(manifest_path) as fh:
            recorded = json.load(fh)["outputs"]
        fresh = cli.replay_manifest(str(manifest_path))
        assert fresh == recorded
        replayed += 1
    assert replayed == 7
