import hashlib
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybridlab import bounds, cli, sim
from hybridlab.bounds import HybridCodeSpec, MacHybridSpec, lossless_mac_spec
from hybridlab.infotheory import (ConditionalPmf, JointPmf, Pmf, ScenarioError, typical_pairs,
                                  typical_table)
from hybridlab.sim import (
    MacScenario,
    MemoryCapError,
    P2pScenario,
    TrialConfig,
    codebook_size,
    derived_seed,
    encode_p2p,
    generate_codebook,
    lemma1_check,
    lemma1_exact_n2,
    run_mac,
    run_p2p,
)
from oracles import (bsc_kernel, compositions, covering_mass, exact_p_e1, hamming_measure,
                     is_typical, uniform_pmf)

UNIF2 = uniform_pmf(2)
HAMMING2 = hamming_measure(2)


def bec(e):
    return ConditionalPmf([[1 - e, 0.0, e], [0.0, 1 - e, e]])


def erasure_scenario():
    scenario = P2pScenario(source=UNIF2, channel=bec(0.5), distortion=HAMMING2)
    spec = HybridCodeSpec(
        aux_size=2,
        aux_kernel=bsc_kernel(0.3),
        enc_map=[[0, 0], [1, 1]],
        dec_map=[[0, 1, 0], [0, 1, 1]],
        rate=0.35,
    )
    return scenario, spec


class TestSeeds:
    def test_derived_seed_deterministic(self):
        assert derived_seed(7, 1, 3) == derived_seed(7, 1, 3)

    def test_derived_seed_separates_streams(self):
        seen = {derived_seed(0, p, t) for p in range(4) for t in range(50)}
        assert len(seen) == 200

    def test_root_seed_matters(self):
        assert derived_seed(0, 0, 0) != derived_seed(1, 0, 0)


# Root seeds of one to five entropy words: 2^130 has five, more than the
# pool, so SeedSequence does not pad it before the spawn key.
ORACLE_ROOTS = [0, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 130]
# Keys of one word, and of two (2^32 and up), which SeedSequence hashes as
# one more entropy word.
ORACLE_KEYS = [0, 1, 123_456_789, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5, 2 ** 64 - 1]


def numpy_stream(root, purpose, key):
    """The generator each trial stream is defined as, built by numpy."""
    seq = np.random.SeedSequence(root, spawn_key=(purpose, key))
    if purpose == sim._CODEBOOK:
        seq = np.random.SeedSequence(int(seq.generate_state(1, dtype=np.uint64)[0]))
    return np.random.default_rng(seq)


class TestBatchedStreams:
    """The batched seed derivation against numpy's SeedSequence and PCG64."""

    @pytest.mark.parametrize("root", ORACLE_ROOTS)
    @pytest.mark.parametrize("purpose", range(4))
    def test_state_words_match_seed_sequence(self, root, purpose):
        words = sim._spawned_state(root, purpose, np.array(ORACLE_KEYS, dtype=np.uint64))
        for key, row in zip(ORACLE_KEYS, words.tolist()):
            seq = np.random.SeedSequence(root, spawn_key=(purpose, key))
            assert row == seq.generate_state(4, dtype=np.uint64).tolist(), key
            assert derived_seed(root, purpose, key) == row[0]

    @pytest.mark.parametrize("root", ORACLE_ROOTS)
    def test_codebook_words_match_second_seed_sequence(self, root):
        seeds = sim._spawned_state(root, sim._CODEBOOK, np.array(ORACLE_KEYS, dtype=np.uint64))[:, 0]
        words = sim._seed_sequence_state(sim._word_halves(seeds))
        for seed, row in zip(seeds.tolist(), words.tolist()):
            assert row == np.random.SeedSequence(seed).generate_state(4, dtype=np.uint64).tolist()

    @pytest.mark.parametrize("root", ORACLE_ROOTS)
    @pytest.mark.parametrize("purpose", range(4))
    def test_kernel_prefixes_match_numpy(self, root, purpose):
        # ORACLE_KEYS plus two keys that straddle a stream block, read in one
        # request; shorter prefixes come from the longest one cached.
        keys = np.array(sorted(ORACLE_KEYS + [1023, 1024]), dtype=np.uint64)
        streams = sim._Streams(root, 2 ** 64)
        for count in (sim._ARRAY_DRAWS + 1, sim._ARRAY_DRAWS, 2, 1):
            words = streams.draws(purpose, keys, count)[1]
            for key, row in zip(keys.tolist(), words):
                want = numpy_stream(root, purpose, key).random(count)
                assert ((row >> 11) * 2.0 ** -53).tolist() == want.tolist(), (key, count)

    @pytest.mark.parametrize("root", ORACLE_ROOTS)
    def test_draws_match_numpy_generators(self, root):
        # Keys out of order and across stream blocks, as the two-sender
        # codebooks (keys 2t and 2t + 1) ask for them, each read from the
        # kernel and from the moved generator.
        streams = sim._Streams(root, 2 ** 33)
        keys = [5, 2000, 3, 1024, 1023, 123_456_789, 2 ** 32 + 7, 0]
        for purpose in range(4):
            for key in keys:
                for count in (8, sim._ARRAY_DRAWS + 1):
                    got = streams.uniforms(purpose, np.array([key]), (count,))[0]
                    want = numpy_stream(root, purpose, key).random(count)
                    assert got.tolist() == want.tolist(), (purpose, key, count)

    def test_uniform_rows_are_stream_prefixes(self):
        streams = sim._Streams(11, 2000)
        keys = np.array([0, 7, 1500])
        for shape in ((3, 4), (5, 13)):     # the kernel, then the moved generator
            block = streams.uniforms(sim._CODEBOOK, keys, shape)
            for key, rows in zip(keys.tolist(), block):
                assert np.array_equal(rows, numpy_stream(11, sim._CODEBOOK, key).random(shape))

    def test_bounded_draws_match_generator_integers(self):
        # One stream per row, read by a sequence of bounded draws as the
        # senders of one trial read it.  k = 1 draws nothing; the low word
        # of 3 * 2^30 and 2^31 + 1 is rejected about 1/4 and 1/2 of the
        # time, so rows run past the first output into the kernel's later
        # ones.
        keys = np.arange(64)
        ties = sim._Streams(3, keys.size).draws(sim._TIEBREAK, keys, 1)
        gens = [numpy_stream(3, sim._TIEBREAK, key) for key in keys.tolist()]
        used = np.zeros(keys.size, dtype=np.uint64)
        bounds = [1, 2, 3, 2 ** 22, 3 * 2 ** 30, 2 ** 31 + 1]
        for k in bounds + bounds[::-1]:
            before = used.copy()
            got = sim._bounded(ties, keys, np.full(keys.size, k), used)
            assert got.tolist() == [g.integers(k) for g in gens], k
            if k == 1:
                assert np.array_equal(used, before)
        assert (used > 10).any()

    def test_second_sender_reads_the_buffered_high_half(self):
        keys = np.arange(8)
        ties = sim._Streams(4, keys.size).draws(sim._TIEBREAK, keys, 1)
        used = np.zeros(keys.size, dtype=np.uint64)
        first = sim._bounded(ties, keys, np.full(keys.size, 5), used)
        assert used.tolist() == [1] * keys.size
        second = sim._bounded(ties, keys, np.full(keys.size, 7), used)
        high = ties[1][:, 0] >> 32
        assert second.tolist() == (high * 7 >> 32).tolist()
        for key in keys.tolist():
            gen = numpy_stream(4, sim._TIEBREAK, key)
            assert [first[key], second[key]] == [gen.integers(5), gen.integers(7)]

    def test_mac_codebook_blocks_are_derived_once(self, monkeypatch):
        # 896 symbols hold 7 trials of the n = 4 identity MAC, so the chunk
        # of trials 511-517 asks for codebook keys 1022-1035 of blocks 0 and
        # 1, in two passes (2t, then 2t + 1).
        derived = []
        spawned = sim._spawned_state

        def counting(root, purpose, keys):
            derived.append((purpose, int(keys[0]) // sim._STREAM_BLOCK))
            return spawned(root, purpose, keys)

        monkeypatch.setattr(sim, "_CHUNK_SYMBOLS", 896)
        monkeypatch.setattr(sim, "_spawned_state", counting)
        scenario, spec = identity_mac()
        run_mac(scenario, spec, TrialConfig(n=4, trials=600, epsilon=0.75,
                                            epsilon_prime=0.5, seed=0))
        assert sorted(derived) == [(sim._SOURCE, 0), (sim._CODEBOOK, 0), (sim._CODEBOOK, 1),
                                   (sim._CHANNEL, 0), (sim._TIEBREAK, 0)]

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_bad_root_seed_rejected(self, seed):
        with pytest.raises(ScenarioError, match="seed must be a non-negative integer"):
            TrialConfig(n=4, trials=1, seed=seed)
        with pytest.raises(ScenarioError, match="seed must be a non-negative integer"):
            lemma1_check(2, 0.5, IDENTITY_COUPLING, 0.25, outer_trials=1, seed=seed)


class TestCodebook:
    def test_size_floor(self):
        assert codebook_size(10, 0.5) == 32
        assert codebook_size(10, 0.55) == 45
        assert codebook_size(4, 0.0) == 1

    def test_size_caps_symbols(self, monkeypatch):
        # 2^5 = 32 codewords of length 100: n * R = 5 is under log2(1000),
        # but the 3200 symbols are not.
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 3200)
        assert codebook_size(100, 0.05) == 32
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 3199)
        with pytest.raises(MemoryCapError, match="32-word codebook needs 3200 symbols"):
            codebook_size(100, 0.05)

    def test_bit_identical_regeneration(self):
        a = generate_codebook(8, 0.5, UNIF2, seed=123)
        b = generate_codebook(8, 0.5, UNIF2, seed=123)
        assert a.shape == (16, 8)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = generate_codebook(10, 0.8, UNIF2, seed=1)
        b = generate_codebook(10, 0.8, UNIF2, seed=2)
        assert not np.array_equal(a, b)

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 1000)
        with pytest.raises(MemoryCapError):
            generate_codebook(40, 0.9, UNIF2, seed=0)

    def test_entries_readonly(self):
        cb = generate_codebook(8, 0.5, UNIF2, seed=0)
        with pytest.raises(ValueError):
            cb[0, 0] = 1


class TestTrialConfig:
    def test_requires_eps_order(self):
        with pytest.raises(ValueError):
            TrialConfig(n=8, trials=10, epsilon=0.1, epsilon_prime=0.2)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            TrialConfig(n=8, trials=10, epsilon=0.3, epsilon_prime=0.0)

    @pytest.mark.parametrize("kind", ["p2p", "mac"])
    def test_trials_capped_before_allocating(self, monkeypatch, kind):
        # Caps that the codebooks (6 x 8 p2p symbols) and the MAC pair
        # search ((8*4 + 2*4) * 4 + 4*4*16 = 416 entries) fit under.
        if kind == "p2p":
            (scenario, spec), run, n, cap = erasure_scenario(), run_p2p, 8, 64
        else:
            scenario, spec = identity_mac()
            spec, run, n, cap = replace(spec, R1=0.5, R2=0.5), run_mac, 4, 416
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", cap)
        report = run(scenario, spec, TrialConfig(n=n, trials=cap, epsilon=0.75,
                                                 epsilon_prime=0.5))
        assert report["trials"] == cap
        with pytest.raises(MemoryCapError):
            TrialConfig(n=n, trials=cap + 1, epsilon=0.75, epsilon_prime=0.5)


class TestRunP2p:
    def test_report_shape_and_ranges(self):
        scenario, spec = erasure_scenario()
        cfg = TrialConfig(n=8, trials=60, epsilon=0.75, epsilon_prime=0.5, seed=0)
        rep = run_p2p(scenario, spec, cfg)
        assert rep["n"] == 8 and rep["trials"] == 60
        for key in ("p_e1", "p_e2_given_not_e1", "p_e3", "p_error"):
            assert 0.0 <= rep[key] <= 1.0
        assert rep["p_error"] >= max(rep["p_e1"], rep["p_e3"]) - 1e-12
        assert 0.0 <= rep["mean_distortion"] <= 1.0
        assert rep["halfwidth_error"] >= 0.0

    def test_deterministic_given_seed(self):
        scenario, spec = erasure_scenario()
        cfg = TrialConfig(n=8, trials=40, epsilon=0.75, epsilon_prime=0.5, seed=5)
        assert run_p2p(scenario, spec, cfg) == run_p2p(scenario, spec, cfg)

    def test_seed_changes_outcome(self):
        scenario, spec = erasure_scenario()
        reps = [run_p2p(scenario, spec,
                        TrialConfig(n=8, trials=40, epsilon=0.75,
                                    epsilon_prime=0.5, seed=s))
                for s in (0, 1)]
        assert reps[0] != reps[1]

    def test_uncoded_distortion_matches_channel(self):
        scenario = P2pScenario(source=UNIF2, channel=bsc_kernel(0.1),
                               distortion=HAMMING2)
        spec = HybridCodeSpec.uncoded(enc=[0, 1], dec=[0, 1], num_sources=2)
        cfg = TrialConfig(n=500, trials=40, epsilon=0.3, epsilon_prime=0.2, seed=0)
        rep = run_p2p(scenario, spec, cfg)
        assert rep["mean_distortion"] == pytest.approx(0.1, abs=0.02)

    @pytest.mark.parametrize("root, n, trials", [(3, 8, 60), (11, 12, 40)])
    def test_matches_one_trial_reference(self, root, n, trials):
        # Each trial on its own, with numpy's generators of its streams, the
        # codebook of generate_codebook, encode_p2p and is_typical.
        scenario, spec = _pinned_p2p()
        config = TrialConfig(n=n, trials=trials, epsilon=0.75, epsilon_prime=0.5, seed=root)
        source, channel, d = scenario.source, scenario.channel, scenario.distortion
        joint = bounds._p2p_joint(source, channel, d, spec)
        joint_us, joint_uy = joint.marginal([1, 0]), joint.marginal([1, 3])
        flags = np.zeros((3, trials), dtype=bool)
        dists = np.empty(trials)

        def stream(purpose, t):
            return np.random.default_rng(np.random.SeedSequence(root, spawn_key=(purpose, t)))

        for t in range(trials):
            s = stream(0, t).choice(source.alphabet_size, n, p=source.probs)
            cb = generate_codebook(n, spec.rate, joint_us.marginal_pmf(0), derived_seed(root, 1, t))
            m, x, flags[0, t] = encode_p2p(s, cb, config.epsilon_prime, spec.enc_map,
                                           joint_us, stream(3, t))
            noise = stream(2, t)
            y = np.array([noise.choice(channel.output_size, p=channel.rows[xi]) for xi in x])
            typ = np.array([is_typical((c, y), joint_uy, config.epsilon) for c in cb])
            flags[1, t] = not flags[0, t] and not typ[m]
            flags[2, t] = typ.sum() - typ[m] > 0
            m_hat = int(typ.argmax()) if typ.sum() == 1 else 0
            dists[t] = d.table[s, spec.dec_map[cb[m_hat], y]].mean()
        assert run_p2p(scenario, spec, config) == sim._p2p_report(n, *flags, dists)

    def test_memory_cap_enforced(self, monkeypatch):
        scenario, spec = erasure_scenario()
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 500)
        cfg = TrialConfig(n=64, trials=1, epsilon=0.75, epsilon_prime=0.5)
        with pytest.raises(MemoryCapError):
            run_p2p(scenario, spec, cfg)


def identity_mac():
    """Noiseless pair MAC with u_j = s_j, x_j = s_j and shat_j read off y."""
    sources = JointPmf([[0.35, 0.15], [0.15, 0.35]])
    scenario = MacScenario(sources=sources, mac=ConditionalPmf.identity(4), x1_size=2, x2_size=2,
                           d1=HAMMING2, d2=HAMMING2)
    aux = np.zeros((1, 2, 2))
    aux[0] = np.eye(2)                       # u_j = s_j
    enc = np.zeros((1, 2, 2), dtype=int)
    enc[0] = [[0, 1], [0, 1]]                # x_j = s_j regardless of u_j
    y = np.arange(4)
    dec1 = np.broadcast_to(y // 2, (1, 2, 2, 4)).copy()   # shat1 from y
    dec2 = np.broadcast_to(y % 2, (1, 2, 2, 4)).copy()
    spec = MacHybridSpec(q_pmf=Pmf([1.0]), aux1=aux, aux2=aux,
                         enc1=enc, enc2=enc, dec1=dec1, dec2=dec2,
                         R1=1.0, R2=1.0)
    return scenario, spec


def noisy_mac():
    """The pair channel mixed with a uniform row, u_j a BSC(0.2) copy of s_j,
    x_j = u_j and shat_j = u_j.  At n = 6, R = 0.67 and eps = 2.5 / 1.5 its
    trials show every error event, zero and several typical pairs, and
    unique hits away from (0, 0)."""
    sources = JointPmf([[0.35, 0.15], [0.15, 0.35]])
    mac = ConditionalPmf(0.9 * np.eye(4) + 0.1 / 4)
    scenario = MacScenario(sources=sources, mac=mac, x1_size=2, x2_size=2,
                           d1=HAMMING2, d2=HAMMING2)
    aux = np.array([[[0.8, 0.2], [0.2, 0.8]]])
    enc = np.array([[[0, 0], [1, 1]]])
    u = np.arange(2)
    dec1 = np.broadcast_to(u[:, None, None], (1, 2, 2, 4)).copy()
    dec2 = np.broadcast_to(u[None, :, None], (1, 2, 2, 4)).copy()
    spec = MacHybridSpec(q_pmf=Pmf([1.0]), aux1=aux, aux2=aux,
                         enc1=enc, enc2=enc, dec1=dec1, dec2=dec2,
                         R1=0.67, R2=0.67)
    return scenario, spec


def silent_sender_mac():
    """mac_correlated.json with u_j = s_j, a silent sender 1 (x1 = 0),
    x2 = s2 and shat_j = u_j, so the encoders never use input symbol 1 of
    sender 1."""
    scenario = cli.build_mac_scenario(
        cli.load_scenario(str(SCENARIOS / "mac_correlated.json"), "mac"))
    aux = [np.eye(2)]
    u = np.arange(2)
    dec1 = np.broadcast_to(u[:, None, None], (1, 2, 2, 2)).copy()   # shat1 = u1
    dec2 = np.broadcast_to(u[None, :, None], (1, 2, 2, 2)).copy()   # shat2 = u2
    spec = MacHybridSpec(q_pmf=Pmf([1.0]), aux1=aux, aux2=aux,
                         enc1=[[[0, 0], [0, 0]]], enc2=[[[0, 1], [0, 1]]],
                         dec1=dec1, dec2=dec2, R1=0.5, R2=0.75)
    return scenario, spec


class TestRunMac:
    @staticmethod
    def scenario_and_spec():
        sources = JointPmf([[0.35, 0.15], [0.15, 0.35]])
        scenario = MacScenario(sources=sources, mac=ConditionalPmf.identity(4),
                               x1_size=2, x2_size=2, d1=HAMMING2, d2=HAMMING2)
        spec = lossless_mac_spec(sources, UNIF2, UNIF2, 4)
        return scenario, spec

    def test_report_shape_and_determinism(self):
        scenario, spec = self.scenario_and_spec()
        cfg = TrialConfig(n=6, trials=30, epsilon=0.75, epsilon_prime=0.5, seed=0)
        rep = run_mac(scenario, spec, cfg)
        for key in ("p_e1", "p_e2", "p_e3", "p_e4", "p_e5", "p_e6", "p_error"):
            assert 0.0 <= rep[key] <= 1.0
        assert rep == run_mac(scenario, spec, cfg)

    def test_union_bound_consistency(self):
        scenario, spec = self.scenario_and_spec()
        cfg = TrialConfig(n=6, trials=30, epsilon=0.75, epsilon_prime=0.5, seed=3)
        rep = run_mac(scenario, spec, cfg)
        singles = max(rep[f"p_{k}"] for k in ("e1", "e2", "e3", "e4", "e5", "e6"))
        total = sum(rep[f"p_{k}"] for k in ("e1", "e2", "e3", "e4", "e5", "e6"))
        assert singles - 1e-12 <= rep["p_error"] <= total + 1e-12

    def test_rejects_time_sharing(self):
        scenario, spec = self.scenario_and_spec()
        bad = lossless_mac_spec(scenario.sources, UNIF2, UNIF2, 4)
        object.__setattr__(bad, "q_pmf", uniform_pmf(2))
        cfg = TrialConfig(n=4, trials=2, epsilon=0.75, epsilon_prime=0.5)
        with pytest.raises(ValueError):
            run_mac(scenario, bad, cfg)

    @pytest.mark.parametrize("name", ["aux1", "aux2"])
    @pytest.mark.parametrize("rows", [[[[0.9, 0.0], [0.0, 1.0]]], [[[1.2, -0.2], [0.0, 1.0]]],
                                      [[[math.nan, 1.0], [0.0, 1.0]]]],
                             ids=["sum-0.9", "negative", "nan"])
    def test_aux_rows_must_be_pmfs(self, name, rows):
        scenario, spec = identity_mac()
        spec = replace(spec, **{name: rows})
        with pytest.raises(ScenarioError, match=f"^{name}: kernel"):
            run_mac(scenario, spec, TrialConfig(n=2, trials=1))

    def test_noiseless_identity_maps_zero_distortion(self):
        # Symbol maps that carry the source through the noiseless pair
        # channel directly: distortion is zero no matter which error events
        # fire, and the two single-index packing events are symmetric.
        scenario, spec = identity_mac()
        cfg = TrialConfig(n=8, trials=200, epsilon=0.75, epsilon_prime=0.5, seed=0)
        rep = run_mac(scenario, spec, cfg)
        assert rep["mean_distortion_1"] == 0.0
        assert rep["mean_distortion_2"] == 0.0
        assert abs(rep["p_e5"] - rep["p_e6"]) <= (
            rep["halfwidth_e5"] + rep["halfwidth_e6"] + 0.05)

    @pytest.mark.parametrize("make, root, n, trials", [
        (identity_mac, 3, 4, 40), (silent_sender_mac, 2, 4, 40)],
        ids=["identity", "silent-sender"])
    def test_matches_one_trial_reference(self, make, root, n, trials):
        # Each trial on its own, with numpy's generators of its streams,
        # generate_codebook and is_typical over every index pair.
        scenario, spec = make()
        config = TrialConfig(n=n, trials=trials, epsilon=1.5, epsilon_prime=0.75, seed=root)
        j = bounds._mac_joint(scenario.sources, scenario.mac, scenario.d1, scenario.d2, spec,
                              scenario.x1_size, scenario.x2_size)
        j_us = (j.marginal([3, 1]), j.marginal([4, 2]))
        j_uuy = j.marginal([3, 4, 7])
        rates = (spec.R1, spec.R2)
        s_probs = scenario.sources.probs.ravel()
        events = {key: np.zeros(trials, dtype=bool) for key in sim._MAC_EVENTS}
        d1s, d2s = np.empty(trials), np.empty(trials)
        for t in range(trials):
            s = divmod(numpy_stream(root, sim._SOURCE, t).choice(s_probs.size, n, p=s_probs),
                       scenario.sources.dims[1])
            cbs = [generate_codebook(n, rates[j], j_us[j].marginal_pmf(0),
                                     derived_seed(root, sim._CODEBOOK, 2 * t + j))
                   for j in range(2)]
            ties = numpy_stream(root, sim._TIEBREAK, t)
            idx = []
            for j, key in enumerate(("e1", "e2")):
                hits = np.flatnonzero([is_typical((c, s[j]), j_us[j], config.epsilon_prime)
                                       for c in cbs[j]])
                events[key][t] = hits.size == 0
                if hits.size == 1:
                    idx.append(hits[0])
                else:
                    idx.append(ties.integers(cbs[j].shape[0]) if hits.size == 0
                               else hits[ties.integers(hits.size)])
            x1 = spec.enc1[0][cbs[0][idx[0]], s[0]]
            x2 = spec.enc2[0][cbs[1][idx[1]], s[1]]
            noise = numpy_stream(root, sim._CHANNEL, t)
            rows = scenario.mac.rows[x1 * scenario.x2_size + x2]
            y = np.array([noise.choice(scenario.mac.output_size, p=row) for row in rows])
            typ = np.array([[is_typical((c1, c2, y), j_uuy, config.epsilon) for c2 in cbs[1]]
                            for c1 in cbs[0]])
            others = typ.copy()
            others[idx[0], idx[1]] = False
            events["e3"][t] = not typ[idx[0], idx[1]]
            events["e4"][t] = np.delete(np.delete(others, idx[0], 0), idx[1], 1).any()
            events["e5"][t] = others[:, idx[1]].any()
            events["e6"][t] = others[idx[0]].any()
            h1, h2 = np.argwhere(typ)[0] if typ.sum() == 1 else (0, 0)
            u1_hat, u2_hat = cbs[0][h1], cbs[1][h2]
            d1s[t] = scenario.d1.table[s[0], spec.dec1[0][u1_hat, u2_hat, y]].mean()
            d2s[t] = scenario.d2.table[s[1], spec.dec2[0][u1_hat, u2_hat, y]].mean()
        events["error"] = np.logical_or.reduce(list(events.values()))
        want = {"n": n, "trials": trials}
        for key, flags in events.items():
            want[f"p_{key}"] = int(flags.sum()) / trials
            want[f"halfwidth_{key}"] = sim._binom_halfwidth(int(flags.sum()), trials)
        want["mean_distortion_1"] = float(np.mean(d1s))
        want["mean_distortion_2"] = float(np.mean(d2s))
        assert run_mac(scenario, spec, config) == want
        # Every event occurs in these trials, so each branch is compared.
        assert all(flags.any() for flags in events.values())

    def test_memory_cap_enforced(self, monkeypatch):
        import dataclasses

        scenario, spec = self.scenario_and_spec()
        spec = dataclasses.replace(spec, R1=1.0, R2=1.0)
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 200)
        cfg = TrialConfig(n=16, trials=1, epsilon=0.75, epsilon_prime=0.5)
        with pytest.raises(MemoryCapError):
            run_mac(scenario, spec, cfg)

    def test_memory_cap_counts_pair_search_entries(self, monkeypatch):
        # n = 4, R = 1: 16 x 16 codewords, C = |U1||Y| = 8 and D = |U2| = 2.
        # The search holds (8*16 + 2*16) * 4 one-hot entries and 16*16*16
        # counts, 4736 in all, where m1 * m2 * n is only 1024.
        scenario, spec = identity_mac()
        config = TrialConfig(n=4, trials=1, epsilon=0.75, epsilon_prime=0.5)
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 4736)
        run_mac(scenario, spec, config)

        def no_draws(*args):
            raise AssertionError("drew a stream before the cap check")

        monkeypatch.setattr(sim._Streams, "uniforms", no_draws)
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 4735)
        with pytest.raises(MemoryCapError):
            run_mac(scenario, spec, config)

    def test_pair_search_work(self, monkeypatch):
        # The benchmark's 256 x 256 pair search.  u_j = s_j and y = (s1, s2),
        # so a cell (u1, y) whose y does not carry u1 has probability 0 and
        # accepts only count 0: a sender-1 codeword is left only if it is
        # the s1 that y carries, and likewise for sender 2.  Scoring every
        # pair was 5 * 256 * 256.
        scored = []

        def counted(a, b, ok):
            scored.append(math.prod(a.shape[:-1]) * b.shape[-2])
            return typical_pairs(a, b, ok)

        monkeypatch.setattr(sim, "typical_pairs", counted)
        scenario, spec = identity_mac()
        report = run_mac(scenario, spec, TrialConfig(
            n=8, trials=5, epsilon=0.75, epsilon_prime=0.5, seed=0))
        assert repr(report) == PINNED["mac_identity_n8_seed0"]
        # The encoders score each sender's 256 codewords against its source
        # block, and the pruning each sender's 256 codewords against y.
        decoder = sum(scored) - 2 * 2 * 5 * 256
        assert 5 <= decoder <= 0.01 * 5 * 256 * 256, decoder


def einsum_typical_pairs(cb1, cb2, y, p_uuy, epsilon):
    """An earlier pair search of run_mac, kept as the reference: one-hot
    tensors, an einsum to (m1, m2, cells) float counts and the typicality
    test on every cell."""
    u1_size, u2_size, y_size = p_uuy.shape
    (m1, n), m2 = cb1.shape, cb2.shape[0]
    a = np.zeros((m1, n, u1_size * y_size))
    a[np.arange(m1)[:, None], np.arange(n)[None, :], cb1 * y_size + y[None, :]] = 1.0
    b = np.zeros((m2, n, u2_size))
    b[np.arange(m2)[:, None], np.arange(n)[None, :], cb2] = 1.0
    pair_counts = np.einsum("mic,nid->mncd", a, b)
    pair_counts = pair_counts.reshape(m1, m2, u1_size, y_size, u2_size)
    pair_counts = pair_counts.transpose(0, 1, 2, 4, 3).reshape(m1, m2, -1)
    p = p_uuy.ravel()
    return np.all(np.abs(pair_counts / n - p[None, None, :]) <= epsilon * p, axis=2)


class TestPairSearchOracle:
    """typical_table with typical_pairs, laid out as run_mac's pair search,
    against the einsum pair search, required ==."""

    @staticmethod
    def problem(rng, u1_size, u2_size, y_size, n):
        m1, m2 = rng.integers(1, 17, size=2)
        cb1 = rng.integers(u1_size, size=(m1, n))
        cb2 = rng.integers(u2_size, size=(m2, n))
        y = rng.integers(y_size, size=n)
        # p(u1, u2, y) near the type of pair (0, 0), so some pairs are
        # typical; cells pair (0, 0) never visits keep probability 0 unless
        # the perturbation reaches them.
        counts = np.zeros((u1_size, u2_size, y_size))
        np.add.at(counts, (cb1[0], cb2[0], y), 1.0)
        bump = rng.random(counts.shape) * (rng.random(counts.shape) < 0.3)
        p = (counts + bump) / (counts + bump).sum()
        # eps on the boundary of pair (0, 0)'s count in one positive cell.
        cell = tuple(rng.choice(np.argwhere(p > 0)))
        k = counts[cell]
        epsilon = abs(k / n - p[cell]) / p[cell] if rng.random() < 0.7 else rng.random()
        return cb1, cb2, y, p, epsilon

    @staticmethod
    def gemm_mask(cb1, cb2, y, p, epsilon):
        u1_size, u2_size, y_size = p.shape
        ok = typical_table(p.transpose(0, 2, 1).reshape(u1_size * y_size, u2_size),
                           cb1.shape[1], epsilon)
        return typical_pairs(cb1 * y_size + y, cb2, ok)

    @classmethod
    def random_problems(cls):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            u1_size, u2_size = rng.integers(1, 4, size=2)
            y_size = rng.integers(1, 5)
            n = rng.integers(1, 13)
            yield cls.problem(rng, u1_size, u2_size, y_size, n)

    def test_matches_einsum_on_random_problems(self):
        some_typical = zero_cells = 0
        for cb1, cb2, y, p, eps in self.random_problems():
            want = einsum_typical_pairs(cb1, cb2, y, p, eps)
            got = self.gemm_mask(cb1, cb2, y, p, eps)
            assert got.shape == want.shape and got.dtype == bool
            assert np.array_equal(got, want)
            some_typical += bool(want.any())
            zero_cells += bool((p == 0).any())
        assert some_typical >= 100 and zero_cells >= 100

    @staticmethod
    def check_pruned_search(cb1, cb2, y, p, epsilon, i1, i2):
        """sim._pair_search on one trial with chosen pair (i1, i2): its mask,
        scattered back to (m1, m2), and the values run_mac reads from it
        against the einsum search.  Returns the searched indices."""
        want = einsum_typical_pairs(cb1, cb2, y, p, epsilon)
        ok = typical_table(p, cb1.shape[1], epsilon)
        [(r1, r2, typ)] = sim._pair_search(cb1[None], cb2[None], y[None], ok,
                                           np.array([i1]), np.array([i2]))
        # The indices ascend, and the chosen pair sits at its searchsorted
        # position.
        assert np.all(np.diff(r1) > 0) and np.all(np.diff(r2) > 0)
        i, j = np.searchsorted(r1, i1), np.searchsorted(r2, i2)
        assert r1[i] == i1 and r2[j] == i2
        full = np.zeros(want.shape, dtype=bool)
        full[np.ix_(r1, r2)] = typ
        assert np.array_equal(full, want)
        # The chosen pair's row and column: chosen, in its row, in its
        # column, in all, and the unique typical pair through the index maps.
        got = (typ[i, j], typ[i].sum(), typ[:, j].sum(), typ.sum())
        assert got == (want[i1, i2], want[i1].sum(), want[:, i2].sum(), want.sum())
        hits = np.argwhere(typ)
        if hits.shape[0] == 1:
            assert [r1[hits[0, 0]], r2[hits[0, 1]]] == np.argwhere(want)[0].tolist()
        return r1, r2

    def test_pruned_search_on_random_problems(self):
        rng = np.random.default_rng(24)
        pruned = 0
        for cb1, cb2, y, p, eps in self.random_problems():
            i1, i2 = rng.integers(cb1.shape[0]), rng.integers(cb2.shape[0])
            r1, r2 = self.check_pruned_search(cb1, cb2, y, p, eps, i1, i2)
            pruned += r1.size * r2.size < cb1.shape[0] * cb2.shape[0]
        assert pruned >= 100

    def test_cell_accepting_no_count_prunes_every_pair(self):
        # At n = 4 a cell of probability 0.3 with eps = 0.01 accepts no
        # count, so every (u1, y) and (u2, y) range holding it is empty.
        rng = np.random.default_rng(5)
        p = np.array([[[0.3, 0.2]], [[0.25, 0.25]]])       # (u1, u2, y)
        ok = typical_table(p, 4, 0.01)
        assert not ok[0, 0, 0].any()
        cb1, cb2, y = rng.integers(2, size=(9, 4)), np.zeros((6, 4), dtype=int), rng.integers(2, size=4)
        r1, r2 = self.check_pruned_search(cb1, cb2, y, p, 0.01, 4, 2)
        assert r1.tolist() == [4] and r2.tolist() == [2]

    def test_large_epsilon_prunes_nothing(self):
        # Every cell positive and eps = 1e9: each cell accepts every count.
        rng = np.random.default_rng(6)
        p = rng.random((2, 3, 2)) + 0.1
        p /= p.sum()
        cb1, cb2, y = rng.integers(2, size=(7, 5)), rng.integers(3, size=(5, 5)), rng.integers(2, size=5)
        r1, r2 = self.check_pruned_search(cb1, cb2, y, p, 1e9, 3, 0)
        assert r1.tolist() == [0, 1, 2, 3, 4, 5, 6] and r2.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("sender", [0, 1])
    def test_one_codeword_sender(self, sender):
        rng = np.random.default_rng(7 + sender)
        for _ in range(50):
            cb1, cb2, y, p, eps = self.problem(rng, 2, 2, 3, int(rng.integers(1, 9)))
            cbs = [cb1, cb2]
            cbs[sender] = cbs[sender][:1]
            i1, i2 = rng.integers(cbs[0].shape[0]), rng.integers(cbs[1].shape[0])
            self.check_pruned_search(*cbs, y, p, eps, i1, i2)

    def test_typical_counts_lie_in_the_summed_ranges(self):
        # Every type (joint count table) of n symbols is tried, so the
        # tables accept every typical pair's (u1, y) and (u2, y) counts.
        rng = np.random.default_rng(11)
        typical_types = boundary = 0
        for _ in range(300):
            while True:
                shape = tuple(rng.integers(1, 4, size=3))
                if math.prod(shape) <= 8:
                    break
            n = int(rng.integers(1, 7))
            p = rng.random(shape) * (rng.random(shape) < 0.75)
            p.flat[rng.integers(p.size)] += 0.1
            p /= p.sum()
            cell = tuple(rng.choice(np.argwhere(p > 0)))
            eps = abs(rng.integers(n + 1) / n - p[cell]) / p[cell]
            if eps == 0 or rng.random() < 0.3:
                eps = 2 * rng.random()
            ok = typical_table(p, n, eps)
            boundary += bool((np.abs(np.arange(n + 1) / n - p[cell]) == eps * p[cell]).any())
            types = np.array(list(compositions(n, p.size))).reshape(-1, *shape)
            accepted = np.take_along_axis(ok[None], types[..., None], axis=-1)[..., 0]
            typical = types[accepted.all(axis=(1, 2, 3))]
            ranges1, ranges2 = sim._count_ranges(ok)
            for counts, ranges in ((typical.sum(axis=2), ranges1), (typical.sum(axis=1), ranges2)):
                assert ranges.shape == counts.shape[1:] + (n + 1,)
                assert np.take_along_axis(ranges[None], counts[..., None], axis=-1).all()
            typical_types += typical.shape[0]
        assert typical_types >= 2000 and boundary >= 100

    def test_counts_above_255(self):
        # One u1/u2 symbol and a skewed two-symbol y at n = 300: a cell
        # count above 255 would wrap in uint8 and change the mask.
        rng = np.random.default_rng(7)
        n = 300
        cb1 = np.zeros((3, n), dtype=int)
        cb2 = np.zeros((4, n), dtype=int)
        y = (rng.random(n) < 0.1).astype(int)
        p = np.array([[[0.9, 0.1]]])
        for eps in (0.2, abs(np.count_nonzero(y == 0) / n - 0.9) / 0.9):
            want = einsum_typical_pairs(cb1, cb2, y, p, eps)
            assert want.all()
            assert np.array_equal(self.gemm_mask(cb1, cb2, y, p, eps), want)

    def test_lookup_is_the_cell_test_at_every_count(self):
        rng = np.random.default_rng(3)
        p = rng.random((2, 3, 4))
        p[0, 1] = 0.0
        p /= p.sum()
        n, eps = 11, 0.4
        ok = typical_table(p, n, eps)
        assert ok.shape == (2, 3, 4, n + 1)
        for u1, u2, yy, k in np.ndindex(2, 3, 4, n + 1):
            assert ok[u1, u2, yy, k] == (abs(k / n - p[u1, u2, yy]) <= eps * p[u1, u2, yy])


class TestInverseCdf:
    def test_channel_output_stays_in_the_alphabet(self):
        # The row's cumsum ends at 0.9999999999999998, below the largest
        # uniform random() returns; an unnormalized cdf gave output 4.
        kernel = ConditionalPmf([[0.2, 0.4, 0.3, 0.1]])
        assert np.cumsum(kernel.rows[0])[-1] < 1 - 2.0 ** -53
        out = sim._symbols(np.array([1 - 2.0 ** -53, 0.95]), kernel.rows[[0, 0]])
        assert out.tolist() == [3, 3]

    def test_channel_output_never_has_probability_zero(self):
        kernel = ConditionalPmf([[0.0, 1.0], [0.5, 0.5]])
        out = sim._symbols(np.array([0.0, 0.0, 0.5]), kernel.rows[[0, 1, 1]])
        assert out.tolist() == [1, 0, 1]

    def test_symbols_equal_generator_choice(self):
        # Zero-probability symbols, first, inner and last, are never drawn.
        probs = np.array([0.0, 0.25, 0.0, 0.5, 0.25, 0.0])
        got = sim._symbols(np.random.default_rng(5).random((40, 50)), probs)
        assert np.array_equal(got, np.random.default_rng(5).choice(6, (40, 50), p=probs))
        assert set(np.unique(got).tolist()) == {1, 3, 4}

    def test_symbols_at_cdf_boundaries(self):
        # Generator.choice searches a cdf normalized to end at 1.  This
        # pmf's cumsum ends at 0.9999999999999999, so an unnormalized cdf
        # would pick other symbols at and next to the boundaries.
        probs = np.full(10, 0.1)
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0), np.nextafter(cdf[:-1], 1)])
        assert np.array_equal(sim._symbols(u, probs), cdf.searchsorted(u, side="right"))

    def test_channel_rows_equal_per_row_symbols(self):
        rng = np.random.default_rng(8)
        rows = rng.random((3, 5)) * (rng.random((3, 5)) < 0.7) + np.eye(3, 5)
        kernel = ConditionalPmf(rows / rows.sum(axis=1, keepdims=True))
        inputs = rng.integers(3, size=(4, 30))
        u = rng.random((4, 30))
        want = np.empty_like(inputs)
        for x in range(3):
            want[inputs == x] = sim._symbols(u[inputs == x], kernel.rows[x])
        assert np.array_equal(sim._symbols(u, kernel.rows[inputs]), want)


IDENTITY_COUPLING = JointPmf(np.eye(2) / 2)


def lemma1_pin_inputs():
    """(rate, joint_us, eps_prime) for the exact n = 2 oracle: lemma1.json,
    the identity coupling at five slacks, and 320 seeded random joints with
    |U| and |S| in 1..4, zero cells and slacks from 0.05 to 10.  Every other
    joint has dyadic cells and a round slack, so some counts sit exactly on
    the typicality boundary."""
    doc = json.loads((SCENARIOS / "lemma1.json").read_text())
    yield doc["rate"], JointPmf(doc["joint_us"]), doc["eps_prime"]
    for eps_prime in (0.05, 0.25, 0.5, 1.0, 2.0):
        yield 0.5, IDENTITY_COUPLING, eps_prime
    rng = np.random.default_rng(20261020)
    for i in range(320):
        u_size, s_size = rng.integers(1, 5, size=2)
        if i % 2:
            probs = rng.integers(0, 4, size=(u_size, s_size)).astype(float)
            eps_prime = float(rng.choice([0.05, 0.25, 0.5, 1.0, 2.0, 3.0, 10.0]))
        else:
            probs = rng.random((u_size, s_size)) * (rng.random((u_size, s_size)) >= 0.3)
            eps_prime = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
        probs.flat[rng.integers(probs.size)] += 1.0
        yield float(rng.uniform(0.5, 0.75)), JointPmf(probs / probs.sum()), eps_prime


# sha256 of the reprs of lemma1_exact_n2 over lemma1_pin_inputs (every mass
# and ratio, and the order of the cells), recorded from a loop that tested
# each combination with the one-sequence is_typical.
LEMMA1_EXACT_PIN = "3a6ab6a76cef82d3a120582b67c1dfd38d83c0fc6cf7926321c70bdfb6ec7170"


class TestLemma1:
    def test_exact_oracle_identity_coupling(self):
        res = lemma1_exact_n2(0.5, IDENTITY_COUPLING, eps_prime=0.25)
        assert res["max_ratio"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        for cell in res["cells"].values():
            assert sum(cell["conditional"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_exact_oracle_pinned(self):
        digest = hashlib.sha256()
        for rate, joint_us, eps_prime in lemma1_pin_inputs():
            digest.update(repr(lemma1_exact_n2(rate, joint_us, eps_prime)).encode())
        assert digest.hexdigest() == LEMMA1_EXACT_PIN

    def test_exact_oracle_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            lemma1_exact_n2(1.5, IDENTITY_COUPLING, eps_prime=0.25)

    @pytest.mark.parametrize("eps_prime", [0.0, -1.0, math.inf, math.nan])
    def test_exact_oracle_rejects_bad_slack(self, eps_prime):
        with pytest.raises(ScenarioError):
            lemma1_exact_n2(0.5, IDENTITY_COUPLING, eps_prime)

    def test_exact_oracle_capped_before_allocating(self, monkeypatch):
        # |S|^2 |U|^4 = 64 combinations for the identity coupling.
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 64)
        assert lemma1_exact_n2(0.5, IDENTITY_COUPLING, 0.25)["cells"]
        monkeypatch.setattr(sim, "MEMORY_CAP_SYMBOLS", 63)
        monkeypatch.setattr(sim, "typical_pairs", None)     # no table may be built
        with pytest.raises(MemoryCapError):
            lemma1_exact_n2(0.5, IDENTITY_COUPLING, 0.25)

    def test_empirical_check_deterministic(self):
        a = lemma1_check(2, 0.5, IDENTITY_COUPLING, 0.25, outer_trials=400,
                         seed=0, min_count=5)
        b = lemma1_check(2, 0.5, IDENTITY_COUPLING, 0.25, outer_trials=400,
                         seed=0, min_count=5)
        assert a == b
        assert a["kept"] <= a["trials"]

    def test_empirical_matches_oracle_coarsely(self):
        res = lemma1_check(2, 0.5, IDENTITY_COUPLING, 0.25, outer_trials=3000,
                           seed=0, min_count=30)
        assert res["conclusive"]
        assert res["max_ratio"] < 2.0

    def test_rate_too_small(self):
        with pytest.raises(ValueError):
            lemma1_check(2, 0.0, IDENTITY_COUPLING, 0.25, outer_trials=10)

    def test_pattern_table_capped_before_enumeration(self):
        # 2^23 codeword patterns exceed the cap; nothing is drawn or allocated.
        with pytest.raises(MemoryCapError):
            lemma1_check(23, 0.5, IDENTITY_COUPLING, 0.25, outer_trials=1)


class TestEncodeSelection:
    """The encoder rule: one hit is taken without a draw; several hits or
    none draw uniformly among the hits or among all indices."""

    S = np.array([0, 1])

    def encode(self, entries, rng):
        return encode_p2p(self.S, np.array(entries), 0.25, [[0, 0], [1, 1]],
                          IDENTITY_COUPLING, rng)

    def test_single_hit_draws_nothing(self):
        rng = np.random.default_rng(5)
        m, x, failed = self.encode([[1, 0], [0, 1], [0, 0]], rng)
        assert (m, failed) == (1, False)
        assert x.tolist() == [0, 1]
        assert rng.random() == np.random.default_rng(5).random()

    def test_several_hits_draw_among_hits(self):
        m, _, failed = self.encode([[0, 1], [1, 0], [0, 1]], np.random.default_rng(5))
        assert m == [0, 2][np.random.default_rng(5).integers(2)]
        assert not failed

    def test_no_hit_draws_among_all(self):
        m, _, failed = self.encode([[1, 0], [0, 0], [1, 1]], np.random.default_rng(5))
        assert m == np.random.default_rng(5).integers(3)
        assert failed

    def test_senders_share_one_tie_stream_in_order(self, monkeypatch):
        # Row 0: sender 1 has two hits, sender 2 none, so both draw from
        # row 0's stream, sender 1 first.  Row 1: one hit each, so its
        # stream is not read.
        hits1 = np.array([[True, False, True], [False, True, False]])
        hits2 = np.array([[False] * 4, [False, False, False, True]])
        read, bounded = [], sim._bounded

        def recording_bounded(ties, rows, bounds, used):
            read.append(rows[np.asarray(bounds) > 1].tolist())
            return bounded(ties, rows, bounds, used)

        monkeypatch.setattr(sim, "_bounded", recording_bounded)
        ties = sim._Streams(9, 2).draws(sim._TIEBREAK, np.arange(2), 1)
        (idx1, idx2), (failed1, failed2) = sim._select([hits1, hits2], ties)
        ref = numpy_stream(9, sim._TIEBREAK, 0)
        assert idx1.tolist() == [[0, 2][ref.integers(2)], 1]
        assert idx2.tolist() == [ref.integers(4), 3]
        assert failed1.tolist() == [False, False] and failed2.tolist() == [True, False]
        assert read == [[0], [0]]


# ---------------------------------------------------------------------------
# Reports pinned to the trial-by-trial simulator
# ---------------------------------------------------------------------------

# repr of every report below, recorded from the simulator before trials were
# batched; lemma1 cell keys are tuples of Python ints.
PINNED = json.loads((Path(__file__).parent / "data" / "sim_pins.json").read_text())
SCENARIOS = Path(sim.__file__).parent / "scenarios"


def _pinned_p2p():
    return (cli.build_p2p_scenario(cli.load_scenario(str(SCENARIOS / "p2p_hybrid.json"), "p2p")),
            cli.build_p2p_spec(cli.load_json(str(SCENARIOS / "p2p_hybrid_spec.json"))))


def _pinned_cases():
    p2p, spec = _pinned_p2p()
    cases = {
        f"p2p_n{n}_seed{seed}": lambda n=n, seed=seed: run_p2p(p2p, spec, TrialConfig(
            n=n, trials=40, epsilon=0.75, epsilon_prime=0.5, seed=seed))
        for n in (8, 20, 32) for seed in range(4)
    }
    bsc = P2pScenario(source=UNIF2, channel=bsc_kernel(0.1), distortion=HAMMING2)
    uncoded = HybridCodeSpec.uncoded(enc=[0, 1], dec=[0, 1], num_sources=2)
    cases["uncoded_n1000_seed0"] = lambda: run_p2p(
        bsc, uncoded, TrialConfig(n=1000, trials=40, seed=0))
    mac, mac_spec = identity_mac()
    cases["mac_identity_n4_seed0"] = lambda: run_mac(mac, mac_spec, TrialConfig(
        n=4, trials=40, epsilon=0.75, epsilon_prime=0.5, seed=0))
    # The benchmark's 256 x 256 pair search.
    cases["mac_identity_n8_seed0"] = lambda: run_mac(mac, mac_spec, TrialConfig(
        n=8, trials=5, epsilon=0.75, epsilon_prime=0.5, seed=0))
    noisy, noisy_spec = noisy_mac()
    cases["mac_noisy_n6_seed0"] = lambda: run_mac(noisy, noisy_spec, TrialConfig(
        n=6, trials=40, epsilon=2.5, epsilon_prime=1.5, seed=0))
    doc = cli.load_json(str(SCENARIOS / "lemma1.json"))
    for n, trials, min_count in ((2, 600, 5), (4, 400, 2)):
        cases[f"lemma1_n{n}_seed0"] = lambda n=n, trials=trials, min_count=min_count: (
            lemma1_check(n, doc["rate"], JointPmf(doc["joint_us"]), doc["eps_prime"],
                         trials, seed=0, min_count=min_count))
    return cases


PINNED_CASES = _pinned_cases()


class TestPinnedReports:
    def test_cases_cover_recorded_reports(self):
        assert sorted(PINNED_CASES) == sorted(PINNED)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_report_matches_recorded(self, name):
        assert repr(PINNED_CASES[name]()) == PINNED[name]

    # 1 symbol runs one trial per chunk.  896 symbols splits p2p n=8 (18
    # trials per chunk of 40), the MAC (7 of 40), lemma1 n=2 (224 of 600)
    # and lemma1 n=4 (56 of 400) unevenly; 7680 splits p2p n=20 (3 of 40)
    # and uncoded n=1000 (7 of 40) unevenly.
    @pytest.mark.parametrize("chunk_symbols", [1, 896, 7680])
    def test_chunk_size_does_not_change_reports(self, monkeypatch, chunk_symbols):
        monkeypatch.setattr(sim, "_CHUNK_SYMBOLS", chunk_symbols)
        for name, case in PINNED_CASES.items():
            assert repr(case()) == PINNED[name], name

    def test_lemma1_draws_tie_breaks_only_without_a_single_hit(self, monkeypatch):
        hit_counts, tie_trials, chunk_first = [], [], []
        select, bounded = sim._select, sim._bounded

        def recording_select(hits, ties):
            [sender_hits] = hits
            chunk_first.append(len(hit_counts))
            hit_counts.extend(sender_hits.sum(axis=1).tolist())
            return select(hits, ties)

        def recording_bounded(ties, rows, bounds, used):
            tie_trials.extend((chunk_first[-1] + rows[np.asarray(bounds) > 1]).tolist())
            return bounded(ties, rows, bounds, used)

        monkeypatch.setattr(sim, "_select", recording_select)
        monkeypatch.setattr(sim, "_bounded", recording_bounded)
        assert repr(PINNED_CASES["lemma1_n2_seed0"]()) == PINNED["lemma1_n2_seed0"]
        assert len(hit_counts) == 600
        assert 0 in hit_counts and max(hit_counts) > 1
        assert tie_trials == [t for t, c in enumerate(hit_counts) if c != 1]


def _p2p_hybrid_joint_us():
    scenario, spec = _pinned_p2p()
    joint = bounds._p2p_joint(scenario.source, scenario.channel, scenario.distortion, spec)
    return scenario, spec, joint.marginal([1, 0])


def _brute_covering_mass(joint_us, s, eps_prime):
    p_u = joint_us.marginal_pmf(0).probs
    return sum(math.prod(p_u[list(u)])
               for u in itertools.product(range(joint_us.dims[0]), repeat=len(s))
               if is_typical((u, s), joint_us, eps_prime))


class TestExactE1:
    """P(E1), the chance that no codeword covers the source block, summed
    exactly over types (oracles.exact_p_e1) against enumeration and run_p2p."""

    @pytest.mark.parametrize("ternary_u", [False, True], ids=["p2p_hybrid", "ternary_u"])
    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_covering_mass_matches_enumeration(self, ternary_u, n):
        joint_us = (JointPmf([[0.3, 0.1], [0.0, 0.2], [0.15, 0.25]]) if ternary_u
                    else _p2p_hybrid_joint_us()[2])
        s_size = joint_us.dims[1]
        rng = np.random.default_rng(n)
        for s_type in compositions(n, s_size):
            s = rng.permutation(np.repeat(np.arange(s_size), s_type))
            assert covering_mass(joint_us, s_type, 0.5) == pytest.approx(
                _brute_covering_mass(joint_us, s, 0.5), abs=1e-14)

    def test_type_sum_matches_sum_over_source_blocks(self):
        joint_us = _p2p_hybrid_joint_us()[2]
        n, m = 4, 3
        p_s = joint_us.marginal_pmf(1).probs
        brute = sum(math.prod(p_s[list(s)]) * (1 - _brute_covering_mass(joint_us, s, 0.5)) ** m
                    for s in itertools.product(range(joint_us.dims[1]), repeat=n))
        assert exact_p_e1(joint_us, n, 0.5, m) == pytest.approx(brute, abs=1e-14)

    def test_run_p2p_covering_failure_matches_exact(self):
        # Criterion 7's settings.  Four two-sided z-tests at a family level
        # of 1e-3 (Bonferroni, 2.5e-4 each) allow |z| <= 3.66.
        scenario, spec, joint_us = _p2p_hybrid_joint_us()
        trials = 2000
        for n in (8, 12, 16, 20):
            exact = exact_p_e1(joint_us, n, 0.5, codebook_size(n, spec.rate))
            rep = run_p2p(scenario, spec, TrialConfig(n=n, trials=trials, epsilon=0.75,
                                                      epsilon_prime=0.5, seed=0))
            z = (rep["p_e1"] - exact) / math.sqrt(exact * (1 - exact) / trials)
            assert abs(z) <= 3.66, f"n={n}: p_e1 {rep['p_e1']} against exact {exact}"
