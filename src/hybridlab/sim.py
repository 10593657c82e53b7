"""Operational Monte Carlo simulation of random-codebook hybrid coding.

Single-sender and two-sender encoders/decoders built on joint-typicality
search, with error-event accounting that mirrors the union-bound
decomposition used in the achievability analyses, plus an empirical
independence check of the codebook-selection step against an exact
small-blocklength enumeration.

Random-number discipline: one root seed; each (purpose, trial) pair gets its
own counter-derived stream, so changing the trial count never reshuffles
earlier trials and encoder, decoder and channel randomness never mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .bounds import HybridCodeSpec, MacHybridSpec, _mac_joint, _p2p_joint
from .infotheory import ConditionalPmf, DistortionMeasure, JointPmf, Pmf

MEMORY_CAP_SYMBOLS = 2 ** 22

# Stream purposes for counter-based seed derivation.
_SOURCE, _CODEBOOK, _CHANNEL, _TIEBREAK = 0, 1, 2, 3


class MemoryCapError(RuntimeError):
    """Raised when a configuration would exceed the codebook memory cap."""


def derived_seed(root_seed: int, purpose: int, trial: int) -> int:
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(purpose, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _rng(root_seed: int, purpose: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(purpose, trial)))


# ---------------------------------------------------------------------------
# Scenarios and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class P2pScenario:
    source: Pmf
    channel: ConditionalPmf
    distortion: DistortionMeasure


@dataclass(frozen=True)
class MacScenario:
    sources: JointPmf          # joint p(s1, s2)
    mac: ConditionalPmf        # rows indexed by (x1, x2), C order
    d1: DistortionMeasure
    d2: DistortionMeasure


@dataclass(frozen=True)
class TrialConfig:
    n: int
    trials: int
    epsilon: float = 0.3
    epsilon_prime: float = 0.2
    seed: int = 0
    memory_cap: int = MEMORY_CAP_SYMBOLS

    def __post_init__(self):
        if not (self.epsilon > self.epsilon_prime > 0):
            raise ValueError("require epsilon > epsilon_prime > 0")
        if self.n < 1 or self.trials < 1:
            raise ValueError("n and trials must be positive")


@dataclass(frozen=True)
class Codebook:
    """floor(2^(nR)) i.i.d. length-n codewords over the auxiliary alphabet."""

    entries: np.ndarray
    n: int
    rate: float
    pmf: Pmf
    seed: int

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def codebook_size(n: int, rate: float) -> int:
    return int(math.floor(2.0 ** (n * rate)))


def generate_codebook(n: int, rate: float, pmf: Pmf, seed: int,
                      memory_cap: int = MEMORY_CAP_SYMBOLS) -> Codebook:
    """Draw the random codebook; bit-identical given (seed, n, rate, pmf)."""
    m = codebook_size(n, rate)
    if m * n > memory_cap:
        raise MemoryCapError(
            f"codebook needs {m * n} symbols, cap is {memory_cap}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    entries = rng.choice(pmf.alphabet_size, size=(m, n), p=pmf.probs)
    entries.flags.writeable = False
    return Codebook(entries=entries, n=n, rate=rate, pmf=pmf, seed=seed)


# ---------------------------------------------------------------------------
# Vectorized typicality over codeword batches
# ---------------------------------------------------------------------------

def _typical_mask(flat_cells: np.ndarray, num_cells: int, p: np.ndarray,
                  epsilon: float) -> np.ndarray:
    """Typicality of each row of flattened cell indices against pmf p.

    flat_cells has shape (batch, n); returns a boolean (batch,) mask using
    the relative-slack test per cell, with zero-probability cells required to
    be unvisited.
    """
    n = flat_cells.shape[1]
    counts = (flat_cells[:, :, None] == np.arange(num_cells)[None, None, :]).sum(axis=1)
    return np.all(np.abs(counts / n - p[None, :]) <= epsilon * p[None, :], axis=1)


def _sample_rows(kernel: ConditionalPmf, inputs: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One output draw per position, position i using kernel row inputs[i]."""
    cum = np.cumsum(kernel.rows, axis=1)
    u = rng.random(inputs.size)
    return (u[:, None] > cum[inputs]).sum(axis=1)


# ---------------------------------------------------------------------------
# Point-to-point encoder / decoder
# ---------------------------------------------------------------------------

def encode_p2p(s: np.ndarray, cb: Codebook, eps_prime: float,
               enc_map: np.ndarray, joint_us: JointPmf,
               rng: np.random.Generator) -> tuple[int, np.ndarray, bool]:
    """Joint-typicality encoding with uniform tie-break.

    Scans all codewords for joint typicality of (u^n(m), s^n) against
    joint_us (axes u, s); picks uniformly among hits, or uniformly among all
    indices when there is no hit.  Returns (index, channel input, covering
    failure flag).
    """
    s = np.asarray(s, dtype=int)
    u_size, s_size = joint_us.dims
    flat = cb.entries * s_size + s[None, :]
    hits = _typical_mask(flat, u_size * s_size, joint_us.probs.ravel(), eps_prime)
    hit_idx = np.flatnonzero(hits)
    if hit_idx.size > 0:
        m = int(hit_idx[rng.integers(hit_idx.size)]) if hit_idx.size > 1 else int(hit_idx[0])
        covering_failed = False
    else:
        m = int(rng.integers(cb.size))
        covering_failed = True
    x = np.asarray(enc_map, dtype=int)[cb.entries[m], s]
    return m, x, covering_failed


def run_p2p(scenario: P2pScenario, spec: HybridCodeSpec,
            config: TrialConfig) -> dict:
    """Monte Carlo trials of the single-sender scheme.

    Each trial draws a fresh source block, codebook, and channel noise from
    its own derived streams, then tracks the covering failure E1, the decode
    miss E2 on the chosen codeword given covering succeeded, and the packing
    confusion E3 by another codeword.  The overall error flag is their union.
    """
    joint = _p2p_joint(scenario.source, scenario.channel, spec)
    joint_us = joint.marginal([1, 0])   # (u, s)
    joint_uy = joint.marginal([1, 3])   # (u, y)
    n, trials = config.n, config.trials
    m_count = codebook_size(n, spec.rate)
    if m_count * n > config.memory_cap:
        raise MemoryCapError("codebook exceeds memory cap")
    u_size, y_size = joint_uy.dims
    p_uy = joint_uy.probs.ravel()
    c_e1 = c_e2 = c_e3 = c_err = 0
    dists = np.empty(trials)
    ok_dists = []
    for t in range(trials):
        s = _rng(config.seed, _SOURCE, t).choice(
            scenario.source.alphabet_size, size=n, p=scenario.source.probs)
        cb = generate_codebook(n, spec.rate, joint_us.marginal_pmf(0),
                               derived_seed(config.seed, _CODEBOOK, t),
                               config.memory_cap)
        tie_rng = _rng(config.seed, _TIEBREAK, t)
        m, x, e1 = encode_p2p(s, cb, config.epsilon_prime, spec.enc_map,
                              joint_us, tie_rng)
        y = _sample_rows(scenario.channel, x, _rng(config.seed, _CHANNEL, t))
        flat = cb.entries * y_size + y[None, :]
        typ = _typical_mask(flat, u_size * y_size, p_uy, config.epsilon)
        e2_not1 = (not e1) and (not bool(typ[m]))
        e3 = bool(np.any(np.delete(typ, m)))
        hits = np.flatnonzero(typ)
        m_hat = int(hits[0]) if hits.size == 1 else 0
        shat = spec.dec_map[cb.entries[m_hat], y]
        dist = float(scenario.distortion.table[s, shat].mean())
        err = e1 or e2_not1 or e3
        c_e1 += e1
        c_e2 += e2_not1
        c_e3 += e3
        c_err += err
        dists[t] = dist
        if not err:
            ok_dists.append(dist)
    return _p2p_report(trials, n, c_e1, c_e2, c_e3, c_err, dists, ok_dists)


def _binom_halfwidth(count: int, trials: int) -> float:
    p = count / trials
    return 1.96 * math.sqrt(max(p * (1 - p), 0.0) / trials)


def _p2p_report(trials, n, c_e1, c_e2, c_e3, c_err, dists, ok_dists) -> dict:
    return {
        "n": n,
        "trials": trials,
        "p_e1": c_e1 / trials,
        "p_e2_given_not_e1": c_e2 / trials,
        "p_e3": c_e3 / trials,
        "p_error": c_err / trials,
        "halfwidth_e1": _binom_halfwidth(c_e1, trials),
        "halfwidth_error": _binom_halfwidth(c_err, trials),
        "mean_distortion": float(np.mean(dists)),
        "distortion_halfwidth": float(1.96 * np.std(dists, ddof=1) / math.sqrt(trials))
        if trials > 1 else 0.0,
        "mean_distortion_no_error": float(np.mean(ok_dists)) if ok_dists else None,
    }


# ---------------------------------------------------------------------------
# Two-sender simulator
# ---------------------------------------------------------------------------

def run_mac(scenario: MacScenario, spec: MacHybridSpec,
            config: TrialConfig) -> dict:
    """Monte Carlo trials of the two-sender scheme with a joint decoder.

    Event accounting: E1/E2 are the per-sender covering failures, E3 is the
    chosen pair falling outside the typical set at the decoder, and E4/E5/E6
    are the packing confusions with both, only the first, or only the second
    index wrong.  The decoder searches every index pair exhaustively and
    falls back to pair (0, 0) unless exactly one pair is typical.
    """
    if spec.q_pmf.alphabet_size != 1:
        raise ValueError("simulation supports a trivial time-sharing alphabet only")
    j = _mac_joint(scenario.sources, scenario.mac, spec)
    # Reference joints with the trivial q axis dropped.
    j_us1 = j.marginal([3, 1])           # (u1, s1)
    j_us2 = j.marginal([4, 2])           # (u2, s2)
    j_uuy = j.marginal([3, 4, 7])        # (u1, u2, y)
    n, trials = config.n, config.trials
    m1 = codebook_size(n, spec.R1)
    m2 = codebook_size(n, spec.R2)
    if (m1 + m2) * n > config.memory_cap or m1 * m2 * n > config.memory_cap:
        raise MemoryCapError("codebooks or pair search exceed memory cap")
    u1_size, u2_size, y_size = j_uuy.dims
    s1_size, s2_size = scenario.sources.dims
    p_uuy = j_uuy.probs.ravel()
    num_cells = u1_size * u2_size * y_size
    counts = {k: 0 for k in ("e1", "e2", "e3", "e4", "e5", "e6", "err")}
    d1s = np.empty(trials)
    d2s = np.empty(trials)
    src_flat_pmf = scenario.sources.probs.ravel()
    enc1 = spec.enc1[0]
    enc2 = spec.enc2[0]
    dec1 = spec.dec1[0]
    dec2 = spec.dec2[0]
    for t in range(trials):
        flat_s = _rng(config.seed, _SOURCE, t).choice(
            src_flat_pmf.size, size=n, p=src_flat_pmf)
        s1, s2 = np.divmod(flat_s, s2_size)
        cb1 = generate_codebook(n, spec.R1, j_us1.marginal_pmf(0),
                                derived_seed(config.seed, _CODEBOOK, 2 * t),
                                config.memory_cap)
        cb2 = generate_codebook(n, spec.R2, j_us2.marginal_pmf(0),
                                derived_seed(config.seed, _CODEBOOK, 2 * t + 1),
                                config.memory_cap)
        tie_rng = _rng(config.seed, _TIEBREAK, t)
        idx1, x1, e1 = encode_p2p(s1, cb1, config.epsilon_prime, enc1, j_us1, tie_rng)
        idx2, x2, e2 = encode_p2p(s2, cb2, config.epsilon_prime, enc2, j_us2, tie_rng)
        y = _sample_rows(scenario.mac, x1 * (spec.enc2.max() + 1) + x2,
                         _rng(config.seed, _CHANNEL, t))
        # Typicality of every index pair, factorized through one-hot counts.
        a = np.zeros((m1, n, u1_size * y_size))
        a[np.arange(m1)[:, None], np.arange(n)[None, :], cb1.entries * y_size + y[None, :]] = 1.0
        b = np.zeros((m2, n, u2_size))
        b[np.arange(m2)[:, None], np.arange(n)[None, :], cb2.entries] = 1.0
        pair_counts = np.einsum("mic,nid->mncd", a, b)   # (m1, m2, u1*y, u2)
        pair_counts = pair_counts.reshape(m1, m2, u1_size, y_size, u2_size)
        pair_counts = pair_counts.transpose(0, 1, 2, 4, 3).reshape(m1, m2, num_cells)
        typ = np.all(
            np.abs(pair_counts / n - p_uuy[None, None, :]) <= config.epsilon * p_uuy,
            axis=2)
        e3 = not bool(typ[idx1, idx2])
        other1 = np.ones(m1, dtype=bool)
        other1[idx1] = False
        other2 = np.ones(m2, dtype=bool)
        other2[idx2] = False
        e4 = bool(np.any(typ[np.ix_(other1, other2)]))
        e5 = bool(np.any(typ[other1, idx2]))
        e6 = bool(np.any(typ[idx1, other2]))
        hits = np.argwhere(typ)
        h1, h2 = (int(hits[0][0]), int(hits[0][1])) if hits.shape[0] == 1 else (0, 0)
        u1_hat, u2_hat = cb1.entries[h1], cb2.entries[h2]
        shat1 = dec1[u1_hat, u2_hat, y]
        shat2 = dec2[u1_hat, u2_hat, y]
        d1s[t] = float(scenario.d1.table[s1, shat1].mean())
        d2s[t] = float(scenario.d2.table[s2, shat2].mean())
        err = e1 or e2 or e3 or e4 or e5 or e6
        for key, flag in zip(("e1", "e2", "e3", "e4", "e5", "e6", "err"),
                             (e1, e2, e3, e4, e5, e6, err)):
            counts[key] += flag
    report = {"n": n, "trials": trials}
    for key in ("e1", "e2", "e3", "e4", "e5", "e6"):
        report[f"p_{key}"] = counts[key] / trials
        report[f"halfwidth_{key}"] = _binom_halfwidth(counts[key], trials)
    report["p_error"] = counts["err"] / trials
    report["halfwidth_error"] = _binom_halfwidth(counts["err"], trials)
    report["mean_distortion_1"] = float(np.mean(d1s))
    report["mean_distortion_2"] = float(np.mean(d2s))
    return report


# ---------------------------------------------------------------------------
# Codebook-independence check
# ---------------------------------------------------------------------------

def _select_index(cb_entries: np.ndarray, s: np.ndarray, joint_us: JointPmf,
                  eps_prime: float, rng: np.random.Generator) -> int:
    u_size, s_size = joint_us.dims
    flat = cb_entries * s_size + s[None, :]
    hits = np.flatnonzero(
        _typical_mask(flat, u_size * s_size, joint_us.probs.ravel(), eps_prime))
    if hits.size > 0:
        return int(hits[rng.integers(hits.size)]) if hits.size > 1 else int(hits[0])
    return int(rng.integers(cb_entries.shape[0]))


def lemma1_check(n: int, rate: float, joint_us: JointPmf, eps_prime: float,
                 outer_trials: int, seed: int = 0, min_count: int = 50) -> dict:
    """Empirical independence of the unselected codeword from the selection.

    Repeatedly draws (source block, codebook), runs the typicality-based
    index selection, keeps only trials where index 0 was selected, and
    accumulates the conditional distribution of codeword 1 per
    (codeword 0, source block) cell.  Reports the maximum ratio of the
    empirical conditional pmf to the i.i.d. generation pmf over cells with at
    least min_count samples; inconclusive (not an error) when no cell
    qualifies.
    """
    m_count = codebook_size(n, rate)
    if m_count < 2:
        raise ValueError("rate too small: need at least two codewords")
    u_size, s_size = joint_us.dims
    p_u = joint_us.marginal_pmf(0)
    p_s = joint_us.marginal_pmf(1)
    patterns = np.array(list(iproduct(range(u_size), repeat=n)), dtype=int)
    pattern_prob = np.prod(p_u.probs[patterns], axis=1)
    cells: dict[tuple, np.ndarray] = {}
    kept = 0
    for t in range(outer_trials):
        s = _rng(seed, _SOURCE, t).choice(s_size, size=n, p=p_s.probs)
        cb = generate_codebook(n, rate, p_u, derived_seed(seed, _CODEBOOK, t))
        m = _select_index(cb.entries, s, joint_us, eps_prime,
                          _rng(seed, _TIEBREAK, t))
        if m != 0:
            continue
        kept += 1
        key = (tuple(cb.entries[0]), tuple(s))
        vec = cells.setdefault(key, np.zeros(patterns.shape[0]))
        pat_idx = int(np.ravel_multi_index(tuple(cb.entries[1]), (u_size,) * n))
        vec[pat_idx] += 1
    max_ratio = 0.0
    well_sampled = 0
    cell_stats = {}
    for key, vec in sorted(cells.items()):
        total = int(vec.sum())
        if total < min_count:
            continue
        well_sampled += 1
        emp = vec / total
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(pattern_prob > 0, emp / pattern_prob, 0.0)
        cell_ratio = float(ratios.max())
        max_ratio = max(max_ratio, cell_ratio)
        cell_stats[key] = {
            "count": total,
            "max_ratio": cell_ratio,
            "histogram": vec.astype(int).tolist(),
        }
    return {
        "n": n,
        "rate": rate,
        "trials": outer_trials,
        "kept": kept,
        "well_sampled_cells": well_sampled,
        "conclusive": well_sampled > 0,
        "max_ratio": max_ratio if well_sampled else None,
        "cells": cell_stats,
    }


def lemma1_exact_n2(rate: float, joint_us: JointPmf, eps_prime: float) -> dict:
    """Exact conditional law of the unselected codeword at blocklength 2.

    Enumerates every (codebook, source block) combination for the two-word
    codebook, computes the exact probability that index 0 is selected under
    the typicality rule with uniform tie-break, and returns per-cell
    conditional pmfs of codeword 1 plus the overall maximum ratio to the
    i.i.d. generation pmf.
    """
    n = 2
    if codebook_size(n, rate) != 2:
        raise ValueError("oracle covers exactly the two-codeword regime")
    u_size, s_size = joint_us.dims
    p_u = joint_us.marginal_pmf(0).probs
    p_s = joint_us.marginal_pmf(1).probs
    p_us = joint_us.probs
    patterns = list(iproduct(range(u_size), repeat=n))
    s_blocks = list(iproduct(range(s_size), repeat=n))
    pat_prob = {pat: float(np.prod(p_u[list(pat)])) for pat in patterns}

    def typical(u_pat, s_pat):
        counts = np.zeros((u_size, s_size))
        for ui, si in zip(u_pat, s_pat):
            counts[ui, si] += 1
        return bool(np.all(np.abs(counts / n - p_us) <= eps_prime * p_us))

    cell_mass: dict[tuple, dict[tuple, float]] = {}
    for s_pat in s_blocks:
        ps = float(np.prod(p_s[list(s_pat)]))
        if ps == 0:
            continue
        for c0 in patterns:
            for c1 in patterns:
                w = ps * pat_prob[c0] * pat_prob[c1]
                if w == 0:
                    continue
                hits = [typical(c0, s_pat), typical(c1, s_pat)]
                if hits[0]:
                    p_sel = 0.5 if hits[1] else 1.0
                elif hits[1]:
                    p_sel = 0.0
                else:
                    p_sel = 0.5
                if p_sel == 0:
                    continue
                cell = cell_mass.setdefault((c0, s_pat), {})
                cell[c1] = cell.get(c1, 0.0) + w * p_sel
    result = {}
    max_ratio = 0.0
    for (c0, s_pat), dist in sorted(cell_mass.items()):
        total = sum(dist.values())
        cond = {c1: v / total for c1, v in dist.items()}
        for c1, q in cond.items():
            if pat_prob[c1] > 0:
                max_ratio = max(max_ratio, q / pat_prob[c1])
        result[(c0, s_pat)] = {"mass": total, "conditional": cond}
    return {"cells": result, "max_ratio": max_ratio}
