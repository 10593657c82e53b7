"""Operational Monte Carlo simulation of random-codebook hybrid coding.

Single-sender and two-sender encoders/decoders built on joint-typicality
search, with error-event accounting that mirrors the union-bound
decomposition used in the achievability analyses, plus an empirical
independence check of the codebook-selection step against an exact
small-blocklength enumeration.

Random-number discipline: one root seed; each (purpose, trial) pair gets its
own counter-derived stream, so changing the trial count never reshuffles
earlier trials and encoder, decoder and channel randomness never mix.  The
stream of (purpose, trial) is numpy's
default_rng(SeedSequence(root, spawn_key=(purpose, trial))), and a codebook's
is default_rng(SeedSequence(derived_seed(...))).  Building those generators
per trial cost more than the trials themselves, so _Streams derives them
instead: SeedSequence's hash and PCG64's seeding step run over a block of
trial keys as array operations.  Streams of at most _ARRAY_DRAWS draws
(source and channel blocks, small codebooks, tie-breaks, which apply
Generator.integers' rule) come from an array kernel that jumps PCG64's
128-bit LCG to each output at once; longer ones from one PCG64 per run,
set to each trial's seeded state in turn.  The draws are bit-identical to
the per-trial generators.

Trials run in chunks of at most _CHUNK_SYMBOLS codeword symbols.  The only
per-trial work is drawing each trial's uniforms from its own streams; the
symbols, typicality tests, index selection, channel outputs, error events
and distortions are computed for the whole chunk at once.  The exception is
the MAC decoder's pair search, which scores each trial's own table of
index pairs and so runs one trial at a time.  It scores only the pairs of
codewords whose (u_k, y) cell counts some typical triple can have, a test
run for the whole chunk at once, and that is exact (see run_mac).  Every
typicality test, at the encoders, the decoders, the decoder's pruning and
the exact n = 2 oracle, goes through infotheory's one kernel: a matmul of
one-hot layouts gives each pair's cell counts, and a table of the test at
every count 0..n (typical_table) decides each cell.
Every symbol, whether source, codeword or channel output, comes from one
inverse cdf (_symbols).  Every stream draws the same values in the same
order as a trial-by-trial loop would, so the reports do not depend on the
chunk size.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product as iproduct

import numpy as np

from .bounds import HybridCodeSpec, MacHybridSpec, _mac_joint, _p2p_joint
from .infotheory import (MEMORY_CAP_SYMBOLS, ConditionalPmf, DistortionMeasure,
                         JointPmf, MemoryCapError, Pmf, ScenarioError, typical_pairs,
                         typical_table)

# Codeword symbols per chunk of batched trials.  A chunk holds several int64
# and float64 arrays per symbol, about 600 kB in all at 2^13; 2^15 raised
# the peak memory of the mc-small benchmark by 2 MB, and 2^12 was slower
# for no less memory.
_CHUNK_SYMBOLS = 2 ** 13

# Largest distortion entry run_p2p takes.  Its half-width squares deviations
# of at most this, and MEMORY_CAP_SYMBOLS trials of them still sum finitely.
DISTORTION_MAX = 1e150

# Stream purposes for counter-based seed derivation.
_SOURCE, _CODEBOOK, _CHANNEL, _TIEBREAK = 0, 1, 2, 3

# Keys whose stream states are derived in one batch.  A block is 32 kB of
# state limbs per purpose, whatever the trial count.
_STREAM_BLOCK = 1024

# Draws per stream up to which the array kernel (_pcg64_words) reads a
# block's streams.  On 1024 streams it took about 0.08 us per draw, the
# moved generator 5 us per stream plus numpy's loop: they cross at 64-80.
_ARRAY_DRAWS = 64

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG (O'Neill, "PCG", 2014).
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _root_words(seed) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of a root seed."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ScenarioError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    return words


def _hash_constants(const: int, mult: int):
    """SeedSequence's per-call hash constants, (xor, multiplier) pairs in
    call order.  They do not depend on the data."""
    while True:
        following = const * mult & _M32
        yield const, following
        const = following


def _hashmix(value: np.ndarray, constants, count: int) -> np.ndarray:
    """count successive hashmix calls: row i hashes value (or value[i])
    with the i-th next constant."""
    xor, mult = np.array([next(constants) for _ in range(count)], dtype=np.uint32).T[..., None]
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


def _seed_sequence_state(words: list, tail=None) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64), batched.

    words[i] is entropy word i: an int shared by the whole batch, or a
    uint32 array with one entry per sequence.  The four pool words are the
    rows of one uint32 array, and each step of the hash acts on all rows it
    updates at once.  tail = (word, live) is one more entropy word, absorbed
    only where live is true, so that one batch holds entropies of two
    lengths.  Returns the words with a trailing axis of 4.
    """
    words = [np.asarray(w, dtype=np.uint32) for w in words + [0] * (4 - len(words))]
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = _hashmix(np.stack(np.broadcast_arrays(*words[:4])).reshape(4, -1), constants, 4)
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], constants, 3))
    for word in words[4:]:
        pool = _mix(pool, _hashmix(word, constants, 4))
    if tail is not None:
        word, live = tail
        pool = np.where(live, _mix(pool, _hashmix(word, constants, 4)), pool)
    halves = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B), 8)
    return np.ascontiguousarray(halves.T, dtype="<u4").view("<u8").astype(np.uint64)


def _word_halves(values: np.ndarray) -> list[np.ndarray]:
    """The low and high uint32 words of uint64 values."""
    return [(values & _M32).astype(np.uint32), (values >> 32).astype(np.uint32)]


def _spawned_state(root_seed: int, purpose: int, keys: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of SeedSequence(root_seed,
    spawn_key=(purpose, key)) for every uint64 key: (keys.size, 4).  A key
    of 2^32 or more is two entropy words."""
    root = _root_words(root_seed)
    root += [0] * (4 - len(root))       # SeedSequence pads when spawned
    low, high = _word_halves(keys)
    return _seed_sequence_state(root + [purpose, low], tail=(high, high > 0))


def derived_seed(root_seed: int, purpose: int, trial: int) -> int:
    """The 64-bit seed of a trial's codebook: the first generate_state
    word of SeedSequence(root_seed, spawn_key=(purpose, trial))."""
    return int(_spawned_state(root_seed, purpose, np.array([trial], dtype=np.uint64))[0, 0])


def _muladd128(*terms):
    """Sum of a * x mod 2^128 over terms (a, x) of (high, low) uint64 limbs."""
    high = low = 0
    for (ahi, alo), (xhi, xlo) in terms:
        a0, a1, x0, x1 = alo & _M32, alo >> 32, xlo & _M32, xlo >> 32
        p00, p01, p10 = a0 * x0, a0 * x1, a1 * x0
        mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        term = mid << 32 | p00 & _M32
        low = low + term
        high = (high + a1 * x1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + ahi * xlo + alo * xhi
                + (low < term))
    return high, low


@lru_cache
def _jumps(count: int) -> np.ndarray:
    """PCG64's LCG jumped j = 1..count steps at once: the limbs (4, count)
    of MULT^j and of sum_{i<j} MULT^i, mod 2^128."""
    mult, step, limbs = 1, 0, []
    for _ in range(count):
        mult, step = mult * _PCG64_MULT & _M128, (step + mult) & _M128
        limbs.append([*divmod(mult, 1 << 64), *divmod(step, 1 << 64)])
    return np.array(limbs, dtype=np.uint64).T


def _pcg64_words(seeded: np.ndarray, count: int) -> np.ndarray:
    """The first count outputs (rows, count) of the PCG64s with these seeded
    limbs: XSL-RR of the state jumped j steps on.  Rows go in slices of 2^14
    outputs (fastest of 2^10 to 2^20), so the 128-bit temporaries stay small."""
    jumps = _jumps(count)
    out = np.empty((seeded.shape[0], count), dtype=np.uint64)
    rows = max(1, 2 ** 14 // count)
    for first in range(0, seeded.shape[0], rows):
        limbs = seeded[first:first + rows].T[..., None]
        high, low = _muladd128((jumps[:2], limbs[:2]), (jumps[2:], limbs[2:]))
        xor, rot = high ^ low, high >> 58
        out[first:first + rows] = xor >> rot | xor << (64 - rot & 63)
    return out


class _Streams:
    """Every per-trial stream of one run.

    Stream (purpose, key) draws what default_rng(SeedSequence(root_seed,
    spawn_key=(purpose, key))) draws; a codebook stream what
    default_rng(derived_seed(root_seed, _CODEBOOK, key)) draws.  Seeded
    PCG64 limbs are derived _STREAM_BLOCK keys at a time, never past the
    run's last key, and each (purpose, block) once: a new block drops only
    those below its request's first key (the senders' codebook keys 2t and
    2t + 1 come in two passes per chunk).  Streams of at most _ARRAY_DRAWS
    draws are read from cached kernel outputs, longer ones by one PCG64
    moved to each seeded state."""

    def __init__(self, root_seed: int, trials: int, senders: int = 1):
        self.root_seed = root_seed
        _root_words(root_seed)          # a bad seed fails before any trial
        self._ends = [trials, senders * trials, trials, trials]
        self._generator = np.random.Generator(np.random.PCG64(0))
        self._blocks: dict[tuple[int, int], list[np.ndarray]] = {}

    def _block(self, purpose: int, block: int, count: int) -> list[np.ndarray]:
        """[seeded limbs, first count or more outputs] of a block's keys."""
        entry = self._blocks.get((purpose, block))
        if entry is None:
            first = block * _STREAM_BLOCK
            last = min(first + _STREAM_BLOCK, self._ends[purpose])
            words = _spawned_state(self.root_seed, purpose, np.arange(first, last, dtype=np.uint64))
            if purpose == _CODEBOOK:
                # SeedSequence(seed) of a 64-bit seed: one or two entropy
                # words, zero-padded to the pool either way.
                words = _seed_sequence_state(_word_halves(words[:, 0]))
            # PCG64's seeding: inc = stream << 1 | 1, state = (seed + inc) * MULT + inc.
            inc = (words[:, 2] << 1 | words[:, 3] >> 63, words[:, 3] << 1 | 1)
            state = _muladd128((divmod(_PCG64_MULT, 1 << 64), words.T[:2]),
                               (divmod(_PCG64_MULT + 1, 1 << 64), inc))
            seeded = np.stack([*state, *inc], axis=1)
            entry = self._blocks[purpose, block] = [seeded, seeded[:, :0]]
        if entry[1].shape[1] < count:
            entry[1] = _pcg64_words(entry[0], count)
        return entry

    def draws(self, purpose: int, keys: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The seeded limbs (keys.size, 4) of streams (purpose, keys), for
        strictly ascending keys, and their first count outputs (keys.size, count)."""
        first, last = int(keys[0]), int(keys[-1])
        low = first // _STREAM_BLOCK
        if (purpose, last // _STREAM_BLOCK) not in self._blocks:
            self._blocks = {pb: entry for pb, entry in self._blocks.items()
                            if pb[0] != purpose or pb[1] >= low}
        if last - first < keys.size and last // _STREAM_BLOCK == low:
            # Consecutive keys in one block, as _chunks gives them: a slice.
            seeded, words = self._block(purpose, low, count)
            at = slice(first - low * _STREAM_BLOCK, last + 1 - low * _STREAM_BLOCK)
            return seeded[at], words[at, :count]
        parts = []
        for block in np.unique(keys // _STREAM_BLOCK).tolist():
            seeded, words = self._block(purpose, block, count)
            at = keys[keys // _STREAM_BLOCK == block] - block * _STREAM_BLOCK
            parts.append((seeded[at], words[at, :count]))
        return tuple(map(np.concatenate, zip(*parts)))

    def uniforms(self, purpose: int, keys: np.ndarray, shape: tuple) -> np.ndarray:
        """Row i holds the first uniforms, of the given shape, of stream
        (purpose, keys[i]): Generator.random's (output >> 11) * 2^-53."""
        count = math.prod(shape)
        if count <= _ARRAY_DRAWS:
            return ((self.draws(purpose, keys, count)[1] >> 11) * 2.0 ** -53).reshape(-1, *shape)
        out = np.empty((keys.size, *shape))
        for row, (hi, lo, inc_hi, inc_lo) in enumerate(self.draws(purpose, keys, 0)[0].tolist()):
            self._generator.bit_generator.state = {
                "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}}
            self._generator.random(out=out[row])
        return out


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
    x1_size: int               # declared input alphabets: |X1| * |X2| mac rows
    x2_size: int
    d1: DistortionMeasure
    d2: DistortionMeasure


@dataclass(frozen=True)
class TrialConfig:
    n: int
    trials: int
    epsilon: float = 0.3
    epsilon_prime: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (math.inf > self.epsilon > self.epsilon_prime > 0):
            raise ScenarioError("require finite epsilon > epsilon_prime > 0")
        if self.n < 1 or self.trials < 1:
            raise ScenarioError("n and trials must be >= 1")
        _root_words(self.seed)          # raises on a seed SeedSequence rejects
        if self.trials > MEMORY_CAP_SYMBOLS:   # run_p2p and run_mac keep arrays of trials
            raise MemoryCapError(f"{self.trials} trials exceed the cap of {MEMORY_CAP_SYMBOLS}")


def codebook_size(n: int, rate: float) -> int:
    """floor(2^(nR)) codewords of length n; MemoryCapError when they would
    hold more than MEMORY_CAP_SYMBOLS symbols."""
    if n * rate > math.log2(MEMORY_CAP_SYMBOLS):
        raise MemoryCapError(
            f"2^({n} * {rate}) codewords exceed the cap of {MEMORY_CAP_SYMBOLS}")
    m = int(math.floor(2.0 ** (n * rate)))
    if m * n > MEMORY_CAP_SYMBOLS:
        raise MemoryCapError(
            f"a {m}-word codebook needs {m * n} symbols, cap is {MEMORY_CAP_SYMBOLS}")
    return m


def generate_codebook(n: int, rate: float, pmf: Pmf, seed: int) -> np.ndarray:
    """The read-only (m, n) array of floor(2^(nR)) i.i.d. codewords drawn
    from pmf; bit-identical given (seed, n, rate, pmf)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    entries = _symbols(rng.random((codebook_size(n, rate), n)), pmf.probs)
    entries.flags.writeable = False
    return entries


# ---------------------------------------------------------------------------
# Per-trial streams, drawn for a chunk of trials
# ---------------------------------------------------------------------------

def _chunks(trials: int, symbols_per_trial: int):
    """Consecutive trial-index arrays of at most _CHUNK_SYMBOLS symbols each."""
    size = max(1, _CHUNK_SYMBOLS // symbols_per_trial)
    for first in range(0, trials, size):
        yield np.arange(first, min(first + size, trials))


def _symbols(uniforms: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Inverse-cdf symbols: for each uniform u in [0, 1), the number of
    entries before the last of the cdf of probs (last axis, normalized to
    end at 1) that are <= u.  probs broadcasts against uniforms[..., None].
    For one pmf this is the algorithm of Generator.choice(p=probs), so
    mapping rng.random(shape) here equals rng.choice(probs.size, shape, p=probs)
    and leaves the stream in the same state.  No symbol past the alphabet
    or of probability 0 is returned."""
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    return (uniforms[..., None] >= cdf[..., :-1]).sum(axis=-1)


# ---------------------------------------------------------------------------
# Joint-typicality encoding
# ---------------------------------------------------------------------------

def _pair_typical(codewords: np.ndarray, seq: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Typicality of (codeword, seq) against ok, the typical_table of a
    two-axis joint (codeword axis first), for codewords (..., m, n) and
    sequences (..., n): mask (..., m)."""
    return typical_pairs(codewords, seq[..., None, :], ok)[..., 0]


def _bounded(ties, rows: np.ndarray, bounds: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Generator.integers(k) for each k in bounds, from the tie-break streams
    ties = _Streams.draws(_TIEBREAK, keys, 1) of rows, past the used[rows]
    halves each has read (advanced).  numpy's rule for k < 2^32: no draw at
    k = 1, else next_uint32 * k >> 32 (Lemire), drawn again while its low
    word is below 2^32 mod k.  A codebook holds fewer than 2^32 words."""
    seeded, words = ties
    halves = words.astype("<u8").view("<u4")        # low half, then high
    bounds = bounds.astype(np.uint64)
    out = np.zeros(rows.size, dtype=np.uint64)
    todo = np.arange(rows.size)
    while todo.size:
        live, k = rows[todo], bounds[todo]
        half = used[live]
        if half.max() >= halves.shape[1]:       # past the cached outputs
            halves = _pcg64_words(seeded, int(half.max()) // 2 + 1).astype("<u8").view("<u4")
        used[live] = half + (k > 1)
        scaled = halves[live, half] * k
        ok = (scaled & _M32) >= (1 << 32) % k
        out[todo[ok]] = scaled[ok] >> 32
        todo = todo[~ok]
    return out


def _select(hits: list[np.ndarray], ties) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Encoder index choice for each sender's (rows, m) hit mask.

    A row with exactly one hit takes it and draws nothing.  Otherwise the
    index is drawn uniformly among the hits, or among all m indices when
    there is no hit, by _bounded from the row's tie-break stream in ties,
    shared by the senders in order.  Returns each sender's indices and
    covering-failure (no hit) flags.
    """
    counts = [h.sum(axis=1) for h in hits]
    chosen = [h.argmax(axis=1) for h in hits]
    used = np.zeros(chosen[0].size, dtype=np.uint64)
    for h, c, idx in zip(hits, counts, chosen):
        rows = np.flatnonzero(c != 1)
        none = c[rows] == 0
        pick = _bounded(ties, rows, np.where(none, h.shape[1], c[rows]), used)
        among = (np.cumsum(h[rows], axis=1) <= pick[:, None]).sum(axis=1)   # pick-th hit
        idx[rows] = np.where(none, pick, among)
    return chosen, [c == 0 for c in counts]


def encode_p2p(s: np.ndarray, cb: np.ndarray, eps_prime: float,
               enc_map: np.ndarray, joint_us: JointPmf,
               rng: np.random.Generator) -> tuple[int, np.ndarray, bool]:
    """Joint-typicality encoding with uniform tie-break.

    Scans the (m, n) codebook cb for joint typicality of (u^n(m), s^n)
    against joint_us (axes u, s); picks uniformly among hits, or uniformly
    among all indices when there is no hit.  Returns (index, channel input,
    covering failure flag).
    """
    s = np.asarray(s, dtype=int)
    hits = _pair_typical(cb, s, typical_table(joint_us.probs, cb.shape[1], eps_prime))
    candidates = np.flatnonzero(hits) if hits.any() else np.arange(hits.size)
    m = candidates[rng.integers(candidates.size)]   # integers(1) draws nothing
    x = np.asarray(enc_map, dtype=int)[cb[m], s]
    return int(m), x, not hits.any()


# ---------------------------------------------------------------------------
# Point-to-point simulator
# ---------------------------------------------------------------------------

def run_p2p(scenario: P2pScenario, spec: HybridCodeSpec,
            config: TrialConfig) -> dict:
    """Monte Carlo trials of the single-sender scheme.

    Each trial draws a fresh source block, codebook, and channel noise from
    its own derived streams, then tracks the covering failure E1, the decode
    miss E2 on the chosen codeword given covering succeeded, and the packing
    confusion E3 by another codeword.  The overall error flag is their union.
    The decoder takes the only typical codeword, or index 0 unless exactly
    one is typical.  Trials are evaluated in chunks (see the module
    docstring); each trial's streams are drawn exactly as a one-trial-at-a-
    time loop would draw them.
    """
    joint = _p2p_joint(scenario.source, scenario.channel, scenario.distortion, spec)
    if scenario.distortion.table.max() > DISTORTION_MAX:
        raise ScenarioError(f"the simulator takes distortion entries up to {DISTORTION_MAX:g}")
    joint_us = joint.marginal([1, 0])   # (u, s)
    joint_uy = joint.marginal([1, 3])   # (u, y)
    n, trials = config.n, config.trials
    m_count = codebook_size(n, spec.rate)
    p_u = joint_us.marginal_pmf(0).probs
    e1, e2, e3 = (np.empty(trials, dtype=bool) for _ in range(3))
    dists = np.empty(trials)
    ok_us = typical_table(joint_us.probs, n, config.epsilon_prime)
    ok_uy = typical_table(joint_uy.probs, n, config.epsilon)
    streams = _Streams(config.seed, trials)
    for ts in _chunks(trials, m_count * n):
        rows = np.arange(ts.size)
        s = _symbols(streams.uniforms(_SOURCE, ts, (n,)), scenario.source.probs)
        cb = _symbols(streams.uniforms(_CODEBOOK, ts, (m_count, n)), p_u)
        [m], [e1[ts]] = _select([_pair_typical(cb, s, ok_us)], streams.draws(_TIEBREAK, ts, 1))
        x = spec.enc_map[cb[rows, m], s]
        y = _symbols(streams.uniforms(_CHANNEL, ts, (n,)), scenario.channel.rows[x])
        typ = _pair_typical(cb, y, ok_uy)
        chosen_typical = typ[rows, m]
        hits = typ.sum(axis=1)
        e2[ts] = ~e1[ts] & ~chosen_typical
        e3[ts] = hits - chosen_typical > 0
        m_hat = np.where(hits == 1, typ.argmax(axis=1), 0)
        shat = spec.dec_map[cb[rows, m_hat], y]
        dists[ts] = scenario.distortion.table[s, shat].mean(axis=1)
    return _p2p_report(n, e1, e2, e3, dists)


def _binom_halfwidth(count: int, trials: int) -> float:
    p = count / trials
    return 1.96 * math.sqrt(max(p * (1 - p), 0.0) / trials)


def _p2p_report(n, e1, e2, e3, dists) -> dict:
    trials = dists.size
    err = e1 | e2 | e3
    c_e1, c_err = int(e1.sum()), int(err.sum())
    ok_dists = dists[~err]
    return {
        "n": n,
        "trials": trials,
        "p_e1": c_e1 / trials,
        "p_e2_given_not_e1": int(e2.sum()) / trials,
        "p_e3": int(e3.sum()) / trials,
        "p_error": c_err / trials,
        "halfwidth_e1": _binom_halfwidth(c_e1, trials),
        "halfwidth_error": _binom_halfwidth(c_err, trials),
        "mean_distortion": float(np.mean(dists)),
        "distortion_halfwidth": float(1.96 * np.std(dists, ddof=1) / math.sqrt(trials))
        if trials > 1 else 0.0,
        "mean_distortion_no_error": float(np.mean(ok_dists)) if ok_dists.size else None,
    }


# ---------------------------------------------------------------------------
# Two-sender simulator
# ---------------------------------------------------------------------------

_MAC_EVENTS = ("e1", "e2", "e3", "e4", "e5", "e6")


def _count_ranges(ok: np.ndarray) -> list[np.ndarray]:
    """Each sender's typicality table of the (u_k, y) counts in a typical
    triple.

    ok is the (|U1|, |U2|, |Y|, n + 1) typical_table of p(u1, u2, y).
    Sender 1's (|U1|, |Y|, n + 1) table accepts the counts from the sum over
    u2 of the first count ok accepts to the sum of the last; sender 2's sums
    over u1.  A cell that accepts no count has first count n + 1, above any
    count, so each sum over it accepts none.
    """
    n = ok.shape[-1] - 1
    lo = np.where(ok.any(axis=-1), ok.argmax(axis=-1), n + 1)
    hi = n - ok[..., ::-1].argmax(axis=-1)
    k = np.arange(n + 1)
    return [(lo.sum(axis=axis)[..., None] <= k) & (k <= hi.sum(axis=axis)[..., None])
            for axis in (1, 0)]


def _pair_search(cb1: np.ndarray, cb2: np.ndarray, y: np.ndarray, ok: np.ndarray,
                 idx1: np.ndarray, idx2: np.ndarray):
    """The MAC decoder's pair search for a chunk of trials.

    cb1 (trials, m1, n), cb2 (trials, m2, n) and y (trials, n) are the
    codebooks and channel outputs, ok the (|U1|, |U2|, |Y|, n + 1)
    typical_table of p(u1, u2, y), and idx1, idx2 the chosen indices.  Each
    sender's searched indices are, in ascending order, the chosen one and
    the other codewords typical with y under its _count_ranges table.
    Yields, per trial, sender 1's and sender 2's searched indices and
    typical_pairs on them.
    """
    u1_size, u2_size, y_size, _ = ok.shape
    rows = np.arange(y.shape[0])
    masks = []
    for cb, ranges, chosen in zip((cb1, cb2), _count_ranges(ok), (idx1, idx2)):
        mask = _pair_typical(cb, y, ranges)
        mask[rows, chosen] = True
        masks.append(mask)
    # The test of cell (u1*|Y| + y, u2) at every count 0..n.
    pair_ok = ok.transpose(0, 2, 1, 3).reshape(u1_size * y_size, u2_size, -1)
    for row in rows:
        r1, r2 = np.flatnonzero(masks[0][row]), np.flatnonzero(masks[1][row])
        yield r1, r2, typical_pairs(cb1[row, r1] * y_size + y[row], cb2[row, r2], pair_ok)


def run_mac(scenario: MacScenario, spec: MacHybridSpec,
            config: TrialConfig) -> dict:
    """Monte Carlo trials of the two-sender scheme with a joint decoder.

    Event accounting: E1/E2 are the per-sender covering failures, E3 is the
    chosen pair falling outside the typical set at the decoder, and E4/E5/E6
    are the packing confusions with both, only the first, or only the second
    index wrong.  The decoder finds every typical index pair and falls back
    to pair (0, 0) unless exactly one pair is typical.  Streams, encoding
    and channel are drawn per chunk of trials as in run_p2p.  The pair
    search (_pair_search) first drops each codeword that is not typical
    with y under its sender's _count_ranges table.  That is exact: a
    typical triple's (u1, y) counts are sums over u2 of counts the
    typicality table accepts (the marginal property of typical sequences,
    El Gamal & Kim, Network Information Theory, section 2.5), and so lie in
    the ranges that table accepts; likewise its (u2, y) counts.  So the
    events and the decoded pair are those of the search over every pair.
    typical_pairs scores the pairs of the codewords left, one matmul for
    their cell counts; the memory cap bounds those counts and their one-hot
    factors when every codeword is left.
    """
    if spec.q_pmf.alphabet_size != 1:
        raise ScenarioError("simulation supports a trivial time-sharing alphabet only")
    j = _mac_joint(scenario.sources, scenario.mac, scenario.d1, scenario.d2, spec,
                   scenario.x1_size, scenario.x2_size)
    # Reference joints with the trivial q axis dropped.
    j_us1 = j.marginal([3, 1])           # (u1, s1)
    j_us2 = j.marginal([4, 2])           # (u2, s2)
    j_uuy = j.marginal([3, 4, 7])        # (u1, u2, y)
    n, trials = config.n, config.trials
    m1 = codebook_size(n, spec.R1)
    m2 = codebook_size(n, spec.R2)
    u1_size, u2_size, y_size = j_uuy.dims
    # Float entries of the pair search: both one-hot factors and the counts,
    # for a trial whose every codeword is left after _pair_search's pruning.
    pair_entries = (u1_size * y_size * m1 + u2_size * m2) * n + m1 * m2 * j_uuy.probs.size
    if max((m1 + m2) * n, pair_entries) > MEMORY_CAP_SYMBOLS:
        raise MemoryCapError(
            f"codebooks need {(m1 + m2) * n} symbols and the pair search "
            f"{pair_entries} entries, cap is {MEMORY_CAP_SYMBOLS}")
    s2_size = scenario.sources.dims[1]
    ok = typical_table(j_uuy.probs, n, config.epsilon)
    events = {key: np.empty(trials, dtype=bool) for key in _MAC_EVENTS}
    d1s = np.empty(trials)
    d2s = np.empty(trials)
    enc1, enc2 = spec.enc1[0], spec.enc2[0]
    dec1, dec2 = spec.dec1[0], spec.dec2[0]
    ok1, ok2 = (typical_table(joint.probs, n, config.epsilon_prime) for joint in (j_us1, j_us2))
    p_u1, p_u2 = j_us1.marginal_pmf(0).probs, j_us2.marginal_pmf(0).probs
    streams = _Streams(config.seed, trials, senders=2)
    for ts in _chunks(trials, (m1 + m2) * n):
        rows = np.arange(ts.size)
        flat_s = _symbols(streams.uniforms(_SOURCE, ts, (n,)), scenario.sources.probs.ravel())
        s1, s2 = np.divmod(flat_s, s2_size)
        cb1 = _symbols(streams.uniforms(_CODEBOOK, 2 * ts, (m1, n)), p_u1)
        cb2 = _symbols(streams.uniforms(_CODEBOOK, 2 * ts + 1, (m2, n)), p_u2)
        (idx1, idx2), (events["e1"][ts], events["e2"][ts]) = _select(
            [_pair_typical(cb1, s1, ok1), _pair_typical(cb2, s2, ok2)],
            streams.draws(_TIEBREAK, ts, 1))
        x1 = enc1[cb1[rows, idx1], s1]
        x2 = enc2[cb2[rows, idx2], s2]
        y = _symbols(streams.uniforms(_CHANNEL, ts, (n,)),
                     scenario.mac.rows[x1 * scenario.x2_size + x2])
        h1 = np.zeros(ts.size, dtype=int)
        h2 = np.zeros(ts.size, dtype=int)
        searches = _pair_search(cb1, cb2, y, ok, idx1, idx2)
        for row, (t, (r1, r2, typ)) in enumerate(zip(ts, searches)):
            # The chosen pair's row and column.  Typical pairs other than
            # it: in its row, its column, neither.
            i, j = np.searchsorted(r1, idx1[row]), np.searchsorted(r2, idx2[row])
            chosen, in_row, in_col = typ[i, j], typ[i].sum(), typ[:, j].sum()
            events["e3"][t] = not chosen
            events["e4"][t] = typ.sum() - in_row - in_col + chosen > 0
            events["e5"][t] = in_col > chosen
            events["e6"][t] = in_row > chosen
            hits = np.argwhere(typ)
            if hits.shape[0] == 1:
                h1[row], h2[row] = r1[hits[0, 0]], r2[hits[0, 1]]
        u1_hat, u2_hat = cb1[rows, h1], cb2[rows, h2]
        d1s[ts] = scenario.d1.table[s1, dec1[u1_hat, u2_hat, y]].mean(axis=1)
        d2s[ts] = scenario.d2.table[s2, dec2[u1_hat, u2_hat, y]].mean(axis=1)
    events["error"] = np.logical_or.reduce([events[key] for key in _MAC_EVENTS])
    report = {"n": n, "trials": trials}
    for key, flags in events.items():
        count = int(flags.sum())
        report[f"p_{key}"] = count / trials
        report[f"halfwidth_{key}"] = _binom_halfwidth(count, trials)
    report["mean_distortion_1"] = float(np.mean(d1s))
    report["mean_distortion_2"] = float(np.mean(d2s))
    return report


# ---------------------------------------------------------------------------
# Codebook-independence check
# ---------------------------------------------------------------------------

def lemma1_check(n: int, rate: float, joint_us: JointPmf, eps_prime: float,
                 outer_trials: int, seed: int = 0, min_count: int = 50) -> dict:
    """Empirical independence of the unselected codeword from the selection.

    Repeatedly draws (source block, codebook), runs the typicality-based
    index selection, keeps only trials where index 0 was selected, and
    accumulates the conditional distribution of codeword 1 per
    (codeword 0, source block) cell.  Reports the maximum ratio of the
    empirical conditional pmf to the i.i.d. generation pmf over cells with at
    least min_count samples; inconclusive (not an error) when no cell
    qualifies.  Trials are evaluated in chunks with the streams of a
    one-trial-at-a-time loop (see the module docstring).  The |U|^n pattern
    table is capped at MEMORY_CAP_SYMBOLS entries.
    """
    if n < 1 or outer_trials < 1 or min_count < 1 or not math.inf > eps_prime > 0:
        raise ScenarioError(
            "lemma1_check needs n, trials, min_count >= 1 and a finite eps_prime > 0")
    if joint_us.num_axes != 2:
        raise ScenarioError(f"joint_us must have two axes (u, s), got {joint_us.num_axes}")
    streams = _Streams(seed, outer_trials)
    m_count = codebook_size(n, rate)
    if m_count < 2:
        raise ScenarioError(f"rate {rate} at n = {n} gives fewer than two codewords")
    u_size, s_size = joint_us.dims
    if u_size ** n > MEMORY_CAP_SYMBOLS:
        raise MemoryCapError(
            f"{u_size}^{n} codeword patterns exceed the cap of {MEMORY_CAP_SYMBOLS}")
    p_u = joint_us.marginal_pmf(0).probs
    p_s = joint_us.marginal_pmf(1).probs
    # Probability of every codeword pattern, in C order over (u_1, ..., u_n).
    pattern_prob = reduce(np.multiply.outer, [p_u] * n).ravel()
    cells: dict[tuple, np.ndarray] = defaultdict(lambda: np.zeros(pattern_prob.size))
    kept = 0
    ok = typical_table(joint_us.probs, n, eps_prime)
    for ts in _chunks(outer_trials, m_count * n):
        s = _symbols(streams.uniforms(_SOURCE, ts, (n,)), p_s)
        cb = _symbols(streams.uniforms(_CODEBOOK, ts, (m_count, n)), p_u)
        [m], _ = _select([_pair_typical(cb, s, ok)], streams.draws(_TIEBREAK, ts, 1))
        sel = m == 0
        if not sel.any():
            continue
        kept += int(sel.sum())
        # Count each (codeword 0, source block, codeword-1 pattern) row into its cell.
        pats = np.ravel_multi_index(tuple(cb[sel, 1].T), (u_size,) * n)
        rows, counts = np.unique(np.column_stack([cb[sel, 0], s[sel], pats]), axis=0,
                                 return_counts=True)
        for row, count in zip(rows.tolist(), counts.tolist()):
            cells[tuple(row[:n]), tuple(row[n:2 * n])][row[-1]] += count
    cell_stats = {}
    for key, vec in sorted(cells.items()):
        total = int(vec.sum())
        if total < min_count:
            continue
        emp = vec / total
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(pattern_prob > 0, emp / pattern_prob, 0.0)
        cell_stats[key] = {
            "count": total,
            "max_ratio": float(ratios.max()),
            "histogram": vec.astype(int).tolist(),
        }
    return {
        "n": n,
        "rate": rate,
        "trials": outer_trials,
        "kept": kept,
        "well_sampled_cells": len(cell_stats),
        "conclusive": bool(cell_stats),
        "max_ratio": max((c["max_ratio"] for c in cell_stats.values()), default=None),
        "cells": cell_stats,
    }


def lemma1_exact_n2(rate: float, joint_us: JointPmf, eps_prime: float) -> dict:
    """Exact conditional law of the unselected codeword at blocklength 2.

    Weighs every (codeword 0, source block, codeword 1) combination of the
    two-word codebook by its probability times the chance that index 0 is
    selected under the typicality rule with uniform tie-break; one
    typical_pairs call tests every source block against every codeword
    pattern.  Returns per-cell conditional pmfs of codeword 1, with cells
    keyed (codeword 0, source block) in sorted order, plus the overall
    maximum ratio to the i.i.d. generation pmf.  The |S|^2 |U|^4 table of
    combinations is capped at MEMORY_CAP_SYMBOLS entries.
    """
    if codebook_size(2, rate) != 2:
        raise ValueError("oracle covers exactly the two-codeword regime")
    if not math.inf > eps_prime > 0:
        raise ScenarioError("lemma1_exact_n2 needs a finite eps_prime > 0")
    u_size, s_size = joint_us.dims
    if s_size ** 2 * u_size ** 4 > MEMORY_CAP_SYMBOLS:
        raise MemoryCapError(f"{s_size}^2 * {u_size}^4 (source block, codeword pair) "
                             f"combinations exceed the cap of {MEMORY_CAP_SYMBOLS}")
    # Length-2 patterns of each alphabet in C order, and their probabilities.
    patterns = list(iproduct(range(u_size), repeat=2))
    blocks = list(iproduct(range(s_size), repeat=2))
    p_pat, p_block = (np.multiply.outer(p, p).ravel() for p in
                      (joint_us.marginal_pmf(0).probs, joint_us.marginal_pmf(1).probs))
    hit = typical_pairs(np.array(blocks), np.array(patterns),
                        typical_table(joint_us.probs.T, 2, eps_prime))
    # Axes (codeword 0, source block, codeword 1).  Index 0 is selected
    # surely when only codeword 0 is typical, never when only codeword 1
    # is, and with chance 1/2 otherwise.
    p_sel = (1.0 + hit.T[:, :, None] - hit) / 2
    weight = p_block[:, None] * p_pat[:, None, None] * p_pat
    mass, kept = weight * p_sel, (weight != 0) & (p_sel != 0)
    p_pat = p_pat.tolist()
    cells, max_ratio = {}, 0.0
    for c0, s in np.argwhere(kept.any(axis=2)).tolist():
        c1s = np.flatnonzero(kept[c0, s]).tolist()
        dist = mass[c0, s, c1s].tolist()
        total = sum(dist)
        cond = {patterns[c1]: v / total for c1, v in zip(c1s, dist)}
        max_ratio = max(max_ratio, *(q / p_pat[c1] for c1, q in zip(c1s, cond.values())))
        cells[patterns[c0], blocks[s]] = {"mass": total, "conditional": cond}
    return {"cells": cells, "max_ratio": max_ratio}
