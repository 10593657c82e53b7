"""Exact evaluators for the discrete-alphabet achievability bounds.

Covers the point-to-point hybrid-coding condition and its exhaustive
optimizer, the two-sender MAC region with its lossless and distributed
substitutions, the discrete two-way-relay region, the grid maximizer of the
deterministic diamond network, and the Blahut-Arimoto routines for the
separation baseline R(D) vs C.

Strict inequalities are tested with the fixed margin MARGIN = 1e-9:
boundary equality reports not-satisfied.  The degenerate single-letter
auxiliary (uncoded transmission) bypasses the inequality and reports
achievability of the expected distortion directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .infotheory import (
    MEMORY_CAP_SYMBOLS,
    ConditionalPmf,
    DistortionMeasure,
    JointPmf,
    MemoryCapError,
    Pmf,
    ScenarioError,
    as_table,
    compose_joint,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from .search import first_near_max, simplex_grid_array

MARGIN = 1e-9
BA_TOL = 1e-9
BA_MAX_ITER = 10_000
# Stop of one rate-distortion point: successive distortions this close.
RD_TOL = 1e-13
# Stop of rd_function's slope search: bound on R(D) minus the returned line.
RD_GAP = 1e-16
# Kernel-grid candidates per chunk of the p2p scan.
_SCAN_CHUNK = 1024


# ---------------------------------------------------------------------------
# Report and spec containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    name: str
    lhs: float | None
    rhs: float


@dataclass(frozen=True)
class BoundReport:
    constraints: tuple[Constraint, ...]
    satisfied: bool
    binding_constraint: str
    distortions: tuple[float, ...] = ()
    value: float | None = None
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HybridCodeSpec:
    """Single-sender hybrid code: auxiliary kernel plus symbol maps.

    aux_kernel rows are indexed by the source symbol; enc_map[u, s] is the
    channel input and dec_map[u, y] the reconstruction symbol.  rate is the
    codebook rate in bits per symbol.  _p2p_joint checks that the spec fits
    a scenario.
    """

    aux_size: int
    aux_kernel: ConditionalPmf
    enc_map: np.ndarray
    dec_map: np.ndarray
    rate: float

    def __post_init__(self):
        for name in ("enc_map", "dec_map"):
            object.__setattr__(self, name, as_table(getattr(self, name), name, whole=True))
        if not 0.0 <= self.rate < math.inf:     # also rejects NaN
            raise ScenarioError(f"rate must be a finite nonnegative number, got {self.rate}")

    @staticmethod
    def uncoded(enc: np.ndarray, dec: np.ndarray, num_sources: int) -> "HybridCodeSpec":
        """Degenerate single-letter auxiliary: x = x(s), shat = shat(y)."""
        return HybridCodeSpec(
            aux_size=1,
            aux_kernel=ConditionalPmf(np.ones((num_sources, 1))),
            enc_map=[enc],
            dec_map=[dec],
            rate=0.0,
        )


@dataclass(frozen=True)
class MacHybridSpec:
    """Two-sender hybrid code with optional coded time sharing.

    aux kernels are arrays p(u_j | s_j, q) of shape (Q, Sj, Uj); enc maps
    have shape (Q, Uj, Sj) and dec maps (Q, U1, U2, Y).  _mac_joint checks
    that the spec fits a scenario and that the aux rows are pmfs.
    """

    q_pmf: Pmf
    aux1: np.ndarray
    aux2: np.ndarray
    enc1: np.ndarray
    enc2: np.ndarray
    dec1: np.ndarray
    dec2: np.ndarray
    R1: float = 0.0
    R2: float = 0.0

    def __post_init__(self):
        q_size = self.q_pmf.alphabet_size
        for name in ("aux1", "aux2"):
            a = as_table(getattr(self, name), name)
            if a.ndim != 3 or a.shape[0] != q_size:
                raise ScenarioError(f"{name} must have shape ({q_size}, S, U)")
            object.__setattr__(self, name, a)
        for name in ("enc1", "enc2", "dec1", "dec2"):
            object.__setattr__(self, name, as_table(getattr(self, name), name, whole=True))
        if not (0.0 <= self.R1 < math.inf and 0.0 <= self.R2 < math.inf):
            raise ScenarioError("R1 and R2 must be finite nonnegative numbers")


# ---------------------------------------------------------------------------
# Point-to-point condition
# ---------------------------------------------------------------------------

def _check_map(table: np.ndarray, name: str, shape: tuple, size: int) -> None:
    """A symbol table must have the given shape and symbols in 0..size-1."""
    if table.shape != shape:
        raise ScenarioError(f"{name} must have shape {shape}, got {table.shape}")
    if np.any(table >= size):
        raise ScenarioError(f"{name} symbols must lie in 0..{size - 1}")


def _check_distortion(d: DistortionMeasure, s_size: int, name: str = "distortion") -> None:
    if d.table.shape[0] != s_size:
        raise ScenarioError(f"{name} table needs {s_size} rows, one per source symbol")


def _p2p_joint(source: Pmf, channel: ConditionalPmf, d: DistortionMeasure,
               spec: HybridCodeSpec) -> JointPmf:
    """Joint p(s, u, x, y) induced by a hybrid code spec, after checking that
    the spec and the distortion table fit the scenario.  Axes: s=0, u=1,
    x=2, y=3."""
    s_size, u_size = source.alphabet_size, spec.aux_size
    if spec.aux_kernel.rows.shape != (s_size, u_size):
        raise ScenarioError(f"aux_kernel must have shape {(s_size, u_size)} (s, u), "
                            f"got {spec.aux_kernel.rows.shape}")
    _check_map(spec.enc_map, "enc_map", (u_size, s_size), channel.input_size)
    _check_distortion(d, s_size)
    _check_map(spec.dec_map, "dec_map", (u_size, channel.output_size), d.table.shape[1])
    enc = ConditionalPmf.deterministic(spec.enc_map, channel.input_size)
    return compose_joint(
        JointPmf(source.probs),
        [(spec.aux_kernel, [0]), (enc, [1, 0]), (channel, [2])],
    )


def check_p2p(
    source: Pmf,
    channel: ConditionalPmf,
    d: DistortionMeasure,
    spec: HybridCodeSpec,
) -> BoundReport:
    """Evaluate the single-sender hybrid achievability condition.

    Reports I(S;U), I(U;Y) and the expected distortion of the symbol maps;
    satisfied iff I(S;U) + MARGIN < I(U;Y).  The degenerate aux_size == 1
    spec is reported as uncoded transmission and is satisfied by convention
    (nonstrict): both informations are zero and only the distortion matters.
    """
    joint = _p2p_joint(source, channel, d, spec)
    ed = float(np.sum(joint.marginal([0, 1, 3]).probs * d.table[:, spec.dec_map]))
    uncoded = spec.aux_size == 1
    i_su = 0.0 if uncoded else mutual_information(joint, [0], [1])
    i_uy = 0.0 if uncoded else mutual_information(joint, [1], [3])
    c = Constraint("I(S;U) < I(U;Y)", i_su, i_uy)
    return BoundReport(
        constraints=(c,),
        satisfied=bool(uncoded or i_su + MARGIN < i_uy),
        binding_constraint=c.name,
        distortions=(ed,),
        info={"uncoded": True} if uncoded else {"uncoded": False, "slack": i_uy - i_su},
    )


# ---------------------------------------------------------------------------
# MAC region
# ---------------------------------------------------------------------------

def _mac_joint(sources: JointPmf, mac: ConditionalPmf, d1: DistortionMeasure,
               d2: DistortionMeasure, spec: MacHybridSpec, x1_size: int,
               x2_size: int) -> JointPmf:
    """Joint over (q, s1, s2, u1, u2, x1, x2, y), after checking that the spec,
    the distortion tables and the declared input alphabets fit the scenario."""
    q_size, s1_size, u1_size = spec.aux1.shape
    _, s2_size, u2_size = spec.aux2.shape
    if sources.dims != (s1_size, s2_size):
        raise ScenarioError(
            f"sources have shape {sources.dims}, but the aux kernels take "
            f"({s1_size}, {s2_size}) source symbols")
    if min(x1_size, x2_size) < 1 or x1_size * x2_size != mac.input_size:
        raise ScenarioError(
            f"MAC has {mac.input_size} rows, but |X1| = {x1_size} and |X2| = {x2_size}; "
            "rows must be indexed by (x1, x2) in C order")
    _check_map(spec.enc1, "enc1", (q_size, u1_size, s1_size), x1_size)
    _check_map(spec.enc2, "enc2", (q_size, u2_size, s2_size), x2_size)
    for j, d, s_size in ((1, d1, s1_size), (2, d2, s2_size)):
        _check_distortion(d, s_size, f"d{j}")
        _check_map(getattr(spec, f"dec{j}"), f"dec{j}",
                   (q_size, u1_size, u2_size, mac.output_size), d.table.shape[1])
    base = JointPmf.product(spec.q_pmf, sources)
    k_aux = []
    for name, (_, s_size, u_size) in (("aux1", spec.aux1.shape), ("aux2", spec.aux2.shape)):
        try:
            k_aux.append(ConditionalPmf(getattr(spec, name).reshape(q_size * s_size, u_size)))
        except ScenarioError as exc:
            raise ScenarioError(f"{name}: {exc}") from exc
    k_aux1, k_aux2 = k_aux
    k_enc1 = ConditionalPmf.deterministic(spec.enc1, x1_size)
    k_enc2 = ConditionalPmf.deterministic(spec.enc2, x2_size)
    return compose_joint(base, [
        (k_aux1, [0, 1]),
        (k_aux2, [0, 2]),
        (k_enc1, [0, 3, 1]),
        (k_enc2, [0, 4, 2]),
        (mac, [5, 6]),
    ])


def mac_region_check(
    sources: JointPmf,
    mac: ConditionalPmf,
    d1: DistortionMeasure,
    d2: DistortionMeasure,
    spec: MacHybridSpec,
    x1_size: int, x2_size: int,
) -> BoundReport:
    """Evaluate the three-inequality MAC hybrid-coding region for a spec; the
    MAC rows are indexed by (x1, x2) over the declared input alphabets."""
    j = _mac_joint(sources, mac, d1, d2, spec, x1_size, x2_size)
    Q, S1, S2, U1, U2 = 0, 1, 2, 3, 4
    Y = 7
    c1 = Constraint(
        "I(U1;S1|U2,Q) < I(U1;Y|U2,Q)",
        conditional_mutual_information(j, [U1], [S1], [U2, Q]),
        conditional_mutual_information(j, [U1], [Y], [U2, Q]),
    )
    c2 = Constraint(
        "I(U2;S2|U1,Q) < I(U2;Y|U1,Q)",
        conditional_mutual_information(j, [U2], [S2], [U1, Q]),
        conditional_mutual_information(j, [U2], [Y], [U1, Q]),
    )
    c3 = Constraint(
        "I(U1,U2;S1,S2|Q) < I(U1,U2;Y|Q)",
        conditional_mutual_information(j, [U1, U2], [S1, S2], [Q]),
        conditional_mutual_information(j, [U1, U2], [Y], [Q]),
    )
    constraints = (c1, c2, c3)
    slacks = [c.rhs - c.lhs for c in constraints]
    binding = constraints[int(np.argmin(slacks))].name
    satisfied = all(c.lhs + MARGIN < c.rhs for c in constraints)

    # Expected distortions of the symbol-by-symbol reconstructions.
    p = j.marginal([0, 1, 2, 3, 4, 7]).probs  # (q, s1, s2, u1, u2, y)
    dist1 = d1.table[:, spec.dec1]            # (s1, q, u1, u2, y)
    dist2 = d2.table[:, spec.dec2]
    ed1 = float(np.einsum("qabuvy,aquvy->", p, dist1))
    ed2 = float(np.einsum("qabuvy,bquvy->", p, dist2))
    return BoundReport(
        constraints=constraints,
        satisfied=bool(satisfied),
        binding_constraint=binding,
        distortions=(ed1, ed2),
        info={"slacks": tuple(slacks)},
    )


# ---------------------------------------------------------------------------
# Blahut-Arimoto
# ---------------------------------------------------------------------------

def capacity(channel: ConditionalPmf) -> float:
    """Channel capacity in bits via Blahut-Arimoto with a duality-gap stop."""
    W = channel.rows
    nx = W.shape[0]
    p = np.full(nx, 1.0 / nx)
    logW = np.where(W > 0, np.log2(np.where(W > 0, W, 1.0)), 0.0)
    for _ in range(BA_MAX_ITER):
        q = p @ W
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0, np.log2(np.where(q > 0, q, 1.0)), 0.0)
        div = np.sum(W * (logW - logq[None, :]), axis=1)
        lower = float(p @ div)
        upper = float(div.max())
        if upper - lower <= BA_TOL:
            return lower
        p = p * np.exp2(div - upper)
        p /= p.sum()
    # Iteration cap reached; return the certified lower value.
    return lower


def _rd_point(p_s: np.ndarray, dtab: np.ndarray, beta: float) -> tuple[float, float]:
    """One Blahut-Arimoto rate-distortion point at Lagrange slope beta."""
    n_hat = dtab.shape[1]
    q = np.full(n_hat, 1.0 / n_hat)
    # Each row's weights shifted by its minimum: no row underflows to all 0.
    expd = np.exp2(-beta * (dtab - dtab.min(axis=1, keepdims=True)))
    prev_d = np.inf
    rate, dist = 0.0, 0.0
    for _ in range(BA_MAX_ITER):
        a = q[None, :] * expd
        denom = a.sum(axis=1, keepdims=True)
        cond = a / denom
        q = p_s @ cond
        dist = float(np.sum(p_s[:, None] * cond * dtab))
        if abs(dist - prev_d) <= RD_TOL:
            break
        prev_d = dist
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cond > 0, cond / q[None, :], 1.0)
        rate = float(np.sum(p_s[:, None] * cond * np.log2(ratio)))
    return max(rate, 0.0), dist


def rd_function(source: Pmf, d: DistortionMeasure, D: float) -> float:
    """Rate-distortion function R(D) in bits via Blahut-Arimoto.

    Finds the Lagrange slope beta with D(beta) = D, where D(beta) is the
    distortion of the Blahut-Arimoto point at slope beta and falls with
    beta.  The bracket [lo, hi] keeps D(lo) > D >= D(hi): lo starts at 0,
    where D(0+) = d_max, and hi doubles from 1, each doubling moving lo up
    to the old hi.  Inside the bracket the search is regula falsi on
    f = D(beta) - D with the Illinois modification (Dowell & Jarratt 1971):
    an end kept twice in a row has its f halved.  A step that rounding puts
    outside the bracket falls back to the midpoint.

    Returns the supporting line R(D_hi) + hi * (D_hi - D) at slope -hi,
    where D_hi = D(hi) <= D.  In exact arithmetic every supporting line is
    a lower bound on R(D), and R's slope on [D_hi, D] is at most -lo, so
    this one is within (hi - lo) * (D - D_hi) of R(D).  The search stops
    when that gap is at most RD_GAP, or when the bracket is narrower than
    1e-12 relative to hi.  On the hi side the line's last term is never
    positive; from the lo side it would add up to lo * (D(lo) - D).

    Raises ScenarioError when D is below the minimum achievable distortion.
    """
    p_s = source.probs
    dtab = d.table
    _check_distortion(d, p_s.size)
    d_min = float(p_s @ dtab.min(axis=1))
    d_max = float((p_s @ dtab).min())
    if not D >= d_min - 1e-12:      # also rejects NaN
        raise ScenarioError(f"distortion {D} below minimum achievable {d_min}")
    if D >= d_max:
        return 0.0
    if D <= d_min + 1e-12:
        beta_hi = 1e5
        r, _ = _rd_point(p_s, dtab, beta_hi)
        return r
    lo, f_lo = 0.0, d_max - D
    hi = 1.0
    rate, dist = _rd_point(p_s, dtab, hi)
    while dist > D and hi <= 1e7:
        lo, f_lo = hi, dist - D
        hi *= 2.0
        rate, dist = _rd_point(p_s, dtab, hi)
    f_hi, kept = dist - D, None
    while (hi - lo) * (D - dist) > RD_GAP and hi - lo >= 1e-12 * max(1.0, hi):
        beta = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
        r, dist_b = _rd_point(p_s, dtab, beta)
        if dist_b > D:
            lo, f_lo = beta, dist_b - D
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi, rate, dist = beta, dist_b - D, r, dist_b
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    return max(rate + hi * (dist - D), 0.0)


# ---------------------------------------------------------------------------
# Exhaustive point-to-point optimizer
# ---------------------------------------------------------------------------

# The factorized scan sums in another order than the reference arithmetic of
# _score_candidates, so the two differ by a few ulps.  _p2p_winner's fold
# keeps the canonical candidates within these bands of its target's best and
# rescores their orbits by the reference arithmetic, which alone decides
# p2p_optimize's winner, reported values and feasibility.  The sweep's fold
# answers from the factorized values; the bands say where that could differ.
SCAN_SLACK_TOL = 1e-12
SCAN_ED_TOL = 1e-13    # times the largest distortion value
TARGET_D_TOL = 1e-12   # an E[d] at most D + TARGET_D_TOL meets the target D


def _digits(idx: np.ndarray, base: int, count: int) -> np.ndarray:
    """C-order base-`base` digits of each index: shape (idx.size, count)."""
    digits = np.empty((idx.size, count), dtype=int)
    rem = np.array(idx)
    for pos in range(count - 1, -1, -1):
        digits[:, pos] = rem % base
        rem //= base
    return digits


def _xlog2x(p: np.ndarray) -> np.ndarray:
    return p * np.log2(p, out=np.zeros_like(p), where=p > 0)


def _entropy_rows(p: np.ndarray, axis) -> np.ndarray:
    return -_xlog2x(p).sum(axis=axis)


def _score_candidates(p_su, wm, d_table, h_s):
    """Reference slack I(U;Y) - I(S;U) and minimum-distortion E[d].

    p_su is p(s, u) per candidate, shape (N, s, u), and wm the channel rows
    W[x(u, s)] laid out (N, s, u, y).  These are the values the optimizer
    reports and compares.
    """
    h_u = _entropy_rows(p_su.sum(axis=1), 1)
    h_su = _entropy_rows(p_su, (1, 2))
    i_su = h_s + h_u - h_su
    p_suy = p_su[..., None] * wm
    p_uy = p_suy.sum(axis=1)
    h_y = _entropy_rows(p_uy.sum(axis=1), 1)
    h_uy = _entropy_rows(p_uy, (1, 2))
    i_uy = h_u + h_y - h_uy
    ed = np.einsum("nsuy,sr->nuyr", p_suy, d_table).min(axis=-1).sum(axis=(1, 2))
    return i_uy - i_su, ed


def _score_keys(p_s, W, d_table, h_s, counts, enc, grid_res):
    """_score_candidates of keys given as kernel grid counts (N, s, u) and
    encoder indices (N,)."""
    n, s_size, u = counts.shape
    enc_maps = _digits(enc, W.shape[0], u * s_size).reshape(n, u, s_size)
    wm = W[enc_maps].transpose(0, 2, 1, 3)
    return _score_candidates(p_s[None, :, None] * (counts / grid_res), wm, d_table, h_s)


def _entropy_last(p: np.ndarray) -> np.ndarray:
    """Entropy over the last axis, for the scan's filter only.

    Faster than _entropy_rows and equal to it within a few ulps, which the
    SCAN_* bands absorb; reported values come from _entropy_rows.
    """
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return -np.einsum("...i,...i->...", p, log_p)


def _count_codes(counts: np.ndarray, grid_res: int, axis: int) -> np.ndarray:
    """One integer per count vector along `axis`: its grid counts read as
    base-(grid_res + 1) digits, the first entry the most significant.  The
    codes sort as the vectors do lexicographically, so the rows of
    simplex_grid_array have increasing codes.  Codes past int64 are Python
    integers."""
    n = counts.shape[axis]
    dtype = np.int64 if (grid_res + 1) ** n <= 2 ** 63 else object
    weight = np.array([(grid_res + 1) ** k for k in range(n - 1, -1, -1)], dtype=dtype)
    return np.moveaxis(counts, axis, -1).astype(dtype, copy=False) @ weight


def _canonical_kernels(row_grid: np.ndarray, s_size: int, grid_res: int):
    """Canonical kernels of one aux size: (kernel indices, kernels) chunks.

    A kernel is canonical when its column codes (_count_codes) are
    non-increasing and the last is not 0 (no column is all zero).  Every
    kernel is a relabelling of one canonical kernel, padded with zero
    columns.  The first row of a canonical kernel is non-increasing, so only
    kernels with such a row are tried, _SCAN_CHUNK indices at a time, in
    increasing index order.
    """
    G = row_grid.shape[0]
    lead = np.flatnonzero((row_grid[:, :-1] >= row_grid[:, 1:]).all(axis=1))
    rest = G ** (s_size - 1)
    row_counts = np.rint(row_grid * grid_res).astype(np.int64)
    for start in range(0, lead.size * rest, _SCAN_CHUNK):
        pos = np.arange(start, min(start + _SCAN_CHUNK, lead.size * rest))
        idx = lead[pos // rest] * rest + pos % rest
        rows = _digits(idx, G, s_size)
        code = _count_codes(row_counts[rows], grid_res, 1)     # (B, u)
        keep = (code[:, :-1] >= code[:, 1:]).all(axis=1) & (code[:, -1] > 0)
        if keep.any():
            yield idx[keep], row_grid[rows[keep]]


def _orbit_keys(counts: np.ndarray, enc: np.ndarray, size: int, x_size: int, grid_res: int):
    """Relabellings of canonical candidates into `size` aux symbols.

    counts (N, s, u) holds the grid counts of canonical kernels and enc (N,)
    their encoder indices.  The u columns, each with its encoder column map
    s -> x, go to every ordered choice of u of the `size` slots; the other
    slots get zero columns and column map 0.  An empty slot's column map
    multiplies probability 0, so every map there gives bit-identical slack
    and E[d], and map 0 gives the least key: no other map can win.  Yields
    (kernel counts (M, s, size), kernel indices, encoder indices) of 1 to
    _SCAN_CHUNK keys at a time.  A kernel row's index in the size-`size`
    grid is where its code (_count_codes) sorts among the codes of the
    grid's rows.

    Each key comes once: a candidate whose equal columns carry increasing
    column maps is skipped, since swapping those maps gives the same orbit,
    and equal (column, column map) pairs keep their order among the slots.
    """
    n, s_size, u = counts.shape
    C = x_size ** s_size
    grid_codes = _count_codes(np.rint(simplex_grid_array(size, grid_res) * grid_res)
                              .astype(np.int64), grid_res, 1)
    row_weight = grid_codes.size ** np.arange(s_size - 1, -1, -1)
    col_weight = C ** np.arange(size - 1, -1, -1)
    cols = counts.transpose(0, 2, 1)                            # (N, u, s)
    maps = _digits(enc, C, u)                                   # (N, u)
    equal = (cols[:, 1:] == cols[:, :-1]).all(axis=2)           # (N, u - 1)
    ordered = ~(equal & (maps[:, :-1] < maps[:, 1:])).any(axis=1)
    cols, maps = cols[ordered], maps[ordered]
    repeat = equal[ordered] & (maps[:, :-1] == maps[:, 1:])
    perms = itertools.permutations(range(size), u)
    while (taken := np.array(list(itertools.islice(perms, _SCAN_CHUNK)), dtype=int)).size:
        P = taken.shape[0]
        swapped = taken[:, :-1] > taken[:, 1:]                  # (P, u - 1)
        batch = _SCAN_CHUNK // P                                # P <= _SCAN_CHUNK
        for lo in range(0, cols.shape[0], batch):
            hi = min(lo + batch, cols.shape[0])
            once = ~(repeat[lo:hi, None] & swapped[None]).any(axis=-1)
            if not once.any():
                continue
            placed = np.zeros((hi - lo, P, size, s_size), dtype=int)
            placed[:, np.arange(P)[:, None], taken] = cols[lo:hi, None]
            placed = placed.transpose(0, 1, 3, 2)               # (M, P, s, size)
            # C order: numpy sums in memory order, and a key's reference
            # slack and E[d] are the bits of its C-ordered kernel.
            placed = np.ascontiguousarray(placed[once])         # (V, s, size)
            rank = np.searchsorted(grid_codes, _count_codes(placed, grid_res, 2))
            kern = (rank * row_weight).sum(axis=-1)
            keys = (maps[lo:hi, None, :] * col_weight[taken]).sum(axis=-1)
            yield placed, kern, keys[once]


def _scan_p2p(source, channel, d, aux_cap, grid_res):
    """Factorized scan of the canonical candidates, one kernel chunk at a time.

    Yields (K, slack, ed) per chunk of canonical kernels K (B, s, u): slack
    and ed (B, C^u) hold the factorized slack and E[d] of each kernel with
    each encoder map.  It keeps no bests; each caller folds for its own job.

    Relabelling the aux symbols, with the kernel columns and the encoder-map
    rows, and adding aux symbols of probability 0 leave slack and E[d]
    unchanged, so only canonical kernels (_canonical_kernels) are scored,
    each with every encoder map.  The encoder map acts on each aux symbol on
    its own, so p(u, y), H(U, Y) and E[d] are sums over u of pieces that
    depend on one column map s -> x each, evaluated once per kernel chunk;
    only H(Y) is taken of the summed p(y).

    Raises MemoryCapError before allocating when the encoder-map tables of
    the largest aux size, or its simplex row grid, exceed MEMORY_CAP_SYMBOLS
    entries.
    """
    if aux_cap < 1 or grid_res < 1:
        raise ScenarioError("aux_cap and grid_res must be >= 1")
    _check_distortion(d, source.alphabet_size)
    p_s = source.probs
    s_size = p_s.size
    x_size = channel.input_size
    W = channel.rows
    # The largest aux size holds the most encoder maps: their (u, s) tables,
    # the (u * C)-column selection matrix and a kernel chunk's p(y) per map.
    maps = x_size ** (aux_cap * s_size)
    rows = math.comb(grid_res + aux_cap - 1, aux_cap - 1)
    entries = maps * max(aux_cap * s_size, aux_cap * x_size ** s_size,
                         min(_SCAN_CHUNK, rows ** s_size) * channel.output_size)
    if entries > MEMORY_CAP_SYMBOLS:
        raise MemoryCapError(
            f"{maps} encoder maps at aux size {aux_cap} need {entries} entries, "
            f"cap is {MEMORY_CAP_SYMBOLS}")
    if rows * aux_cap > MEMORY_CAP_SYMBOLS:
        raise MemoryCapError(
            f"the simplex grid at aux size {aux_cap} and resolution {grid_res} has "
            f"{rows} rows, {rows * aux_cap} entries, cap is {MEMORY_CAP_SYMBOLS}")
    h_s = float(_entropy_rows(p_s, 0))
    col_maps = _digits(np.arange(x_size ** s_size), x_size, s_size)   # (C, s)
    C = col_maps.shape[0]
    w_col = W[col_maps]                                  # (C, s, y)
    wd_col = w_col[..., None] * d.table[None, :, None, :]  # (C, s, y, r)
    for u in range(1, aux_cap + 1):
        row_grid = simplex_grid_array(u, grid_res)      # (G, u)
        NE = C ** u
        # sel[e, i * C + c] = 1 where enc map e sends aux symbol i through
        # column map c: the enc index has C-order base-C digits (c_0, ...).
        sel = np.zeros((NE, u * C))
        np.put_along_axis(sel, np.arange(u) * C + _digits(np.arange(NE), C, u), 1.0, 1)
        for idx, K in _canonical_kernels(row_grid, s_size, grid_res):
            p_su = p_s[None, :, None] * K               # (B, s, u)
            h_u = _entropy_rows(p_su.sum(axis=1), 1)    # (B,)
            i_su = h_s + h_u - _entropy_rows(p_su, (1, 2))
            # p(u, y) and E[d] pieces of each (aux symbol, column map).
            q = np.einsum("bsu,csy->bucy", p_su, w_col).reshape(idx.size, u * C, -1)
            cost = np.einsum("bsu,csyr->bucyr", p_su, wd_col)
            ed = cost.min(axis=-1).sum(axis=-1).reshape(idx.size, -1) @ sel.T
            h_uy = _entropy_last(q) @ sel.T             # (B, NE)
            h_y = _entropy_last(sel @ q)
            yield K, h_u[:, None] + h_y - h_uy - i_su[:, None], ed


def _uncoded_ed(source, channel, d) -> float:
    """The least uncoded (aux size 1) E[d], by _score_candidates."""
    C = channel.input_size ** source.alphabet_size
    ones = np.ones((C, source.alphabet_size, 1), dtype=int)
    _, ed = _score_keys(source.probs, channel.rows, d.table, 0.0, ones, np.arange(C), 1)
    return float(ed.min())


def _p2p_winner(source, channel, d, target, aux_cap, grid_res):
    """The winner (slack, key, E[d]) for one target, and the uncoded E[d].

    The winner is the least (-slack, key, E[d]), key = (aux_size,
    kernel_index, enc_index), among the keys whose E[d] is at most
    target + TARGET_D_TOL, with slack and E[d] computed by
    _score_candidates; it is (-inf, None, None) when there is none.  Keys
    tied in exact arithmetic are thus separated by float rounding.  The
    fold of _scan_p2p keeps the running best factorized slack of candidates
    that surely meet the target (p2p_feasibility_sweep) and the candidates
    in the SCAN_* bands of it.  Only the relabellings (_orbit_keys) of
    those in the bands of the final best are rescored, each aux size's
    group into sizes u .. aux_cap, one batch of at most _SCAN_CHUNK keys at
    a time; empty aux slots take column map 0 alone, the least key of their
    bit-identical scores.
    """
    if not math.isfinite(target):
        raise ScenarioError(f"target distortion must be finite, got {target}")
    limit = float(target) + TARGET_D_TOL
    ed_tol = SCAN_ED_TOL * max(1.0, float(d.table.max()))
    best, found = -np.inf, {}          # u -> [(counts, enc, slack)]
    for K, slack, ed in _scan_p2p(source, channel, d, aux_cap, grid_res):
        best = max(best, slack[ed <= limit - ed_tol].max(initial=-np.inf))
        b, e = np.nonzero((ed <= limit + ed_tol) & (slack >= best - SCAN_SLACK_TOL))
        found.setdefault(K.shape[2], []).append(
            (np.rint(K[b] * grid_res).astype(int), e, slack[b, e]))
    h_s = float(_entropy_rows(source.probs, 0))
    win = (np.inf, None, None)         # the least (-slack, key, E[d]) so far
    for u, parts in found.items():
        counts, enc, slack = (np.concatenate(a) for a in zip(*parts))
        if not (near := slack >= best - SCAN_SLACK_TOL).any():
            continue
        for size in range(u, aux_cap + 1):
            for placed, kern, keys in _orbit_keys(counts[near], enc[near], size,
                                                  channel.input_size, grid_res):
                slack, ed = _score_keys(source.probs, channel.rows, d.table, h_s,
                                        placed, keys, grid_res)
                slack = np.where(ed <= limit, slack, -np.inf)
                i = np.lexsort((keys, kern, -slack))[0]
                if slack[i] > -np.inf:
                    key = (size, int(kern[i]), int(keys[i]))
                    win = min(win, (-float(slack[i]), key, float(ed[i])))
    return (-win[0], *win[1:]), _uncoded_ed(source, channel, d)


def _spec_from_key(source, channel, d, key, grid_res) -> HybridCodeSpec:
    """The spec of a scan key, with its minimal-distortion decoder and rate 0."""
    u, kern_idx, enc_idx = key
    s_size = source.alphabet_size
    row_grid = simplex_grid_array(u, grid_res)
    rows = _digits(np.array([kern_idx]), row_grid.shape[0], s_size)[0]
    kernel = ConditionalPmf(np.clip(row_grid[rows], 0, 1))
    enc = _digits(np.array([enc_idx]), channel.input_size, u * s_size).reshape(u, s_size)
    spec = HybridCodeSpec(u, kernel, enc, np.zeros((u, channel.output_size), dtype=int), 0.0)
    p_suy = _p2p_joint(source, channel, d, spec).marginal([0, 1, 3]).probs
    # Minimal-expected-distortion reconstruction per (u, y).
    return replace(spec, dec_map=np.einsum("suy,sr->uyr", p_suy, d.table).argmin(axis=-1))


def p2p_optimize(
    source: Pmf,
    channel: ConditionalPmf,
    d: DistortionMeasure,
    target_D: float,
    aux_cap: int = 4,
    grid_res: int = 12,
) -> tuple[BoundReport, HybridCodeSpec | None]:
    """Exhaustive search for the code spec maximizing I(U;Y) - I(S;U) with
    expected distortion at most target_D.

    Kernels range over per-symbol simplex grids of resolution 1/grid_res with
    aux alphabet up to aux_cap; enc maps are enumerated exhaustively and the
    reconstruction map is the per-(u, y) distortion minimizer.  Infeasibility
    at this resolution is reported, not raised.  The winner is the one the
    reference formula picks among all candidates (_p2p_winner); the report
    is check_p2p's of the returned spec, with two entries added to its info:
    the least uncoded E[d] ("uncoded_distortion") and "achievable", which is
    that E[d] <= target_D + TARGET_D_TOL or the report's own "satisfied".
    The spec's rate is the midpoint 0.5 (I(S;U) + I(U;Y)) of its constraint.
    """
    (_, key, _), uncoded_ed = _p2p_winner(source, channel, d, target_D, aux_cap, grid_res)
    spec = None
    report = BoundReport(constraints=(), satisfied=False, binding_constraint="feasibility",
                         info={"reason": "no candidate met the distortion target"})
    if key is not None:
        spec = _spec_from_key(source, channel, d, key, grid_res)
        report = check_p2p(source, channel, d, spec)
        c = report.constraints[0]
        spec = replace(spec, rate=0.5 * (c.lhs + c.rhs))
    achievable = bool(uncoded_ed <= target_D + TARGET_D_TOL or report.satisfied)
    return replace(report, info={**report.info, "achievable": achievable,
                                 "uncoded_distortion": uncoded_ed}), spec


def p2p_feasibility_sweep(
    source: Pmf,
    channel: ConditionalPmf,
    d: DistortionMeasure,
    targets: list[float],
    aux_cap: int = 4,
    grid_res: int = 12,
) -> list[bool]:
    """Achievability of each target distortion D, from one factorized scan.

    D is achievable when the uncoded E[d] is at most D + TARGET_D_TOL or the
    best factorized slack among candidates that surely meet D (E[d] below
    D + TARGET_D_TOL by more than the SCAN_ED_TOL band) exceeds MARGIN.  The
    fold of _scan_p2p buckets each slack at the least sorted target it
    surely meets; a prefix max gives each target's best, and nothing is
    rescored.  That is p2p_optimize's answer for D alone unless some E[d]
    lies within the SCAN_ED_TOL band of D + TARGET_D_TOL or the best slack
    within SCAN_SLACK_TOL of MARGIN, where the two arithmetics may disagree.
    """
    targets = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(targets)):
        raise ScenarioError(f"target distortions must be finite, got {targets.tolist()}")
    limit = np.sort(targets) + TARGET_D_TOL
    ed_tol = SCAN_ED_TOL * max(1.0, float(d.table.max()))
    best = np.full(limit.size + 1, -np.inf)        # the last bucket meets no target
    for _, slack, ed in _scan_p2p(source, channel, d, aux_cap, grid_res):
        np.maximum.at(best, np.searchsorted(limit - ed_tol, ed.ravel()), slack.ravel())
    best = np.maximum.accumulate(best[:-1])[np.searchsorted(limit, targets + TARGET_D_TOL)]
    uncoded_ed = _uncoded_ed(source, channel, d)
    return [bool(uncoded_ed <= target + TARGET_D_TOL or slack > MARGIN)
            for target, slack in zip(targets, best)]


# ---------------------------------------------------------------------------
# Discrete two-way relay region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwrcSpec:
    px1: Pmf
    px2: Pmf
    relay_kernel: ConditionalPmf   # p(u3 | y3)
    relay_map: np.ndarray          # x3[u3, y3]

    def __post_init__(self):
        object.__setattr__(self, "relay_map", as_table(self.relay_map, "relay_map", whole=True))


def twrc_region_check(
    uplink: ConditionalPmf,       # p(y3 | x1, x2), rows (x1, x2) C order
    downlink: ConditionalPmf,     # p(y1, y2 | x3), outputs (y1, y2) C order
    y1_size: int,
    y2_size: int,
    spec: TwrcSpec,
) -> BoundReport:
    """Rate corner of the discrete two-way-relay achievability region.

    R1 is min(I(X1;Y2,U3|X2), I(X1,U3;X2,Y2) - I(Y3;U3|X1)), and R2 its
    1<->2 mirror: min(I(X2;Y1,U3|X1), I(X2,U3;X1,Y1) - I(Y3;U3|X2)).  The
    printed R2 penalty conditions on X1; the mirror conditions on X2, as the
    mirrored R2 of the Gaussian region does, so swapping the two users
    swaps R1 and R2.  The constraint named "R2: ... - penalty" is the
    mirror's second expression.
    """
    if uplink.input_size != spec.px1.alphabet_size * spec.px2.alphabet_size:
        raise ScenarioError("uplink rows must be indexed by (x1, x2)")
    if y1_size * y2_size != downlink.output_size:
        raise ScenarioError("downlink output does not factor as (y1, y2)")
    y3_size = uplink.output_size
    if spec.relay_kernel.input_size != y3_size:
        raise ScenarioError(f"relay_kernel needs {y3_size} rows, one per relay output y3")
    x3_size = downlink.input_size
    _check_map(spec.relay_map, "relay_map", (spec.relay_kernel.output_size, y3_size), x3_size)
    base = JointPmf.product(spec.px1, spec.px2)
    relay_enc = ConditionalPmf.deterministic(spec.relay_map, x3_size)
    j = compose_joint(base, [
        (uplink, [0, 1]),            # y3 -> axis 2
        (spec.relay_kernel, [2]),    # u3 -> axis 3
        (relay_enc, [3, 2]),         # x3 -> axis 4
        (downlink, [4]),             # (y1, y2) -> axis 5
    ]).split_axis(5, (y1_size, y2_size))
    X1, X2, Y3, U3, Y1, Y2 = 0, 1, 2, 3, 5, 6
    a1 = conditional_mutual_information(j, [X1], [Y2, U3], [X2])
    b1 = mutual_information(j, [X1, U3], [X2, Y2]) \
        - conditional_mutual_information(j, [Y3], [U3], [X1])
    a2 = conditional_mutual_information(j, [X2], [Y1, U3], [X1])
    b2 = mutual_information(j, [X2, U3], [X1, Y1]) \
        - conditional_mutual_information(j, [Y3], [U3], [X2])
    r1 = min(a1, b1)
    r2 = min(a2, b2)
    clamped = r1 < 0 or r2 < 0
    constraints = (
        Constraint("R1: I(X1;Y2,U3|X2)", None, a1),
        Constraint("R1: I(X1,U3;X2,Y2) - I(Y3;U3|X1)", None, b1),
        Constraint("R2: I(X2;Y1,U3|X1)", None, a2),
        Constraint("R2: I(X2,U3;X1,Y1) - penalty", None, b2),
    )
    return BoundReport(
        constraints=constraints,
        satisfied=True,
        binding_constraint=constraints[0 if a1 <= b1 else 1].name,
        value=None,
        info={
            "R1": max(r1, 0.0),
            "R2": max(r2, 0.0),
            "clamped": bool(clamped),
            "binding_R2": constraints[2 if a2 <= b2 else 3].name,
        },
    )


# ---------------------------------------------------------------------------
# Deterministic diamond bounds (hybrid / independent-relay / cutset)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetDiamondBounds:
    hybrid: float
    adt: float
    cutset: float
    hybrid_binding: str
    argmax: dict


_DIAMOND_TERM_NAMES = (
    "H(Y2,Y3)",
    "H(Y2)+H(Y4|X2,Y2)",
    "H(Y3)+H(Y4|X3,Y3)",
    "H(Y4)",
)


def _stage_joint(px1, y2_map, y3_map, shape) -> np.ndarray:
    """p(y2, y3) of the deterministic first stage."""
    p23 = np.zeros(shape)
    np.add.at(p23, (y2_map, y3_map), px1)
    return p23


def _det_diamond_terms(px1, y2_map, y3_map, y4_onehot, cond_batch):
    """The four rate terms, in _DIAMOND_TERM_NAMES order, for a batch of
    conditionals c[n, y2, y3, x2, x3]: shape (4, n).  The rate expression
    is their minimum."""
    p23 = _stage_joint(px1, y2_map, y3_map, cond_batch.shape[1:3])
    T = p23[None, :, :, None, None] * cond_batch     # (n, y2, y3, x2, x3)
    h23 = float(_entropy_rows(p23, (0, 1)))
    h2 = float(_entropy_rows(p23.sum(axis=1), 0))
    h3 = float(_entropy_rows(p23.sum(axis=0), 0))
    p_y2x2y4 = np.einsum("nabcd,cde->nace", T, y4_onehot)
    p_y2x2 = T.sum(axis=(2, 4))
    t2 = h2 + _entropy_rows(p_y2x2y4, (1, 2, 3)) - _entropy_rows(p_y2x2, (1, 2))
    p_y3x3y4 = np.einsum("nabcd,cde->nbde", T, y4_onehot)
    p_y3x3 = T.sum(axis=(1, 3))
    t3 = h3 + _entropy_rows(p_y3x3y4, (1, 2, 3)) - _entropy_rows(p_y3x3, (1, 2))
    p_y4 = np.einsum("nabcd,cde->ne", T, y4_onehot)
    t4 = _entropy_rows(p_y4, 1)
    return np.stack([np.full_like(t2, h23), t2, t3, t4])


DIAMOND_TIE_TOL = 1e-12


def _product_family(a: np.ndarray, b: np.ndarray, y4_onehot: np.ndarray) -> tuple:
    """Relay kernels a (Na, y2, x2) and b (Nb, y3, x3), each pushed through
    the y4 map: ay[i, y2, x3, y4] = sum_x2 a_i[y2, x2] 1[y4(x2, x3) = y4],
    and by[j, y3, x2, y4] likewise."""
    return (a, b, np.einsum("iac,cde->iade", a, y4_onehot),
            np.einsum("jbd,cde->jbce", b, y4_onehot))


def _product_candidate(family: tuple, k: int) -> np.ndarray:
    """Conditional c[y2, y3, x2, x3] = a_i[y2, x2] b_j[y3, x3] of flat index k."""
    a, b = family[:2]
    i, j = divmod(k, b.shape[0])
    return a[i][:, None, :, None] * b[j][None, :, None, :]


def _product_family_values(p23: np.ndarray, family: tuple) -> np.ndarray:
    """min of the four _det_diamond_terms for every candidate
    c[y2, y3, x2, x3] = a_i[y2, x2] b_j[y3, x3], flat in (i, j) C order.

    With q_j[y2, x2, y4] = sum_y3 p23[y2, y3] by_j[y3, x2, y4], the joint
    p(y2, x2, y4) is a_i q_j, so H(Y2) + H(Y4|X2,Y2) is h2 + sum a_i w_j with
    w_j = p2 log p2 - sum_y4 q_j log q_j: one GEMM for all pairs.  The
    other relay is the same with roles swapped, and p(y4) = sum a_i q_j is
    one GEMM per output symbol.  Agrees with _det_diamond_terms to a few
    ulps.
    """
    a, b, ay, by = family
    na, nb = a.shape[0], b.shape[0]
    p2, p3 = p23.sum(axis=1), p23.sum(axis=0)
    q = np.einsum("ab,jbce->jace", p23, by)          # (Nb, y2, x2, y4)
    r = np.einsum("ab,iade->ibde", p23, ay)          # (Na, y3, x3, y4)
    w = _xlog2x(p2)[None, :, None] - _xlog2x(q).sum(axis=3)
    v = _xlog2x(p3)[None, :, None] - _xlog2x(r).sum(axis=3)
    a_flat = a.reshape(na, -1)
    t2 = a_flat @ w.reshape(nb, -1).T - _xlog2x(p2).sum()
    t3 = v.reshape(na, -1) @ b.reshape(nb, -1).T - _xlog2x(p3).sum()
    t4 = np.zeros((na, nb))
    for e in range(q.shape[3]):
        t4 -= _xlog2x(a_flat @ q[..., e].reshape(nb, -1).T)
    h23 = -_xlog2x(p23).sum()
    return np.minimum(np.minimum(t2, t3), np.minimum(t4, h23)).ravel()


def _cutset_family(joints: np.ndarray, y4_onehot: np.ndarray) -> tuple:
    """Joint pmfs g (J, x2, x3) of (X2, X3) and their (J,) entropies
    H(Y4|X2), H(Y4|X3) and H(Y4), which no source pmf changes.  Each g is
    pushed through the y4 map by the einsums of _product_family."""
    p_x2y4 = np.einsum("jcd,cde->jce", joints, y4_onehot)
    p_x3y4 = np.einsum("jcd,cde->jde", joints, y4_onehot)
    return (joints,
            _entropy_rows(p_x2y4, (1, 2)) - _entropy_rows(joints.sum(axis=2), 1),
            _entropy_rows(p_x3y4, (1, 2)) - _entropy_rows(joints.sum(axis=1), 1),
            _entropy_rows(p_x2y4.sum(axis=1), 1))


def _cutset_values(p23: np.ndarray, family: tuple) -> np.ndarray:
    """min of the four _det_diamond_terms for every joint pmf of the
    family.  A joint p(x2, x3) ignores (Y2, Y3), so the terms are H(Y2,Y3),
    H(Y2) + H(Y4|X2), H(Y3) + H(Y4|X3) and H(Y4).  Agrees with
    _det_diamond_terms to a few ulps."""
    _, c2, c3, h4 = family
    h2, h3 = _entropy_rows(p23.sum(axis=1), 0), _entropy_rows(p23.sum(axis=0), 0)
    return np.minimum(np.minimum(h2 + c2, h3 + c3), np.minimum(h4, _entropy_rows(p23, (0, 1))))


def det_diamond_bounds(
    y2_map,
    y3_map,
    y4_map,
    x2_size: int,
    x3_size: int,
    grid_res: int = 6,
) -> DetDiamondBounds:
    """Grid maximization of the deterministic-diamond rate expression over the
    three input-distribution families (relay-dependent, independent, joint).

    Both network stages must be deterministic maps: y2_map/y3_map over the
    source alphabet, y4_map over (x2, x3).  The source pmf and the relay
    conditionals range over simplex grids of resolution 1/grid_res (the
    relay grids include all deterministic maps as corners).

    Each family has one filter: _product_family_values for the hybrid
    family a(x2|y2) b(x3|y3) and the independent family (row-constant a and
    b), _cutset_values for the joint (cutset) family.  Its winner is the
    first (px1 index, candidate index) whose filter value is at least the
    family's largest minus DIAMOND_TIE_TOL (first_near_max, one row per
    px1).  _det_diamond_terms of that one candidate gives the reported value
    (0.0, never -0.0, for a zero rate) and binding term.  The filters agree
    with _det_diamond_terms to a few ulps, so the winner does not depend on
    their summation order as long as no value lies closer to the band's edge
    than that.

    Raises MemoryCapError before allocating when one px1 row of the hybrid
    family, Na * Nb values with Na = G2^|Y2| and Nb = G3^|Y3| candidate
    kernels, its factor tables, or the grid of joint pmfs of (X2, X3) or
    their pmfs of (X2, Y4) and (X3, Y4) exceed MEMORY_CAP_SYMBOLS entries.
    """
    y2_map, y3_map, y4_map = (as_table(m, name, whole=True) for m, name in (
        (y2_map, "y2_map"), (y3_map, "y3_map"), (y4_map, "y4_map")))
    if y2_map.ndim != 1 or y2_map.size == 0 or y3_map.shape != y2_map.shape:
        raise ScenarioError("y2_map and y3_map must be nonempty lists of equal length, "
                            "one symbol per source input")
    if min(x2_size, x3_size, grid_res) < 1:
        raise ScenarioError("x2_size, x3_size and grid_res must be >= 1")
    if y4_map.shape != (x2_size, x3_size):
        raise ScenarioError(f"y4_map must have shape {(x2_size, x3_size)}, got {y4_map.shape}")
    y2_size, y3_size, y4_size = (int(m.max()) + 1 for m in (y2_map, y3_map, y4_map))
    na = math.comb(grid_res + x2_size - 1, x2_size - 1) ** y2_size
    nb = math.comb(grid_res + x3_size - 1, x3_size - 1) ** y3_size
    factors = (na + nb) * max(y2_size, y3_size) * x2_size * x3_size * y4_size
    joints = math.comb(grid_res + x2_size * x3_size - 1, x2_size * x3_size - 1)
    cutset = joints * max(x2_size * x3_size, (x2_size + x3_size) * y4_size)
    if max(na * nb, factors, cutset) > MEMORY_CAP_SYMBOLS:
        raise MemoryCapError(
            f"the diamond's hybrid family has {na} x {nb} candidates and its cutset "
            f"family {joints} joint pmfs of (X2, X3) per source pmf, {cutset} entries "
            f"with their pmfs of (X2, Y4) and (X3, Y4); the cap is {MEMORY_CAP_SYMBOLS}")
    y4_onehot = np.zeros((x2_size, x3_size, y4_size))
    y4_onehot[np.arange(x2_size)[:, None], np.arange(x3_size)[None, :], y4_map] = 1.0

    a_const = simplex_grid_array(x2_size, grid_res)
    b_const = simplex_grid_array(x3_size, grid_res)
    joint_grid = simplex_grid_array(x2_size * x3_size, grid_res).reshape(-1, x2_size, x3_size)
    families = {
        "hybrid": (_product_family_values, _product_candidate, _product_family(
            a_const[_digits(np.arange(na), a_const.shape[0], y2_size)],
            b_const[_digits(np.arange(nb), b_const.shape[0], y3_size)], y4_onehot)),
        "adt": (_product_family_values, _product_candidate, _product_family(
            np.repeat(a_const[:, None], y2_size, axis=1),
            np.repeat(b_const[:, None], y3_size, axis=1), y4_onehot)),
        "cutset": (_cutset_values, lambda family, k: family[0][k],
                   _cutset_family(joint_grid, y4_onehot)),
    }
    px1_grid = simplex_grid_array(y2_map.size, grid_res)
    p23_grid = [_stage_joint(px1, y2_map, y3_map, (y2_size, y3_size)) for px1 in px1_grid]
    shape = (1, y2_size, y3_size, x2_size, x3_size)
    best = {}
    for fam, (values, candidate, family) in families.items():
        pi, k, _ = first_near_max(lambda i: values(p23_grid[i], family), len(p23_grid),
                                  DIAMOND_TIE_TOL)
        cond = np.broadcast_to(candidate(family, k), shape)
        terms = _det_diamond_terms(px1_grid[pi], y2_map, y3_map, y4_onehot, cond)[:, 0]
        best[fam] = (float(terms.min()) + 0.0, int(terms.argmin()), (pi, k))
    names = _DIAMOND_TERM_NAMES
    return DetDiamondBounds(
        hybrid=best["hybrid"][0], adt=best["adt"][0], cutset=best["cutset"][0],
        hybrid_binding=names[best["hybrid"][1]],
        argmax={fam: {"px1": px1_grid[key[0]].tolist(), "candidate_index": key[1],
                      "binding": names[bind]} for fam, (_, bind, key) in best.items()})


# ---------------------------------------------------------------------------
# MAC substitution builders: lossless and distributed-compression forms
# ---------------------------------------------------------------------------

def _substitution_maps(px: Pmf, k: ConditionalPmf) -> tuple[np.ndarray, np.ndarray]:
    """Aux kernel and encoder map of U = (X, Ut), with X ~ px independent of
    the source and Ut from the test channel k(ut | s).  The aux symbol is
    u = x * |Ut| + ut; the encoder sends x = u // |Ut|.  Shapes (1, S, U)
    and (1, U, S)."""
    aux = np.kron(px.probs[None, :], k.rows)
    enc = np.repeat(np.arange(px.alphabet_size), k.output_size)
    return aux[None], np.tile(enc[None, :, None], (1, 1, k.input_size))


def lossless_mac_spec(sources: JointPmf, px1: Pmf, px2: Pmf, y_size: int) -> MacHybridSpec:
    """Auxiliary choice U_j = (X_j, S_j) with inputs independent of sources.

    Under this substitution the three region inequalities reduce to the
    lossless source-transmission conditions (conditional source entropies
    against channel informations); reconstructions read the source component
    of the auxiliary symbol directly.
    """
    if sources.num_axes != 2:
        raise ScenarioError(f"sources must be a joint pmf of (s1, s2), got {sources.dims}")
    s1_size, s2_size = sources.dims
    aux1, enc1 = _substitution_maps(px1, ConditionalPmf.identity(s1_size))
    aux2, enc2 = _substitution_maps(px2, ConditionalPmf.identity(s2_size))
    u1_size, u2_size = aux1.shape[2], aux2.shape[2]
    dec1 = np.zeros((1, u1_size, u2_size, y_size), dtype=int)
    dec1[0] = (np.arange(u1_size) % s1_size)[:, None, None]
    dec2 = np.zeros((1, u1_size, u2_size, y_size), dtype=int)
    dec2[0] = (np.arange(u2_size) % s2_size)[None, :, None]
    return MacHybridSpec(q_pmf=Pmf([1.0]), aux1=aux1, aux2=aux2, enc1=enc1, enc2=enc2,
                         dec1=dec1, dec2=dec2)


def lossless_reduced_values(sources: JointPmf, mac: ConditionalPmf,
                            px1: Pmf, px2: Pmf) -> tuple[tuple[float, float], ...]:
    """Reduced-form constraint pairs for the U_j = (X_j, S_j) substitution.

    Returns ((H(S1|S2), I(X1;Y|X2,S2)), (H(S2|S1), I(X2;Y|X1,S1)),
    (H(S1,S2), I(X1,X2;Y))), computed on an independently composed joint.
    """
    if px1.alphabet_size * px2.alphabet_size != mac.input_size:
        raise ScenarioError(f"px1 and px2 must span the MAC's {mac.input_size} input pairs")
    j = JointPmf.product(sources, px1, px2)              # (s1, s2, x1, x2)
    j = compose_joint(j, [(mac, [2, 3])])                # y -> axis 4
    h_s12 = entropy(j.marginal([0, 1]))
    h_s1_given_s2 = h_s12 - entropy(j.marginal([1]))
    h_s2_given_s1 = h_s12 - entropy(j.marginal([0]))
    return (
        (h_s1_given_s2, conditional_mutual_information(j, [2], [4], [3, 1])),
        (h_s2_given_s1, conditional_mutual_information(j, [3], [4], [2, 0])),
        (h_s12, mutual_information(j, [2, 3], [4])),
    )


def distributed_mac_spec(k1: ConditionalPmf, k2: ConditionalPmf,
                         px1: Pmf, px2: Pmf) -> MacHybridSpec:
    """Auxiliary choice U_j = (X_j, Utilde_j) over the noiseless pair channel.

    k_j are the test channels p(utilde_j | s_j); channel inputs are drawn
    independently of the sources, so the region inequalities reduce to the
    distributed-compression (covering) conditions with rates H(X_j).
    Reconstruction maps are placeholders (index 0): only constraint values
    are meaningful for this form.
    """
    aux1, enc1 = _substitution_maps(px1, k1)
    aux2, enc2 = _substitution_maps(px2, k2)
    y_size = px1.alphabet_size * px2.alphabet_size
    dec = np.zeros((1, aux1.shape[2], aux2.shape[2], y_size), dtype=int)
    return MacHybridSpec(
        q_pmf=Pmf([1.0]), aux1=aux1, aux2=aux2, enc1=enc1, enc2=enc2, dec1=dec, dec2=dec,
        R1=float(entropy(px1)), R2=float(entropy(px2)),
    )


def distributed_reduced_values(sources: JointPmf, k1: ConditionalPmf,
                               k2: ConditionalPmf, px1: Pmf,
                               px2: Pmf) -> tuple[tuple[float, float], ...]:
    """Reduced-form pairs for the distributed-compression substitution.

    Returns ((I(Ut1;S1|Ut2), H(X1)), (I(Ut2;S2|Ut1), H(X2)),
    (I(Ut1,Ut2;S1,S2), H(X1)+H(X2))).
    """
    j = compose_joint(sources, [(k1, [0]), (k2, [1])])   # (s1, s2, ut1, ut2)
    h1, h2 = entropy(px1), entropy(px2)
    return (
        (conditional_mutual_information(j, [2], [0], [3]), h1),
        (conditional_mutual_information(j, [3], [1], [2]), h2),
        (mutual_information(j, [2, 3], [0, 1]), h1 + h2),
    )
