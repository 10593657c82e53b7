"""Theorem-level references that the library's fast paths are tested against.

diamond_bound evaluates the diamond-network rate expression for any relay
kernels on a joint built by compose_joint, with one mutual information per
term.  The deterministic-diamond grid maximizer of `bounds` scores its
candidates with closed-form entropies instead; with U2 = (Y2, X2) and
U3 = (Y3, X3) the two must agree term by term.  reference_det_diamond is
that maximizer's winner rule applied to every candidate's closed-form terms
at once, with no factored filter.  enumerate_simplex is the plain recursive
listing of the simplex grid that `search.simplex_grid_array` builds at once.
is_typical is relative-slack typicality counted one sequence at a time,
the definition that the library's batched typical_table/typical_pairs
kernel is checked against.  exact_p_e1 is the covering-failure probability
P(E1) of the p2p random codebook, summed over types instead of sampled.
uniform_pmf, bsc_kernel and hamming_measure build the tests' common source,
channel and distortion.  dense_sigma_max is the relay sum rate's maximum over
a dense log grid of sigma2, the bound that the exact sigma2 optimum of
`gaussian_twrc.optimize_scheme` must reach.  hc_special_printed_terms is the
digital-hybrid relay corner as printed, which the library evaluates as
compress-forward at scaled quantizer noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence as SeqT

import numpy as np

from hybridlab import bounds
from hybridlab.bounds import BoundReport, Constraint
from hybridlab.gaussian_twrc import _grid_sums, gauss_c
from hybridlab.infotheory import (
    ConditionalPmf,
    DistortionMeasure,
    JointPmf,
    Pmf,
    ScenarioError,
    as_table,
    compose_joint,
    conditional_mutual_information,
    mutual_information,
    typical_table,
)
from hybridlab.search import simplex_grid_array


def uniform_pmf(k: int) -> Pmf:
    return Pmf(np.full(k, 1.0 / k))


def bsc_kernel(p: float) -> ConditionalPmf:
    """Binary symmetric channel with crossover probability p."""
    return ConditionalPmf([[1 - p, p], [p, 1 - p]])


def hamming_measure(k: int) -> DistortionMeasure:
    return DistortionMeasure(1.0 - np.eye(k))


def enumerate_simplex(k: int, m: int) -> Iterator[np.ndarray]:
    """Lexicographic stream of all pmfs on k symbols with coordinates j/m."""

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            yield prefix + [remaining]
            return
        for j in range(remaining + 1):
            yield from rec(prefix + [j], remaining - j, slots - 1)

    for counts in rec([], m, k):
        yield np.asarray(counts, dtype=float) / m


@dataclass(frozen=True)
class DiamondSpec:
    px1: Pmf
    k2: ConditionalPmf             # p(u2 | y2)
    k3: ConditionalPmf             # p(u3 | y3)
    map2: np.ndarray               # x2[u2, y2]
    map3: np.ndarray               # x3[u3, y3]

    def __post_init__(self):
        for name in ("map2", "map3"):
            object.__setattr__(self, name, as_table(getattr(self, name), name, whole=True))


DIAMOND_BOUND_NAMES = (
    "I(X1;U2,U3,Y4)",
    "I(X1,U2;U3,Y4) - I(U2;Y2|X1)",
    "I(X1,U3;U2,Y4) - I(U3;Y3|X1)",
    "I(X1,U2,U3;Y4) - I(U2,U3;Y2,Y3|X1)",
)


def diamond_bound(
    broadcast: ConditionalPmf,     # p(y2, y3 | x1), outputs (y2, y3) C order
    mac: ConditionalPmf,           # p(y4 | x2, x3), rows (x2, x3) C order
    y2_size: int,
    y3_size: int,
    x2_size: int,
    x3_size: int,
    spec: DiamondSpec,
) -> BoundReport:
    """Minimum of the four diamond-network rate expressions for a spec."""
    if y2_size * y3_size != broadcast.output_size:
        raise ScenarioError("broadcast output does not factor as (y2, y3)")
    if x2_size * x3_size != mac.input_size:
        raise ScenarioError("MAC rows must be indexed by (x2, x3)")
    j0 = compose_joint(JointPmf(spec.px1.probs), [(broadcast, [0])])
    j0 = j0.split_axis(1, (y2_size, y3_size))       # (x1, y2, y3)
    enc2 = ConditionalPmf.deterministic(spec.map2, x2_size)
    enc3 = ConditionalPmf.deterministic(spec.map3, x3_size)
    j = compose_joint(j0, [
        (spec.k2, [1]),        # u2 -> 3
        (spec.k3, [2]),        # u3 -> 4
        (enc2, [3, 1]),        # x2 -> 5
        (enc3, [4, 2]),        # x3 -> 6
        (mac, [5, 6]),         # y4 -> 7
    ])
    X1, Y2, Y3, U2, U3, Y4 = 0, 1, 2, 3, 4, 7
    vals = (
        mutual_information(j, [X1], [U2, U3, Y4]),
        mutual_information(j, [X1, U2], [U3, Y4])
        - conditional_mutual_information(j, [U2], [Y2], [X1]),
        mutual_information(j, [X1, U3], [U2, Y4])
        - conditional_mutual_information(j, [U3], [Y3], [X1]),
        mutual_information(j, [X1, U2, U3], [Y4])
        - conditional_mutual_information(j, [U2, U3], [Y2, Y3], [X1]),
    )
    k = int(np.argmin(vals))
    return BoundReport(
        constraints=tuple(Constraint(n, None, v) for n, v in zip(DIAMOND_BOUND_NAMES, vals)),
        satisfied=True,
        binding_constraint=DIAMOND_BOUND_NAMES[k],
        value=float(vals[k]),
    )


def relay_forwarding_spec(px1: Pmf, a: np.ndarray, b: np.ndarray) -> DiamondSpec:
    """Relays that forward what they see with the channel input they send:
    U2 = (Y2, X2) with X2 ~ a[y2] and U3 = (Y3, X3) with X3 ~ b[y3].  The
    aux symbol of (y, x) is y * |X| + x, and the relay sends x."""
    def relay(kernel):
        y_size, x_size = kernel.shape
        rows = np.zeros((y_size, y_size * x_size))
        for y in range(y_size):
            rows[y, y * x_size:(y + 1) * x_size] = kernel[y]
        send = np.tile(np.arange(y_size * x_size)[:, None] % x_size, (1, y_size))
        return ConditionalPmf(rows), send

    k2, map2 = relay(a)
    k3, map3 = relay(b)
    return DiamondSpec(px1=px1, k2=k2, k3=k3, map2=map2, map3=map3)


def reference_det_diamond(y2_map, y3_map, y4_map, x2_size, x3_size, grid_res=6):
    """The full-batch loop: every family's conditionals scored at once by
    _det_diamond_terms.  Each family's winner is the first (px1, candidate)
    whose minimum term is within DIAMOND_TIE_TOL of the family's largest."""
    y2_map, y3_map, y4_map = (np.asarray(m, dtype=int) for m in (y2_map, y3_map, y4_map))
    y2_size, y3_size, y4_size = (int(m.max()) + 1 for m in (y2_map, y3_map, y4_map))
    y4_onehot = np.zeros((x2_size, x3_size, y4_size))
    y4_onehot[np.arange(x2_size)[:, None], np.arange(x3_size)[None, :], y4_map] = 1.0
    shape = (y2_size, y3_size, x2_size, x3_size)
    a_const = simplex_grid_array(x2_size, grid_res)
    b_const = simplex_grid_array(x3_size, grid_res)
    a_batch = a_const[bounds._digits(np.arange(a_const.shape[0] ** y2_size),
                                     a_const.shape[0], y2_size)]
    b_batch = b_const[bounds._digits(np.arange(b_const.shape[0] ** y3_size),
                                     b_const.shape[0], y3_size)]
    hybrid = np.einsum("iac,jbd->ijabcd", a_batch, b_batch).reshape(-1, *shape)
    adt = np.einsum("ic,jd->ijcd", a_const, b_const).reshape(-1, x2_size, x3_size)
    joint = simplex_grid_array(x2_size * x3_size, grid_res).reshape(-1, x2_size, x3_size)
    families = {
        "hybrid": hybrid,
        "adt": np.broadcast_to(adt[:, None, None], (adt.shape[0], *shape)),
        "cutset": np.broadcast_to(joint[:, None, None], (joint.shape[0], *shape)),
    }
    px1_grid = simplex_grid_array(y2_map.size, grid_res)
    best = {}
    for fam, cond in families.items():
        terms = np.stack([bounds._det_diamond_terms(px1, y2_map, y3_map, y4_onehot, cond)
                          for px1 in px1_grid], axis=1)          # (4, px1, candidate)
        vals = terms.min(axis=0)
        pi, k = divmod(int(np.argmax(vals >= vals.max() - bounds.DIAMOND_TIE_TOL)),
                       vals.shape[1])
        best[fam] = (float(vals[pi, k]) + 0.0, int(terms[:, pi, k].argmin()), (pi, k))
    names = bounds._DIAMOND_TERM_NAMES
    return bounds.DetDiamondBounds(
        hybrid=best["hybrid"][0], adt=best["adt"][0], cutset=best["cutset"][0],
        hybrid_binding=names[best["hybrid"][1]],
        argmax={fam: {"px1": px1_grid[key[0]].tolist(), "candidate_index": key[1],
                      "binding": names[bind]}
                for fam, (_, bind, key) in best.items()})


def is_typical(
    seq: "np.ndarray | SeqT[int] | tuple",
    ref: "Pmf | JointPmf",
    epsilon: float,
) -> bool:
    """Relative-slack typicality: |count(x)/n - p(x)| <= eps * p(x) for all x.

    `seq` is a single index sequence when `ref` is a Pmf, or a tuple of
    equal-length sequences (one per axis) when `ref` is a JointPmf.  Symbols
    of reference probability zero force the corresponding count to be zero.
    This is the one-sequence definition, counted directly; the simulators
    use the batched typical_table/typical_pairs kernel.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if isinstance(ref, Pmf):
        seq = (seq,)
    seqs = [np.asarray(s, dtype=int) for s in seq]
    if len(seqs) != ref.probs.ndim:
        raise ValueError("tuple arity does not match joint axes")
    n = seqs[0].size
    if any(s.size != n for s in seqs):
        raise ValueError("sequence length mismatch")
    p = ref.probs.ravel()
    counts = np.bincount(np.ravel_multi_index(tuple(seqs), ref.probs.shape), minlength=p.size)
    return bool(np.all(np.abs(counts / n - p) <= epsilon * p))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def multinomial_prob(counts: tuple[int, ...], probs: np.ndarray) -> float:
    """Probability that n = sum(counts) i.i.d. draws from probs hit each
    symbol the given number of times."""
    coef = math.factorial(sum(counts))
    for c in counts:
        coef //= math.factorial(c)
    return coef * math.prod(float(p) ** c for p, c in zip(probs, counts))


def covering_mass(joint_us: JointPmf, s_type: tuple[int, ...], eps_prime: float) -> float:
    """q: the p_U^n-mass of the codewords u^n jointly typical (typical_table,
    slack eps_prime) with a source block s^n of the given type, n = sum.

    A joint (u, s) type is typical cell by cell, and the cells of one source
    symbol s hold the counts of u over the positions where s^n = s, which
    are multinomial given the type.  So q is the product over s of the mass
    of the typical count vectors of that symbol's positions.
    """
    u_size, _ = joint_us.dims
    p_u = joint_us.marginal_pmf(0).probs
    ok = typical_table(joint_us.probs, sum(s_type), eps_prime)      # (u, s, n + 1)
    return math.prod(
        sum(multinomial_prob(c, p_u) for c in compositions(count, u_size)
            if all(ok[u, s, c[u]] for u in range(u_size)))
        for s, count in enumerate(s_type))


def exact_p_e1(joint_us: JointPmf, n: int, eps_prime: float, m: int) -> float:
    """P(E1) = sum over source types of p(type) (1 - q)^m: no codeword of m
    i.i.d. p_U^n codewords is jointly typical with the i.i.d. p_S^n source
    block, q being covering_mass of the block's type."""
    _, s_size = joint_us.dims
    p_s = joint_us.marginal_pmf(1).probs
    return sum(multinomial_prob(t, p_s) * (1.0 - covering_mass(joint_us, t, eps_prime)) ** m
               for t in compositions(n, s_size))


def dense_sigma_max(terms) -> float:
    """Largest clamped sum rate of terms(sigma2) over 100 001 log-spaced
    sigma2 in [1e-10, 1e12], scored in one `_grid_sums` call."""
    return float(np.max(_grid_sums(*terms(np.logspace(-10.0, 12.0, 100_001)))))


def hc_special_printed_terms(ch, sigma2):
    """(R1 terms, R2 terms) of the digital-hybrid corner (alpha = 0,
    beta = 1) as the source material prints them; sigma2 may be an array."""
    pen = gauss_c(1.0 / sigma2)
    return ((gauss_c(ch.S31 * (1.0 + ch.S23) / (1.0 + sigma2 + ch.S23)),
             gauss_c(ch.S23 * sigma2 / (1.0 + sigma2 + ch.S23)) - pen),
            (gauss_c(ch.S32 * (1.0 + ch.S13) / (1.0 + sigma2 + ch.S13)),
             gauss_c(ch.S13 * sigma2 / (1.0 + sigma2 + ch.S13)) - pen))
