"""Finite-alphabet probability primitives.

Probability vectors, row-stochastic kernels, dense joints, entropies and
mutual informations (base-2 throughout), plus relative-slack typicality
(Orlitsky-Roche; El Gamal & Kim, ch. 2).  The library has one typicality
test, a batched kernel: typical_table tabulates the test of each cell at
every count, and typical_pairs reads it for every pair of sequences, with
the cell counts from one matmul.  All containers are immutable after
construction and all operations are pure, so everything here is safe to
share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence as SeqT

import numpy as np

# Constructors renormalize inputs whose sum deviates by <= RENORM_TOL and
# reject beyond that.
RENORM_TOL = 1e-9
# Negative mutual-information round-off is clamped up to this magnitude and
# treated as a logic error beyond it.
NEG_MI_TOL = 1e-9
# Largest table, in array entries, that the simulators and the diamond
# evaluator may allocate.
MEMORY_CAP_SYMBOLS = 2 ** 22


class ScenarioError(ValueError):
    """Raised for input that does not fit: a malformed scenario, spec, option
    or distribution.  The library function that uses an input checks it and
    raises this; the CLI raises it only for what it alone reads (files, JSON
    structure, flag combinations) and exits 2 on it.  Internal invariants
    raise a plain ValueError."""


class MemoryCapError(RuntimeError):
    """Raised when a configuration would exceed the memory cap."""


def as_table(values, name: str, whole: bool = False) -> np.ndarray:
    """values as a float array, or as an int array of nonnegative whole
    numbers (symbol tables); non-numeric or ragged input is a ScenarioError."""
    try:
        t = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name} must be a numeric array: {exc}") from exc
    # In range first: np.mod warns on inf, and the cast wraps at 2**63.
    if whole and not (np.all((t >= 0) & (t < 2.0 ** 63)) and np.all(np.mod(t, 1) == 0)):
        raise ScenarioError(f"{name} symbols must be nonnegative integers below 2**63")
    return t.astype(int) if whole else t


def _normalized(values, name: str, ndim: int | None, axis: int | None) -> np.ndarray:
    """The one check of every pmf, kernel and joint: values, with ndim axes
    (any when None), nonempty, nonnegative and summing to 1 over axis (over
    all entries when None) within RENORM_TOL, renormalized and frozen."""
    a = as_table(values, name)
    if a.ndim == 0:
        raise ScenarioError(f"{name} must be an array, not a single number")
    if a.size == 0 or ndim not in (None, a.ndim):
        raise ScenarioError(f"{name} must be nonempty" + (f" with {ndim} axes" if ndim else ""))
    if (a < 0).any():
        raise ScenarioError(f"{name} entries must be nonnegative")
    sums = a.sum(axis=axis, keepdims=True)
    if not abs(sums - 1.0).max() <= RENORM_TOL:     # also rejects NaN
        off = sums[~(abs(sums - 1.0) <= RENORM_TOL)]
        raise ScenarioError(f"{name} sums to {off[0]}, not 1")
    a = a / sums
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over the index alphabet 0..k-1."""

    probs: np.ndarray

    def __init__(self, probs: Iterable[float]):
        object.__setattr__(self, "probs", _normalized(probs, "probability vector", 1, None))

    @property
    def alphabet_size(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ConditionalPmf:
    """Row-stochastic kernel: rows[i] is the output pmf given input symbol i.

    For kernels conditioned on several variables the row index is the
    C-order flattening of the conditioning tuple.
    """

    rows: np.ndarray

    def __init__(self, rows):
        object.__setattr__(self, "rows", _normalized(rows, "kernel", 2, 1))

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    @staticmethod
    def identity(k: int) -> "ConditionalPmf":
        return ConditionalPmf(np.eye(k))

    @staticmethod
    def deterministic(table, output_size: int) -> "ConditionalPmf":
        """0/1 kernel realizing a deterministic map input -> output.

        `table` may be any integer array; it is flattened in C order to match
        the row-index convention for multi-variable conditioning.
        """
        t = np.asarray(table, dtype=int).ravel()
        if np.any(t < 0) or np.any(t >= output_size):
            raise ScenarioError("map values outside output alphabet")
        m = np.zeros((t.size, output_size))
        m[np.arange(t.size), t] = 1.0
        return ConditionalPmf(m)


@dataclass(frozen=True)
class JointPmf:
    """Dense joint pmf over a tuple of finite alphabets."""

    probs: np.ndarray

    def __init__(self, probs):
        object.__setattr__(self, "probs", _normalized(probs, "joint pmf", None, None))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.probs.shape

    @property
    def num_axes(self) -> int:
        return self.probs.ndim

    @staticmethod
    def product(*parts: "Pmf | JointPmf") -> "JointPmf":
        """Independent product, concatenating axes in argument order."""
        arrs = [p.probs for p in parts]
        out = arrs[0]
        for a in arrs[1:]:
            out = np.multiply.outer(out, a)
        return JointPmf(out)

    def marginal(self, axes: SeqT[int]) -> "JointPmf":
        """Marginal over `axes`, keeping them in the listed order."""
        axes = list(axes)
        keep = set(axes)
        summed = tuple(i for i in range(self.num_axes) if i not in keep)
        m = self.probs.sum(axis=summed)
        # sum() keeps remaining axes in ascending order; permute to request.
        remaining = [i for i in range(self.num_axes) if i not in set(summed)]
        perm = [remaining.index(a) for a in axes]
        return JointPmf(np.transpose(m, perm))

    def marginal_pmf(self, axis: int) -> Pmf:
        return Pmf(self.marginal([axis]).probs)

    def split_axis(self, axis: int, sizes: SeqT[int]) -> "JointPmf":
        """Reinterpret one axis as a C-order flattened tuple of sub-axes."""
        shape = list(self.dims)
        if int(np.prod(sizes)) != shape[axis]:
            raise ValueError("sizes do not factor the axis")
        new_shape = shape[:axis] + list(sizes) + shape[axis + 1:]
        return JointPmf(self.probs.reshape(new_shape))


@dataclass(frozen=True)
class DistortionMeasure:
    """Per-symbol distortion table d[source_symbol, reconstruction_symbol]."""

    table: np.ndarray

    def __init__(self, table):
        t = as_table(table, "distortion table")
        if t.ndim != 2 or t.size == 0 or not np.all((t >= 0) & (t < math.inf)):
            raise ScenarioError(
                "distortion table must be 2-D and nonempty with finite nonnegative entries")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)


def entropy(p: "Pmf | JointPmf | np.ndarray") -> float:
    """Shannon entropy in bits, with 0 log 0 := 0."""
    a = p.probs if isinstance(p, (Pmf, JointPmf)) else np.asarray(p, dtype=float)
    a = a[a > 0]
    return -float(np.sum(a * np.log2(a)))


def mutual_information(joint: JointPmf, axes_a: SeqT[int], axes_b: SeqT[int]) -> float:
    """I(A;B) in bits from a joint pmf: I(A;B|C) with C empty."""
    return conditional_mutual_information(joint, axes_a, axes_b, ())


def conditional_mutual_information(
    joint: JointPmf, axes_a: SeqT[int], axes_b: SeqT[int], axes_c: SeqT[int]
) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), in bits, with H(C) = 0
    for an empty C; tiny negatives are clamped to 0."""
    sa, sb, sc = set(axes_a), set(axes_b), set(axes_c)
    if sa & sb or sa & sc or sb & sc:
        raise ValueError("axis sets overlap")
    h_ac = entropy(joint.marginal(sorted(sa | sc)))
    h_bc = entropy(joint.marginal(sorted(sb | sc)))
    h_abc = entropy(joint.marginal(sorted(sa | sb | sc)))
    h_c = entropy(joint.marginal(sorted(sc))) if sc else 0.0
    value = h_ac + h_bc - h_abc - h_c
    if value < -NEG_MI_TOL:
        raise ValueError(f"mutual information {value} below round-off tolerance")
    return max(value, 0.0)


def compose_joint(
    source: "Pmf | JointPmf",
    kernels: SeqT[tuple[ConditionalPmf, SeqT[int]]],
) -> JointPmf:
    """Extend a source joint by a chain of conditional kernels.

    Each (kernel, cond_axes) pair appends one new axis whose distribution is
    given by the kernel rows, indexed by the C-order flattening of the listed
    conditioning axes (which may include previously appended axes).
    Deterministic maps are passed as 0/1 kernels.
    """
    probs = source.probs if isinstance(source, JointPmf) else np.asarray(source.probs)
    for kernel, cond_axes in kernels:
        cond_axes = list(cond_axes)
        ndim = probs.ndim
        if any(a < 0 or a >= ndim for a in cond_axes):
            raise ValueError("conditioning axis out of range")
        cond_sizes = [probs.shape[a] for a in cond_axes]
        if int(np.prod(cond_sizes)) != kernel.input_size:
            raise ValueError("kernel rows do not match conditioning alphabet")
        k = kernel.rows.reshape(cond_sizes + [kernel.output_size])
        # Reorder kernel axes to ascending conditioning-axis position, then
        # insert singleton dims so it broadcasts against the joint.
        src_order = sorted(range(len(cond_axes)), key=lambda i: cond_axes[i])
        k = np.transpose(k, src_order + [len(cond_axes)])
        idx_shape = [probs.shape[a] if a in cond_axes else 1 for a in range(ndim)]
        idx_shape.append(kernel.output_size)
        probs = probs[..., None] * k.reshape(idx_shape)
    return JointPmf(probs)


def typical_table(p: np.ndarray, n: int, epsilon: float) -> np.ndarray:
    """ok[..., k] = |k/n - p| <= epsilon * p for every cell of p and every
    count k in 0..n: the relative-slack test of one cell, tabulated."""
    k = np.arange(n + 1, dtype=float)
    p = np.asarray(p)[..., None]
    return np.abs(k / n - p) <= epsilon * p


def typical_pairs(a: np.ndarray, b: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Joint typicality of every pair of sequences from a and b.

    a (..., ma, n) holds symbols in 0..A-1 and b (..., mb, n) symbols in
    0..B-1, with the same leading axes; ok is the (A, B, n + 1)
    typical_table of a two-axis pmf.  Pair (i, j) is typical when every cell
    (c, d) passes ok[c, d, k], k being the number of positions where
    a[i] = c and b[j] = d.  One matmul of float32 one-hot layouts,
    (..., A*ma, n) times (..., n, B*mb), gives every pair's cell counts;
    float32 sums of 0/1 products are exact integers below 2^24.  Returns
    the (..., ma, mb) mask.
    """
    a_size, b_size, _ = ok.shape
    n = a.shape[-1]
    if n >= 2 ** 24:
        raise ValueError(f"blocklength {n} is past the exact float32 counts")
    one_hot_a = _one_hot(a, a_size)
    one_hot_b = _one_hot(b, b_size)
    counts = (one_hot_a @ one_hot_b.swapaxes(-1, -2)).astype(np.min_scalar_type(n))
    counts = counts.reshape(*a.shape[:-2], a_size, a.shape[-2], b_size, b.shape[-2])
    typ = np.ones(counts.shape[:-4] + counts.shape[-3::2], dtype=bool)
    for c in range(a_size):
        for d in range(b_size):
            typ &= ok[c, d].take(counts[..., c, :, d, :])
    return typ


def _one_hot(symbols: np.ndarray, size: int) -> np.ndarray:
    """(..., size*m, n) float32 layout of (..., m, n) symbols: row c*m + i
    marks the positions where symbols[..., i, :] equals c."""
    *lead, m, n = symbols.shape
    hot = symbols[..., None, :, :] == np.arange(size)[:, None, None]
    return hot.astype(np.float32).reshape(*lead, size * m, n)
