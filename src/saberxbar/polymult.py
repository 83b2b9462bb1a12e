"""Polynomial multiplication algorithms and their decomposition plans.

Every algorithm is one table for a single evaluate -> leaf -> interpolate
core: split both operands into equal limbs, evaluate the limbs at the
table's points, multiply the evaluations pointwise by schoolbook convolution
(the leaf products), interpolate the product's limbs exactly, overlap-add
them into the full 2n-1 convolution and reduce modulo (x^n + 1) once at the
end. Schoolbook is the one-point table, Karatsuba the {0, 1, inf} Toom-2
table, and K4 and TC4+K2 are tensor products of two tables.

The secret side of a product is stationary, as on the crossbar: `program`
evaluates a secret vector once, and `matvec` streams rows of public operands
against it, summing each row's products in the evaluation domain so that it
interpolates once per output polynomial (Bermudo Mera, Karmakar and
Verbauwhede, "Time-memory trade-off in Toom-Cook multiplication", TCHES
2020). `conv_raw` and `multiply` run the same core on one pair. Every
algorithm must agree with `schoolbook_mul` bit-exactly; the test suite
enforces this against an independent big-integer convolution oracle.
"""

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import RingParams, DEFAULT_PARAMS
from .ring import Poly, _check_pair, fold_negacyclic, _EXACT_FLOAT_LIMIT


class MultAlgorithm(enum.Enum):
    SB = "SB"
    K2 = "K2"
    K4 = "K4"
    TC4 = "TC4"
    TC4K2 = "TC4K2"


@dataclass(frozen=True)
class MultPlan:
    """Leaf decomposition of one degree-n multiplication."""

    algorithm: MultAlgorithm
    sub_mults: int
    sub_degree: int
    recomb_adds: int

    @property
    def leaf_work(self) -> int:
        return self.sub_mults * self.sub_degree ** 2


def plan_for(alg: MultAlgorithm, params: RingParams = DEFAULT_PARAMS) -> MultPlan:
    n = params.n
    if alg is MultAlgorithm.SB:
        return MultPlan(alg, 1, n, 0)
    if alg is MultAlgorithm.K2:
        return MultPlan(alg, 3, n // 2, 2 * n)
    if alg is MultAlgorithm.K4:
        return MultPlan(alg, 9, n // 4, 6 * n)
    if alg is MultAlgorithm.TC4:
        return MultPlan(alg, 7, n // 4, 8 * n)
    if alg is MultAlgorithm.TC4K2:
        return MultPlan(alg, 21, n // 8, 14 * n)
    raise ValueError(f"unknown algorithm {alg}")


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    """Full 2n-1 convolution followed by negacyclic reduction."""
    _check_pair(a, b)
    conv = np.convolve(a.coeffs, b.coeffs)
    return _reduce(conv, a)


def _reduce(conv: np.ndarray, like: Poly) -> Poly:
    return Poly(fold_negacyclic(conv, like.n), like.modulus)


# ---------------------------------------------------------------------------
# algorithm tables

_INT64_LIMIT = 1 << 63
_INF = "inf"


@dataclass(frozen=True)
class _Table:
    """A bilinear algorithm over `limbs` limbs of k = n / limbs coefficients.

    Row p of `evaluation` weights the limbs into the operand's value at point
    p; the two values multiply as a k x k schoolbook convolution. Row t of
    `interpolation`, divided exactly by `denominators[t]`, recovers limb t of
    the product, whose 2k-1 coefficients start at coefficient offsets[t] * k.
    """

    limbs: int
    evaluation: np.ndarray     # (points, limbs)
    interpolation: np.ndarray  # (product limbs, points)
    denominators: np.ndarray   # (product limbs,)
    offsets: np.ndarray        # (product limbs,)

    @property
    def points(self) -> int:
        return len(self.evaluation)

    @cached_property
    def growth(self) -> int:
        """Largest factor by which evaluation can grow a coefficient."""
        return int(np.abs(self.evaluation).sum(axis=1).max())

    @cached_property
    def limit(self) -> int:
        """Bound on a leaf-product sum below which the float64 leaf is exact
        and the integer interpolation cannot overflow int64."""
        widest = int(np.abs(self.interpolation).sum(axis=1).max())
        return min(_EXACT_FLOAT_LIMIT, _INT64_LIMIT // widest)


def _powers(x, count: int) -> list:
    if x == _INF:  # the leading coefficient
        return [int(t == count - 1) for t in range(count)]
    return [x ** t for t in range(count)]


def _invert_fraction_matrix(m):
    size = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(m)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def _toom(points) -> _Table:
    """Toom-Cook over (len(points) + 1) / 2 limbs; the interpolation matrix is
    the inverse Vandermonde matrix, exact over the rationals, with each row
    scaled to integers by its least common denominator."""
    limbs = (len(points) + 1) // 2
    inverse = _invert_fraction_matrix(
        [[Fraction(v) for v in _powers(x, len(points))] for x in points])
    dens = [math.lcm(*(f.denominator for f in row)) for row in inverse]
    return _Table(limbs,
                  np.array([_powers(x, limbs) for x in points], dtype=np.int64),
                  np.array([[int(f * d) for f in row] for row, d in zip(inverse, dens)],
                           dtype=np.int64),
                  np.array(dens, dtype=np.int64),
                  np.arange(len(points)))


def _nest(outer: _Table, inner: _Table) -> _Table:
    """`outer` whose leaf products each run `inner`: the tensor product.

    Interpolating inner then outer is linear, so one Kronecker-product row
    does both, and its result is exactly divisible by the product of the two
    rows' denominators."""
    return _Table(outer.limbs * inner.limbs,
                  np.kron(outer.evaluation, inner.evaluation),
                  np.kron(outer.interpolation, inner.interpolation),
                  np.outer(outer.denominators, inner.denominators).ravel(),
                  np.add.outer(outer.offsets * inner.limbs, inner.offsets).ravel())


_K2 = _toom((0, 1, _INF))
_TC4 = _toom((0, 1, -1, 2, -2, 3, _INF))
_TABLES = {
    MultAlgorithm.SB: _toom((0,)),
    MultAlgorithm.K2: _K2,
    MultAlgorithm.K4: _nest(_K2, _K2),
    MultAlgorithm.TC4: _TC4,
    MultAlgorithm.TC4K2: _nest(_TC4, _K2),
}


def _limb_size(table: _Table, alg: MultAlgorithm, n: int) -> int:
    if n < table.limbs or n % table.limbs:
        raise ValueError(f"{alg.value} requires n divisible by {table.limbs}, got n={n}")
    return n // table.limbs


def _evaluate(table: _Table, x: np.ndarray, k: int) -> np.ndarray:
    """(..., n) coefficients -> (..., points, k) values at the table's points."""
    return table.evaluation @ x.reshape(x.shape[:-1] + (table.limbs, k))


# ---------------------------------------------------------------------------
# the core: program a secret once, stream public operands against it

# A leaf longer than this multiplies by np.convolve per pair: its Toeplitz
# matrix (k x (2k-1) per polynomial and point) would cost more to build and
# to stream than one matrix product per point saves.
_TOEPLITZ_MAX_LEAF = 64


@dataclass(frozen=True)
class Programmed:
    """A secret vector (l, n) evaluated once at an algorithm's points.

    For leaves of k <= _TOEPLITZ_MAX_LEAF coefficients, `stationary[p]`
    stacks the k x (2k-1) Toeplitz matrices of the l values at point p, so
    that one row of l evaluated public limbs times it is the sum of their l
    leaf products at p. For longer leaves it holds the (points, l, k) values.
    """

    algorithm: MultAlgorithm
    n: int
    l: int
    stationary: np.ndarray  # float64
    abs_sum: int            # sum of |s| over the whole vector
    evaluations: int        # secret polynomials evaluated: l x points


def program(alg: MultAlgorithm, s) -> Programmed:
    """Evaluate the secret vector `s` (l, n) once, for any number of `matvec`s."""
    s = np.asarray(s, dtype=np.int64)
    table = _TABLES[alg]
    l, n = s.shape
    k = _limb_size(table, alg, n)
    values = _evaluate(table, s, k).swapaxes(0, 1).astype(np.float64)  # (points, l, k)
    if k <= _TOEPLITZ_MAX_LEAF:
        pad = np.zeros((table.points, l, 3 * k - 2))
        pad[..., k - 1: 2 * k - 1] = values
        # row u of the window view, read backwards, is the value shifted right by u
        toeplitz = sliding_window_view(pad, 2 * k - 1, axis=-1)[..., ::-1, :]
        values = np.ascontiguousarray(toeplitz).reshape(table.points, l * k, 2 * k - 1)
    return Programmed(alg, n, l, values, int(np.abs(s).sum(dtype=np.float64)),
                      l * table.points)


def _products(h: Programmed, a) -> np.ndarray:
    """Row i of the (rows, 2n-1) result is sum_j a[i, j] * s_j, unreduced.

    Each row's l leaf products at a point are summed before interpolating,
    so the row interpolates once. The leaf products run in float64, exact
    while every partial sum is below the table's `limit`; the bound
    max|a| * sum|s| * growth^2 covers every partial sum and is checked on
    each call.
    """
    table = _TABLES[h.algorithm]
    a = np.asarray(a, dtype=np.int64)
    rows, l, n = a.shape
    if (l, n) != (h.l, h.n):
        raise ValueError(f"operand rows of {l} x {n} coefficients do not match "
                         f"the programmed {h.l} x {h.n} secret")
    if int(np.abs(a).max()) * table.growth ** 2 * h.abs_sum >= table.limit:
        raise ArithmeticError("operands exceed the exact range of the leaf products")
    k = n // table.limbs
    lhs = _evaluate(table, a, k).transpose(2, 0, 1, 3).astype(np.float64)  # (points, rows, l, k)
    if k <= _TOEPLITZ_MAX_LEAF:
        leaf = lhs.reshape(table.points, rows, l * k) @ h.stationary
    else:
        leaf = np.array([[sum(map(np.convolve, row, s_p)) for row in lhs_p]
                         for lhs_p, s_p in zip(lhs, h.stationary)])
    num = table.interpolation @ leaf.astype(np.int64).reshape(table.points, -1)
    limbs, rem = np.divmod(num, table.denominators[:, None])
    if rem.any():
        raise ArithmeticError("Toom-Cook interpolation produced a non-integer")
    out = np.zeros((rows, 2 * n), dtype=np.int64)
    for off, limb in zip(table.offsets * k, limbs.reshape(-1, rows, 2 * k - 1)):
        out[:, off: off + 2 * k - 1] += limb
    return out[:, :-1]


def matvec(h: Programmed, a) -> np.ndarray:
    """(rows, n) negacyclic sums sum_j a[i, j] * s_j for a (rows, l, n), unreduced."""
    return fold_negacyclic(_products(h, a), h.n)


def conv_raw(alg: MultAlgorithm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full (2n-1)-term product of two coefficient arrays, no reduction."""
    return _products(program(alg, np.asarray(b)[None]), np.asarray(a)[None, None])[0]


def multiply(alg: MultAlgorithm, a: Poly, b: Poly) -> Poly:
    _check_pair(a, b)
    return _reduce(conv_raw(alg, a.coeffs, b.coeffs), a)
