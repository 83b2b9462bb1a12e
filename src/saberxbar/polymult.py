"""Polynomial multiplication algorithms and their decomposition plans.

Every algorithm is one table for a single evaluate -> leaf -> interpolate
core: split both operands into equal limbs, evaluate the limbs at the
table's points, multiply the evaluations pointwise (the leaf products),
interpolate the product's limbs exactly, overlap-add them into the full
2n-1 convolution and reduce modulo (x^n + 1) once at the end. Schoolbook is
the one-point table, Karatsuba the {0, 1, inf} Toom-2 table, and K4 and
TC4+K2 are tensor products of two tables.

The leaf is one batched float64 real FFT of every limb: a leaf product is a
pointwise product of two spectra, and an inverse transform rounded to the
nearest integer. Each call checks a rigorous round-off bound before it
transforms and the observed rounding residual after, and raises
ArithmeticError rather than return an inexact product.

The secret side of a product is stationary, as on the crossbar: `program`
evaluates a secret vector once, and `matvec` streams rows of public operands
against it, summing each row's products in the evaluation domain so that it
interpolates once per output polynomial (Bermudo Mera, Karmakar and
Verbauwhede, "Time-memory trade-off in Toom-Cook multiplication", TCHES
2020). Both take optional leading axes, so one call multiplies a batch of
independent secrets by their own operands. `conv_raw` and `multiply` run the
same core on one pair. Every algorithm must agree with `schoolbook_mul`
bit-exactly; the test suite enforces this against an independent
big-integer convolution oracle.
"""

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .params import RingParams, DEFAULT_PARAMS
from .ring import Poly, _check_pair, fold_negacyclic


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
    p; the two values multiply as a k x k linear convolution (the leaf). Row
    t of `interpolation`, divided exactly by `denominators[t]`, recovers limb
    t of the product, whose 2k-1 coefficients start at coefficient
    offsets[t] * k.
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
    def identity(self) -> bool:
        """Schoolbook's table, whose one limb is evaluated and interpolated
        as is: the core skips its two 1x1 matrix products. Timed
        interleaved on a 2-core VM, skipping them makes an XbarBackend
        encryption plus decryption 1.27x and a 10-trial `run_noise` call
        1.08-1.13x faster."""
        return (self.evaluation.shape == (1, 1) and self.evaluation[0, 0] == 1
                and self.interpolation[0, 0] == self.denominators[0] == 1)

    @cached_property
    def limit(self) -> int:
        """Bound on a leaf-product sum below which the integer interpolation
        cannot overflow int64."""
        return _INT64_LIMIT // int(np.abs(self.interpolation).sum(axis=1).max())


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
    """(..., n) coefficients -> (..., points, k) float64 values at the
    table's points, exact below 2^53 (the round-off bound keeps them there)."""
    limbs = x.reshape(x.shape[:-1] + (table.limbs, k)).astype(np.float64)
    return limbs if table.identity else table.evaluation.astype(np.float64) @ limbs


def _interpolate(table: _Table, exact: np.ndarray) -> np.ndarray:
    """(..., points, 2k-1) int64 leaf sums -> (product limbs, ..., 2k-1)."""
    if table.identity:
        return np.moveaxis(exact, -2, 0)
    limbs, rem = np.divmod(np.tensordot(table.interpolation, exact, axes=(1, -2)),
                           table.denominators.reshape((-1,) + (1,) * (exact.ndim - 1)))
    if rem.any():
        raise ArithmeticError("Toom-Cook interpolation produced a non-integer")
    return limbs


# ---------------------------------------------------------------------------
# the core: program a secret once, stream public operands against it

# float64 unit round-off, and the error assumed for the FFT's roots of unity
_EPS = 2.0 ** -53
_ROOT_ERROR = 2.0 ** -52
# covers the rounding of the norms that enter the bound
_NORM_SLACK = 1.0 + 2.0 ** -20
# a leaf coefficient within this of an integer rounds to it exactly
_MAX_ROUNDOFF = 0.25


def _fft_size(k: int) -> int:
    """Smallest power of two that holds a (2k-1)-term linear convolution."""
    return 1 << (2 * k - 2).bit_length()


def _roundoff_factor(size: int, terms: int) -> float:
    """Factor f such that a leaf sum of `terms` products, each of two limbs
    x and y transformed at `size` points, is off by less than
    f * sum ||x|| ||y|| (Euclidean norms) in every coefficient.

    This is Percival's bound ("Rapid multiplication modulo the sum and
    difference of highly composite numbers", Math. Comp. 2003, Thm 5.1),
    ((1+e)^3m (1+e sqrt5)^(3m+1) (1+b)^3m - 1) for size = 2^m, summed over
    the products by the triangle inequality, with (1+e)^(terms-1) for the
    frequency-domain additions, which enter like the pointwise products'
    rounding. It models a radix-2 complex FFT; numpy's real FFT is not that
    algorithm, so every call also checks the observed rounding residual.
    """
    m = size.bit_length() - 1
    return math.expm1(3 * m * math.log1p(_EPS)
                      + (3 * m + 1) * math.log1p(_EPS * math.sqrt(5))
                      + 3 * m * math.log1p(_ROOT_ERROR)
                      + (terms - 1) * math.log1p(_EPS))


@dataclass(frozen=True)
class Programmed:
    """A secret vector (..., l, n) evaluated once at an algorithm's points.

    `spectra` holds the real FFT of every evaluated limb, (..., l, points,
    size // 2 + 1), and `norms` their Euclidean norms, (..., l, points), for
    the leaf's bounds. Leading axes, if any, index independent secrets (one
    per trial of a batch).
    """

    algorithm: MultAlgorithm
    secret: np.ndarray      # int64 (..., l, n)
    spectra: np.ndarray     # complex128
    norms: np.ndarray       # float64
    evaluations: int        # secret polynomials evaluated: polynomials x points

    @property
    def n(self) -> int:
        return self.secret.shape[-1]

    @property
    def l(self) -> int:
        return self.secret.shape[-2]


def _norms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...k,...k->...", values, values))


def program(alg: MultAlgorithm, s) -> Programmed:
    """Evaluate the secret vector `s` (..., l, n) once, for any number of
    `matvec`s."""
    s = np.asarray(s, dtype=np.int64)
    table = _TABLES[alg]
    k = _limb_size(table, alg, s.shape[-1])
    values = _evaluate(table, s, k)  # (..., l, points, k)
    return Programmed(alg, s, np.fft.rfft(values, _fft_size(k)), _norms(values),
                      s.size // s.shape[-1] * table.points)


def _products(h: Programmed, a) -> np.ndarray:
    """Row i of the (..., rows, 2n-1) result is sum_j a[..., i, j] * s_j,
    unreduced, for a of shape (..., rows, l, n).

    Each row's l leaf products at a point are summed in the frequency domain,
    so the row takes one inverse FFT per point and interpolates once. Every
    leaf-sum coefficient is at most M = sum_j ||x_j|| ||y_j|| over the row's
    evaluated limbs (Cauchy-Schwarz), and each call checks M twice: against
    the FFT round-off bound, so that every coefficient rounds to its exact
    integer, and against the table's int64 interpolation limit.
    """
    table = _TABLES[h.algorithm]
    a = np.asarray(a, dtype=np.int64)
    l, n = a.shape[-2:]
    if (l, n) != (h.l, h.n):
        raise ValueError(f"operand rows of {l} x {n} coefficients do not match "
                         f"the programmed {h.l} x {h.n} secret")
    k = n // table.limbs
    size = _fft_size(k)
    x = _evaluate(table, a, k)  # (..., rows, l, points, k)
    bound = np.einsum("...jp,...jp->...p", _norms(x), h.norms[..., None, :, :]).max()
    bound *= _NORM_SLACK
    if not bound < table.limit:
        raise ArithmeticError("operands exceed the int64 range of the interpolation")
    if not bound * _roundoff_factor(size, l) < _MAX_ROUNDOFF:
        raise ArithmeticError("operands exceed the exact range of the FFT leaf")
    # one product at a time, freeing what is done with, keeps a batch's peak
    # memory near two copies of its operands
    spectra = 0
    for j in range(l):
        product = np.fft.rfft(x[..., j, :, :], size)
        spectra = spectra + np.multiply(product, h.spectra[..., None, j, :, :], out=product)
    del x, product
    leaf = np.fft.irfft(spectra, size)[..., : 2 * k - 1]  # (..., rows, points, 2k-1)
    del spectra
    exact = np.rint(leaf)
    leaf -= exact
    if not np.abs(leaf, out=leaf).max() < _MAX_ROUNDOFF:
        raise ArithmeticError("FFT leaf round-off reached 1/4")
    del leaf
    limbs = _interpolate(table, exact.astype(np.int64))
    out = np.zeros(limbs.shape[1:-1] + (2 * n,), dtype=np.int64)
    for off, limb in zip(table.offsets * k, limbs):
        out[..., off: off + 2 * k - 1] += limb
    return out[..., :-1]


def matvec(h: Programmed, a) -> np.ndarray:
    """(..., rows, n) negacyclic sums sum_j a[..., i, j] * s_j for a of shape
    (..., rows, l, n), unreduced."""
    return fold_negacyclic(_products(h, a), h.n)


def conv_raw(alg: MultAlgorithm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full (2n-1)-term product of two coefficient arrays, no reduction."""
    return _products(program(alg, np.asarray(b)[None]), np.asarray(a)[None, None])[0]


def multiply(alg: MultAlgorithm, a: Poly, b: Poly) -> Poly:
    _check_pair(a, b)
    return _reduce(conv_raw(alg, a.coeffs, b.coeffs), a)
