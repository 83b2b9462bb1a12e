"""Polynomial multiplication algorithms and their decomposition plans.

All variants multiply to the full 2n-1 convolution first and reduce modulo
(x^n + 1) once at the end, so sub-multiplication recombination never depends
on the quotient relation. Every variant must agree with `schoolbook_mul`
bit-exactly; the test suite enforces this against an independent big-integer
convolution oracle.
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import RingParams, DEFAULT_PARAMS
from .ring import Poly, DimensionError, _check_pair, fold_negacyclic


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


def _karatsuba_conv(a: np.ndarray, b: np.ndarray, levels: int) -> np.ndarray:
    """Plain (non-modular) product of equal-length coefficient arrays."""
    if levels == 0:
        return np.convolve(a, b)
    n = len(a)
    h = n // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    z0 = _karatsuba_conv(a0, b0, levels - 1)
    z2 = _karatsuba_conv(a1, b1, levels - 1)
    z1 = _karatsuba_conv(a0 + a1, b0 + b1, levels - 1) - z0 - z2
    out = np.zeros(2 * n - 1, dtype=np.int64)
    out[: 2 * h - 1] += z0
    out[h: 3 * h - 1] += z1
    out[2 * h: 4 * h - 1] += z2
    return out


def karatsuba_mul(a: Poly, b: Poly, levels: int = 1) -> Poly:
    _check_pair(a, b)
    if levels < 0 or a.n % (1 << levels) != 0 or (a.n >> levels) < 1:
        raise ValueError(f"cannot recurse {levels} Karatsuba levels at n={a.n}")
    return _reduce(_karatsuba_conv(a.coeffs, b.coeffs, levels), a)


# Toom-Cook-4 evaluation points {0, 1, -1, 2, -2, 3, inf}. The interpolation
# matrix inverse is precomputed exactly over the rationals; every product of
# integer polynomials interpolates to integers, which _interpolate asserts.
_TC4_POINTS = (0, 1, -1, 2, -2, 3)
_TC4_INV = None


def _tc4_inverse():
    global _TC4_INV
    if _TC4_INV is None:
        rows = []
        for x in _TC4_POINTS:
            rows.append([Fraction(x) ** t for t in range(7)])
        rows.append([Fraction(1 if t == 6 else 0) for t in range(7)])
        m = [[rows[i][j] for j in range(7)] for i in range(7)]
        inv = _invert_fraction_matrix(m)
        _TC4_INV = inv
    return _TC4_INV


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


def _tc4_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain product via 4-way split, 7-point evaluation and exact interpolation."""
    n = len(a)
    k = n // 4
    al = a.reshape(4, k)
    bl = b.reshape(4, k)

    def evaluate(limbs, x):
        if x == "inf":
            return limbs[3].copy()
        acc = np.zeros(k, dtype=np.int64)
        for limb in limbs[::-1]:
            acc = acc * x + limb
        return acc

    points = list(_TC4_POINTS) + ["inf"]
    prods = [np.convolve(evaluate(al, x), evaluate(bl, x)) for x in points]
    ws = _interpolate(prods)

    out = np.zeros(2 * n - 1, dtype=np.int64)
    for t, w in enumerate(ws):
        out[t * k: t * k + 2 * k - 1] += w
    return out


_TC4_INT = None


def _tc4_int_rows():
    """Integer form of the interpolation: per row a denominator and weights."""
    global _TC4_INT
    if _TC4_INT is None:
        inv = _tc4_inverse()
        rows = []
        for t in range(7):
            den = 1
            for j in range(7):
                den = den * inv[t][j].denominator // math.gcd(den, inv[t][j].denominator)
            rows.append((den, [int(inv[t][j] * den) for j in range(7)]))
        _TC4_INT = rows
    return _TC4_INT


def _interpolate(prods):
    ws = []
    for den, coefs in _tc4_int_rows():
        num = np.zeros_like(prods[0])
        for c, p in zip(coefs, prods):
            if c:
                num = num + c * p
        q, r = np.divmod(num, den)
        if np.any(r):
            raise ArithmeticError("Toom-Cook interpolation produced a non-integer")
        ws.append(q)
    return ws


def toomcook4_mul(a: Poly, b: Poly) -> Poly:
    _check_pair(a, b)
    if a.n % 4 != 0:
        raise ValueError("Toom-Cook-4 requires n divisible by 4")
    return _reduce(_tc4_conv(a.coeffs, b.coeffs), a)


def _tc4k2_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Toom-Cook-4 whose 7 leaf products each run one Karatsuba level."""
    n = len(a)
    k = n // 4
    al = a.reshape(4, k)
    bl = b.reshape(4, k)

    def evaluate(limbs, x):
        if x == "inf":
            return limbs[3].copy()
        acc = np.zeros(k, dtype=np.int64)
        for limb in limbs[::-1]:
            acc = acc * x + limb
        return acc

    points = list(_TC4_POINTS) + ["inf"]
    prods = [
        _karatsuba_conv(evaluate(al, x), evaluate(bl, x), 1) for x in points
    ]
    ws = _interpolate(prods)
    out = np.zeros(2 * n - 1, dtype=np.int64)
    for t, w in enumerate(ws):
        out[t * k: t * k + 2 * k - 1] += w
    return out


def tc4k2_mul(a: Poly, b: Poly) -> Poly:
    _check_pair(a, b)
    if a.n % 8 != 0:
        raise ValueError("TC4+K2 requires n divisible by 8")
    return _reduce(_tc4k2_conv(a.coeffs, b.coeffs), a)


def conv_raw(alg: MultAlgorithm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full (2n-1)-term product of two coefficient arrays, no reduction."""
    if alg is MultAlgorithm.SB:
        return np.convolve(a, b)
    if alg is MultAlgorithm.K2:
        return _karatsuba_conv(a, b, 1)
    if alg is MultAlgorithm.K4:
        return _karatsuba_conv(a, b, 2)
    if alg is MultAlgorithm.TC4:
        return _tc4_conv(a, b)
    if alg is MultAlgorithm.TC4K2:
        return _tc4k2_conv(a, b)
    raise ValueError(f"unknown algorithm {alg}")


def multiply(alg: MultAlgorithm, a: Poly, b: Poly) -> Poly:
    _check_pair(a, b)
    return _reduce(conv_raw(alg, a.coeffs, b.coeffs), a)
