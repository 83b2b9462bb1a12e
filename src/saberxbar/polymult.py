"""Polynomial multiplication algorithms and their decomposition plans.

Every algorithm is one table for a single evaluate -> leaf -> interpolate
core: split both operands into equal limbs, evaluate the limbs at the
table's points, multiply the evaluations pointwise (the leaf products),
interpolate the product's limbs exactly, and overlap-add them into the full
2n-1 convolution, folded modulo (x^n + 1) in the same step. Schoolbook is
the one-point table, Karatsuba the {0, 1, inf} Toom-2 table, and K4 and
TC4+K2 are tensor products of two tables.

The leaf is one float64 real FFT of the whole block of evaluated limbs: a
leaf product is a pointwise product of two spectra, and an inverse transform
rounded to the nearest integer. Evaluation, interpolation and the
overlap-add with the fold are float64 matrix products over the whole block,
with the points axis leading so that each is one BLAS call; the
interpolation divides exactly and checks it by multiplying back (tables
whose denominators are all 1, SB, K2 and K4, fold the interpolation into the
overlap-add matrix instead). Each call checks a rigorous round-off bound
before it transforms, the observed rounding residual after, and a per-table
bound that keeps every float64 sum after the leaf an exact integer below
2^53, and raises ArithmeticError rather than return an inexact product.

A folded product of the one-limb (schoolbook) table, for n a power of two,
runs on the ring leaf instead, which multiplies modulo x^n + 1 directly: the
weighted right-angle transform (Crandall and Fagin, "Discrete weighted
transforms and large-integer arithmetic", Math. Comp. 1994). Each operand
packs into n/2 complex values x_lo + i x_hi, its residue modulo
x^(n/2) - i; as x^n + 1 = (x^(n/2) - i)(x^(n/2) + i) and the coefficients
are real, the product's residue determines the product. Weighting the
values by zeta^j, zeta = exp(i pi / n), turns the product modulo
x^(n/2) - i into a cyclic convolution of n/2 points, so the unweighted
inverse transform's real and imaginary parts are the low and high halves of
the folded product. This is half the transform length of the zero-padded
linear leaf, with no fold after it. Toom tables keep the linear leaf: a Toom leaf
is a linear product of limbs zero-padded to twice their length, whose upper
halves are zero, so right-angle packing has nothing to pack; and the
unfolded `conv_raw` needs the whole product.

The secret side of a product is stationary, as on the crossbar: `program`
evaluates a secret vector once, and `matvec` streams rows of public operands
against it, summing each row's products in the evaluation domain so that it
interpolates once per output polynomial (Bermudo Mera, Karmakar and
Verbauwhede, "Time-memory trade-off in Toom-Cook multiplication", TCHES
2020). Both take optional leading axes, so one call multiplies a batch of
independent secrets by their own operands. `multiply` is their one-pair
form, and `conv_raw` runs the same core on one pair without the fold.
`schoolbook_mul`, an int64 convolution, is the one exact oracle: every
algorithm must agree with it bit-exactly, and the test suite checks it
against an independent big-integer convolution.
"""

import decimal
import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def plan_for(alg: MultAlgorithm, params: RingParams = DEFAULT_PARAMS) -> MultPlan:
    """The decomposition `alg`'s table makes: one leaf per point, each of
    n / limbs coefficients."""
    table = _TABLES[alg]
    return MultPlan(alg, table.points, _limb_size(table, alg, params.n))


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    """The exact oracle: the full 2n-1 convolution in int64, folded modulo
    x^n + 1 and reduced modulo the operands' modulus."""
    _check_pair(a, b)
    return Poly(fold_negacyclic(np.convolve(a.coeffs, b.coeffs), a.n), a.modulus)


# ---------------------------------------------------------------------------
# algorithm tables

# float64 holds every integer of magnitude up to 2^53 exactly
_EXACT_FLOAT_LIMIT = 1 << 53
_INF = "inf"


@dataclass(frozen=True)
class _Table:
    """A bilinear algorithm over `limbs` limbs of k = n / limbs coefficients.

    Row p of `evaluation` weights the limbs into the operand's value at point
    p; the two values multiply as a k x k linear convolution (the leaf). Row
    t of `interpolation`, divided exactly by `denominators[t]`, recovers limb
    t of the product, whose 2k-1 coefficients start at coefficient
    offsets[t] * k. The core applies all of these as float64 matrix
    products, which `evaluation_weight` and `growth` bound below 2^53 so
    that they stay exact.
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
    def divides(self) -> bool:
        """Whether a product limb needs an exact division; the denominators
        of SB, K2 and K4 are all 1."""
        return bool((self.denominators > 1).any())

    @cached_property
    def float_evaluation(self) -> np.ndarray:
        return self.evaluation.astype(np.float64)

    @cached_property
    def evaluation_weight(self) -> int:
        """The largest sum of absolute weights in one evaluation row."""
        return int(np.abs(self.evaluation).sum(axis=1).max())

    @cached_property
    def float_interpolation(self) -> np.ndarray:
        return self.interpolation.astype(np.float64)

    @cached_property
    def float_denominators(self) -> np.ndarray:
        return self.denominators.astype(np.float64)[:, None]

    def _placement(self, fold: bool) -> np.ndarray:
        """(chunks, 2 * product limbs) 0/±1 matrix that overlap-adds the
        product limbs into the product's chunks of k coefficients. Column
        2t holds limb t's coefficients 0..k-1, which land in chunk
        offsets[t], and column 2t + 1 its coefficients k..2k-1 (the last one
        0), which land in chunk offsets[t] + 1. Unfolded, the 2n-coefficient
        product has chunks = 2 * limbs; folded modulo x^n + 1, chunk
        limbs + g adds to chunk g with its sign flipped (x^n = -1), leaving
        chunks = limbs."""
        halves = (self.offsets[:, None] + np.arange(2)).ravel()
        place = np.zeros((2 * self.limbs, len(halves)))
        place[halves, np.arange(len(halves))] = 1
        return place[: self.limbs] - place[self.limbs:] if fold else place

    @cached_property
    def outputs(self) -> dict:
        """{fold: the matrix the core applies after the leaf}: the placement
        of the exact quotients' halves, or, for a table that never divides,
        the placement times the interpolation, applied to the halves of the
        leaf sums (column 2p + h takes half h of point p)."""
        halves = np.kron(self.float_interpolation, np.eye(2))
        return {fold: self._placement(fold) if self.divides
                else np.dot(self._placement(fold), halves)
                for fold in (False, True)}

    @cached_property
    def growth(self) -> np.ndarray:
        """(bounds, points) matrix G such that, when every leaf sum at point p
        (the integers the FFT leaf rounds to) is at most M_p in magnitude,
        every float64 partial sum after the leaf is at most (G M)_r for one
        of its rows r: the core is exact while max(G M) < 2^53.

        Product limb t sums the terms I[t, p] e_p, so each of its partial
        sums, taken in any order, is at most sum_p |I[t, p]| M_p (row t of
        G), and its quotient by d_t at most that over d_t. A coefficient of
        output chunk g sums +-1 times one coefficient of each low and high
        half that the folded placement F sends to g, so its partial sums are
        at most sum_t (|F[g, 2t]| + |F[g, 2t + 1]|) sum_p |I[t, p]| M_p / d_t
        (row g after the product-limb rows). A table that does not divide
        applies placement times interpolation as one matrix, whose partial
        sums the same rows bound (triangle inequality). Below 2^53 float64 holds every integer, so
        each addition and fused multiply-add of these integers is exact
        whatever order BLAS sums in. The exact-division check multiplies each
        quotient q back: q d != y cannot round to y, since it is either exact
        or at least 2^53 > |y|. The unfolded placement sends each half to a
        row of its own, so the folded rows bound it too. The bound is per
        point because the points' leaf sums differ by orders of magnitude:
        with one M for all points, TC4K2's widest row (sum |I[t, p]| = 2550)
        would reject uniform operands mod 2^13 at n = 256.
        """
        interpolation = np.abs(self.float_interpolation)
        quotients = np.repeat(interpolation / self.float_denominators, 2, axis=0)
        return np.vstack([interpolation, np.dot(np.abs(self._placement(fold=True)), quotients)])


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
    """(..., n) coefficients -> (points, ..., k) float64 values at the
    table's points. The points axis leads, so one matrix product evaluates
    the whole block; schoolbook's one limb is its own value at its one
    point, so its values are the limbs as they are, without a second copy.

    Every partial sum of a value is at most max |x| times the table's widest
    evaluation row, and each call checks that this stays below 2^53, so the
    values are exact. Rounding is monotone, so a coefficient cast inexactly
    (|x| > 2^53) fails the check too."""
    limbs = x.reshape(-1, table.limbs, k).transpose(1, 0, 2).astype(np.float64, order="C")
    if limbs.size and not (max(limbs.max(), -limbs.min()) * table.evaluation_weight
                           < _EXACT_FLOAT_LIMIT):
        raise ArithmeticError("operands exceed the exact float64 range of the evaluation")
    if table.points > 1:
        limbs = np.dot(table.float_evaluation, limbs.reshape(table.limbs, -1))
    return limbs.reshape((table.points,) + x.shape[:-1] + (k,))


# ---------------------------------------------------------------------------
# the core: program a secret once, stream public operands against it

# float64 unit round-off, and the error assumed for the FFT's roots of unity
# (the ring leaf's weights are computed to within it, see `_ring_weights`)
_EPS = 2.0 ** -53
_ROOT_ERROR = 2.0 ** -52
# covers the rounding of the norms and of the bounds computed from them
_NORM_SLACK = 1.0 + 2.0 ** -20
# a leaf coefficient within this of an integer rounds to it exactly
_MAX_ROUNDOFF = 0.25


def _fft_size(k: int) -> int:
    """Smallest power of two of at least 2k points: a (2k-1)-term linear
    convolution and one zero, so that a leaf product splits into two halves
    of k coefficients."""
    return 1 << (2 * k - 1).bit_length()


def _on_ring(table: _Table, n: int) -> bool:
    """Whether folded products of `table` at n coefficients run on the ring
    leaf: one limb, and n a power of two, so that its n/2-point transform has
    the radix-2 size that the round-off bound models."""
    return table.limbs == 1 and n > 1 and not n & (n - 1)


@lru_cache(maxsize=16)
def _ring_weights(n: int) -> np.ndarray:
    """The weights zeta^j = exp(i pi j / n) for j < n/2, n a power of two,
    and their conjugates, which unweight: (2, n/2). They are computed in
    40-digit decimal arithmetic, halving the angle pi/2 down to pi/n and then
    taking powers, and rounded once to float64, so each lies within
    sqrt(2) 2^-54 < `_ROOT_ERROR` of its exact value on any platform."""
    with decimal.localcontext(prec=40):
        cos, sin = decimal.Decimal(0), decimal.Decimal(1)
        for _ in range(n.bit_length() - 2):
            cos, sin = ((1 + cos) / 2).sqrt(), ((1 - cos) / 2).sqrt()
        re, im, weights = decimal.Decimal(1), decimal.Decimal(0), []
        for _ in range(n // 2):
            weights.append(complex(float(re), float(im)))
            re, im = re * cos - im * sin, re * sin + im * cos
    weights = np.array(weights)
    weights = np.stack([weights, weights.conj()])
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=64)
def _roundoff_factor(size: int, terms: int, weighted: bool = False) -> float:
    """Factor f such that a leaf sum of `terms` products, each of two
    operands x and y transformed at `size` points, is off by less than
    f * sum ||x|| ||y|| (Euclidean norms) in every coefficient.

    For one cyclic convolution of size = 2^m complex points, Percival's bound
    ("Rapid multiplication modulo the sum and difference of highly composite
    numbers", Math. Comp. 2003, Thm 5.1) is P = (1+e)^3m (1+e sqrt5)^(3m+1)
    (1+b)^3m - 1 times ||x|| ||y||, for unit round-off e and roots of unity
    within b of exact: three transforms of m radix-2 passes, and the
    pointwise complex products, each within e sqrt5 of exact relative to
    its factors. The linear leaf's real FFT is such a convolution of the
    zero-padded limbs.

    The ring leaf (`weighted`) transforms size = n/2 complex values
    u = x_lo + i x_hi, with ||u|| the norm of x's n coefficients. It
    multiplies by weights within b of zeta^j, |zeta^j| = 1, three times:
    each operand before its forward transform, and the inverse transform's
    output c~ after it. Each such product is within d = (1 + e sqrt5)(1 + b)
    - 1 of exact relative to the unweighted factor. So the computed weighted
    operands are the exact ones plus r, r' with ||r|| <= d ||u|| and
    ||r'|| <= d ||v||, and their exact cyclic convolution moves by at most
    ((1+d)^2 - 1) ||u|| ||v|| (Cauchy-Schwarz), Percival's bound on their
    norms adds (1+d)^2 P ||u|| ||v||, and unweighting turns an error E in a
    coefficient c, |c| <= ||u|| ||v||, into at most (1+d) E + d |c|. In all,
    ((1+d)^3 (1+P) - 1) ||u|| ||v||: (1+e)^3m (1+e sqrt5)^(3m+4)
    (1+b)^(3m+3) - 1.

    Either way the bound is summed over the products by the triangle
    inequality, with (1+e)^(terms-1) for the frequency-domain additions,
    which enter like the pointwise products' rounding. It models a radix-2
    complex FFT; numpy's FFT is not that algorithm, so every call also
    checks the observed rounding residual.
    """
    m = size.bit_length() - 1
    weights = 3 if weighted else 0
    return math.expm1(3 * m * math.log1p(_EPS)
                      + (3 * m + 1 + weights) * math.log1p(_EPS * math.sqrt(5))
                      + (3 * m + weights) * math.log1p(_ROOT_ERROR)
                      + (terms - 1) * math.log1p(_EPS))


@dataclass(frozen=True)
class Programmed:
    """A secret vector (..., l, n) transformed once, in the form its
    products use.

    On the linear leaf, `spectra` holds the real FFT of every limb evaluated
    at the algorithm's points, (points, ..., l, size // 2 + 1), and `norms`
    their Euclidean norms, (points, ..., l); the points axis leads, as
    everywhere in the linear core. On the ring leaf (`ring`), `spectra`
    holds the n/2-point FFT of each weighted, packed secret polynomial,
    (..., l, n/2), and `norms` the norms of its n coefficients, (..., l).
    Leading axes `...`, if any, index independent secrets (one per trial of
    a batch).
    """

    algorithm: MultAlgorithm
    secret: np.ndarray      # int64 (..., l, n)
    spectra: np.ndarray     # complex128
    norms: np.ndarray       # float64
    evaluations: int        # secret polynomials evaluated: polynomials x points
    ring: bool              # whether products run on the ring leaf

    @property
    def n(self) -> int:
        return self.secret.shape[-1]

    @property
    def l(self) -> int:
        return self.secret.shape[-2]


def _norms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...k,...k->...", values, values))


def _widen(values: np.ndarray, axes: int) -> np.ndarray:
    """`values` with `axes` unit axes after the points axis."""
    return values.reshape(values.shape[:1] + (1,) * axes + values.shape[1:])


def _pack(x: np.ndarray) -> tuple:
    """(..., n) int64 coefficients -> the ring leaf's (..., n/2) complex
    values x_lo + i x_hi, each weighted by zeta^j, and the (...) Euclidean
    norms of the coefficients. As in `_evaluate`, each call checks
    |x| < 2^53, so the values are exact before weighting."""
    half = x.shape[-1] // 2
    packed = np.empty(x.shape[:-1] + (half,), dtype=np.complex128)
    packed.real, packed.imag = x[..., :half], x[..., half:]
    flat = packed.view(np.float64)
    if flat.size and not max(flat.max(), -flat.min()) < _EXACT_FLOAT_LIMIT:
        raise ArithmeticError("operands exceed the exact float64 range of the evaluation")
    norms = _norms(flat)
    packed *= _ring_weights(x.shape[-1])[0]
    return packed, norms


def program(alg: MultAlgorithm, s) -> Programmed:
    """Transform the secret vector `s` (..., l, n) once, for any number of
    `matvec`s: on the ring leaf where the table and n allow it."""
    return _program(alg, s, ring=True)


def _program(alg: MultAlgorithm, s, ring: bool) -> Programmed:
    s = np.asarray(s, dtype=np.int64)
    table = _TABLES[alg]
    n = s.shape[-1]
    k = _limb_size(table, alg, n)
    evaluations = s.size // n * table.points
    if ring and _on_ring(table, n):
        packed, norms = _pack(s)
        return Programmed(alg, s, np.fft.fft(packed, axis=-1, out=packed), norms,
                          evaluations, ring=True)
    values = _evaluate(table, s, k)  # (points, ..., l, k)
    return Programmed(alg, s, np.fft.rfft(values, _fft_size(k)), _norms(values),
                      evaluations, ring=False)


def _products(h: Programmed, a, fold: bool) -> np.ndarray:
    """Row i of the result is sum_j a[..., i, j] * s_j for a of shape
    (..., rows, l, n), unreduced: folded modulo x^n + 1, (..., rows, n), or
    else the full (..., rows, 2n) product, whose last coefficient is 0. A
    ring handle multiplies on the ring leaf (`_ring_products`), which folds.

    On the linear leaf, the points axis leads throughout, so that
    evaluation, interpolation and the overlap-add with the fold are each one
    float64 matrix product over the whole block. Each row's l leaf products
    at a point are summed in the frequency domain, so the row takes one
    inverse FFT per point. Every leaf-sum coefficient at point p is at most
    M_p = sum_j ||x_j|| ||y_j|| over the row's evaluated limbs
    (Cauchy-Schwarz), and each call checks these bounds twice: their
    maximum against the FFT round-off bound, so that every coefficient
    rounds to its exact integer, and all of them through the table's
    `growth` against 2^53, so that every float64 sum after the leaf is
    exact.
    """
    table = _TABLES[h.algorithm]
    a = np.asarray(a, dtype=np.int64)
    l, n = a.shape[-2:]
    if (l, n) != (h.l, h.n):
        raise ValueError(f"operand rows of {l} x {n} coefficients do not match "
                         f"the programmed {h.l} x {h.n} secret")
    if a.shape[:-3] != h.secret.shape[:-2]:  # shared operands or a shared secret
        a = np.broadcast_to(a, np.broadcast_shapes(a.shape[:-3], h.secret.shape[:-2])
                            + a.shape[-3:])
    if h.ring:
        return _ring_products(h, a)
    k = n // table.limbs
    size = _fft_size(k)
    x = _evaluate(table, a, k)  # (points, ..., rows, l, k)
    extra = x.ndim - h.spectra.ndim - 1  # leading axes a has beyond s
    bound = np.einsum("...j,...j->...", _norms(x), _widen(h.norms, extra)[..., None, :])
    bound = bound.reshape(len(bound), -1).max(axis=1) * _NORM_SLACK  # per point
    if not np.dot(table.growth, bound).max() < _EXACT_FLOAT_LIMIT:
        raise ArithmeticError("operands exceed the exact float64 range of the interpolation")
    if not bound.max() * _roundoff_factor(size, l) < _MAX_ROUNDOFF:
        raise ArithmeticError("operands exceed the exact range of the FFT leaf")
    # freeing each block once used keeps a batch's peak memory down, and
    # with it the page faults of allocations the C allocator returns
    spectra = np.fft.rfft(x, size)
    del x
    spectra *= _widen(h.spectra, extra)[..., None, :, :]
    leaf = np.fft.irfft(spectra.sum(axis=-2), size)
    del spectra
    leaf = leaf[..., : 2 * k]  # (points, ..., rows, 2k)
    exact = np.rint(leaf)
    leaf -= exact
    if not np.abs(leaf, out=leaf).max() < _MAX_ROUNDOFF:
        raise ArithmeticError("FFT leaf round-off reached 1/4")
    exact = exact.reshape(len(exact), -1)
    if table.divides:
        sums = np.dot(table.float_interpolation, exact)
        exact = np.rint(sums / table.float_denominators)
        if (exact * table.float_denominators != sums).any():
            raise ArithmeticError("Toom-Cook interpolation produced a non-integer")
    halves = exact.reshape(len(exact), -1, 2, k).swapaxes(1, 2).reshape(2 * len(exact), -1)
    chunks = np.dot(table.outputs[fold], halves).reshape(len(table.outputs[fold]), -1, k)
    out = chunks.transpose(1, 0, 2).astype(np.int64, order="C")  # (... rows, chunks, k)
    return out.reshape(leaf.shape[1:-1] + (-1,))


def _ring_products(h: Programmed, a: np.ndarray) -> np.ndarray:
    """The folded (..., rows, n) sums of `_products` on the ring leaf.

    Each row's l products are summed in the frequency domain, so the row
    takes one inverse transform. A coefficient of the sum adds, over j,
    signed products of a_j's coefficients with a permutation of s_j's, so it
    is at most M = sum_j ||a_j|| ||s_j|| (Cauchy-Schwarz), and each call
    checks M against the weighted transform's round-off bound. Since that
    bound's factor exceeds 2^-50, M < 2^48 then, so the rounded halves are
    the exact folded product and no float64 sum follows the leaf.
    """
    x, norms = _pack(a)  # (..., rows, l, n/2)
    bound = np.einsum("...j,...j->...", norms, h.norms[..., None, :]).max() * _NORM_SLACK
    if not bound * _roundoff_factor(h.n // 2, h.l, weighted=True) < _MAX_ROUNDOFF:
        raise ArithmeticError("operands exceed the exact range of the FFT leaf")
    x = np.fft.fft(x, axis=-1, out=x)
    x *= h.spectra[..., None, :, :]
    leaf = x.sum(axis=-2)  # (..., rows, n/2)
    del x
    leaf = np.fft.ifft(leaf, axis=-1, out=leaf)
    leaf *= _ring_weights(h.n)[1]
    flat = leaf.view(np.float64)  # low and high halves, interleaved
    exact = np.rint(flat)
    flat -= exact
    if not np.abs(flat, out=flat).max() < _MAX_ROUNDOFF:
        raise ArithmeticError("FFT leaf round-off reached 1/4")
    halves = exact.reshape(exact.shape[:-1] + (-1, 2)).swapaxes(-1, -2)
    return halves.astype(np.int64, order="C").reshape(exact.shape)


def matvec(h: Programmed, a) -> np.ndarray:
    """(..., rows, n) negacyclic sums sum_j a[..., i, j] * s_j for a of shape
    (..., rows, l, n), unreduced."""
    return _products(h, a, fold=True)


def conv_raw(alg: MultAlgorithm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full (2n-1)-term product of two coefficient arrays, no reduction."""
    return _products(_program(alg, np.asarray(b)[None], ring=False),
                     np.asarray(a)[None, None], fold=False)[0, :-1]


def multiply(alg: MultAlgorithm, a: Poly, b: Poly) -> Poly:
    """a * b in R_q: `matvec` on one row of one polynomial, against `b`
    programmed as a one-polynomial secret."""
    _check_pair(a, b)
    return Poly(matvec(program(alg, b.coeffs[None]), a.coeffs[None, None])[0], a.modulus)
