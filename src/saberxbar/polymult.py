"""Polynomial multiplication algorithms and their decomposition plans.

Every algorithm is one table for a single evaluate -> leaf -> interpolate
core: split both operands into equal limbs, evaluate the limbs at the
table's points, multiply the evaluations pointwise (the leaf products),
interpolate the product's limbs exactly, and overlap-add them into the
product, folded modulo (x^n + 1) in the same step. Schoolbook is the
one-point table, Karatsuba the {0, 1, inf} Toom-2 table, and K4 and TC4+K2
are tensor products of two tables.

The one leaf multiplies modulo x^size + 1 with the weighted right-angle
transform (Crandall and Fagin, "Discrete weighted transforms and
large-integer arithmetic", Math. Comp. 1994). Each operand packs into
size/2 complex values x_lo + i x_hi, its residue modulo x^(size/2) - i; as
x^size + 1 = (x^(size/2) - i)(x^(size/2) + i) and the coefficients are real,
the product's residue determines the product. Weighting the values by
zeta^j, zeta = exp(i pi / size), turns the product modulo x^(size/2) - i
into a cyclic convolution of size/2 points, so the unweighted inverse
transform's real and imaginary parts are the low and high halves of the
product.

The one-limb (schoolbook) table at n a power of two runs the leaf at
size = n: the leaf itself folds, and nothing follows it. Every other table
(a Toom table, or schoolbook at another n) packs its evaluated limbs of k
coefficients zero-padded to size = `_fft_size(k)`, a power of two of at
least 2k, so that the product modulo x^size + 1 cannot wrap and is the
limbs' linear product. Evaluation, interpolation and the overlap-add with
the fold are then float64 matrix products over the whole block, with the
points axis leading so that each is one BLAS call; the interpolation
divides exactly and checks it by multiplying back (tables whose
denominators are all 1, SB, K2 and K4, fold the interpolation into the
overlap-add matrix instead). Each call checks a rigorous round-off bound
before it transforms, the observed rounding residual after, and a per-table
bound that keeps every float64 sum after the leaf an exact integer below
2^53, and raises ArithmeticError rather than return an inexact product.

The secret side of a product is stationary, as on the crossbar: `program`
evaluates a secret vector once, and `matvec` streams rows of public operands
against it, summing each row's products in the evaluation domain so that it
interpolates once per output polynomial (Bermudo Mera, Karmakar and
Verbauwhede, "Time-memory trade-off in Toom-Cook multiplication", TCHES
2020). Public rows that stream against many secrets can be programmed the
same way, and `matvec` then multiplies their held transforms as they are.
Both take optional leading axes, so one call multiplies a batch of
independent secrets by their own operands. `multiply` is their one-pair
form, and `conv_raw` the unreduced one: the product of the two operands
zero-padded to 2n coefficients, modulo x^(2n) + 1, which does not wrap.
`schoolbook_mul`, an int64 convolution, is the one exact oracle: every
algorithm must agree with it bit-exactly, and the test suite checks it
against an independent big-integer convolution.

`matvec` takes its three large temporaries, the packed public operands, the
leaf sums and the rounded leaf, from a buffer kept per thread (`_Scratch`)
when the packed block has 64 KiB or more, as a Toom-Cook encryption's does
(126 KiB on TC4K2), up to 2 MiB in all. Allocated per call, blocks of that
size made the C allocator grow its heap and give it back on every product,
at a page fault per 4 KiB page. Smaller blocks, as one key's products on
the folding leaf have, are still allocated per call, and deciding so adds
no call to their path. Results and `Programmed.spectra` never view the
buffer.
"""

import decimal
import enum
import math
import threading
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

    def _placement(self) -> np.ndarray:
        """(limbs, 2 * product limbs) 0/±1 matrix that overlap-adds the
        product limbs into the folded product's chunks of k coefficients.
        Column 2t holds limb t's coefficients 0..k-1, which land in chunk
        offsets[t], and column 2t + 1 its coefficients k..2k-1 (the last one
        0), which land in chunk offsets[t] + 1; modulo x^n + 1, chunk
        limbs + g adds to chunk g with its sign flipped (x^n = -1)."""
        halves = (self.offsets[:, None] + np.arange(2)).ravel()
        place = np.zeros((2 * self.limbs, len(halves)))
        place[halves, np.arange(len(halves))] = 1
        return place[: self.limbs] - place[self.limbs:]

    @cached_property
    def output(self) -> np.ndarray:
        """The matrix the core applies after the leaf: the placement of the
        exact quotients' halves, or, for a table that never divides, the
        placement times the interpolation, applied to the halves of the
        leaf sums (column 2p + h takes half h of point p)."""
        if self.divides:
            return self._placement()
        return np.dot(self._placement(), np.kron(self.float_interpolation, np.eye(2)))

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
        sums the same rows bound (triangle inequality). Below 2^53 float64
        holds every integer, so each addition and fused multiply-add of
        these integers is exact whatever order BLAS sums in. The
        exact-division check multiplies each quotient q back: q d != y
        cannot round to y, since it is either exact or at least
        2^53 > |y|. The bound is per point because the points' leaf sums
        differ by orders of magnitude: with one M for all points, TC4K2's
        widest row (sum |I[t, p]| = 2550) would reject uniform operands
        mod 2^13 at n = 256.
        """
        interpolation = np.abs(self.float_interpolation)
        quotients = np.repeat(interpolation / self.float_denominators, 2, axis=0)
        return np.vstack([interpolation, np.dot(np.abs(self._placement()), quotients)])


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
    `_pack` checks that the values are exact."""
    limbs = x.reshape(-1, table.limbs, k).transpose(1, 0, 2).astype(np.float64, order="C")
    if table.points > 1:
        limbs = np.dot(table.float_evaluation, limbs.reshape(table.limbs, -1))
    return limbs.reshape((table.points,) + x.shape[:-1] + (k,))


# ---------------------------------------------------------------------------
# the core: program a secret once, stream public operands against it

# float64 unit round-off, and the error assumed for the FFT's roots of unity
# (the leaf's weights are computed to within it, see `_weights`)
_EPS = 2.0 ** -53
_ROOT_ERROR = 2.0 ** -52
# covers the rounding of the norms and of the bounds computed from them
_NORM_SLACK = 1.0 + 2.0 ** -20
# a leaf coefficient within this of an integer rounds to it exactly
_MAX_ROUNDOFF = 0.25


def _fft_size(k: int) -> int:
    """Smallest power of two of at least 2k coefficients: a (2k-1)-term
    linear convolution and one zero, so that a leaf product modulo
    x^size + 1 does not wrap and splits into two halves of k
    coefficients."""
    return 1 << (2 * k - 1).bit_length()


def _folds(table: _Table, n: int) -> bool:
    """Whether products of `table` at n coefficients run on the leaf at
    size = n, which folds modulo x^n + 1 itself: one limb, and n a power of
    two, so that its n/2-point transform has the radix-2 size that the
    round-off bound models."""
    return table.limbs == 1 and n > 1 and not n & (n - 1)


@lru_cache(maxsize=16)
def _weights(size: int) -> np.ndarray:
    """The weights zeta^j = exp(i pi j / size) for j < size/2, size a power
    of two, and their conjugates, which unweight: (2, size/2). They are
    computed in 40-digit decimal arithmetic, halving the angle pi/2 down to
    pi/size and then taking powers, and rounded once to float64, so each
    lies within sqrt(2) 2^-54 < `_ROOT_ERROR` of its exact value on any
    platform."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        cos, sin = decimal.Decimal(0), decimal.Decimal(1)
        for _ in range(size.bit_length() - 2):
            cos, sin = ((1 + cos) / 2).sqrt(), ((1 - cos) / 2).sqrt()
        re, im, weights = decimal.Decimal(1), decimal.Decimal(0), []
        for _ in range(size // 2):
            weights.append(complex(float(re), float(im)))
            re, im = re * cos - im * sin, re * sin + im * cos
    weights = np.array(weights)
    weights = np.stack([weights, weights.conj()])
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=64)
def _roundoff_factor(size: int, terms: int) -> float:
    """Factor f such that a leaf sum of `terms` products, each of two
    operands x and y packed into `size` complex values, is off by less than
    f * sum ||x|| ||y|| (Euclidean norms of their coefficients) in every
    coefficient.

    For one cyclic convolution of size = 2^m complex points, Percival's bound
    ("Rapid multiplication modulo the sum and difference of highly composite
    numbers", Math. Comp. 2003, Thm 5.1) is P = (1+e)^3m (1+e sqrt5)^(3m+1)
    (1+b)^3m - 1 times ||x|| ||y||, for unit round-off e and roots of unity
    within b of exact: three transforms of m radix-2 passes, and the
    pointwise complex products, each within e sqrt5 of exact relative to
    its factors.

    The leaf is such a convolution of the packed values u = x_lo + i x_hi,
    with ||u|| the norm of x's coefficients (zero padding adds nothing to
    it). It multiplies by weights within b of zeta^j, |zeta^j| = 1, three
    times: each operand before its forward transform, and the inverse
    transform's output c~ after it. Each such product is within
    d = (1 + e sqrt5)(1 + b) - 1 of exact relative to the unweighted factor.
    So the computed weighted operands are the exact ones plus r, r' with
    ||r|| <= d ||u|| and ||r'|| <= d ||v||, and their exact cyclic
    convolution moves by at most ((1+d)^2 - 1) ||u|| ||v||
    (Cauchy-Schwarz), Percival's bound on their norms adds (1+d)^2 P ||u||
    ||v||, and unweighting turns an error E in a coefficient c,
    |c| <= ||u|| ||v||, into at most (1+d) E + d |c|. In all,
    ((1+d)^3 (1+P) - 1) ||u|| ||v||: (1+e)^3m (1+e sqrt5)^(3m+4)
    (1+b)^(3m+3) - 1.

    The bound is summed over the products by the triangle inequality, with
    (1+e)^(terms-1) for the frequency-domain additions, which enter like the
    pointwise products' rounding. It models a radix-2 complex FFT; numpy's
    FFT is not that algorithm, so every call also checks the observed
    rounding residual.
    """
    m = size.bit_length() - 1
    return math.expm1(3 * m * math.log1p(_EPS)
                      + (3 * m + 4) * math.log1p(_EPS * math.sqrt(5))
                      + (3 * m + 3) * math.log1p(_ROOT_ERROR)
                      + (terms - 1) * math.log1p(_EPS))


@dataclass(frozen=True)
class Programmed:
    """A secret vector (..., l, n) transformed once, in the form its
    products use; or, the same way, public rows (..., rows, l, n) that
    stream against many secrets (`matvec`).

    `spectra` holds the leaf's transform of each weighted, packed operand,
    and `norms` the Euclidean norms of the coefficients each packs, both
    read-only. On the folding leaf (`ring`), the operands are the secret
    polynomials: (..., l, n/2) and (..., l). Otherwise they are the limbs
    evaluated at the algorithm's points and zero-padded to `_fft_size(k)`
    coefficients: (points, ..., l, size/2) and (points, ..., l), with the
    points axis leading, as everywhere in the core. Leading axes `...`, if
    any, index independent secrets (one per trial of a batch). `shape` and
    `size` are those of the coefficients, so that a count of products reads
    them as it reads an array's.
    """

    algorithm: MultAlgorithm
    secret: np.ndarray      # int64 (..., l, n)
    spectra: np.ndarray     # complex128
    norms: np.ndarray       # float64
    evaluations: int        # secret polynomials evaluated: polynomials x points
    ring: bool              # whether the leaf folds modulo x^n + 1 itself

    @property
    def n(self) -> int:
        return self.secret.shape[-1]

    @property
    def l(self) -> int:
        return self.secret.shape[-2]

    @property
    def shape(self) -> tuple:
        return self.secret.shape

    @property
    def size(self) -> int:
        return self.secret.size


class _Scratch(threading.local):
    """One thread's buffer for the large blocks of `matvec`: the packed
    operands, the leaf sums and the rounded leaf.

    Allocated anew on every call, blocks of 64 KiB and more make the C
    allocator grow its heap and give it back to the system each time, at
    a page fault per 4 KiB page touched again. The buffer instead grows to
    the largest blocks asked for, up to `_SCRATCH_CAP`, and stays. The
    packed operands lie at its start and the leaf sums after them; the
    rounded leaf reuses the start, as the leaf sums have consumed the
    packed operands by then. Nothing `matvec` returns views it, and no
    `Programmed` does: `program` packs into a new array."""

    def __init__(self):
        self.buffer = np.empty(0, dtype=np.complex128)

    def blocks(self, shape: tuple) -> tuple:
        """(packed, leaf sums, rounded leaf) for packed operands of `shape`
        (..., l, size/2): views of the buffer, or None three times, for new
        blocks, when the packed block and the leaf sums together exceed
        `_SCRATCH_CAP`."""
        count, leaf = math.prod(shape), math.prod(shape[:-2]) * shape[-1]
        if 16 * (count + leaf) > _SCRATCH_CAP:
            return None, None, None
        if len(self.buffer) < count + leaf:
            self.buffer = np.empty(count + leaf, dtype=np.complex128)
        sums = self.buffer[count:count + leaf].reshape(shape[:-2] + shape[-1:])
        rounded = self.buffer[:leaf].view(np.float64).reshape(
            shape[:-2] + (2 * shape[-1],))
        return self.buffer[:count].reshape(shape), sums, rounded


# packed blocks under `_SCRATCH_MIN` bytes are allocated per call: their
# churn is small, and the few microseconds that taking views of the buffer
# costs would be a visible share of their products. The buffer holds at most
# `_SCRATCH_CAP` bytes, twice what a batch of 32 trials' encryption takes on
# the folding leaf at n = 256.
_SCRATCH_MIN = 1 << 16
_SCRATCH_CAP = 1 << 21
_SCRATCH = _Scratch()


def _norms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(values, values))


def _widen(values: np.ndarray, axes: int) -> np.ndarray:
    """`values` with `axes` unit axes after the points axis."""
    return values.reshape(values.shape[:1] + (1,) * axes + values.shape[1:])


def _packed_shape(table: _Table, shape: tuple, folds: bool) -> tuple:
    """The shape of the packed operands of (..., n) coefficients (`_pack`)."""
    if folds:
        return shape[:-1] + (shape[-1] // 2,)
    return (table.points,) + shape[:-1] + (_fft_size(shape[-1] // table.limbs) // 2,)


def _pack(table: _Table, x: np.ndarray, folds: bool, packed: np.ndarray = None) -> tuple:
    """(..., n) int64 coefficients -> the leaf's weighted, packed operands
    and the Euclidean norms of the coefficients they pack. The folding leaf
    packs each polynomial into (..., n/2) complex values x_lo + i x_hi. Any
    other leaf packs each limb of k coefficients evaluated at the table's
    points, zero-padded to size = `_fft_size(k)` coefficients, into
    (points, ..., size/2) values, of which the first k are nonzero.

    `packed`, if given, is the block of `_packed_shape` to pack into, else
    a new one. The values are copied into it and weighted in place there,
    as a product of the float values with the complex weights would first
    convert them to complex in numpy's buffers, two of up to the whole
    block's size.

    Every partial sum of an evaluated value is at most max |x| times the
    table's widest evaluation row (1 for one limb), and each call checks
    that this stays below 2^53, so the values are exact before weighting."""
    if x.size and not (max(int(x.max()), -int(x.min())) * table.evaluation_weight
                       < _EXACT_FLOAT_LIMIT):
        raise ArithmeticError("operands exceed the exact float64 range of the evaluation")
    n = x.shape[-1]
    if folds:
        half = n // 2
        if packed is None:
            packed = np.empty(x.shape[:-1] + (half,), dtype=np.complex128)
        packed.real, packed.imag = x[..., :half], x[..., half:]
        norms = _norms(packed.view(np.float64))
        packed *= _weights(n)[0]
        return packed, norms
    k = n // table.limbs
    size = _fft_size(k)
    values = _evaluate(table, x, k)  # (points, ..., k)
    if packed is None:
        packed = np.empty(values.shape[:-1] + (size // 2,), dtype=np.complex128)
    packed[..., :k] = values
    packed[..., :k] *= _weights(size)[0, :k]
    packed[..., k:] = 0
    return packed, _norms(values)


def program(alg: MultAlgorithm, s) -> Programmed:
    """Transform the secret vector `s` (..., l, n) once, for any number of
    `matvec`s; or public rows (..., rows, l, n), for `matvec`s against any
    number of secrets."""
    s = np.asarray(s, dtype=np.int64)
    table = _TABLES[alg]
    n = s.shape[-1]
    _limb_size(table, alg, n)
    folds = _folds(table, n)
    packed, norms = _pack(table, s, folds)
    spectra = np.fft.fft(packed, axis=-1, out=packed)
    spectra.setflags(write=False)
    norms.setflags(write=False)
    return Programmed(alg, s, spectra, norms, s.size // n * table.points, folds)


def matvec(h: Programmed, a) -> np.ndarray:
    """(..., rows, n) negacyclic sums sum_j a[..., i, j] * s_j for a of shape
    (..., rows, l, n), unreduced.

    `a` is the rows' coefficients, or the rows programmed once for many
    secrets, `program(h.algorithm, a)`, with the secret's leading axes: then
    their packing and forward transforms are already done, and their norms
    are read from the handle. Every check below runs either way.

    Each row's l leaf products at a point are summed in the frequency
    domain, so the row takes one inverse transform per point. A coefficient
    of a leaf sum adds, over j, signed products of x_j's coefficients with
    some of y_j's, so it is at most M = sum_j ||x_j|| ||y_j|| over the row's
    packed operands (Cauchy-Schwarz), and each call checks M against the
    leaf's round-off bound, so that every coefficient rounds to its exact
    integer. On the folding leaf that bound's factor exceeds 2^-50, so
    M < 2^48 then: the rounded halves are the exact folded sums, and no
    float64 sum follows the leaf. Otherwise each call also checks the
    bounds M_p of every point p through the table's `growth` against 2^53,
    so that every float64 sum after the leaf is exact.
    """
    table = _TABLES[h.algorithm]
    held = type(a) is Programmed
    if held:
        if a.algorithm is not h.algorithm:
            raise ValueError(f"rows programmed for {a.algorithm.value} do not stream "
                             f"against a {h.algorithm.value} secret")
    else:
        a = np.asarray(a, dtype=np.int64)
    l, n = a.shape[-2:]
    if (l, n) != (h.l, h.n):
        raise ValueError(f"operand rows of {l} x {n} coefficients do not match "
                         f"the programmed {h.l} x {h.n} secret")
    if a.shape[:-3] != h.secret.shape[:-2]:  # shared operands or a shared secret
        if held:
            raise ValueError("programmed rows must have the secret's leading axes")
        a = np.broadcast_to(a, np.broadcast_shapes(a.shape[:-3], h.secret.shape[:-2])
                            + a.shape[-3:])
    # the packed block takes spectra.nbytes / secret.size bytes per
    # coefficient of a; a small one is new, with no call to decide it
    x = leaf = exact = None
    if a.size * h.spectra.nbytes >= _SCRATCH_MIN * h.secret.size:
        x, leaf, exact = _SCRATCH.blocks(_packed_shape(table, a.shape, h.ring))
    if held:
        norms = a.norms
    else:
        x, norms = _pack(table, a, h.ring, x)  # ([points,] ..., rows, l, size/2)
    if h.ring:
        spectra = h.spectra
        bound = np.vecdot(norms, h.norms[..., None, :]).max() * _NORM_SLACK
    else:
        extra = norms.ndim - h.norms.ndim - 1  # leading axes a has beyond s
        spectra = _widen(h.spectra, extra)
        bound = np.vecdot(norms, _widen(h.norms, extra)[..., None, :])
        bound = bound.reshape(len(bound), -1).max(axis=1) * _NORM_SLACK  # per point
        if not np.dot(table.growth, bound).max() < _EXACT_FLOAT_LIMIT:
            raise ArithmeticError("operands exceed the exact float64 range of the interpolation")
        bound = bound.max()
    if not bound * _roundoff_factor(h.spectra.shape[-1], l) < _MAX_ROUNDOFF:
        raise ArithmeticError("operands exceed the exact range of the FFT leaf")
    if held:  # the held spectra stay as they are
        x = np.multiply(a.spectra, spectra[..., None, :, :], out=x)
    else:
        x = np.fft.fft(x, axis=-1, out=x)
        x *= spectra[..., None, :, :]
    # freeing each new block once used keeps a batch's peak memory down
    leaf = np.add.reduce(x, axis=-2, out=leaf)
    del x
    leaf = np.fft.ifft(leaf, axis=-1, out=leaf)
    leaf *= _weights(2 * leaf.shape[-1])[1]
    flat = leaf.view(np.float64)  # low and high halves, interleaved
    exact = np.rint(flat, out=exact)
    flat -= exact
    if not np.abs(flat, out=flat).max() < _MAX_ROUNDOFF:
        raise ArithmeticError("FFT leaf round-off reached 1/4")
    halves = exact.reshape(exact.shape[:-1] + (-1, 2)).swapaxes(-1, -2)
    if h.ring:
        return halves.astype(np.int64, order="C").reshape(exact.shape)
    # the limb products in halves of k coefficients, row 2p + h for half h
    # of point p
    k, size = n // table.limbs, exact.shape[-1]
    halves = halves.reshape(len(halves), -1, 2, size // 2)  # (points, rows, 2, size/2)
    if size > 2 * k:  # the limb products fill only their first 2k coefficients
        halves = halves.reshape(len(halves), -1, size)[..., : 2 * k]
        halves = halves.reshape(len(halves), -1, 2, k)
    halves = halves.swapaxes(1, 2).reshape(2 * len(halves), -1)
    if table.divides:
        sums = np.dot(table.float_interpolation, halves.reshape(table.points, -1))
        exact = np.rint(sums / table.float_denominators)
        if (exact * table.float_denominators != sums).any():
            raise ArithmeticError("Toom-Cook interpolation produced a non-integer")
        halves = exact.reshape(2 * len(exact), -1)
    chunks = np.dot(table.output, halves).reshape(table.limbs, -1, k)
    out = chunks.transpose(1, 0, 2).astype(np.int64, order="C")  # (... rows, limbs, k)
    return out.reshape(a.shape[:-2] + (n,))


def conv_raw(alg: MultAlgorithm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full (2n-1)-term product of two coefficient arrays, no reduction:
    `matvec` on both zero-padded to 2n coefficients, whose product modulo
    x^(2n) + 1 does not wrap."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    _limb_size(_TABLES[alg], alg, len(b))
    a, b = (np.concatenate([x, np.zeros_like(x)]) for x in (a, b))
    return matvec(program(alg, b[None]), a[None, None])[0, :-1]


def multiply(alg: MultAlgorithm, a: Poly, b: Poly) -> Poly:
    """a * b in R_q: `matvec` on one row of one polynomial, against `b`
    programmed as a one-polynomial secret."""
    _check_pair(a, b)
    return Poly(matvec(program(alg, b.coeffs[None]), a.coeffs[None, None])[0], a.modulus)
