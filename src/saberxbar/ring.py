"""Exact arithmetic in Z_q and the negacyclic ring R_q = Z_q[x]/(x^n + 1).

Coefficients live in numpy int64 arrays, and products come back from the
multipliers as exact int64 sums, unreduced before the final reduction. Every
modulus is a power of two, as SABER's are, so every reduction is a mask
(`_reduce`). A `Poly` is one polynomial with its modulus, which it checks;
vectors and matrices of polynomials are plain (l, n) and (l, l, n) arrays
whose modulus is the one of the equation that uses them. All values are
treated as immutable after construction.

Seed expansion is batched: `gen_matrices` and `sample_secrets` expand any
number of seeds, each from its own XOF stream, and unpack every stream with
one `unpack_values` call. `gen_matrix` (memoized per seed) and
`sample_secret` expand one seed through them.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .params import RingParams, DEFAULT_PARAMS, _log2_exact
from .xof import Shake128Xof


class DimensionError(ValueError):
    pass


def _reduce(coeffs: np.ndarray, modulus: int) -> np.ndarray:
    """int64 `coeffs` modulo the power of two `modulus`, into [0, modulus):
    a mask, which two's complement makes exact for negatives too."""
    return coeffs & (modulus - 1)


class _ByValue:
    """Equality by value for dataclasses declared with eq=False: the same
    class, and every field equal, arrays element by element."""

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(vars(self).values(), vars(other).values()))


@dataclass(frozen=True, eq=False)
class Poly(_ByValue):
    """A polynomial of degree < n with coefficients reduced into [0, modulus),
    for a modulus that is a power of two (ValueError otherwise)."""

    coeffs: np.ndarray
    modulus: int

    def __post_init__(self):
        _log2_exact(self.modulus)
        c = _reduce(np.asarray(self.coeffs, dtype=np.int64), self.modulus)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return len(self.coeffs)


def _check_pair(a: Poly, b: Poly) -> None:
    if a.n != b.n:
        raise DimensionError(f"degree mismatch: {a.n} vs {b.n}")
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} vs {b.modulus}")


def fold_negacyclic(coeffs, n: int) -> np.ndarray:
    """Fold up-to-(2n-1)-coefficient products (the last axis) modulo
    x^n + 1, unreduced.

    Coefficient i of the result is coeffs[i] - coeffs[i + n] since x^n = -1.
    """
    c = np.asarray(coeffs, dtype=np.int64)
    if c.ndim == 0 or c.shape[-1] > 2 * n - 1:
        raise DimensionError(f"expected at most {2 * n - 1} coefficients, got {c.shape}")
    out = np.zeros(c.shape[:-1] + (n,), dtype=np.int64)
    out[..., : min(n, c.shape[-1])] = c[..., :n]
    if c.shape[-1] > n:
        out[..., : c.shape[-1] - n] -= c[..., n:]
    return out


@functools.lru_cache(maxsize=16)
def _gather_plan(count: int, width: int):
    """For `count` values of `width` bits packed back to back: the byte each
    value starts in, and its bit offset there, (count,) each."""
    start = np.arange(count, dtype=np.int64) * width
    first, shift = start >> 3, (start & 7).astype(np.uint32)
    first.setflags(write=False)
    shift.setflags(write=False)
    return first, shift


def unpack_values(data: bytes, width: int, count: int, streams: int = 1) -> np.ndarray:
    """The first `count` little-endian `width`-bit values packed back to back
    in each of `streams` equal-length byte streams, which `data` holds one
    after another: (streams * count,) int64, stream by stream.

    A value starts at one of a byte's 8 bits, so for width <= 25 the 4-byte
    little-endian word from its first byte holds it, shifted and masked. A
    strided view holds the word at every byte of every stream, and one
    gather along its byte axis, by a plan cached per (count, width), picks
    each value's word in every stream at once. A word from one of a
    stream's last 3 bytes reaches into the next stream or into zero
    padding; the mask drops those bits."""
    if not 0 <= width <= 25:
        raise ValueError(f"value width must be 0..25 bits, got {width}")
    if streams < 1 or len(data) % streams:
        raise ValueError(f"{len(data)} bytes do not split into {streams} equal streams")
    stride = len(data) // streams
    if stride * 8 < count * width:
        raise ValueError(f"{stride} bytes hold fewer than {count} {width}-bit values")
    if not width:
        return np.zeros(streams * count, dtype=np.int64)
    first, shift = _gather_plan(count, width)
    buffer = np.frombuffer(bytes(data) + bytes(3), dtype=np.uint8)
    # word [i, b]: the 4 bytes from byte b of stream i
    words = np.ndarray((streams, stride), "<u4", buffer, strides=(stride, 1))
    values = words.take(first, axis=1)  # a copy, shifted and masked in place
    values >>= shift
    values &= (1 << width) - 1
    return values.astype(np.int64).reshape(-1)


def _expand(seeds, what: str, count: int, width: int) -> np.ndarray:
    """The first `count` `width`-bit values of each 32-byte seed's own XOF
    stream, (seeds * count,) seed by seed, all unpacked in one call."""
    if any(len(seed) != 32 for seed in seeds):
        raise ValueError(f"{what} must be 32 bytes")
    if not len(seeds):
        return np.zeros(0, dtype=np.int64)
    size = (count * width + 7) // 8
    data = b"".join(Shake128Xof(seed).squeeze(size) for seed in seeds)
    return unpack_values(data, width, count, len(seeds))


def gen_matrices(seeds, params: RingParams = DEFAULT_PARAMS) -> np.ndarray:
    """Expand each 32-byte seed into its public l x l matrix over R_q:
    (seeds, l, l, n) coefficients in [0, q).

    Coefficients are consecutive little-endian eps_q-bit chunks of the seed's
    XOF stream, filled in row-major matrix order. Power-of-two q makes the
    extraction rejection-free.
    """
    l, n = params.l, params.n
    return _expand(seeds, "seed", l * l * n, params.eps_q).reshape(-1, l, l, n)


@functools.lru_cache(maxsize=64)
def gen_matrix(seed: bytes, params: RingParams = DEFAULT_PARAMS) -> np.ndarray:
    """The public matrix of one seed (`gen_matrices`), (l, l, n) in [0, q),
    memoized per seed since key generation and encryption expand the same
    matrix. Every hit returns the same array, so it is read-only."""
    matrix = gen_matrices([seed], params)[0]
    matrix.setflags(write=False)
    return matrix


def sample_secrets(seeds, params: RingParams = DEFAULT_PARAMS) -> np.ndarray:
    """Sample a centered binomial secret vector from each 32-byte seed:
    (seeds, l, n) signed.

    Each coefficient is HW(a) - HW(b) for independent mu/2-bit strings a, b,
    so it lies in [-mu/2, mu/2]. The centered form is what the crossbar's
    bias encoding consumes, and what the multipliers take: a product is
    reduced only after it is summed.
    """
    l, n, mu = params.l, params.n, params.mu
    half = mu // 2
    vals = _expand(seeds, "r", l * n, mu).reshape(-1, l, n)
    # HW(a) - HW(b) = HW(a) + HW(b with its bits flipped) - mu/2
    flipped = np.bitwise_count(vals ^ (((1 << half) - 1) << half))
    return np.subtract(flipped, half, dtype=np.int64)


def sample_secret(r: bytes, params: RingParams = DEFAULT_PARAMS) -> np.ndarray:
    """The (l, n) secret vector of one seed (`sample_secrets`)."""
    return sample_secrets([r], params)[0]

