"""Module-LWR public-key encryption (SABER PKE).

Key generation, encryption and decryption are parameterized over a
polynomial-multiplication backend so the same code path runs on the software
algorithms and on the crossbar simulator. Each operation multiplies public
polynomials by one small centered secret vector, and multiplies the way a
crossbar does: it programs the secret once (the handle that
`backend.install_boot_secret` or `backend.program_secret` returns, or
`backend.program` in decryption) and streams every product against it in
one `backend.matvec` call, whose rows are the rows of A (its columns for
A^T s) and the vector b. Backends receive the secret in centered form.
`encrypt` also holds, per thread, the transform of the rows [A; b] of a
public key it encrypts to twice in a row (`_HeldRows`), so that a stream of
messages to one key transforms them once.

The equations themselves (`keygen_arrays`, `encrypt_arrays`,
`decrypt_arrays`) work on coefficient arrays with an optional leading axis
of independent instances, so the noise Monte Carlo runs a whole batch of
trials through one call each; `keygen`, `encrypt` and `decrypt` run them on
one message. `decrypt_sums` is the decryption equation on its own, for
products already computed, which a noisy read can reuse. Keys and
ciphertexts hold those coefficient arrays as they are, and compare by value.
"""

import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .params import RingParams, DEFAULT_PARAMS
from .ring import Poly, _ByValue, _reduce, gen_matrix, sample_secret, unpack_values
from .polymult import MultAlgorithm, Programmed, program, matvec


@dataclass(frozen=True, eq=False)
class PublicKey(_ByValue):
    seed_A: bytes
    b: np.ndarray  # (l, n) in [0, p), read-only


@dataclass(frozen=True, eq=False)
class SecretKey(_ByValue):
    s_centered: np.ndarray  # (l, n) signed, coefficients in [-mu/2, mu/2]


@dataclass(frozen=True, eq=False)
class Ciphertext(_ByValue):
    c_m: np.ndarray      # (n,) in [0, T), read-only
    b_prime: np.ndarray  # (l, n) in [0, p), read-only


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


class SoftwareBackend:
    """Multiplies with one of the software algorithms.

    `program` evaluates a secret vector once at the algorithm's points and
    `matvec` streams public operands against it. `mult_count` counts logical
    PolyMults; `secret_evaluations` counts secret polynomials evaluated, one
    per polynomial and evaluation point of `plan_for(algorithm)`.
    """

    def __init__(self, algorithm: MultAlgorithm = MultAlgorithm.TC4K2):
        self.algorithm = algorithm
        self.mult_count = 0
        self.secret_evaluations = 0

    def install_boot_secret(self, s_centered: np.ndarray) -> Programmed:
        """The handle of the (..., l, n) key-generation secret (`program`);
        software has no slot to write."""
        return self.program(s_centered)

    def program_secret(self, s_centered: np.ndarray) -> Programmed:
        """The handle of the (..., l, n) ephemeral secret (`program`)."""
        return self.program(s_centered)

    def program(self, s_centered: np.ndarray) -> Programmed:
        """Evaluate the (..., l, n) centered secret for any number of
        `matvec`s. Feeding the centered secret keeps the intermediates
        small; any representative is valid before the final mod."""
        handle = program(self.algorithm, s_centered)
        self.secret_evaluations += handle.evaluations
        return handle

    def matvec(self, rows, handle: Programmed, moduli) -> np.ndarray:
        """Sum over j of rows[..., i, j] * s_j for every row i of the
        (..., rows, l, n) array, or of the rows programmed (`matvec` of
        `polymult`), as signed length-n arrays not yet reduced modulo the
        rows' `moduli`, on which exact products do not depend."""
        self.mult_count += rows.size // rows.shape[-1]
        return matvec(handle, rows)

    def mul_raw(self, a: Poly, s_poly_centered: np.ndarray) -> np.ndarray:
        """One negacyclic product, reduced modulo a.modulus, as every
        backend's `mul_raw` returns it."""
        s = np.asarray(s_poly_centered)
        return _reduce(self.matvec(a.coeffs[None, None], self.program(s[None]),
                                   [a.modulus])[0], a.modulus)

    def reset_counters(self) -> None:
        self.mult_count = 0
        self.secret_evaluations = 0


# ---------------------------------------------------------------------------
# the SABER equations over coefficient arrays. A leading axis, if any, holds
# independent instances (one per Monte Carlo trial). Each equation programs
# its secret once and streams all of its products in one matvec.

def keygen_arrays(A: np.ndarray, s: np.ndarray, params: RingParams, backend) -> np.ndarray:
    """b = ((A^T s + h) mod q) >> (eps_q - eps_p), (..., l, n) mod p, for
    A (..., l, l, n) mod q and the centered secret s (..., l, n)."""
    handle = backend.install_boot_secret(s)
    As = backend.matvec(np.swapaxes(A, -3, -2), handle, [params.q] * params.l)
    return _reduce(As + params.h1, params.q) >> (params.eps_q - params.eps_p)


def encrypt_arrays(A: np.ndarray, b: np.ndarray, m: np.ndarray, s_prime: np.ndarray,
                   params: RingParams, backend):
    """(c_m (..., n) mod T, b' (..., l, n) mod p) for the message bits m
    (..., n), the public key (A, b) and the centered ephemeral secret s'."""
    handle = backend.program_secret(s_prime)
    return _encrypt_rows(_public_rows(A, b), m, handle, params, backend)


def _public_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows that stream against s' in encryption, [A; b] (..., l + 1, l,
    n): A s' rather than A^T s', so that b^T s' and b'^T s cancel in
    decryption."""
    return np.concatenate([A, b[..., None, :, :]], axis=-3)


def _encrypt_rows(rows, m: np.ndarray, handle: Programmed, params: RingParams, backend):
    """The encryption equation on the rows [A; b], as coefficients or
    programmed, streamed against the handle of s'."""
    sums = backend.matvec(rows, handle, [params.q] * params.l + [params.p])
    b_prime = _reduce(sums[..., :-1, :] + params.h1, params.q) >> (params.eps_q - params.eps_p)
    pre = _reduce(sums[..., -1, :] + params.h1 - (m << (params.eps_p - 1)), params.p)
    return pre >> (params.eps_p - params.eps_T), b_prime


class _HeldRows(threading.local):
    """The public key this thread last encrypted to, and its rows [A; b],
    programmed once the key repeats.

    As the crossbar's slots hold the secret's transform, a key that many
    messages go to need not be packed and transformed for each of them.
    `encrypt` holds the key before it programs the secret, so that a key
    that would not serialize is refused before any backend work. The second
    encryption in a row to an equal key (the same parameters, seed_A and b
    by value) with the same algorithm programs its rows (`polymult.program`),
    and every further one streams them as they are. A key's first
    encryption with an algorithm transforms nothing: a fresh key costs one
    comparison, one copy of b and `_check_public_key`, and a held key is not
    checked again. A thread holds one entry: a copy of b's bytes and at most
    one transform (24 KiB on SB at the default parameters, 126 KiB on
    TC4K2)."""

    def __init__(self):
        self.key = None        # (seed_A, params, b's dtype and shape)
        self.b = None          # b's bytes: with its dtype and shape, its value
        self.algorithm = None  # of the held key's latest encryption
        self.rows = None       # the rows programmed for it, once it repeated

    def hold(self, pk: PublicKey, params: RingParams) -> None:
        """Hold `pk`, checked unless it is the key already held."""
        key = (pk.seed_A, params, pk.b.dtype, pk.b.shape)
        b = pk.b.tobytes()
        if key != self.key or b != self.b:
            _check_public_key(pk, params)
            self.key, self.b, self.algorithm, self.rows = key, b, None, None

    def rows_for(self, pk: PublicKey, params: RingParams, algorithm: MultAlgorithm):
        """The rows of the held `pk` to stream against a secret of `algorithm`:
        programmed when the key repeats with it, else coefficients."""
        A = gen_matrix(pk.seed_A, params)
        if algorithm is not self.algorithm:
            self.algorithm, self.rows = algorithm, None
            return _public_rows(A, pk.b)
        if self.rows is None:
            self.rows = program(algorithm, _read_only(_public_rows(A, pk.b)))
        return self.rows


_HELD_ROWS = _HeldRows()


def decrypt_arrays(s: np.ndarray, c_m: np.ndarray, b_prime: np.ndarray,
                   params: RingParams, backend) -> np.ndarray:
    """The message coefficients before rounding, (..., n) mod p: each
    message bit is the top bit of its coefficient."""
    v = backend.matvec(b_prime[..., None, :, :], backend.program(s), [params.p])
    return decrypt_sums(v[..., 0, :], c_m, params)


def decrypt_sums(v: np.ndarray, c_m: np.ndarray, params: RingParams) -> np.ndarray:
    """The decryption equation on products already computed: the message
    coefficients before rounding, (..., n) mod p, from the unreduced sums
    v = b'^T s (..., n) and c_m (..., n) mod T."""
    return _reduce(v - (c_m << (params.eps_p - params.eps_T)) + params.h2, params.p)


def keygen(seed_A: bytes, r: bytes, params: RingParams = DEFAULT_PARAMS,
           backend=None):
    """b = ((A^T s + h) mod q) >> (eps_q - eps_p); pk = (seed_A, b), sk = s."""
    backend = backend or SoftwareBackend()
    A = gen_matrix(seed_A, params)
    s = sample_secret(r, params)
    b = keygen_arrays(A, s, params, backend)
    return PublicKey(bytes(seed_A), _read_only(b)), SecretKey(s)


def encrypt(pk: PublicKey, m: Poly, r_prime: bytes,
            params: RingParams = DEFAULT_PARAMS, backend=None) -> Ciphertext:
    if m.modulus != 2 or m.n != params.n:
        raise ValueError("message must be a degree-n polynomial over modulus 2")
    backend = backend or SoftwareBackend()
    _HELD_ROWS.hold(pk, params)
    s_prime = sample_secret(r_prime, params)
    handle = backend.program_secret(s_prime)
    rows = _HELD_ROWS.rows_for(pk, params, handle.algorithm)
    c_m, b_prime = _encrypt_rows(rows, m.coeffs, handle, params, backend)
    return Ciphertext(_read_only(c_m), _read_only(b_prime))


def decrypt(sk: SecretKey, ct: Ciphertext, params: RingParams = DEFAULT_PARAMS,
            backend=None) -> Poly:
    backend = backend or SoftwareBackend()
    pre = decrypt_arrays(sk.s_centered, ct.c_m, ct.b_prime, params, backend)
    return Poly(pre >> (params.eps_p - 1), 2)


# ---------------------------------------------------------------------------
# message <-> bytes and CRC framing

def encode_messages(messages, params: RingParams = DEFAULT_PARAMS) -> np.ndarray:
    """The plaintext bits of each n/8-byte message, (messages, n) int64:
    bit i (little-endian within bytes) becomes coefficient i."""
    if any(len(data) * 8 != params.n for data in messages):
        raise ValueError(f"message must be exactly {params.n // 8} bytes")
    bits = np.unpackbits(np.frombuffer(b"".join(messages), dtype=np.uint8), bitorder="little")
    return bits.reshape(-1, params.n).astype(np.int64)


def encode_message(data: bytes, params: RingParams = DEFAULT_PARAMS) -> Poly:
    """The plaintext polynomial of one message (`encode_messages`)."""
    return Poly(encode_messages([data], params)[0], 2)


def decode_message(m: Poly) -> bytes:
    return np.packbits(m.coeffs.astype(np.uint8), bitorder="little").tobytes()


def frame_payload(payload: bytes, params: RingParams = DEFAULT_PARAMS) -> bytes:
    """Append CRC-32 so the plaintext fills n bits; payload is n/8 - 4 bytes."""
    want = params.n // 8 - 4
    if len(payload) != want:
        raise ValueError(f"payload must be {want} bytes")
    return payload + zlib.crc32(payload).to_bytes(4, "little")


def check_frame(frame: bytes) -> bool:
    payload, crc = frame[:-4], frame[-4:]
    return zlib.crc32(payload).to_bytes(4, "little") == crc


# ---------------------------------------------------------------------------
# bit-exact serialization

def pack_values(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned values little-endian, `width` bits each, for width
    0..25 (as `unpack_values` reads them): the low `width` bits of each
    value's 4-byte little-endian word, back to back. Every value must lie
    in [0, 2^width)."""
    if not 0 <= width <= 25:
        raise ValueError(f"value width must be 0..25 bits, got {width}")
    values = np.asarray(values, dtype=np.int64)
    _check_width(values, width)
    words = values.astype("<u4").view(np.uint8)
    bits = np.unpackbits(words.reshape(-1, 4), axis=1, count=width, bitorder="little")
    return np.packbits(bits, bitorder="little").tobytes()


class SerializationError(ValueError):
    """Bytes of the wrong length, or values outside their serialized range."""


def _check_width(values: np.ndarray, width: int) -> None:
    """Every integer value lies in [0, 2^width), in one reduction: a
    negative value sets the sign bit, a large one a bit at or above `width`."""
    if np.bitwise_or.reduce(values, axis=None) >> width:
        raise SerializationError(f"values must lie in [0, 2^{width})")


def _check_public_key(pk: PublicKey, params: RingParams) -> None:
    """A key that serializes at `params`: a 32-byte seed_A, and b an (l, n)
    integer array of values in [0, p)."""
    if not isinstance(pk.seed_A, bytes) or len(pk.seed_A) != 32:
        raise SerializationError("public key seed_A must be 32 bytes")
    if pk.b.shape != (params.l, params.n) or not np.can_cast(pk.b.dtype, np.int64):
        raise SerializationError(f"public key b must be an ({params.l}, {params.n}) integer "
                                 f"array, got {pk.b.dtype} of shape {pk.b.shape}")
    _check_width(pk.b, params.eps_p)


def _check_length(data: bytes, want: int, what: str) -> None:
    if len(data) != want:
        raise SerializationError(f"{what} must be {want} bytes, got {len(data)}")


def pack_public_key(pk: PublicKey, params: RingParams = DEFAULT_PARAMS) -> bytes:
    return pk.seed_A + pack_values(pk.b.ravel(), params.eps_p)


def unpack_public_key(data: bytes, params: RingParams = DEFAULT_PARAMS) -> PublicKey:
    _check_length(data, 32 + params.l * params.n * params.eps_p // 8, "public key")
    seed, rest = data[:32], data[32:]
    vals = unpack_values(rest, params.eps_p, params.l * params.n)
    return PublicKey(seed, _read_only(vals.reshape(params.l, params.n)))


def pack_secret_key(sk: SecretKey, params: RingParams = DEFAULT_PARAMS) -> bytes:
    # 4-bit two's complement per centered coefficient
    s = np.asarray(sk.s_centered)
    if s.min() < -8 or s.max() > 7:
        raise SerializationError("secret coefficients must lie in [-8, 7]")
    return pack_values(s.ravel() & 0xF, 4)


def unpack_secret_key(data: bytes, params: RingParams = DEFAULT_PARAMS) -> SecretKey:
    _check_length(data, params.l * params.n * 4 // 8, "secret key")
    vals = unpack_values(data, 4, params.l * params.n)
    signed = np.where(vals >= 8, vals - 16, vals)
    return SecretKey(signed.reshape(params.l, params.n))


def pack_ciphertext(ct: Ciphertext, params: RingParams = DEFAULT_PARAMS) -> bytes:
    return (pack_values(ct.c_m, params.eps_T)
            + pack_values(ct.b_prime.ravel(), params.eps_p))


def unpack_ciphertext(data: bytes, params: RingParams = DEFAULT_PARAMS) -> Ciphertext:
    n_cm = params.n * params.eps_T // 8
    _check_length(data, n_cm + params.l * params.n * params.eps_p // 8, "ciphertext")
    c_m = unpack_values(data[:n_cm], params.eps_T, params.n)
    vals = unpack_values(data[n_cm:], params.eps_p, params.l * params.n)
    return Ciphertext(_read_only(c_m), _read_only(vals.reshape(params.l, params.n)))
