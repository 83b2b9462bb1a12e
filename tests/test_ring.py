import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from saberxbar.params import RingParams, DEFAULT_PARAMS
from saberxbar.ring import (Poly, DimensionError, fold_negacyclic,
                            gen_matrix, gen_matrices, sample_secret, sample_secrets,
                            unpack_values, _expand)
from saberxbar.polymult import schoolbook_mul
from saberxbar.xof import Shake128Xof


def test_poly_reduces_into_modulus_range():
    p = Poly([-1, 5, 17], 16)
    assert list(p.coeffs) == [15, 5, 1]
    assert p.n == 3
    assert p == Poly([15, 5, 1], 16)
    assert p != Poly([15, 5, 1], 32) and p != Poly([15, 5], 16)


def test_poly_coeffs_are_read_only():
    p = Poly([1, 2, 3], 8)
    with pytest.raises(ValueError):
        p.coeffs[0] = 7


def test_poly_dimension_and_modulus_checks():
    with pytest.raises(DimensionError):
        schoolbook_mul(Poly([1, 2], 8), Poly([1, 2, 3], 8))
    with pytest.raises(ValueError):
        schoolbook_mul(Poly([1, 2], 8), Poly([1, 2], 16))


def test_reduce_negacyclic_basic_identity():
    # x^n == -1: coefficient i of the result is c[i] - c[i+n]
    params = RingParams(n=4)
    q = params.q
    got = Poly(fold_negacyclic([3, 0, 2, 0, 1, 10, 6], params.n), params.q)
    assert list(got.coeffs) == [2, q - 10, q - 4, 0]


def test_reduce_negacyclic_rejects_too_long_input():
    with pytest.raises(DimensionError):
        fold_negacyclic(np.zeros(8), RingParams(n=4).n)


def test_negacyclic_product_matches_direct_reduction():
    rng = np.random.default_rng(0)
    q = DEFAULT_PARAMS.q
    for _ in range(20):
        a = rng.integers(-50, 50, 16)
        b = rng.integers(-50, 50, 16)
        conv = np.convolve(a, b)
        want = conv[:16].copy()
        want[: len(conv) - 16] -= conv[16:]
        assert schoolbook_mul(Poly(a, q), Poly(b, q)) == Poly(want, q)


def test_negacyclic_product_symbolic_degree3():
    # (a0 + a1 x + a2 x^2)(b0 + b1 x + b2 x^2) mod (x^3 + 1):
    #   x^0: a0b0 - a1b2 - a2b1
    #   x^1: a0b1 + a1b0 - a2b2
    #   x^2: a0b2 + a1b1 + a2b0
    rng = np.random.default_rng(1)
    q = DEFAULT_PARAMS.q
    for _ in range(50):
        a0, a1, a2, b0, b1, b2 = (int(v) for v in rng.integers(-9, 10, 6))
        got = schoolbook_mul(Poly([a0, a1, a2], q), Poly([b0, b1, b2], q))
        assert got == Poly([a0 * b0 - a1 * b2 - a2 * b1,
                            a0 * b1 + a1 * b0 - a2 * b2,
                            a0 * b2 + a1 * b1 + a2 * b0], q)


def test_negacyclic_product_exact_at_worst_saber_magnitude():
    params = RingParams()
    a = np.full(params.n, params.q - 1, dtype=np.int64)
    b = np.full(params.n, -(params.mu // 2), dtype=np.int64)
    conv = np.convolve(a, b)  # int64, exact
    want = conv[: params.n].copy()
    want[: len(conv) - params.n] -= conv[params.n:]
    assert schoolbook_mul(Poly(a, params.q), Poly(b, params.q)) == Poly(want, params.q)


def test_constants_values():
    assert DEFAULT_PARAMS.h1 == 1 << 2
    assert DEFAULT_PARAMS.h2 == (1 << 8) - (1 << 5) + (1 << 2)


def test_params_validation():
    with pytest.raises(ValueError):
        RingParams(n=100)
    with pytest.raises(ValueError):
        RingParams(q=1 << 10, p=1 << 10)
    with pytest.raises(ValueError):
        RingParams(mu=7)


def test_gen_matrix_deterministic_and_in_range():
    seed = bytes(range(32))
    A = gen_matrix(seed)
    B = gen_matrix.__wrapped__(seed)
    assert np.array_equal(A, B)
    assert A.shape == (3, 3, DEFAULT_PARAMS.n) and A.dtype == np.int64
    assert A.min() >= 0 and A.max() < DEFAULT_PARAMS.q


def test_gen_matrix_array_is_memoized_and_read_only():
    A = gen_matrix(bytes(range(1, 33)))
    assert A.shape == (3, 3, DEFAULT_PARAMS.n)
    assert gen_matrix(bytes(range(1, 33))) is A
    with pytest.raises(ValueError):
        A[0, 0, 0] = 1  # a write would corrupt every later hit of the cache


def _reference_values(raw: bytes, count: int, width: int) -> list:
    """Little-endian `width`-bit values read bit by bit."""
    bits = [(byte >> i) & 1 for byte in raw for i in range(8)]
    return [sum(bits[v * width + i] << i for i in range(width)) for v in range(count)]


def _squeezed(fn):
    """fn's result, and the bytes it drew from XOF streams."""
    drawn = []
    squeeze = Shake128Xof.squeeze

    def counted(xof, count):
        out = squeeze(xof, count)
        drawn.append(len(out))
        return out
    Shake128Xof.squeeze = counted
    try:
        return fn(), sum(drawn)
    finally:
        Shake128Xof.squeeze = squeeze


@pytest.mark.parametrize("width", range(1, 17))
def test_bits_from_stream_matches_bit_by_bit_reference(width):
    seed = bytes(range(32))
    for count in (1, 3, 7, 8, 13, 100):  # most leave a partial last byte
        raw = Shake128Xof(seed).squeeze((count * width + 7) // 8)
        got, drawn = _squeezed(lambda: _expand([seed], "seed", count, width))
        assert got.dtype == np.int64
        assert list(got) == _reference_values(raw, count, width)
        assert drawn == len(raw)  # drew exactly the bytes it used
        assert list(unpack_values(raw, width, count)) == list(got)


@pytest.mark.parametrize("mu", [2, 4, 6, 8, 10])
def test_sample_secret_is_the_hamming_weight_difference(mu):
    params = RingParams(mu=mu)
    r = bytes(range(32))
    raw = Shake128Xof(r).squeeze(params.l * params.n * mu // 8)
    half = mu // 2
    want = [bin(v & ((1 << half) - 1)).count("1") - bin(v >> half).count("1")
            for v in _reference_values(raw, params.l * params.n, mu)]
    got = sample_secret(r, params)
    assert got.shape == (params.l, params.n) and got.dtype == np.int64
    assert list(got.ravel()) == want


def test_gen_matrix_seed_length_check():
    with pytest.raises(ValueError):
        gen_matrix(b"short")
    with pytest.raises(ValueError):
        gen_matrices([bytes(32), b"short"])
    with pytest.raises(ValueError):
        sample_secrets([bytes(31)])


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 4]), l=st.integers(1, 3),
       mu=st.sampled_from([2, 4, 6, 8, 10]), eps_q=st.integers(3, 13),
       seeds=st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=5))
@example(n=1, l=1, mu=2, eps_q=3, seeds=[bytes(32), bytes(range(32))])  # 3 and 2 bits
def test_batched_seed_expansion_equals_seed_by_seed(n, l, mu, eps_q, seeds):
    # per-seed bit counts l*l*n*eps_q and l*n*mu are often not multiples of 8,
    # so a stream's last byte is partly unused and the next stream starts
    # on a byte boundary
    params = RingParams(n=n, q=1 << eps_q, p=1 << (eps_q - 1), T=1 << (eps_q - 2),
                        l=l, mu=mu)
    matrices, batch_bytes = _squeezed(lambda: gen_matrices(seeds, params))
    single = [_squeezed(lambda: gen_matrix.__wrapped__(seed, params)) for seed in seeds]
    assert matrices.shape == (len(seeds), l, l, n) and matrices.dtype == np.int64
    assert batch_bytes == sum(drawn for _, drawn in single)
    for seed, got, (one, _) in zip(seeds, matrices, single):
        raw = Shake128Xof(seed).squeeze((l * l * n * eps_q + 7) // 8)
        assert got.ravel().tolist() == one.ravel().tolist() == (
            _reference_values(raw, l * l * n, eps_q))

    secrets, batch_bytes = _squeezed(lambda: sample_secrets(seeds, params))
    single = [_squeezed(lambda: sample_secret(seed, params)) for seed in seeds]
    assert secrets.shape == (len(seeds), l, n) and secrets.dtype == np.int64
    assert batch_bytes == sum(drawn for _, drawn in single)
    half = mu // 2
    for seed, got, (one, _) in zip(seeds, secrets, single):
        raw = Shake128Xof(seed).squeeze((l * n * mu + 7) // 8)
        want = [bin(v & ((1 << half) - 1)).count("1") - bin(v >> half).count("1")
                for v in _reference_values(raw, l * n, mu)]
        assert got.ravel().tolist() == one.ravel().tolist() == want


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, RingParams(l=2, T=1 << 3, mu=10)])
def test_batched_seed_expansion_of_no_seeds_is_empty(params):
    # as encode_messages([]) gives (0, n)
    l, n = params.l, params.n
    for got, shape in ((gen_matrices([], params), (0, l, l, n)),
                       (sample_secrets([], params), (0, l, n))):
        assert got.shape == shape and got.dtype == np.int64


def test_unpack_values_reads_equal_streams_back_to_back():
    streams = [bytes([i]) * 3 + bytes([255]) for i in (1, 2, 3)]  # 30 of 32 bits used
    got = unpack_values(b"".join(streams), 10, 3, streams=3)
    want = [v for stream in streams for v in _reference_values(stream, 3, 10)]
    assert got.tolist() == want
    with pytest.raises(ValueError):
        unpack_values(bytes(7), 10, 3, streams=2)  # not equal streams
    with pytest.raises(ValueError):
        unpack_values(bytes(6), 10, 3, streams=2)  # 3 bytes hold fewer than 30 bits


@pytest.mark.parametrize("width", range(17, 26))
def test_wide_values_unpack_from_every_stream(width):
    # a value may start at bit 7 of its first byte and span all 4 bytes read
    for count, streams in ((1, 1), (7, 3), (9, 2), (16, 3)):
        stride = (count * width + 7) // 8
        data = Shake128Xof(b"wide").squeeze(stride * streams)
        want = [v for i in range(streams)
                for v in _reference_values(data[i * stride:(i + 1) * stride], count, width)]
        assert unpack_values(data, width, count, streams).tolist() == want


@pytest.mark.parametrize("streams", [1, 3])
def test_zero_width_values_unpack_as_zeros(streams):
    # a ring with T = 1 packs c_m in 0 bits per coefficient
    assert unpack_values(b"", 0, 5, streams).tolist() == [0] * 5 * streams


def test_sample_secret_range_and_determinism():
    r = bytes(reversed(range(32)))
    s1 = sample_secret(r)
    s2 = sample_secret(r)
    assert np.array_equal(s1, s2)
    assert s1.shape == (3, 256)
    assert s1.min() >= -4 and s1.max() <= 4


def test_sample_secret_is_roughly_centered():
    rng = np.random.default_rng(2)
    means = [sample_secret(rng.bytes(32)).mean() for _ in range(10)]
    assert abs(np.mean(means)) < 0.2


def test_xof_streams_are_deterministic_and_incremental():
    one = Shake128Xof(b"seed")
    two = Shake128Xof(b"seed")
    assert one.squeeze(10) + one.squeeze(10) == two.squeeze(20)
    with pytest.raises(RuntimeError):
        one.absorb(b"late")
