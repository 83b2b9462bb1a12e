import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saberxbar.params import DEFAULT_PARAMS
from saberxbar.ring import Poly, fold_negacyclic
from saberxbar.polymult import (MultAlgorithm, plan_for, schoolbook_mul,
                                multiply, conv_raw, program, matvec)
from saberxbar.pke import SoftwareBackend
from saberxbar.xbar import XbarBackend

Q = DEFAULT_PARAMS.q
N = DEFAULT_PARAMS.n


def _rand_pair(rng, n=N, q=Q):
    return (Poly(rng.integers(0, q, n), q), Poly(rng.integers(0, q, n), q))


def _oracle_conv(a, b):
    """Independent big-integer convolution, no numpy arithmetic."""
    la, lb = list(map(int, a)), list(map(int, b))
    out = [0] * (len(la) + len(lb) - 1)
    for i, x in enumerate(la):
        for j, y in enumerate(lb):
            out[i + j] += x * y
    return out


def test_plan_counts():
    assert plan_for(MultAlgorithm.SB).sub_mults == 1
    assert plan_for(MultAlgorithm.K2).sub_mults == 3
    assert plan_for(MultAlgorithm.K4).sub_mults == 9
    assert plan_for(MultAlgorithm.TC4).sub_mults == 7
    assert plan_for(MultAlgorithm.TC4K2).sub_mults == 21
    assert plan_for(MultAlgorithm.TC4).sub_degree == N // 4
    assert plan_for(MultAlgorithm.TC4K2).sub_degree == N // 8
    # the core evaluates at exactly the points the plan counts
    for alg in MultAlgorithm:
        assert program(alg, np.zeros((1, N))).evaluations == plan_for(alg).sub_mults


def test_schoolbook_matches_oracle_convolution():
    rng = np.random.default_rng(0)
    a, b = _rand_pair(rng, n=16)
    conv = _oracle_conv(a.coeffs, b.coeffs)
    want = [(conv[i] - (conv[i + 16] if i + 16 < len(conv) else 0)) % Q
            for i in range(16)]
    assert list(schoolbook_mul(a, b).coeffs) == want


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_conv_raw_matches_oracle(alg):
    rng = np.random.default_rng(hash(alg.value) % 2**32)
    for _ in range(10):
        a = rng.integers(-10, 10, 32)
        b = rng.integers(-10, 10, 32)
        assert list(conv_raw(alg, a, b)) == _oracle_conv(a, b)


@pytest.mark.parametrize("alg", [MultAlgorithm.K2, MultAlgorithm.K4,
                                 MultAlgorithm.TC4, MultAlgorithm.TC4K2])
def test_variants_match_schoolbook_full_size(alg):
    rng = np.random.default_rng(42)
    for _ in range(50):
        a, b = _rand_pair(rng)
        assert multiply(alg, a, b) == schoolbook_mul(a, b)


def test_named_entry_points_agree_with_dispatcher():
    # multiply, conv_raw folded by hand, and a one-pair matvec against the
    # programmed operand are three entries into the same core
    rng = np.random.default_rng(7)
    a, b = _rand_pair(rng)
    for alg in MultAlgorithm:
        want = multiply(alg, a, b)
        assert want == Poly(fold_negacyclic(conv_raw(alg, a.coeffs, b.coeffs), N), Q)
        got = matvec(program(alg, b.coeffs[None]), a.coeffs[None, None])
        assert Poly(got[0], Q) == want


def test_small_ring_exhaustive_style():
    # n=4, q=16: TC4K2 needs n divisible by 8, so it runs at n=8 instead
    rng = np.random.default_rng(3)
    for _ in range(500):
        a = Poly(rng.integers(0, 16, 4), 16)
        b = Poly(rng.integers(0, 16, 4), 16)
        want = schoolbook_mul(a, b)
        for alg in (MultAlgorithm.K2, MultAlgorithm.K4, MultAlgorithm.TC4):
            assert multiply(alg, a, b) == want
        a8 = Poly(rng.integers(0, 16, 8), 16)
        b8 = Poly(rng.integers(0, 16, 8), 16)
        assert multiply(MultAlgorithm.TC4K2, a8, b8) == schoolbook_mul(a8, b8)


def test_dimension_requirements():
    a = Poly(np.arange(4), Q)
    with pytest.raises(ValueError):
        multiply(MultAlgorithm.TC4K2, a, a)
    b = Poly(np.arange(6), Q)
    with pytest.raises(ValueError):
        multiply(MultAlgorithm.TC4, b, b)
    with pytest.raises(ValueError):
        multiply(MultAlgorithm.K2, Poly([1], Q), Poly([1], Q))


def test_multiplication_by_x_rotates_with_sign():
    # a * x shifts coefficients up one slot and negates the wrapped one
    rng = np.random.default_rng(5)
    a = Poly(rng.integers(0, Q, N), Q)
    x = Poly(np.eye(N, dtype=np.int64)[1], Q)
    for alg in MultAlgorithm:
        got = multiply(alg, a, x)
        assert got.coeffs[0] == (-a.coeffs[N - 1]) % Q
        assert np.array_equal(got.coeffs[1:], a.coeffs[: N - 1])


@st.composite
def _small_rings(draw):
    """A random l x l public matrix, vector and secret over a small ring."""
    n = draw(st.sampled_from([8, 16, 32]))
    l = draw(st.integers(1, 4))
    q = 1 << draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, q, (l, l, n))
    b = rng.integers(0, q, (l, n))
    s = rng.integers(-(q // 2), q // 2 + 1, (l, n))
    return q, A, b, s


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([SoftwareBackend(alg) for alg in MultAlgorithm]
                               + [XbarBackend()]),
       ring=_small_rings())
def test_batched_products_match_schoolbook_sums(backend, ring):
    q, A, b, s = ring
    l = len(s)
    polys = [[Poly(A[i, j], q) for j in range(l)] for i in range(l)]
    transposed = [list(col) for col in zip(*polys)]
    handle = backend.program(s)
    for rows in (polys, transposed, [[Poly(x, q) for x in b]]):
        got = backend.matvec(np.array([[p.coeffs for p in row] for row in rows]), handle,
                             [q] * len(rows))
        for i, row in enumerate(rows):
            want = Poly.zero(len(b[0]), q)
            for j in range(l):
                want = want + schoolbook_mul(row[j], Poly(s[j], q))
            assert Poly(got[i], q) == want


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_leaf_bound_is_checked_at_its_edge(alg):
    # the FFT round-off bound and the int64 interpolation limit both grow
    # with the operand's magnitude: at the largest passing magnitude the
    # product is exact, one past it raises
    s = np.zeros(16, dtype=np.int64)
    s[[0, 5]] = (1, -1)
    signs = np.random.default_rng(13).choice([-1, 1], 16)

    def passes(magnitude):
        try:
            conv_raw(alg, magnitude * signs, s)
        except ArithmeticError:
            return False
        return True
    edge, past = 1, 1 << 62
    while past - edge > 1:
        mid = (edge + past) // 2
        edge, past = (mid, past) if passes(mid) else (edge, mid)
    assert edge > 1 << 30  # far beyond SABER's 2^13 x 4 operands
    a = edge * signs
    assert list(conv_raw(alg, a, s)) == _oracle_conv(a, s)
    a = (edge + 1) * signs
    with pytest.raises(ArithmeticError):
        conv_raw(alg, a, s)
    with pytest.raises(ArithmeticError):
        matvec(program(alg, s[None]), a[None, None])
