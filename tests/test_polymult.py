import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saberxbar.params import DEFAULT_PARAMS
from saberxbar import polymult
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
    # conv_raw multiplies at 2n, which these tables divide, but checks n
    for alg, n in ((MultAlgorithm.TC4K2, 4), (MultAlgorithm.TC4, 6), (MultAlgorithm.K2, 1)):
        with pytest.raises(ValueError, match="requires n divisible"):
            conv_raw(alg, np.arange(n), np.arange(n))


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
            want = sum(schoolbook_mul(row[j], Poly(s[j], q)).coeffs for j in range(l))
            assert Poly(got[i], q) == Poly(want, q)


@pytest.mark.parametrize("backend", [SoftwareBackend(MultAlgorithm.SB), XbarBackend()])
def test_ring_leaf_matches_schoolbook_sums_at_saber_extremes(backend):
    # folded products at n = 256 run on the ring leaf: operands at 0 or
    # q - 1 and secrets at +-mu/2, SABER's largest magnitudes, summed over
    # l = 3, all of the same sign or of random signs
    rng = np.random.default_rng(29)
    l, half_mu = DEFAULT_PARAMS.l, DEFAULT_PARAMS.mu // 2
    cases = [(np.full((2, l, N), Q - 1), np.full((l, N), half_mu)),
             (np.full((2, l, N), Q - 1), np.full((l, N), -half_mu)),
             (rng.choice([0, Q - 1], (4, l, N)), rng.choice([-half_mu, half_mu], (l, N)))]
    for a, s in cases:
        handle = backend.program(s)
        assert handle.ring
        got = backend.matvec(a, handle, [Q] * len(a))
        for row, sums in zip(a, got):
            want = Poly(sum(schoolbook_mul(Poly(row[j], Q), Poly(s[j], Q)).coeffs
                            for j in range(l)), Q)
            assert Poly(sums, Q) == want


@pytest.mark.parametrize("n", [15, 12])
def test_odd_or_non_power_of_two_n_runs_on_the_linear_leaf(n):
    # the ring leaf needs n/2 a power of two; other n fall back to the
    # zero-padded linear leaf and still fold exactly
    rng = np.random.default_rng(n)
    a, s = rng.integers(0, Q, (3, 2, n)), rng.integers(-4, 5, (2, n))
    handle = program(MultAlgorithm.SB, s)
    assert not handle.ring
    got = matvec(handle, a)
    for row, sums in zip(a, got):
        want = sum(np.array(fold_negacyclic(_oracle_conv(row[j], s[j]), n)) for j in range(2))
        assert list(sums) == list(want)


def test_ring_leaf_residual_check_catches_a_wrong_leaf(monkeypatch):
    # a coefficient 0.3 off its integer is beyond the round-off the bound
    # allows, so the observed residual must reject it
    rng = np.random.default_rng(31)
    a, s = rng.integers(0, Q, (2, 3, N)), rng.integers(-4, 5, (3, N))
    handle = program(MultAlgorithm.SB, s)
    assert handle.ring
    matvec(handle, a)
    ifft = np.fft.ifft

    def shifted(*args, **kwargs):
        leaf = ifft(*args, **kwargs)
        leaf[(0,) * leaf.ndim] += 0.3
        return leaf
    monkeypatch.setattr(np.fft, "ifft", shifted)
    with pytest.raises(ArithmeticError, match="round-off"):
        matvec(handle, a)


@pytest.mark.parametrize("alg", [MultAlgorithm.TC4, MultAlgorithm.TC4K2])
def test_exact_division_check_catches_a_wrong_leaf(alg, monkeypatch):
    # a leaf sum off by exactly 1 passes the round-off checks; the
    # interpolation's exact division is what must reject it
    rng = np.random.default_rng(17)
    a, s = rng.integers(0, Q, (1, 3, N)), rng.integers(-4, 5, (3, N))
    handle = program(alg, s)
    matvec(handle, a)
    ifft = np.fft.ifft

    def off_by_one(*args, **kwargs):
        leaf = ifft(*args, **kwargs)
        leaf[(0,) * leaf.ndim] += 1
        return leaf
    monkeypatch.setattr(np.fft, "ifft", off_by_one)
    with pytest.raises(ArithmeticError, match="non-integer"):
        matvec(handle, a)


def _edge(passes):
    """Largest magnitude in [1, 2^62) at which `passes` holds."""
    edge, past = 1, 1 << 62
    while past - edge > 1:
        mid = (edge + past) // 2
        edge, past = (mid, past) if passes(mid) else (edge, mid)
    return edge


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_leaf_bound_is_checked_at_its_edge(alg):
    # the FFT round-off bound grows with the operand's magnitude: at the
    # largest passing magnitude the product is exact, one past it raises.
    # conv_raw and matvec each have their own edge, since a one-limb table's
    # folded products run on the ring leaf, whose bound differs
    s = np.zeros(16, dtype=np.int64)
    s[[0, 5]] = (1, -1)
    signs = np.random.default_rng(13).choice([-1, 1], 16)
    calls = [(lambda a: list(conv_raw(alg, a, s)), lambda a: _oracle_conv(a, s)),
             (lambda a: list(matvec(program(alg, s[None]), a[None, None])[0]),
              lambda a: list(fold_negacyclic(_oracle_conv(a, s), 16)))]
    for product, want in calls:
        def passes(magnitude):
            try:
                product(magnitude * signs)
            except ArithmeticError:
                return False
            return True
        edge = _edge(passes)
        assert edge > 1 << 30  # far beyond SABER's 2^13 x 4 operands
        assert product(edge * signs) == want(edge * signs)
        with pytest.raises(ArithmeticError):
            product((edge + 1) * signs)


def test_interpolation_bound_is_checked_at_its_edge():
    # operands confined to their first limb have equal leaf sums at every
    # finite point, where TC4K2's interpolation rows weigh most, so the
    # float64 bound after the leaf, not the FFT round-off bound, sets the
    # edge: exact at it, ArithmeticError one past it
    alg = MultAlgorithm.TC4K2
    a1, s = np.zeros(16, dtype=np.int64), np.zeros(16, dtype=np.int64)
    a1[:2], s[:2] = (1, -1), (1, 1)

    def passes(magnitude):
        try:
            conv_raw(alg, magnitude * a1, s)
        except ArithmeticError:
            return False
        return True
    edge = _edge(passes)
    a = edge * a1
    assert list(conv_raw(alg, a, s)) == _oracle_conv(a, s)
    assert list(matvec(program(alg, s[None]), a[None, None])[0]) \
        == list(fold_negacyclic(_oracle_conv(a, s), 16))
    for call in (lambda: conv_raw(alg, a + a1, s),
                 lambda: matvec(program(alg, s[None]), (a + a1)[None, None])):
        with pytest.raises(ArithmeticError, match="interpolation"):
            call()


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_evaluation_bound_rejects_coefficients_float64_cannot_hold(alg):
    a = np.tile([2**60, 3, -2**60, 0], 4)
    s = np.eye(16, dtype=np.int64)[0]
    for call in (lambda: conv_raw(alg, a, s), lambda: program(alg, a[None])):
        with pytest.raises(ArithmeticError, match="evaluation"):
            call()


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_growth_bounds_every_sum_after_the_leaf(alg):
    # the sums the core's float64 products form after the leaf, computed
    # exactly, stay within the table's bound on them from the leaf bounds
    table = polymult._TABLES[alg]
    rng = np.random.default_rng(23)
    n, l, rows = 32, 3, 4
    k = n // table.limbs
    a, s = rng.integers(-2**12, 2**12, (rows, l, n)), rng.integers(-4, 5, (l, n))
    x = polymult._evaluate(table, a, k).astype(np.int64)  # (points, rows, l, k)
    y = polymult._evaluate(table, s, k).astype(np.int64)  # (points, l, k)
    leaf = np.array([[sum(np.convolve(x[p, r, j], y[p, j]) for j in range(l))
                      for r in range(rows)] for p in range(table.points)])
    leaf = np.concatenate([leaf, np.zeros(leaf.shape[:-1] + (1,), dtype=np.int64)], -1)
    bounds = (polymult._norms(x.astype(float)) * polymult._norms(y.astype(float))[:, None]
              ).sum(axis=-1).max(axis=-1)
    limits = table.growth @ bounds
    partial = np.einsum("tp,prc->trc", np.abs(table.interpolation), np.abs(leaf))
    assert (partial.max(axis=(1, 2)) <= limits[: len(partial)]).all()
    sums = np.einsum("tp,prc->trc", table.interpolation, leaf)
    assert not (sums % table.denominators[:, None, None]).any()
    halves = np.abs(sums // table.denominators[:, None, None]).reshape(-1, rows, 2, k)
    halves = halves.transpose(0, 2, 1, 3).reshape(-1, rows, k)  # (2 * product limbs, ...)
    placed = np.einsum("gj,jrc->grc", np.abs(table._placement()), halves)
    assert (placed.max(axis=(1, 2)) <= limits[len(partial):]).all()


def _exact_sums(a, s):
    """(..., rows, n) sums of a (..., rows, l, n) times s (..., l, n),
    each product an int64 convolution folded modulo x^n + 1."""
    n = s.shape[-1]
    a, s = np.broadcast_arrays(a, s[..., None, :, :])
    products = [np.convolve(x, y) for x, y in zip(a.reshape(-1, n), s.reshape(-1, n))]
    folded = fold_negacyclic(np.array(products), n).reshape(a.shape)
    return folded.sum(axis=-2)


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_reused_blocks_never_show_in_results_or_handles(alg):
    # 16 rows make every table's packed block large enough for the
    # thread's scratch buffer; a second product of the same shape reuses
    # it and must leave the first product and the handle as they were
    rng = np.random.default_rng(41)
    s = rng.integers(-4, 5, (3, N))
    first_rows, second_rows = rng.integers(0, Q, (2, 16, 3, N))
    handle = program(alg, s)
    spectra = handle.spectra.copy()
    first = matvec(handle, first_rows)
    kept = first.copy()
    scratch = polymult._SCRATCH.buffer
    assert scratch.size and not np.shares_memory(first, scratch)
    assert not np.shares_memory(handle.spectra, scratch)
    second = matvec(handle, second_rows)
    assert polymult._SCRATCH.buffer is scratch
    assert np.array_equal(first, kept) and np.array_equal(first, _exact_sums(first_rows, s))
    assert np.array_equal(second, _exact_sums(second_rows, s))
    assert np.array_equal(handle.spectra.view(np.uint64), spectra.view(np.uint64))


def test_threads_multiplying_one_large_shape_agree_with_a_sequential_run():
    # each thread packs into its own buffer: products of one large Toom
    # shape running in 4 threads at once equal the same products run one
    # after another
    rng = np.random.default_rng(43)
    handle = program(MultAlgorithm.TC4K2, rng.integers(-4, 5, (3, N)))
    operands = rng.integers(0, Q, (4, 6, 4, 3, N))  # threads x products x rows
    want = [[matvec(handle, a) for a in ops] for ops in operands]
    got = [None] * len(operands)

    def work(i):
        got[i] = [matvec(handle, a) for a in operands[i]]
    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(operands))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside each product
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for products, sequential in zip(got, want):
        assert products is not None
        assert all(np.array_equal(x, y) for x, y in zip(products, sequential))


def test_scratch_stays_within_its_cap():
    # products from 1 row up to blocks past the cap, on every table and on
    # the folding leaf with a batch of secrets, all exact, and the buffer
    # never larger than its cap
    rng = np.random.default_rng(47)
    s = rng.integers(-4, 5, (3, N))
    cases = [(alg, s, rows) for alg in MultAlgorithm for rows in (1, 3, 4, 16, 40, 64)]
    cases += [(MultAlgorithm.SB, rng.integers(-4, 5, (trials, 3, N)), 4) for trials in (8, 32, 64)]
    for alg, secret, rows in cases:
        a = rng.integers(0, Q, secret.shape[:-2] + (rows, 3, N))
        assert np.array_equal(matvec(program(alg, secret), a), _exact_sums(a, secret))
        assert polymult._SCRATCH.buffer.nbytes <= polymult._SCRATCH_CAP


def test_warm_large_matvec_allocates_a_fraction_of_its_blocks():
    # an encryption's 4-row product on TC4K2 packs 126 KiB of operands;
    # once the thread's buffer holds them, the call's own allocations
    # peak at most at 256 KiB (443 KiB when every block was new)
    rng = np.random.default_rng(53)
    handle = program(MultAlgorithm.TC4K2, rng.integers(-4, 5, (3, N)))
    a = rng.integers(0, Q, (4, 3, N))
    matvec(handle, a)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        matvec(handle, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


# ---------------------------------------------------------------------------
# public rows programmed once and streamed against many secrets

@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_programmed_rows_give_the_coefficient_path_and_stay_unchanged(alg):
    rng = np.random.default_rng(59)
    rows = rng.integers(0, Q, (4, 3, N))
    held = program(alg, rows)
    spectra, norms = held.spectra.copy(), held.norms.copy()
    assert not held.spectra.flags.writeable and not held.norms.flags.writeable
    assert (held.shape, held.size) == (rows.shape, rows.size)
    for _ in range(3):
        handle = program(alg, rng.integers(-4, 5, (3, N)))
        got = matvec(handle, held)
        assert np.array_equal(got, matvec(handle, rows))
        assert np.array_equal(got, _exact_sums(rows, handle.secret))
        assert not np.shares_memory(got, held.spectra)
    assert np.array_equal(held.spectra.view(np.uint64), spectra.view(np.uint64))
    assert np.array_equal(held.norms, norms)


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_leaf_bound_is_checked_on_programmed_rows(alg):
    # the bound comes from the held norms: programmed rows have the
    # coefficient path's edge, exact at it and ArithmeticError one past it
    s = np.zeros(16, dtype=np.int64)
    s[[0, 5]] = (1, -1)
    signs = np.random.default_rng(13).choice([-1, 1], 16)
    handle = program(alg, s[None])

    def passes(magnitude):
        try:
            matvec(handle, (magnitude * signs)[None, None])
        except ArithmeticError:
            return False
        return True
    edge = _edge(passes)
    a = (edge * signs)[None, None]
    assert np.array_equal(matvec(handle, program(alg, a)), matvec(handle, a))
    with pytest.raises(ArithmeticError, match="FFT leaf"):
        matvec(handle, program(alg, ((edge + 1) * signs)[None, None]))


def test_interpolation_bound_is_checked_on_programmed_rows():
    alg = MultAlgorithm.TC4K2
    a1, s = np.zeros(16, dtype=np.int64), np.zeros(16, dtype=np.int64)
    a1[:2], s[:2] = (1, -1), (1, 1)
    handle = program(alg, s[None])

    def passes(magnitude):
        try:
            matvec(handle, (magnitude * a1)[None, None])
        except ArithmeticError:
            return False
        return True
    edge = _edge(passes)
    a = (edge * a1)[None, None]
    assert np.array_equal(matvec(handle, program(alg, a)), matvec(handle, a))
    with pytest.raises(ArithmeticError, match="interpolation"):
        matvec(handle, program(alg, a + a1))


def test_residual_and_division_checks_run_on_programmed_rows(monkeypatch):
    rng = np.random.default_rng(67)
    a, s = rng.integers(0, Q, (2, 3, N)), rng.integers(-4, 5, (3, N))
    cases = [(MultAlgorithm.SB, 0.3, "round-off"), (MultAlgorithm.TC4, 1, "non-integer"),
             (MultAlgorithm.TC4K2, 1, "non-integer")]
    ifft = np.fft.ifft
    for alg, shift, message in cases:
        handle, held = program(alg, s), program(alg, a)
        spectra = held.spectra.copy()

        def shifted(*args, **kwargs):
            leaf = ifft(*args, **kwargs)
            leaf[(0,) * leaf.ndim] += shift
            return leaf
        monkeypatch.setattr(np.fft, "ifft", shifted)
        with pytest.raises(ArithmeticError, match=message):
            matvec(handle, held)
        monkeypatch.setattr(np.fft, "ifft", ifft)
        assert np.array_equal(held.spectra.view(np.uint64), spectra.view(np.uint64))
        assert np.array_equal(matvec(handle, held), _exact_sums(a, s))


def test_programmed_rows_must_match_the_secret():
    rng = np.random.default_rng(71)
    rows = rng.integers(0, Q, (2, 3, N))
    handle = program(MultAlgorithm.SB, rng.integers(-4, 5, (3, N)))
    with pytest.raises(ValueError, match="programmed for K2"):
        matvec(handle, program(MultAlgorithm.K2, rows))
    with pytest.raises(ValueError, match="leading axes"):
        matvec(handle, program(MultAlgorithm.SB, rows[None]))
    with pytest.raises(ValueError, match="do not match"):
        matvec(handle, program(MultAlgorithm.SB, rows[:, :2]))
