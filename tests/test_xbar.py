import hashlib
from dataclasses import replace
import tracemalloc

import numpy as np
import pytest

from saberxbar.params import DEFAULT_PARAMS
from saberxbar.ring import Poly, fold_negacyclic
from saberxbar.polymult import MultAlgorithm, schoolbook_mul
from saberxbar.pke import SoftwareBackend
from saberxbar.xbar import (build_negacyclic_matrix,
                            NoiseSpec, adc_read, adc_bits_for,
                            operand_shape, program_operand, read_columns,
                            crossbar_polymult,
                            XbarBackend,
                            NoisySampleBackend, DEFAULT_NOISE_GAIN, MAX_SAMPLE_STD, inject,
                            error_magnitudes, _magnitude_tails, _phi_tail)

P = DEFAULT_PARAMS


def test_negacyclic_matrix_entry_formula():
    s = np.array([5, -2, 3])
    M = build_negacyclic_matrix(s)
    # M[i][j] = +s[j-i] for j >= i, -s[n+j-i] for j < i
    want = np.array([[5, -2, 3],
                     [-3, 5, -2],
                     [2, -3, 5]])
    assert np.array_equal(M, want)


def test_negacyclic_matrix_product_equals_polymult():
    rng = np.random.default_rng(0)
    for n in (4, 16, 256):
        s = rng.integers(-4, 5, n)
        a = rng.integers(0, 1024, n)
        M = build_negacyclic_matrix(s)
        assert np.array_equal(a @ M, fold_negacyclic(np.convolve(a, s), n))


def test_program_operand_takes_one_polynomial():
    # the secret polynomial, not its matrix: anything but a 1-D array of
    # coefficients is refused
    for bad in (np.zeros((2, 3)), np.zeros((4, 4)), np.zeros((2, P.l, 4)), np.int64(1)):
        with pytest.raises(ValueError, match="one polynomial"):
            program_operand(bad, P)


def test_adc_read_exact_on_integers():
    vals = np.arange(256)
    assert np.array_equal(adc_read(vals, 8), vals)
    assert adc_read(300.0, 8) == 255  # clamped
    assert adc_read(-3.0, 8) == 0


def test_adc_read_rejects_a_width_below_one():
    # an ADC is its width: an integer number of bits >= 1, given to the
    # pipeline or to the converter itself
    rng = np.random.default_rng(17)
    s = rng.integers(-4, 5, P.n)
    op = program_operand(s, P)
    a = Poly(rng.integers(0, P.p, P.n), P.p)
    for bad in (0, -1, 6.0, 6.5, float("nan"), "6"):
        with pytest.raises(ValueError, match="ADC resolution"):
            adc_read(np.arange(4), bad)
        with pytest.raises(ValueError, match="ADC resolution"):
            crossbar_polymult(a, op, adc_bits=bad)
    assert np.array_equal(adc_read(np.arange(4), np.int64(1)), [0, 1, 1, 1])


def test_adc_bits_for_covers_range():
    assert adc_bits_for(63) == 6
    assert adc_bits_for(64) == 7
    assert adc_bits_for(128) == 8
    assert adc_bits_for(0) == 1


def test_tile_flip_encoding_bounds_column_current():
    rng = np.random.default_rng(0)
    op = program_operand(rng.integers(-4, 5, P.n), P)
    stored = op.cells.sum(axis=2)
    assert stored.max() <= 64
    # a flipped column holds the complement of a population above rows/2
    assert np.all(128 - stored[op.flips] > 64)
    assert op.flips.any() and not op.flips.all()


def test_tile_program_validates_shape_and_levels():
    with pytest.raises(ValueError, match="one polynomial"):
        program_operand(np.zeros((4, 3), dtype=np.int64), P)
    # biased by mu/2 = 4, a stored entry must lie in [-4, 11] to fit 4 bits;
    # the matrix stores every coefficient and (but for s[0]) its negation
    for s in ([12, 0, 0, 0], [-5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 0, -5]):
        with pytest.raises(ValueError, match="bits_per_coeff"):
            program_operand(np.array(s, dtype=np.int64), P)
    op = program_operand(np.array([-4, 4, -4, 4], dtype=np.int64), P)
    assert op.bias == P.mu // 2 == 4


def test_tile_stuck_fault_overrides_readout_only():
    rng = np.random.default_rng(2)
    s = rng.integers(-4, 5, P.n)
    op = program_operand(s, P)
    assert not op.cells.flags.writeable and not op.flips.flags.writeable
    cells = op.cells.copy()
    cells.reshape(-1, 128, 128)[9, 3, 5] ^= 1  # tile 9 is row block 1, column block 1
    stuck = replace(op, cells=cells)
    bits = np.zeros((2, 128), dtype=np.int64)
    bits[1, 3] = 1
    ideal, _ = read_columns(op, bits)
    got, _ = read_columns(stuck, bits)
    changed = np.argwhere(got != ideal)
    assert changed.tolist() == [[1, 1, 5]]
    assert abs(got[1, 1, 5] - ideal[1, 1, 5]) == 1


def test_program_layout_geometry():
    # 2 row blocks of 128 logical rows x 8 column blocks of 32 coefficients
    # x 4 bit slices: 16 tiles of 128 x 128
    op = program_operand(np.zeros(P.n, dtype=np.int64), P)
    assert op.cells.shape == operand_shape(P.n) == (2, 8, 128, 128)
    assert op.flips.shape == (2, 8, 128)
    # a small operand pads its one tile with zero rows and columns
    small = program_operand(np.ones(16, dtype=np.int64), P)
    assert small.cells.shape == operand_shape(16) == (1, 1, 128, 128)
    assert not small.flips[0, 0, 64:].any()
    # n that fill no whole tile round up to whole tiles
    for n in (100, 129):
        assert program_operand(np.zeros(n, dtype=np.int64), P).cells.shape == operand_shape(n)


def test_program_operand_bits_match_matrix():
    rng = np.random.default_rng(1)
    s = rng.integers(-4, 5, P.n)
    M = build_negacyclic_matrix(s)
    op = program_operand(s, P)
    for row, coeff, bit in ((0, 0, 0), (37, 200, 3), (255, 255, 2), (128, 32, 1)):
        col = coeff * 4 + bit
        rb, r, cb, c = row // 128, row % 128, col // 128, col % 128
        stored = op.cells[rb, cb, r, c]
        if op.flips[rb, cb, c]:
            stored = 1 - stored
        assert stored == ((M[row, coeff] + 4) >> bit) & 1


def test_column_reads_ideal_popcounts():
    rng = np.random.default_rng(2)
    s = rng.integers(-4, 5, P.n)
    M = build_negacyclic_matrix(s)
    op = program_operand(s, P)
    bits = rng.integers(0, 2, (2, 128))
    columns, unit = read_columns(op, bits)
    # row block 0 sees the first 128 input bits, block 1 the rest, on
    # every column block's unit column
    assert np.array_equal(unit, np.repeat(bits.sum(axis=1)[:, None], 8, axis=1))
    # flip-corrected and summed over row blocks, the columns read the bit
    # plane times each bit slice of the biased matrix
    slices = ((M[:, :, None] + 4) >> np.arange(4)) & 1
    true = np.where(op.flips, unit[..., None] - columns, columns)
    assert np.array_equal(true.sum(axis=0).ravel(), bits.ravel() @ slices.reshape(P.n, -1))


def test_crossbar_polymult_matches_software_exactly():
    rng = np.random.default_rng(3)
    for _ in range(3):
        a = Poly(rng.integers(0, P.p, P.n), P.p)
        s = rng.integers(-4, 5, P.n)
        got = crossbar_polymult(a, program_operand(s, P))
        assert got == schoolbook_mul(a, Poly(s, P.p))


def test_crossbar_polymult_mod_q_width():
    rng = np.random.default_rng(4)
    a = Poly(rng.integers(0, P.q, P.n), P.q)
    s = rng.integers(-4, 5, P.n)
    got = crossbar_polymult(a, program_operand(s, P))
    assert got == schoolbook_mul(a, Poly(s, P.q))


def test_crossbar_polymult_reuses_preprogrammed_tiles(monkeypatch):
    rng = np.random.default_rng(5)
    s = rng.integers(-4, 5, P.n)
    op = program_operand(s, P)
    inputs = [Poly(rng.integers(0, P.p, P.n), P.p) for _ in range(3)]
    wants = [schoolbook_mul(a, Poly(s, P.p)) for a in inputs]
    # the pipeline reads the operand it is given and programs nothing
    monkeypatch.setattr("saberxbar.xbar.program_operand", None)
    assert [crossbar_polymult(a, op) for a in inputs] == wants


def test_stuck_fault_breaks_the_product():
    rng = np.random.default_rng(6)
    a = Poly(rng.integers(1, P.p, P.n), P.p)
    s = rng.integers(-4, 5, P.n)
    op = program_operand(s, P)
    want = schoolbook_mul(a, Poly(s, P.p)).coeffs
    # force a visible flip on tile 0's cell (0, 0)
    cells = op.cells.copy()
    cells[0, 0, 0, 0] ^= 1
    got = crossbar_polymult(a, replace(op, cells=cells))
    assert not np.array_equal(got.coeffs, want)
    # the programmed operand itself is untouched
    assert np.array_equal(crossbar_polymult(a, op).coeffs, want)


def test_default_width_reads_a_stuck_column_exactly():
    # under an input whose every bit plane is all ones, a column stuck
    # entirely at 1 reads rows, as the unit column does: the default width
    # reads both as exactly as a far wider ADC
    rng = np.random.default_rng(7)
    a = Poly(np.full(P.n, P.p - 1), P.p)
    op = program_operand(rng.integers(-4, 5, P.n), P)
    cells = op.cells.copy()
    cells[1, 2, :, 7] = 1
    stuck = replace(op, cells=cells)
    assert crossbar_polymult(a, stuck) == crossbar_polymult(a, stuck, adc_bits=16)


def test_noisy_reads_follow_the_cell_noise_law():
    # 1000 reads of one programmed operand at one input: a column with k
    # active cells reads N(k, k var^2), a unit column with popcount pop
    # N(pop, pop var^2). Bounds: the sample mean within 5 standard errors
    # of k, the sample variance within 6 standard errors, sqrt(2 / (reads
    # - 1)) relative, of k var^2.
    rng = np.random.default_rng(13)
    var, reads = 0.03, 1000
    op = program_operand(rng.integers(-4, 5, P.n), P)
    bits = rng.integers(0, 2, (2, 128)).astype(np.float64)
    ideal, pop = read_columns(op, bits)
    columns, unit = read_columns(op, np.broadcast_to(bits, (reads, 2, 128)),
                                 NoiseSpec(var, seed=14))
    for k, got in ((ideal, columns), (pop, unit)):
        mean, spread = got.mean(axis=0), got.var(axis=0, ddof=1)
        assert np.all(np.abs(mean - k) <= 5 * var * np.sqrt(k / reads))
        assert np.all(np.abs(spread - k * var**2)
                      <= 6 * np.sqrt(2 / (reads - 1)) * k * var**2)
        assert np.all(got[:, k == 0] == 0)
    # at zero variance the pipeline gives the ideal product; at 0.03 it errs
    a = Poly(rng.integers(0, P.p, P.n), P.p)
    s = rng.integers(-4, 5, P.n)
    want = schoolbook_mul(a, Poly(s, P.p))
    op = program_operand(s, P)
    assert crossbar_polymult(a, op, noise=NoiseSpec(0.0, seed=15)) == want
    assert crossbar_polymult(a, op, noise=NoiseSpec(var, seed=15)) != want


def test_xbar_backend_matches_software_backend():
    rng = np.random.default_rng(7)
    xb = XbarBackend(P)
    sw = SoftwareBackend()
    for modulus in (P.p, P.q):
        a = Poly(rng.integers(0, modulus, P.n), modulus)
        s = rng.integers(-4, 5, P.n)
        assert np.array_equal(xb.mul_raw(a, s) % modulus,
                              sw.mul_raw(a, s) % modulus)


def test_xbar_backend_matches_crossbar_pipeline_exactly():
    # the pipeline is the independent physical reference for XbarBackend's
    # ring arithmetic
    rng = np.random.default_rng(11)
    xb = XbarBackend(P)
    for modulus in (P.p, P.q):
        for _ in range(2):
            a = Poly(rng.integers(0, modulus, P.n), modulus)
            s = rng.integers(-4, 5, P.n)
            assert np.array_equal(xb.mul_raw(a, s),
                                  crossbar_polymult(a, program_operand(s, P)).coeffs)


def test_xbar_backend_write_accounting():
    rng = np.random.default_rng(8)
    xb = XbarBackend(P)
    boot = rng.integers(-4, 5, (P.l, P.n))
    xb.install_boot_secret(boot)
    assert xb.cell_bits_written == 0
    assert xb.boot_cell_bits == P.l * P.n * 4
    work = rng.integers(-4, 5, (P.l, P.n))
    xb.program_secret(work)
    assert xb.cell_bits_written == P.l * P.n * 4 == 3072
    # multiplying by either installed secret costs no further writes
    a = Poly(rng.integers(0, P.p, P.n), P.p)
    xb.mul_raw(a, boot[0])
    xb.mul_raw(a, work[1])
    assert xb.cell_bits_written == 3072


def test_xbar_backend_ad_hoc_installs_are_bounded():
    rng = np.random.default_rng(12)
    xb = XbarBackend(P)
    a = Poly(rng.integers(0, P.q, P.n), P.q)
    secrets = rng.integers(-4, 5, (50, P.n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in secrets:
            xb.mul_raw(a, s)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(xb._slots["work"]) <= P.l
    assert grown < 1 << 20
    assert xb.cell_bits_written == 50 * P.n * 4
    # the newest l operands stay programmed; an evicted one is written again
    xb.mul_raw(a, secrets[-1])
    assert xb.cell_bits_written == 50 * P.n * 4
    xb.mul_raw(a, secrets[0])
    assert xb.cell_bits_written == 51 * P.n * 4


class _PerPolynomialSlots:
    """The write accounting of `XbarBackend` as a plain per-polynomial rule:
    every product checks each of its secret polynomials against the slots
    and programs a missing one into the work slot, evicting the oldest."""

    def __init__(self, l):
        self.l = l
        self.slots = {"boot": {}, "work": {}}
        self.mult_count = self.cell_bits_written = self.boot_cell_bits = 0

    def install(self, s, slot):
        self.slots[slot] = dict.fromkeys(row.tobytes() for row in s.reshape(-1, s.shape[-1]))
        if slot == "boot":
            self.boot_cell_bits += s.size * 4
        else:
            self.cell_bits_written += s.size * 4

    def product(self, rows, s):
        self.mult_count += rows.size // rows.shape[-1]
        for poly in s.reshape(-1, s.shape[-1]):
            key = poly.tobytes()
            if key in self.slots["work"] or key in self.slots["boot"]:
                continue
            work = self.slots["work"]
            while len(work) >= self.l:
                del work[next(iter(work))]
            work[key] = None
            self.cell_bits_written += len(poly) * 4


def _direct_matvec(rows, s):
    return np.array([sum(fold_negacyclic(np.convolve(row[j], s[j]), len(s[j]))
                         for j in range(len(s)))
                     for row in rows])


@pytest.mark.parametrize("seed", range(6))
def test_held_handles_keep_the_per_polynomial_write_accounting(seed):
    # random installs (single keys and batches) and products, held and ad
    # hoc, including evictions from the work slot followed by products
    # against the formerly held work key and against handles taken out
    # before the eviction
    rng = np.random.default_rng(seed)
    n = 16
    keys = rng.integers(-4, 5, (4, P.l, n))
    xb, ref = XbarBackend(P), _PerPolynomialSlots(P.l)
    handles = []
    for _ in range(60):
        op = rng.integers(5)
        key = keys[rng.integers(len(keys))]
        if op in (0, 1):
            # now and then a batch of keys, which fills a slot and is held
            # as a whole, as a single key is
            s = keys[rng.integers(len(keys), size=2)] if rng.random() < 0.2 else key
            slot = ("boot", "work")[op]
            (xb.install_boot_secret, xb.program_secret)[op](s)
            ref.install(s, slot)
        elif op == 2:
            handles.append((key, xb.program(key)))
        if op in (2, 3) and handles:
            key, handle = handles[rng.integers(len(handles))]
            rows = rng.integers(0, P.q, (2, P.l, n))
            ref.product(rows, key)
            assert np.array_equal(xb.matvec(rows, handle, [P.q] * 2),
                                  _direct_matvec(rows, key))
        if op == 4:
            # an ad hoc product, often by a polynomial of no key: evicts
            s = (rng.integers(-4, 5, n) if rng.random() < 0.6
                 else key[rng.integers(P.l)])
            a = Poly(rng.integers(0, P.q, n), P.q)
            ref.product(a.coeffs[None, None], s[None])
            assert np.array_equal(xb.mul_raw(a, s), schoolbook_mul(a, Poly(s, P.q)).coeffs)
        assert ((xb.mult_count, xb.cell_bits_written, xb.boot_cell_bits)
                == (ref.mult_count, ref.cell_bits_written, ref.boot_cell_bits))


def test_a_programmed_key_and_a_programmed_batch_are_held():
    rng = np.random.default_rng(16)
    key = rng.integers(-4, 5, (P.l, P.n))
    batch = rng.integers(-4, 5, (2, P.l, P.n))
    xb = XbarBackend(P)
    xb.install_boot_secret(key)
    held = xb.program(key)
    assert xb.program(key.copy()) is held and not held.secret.flags.writeable
    key[0, 0] += 1  # the slot holds its own copy, so an edit is a miss
    assert xb.program(key) is not held
    xb.program_secret(batch)
    held = xb.program(batch)
    assert xb.program(batch.copy()) is held and not held.secret.flags.writeable
    assert xb.cell_bits_written == batch.size * 4
    batch[1, 2, 0] += 1  # an in-place edit of the caller's batch is a miss
    edited = xb.program(batch)
    assert edited is not held
    rows = rng.integers(0, P.q, (2, 2, P.l, P.n))
    assert np.array_equal(xb.matvec(rows, edited, [P.q] * 2),
                          [_direct_matvec(r, s) for r, s in zip(rows, batch)])
    # the product writes the one edited polynomial, ad hoc
    assert xb.cell_bits_written == batch.size * 4 + P.n * 4


@pytest.mark.parametrize("seed", range(4))
def test_held_batches_keep_the_per_polynomial_write_accounting(seed):
    # batch installs and products against held batches, against edited
    # (missing) batches and, after an ad hoc eviction, against the formerly
    # held work batch
    rng = np.random.default_rng(seed)
    n = 16
    keys = rng.integers(-4, 5, (3, 2, P.l, n))
    xb, ref = XbarBackend(P), _PerPolynomialSlots(P.l)
    for _ in range(80):
        op = rng.integers(4)
        batch = keys[rng.integers(len(keys))]
        if op in (0, 1):
            slot = ("boot", "work")[op]
            (xb.install_boot_secret, xb.program_secret)[op](batch)
            ref.install(batch, slot)
        elif op == 2:
            if rng.random() < 0.3:
                batch = batch.copy()
                batch[rng.integers(2), rng.integers(P.l)] = rng.integers(-4, 5, n)
            rows = rng.integers(0, P.q, (2, 2, P.l, n))
            ref.product(rows, batch)
            assert np.array_equal(xb.matvec(rows, xb.program(batch), [P.q] * 2),
                                  [_direct_matvec(r, s) for r, s in zip(rows, batch)])
        else:
            s = rng.integers(-4, 5, n)
            a = Poly(rng.integers(0, P.q, n), P.q)
            ref.product(a.coeffs[None, None], s[None])
            xb.mul_raw(a, s)
        assert ((xb.mult_count, xb.cell_bits_written, xb.boot_cell_bits)
                == (ref.mult_count, ref.cell_bits_written, ref.boot_cell_bits))


def test_noisy_backend_zero_variance_is_exact():
    rng = np.random.default_rng(9)
    nb = NoisySampleBackend(NoiseSpec(0.0), P)
    sw = SoftwareBackend()
    a = Poly(rng.integers(0, P.p, P.n), P.p)
    s = rng.integers(-4, 5, P.n)
    assert np.array_equal(nb.mul_raw(a, s), sw.mul_raw(a, s) % P.p)


def test_noisy_backend_perturbs_at_high_variance():
    rng = np.random.default_rng(10)
    nb = NoisySampleBackend(NoiseSpec(0.5, seed=1), P)
    sw = SoftwareBackend()
    a = Poly(rng.integers(0, P.p, P.n), P.p)
    s = rng.integers(-4, 5, P.n)
    diffs = sum(not np.array_equal(nb.mul_raw(a, s), sw.mul_raw(a, s) % P.p)
                for _ in range(10))
    assert diffs > 0
    nb.noise = NoiseSpec(0.0)
    assert np.array_equal(nb.mul_raw(a, s), sw.mul_raw(a, s) % P.p)


def test_noise_spec_validation_and_gain():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1)
    assert DEFAULT_NOISE_GAIN > 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_noise_spec_and_backend_reject_non_finite_levels(bad):
    with pytest.raises(ValueError):
        NoiseSpec(bad)
    with pytest.raises(ValueError):
        NoisySampleBackend(NoiseSpec(0.1), P, noise_gain=bad)


def _searched_magnitude(u, std):
    """The per-error tail search the inverse-CDF table replaces."""
    mag = 1
    while _phi_tail((mag + 0.5) / std) > u:
        mag += 1
    return mag


@pytest.mark.parametrize("std", [0.02, 0.0535, 0.107, 0.3, 1.0, 4.0])
def test_error_magnitude_table_matches_the_tail_search(std):
    top = _phi_tail(0.5 / std)
    u = np.concatenate([np.random.default_rng(0).random(500) * top,
                        [0.0, np.nextafter(top, 0.0)], _magnitude_tails(std)])
    assert list(error_magnitudes(u, std)) == [_searched_magnitude(x, std) for x in u]


def test_error_magnitudes_reject_a_std_beyond_the_limit():
    # the table grows linearly with the std, so a huge one is refused, not built
    assert len(_magnitude_tails(MAX_SAMPLE_STD)) > 300
    for std in (np.nextafter(MAX_SAMPLE_STD, np.inf), 1e6, np.inf, np.nan):
        with pytest.raises(ValueError, match="exceeds"):
            error_magnitudes(np.zeros(1), std)


def test_noisy_backend_batch_entries_draw_from_their_own_sources():
    rng = np.random.default_rng(14)
    rows = rng.integers(0, P.q, (5, 2, P.l, P.n))
    s = rng.integers(-4, 5, (5, P.l, P.n))

    def run(entries):
        nb = NoisySampleBackend(np.array([NoiseSpec(0.2, seed=i) for i in entries]), P)
        out = nb.matvec(rows[entries], nb.program(s[entries]), [P.q, P.p])
        return out, nb.last_injected
    together, counts = run([0, 1, 2, 3, 4])
    assert (counts > 0).all()
    exact = XbarBackend(P).matvec(rows, XbarBackend(P).program(s), [P.q, P.p])
    assert not np.array_equal(together % P.p, exact % P.p)
    for i in range(5):
        alone, count = run([i])
        assert np.array_equal(together[i], alone[0]) and counts[i] == count[0]


def test_noisy_backend_broadcasts_one_exact_product_over_its_sources():
    rng = np.random.default_rng(15)
    rows = rng.integers(0, P.q, (3, 1, P.l, P.n))
    s = rng.integers(-4, 5, (3, P.l, P.n))
    nb = NoisySampleBackend(np.array([[NoiseSpec(0.0)] * 3, [NoiseSpec(0.2, seed=1)] * 3]), P)
    out = nb.matvec(rows, nb.program(s), [P.q])
    assert out.shape == (2, 3, 1, P.n) and nb.last_injected.shape == (2, 3)
    exact = XbarBackend(P).matvec(rows, XbarBackend(P).program(s), [P.q])
    assert np.array_equal(out[0], exact) and not nb.last_injected[0].any()
    assert nb.last_injected[1].sum() > 0


def test_inject_is_the_noisy_backends_read():
    # the noisy product is the exact one plus one `inject`, drawn from the
    # same sources; the exact sums are left as they were
    rng = np.random.default_rng(18)
    rows = rng.integers(0, P.q, (2, 3, P.l, P.n))
    s = rng.integers(-4, 5, (2, P.l, P.n))
    moduli = [P.q, P.q, P.p]

    def sources():
        return np.array([NoiseSpec(0.3, seed=1), NoiseSpec(0.0), NoiseSpec(0.3, seed=2)])
    nb = NoisySampleBackend(sources()[:, None], P, noise_gain=1.5)
    noisy = nb.matvec(rows, nb.program(s), moduli)
    exact = XbarBackend(P).matvec(rows, XbarBackend(P).program(s), moduli)
    kept = exact.copy()
    sums, counts = inject(exact, moduli, P.l, sources()[:, None], 1.5)
    assert np.array_equal(sums, noisy) and np.array_equal(counts, nb.last_injected)
    assert counts.shape == (3, 2) and not counts[1].any() and counts.sum() > 0
    assert np.array_equal(exact, kept) and np.array_equal(sums[1], exact)


def test_inject_refuses_a_modulus_that_is_not_a_power_of_two():
    # a row reads one input cycle per bit of its modulus, a power of two;
    # the check runs whatever the noise, even with none to draw
    exact = np.zeros((1, P.n), dtype=np.int64)
    for noise in (NoiseSpec(0.3, seed=1), NoiseSpec(0.0)):
        with pytest.raises(ValueError, match="power of two"):
            inject(exact, [3329], P.l, noise, 1.0)


def _stick(a, s, seed):
    """The product of `a` by `s` with one cell stuck at the complement of
    its stored bit, at a tile, row and column drawn from `seed`."""
    rng = np.random.default_rng(100 + seed)
    t, r, c = int(rng.integers(16)), int(rng.integers(128)), int(rng.integers(128))
    operand = program_operand(s, P)
    cells = operand.cells.copy()
    tile = cells.reshape(-1, 128, 128)[t]
    tile[r, c] = 1 - tile[r, c]
    return crossbar_polymult(a, replace(operand, cells=cells))


def test_pipeline_outputs_are_pinned():
    # sha256 of the pipeline's outputs for seeds 0-3: the default ADC at
    # both moduli, a 6-bit ADC (whose unit column saturates) and one stuck
    # cell per seed
    cases = {"p": [], "q": [], "adc6": [], "stuck": []}
    for seed in range(4):
        rng = np.random.default_rng(seed)
        s = rng.integers(-4, 5, P.n)
        a_p = Poly(rng.integers(0, P.p, P.n), P.p)
        a_q = Poly(rng.integers(0, P.q, P.n), P.q)
        op = program_operand(s, P)
        cases["p"].append(crossbar_polymult(a_p, op))
        cases["q"].append(crossbar_polymult(a_q, op))
        cases["adc6"].append(crossbar_polymult(a_p, op, adc_bits=6))
        cases["stuck"].append(_stick(a_p, s, seed))
    digests = {name: hashlib.sha256(b"".join(out.coeffs.astype("<i8").tobytes()
                                             for out in outs)).hexdigest()
               for name, outs in cases.items()}
    # the stuck cell and the saturating ADC both show in every product
    assert all(x != y for x, y in zip(cases["stuck"], cases["p"]))
    assert all(x != y for x, y in zip(cases["adc6"], cases["p"]))
    assert digests == {
        "p": "42338726d6d72bb52ef2df9847094116613a9158e0798d88938c7364df9c90cb",
        "q": "a680cfe25479200c26c5bbf19c58b44eb2b2eca63d07c76d7aea993e081616c5",
        "adc6": "858d40e42c68d1687889bacd5231f89b1c627c910b08771ed7af4508cefd86c1",
        "stuck": "aa3a503a95f01f271c0cd0f4f65b52803b552f55dba4bf682783028c1c7956f0",
    }


def test_every_backend_mul_raw_returns_the_reduced_product():
    # one contract: the negacyclic product reduced modulo a.modulus
    rng = np.random.default_rng(97)
    backends = ([SoftwareBackend(alg) for alg in MultAlgorithm]
                + [XbarBackend(P), NoisySampleBackend(NoiseSpec(0.0, 1), P)])
    for modulus in (P.q, P.p):
        a = Poly(rng.integers(0, modulus, P.n), modulus)
        s = rng.integers(-P.mu // 2, P.mu // 2 + 1, P.n)
        want = schoolbook_mul(a, Poly(s, modulus)).coeffs
        for backend in backends:
            assert np.array_equal(backend.mul_raw(a, s), want)
