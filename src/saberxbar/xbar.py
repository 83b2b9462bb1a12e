"""Functional simulation of memristor crossbars for negacyclic products.

A polynomial multiplication maps onto crossbars by storing the small operand
(the secret) as an n x n negacyclic matrix, a plain array: column j holds the
coefficients that feed output coefficient j, so streaming the bits of the
other operand down the wordlines and summing bitline currents computes the
product one input-bit-plane per cycle.

Signed values are handled with a bias (stored value = coefficient + mu/2) and
corrected digitally using the popcount of the cycle's input bits, which a
dedicated all-ones unit column provides. Columns whose stored-bit population
exceeds half the rows are stored complemented (flip encoding) so that no
bitline current exceeds rows/2; the complement is undone after readout.

`program_operand` takes the secret polynomial and lays its biased,
bit-sliced, flip-encoded matrix onto one array of 1-bit tiles (2 row blocks
x 8 column blocks of 128 x 128 at n = 256): an `Operand`, which carries its
bias. `crossbar_polymult(a, operand, noise, adc_bits)` is the one physical
model: the explicit per-cycle, per-sample read of a programmed operand,
including noise and quantization by an ADC of `adc_bits` bits (by
default the narrowest that reads the operand's columns exactly), which
reads every cycle on all tiles at once (`read_columns`). The backends used
by the PKE do not rerun it. `XbarBackend` is the ideal crossbar as ring
arithmetic (the exact negacyclic product, on `polymult`'s one leaf at
size = n: a weighted n/2-point FFT that multiplies modulo x^n + 1 by
itself, as the crossbar's negacyclic matrix does) plus write accounting
for the programmed secrets. Like the crossbar, whose secret stays written
while public operands stream past it, each of its slots keeps the transform
of the key it was programmed with, one (l, n) key or a batch of them, so
products against that key transform nothing again. `NoisySampleBackend`
adds sample-referred read errors on top (`inject`), from one noise source
per trial when a batch of trials multiplies at once. The test suite pins
the ideal pipeline and `XbarBackend` to each other bit-exactly.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .params import RingParams, DEFAULT_PARAMS, _log2_exact
from .ring import Poly, _reduce
from .polymult import MultAlgorithm, Programmed, program, matvec

DEFAULT_TILE_ROWS = 128
DEFAULT_TILE_COLS = 128
DEFAULT_BITS_PER_COEFF = 4

# sample-referred residual noise per unit cell-variance, calibrated once so
# the empirical decryption failure probability at 10% variance reproduces the
# published operating point (~0.22 with no retries)
DEFAULT_NOISE_GAIN = 1.07

# Largest sample-referred noise std (cell variance x noise gain, in cell
# currents) that the sample error law takes. At this std a sample already
# errs with probability 0.96, so errors are no longer the sparse events the
# law draws, and its inverse-CDF table grows linearly with the std (about
# 38.5 entries per cell current).
MAX_SAMPLE_STD = 10.0


def build_negacyclic_matrix(s_centered: np.ndarray) -> np.ndarray:
    """The (n, n) matrix whose left-product with an input coefficient vector
    equals the negacyclic (mod x^n + 1) product with s: entry [i, j] is
    +s[j-i] for j >= i and -s[n+j-i] for j < i."""
    s = np.asarray(s_centered, dtype=np.int64)
    n = len(s)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    sign = np.where(j >= i, 1, -1)
    return sign * s[(j - i) % n]


@dataclass
class NoiseSpec:
    """Relative Gaussian noise on per-cell currents, and the generator that
    draws it. Despite its name, `cell_variance` is a relative standard
    deviation: an active cell's current reads N(1, cell_variance^2). A zero
    variance means exact products. (SAC trees take their TIA noise from
    `sac.TiaSpec`.)

    `seed` is anything np.random.default_rng accepts: an int, or a
    SeedSequence such as one trial's own child stream."""

    cell_variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.cell_variance) and self.cell_variance >= 0):
            raise ValueError("cell variance must be finite and >= 0")
        self.rng = np.random.default_rng(self.seed)


def adc_read(value, bits: int):
    """An ADC of `bits` bits: round-to-nearest onto codes 0..2^bits - 1,
    clamped. Integer inputs inside that range read exactly (code == value).
    A width that is not an integer >= 1 raises ValueError."""
    if not (isinstance(bits, numbers.Integral) and bits >= 1):
        raise ValueError(f"ADC resolution must be an integer >= 1 bit, got {bits!r}")
    code = np.rint(np.asarray(value, dtype=np.float64))
    return np.clip(code, 0, (1 << bits) - 1).astype(np.int64)


def adc_bits_for(range_max: int) -> int:
    """Smallest resolution whose code space covers integer levels 0..range_max."""
    return max(1, int(range_max).bit_length())


@dataclass(frozen=True)
class Operand:
    """A secret as the crossbars hold it: its negacyclic matrix on an array
    of 1-bit tiles, each with an all-ones unit column.

    `cells` (row_blocks, col_blocks, rows, cols) holds the stored bits and
    `flips` (row_blocks, col_blocks, cols) marks the columns stored
    complemented. Both are read-only; a stuck cell is an edit to a copy of
    `cells`. `bias` is the value added to every stored coefficient, which
    the read removes.
    """

    cells: np.ndarray
    flips: np.ndarray
    bias: int


def operand_shape(n: int) -> tuple:
    """The shape (row_blocks, col_blocks, rows, cols) of the cells of an
    operand of n coefficients (`program_operand`), on tiles of the default
    geometry: n logical rows of `rows`, and n * bits_per_coeff physical
    columns of `cols`, each rounded up to whole tiles."""
    rows, cols = DEFAULT_TILE_ROWS, DEFAULT_TILE_COLS
    return -(-n // rows), -(-n * DEFAULT_BITS_PER_COEFF // cols), rows, cols


def program_operand(s_centered: np.ndarray, params: RingParams = DEFAULT_PARAMS) -> Operand:
    """Bias by mu/2, bit-slice and flip-encode the negacyclic matrix of the
    centered secret polynomial (`build_negacyclic_matrix`) into 1-bit tiles
    of the default geometry, the one that `costmodel` prices. Logical row i
    lies in row block i // rows; bit k of coefficient column j lies in
    physical column j * bits_per_coeff + k, cut into column blocks of
    `cols`. At n = 256 with 4-bit operands on 128 x 128 tiles that is 2 x 8
    tiles. A secret that is not one polynomial, or whose biased matrix does
    not fit bits_per_coeff, raises ValueError."""
    s = np.asarray(s_centered, dtype=np.int64)
    if s.ndim != 1:
        raise ValueError("the operand must be one polynomial, a 1-D array of coefficients")
    n, bias, bpc = len(s), params.mu // 2, DEFAULT_BITS_PER_COEFF
    biased = build_negacyclic_matrix(s) + bias
    if biased.min() < 0 or biased.max() >= (1 << bpc):
        raise ValueError("biased operand does not fit bits_per_coeff")
    row_blocks, col_blocks, rows, cols = operand_shape(n)
    plane = np.zeros((row_blocks * rows, col_blocks * cols), dtype=np.uint8)
    plane[:n, :n * bpc] = np.unpackbits(biased.astype(np.uint8)[..., None], axis=-1,
                                        count=bpc, bitorder="little").reshape(n, n * bpc)
    bits = plane.reshape(row_blocks, rows, col_blocks, cols).swapaxes(1, 2)
    # a column holding more than rows/2 ones is stored complemented, so that
    # no bitline current exceeds rows/2
    flips = bits.sum(axis=2) > rows // 2
    cells = np.where(flips[:, :, None, :], 1 - bits, bits)
    cells.setflags(write=False)
    flips.setflags(write=False)
    return Operand(cells, flips, bias)


def read_columns(operand: Operand, planes: np.ndarray, noise: NoiseSpec = None):
    """The analog reads of input bit planes (..., row_blocks, rows) on every
    tile at once: the data columns' currents (..., row_blocks, col_blocks,
    cols) and each tile's unit column (..., row_blocks, col_blocks), which
    reads the popcount of its row block's input bits. With noise each active
    cell's current is N(1, var^2), so a column with k active cells reads
    N(k, k var^2)."""
    columns = np.einsum("...rk,rckj->...rcj", planes, operand.cells, optimize=True)
    unit = np.broadcast_to(planes.sum(axis=-1)[..., None], columns.shape[:-1])
    if noise is not None and noise.cell_variance > 0:
        std = noise.cell_variance
        columns = columns + noise.rng.normal(0.0, std * np.sqrt(columns))
        unit = unit + noise.rng.normal(0.0, std * np.sqrt(unit))
    return columns, unit


def crossbar_polymult(a: Poly, operand: Operand, noise: NoiseSpec = None,
                      adc_bits: int = None) -> Poly:
    """Full per-cycle pipeline on a programmed operand: stream, ADC,
    correct, accumulate.

    Each cycle streams one bit plane of `a` through all tiles, and every
    column and unit column is read by an ADC of `adc_bits` bits, by default
    the narrowest that reads them exactly (`adc_read` rejects a width that
    is not an integer >= 1). Accumulation shifts each cycle's signed
    per-coefficient dot product by its bit weight, and `Poly` reduces the
    sum modulo a.modulus; in ideal mode the result is bit-identical to the
    software product. The operand stays programmed across any number of
    reads.
    """
    row_blocks, col_blocks, rows, cols = operand.cells.shape
    bpc = DEFAULT_BITS_PER_COEFF
    if adc_bits is None:
        # a full scale of 2^bits - 1 covering the unit column, which reads up
        # to rows, maps integer levels 1:1 onto codes; a column of one-bit
        # cells, stuck or not, reads no more than rows either
        adc_bits = adc_bits_for(rows)

    n, cycles = a.n, _log2_exact(a.modulus)
    planes = np.zeros((cycles, row_blocks * rows))
    planes[:, :n] = (a.coeffs >> np.arange(cycles)[:, None]) & 1
    columns, unit = read_columns(operand, planes.reshape(cycles, row_blocks, rows), noise)
    codes, unit_codes = adc_read(columns, adc_bits), adc_read(unit, adc_bits)
    # undo flip encoding digitally: a complemented column reads popcount - true
    true = np.where(operand.flips, unit_codes[..., None] - codes, codes)

    # reassemble per-coefficient biased dot products from the bit slices,
    # summed over row blocks, and remove the bias with the input popcount
    # that column block 0's unit columns read
    slices = true.reshape(cycles, row_blocks, col_blocks * cols // bpc, bpc)
    biased = (slices @ (1 << np.arange(bpc))).sum(axis=1)[:, :n]
    signed = biased - operand.bias * unit_codes[:, :, 0].sum(axis=1)[:, None]
    return Poly((signed << np.arange(cycles)[:, None]).sum(axis=0), a.modulus)


class XbarBackend:
    """Ideal crossbar backend: ring arithmetic plus write accounting.

    An ideal crossbar yields the exact negacyclic product, so `matvec`
    computes it directly, with the schoolbook table of `polymult`'s core,
    whose leaf multiplies modulo x^n + 1 itself, with nothing after it.
    What the backend models is the stationary secret: which secret
    polynomials the boot and work slots hold, and the cell bits written to
    program them. The work slot holds at most l polynomials, its
    physical size; multiplying by a secret held in neither slot programs it
    into the work slot ad hoc, evicting the oldest entry, and counts its
    writes. Secrets with a leading axis (a batch of independent crossbars,
    one per trial) fill the slots polynomial by polynomial.

    A slot also holds the transform of the (..., l, n) key it was programmed
    with, a single key or a batch, next to a read-only copy of the key:
    `install_boot_secret` and `program_secret` return it, `program` returns
    it for an equal secret, and `matvec` multiplies by it without checking
    the slots polynomial by polynomial. An ad hoc eviction from the work
    slot drops the work slot's transform.
    """

    def __init__(self, params: RingParams = DEFAULT_PARAMS):
        self.params = params
        self.mult_count = 0
        self.cell_bits_written = 0
        self.boot_cell_bits = 0
        # boot slot holds the long-lived key-generation/decryption secret;
        # work slot holds the per-encryption ephemeral secret. Each maps the
        # bytes of a programmed polynomial to None, oldest first.
        self._slots = {"boot": {}, "work": {}}
        # per slot, the handle of the key it was programmed with
        self._held = {"boot": None, "work": None}

    def _install(self, s_centered: np.ndarray, slot: str) -> Programmed:
        s = np.asarray(s_centered, dtype=np.int64)
        polys = s.reshape(-1, s.shape[-1])
        self._slots[slot] = dict.fromkeys(row.tobytes() for row in polys)
        bits = s.size * DEFAULT_BITS_PER_COEFF
        if slot == "boot":
            self.boot_cell_bits += bits
        else:
            self.cell_bits_written += bits
        key = s.copy()  # the caller's array may change in place
        key.setflags(write=False)
        self._held[slot] = handle = program(MultAlgorithm.SB, key)
        return handle

    def install_boot_secret(self, s_centered: np.ndarray) -> Programmed:
        """Write the (..., l, n) key-generation secret into the boot slot;
        returns the handle the slot holds."""
        return self._install(s_centered, "boot")

    def program_secret(self, s_centered: np.ndarray) -> Programmed:
        """Write the (..., l, n) ephemeral secret into the work slot;
        returns the handle the slot holds."""
        return self._install(s_centered, "work")

    def _ensure_programmed(self, s_poly_centered: np.ndarray) -> None:
        key = s_poly_centered.tobytes()
        if key in self._slots["work"] or key in self._slots["boot"]:
            return
        # operand was never programmed; install ad hoc (counts as writes)
        work = self._slots["work"]
        while len(work) >= self.params.l:
            del work[next(iter(work))]
            self._held["work"] = None
        work[key] = None
        self.cell_bits_written += len(s_poly_centered) * DEFAULT_BITS_PER_COEFF

    def program(self, s_centered: np.ndarray) -> Programmed:
        """The handle `matvec` multiplies by: the (..., l, n) secret,
        transformed once. A slot's held handle if its key equals the secret,
        else transformed here. The secret's cell bits are written by
        `install_boot_secret` or `program_secret`, or ad hoc by the first
        product that needs it, not here."""
        s = np.asarray(s_centered)
        for held in self._held.values():
            if (held is not None and held.secret.shape == s.shape
                    and np.array_equal(held.secret, s)):
                return held
        return program(MultAlgorithm.SB, s)

    def matvec(self, rows, handle: Programmed, moduli) -> np.ndarray:
        """Sum over j of rows[..., i, j] * s_j for every row i of the
        (..., rows, l, n) array, or of the rows programmed (`matvec` of
        `polymult`), as signed length-n arrays not yet reduced modulo the
        rows' `moduli`."""
        self.mult_count += rows.size // rows.shape[-1]
        if not any(handle is held for held in self._held.values()):
            for s in handle.secret.reshape(-1, handle.n):
                self._ensure_programmed(s)
        return matvec(handle, rows)

    def mul_raw(self, a: Poly, s_poly_centered: np.ndarray) -> np.ndarray:
        """One negacyclic product, reduced modulo a.modulus, as every
        backend's `mul_raw` returns it."""
        s = np.asarray(s_poly_centered, dtype=np.int64)
        return _reduce(self.matvec(a.coeffs[None, None], self.program(s[None]),
                                   [a.modulus])[0], a.modulus)

    def reset_counters(self) -> None:
        self.mult_count = 0
        self.cell_bits_written = 0
        self.boot_cell_bits = 0


def inject(exact: np.ndarray, moduli, terms: int, noise, gain: float):
    """The (..., rows, n) exact sums, of `terms` products each, plus the
    sample errors of one read, and the number of errors injected: a pair
    (sums, counts), both new arrays broadcast over the shape of `noise`.

    `noise` is one NoiseSpec or an array of them, one crossbar per entry of
    a batch; entry i draws its errors from noise[i].rng at a sample-referred
    std of its cell variance x `gain`, and one at zero std draws nothing and
    gets the exact sums. Row i's products read its modulus' bits, one input
    cycle per bit, for a modulus that is a power of two (ValueError
    otherwise). The number of errors an entry draws does not depend on
    the exact sums, so sums computed once can take the errors of several
    reads, one call each: a decryption retry rereads the same exact
    product."""
    if len(moduli) != exact.shape[-2]:
        raise ValueError("noisy products need one modulus per row")
    sources = np.asarray(noise, dtype=object)
    lead = np.broadcast_shapes(exact.shape[:-2], sources.shape)
    out = np.broadcast_to(exact, lead + exact.shape[-2:]).copy()
    entries = out.reshape(-1, *out.shape[-2:])  # a view: (entries, rows, n)
    counts = np.zeros(len(entries), dtype=np.int64)
    n = out.shape[-1]
    slices = DEFAULT_BITS_PER_COEFF
    # runs of consecutive rows that share a modulus, hence a number of input
    # cycles: (rows, cycles). Drawing each run with a scalar count and a
    # scalar bound gives the same draws as per-row array arguments, at a
    # fraction of numpy's per-call cost for arrays.
    runs = [(len(list(group)), _log2_exact(m)) for m, group in itertools.groupby(moduli)]
    starts = np.cumsum([0] + [rows for rows, _ in runs[:-1]])
    samples_per_cycle = n * slices * -(-n // DEFAULT_TILE_ROWS)
    for i, (spec, result) in enumerate(zip(np.broadcast_to(sources, lead).ravel(), entries)):
        std = spec.cell_variance * gain
        if std <= 0:
            continue
        # P(|N(0,std)| crosses the half-LSB rounding threshold)
        tail = _phi_tail(0.5 / std)
        rng = spec.rng
        per_row = np.concatenate([
            rng.binomial(cycles * samples_per_cycle, 2.0 * tail, (rows, terms))
            for rows, cycles in runs]).sum(axis=1)
        k = counts[i] = per_row.sum()
        if k == 0:
            continue
        row = np.repeat(np.arange(len(per_row)), per_row)
        cycle = np.concatenate([rng.integers(0, cycles, errors) for (_, cycles), errors
                                in zip(runs, np.add.reduceat(per_row, starts))])
        coeff = rng.integers(0, n, k)
        sl = rng.integers(0, slices, k)
        mag = error_magnitudes(rng.random(k) * tail, std)
        sign = np.where(rng.random(k) < 0.5, 1, -1)
        np.add.at(result, (row, coeff), (sign * mag) << (cycle + sl))
    return out, counts.reshape(lead)


class NoisySampleBackend(XbarBackend):
    """Crossbar backend with post-calibration sample-referred read noise.

    Raw per-cell multiplicative variation is largely removed by programming
    verification and per-column calibration; what reaches the ADC is modeled
    as an additive residual on each converted sample, Gaussian with standard
    deviation cell_variance x noise_gain in units of one cell current. A
    sample only perturbs the result when the residual crosses the rounding
    threshold, so errors are drawn sparsely: the number of affected samples
    of each product is binomial and each error lands on a uniform (cycle,
    coefficient, bit-slice) sample with weight 2^(cycle+slice).

    `noise` is one NoiseSpec, the noise source of every product, or an
    array of them, one crossbar per entry of a batch: `matvec` adds the
    errors of one read (`inject`) to `XbarBackend`'s exact sums, broadcast
    over the array's shape. Errors are additive, so one exact product
    serves every entry it broadcasts to, and an entry at zero variance gets
    the exact sums. Its slots hold batch keys as `XbarBackend`'s do.
    `last_injected` counts the errors injected by the latest product, per
    entry.
    """

    def __init__(self, noise, params: RingParams = DEFAULT_PARAMS,
                 noise_gain: float = DEFAULT_NOISE_GAIN):
        super().__init__(params)
        if not (math.isfinite(noise_gain) and noise_gain >= 0):
            raise ValueError("noise gain must be finite and >= 0")
        self.noise = noise
        self.noise_gain = noise_gain
        self.last_injected = np.zeros(0, dtype=np.int64)

    def matvec(self, rows, handle: Programmed, moduli) -> np.ndarray:
        """The exact sums of `XbarBackend.matvec` plus sample errors. The
        rows' moduli set each product's number of input cycles."""
        sums, self.last_injected = inject(super().matvec(rows, handle, moduli), moduli,
                                          handle.l, self.noise, self.noise_gain)
        return sums

    def mul_raw(self, a: Poly, s_poly_centered: np.ndarray) -> np.ndarray:
        """One product with sample errors, reduced modulo a.modulus. Its own
        method, not only the inherited one, so that tracing tells noisy
        products from ideal ones."""
        return super().mul_raw(a, s_poly_centered)


def _phi_tail(x: float) -> float:
    """P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@functools.lru_cache(maxsize=64)
def _magnitude_tails(std: float) -> np.ndarray:
    """P(N(0, std) > m + 0.5) for m = 1, 2, ... while positive, ascending,
    for std up to MAX_SAMPLE_STD."""
    if not std <= MAX_SAMPLE_STD:
        raise ValueError(f"sample-referred noise std {std} exceeds {MAX_SAMPLE_STD}")
    tails = []
    while (tail := _phi_tail((len(tails) + 1.5) / std)) > 0:
        tails.append(tail)
    return np.array(tails[::-1])


def error_magnitudes(u: np.ndarray, std: float) -> np.ndarray:
    """Rounded magnitudes of sample errors from the conditional tail
    |N(0, std)| > 0.5, by inverse CDF: for each u in [0, P(N(0, std) > 0.5)),
    the smallest m >= 1 with P(N(0, std) > m + 0.5) <= u."""
    tails = _magnitude_tails(std)
    return 1 + len(tails) - np.searchsorted(tails, u, side="right")
