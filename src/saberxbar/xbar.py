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

`crossbar_polymult` is the one physical model: the explicit per-cycle,
per-sample pipeline including noise and ADC quantization. The backends used
by the PKE do not rerun it. `XbarBackend` is the ideal crossbar as ring
arithmetic (the exact negacyclic product, on `polymult`'s ring leaf: a
weighted n/2-point FFT that multiplies modulo x^n + 1, as the crossbar's
negacyclic matrix does) plus write accounting for the programmed secrets.
Like the crossbar, whose secret stays written while public operands stream
past it, each of its slots keeps the transform of the key it was programmed
with, one (l, n) key or a batch of them, so products against that key
transform nothing again. `NoisySampleBackend` adds sample-referred read
errors on top (`inject`), from one noise source per trial when a batch of
trials multiplies at once. The test suite pins the ideal pipeline and
`XbarBackend` to each other bit-exactly.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .params import RingParams, DEFAULT_PARAMS
from .ring import Poly
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
    draws it. A zero variance means exact products. (SAC trees take their
    TIA noise from `sac.TiaSpec`.)

    `seed` is anything np.random.default_rng accepts: an int, or a
    SeedSequence such as one trial's own child stream."""

    cell_variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.cell_variance) and self.cell_variance >= 0):
            raise ValueError("cell variance must be finite and >= 0")
        self.rng = np.random.default_rng(self.seed)


@dataclass(frozen=True)
class AdcSpec:
    bits: int
    range_max: float

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("ADC resolution must be >= 1 bit")
        if not self.range_max > 0:
            raise ValueError("ADC range_max must be > 0")


def adc_read(value, adc: AdcSpec):
    """Round-to-nearest quantization onto [0, 2^bits - 1], clamped.

    With range_max = 2^bits - 1 and integer-valued ideal inputs the
    quantization is exact (code == value).
    """
    full = (1 << adc.bits) - 1
    code = np.rint(np.asarray(value, dtype=np.float64) * (full / adc.range_max))
    return np.clip(code, 0, full).astype(np.int64)


def adc_bits_for(range_max: int) -> int:
    """Smallest resolution whose code space covers integer levels 0..range_max."""
    return max(1, int(range_max).bit_length())


@dataclass
class CrossbarTile:
    """One physical 1-bit-per-cell array plus its all-ones unit column.

    `cells` holds the stored (possibly complemented) bit levels. `writes`
    counts physical cell-bit writes. Stuck-at faults override the stored
    level at readout time without touching the write counter.
    """

    rows: int = DEFAULT_TILE_ROWS
    cols: int = DEFAULT_TILE_COLS
    cell_bits: int = 1
    bias: int = 0
    cells: np.ndarray = None
    flip_flags: np.ndarray = None
    writes: int = 0
    stuck_faults: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cells is None:
            self.cells = np.zeros((self.rows, self.cols), dtype=np.int64)
        if self.flip_flags is None:
            self.flip_flags = np.zeros(self.cols, dtype=bool)

    def program(self, levels: np.ndarray) -> None:
        """Store a full grid of cell levels, applying flip encoding per column."""
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != (self.rows, self.cols):
            raise ValueError("programming grid must match tile dimensions")
        top = (1 << self.cell_bits) - 1
        if levels.min() < 0 or levels.max() > top:
            raise ValueError("cell level out of range for cell_bits")
        self.flip_flags = levels.sum(axis=0) > self.rows // 2
        self.cells = np.where(self.flip_flags[None, :], top - levels, levels)
        self.writes += self.rows * self.cols * self.cell_bits

    def effective_cells(self) -> np.ndarray:
        if not self.stuck_faults:
            return self.cells
        out = self.cells.copy()
        for (r, c), level in self.stuck_faults.items():
            out[r, c] = level
        return out

    def set_stuck_fault(self, row: int, col: int, level: int) -> None:
        self.stuck_faults[(row, col)] = int(level)

    def clear_faults(self) -> None:
        self.stuck_faults.clear()


@dataclass(frozen=True)
class ProgramLayout:
    """Mapping from logical (row, coeff-column, bit-slice) to physical cells.

    Logical coefficient j, slice k occupies physical column (j*bpc + k) within
    its column block; logical rows are chunked into row blocks. One PolyMult
    at n=256 with 4-bit operands on 128x128 tiles needs 2 x 8 = 16 tiles.
    """

    logical_rows: int
    logical_cols: int
    bits_per_coeff: int
    tile_rows: int = DEFAULT_TILE_ROWS
    tile_cols: int = DEFAULT_TILE_COLS

    @property
    def row_blocks(self) -> int:
        return -(-self.logical_rows // self.tile_rows)

    @property
    def col_blocks(self) -> int:
        return -(-self.logical_cols * self.bits_per_coeff // self.tile_cols)

    @property
    def tiles_used(self) -> int:
        return self.row_blocks * self.col_blocks

    @property
    def coeff_cols_per_tile(self) -> int:
        return self.tile_cols // self.bits_per_coeff

    def locate(self, row: int, coeff_col: int, bit: int):
        """-> (tile_index, physical_row, physical_column)."""
        if not (0 <= row < self.logical_rows and 0 <= coeff_col < self.logical_cols
                and 0 <= bit < self.bits_per_coeff):
            raise ValueError("logical coordinates out of range")
        phys_col = coeff_col * self.bits_per_coeff + bit
        tile = (row // self.tile_rows) * self.col_blocks + phys_col // self.tile_cols
        return tile, row % self.tile_rows, phys_col % self.tile_cols


def program_operand(M: np.ndarray, params: RingParams = DEFAULT_PARAMS):
    """Bias, bit-slice and flip-encode the (n, n) operand matrix
    (`build_negacyclic_matrix`) into 1-bit tiles of the default geometry,
    the one that `costmodel` prices."""
    M = np.asarray(M, dtype=np.int64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("negacyclic matrix must be square")
    n = len(M)
    bias = params.mu // 2
    bpc = DEFAULT_BITS_PER_COEFF
    biased = M + bias
    if biased.min() < 0 or biased.max() >= (1 << bpc):
        raise ValueError("biased operand does not fit bits_per_coeff")
    layout = ProgramLayout(n, n, bpc)
    tile_rows, tile_cols = layout.tile_rows, layout.tile_cols

    # expand to the physical bit plane: column j*bpc+k holds bit k of column j
    slices = (biased[:, :, None] >> np.arange(bpc)) & 1
    plane = slices.reshape(n, n * bpc)

    tiles = []
    for rb in range(layout.row_blocks):
        for cb in range(layout.col_blocks):
            grid = np.zeros((tile_rows, tile_cols), dtype=np.int64)
            rows = plane[rb * tile_rows: (rb + 1) * tile_rows,
                         cb * tile_cols: (cb + 1) * tile_cols]
            grid[: rows.shape[0], : rows.shape[1]] = rows
            tile = CrossbarTile(tile_rows, tile_cols, 1, bias)
            tile.program(grid)
            tiles.append(tile)
    return tiles, layout


@dataclass(frozen=True)
class CycleReadout:
    """Raw (pre-correction) analog bitline values for one streamed cycle."""

    columns: np.ndarray   # (num_tiles, tile_cols)
    unit: np.ndarray      # (num_tiles,) all-ones unit-column current
    ones: np.ndarray      # (num_tiles,) exact input popcount per row block


def stream_cycle(tiles, layout: ProgramLayout, input_bits: np.ndarray,
                 noise: NoiseSpec = None) -> CycleReadout:
    """Drive one bit per logical row; return raw analog column currents.

    Each active cell contributes its level times N(1, cell_variance^2) when
    noisy; a column with k active unit cells therefore reads N(k, k*var^2).
    Flipped columns are corrected digitally after ADC readout, not here.
    """
    bits = np.asarray(input_bits, dtype=np.int64)
    if len(bits) != layout.logical_rows:
        raise ValueError("input_bits length must equal logical rows")
    num_tiles = layout.tiles_used
    columns = np.zeros((num_tiles, layout.tile_cols), dtype=np.float64)
    unit = np.zeros(num_tiles, dtype=np.float64)
    ones = np.zeros(num_tiles, dtype=np.int64)
    for t, tile in enumerate(tiles):
        rb = t // layout.col_blocks
        seg = np.zeros(tile.rows, dtype=np.int64)
        chunk = bits[rb * tile.rows: (rb + 1) * tile.rows]
        seg[: len(chunk)] = chunk
        active = seg @ tile.effective_cells()
        pop = int(seg.sum())
        ones[t] = pop
        if noise is not None and noise.cell_variance > 0:
            std = noise.cell_variance
            columns[t] = active + noise.rng.normal(
                0.0, std * np.sqrt(np.maximum(active, 0)))
            unit[t] = pop + noise.rng.normal(0.0, std * math.sqrt(pop)) if pop else 0.0
        else:
            columns[t] = active
            unit[t] = pop
    return CycleReadout(columns, unit, ones)


def _corrected_columns(tiles, layout: ProgramLayout, codes: np.ndarray,
                       unit_codes: np.ndarray) -> np.ndarray:
    """Undo flip encoding digitally: true = input_popcount - raw."""
    out = np.array(codes, dtype=np.int64)
    for t, tile in enumerate(tiles):
        flip = tile.flip_flags
        out[t, flip] = unit_codes[t] - out[t, flip]
    return out


def crossbar_polymult(a: Poly, s_centered: np.ndarray,
                      params: RingParams = DEFAULT_PARAMS,
                      noise: NoiseSpec = None,
                      adc: AdcSpec = None,
                      tiles=None, layout=None) -> Poly:
    """Full per-cycle pipeline: program, stream, ADC, correct, accumulate.

    Accumulation shifts each cycle's signed per-coefficient dot product by its
    bit weight and reduces modulo a.modulus; in ideal mode the result is
    bit-identical to the software product. Pass pre-programmed (tiles, layout)
    to model the stationary secret across many multiplications.
    """
    n = a.n
    target = a.modulus.bit_length() - 1
    if tiles is None or layout is None:
        M = build_negacyclic_matrix(s_centered)
        tiles, layout = program_operand(M, params)
    bias = tiles[0].bias
    bpc = layout.bits_per_coeff

    if adc is None:
        # cover the worst-case post-flip column current so integer levels are
        # represented exactly (a population tie at rows/2 can still read rows/2)
        peak = max(int(t.effective_cells().sum(axis=0).max()) for t in tiles)
        peak = max(peak, layout.tile_rows)  # the unit column reads up to rows
        bits = adc_bits_for(peak)
        # full scale = 2^bits - 1 >= peak keeps integer levels 1:1 with codes
        adc = AdcSpec(bits, (1 << bits) - 1)

    acc = np.zeros(n, dtype=np.int64)
    mod = np.int64(a.modulus)
    slice_w = (np.int64(1) << np.arange(bpc, dtype=np.int64))
    for cycle in range(target):
        in_bits = (a.coeffs >> cycle) & 1
        readout = stream_cycle(tiles, layout, in_bits, noise)
        codes = adc_read(readout.columns, adc)
        unit_codes = adc_read(readout.unit, adc)
        true_cols = _corrected_columns(tiles, layout, codes, unit_codes)

        # reassemble per-coefficient biased dot products from the bit slices
        per_tile = true_cols.reshape(layout.row_blocks, layout.col_blocks,
                                     layout.coeff_cols_per_tile, bpc)
        unit_sum = unit_codes.reshape(layout.row_blocks, layout.col_blocks)
        biased = (per_tile * slice_w).sum(axis=3).sum(axis=0)  # (col_blocks, ccpt)
        biased = biased.reshape(-1)[:n]
        pop_total = unit_sum[:, 0].sum()  # popcount is identical across blocks' columns
        signed = biased - bias * pop_total
        acc = (acc + ((signed % mod) << cycle)) % mod
    return Poly(acc, a.modulus)


class XbarBackend:
    """Ideal crossbar backend: ring arithmetic plus write accounting.

    An ideal crossbar yields the exact negacyclic product, so `matvec`
    computes it directly, with the schoolbook table of `polymult`'s core,
    whose products modulo x^n + 1 run on its ring leaf (for n a power of
    two). What the backend models is the stationary secret: which secret
    polynomials the boot and work slots hold, and the cell bits written to
    program them. The work slot holds at most l polynomials, its physical
    size; multiplying by a secret held in neither slot programs it into the
    work slot ad hoc, evicting the oldest entry, and counts its writes.
    Secrets with a leading axis (a batch of independent crossbars, one per
    trial) fill the slots polynomial by polynomial.

    A slot also holds the transform of the (..., l, n) key it was programmed
    with, a single key or a batch, next to a read-only copy of the key:
    `program` returns it for an equal secret, and `matvec` multiplies by it
    without checking the slots polynomial by polynomial. An ad hoc eviction
    from the work slot drops the work slot's transform.
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

    def _install(self, s_centered: np.ndarray, slot: str) -> None:
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
        self._held[slot] = program(MultAlgorithm.SB, key)

    def install_boot_secret(self, s_centered: np.ndarray) -> None:
        self._install(s_centered, "boot")

    def program_secret(self, s_centered: np.ndarray) -> None:
        self._install(s_centered, "work")

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

    def matvec(self, rows: np.ndarray, handle: Programmed, moduli) -> np.ndarray:
        """Sum over j of rows[..., i, j] * s_j for every row i of the
        (..., rows, l, n) array, as signed length-n arrays not yet reduced
        modulo the rows' `moduli`."""
        rows = np.asarray(rows, dtype=np.int64)
        self.mult_count += rows.size // rows.shape[-1]
        if not any(handle is held for held in self._held.values()):
            for s in handle.secret.reshape(-1, handle.n):
                self._ensure_programmed(s)
        return matvec(handle, rows)

    def mul_raw(self, a: Poly, s_poly_centered: np.ndarray) -> np.ndarray:
        """One product, reduced modulo a.modulus."""
        s = np.asarray(s_poly_centered, dtype=np.int64)
        return self.matvec(a.coeffs[None, None], self.program(s[None]),
                           [a.modulus])[0] % a.modulus

    def reset_counters(self) -> None:
        self.mult_count = 0
        self.cell_bits_written = 0
        self.boot_cell_bits = 0


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
    array of them, one crossbar per entry of a batch: `inject` broadcasts
    the exact sums over the array's shape, and entry i draws its errors from
    noise[i].rng at its own variance. Errors are additive, so one exact
    product serves every entry it broadcasts to, and an entry at zero
    variance draws nothing and gets the exact sums (boot-time programming is
    verified off-line, so key generation runs with `NoiseSpec()`). The
    number of errors an entry draws does not depend on the exact sums, so
    sums computed once, by the inherited `XbarBackend.matvec`, can take the
    errors of several reads, one `inject` each: a decryption retry rereads
    the same exact product. Its slots hold batch keys as `XbarBackend`'s do.
    `last_injected` counts the errors injected by the latest `inject`, per
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

    def matvec(self, rows: np.ndarray, handle: Programmed, moduli) -> np.ndarray:
        """The exact sums of `XbarBackend.matvec` plus sample errors. The
        rows' moduli set each product's number of input cycles."""
        return self.inject(super().matvec(rows, handle, moduli), moduli, handle.l)

    def inject(self, exact: np.ndarray, moduli, terms: int) -> np.ndarray:
        """The (..., rows, n) exact sums, of `terms` products each, plus the
        sample errors of one read: a new array, broadcast over the shape of
        `noise`. Row i's products read its modulus' bits, one input cycle
        per bit."""
        if len(moduli) != exact.shape[-2]:
            raise ValueError("noisy products need one modulus per row")
        sources = np.asarray(self.noise, dtype=object)
        lead = np.broadcast_shapes(exact.shape[:-2], sources.shape)
        out = np.broadcast_to(exact, lead + exact.shape[-2:]).copy()
        entries = out.reshape(-1, *out.shape[-2:])  # a view: (entries, rows, n)
        counts = np.zeros(len(entries), dtype=np.int64)
        self.last_injected = counts.reshape(lead)
        n = out.shape[-1]
        slices = DEFAULT_BITS_PER_COEFF
        # runs of consecutive rows that share a modulus, hence a number of
        # input cycles: (rows, cycles). Drawing each run with a scalar count
        # and a scalar bound gives the same draws as per-row array arguments,
        # at a fraction of numpy's per-call cost for arrays.
        runs = [(len(list(group)), m.bit_length() - 1)
                for m, group in itertools.groupby(moduli)]
        starts = np.cumsum([0] + [rows for rows, _ in runs[:-1]])
        samples_per_cycle = n * slices * -(-n // DEFAULT_TILE_ROWS)
        for i, (spec, result) in enumerate(zip(np.broadcast_to(sources, lead).ravel(),
                                               entries)):
            std = spec.cell_variance * self.noise_gain
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
        return out

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
