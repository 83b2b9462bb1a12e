"""Energy, latency, and area model for crossbar design points.

The component catalog carries per-event costs (one ADC sample, one cell-bit
write, one crossbar read cycle); static per-array power is deliberately not
used because the published per-array total cannot be reconstructed from its
own component rows. ADC power/area scale from the 6-bit anchor with an
exponential charge-DAC fraction and a linear remainder; the fraction is
fitted once from the 6-bit/7-bit pair and frozen at 1/3.

Design points combine a multiplication algorithm (which fixes the crossbar
geometry and sample counts) with an architecture: Baseline converts every
sample at full 6-bit precision, ADCShare routes width-aware samples to a
{6,5,4}-bit ladder, the SAC variants fold samples in analog before
conversion, and CascadeBaseline models shift-and-add through buffer-crossbar
writes with one full-width sample per coefficient.
"""

import enum
import math
from dataclasses import astuple, dataclass, fields

from .params import RingParams, DEFAULT_PARAMS
from .polymult import MultAlgorithm, plan_for
from .schedule import PrecisionMap, build_stagger, assign_adcs
from .sac import SacVariant, build_sac_tree
from .xbar import (DEFAULT_TILE_ROWS as TILE_ROWS, DEFAULT_TILE_COLS as TILE_COLS,
                   DEFAULT_BITS_PER_COEFF as BITS_PER_COEFF)

ADC_COLUMNS_SHARED = 8          # 1 ADC per 8 columns -> 8 ns read cycle
READ_CYCLE_NS = 8.0


class Operation(enum.Enum):
    KEYGEN = "keygen"
    ENC = "enc"
    DEC = "dec"
    ENCAPS = "encaps"
    DECAPS = "decaps"


class Architecture(enum.Enum):
    BASELINE = "baseline"
    ADC_SHARE = "adcshare"
    SAC_BASIC = "sac-basic"
    SAC_2X = "sac-2x"
    SAC_4X = "sac-4x"
    SAC_ALL = "sac-all"
    CASCADE_BASELINE = "cascade"


_SAC_OF_ARCH = {
    Architecture.SAC_BASIC: SacVariant.BASIC,
    Architecture.SAC_2X: SacVariant.X2,
    Architecture.SAC_4X: SacVariant.X4,
    Architecture.SAC_ALL: SacVariant.ALL,
}


@dataclass(frozen=True)
class Entry:
    power_uw: float
    area_um2: float


@dataclass(frozen=True)
class ComponentCatalog:
    """Per-component power/area at 32 nm plus per-event energies."""

    xbar_128: Entry = Entry(300.0, 25.0)
    dac_1b: Entry = Entry(3.9, 0.16)
    sh_6b: Entry = Entry(0.007, 0.029)
    adc_6b: Entry = Entry(945.0, 435.0)
    adc_7b: Entry = Entry(1365.0, 628.33)
    adc_rate: float = 1e9                      # samples per second
    write_latency_ns: float = 25.0
    write_energy_pj_per_cell_bit: float = 0.1
    adc_dac_fraction: float = 1.0 / 3.0        # fitted from the 6b/7b pair
    array_area_um2: float = 7737.557           # published per-array total
    tia_sense_transfer_ns: float = 11.0
    sac_all_full_width_root: bool = False      # modulo-optimistic by default

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            numbers = astuple(value) if isinstance(value, Entry) else (value,)
            if not all(math.isfinite(v) and v >= 0 for v in numbers):
                raise ValueError(f"catalog.{f.name} must be finite and >= 0, got {value}")
        if self.adc_rate == 0:
            raise ValueError("catalog.adc_rate must be > 0")
        if not (0.0 <= self.adc_dac_fraction <= 1.0):
            raise ValueError("adc_dac_fraction must be within [0, 1]")
        if self.array_overhead_um2 < 0:
            raise ValueError("catalog.array_area_um2 must cover its listed components")

    @property
    def array_overhead_um2(self) -> float:
        """Per-array total minus the listed components (routing/periphery)."""
        parts = (self.xbar_128.area_um2 + 128 * self.dac_1b.area_um2
                 + 128 * self.sh_6b.area_um2 + 16 * self.adc_6b.area_um2
                 + self.adc_7b.area_um2)
        return self.array_area_um2 - parts

    @property
    def array_non_adc_area_um2(self) -> float:
        return (self.array_area_um2 - 16 * self.adc_6b.area_um2
                - self.adc_7b.area_um2)


DEFAULT_CATALOG = ComponentCatalog()


def fit_adc_dac_fraction(catalog: ComponentCatalog = DEFAULT_CATALOG) -> float:
    """Solve P7 = P6*(f*2 + (1-f)*7/6) for f; power and area agree on ~1/3."""
    ratio = catalog.adc_7b.power_uw / catalog.adc_6b.power_uw
    return (ratio - 7.0 / 6.0) / (2.0 - 7.0 / 6.0)


def adc_scale(bits: int, catalog: ComponentCatalog = DEFAULT_CATALOG):
    """(power_uw, area_um2) for a bits-wide ADC, anchored at the 6-bit entry."""
    if not (1 <= bits <= 24):
        raise ValueError("ADC resolution out of supported range")
    f = catalog.adc_dac_fraction
    factor = f * 2.0 ** (bits - 6) + (1.0 - f) * bits / 6.0
    return (catalog.adc_6b.power_uw * factor, catalog.adc_6b.area_um2 * factor)


def adc_sample_energy_pj(bits: int, catalog: ComponentCatalog = DEFAULT_CATALOG) -> float:
    power_uw, _ = adc_scale(bits, catalog)
    return power_uw * 1e-6 / catalog.adc_rate * 1e12


@dataclass(frozen=True)
class ArchConfig:
    operation: Operation
    algorithm: MultAlgorithm = MultAlgorithm.SB
    architecture: Architecture = Architecture.BASELINE
    params: RingParams = DEFAULT_PARAMS

    @property
    def programs_secret(self) -> bool:
        return self.operation in (Operation.KEYGEN, Operation.ENC,
                                  Operation.ENCAPS, Operation.DECAPS)


@dataclass(frozen=True)
class CostReport:
    config: ArchConfig
    latency_ns: float
    energy_pj: dict        # {"adc", "write", "xbar_read", "dac", "sh", "tia"}
    area_um2: dict         # {"arrays", "adc", "sac"}
    samples_converted: int
    cells_written: int     # physical cell-bits programmed
    logical_cell_bits: int # layout-independent fresh-secret bits (census)

    @property
    def total_energy_pj(self) -> float:
        return sum(self.energy_pj.values())

    @property
    def total_area_um2(self) -> float:
        return sum(self.area_um2.values())

    @property
    def ce_gbit_s_mm2(self) -> float:
        """256 plaintext/ciphertext bits per op, per second, per mm^2."""
        ops_per_s = 1e9 / self.latency_ns
        return 256.0 * ops_per_s / (self.total_area_um2 * 1e-6) / 1e9

    @property
    def ee_gbit_j(self) -> float:
        return 256.0 / (self.total_energy_pj * 1e-12) / 1e9


@dataclass(frozen=True)
class _Kernel:
    """One batch of identical sub-multiplications within an operation."""

    count: int             # sub-multiplications
    degree: int            # operand degree d per sub-multiplication
    out_coeffs: int        # output columns per sub-multiplication
    target_bits: int       # modulo width (10 or 13) = streamed cycles
    passes: int            # sequential input passes over the stored operand


def _kernels(config: ArchConfig):
    """Decompose an operation into stored-operand kernels.

    Each of the l secret polynomials is stored once (decomposed per the
    algorithm); matrix-vector products stream l sequential input passes over
    the same cells, the vector-vector product streams one more at mod p.
    """
    p = config.params
    plan = plan_for(config.algorithm, p)
    m, d = plan.sub_mults, plan.sub_degree
    # SB keeps the negacyclic wraparound in-array (n outputs); decomposed
    # algorithms store plain convolutions with 2d-1 outputs recombined digitally
    out = p.n if config.algorithm is MultAlgorithm.SB else 2 * d - 1

    matvec = _Kernel(p.l * m, d, out, p.eps_q, p.l)     # A*s or A^T*s
    vecvec = _Kernel(p.l * m, d, out, p.eps_p, 1)       # b^T * s
    op = config.operation
    if op is Operation.KEYGEN:
        return [matvec]
    if op is Operation.ENC or op is Operation.ENCAPS:
        return [matvec, vecvec]
    if op is Operation.DEC:
        return [vecvec]
    if op is Operation.DECAPS:
        return [matvec, vecvec, vecvec]
    raise ValueError(f"unknown operation {op}")


def _conversions(arch: Architecture, k: _Kernel, catalog: ComponentCatalog):
    """(samples, ADC energy in pJ, widest sample in bits) per output
    coefficient of kernel `k` on architecture `arch`."""
    blocks = -(-k.degree // TILE_ROWS)     # row blocks the operand spans
    if arch is Architecture.BASELINE:
        per_coeff = k.target_bits * BITS_PER_COEFF * blocks
        return per_coeff, per_coeff * adc_sample_energy_pj(6, catalog), 6
    if arch is Architecture.ADC_SHARE:
        pmap = PrecisionMap(k.target_bits, num_columns=BITS_PER_COEFF, coeff_groups=1)
        asg = assign_adcs(build_stagger(1, k.target_bits, pmap), pmap, (6, 5, 4))
        e_coeff = blocks * sum(lane.samples * adc_sample_energy_pj(lane.bits, catalog)
                               for lane in asg.lanes)
        return asg.total_samples * blocks, e_coeff, 6
    if arch in _SAC_OF_ARCH:
        # SAC columns span both row blocks, so blocks do not multiply
        tree = build_sac_tree(_SAC_OF_ARCH[arch], BITS_PER_COEFF, k.target_bits)
        # a root's analog value is bounded by the tree structure (10 bits for
        # a Round-1 fold of 6-bit columns) and the modulo drops its bits at or
        # above target - shift: SAC-All's single root is modulo-optimistic by
        # default and keeps its full accumulated width behind the catalog switch
        widths = tree.root_widths(k.target_bits)
        if arch is Architecture.SAC_ALL and catalog.sac_all_full_width_root:
            widths = [tree.adc_bits_at_root]
        e_coeff = sum(adc_sample_energy_pj(bits, catalog) for bits in widths)
        return len(widths), e_coeff, max(widths)
    if arch is Architecture.CASCADE_BASELINE:
        # one full-width sample per coefficient; no modulo optimism
        bits = build_sac_tree(SacVariant.ALL, BITS_PER_COEFF,
                              k.target_bits).adc_bits_at_root
        return 1, adc_sample_energy_pj(bits, catalog), bits
    raise ValueError(f"unknown architecture {arch}")


def _adcs(arch: Architecture, catalog: ComponentCatalog, arrays: int,
          samples: int, compute_ns: float, widest: int):
    """(ADC lanes converting in parallel, their total area in um^2)."""
    if arch is Architecture.BASELINE:
        per_array = 16 * catalog.adc_6b.area_um2 + catalog.adc_7b.area_um2
        return arrays * (TILE_COLS // ADC_COLUMNS_SHARED), arrays * per_array
    if arch is Architecture.ADC_SHARE:
        # per 2 arrays: one 6-bit + one 4-bit; one 5-bit per 10 arrays
        pairs = -(-arrays // 2)
        fives = -(-arrays // 10)
        return pairs * 2 + fives, (
            pairs * (adc_scale(6, catalog)[1] + adc_scale(4, catalog)[1])
            + fives * adc_scale(5, catalog)[1])
    # SAC/cascade: one root ADC per array, plus extras if draining the
    # samples would otherwise outlast the compute window
    need = max(arrays, math.ceil(samples / (compute_ns * 1e-9 * catalog.adc_rate)))
    return need, need * adc_scale(widest, catalog)[1]


def estimate(config: ArchConfig,
             catalog: ComponentCatalog = DEFAULT_CATALOG) -> CostReport:
    """Cost one full operation at one design point."""
    arch = config.architecture
    kernels = _kernels(config)
    # every kernel streams over the same stored operand, the first kernel's:
    # it alone sets the arrays, the programming and the streamed cycles
    stored = kernels[0]
    stored_bits = stored.count * stored.degree * stored.out_coeffs * BITS_PER_COEFF
    # capacity-based: sub-operands of shrunken algorithms share arrays
    arrays = max(1, math.ceil(stored_bits / (TILE_ROWS * TILE_COLS)))
    stream_cycles = stored.passes * stored.target_bits
    if config.programs_secret:
        write_pj = stored_bits * catalog.write_energy_pj_per_cell_bit
        physical_bits = stored_bits
        logical_bits = config.params.l * config.params.n * BITS_PER_COEFF
        # rows of one array program sequentially; arrays program in parallel
        program_ns = min(stored.degree, TILE_ROWS) * catalog.write_latency_ns
    else:
        write_pj, physical_bits, logical_bits, program_ns = 0.0, 0, 0, 0.0

    adc_pj = 0.0
    samples = 0
    widest = 0
    for k in kernels:
        per_coeff, e_coeff, bits = _conversions(arch, k, catalog)
        coeffs = k.count * k.out_coeffs * k.passes
        adc_pj += coeffs * e_coeff
        samples += coeffs * per_coeff
        widest = max(widest, bits)

    # SAC-2x/4x stream 2 or 4 cycles in parallel on replicated crossbars
    parallel = {Architecture.SAC_2X: 2, Architecture.SAC_4X: 4}.get(arch, 1)
    arrays *= parallel
    compute_ns = stream_cycles * READ_CYCLE_NS / parallel

    tia_ns = 0.0
    tia_pj = 0.0
    sac_area = 0.0
    if arch in _SAC_OF_ARCH:
        tree = build_sac_tree(_SAC_OF_ARCH[arch], BITS_PER_COEFF,
                              max(k.target_bits for k in kernels))
        tia_ns = tree.tia_stages * catalog.tia_sense_transfer_ns
        # one single-column SAC stack per coefficient-column group; cells are
        # tiny next to ADCs but accounted for via the S+H area figure
        sac_area = arrays * TILE_COLS / BITS_PER_COEFF * catalog.sh_6b.area_um2
        tia_pj = samples * 0.05  # TIA transfer energy per folded sample
    if arch is Architecture.CASCADE_BASELINE:
        # every cycle's column outputs are written to 6-bit buffer cells:
        # cycles x columns x 6 cell-bits per output coefficient
        buffer_bits = sum(k.count * k.out_coeffs * k.passes
                          * k.target_bits * BITS_PER_COEFF * 6
                          for k in kernels)
        write_pj += buffer_bits * catalog.write_energy_pj_per_cell_bit
        physical_bits += buffer_bits
        program_ns += stream_cycles * catalog.write_latency_ns

    lanes, adc_area = _adcs(arch, catalog, arrays, samples, max(compute_ns, 1.0), widest)
    drain_ns = samples / (lanes * catalog.adc_rate) * 1e9
    latency = program_ns + max(compute_ns, drain_ns) + tia_ns

    # per-event peripheral energies over the streamed cycles
    active_rows = sum(k.count * min(k.degree, TILE_ROWS) * -(-k.degree // TILE_ROWS)
                      * k.passes * k.target_bits for k in kernels)
    dac_pj = active_rows * catalog.dac_1b.power_uw * 1e-6 * READ_CYCLE_NS * 1e-9 * 1e12
    read_pj = (stream_cycles * arrays * catalog.xbar_128.power_uw
               * 1e-6 * READ_CYCLE_NS * 1e-9 * 1e12)
    sh_pj = samples * catalog.sh_6b.power_uw * 1e-6 * READ_CYCLE_NS * 1e-9 * 1e12

    energy = {"adc": adc_pj, "write": write_pj, "xbar_read": read_pj,
              "dac": dac_pj, "sh": sh_pj, "tia": tia_pj}
    area = {
        "arrays": arrays * catalog.array_non_adc_area_um2,
        "adc": adc_area,
        "sac": sac_area,
    }
    return CostReport(config, latency, energy, area, samples,
                      physical_bits, logical_bits)
