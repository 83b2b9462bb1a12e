"""Modulo-aware ADC precision planning and staggered crossbar scheduling.

Because output coefficients are reduced modulo 2^target, a sample that gets
shifted left by (cycle + column) before accumulation only contributes its low
target - (cycle + column) bits; everything above that is ineffectual. The
planner exploits this three ways: per-sample ADC precision, staggering the
cycle order across crossbars so full-precision demands never collide inside a
sharing group, and routing each sample to the cheapest sufficient ADC.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_SAMPLE_BITS = 6


def required_bits(cycle: int, column: int, target_mod_bits: int,
                  sample_bits: int = DEFAULT_SAMPLE_BITS) -> int:
    """Bits of the (cycle, column) sample that survive the final modulo."""
    if cycle < 0 or column < 0:
        raise ValueError("indices must be non-negative")
    return max(0, min(target_mod_bits - cycle - column, sample_bits))


@dataclass(frozen=True)
class PrecisionMap:
    """Per-(cycle, column) sample widths for one crossbar's sample grid.

    `num_columns` is the number of bit-slice columns per coefficient (4 for
    4-bit operands); `coeff_groups` is how many coefficients one crossbar
    serves, each contributing a full set of slice columns.
    """

    target_mod_bits: int
    sample_bits: int = DEFAULT_SAMPLE_BITS
    num_cycles: int = None
    num_columns: int = 4
    coeff_groups: int = 32

    def __post_init__(self):
        if self.num_cycles is None:
            object.__setattr__(self, "num_cycles", self.target_mod_bits)

    @property
    def required(self) -> np.ndarray:
        c = np.arange(self.num_cycles)[:, None]
        k = np.arange(self.num_columns)[None, :]
        return np.clip(self.target_mod_bits - c - k, 0, self.sample_bits)

    def width_histogram(self) -> dict:
        """samples per width for one crossbar's full pass (width 0 skipped)."""
        req = self.required
        hist = {}
        for w in np.unique(req):
            if w > 0:
                hist[int(w)] = int((req == w).sum()) * self.coeff_groups
        return hist

    def max_precision_cycles(self) -> int:
        """Cycles whose column-0 sample demands full sample_bits precision."""
        return int((self.required[:, 0] == self.sample_bits).sum())


def accumulate_coefficient(samples, target_mod_bits: int) -> int:
    """Algorithm-1 digital reduction: sum samples[c][k] << (c+k), mod 2^target."""
    grid = np.asarray(samples, dtype=np.int64)
    if grid.ndim != 2:
        raise ValueError("samples must be a cycles x columns grid")
    mod = 1 << target_mod_bits
    return int(sum(int(grid[i, j]) << (i + j)
                   for i in range(grid.shape[0])
                   for j in range(grid.shape[1])) % mod)


def truncate_to_required(samples, pmap: PrecisionMap) -> np.ndarray:
    """Zero every bit above the sample's required width."""
    grid = np.asarray(samples, dtype=np.int64)
    mask = (np.int64(1) << pmap.required.astype(np.int64)) - 1
    return grid & mask


@dataclass(frozen=True)
class StaggeredSchedule:
    """Cycle-order rotations; crossbar i runs logical cycle (t+offset_i) mod N."""

    offsets: tuple
    num_cycles: int
    groups: tuple  # tuples of crossbar indices sharing ADCs

    def cycle_at(self, crossbar: int, slot: int) -> int:
        return (slot + self.offsets[crossbar]) % self.num_cycles


def build_stagger(num_crossbars: int, num_cycles: int,
                  pmap: PrecisionMap = None) -> StaggeredSchedule:
    """Spread cycle offsets evenly so at most one group member demands full
    precision per slot; groups are split when they cannot fit collision-free.

    With M max-precision cycles, a group supports at most num_cycles // M
    members (each member's offset shifts its M-cycle full-precision window;
    windows must tile the schedule without overlap).
    """
    if num_crossbars < 1 or num_cycles < 1:
        raise ValueError("need at least one crossbar and one cycle")
    if pmap is None:
        pmap = PrecisionMap(target_mod_bits=num_cycles)
    m = max(1, pmap.max_precision_cycles())
    capacity = max(1, num_cycles // m)

    offsets = [0] * num_crossbars
    groups = []
    for start in range(0, num_crossbars, capacity):
        members = tuple(range(start, min(start + capacity, num_crossbars)))
        g = len(members)
        for i, xb in enumerate(members):
            offsets[xb] = (i * num_cycles) // g
        groups.append(members)
    return StaggeredSchedule(tuple(offsets), num_cycles, tuple(groups))


@dataclass(frozen=True)
class AdcLane:
    bits: int
    samples: int


@dataclass(frozen=True)
class AdcAssignment:
    lanes: tuple          # AdcLane per configured ADC, widest first
    total_samples: int

    def fraction(self, bits: int) -> float:
        for lane in self.lanes:
            if lane.bits == bits:
                return lane.samples / self.total_samples if self.total_samples else 0.0
        raise KeyError(f"no {bits}-bit lane")


class AssignmentError(ValueError):
    pass


def assign_adcs(schedule: StaggeredSchedule, pmap: PrecisionMap,
                adc_bits=(6, 5, 4)) -> AdcAssignment:
    """Route every produced sample to the cheapest ADC wide enough.

    Width-0 samples are never converted. The sample count covers every group
    member's full pass (all slots), so staggering changes *when* wide samples
    occur, not how many there are; what it buys is that the widest lane can
    be provisioned once per group instead of once per crossbar.
    """
    ladder = sorted(adc_bits, reverse=True)
    num_xbars = sum(len(g) for g in schedule.groups)
    lane_counts = dict.fromkeys(ladder, 0)
    for width, count in sorted(pmap.width_histogram().items()):
        fits = [b for b in ladder if b >= width]
        if not fits:
            raise AssignmentError(f"sample width {width} exceeds every ADC")
        lane_counts[min(fits)] += count * num_xbars
    lanes = tuple(AdcLane(b, lane_counts[b]) for b in ladder)
    return AdcAssignment(lanes, sum(lane_counts.values()))
