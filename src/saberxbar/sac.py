"""Shift-and-Add Crossbars (SAC): analog power-of-two accumulators.

A SAC is a single-column crossbar whose cells hold powers of two; feeding it
the column outputs of a compute crossbar multiplies each by its cell weight
and sums the currents, performing shift-and-add in analog before any ADC
conversion. Six-bit cells cap a single stage's multiplier at 1 << 5, so
larger shift spans are built hierarchically: Round-1 nodes fold the bit-slice
columns of one cycle, higher rounds fold cycles, and pure-shift stages bridge
gaps larger than 32x. Every leaf-to-root weight product times the root's
residual digital shift equals 2^(cycle+column), which makes the ideal
evaluation bit-identical to the digital Algorithm-1 accumulation.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .xbar import NoiseSpec, adc_read

MAX_CELL_BITS = 6
MAX_WEIGHT = 1 << (MAX_CELL_BITS - 1)


class SacVariant(enum.Enum):
    NONE = "none"        # no SAC: every column sample is converted directly
    BASIC = "basic"      # fold the bit-slice columns of each cycle
    X2 = "2x"            # additionally fold pairs of cycles
    X4 = "4x"            # additionally fold quadruples of cycles
    ALL = "all"          # fold everything: one sample per coefficient


@dataclass(frozen=True)
class TiaSpec:
    """Transimpedance amplifier between analog stages: its relative
    Gaussian noise. (`costmodel` prices its latency from the catalog.)"""

    variance: float = 0.02

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ValueError("TIA variance must be finite and >= 0")


@dataclass(frozen=True)
class SacLeaf:
    """One compute-crossbar column output: bit slice `column` of `cycle`."""

    cycle: int
    column: int


@dataclass(frozen=True)
class SacNode:
    """weights[i] scales children[i]; output = sum child_value * weight."""

    weights: tuple
    children: tuple
    round_index: int

    def __post_init__(self):
        if len(self.weights) != len(self.children):
            raise ValueError("one weight per child")
        for w in self.weights:
            if w < 1 or (w & (w - 1)) or w > MAX_WEIGHT:
                raise ValueError(f"weight {w} is not a power of two <= {MAX_WEIGHT}")


@dataclass(frozen=True)
class SacTree:
    """Roots producing one ADC sample each; root i carries a residual digital
    shift applied after conversion."""

    variant: SacVariant
    roots: tuple            # (SacNode-or-SacLeaf, digital_shift) pairs
    num_cycles: int
    columns_per_coeff: int
    tia_stages: int
    adc_bits_at_root: int

    def samples_per_coefficient(self) -> int:
        return len(self.roots)

    def root_widths(self, target_mod_bits: int) -> list:
        """Each root's ADC width modulo 2^target_mod_bits: its largest ideal
        value's width, less the bits at or above target - shift, at least 1."""
        return [min(_max_ideal_value(node).bit_length(), max(1, target_mod_bits - shift))
                for node, shift in self.roots]


def _depth(node) -> int:
    if isinstance(node, SacLeaf):
        return 0
    return 1 + max(_depth(c) for c in node.children)


def _leaf_shifts(node, base: int = 0):
    """(leaf, total power-of-two factor) pairs under the given node."""
    if isinstance(node, SacLeaf):
        return [(node, base)]
    out = []
    for w, child in zip(node.weights, node.children):
        out.extend(_leaf_shifts(child, base + int(math.log2(w))))
    return out


def _round1(cycle: int, columns: int) -> SacNode:
    return SacNode(tuple(1 << k for k in range(columns)),
                   tuple(SacLeaf(cycle, k) for k in range(columns)), 1)


def _fold(nodes_with_shifts, group: int, round_index: int):
    """Fold consecutive nodes in groups; member i gets weight 2^i."""
    out = []
    for start in range(0, len(nodes_with_shifts), group):
        chunk = nodes_with_shifts[start: start + group]
        base = chunk[0][1]
        weights, children = [], []
        for node, shift in chunk:
            rel = shift - base
            if rel >= MAX_CELL_BITS:
                raise ValueError("fold span exceeds one stage")
            weights.append(1 << rel)
            children.append(node)
        out.append((SacNode(tuple(weights), tuple(children), round_index), base))
    return out


def build_sac_tree(variant: SacVariant, columns_per_coeff: int = 4,
                   num_cycles: int = 10) -> SacTree:
    """Construct the per-coefficient accumulation tree for one variant.

    ALL keeps folding five-cycle chunks and inserts single-child x32 shift
    stages whenever a chunk sits more than five shifts above the running
    root, so no cell ever stores a weight beyond MAX_WEIGHT.
    """
    if columns_per_coeff < 1 or num_cycles < 1:
        raise ValueError("need at least one column and one cycle")
    if columns_per_coeff > MAX_CELL_BITS:
        raise ValueError("Round-1 fold exceeds single-stage weight range")

    if variant is SacVariant.NONE:
        roots = tuple((SacLeaf(c, k), c + k)
                      for c in range(num_cycles) for k in range(columns_per_coeff))
        stages = 0
    else:
        level = [(_round1(c, columns_per_coeff), c) for c in range(num_cycles)]
        if variant is SacVariant.BASIC:
            pass
        elif variant in (SacVariant.X2, SacVariant.X4):
            level = _fold(level, 2 if variant is SacVariant.X2 else 4, 2)
        elif variant is SacVariant.ALL:
            max_span = MAX_CELL_BITS - 1
            level = _fold(level, max_span, 2)
            root, base = level[0]
            rnd = 3
            for node, shift in level[1:]:
                rel = shift - base
                while rel > max_span:
                    node = SacNode((1 << max_span,), (node,), rnd)
                    rel -= max_span
                root = SacNode((1, 1 << rel), (root, node), rnd)
                rnd += 1
            level = [(root, base)]
        roots = tuple(level)
        stages = max(_depth(node) for node, _ in roots) + 1

    adc_bits = max(1, *(_max_ideal_value(node).bit_length() for node, _ in roots))
    tree = SacTree(variant, roots, num_cycles, columns_per_coeff, stages, adc_bits)
    _check_paths(tree)
    return tree


def _max_ideal_value(node) -> int:
    """Largest ideal value of a node or leaf, each leaf a full MAX_CELL_BITS-bit sample."""
    return sum(((1 << MAX_CELL_BITS) - 1) << s for _, s in _leaf_shifts(node))


def _check_paths(tree: SacTree) -> None:
    """Every leaf appears once; weight product x digital shift = 2^(cycle+col)."""
    seen = {}
    for node, digital in tree.roots:
        for leaf, analog_shift in _leaf_shifts(node):
            if leaf in seen:
                raise ValueError(f"leaf {leaf} reached twice")
            seen[leaf] = analog_shift + digital
    for leaf, total in seen.items():
        if total != leaf.cycle + leaf.column:
            raise ValueError(f"{leaf}: path shift {total} != {leaf.cycle + leaf.column}")
    want = tree.num_cycles * tree.columns_per_coeff
    if len(seen) != want:
        raise ValueError(f"tree covers {len(seen)} leaves, expected {want}")


def _eval_node(node, leaves: np.ndarray, noise: NoiseSpec, tia: TiaSpec) -> float:
    if isinstance(node, SacLeaf):
        return float(leaves[node.cycle, node.column])
    total = 0.0
    for w, child in zip(node.weights, node.children):
        v = _eval_node(child, leaves, noise, tia)
        if noise is not None:
            if tia is not None and tia.variance > 0:
                v *= noise.rng.normal(1.0, tia.variance)
            if noise.cell_variance > 0:
                w = w * noise.rng.normal(1.0, noise.cell_variance)
        total += v * w
    return total


def eval_sac(tree: SacTree, leaf_values, noise: NoiseSpec = None,
             tia: TiaSpec = None):
    """Analog value of every root; ideal mode (noise None) is exact."""
    leaves = np.asarray(leaf_values, dtype=np.float64)
    if leaves.shape != (tree.num_cycles, tree.columns_per_coeff):
        raise ValueError("leaf grid must be num_cycles x columns_per_coeff")
    return [(_eval_node(node, leaves, noise, tia), shift)
            for node, shift in tree.roots]


def sac_accumulate(tree: SacTree, leaf_values, target_mod_bits: int,
                   noise: NoiseSpec = None, tia: TiaSpec = None) -> int:
    """ADC-convert each root and finish the reduction digitally."""
    mod = 1 << target_mod_bits
    total = 0
    for value, shift in eval_sac(tree, leaf_values, noise, tia):
        total += int(adc_read(value, tree.adc_bits_at_root)) << shift
    return total % mod
