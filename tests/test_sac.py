import numpy as np
import pytest

from saberxbar.schedule import accumulate_coefficient
from saberxbar.sac import (SacVariant, TiaSpec, SacLeaf, SacNode, SacTree,
                           build_sac_tree, eval_sac, sac_accumulate, MAX_WEIGHT)
from saberxbar.xbar import NoiseSpec


def test_node_weight_validation():
    leaf = SacLeaf(0, 0)
    SacNode((1, 32), (leaf, SacLeaf(0, 1)), 1)
    with pytest.raises(ValueError):
        SacNode((64,), (leaf,), 1)
    with pytest.raises(ValueError):
        SacNode((3,), (leaf,), 1)
    with pytest.raises(ValueError):
        SacNode((1, 2), (leaf,), 1)


@pytest.mark.parametrize("variant", list(SacVariant))
@pytest.mark.parametrize("num_cycles", [10, 13])
def test_tree_is_exact_against_digital_accumulation(variant, num_cycles):
    rng = np.random.default_rng(num_cycles)
    tree = build_sac_tree(variant, 4, num_cycles)
    for _ in range(100):
        grid = rng.integers(0, 64, (num_cycles, 4))
        for target in (num_cycles, 10):
            assert (sac_accumulate(tree, grid, target)
                    == accumulate_coefficient(grid, target))


@pytest.mark.parametrize("variant,cycles,want", [
    (SacVariant.NONE, 10, 40),
    (SacVariant.BASIC, 10, 10),
    (SacVariant.X2, 10, 5),
    (SacVariant.X4, 10, 3),
    (SacVariant.ALL, 10, 1),
    (SacVariant.ALL, 13, 1),
])
def test_samples_per_coefficient(variant, cycles, want):
    tree = build_sac_tree(variant, 4, cycles)
    assert tree.samples_per_coefficient() == want


def test_no_weight_exceeds_32():
    def walk(node):
        if isinstance(node, SacLeaf):
            return
        for w, child in zip(node.weights, node.children):
            assert 1 <= w <= MAX_WEIGHT == 32
            walk(child)

    for variant in SacVariant:
        for cycles in (10, 13):
            tree = build_sac_tree(variant, 4, cycles)
            for node, _ in tree.roots:
                walk(node)


def test_root_widths():
    basic = build_sac_tree(SacVariant.BASIC, 4, 10)
    assert basic.adc_bits_at_root == 10      # 63 * (1+2+4+8) = 945 < 1024
    assert basic.tia_stages == 2
    alld = build_sac_tree(SacVariant.ALL, 4, 10)
    assert alld.samples_per_coefficient() == 1
    # full-width default: the single root spans the whole accumulated value
    ideal_peak = sum(63 << (c + k) for c in range(10) for k in range(4))
    assert alld.adc_bits_at_root == ideal_peak.bit_length() == 20


def test_eval_sac_ideal_matches_leaf_shift_sum():
    rng = np.random.default_rng(0)
    tree = build_sac_tree(SacVariant.X4, 4, 13)
    grid = rng.integers(0, 64, (13, 4))
    total = 0
    for value, shift in eval_sac(tree, grid):
        assert value == int(value)
        total += int(value) << shift
    want = sum(int(grid[c, k]) << (c + k) for c in range(13) for k in range(4))
    assert total == want


def test_eval_sac_shape_check():
    tree = build_sac_tree(SacVariant.BASIC, 4, 10)
    with pytest.raises(ValueError):
        eval_sac(tree, np.zeros((9, 4)))


def test_noisy_eval_perturbs_but_zero_variance_does_not():
    rng = np.random.default_rng(1)
    tree = build_sac_tree(SacVariant.ALL, 4, 10)
    grid = rng.integers(0, 64, (10, 4))
    clean = sac_accumulate(tree, grid, 10)
    assert clean == sac_accumulate(tree, grid, 10,
                                   noise=NoiseSpec(0.0, seed=2),
                                   tia=TiaSpec(variance=0.0))
    noisy = [sac_accumulate(tree, grid, 10,
                            noise=NoiseSpec(0.3, seed=s),
                            tia=TiaSpec(variance=0.05))
             for s in range(8)]
    assert any(v != clean for v in noisy)


def test_build_validation():
    with pytest.raises(ValueError):
        build_sac_tree(SacVariant.BASIC, 0, 10)
    with pytest.raises(ValueError):
        build_sac_tree(SacVariant.BASIC, 7, 10)  # round-1 fold needs <= 6 cols


def test_tia_spec_validation():
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TiaSpec(variance=bad)
    assert TiaSpec(variance=0.0).variance == 0.0


def test_root_widths_drop_the_bits_the_modulo_drops():
    # a root keeps the width of its largest ideal value (every leaf a full
    # 6-bit sample), less the bits at or above target - shift, and at least
    # one bit
    for variant in SacVariant:
        for cycles in (10, 13):
            tree = build_sac_tree(variant, 4, cycles)
            peaks = eval_sac(tree, np.full((cycles, 4), 63))
            for target in (1, 10, 13, 40):
                want = [min(int(peak).bit_length(), max(1, target - shift))
                        for peak, shift in peaks]
                assert tree.root_widths(target) == want
            assert max(tree.root_widths(99)) == tree.adc_bits_at_root
    # Round-1 folds of the 10 cycles at mod p: a 10-bit root per cycle, cut
    # to 10 - c bits at cycle c
    basic = build_sac_tree(SacVariant.BASIC, 4, 10)
    assert basic.root_widths(10) == [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
