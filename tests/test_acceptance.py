"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The printed lines bypass pytest's capture so they always appear in the run
log, e.g. `ACCEPTANCE 01 PASS functional-roundtrips ...`.
"""

import time

import numpy as np
import pytest

from saberxbar.params import RingParams, DEFAULT_PARAMS
from saberxbar.ring import Poly, fold_negacyclic
from saberxbar.polymult import MultAlgorithm, multiply, schoolbook_mul
from saberxbar.pke import SoftwareBackend, keygen, encrypt, decrypt
from saberxbar.xbar import XbarBackend, crossbar_polymult, program_operand
from saberxbar.schedule import (PrecisionMap, accumulate_coefficient,
                                truncate_to_required, build_stagger)
from saberxbar.sac import (SacVariant, build_sac_tree, sac_accumulate,
                           SacLeaf, MAX_WEIGHT)
from saberxbar.costmodel import (Operation, Architecture, ArchConfig,
                                 adc_scale, adc_sample_energy_pj, estimate)
from saberxbar.experiments import (ExperimentConfig, run_noise, run_roundtrips)

P = DEFAULT_PARAMS


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {status} {name}: {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_functional_roundtrips(capsys):
    start = time.monotonic()
    backends = [SoftwareBackend(alg) for alg in MultAlgorithm]
    backends.append(XbarBackend(P))
    per_backend = 1667  # x6 backends >= 10^4 roundtrips total
    failures = sum(run_roundtrips(per_backend, seed=i, backend=b)
                   for i, b in enumerate(backends))
    elapsed = time.monotonic() - start
    total = per_backend * len(backends)
    ok = failures == 0 and elapsed < 120.0
    _report(capsys, 1, "functional-roundtrips", ok,
            f"{total} roundtrips over {len(backends)} backends, "
            f"{failures} failures, {elapsed:.1f}s (< 120s)")


def test_criterion_02_oracle_equivalence(capsys):
    rng = np.random.default_rng(2)
    fast = [MultAlgorithm.K2, MultAlgorithm.K4, MultAlgorithm.TC4,
            MultAlgorithm.TC4K2]
    mismatches = 0
    for _ in range(1000):
        a = Poly(rng.integers(0, P.q, P.n), P.q)
        b = Poly(rng.integers(0, P.q, P.n), P.q)
        want = schoolbook_mul(a, b)
        mismatches += sum(multiply(alg, a, b) != want for alg in fast)
    # small-ring pairs: n=4 q=16 for the algorithms defined there,
    # n=8 q=16 for TC4K2 (its split needs 8 | n)
    small = 0
    for _ in range(10_000):
        a4 = Poly(rng.integers(0, 16, 4), 16)
        b4 = Poly(rng.integers(0, 16, 4), 16)
        w4 = schoolbook_mul(a4, b4)
        small += sum(multiply(alg, a4, b4) != w4
                     for alg in (MultAlgorithm.K2, MultAlgorithm.K4,
                                 MultAlgorithm.TC4))
        a8 = Poly(rng.integers(0, 16, 8), 16)
        b8 = Poly(rng.integers(0, 16, 8), 16)
        small += multiply(MultAlgorithm.TC4K2, a8, b8) != schoolbook_mul(a8, b8)

    # worked reduction: (3 + 2x^2 + x^4 + 10x^5 + 6x^6) mod (x^4+1)
    #   = 2 - 10x - 4x^2
    p4 = RingParams(n=4)
    red = Poly(fold_negacyclic([3, 0, 2, 0, 1, 10, 6], p4.n), p4.q)
    red_ok = list(red.coeffs) == [2, p4.q - 10, p4.q - 4, 0]

    # symbolic degree-3 product mod (x^3 + 1)
    sym_ok = True
    for _ in range(100):
        a0, a1, a2, b0, b1, b2 = (int(v) for v in rng.integers(-9, 10, 6))
        got = fold_negacyclic(np.convolve([a0, a1, a2], [b0, b1, b2]), 3)
        sym_ok &= list(got) == [a0 * b0 - a1 * b2 - a2 * b1,
                                a0 * b1 + a1 * b0 - a2 * b2,
                                a0 * b2 + a1 * b1 + a2 * b0]
    ok = mismatches == 0 and small == 0 and red_ok and sym_ok
    _report(capsys, 2, "oracle-equivalence", ok,
            f"{mismatches} mismatches at n=256, {small} at small n, "
            f"worked reduction {'ok' if red_ok else 'BAD'}, "
            f"symbolic product {'ok' if sym_ok else 'BAD'}")


def test_criterion_03_crossbar_fidelity(capsys):
    rng = np.random.default_rng(3)
    pipe_bad = 0
    for modulus in (P.p, P.q):
        for _ in range(3):
            a = Poly(rng.integers(0, modulus, P.n), modulus)
            s = rng.integers(-4, 5, P.n)
            got = crossbar_polymult(a, program_operand(s, P))
            want = schoolbook_mul(a, Poly(s, modulus)).coeffs
            pipe_bad += not np.array_equal(got.coeffs, want)
    xb, sw = XbarBackend(P), SoftwareBackend()
    back_bad = 0
    for modulus in (P.p, P.q):
        for _ in range(10):
            a = Poly(rng.integers(0, modulus, P.n), modulus)
            s = rng.integers(-4, 5, P.n)
            back_bad += not np.array_equal(xb.mul_raw(a, s) % modulus,
                                           sw.mul_raw(a, s) % modulus)
    sac_bad = 0
    for variant in SacVariant:
        for cycles in (10, 13):
            tree = build_sac_tree(variant, 4, cycles)
            for _ in range(50):
                grid = rng.integers(0, 64, (cycles, 4))
                sac_bad += (sac_accumulate(tree, grid, cycles)
                            != accumulate_coefficient(grid, cycles))
    ok = pipe_bad == 0 and back_bad == 0 and sac_bad == 0
    _report(capsys, 3, "crossbar-fidelity", ok,
            f"pipeline mismatches {pipe_bad}, backend mismatches {back_bad}, "
            f"SAC mismatches {sac_bad} (all must be 0)")


def test_criterion_04_modulo_truncation_safety(capsys):
    rng = np.random.default_rng(4)
    bad = 0
    for target in (10, 13):
        pmap = PrecisionMap(target)
        for _ in range(5000):
            grid = rng.integers(0, 64, (target, 4))
            bad += (accumulate_coefficient(grid, target)
                    != accumulate_coefficient(truncate_to_required(grid, pmap),
                                              target))
    exhaustive_bad = 0
    pmap2 = PrecisionMap(2, sample_bits=2, num_cycles=2, num_columns=2)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    grid = np.array([[a, b], [c, d]])
                    exhaustive_bad += (
                        accumulate_coefficient(grid, 2)
                        != accumulate_coefficient(
                            truncate_to_required(grid, pmap2), 2))
    ok = bad == 0 and exhaustive_bad == 0
    _report(capsys, 4, "modulo-truncation-safety", ok,
            f"{bad}/10000 random grids changed, "
            f"{exhaustive_bad}/256 exhaustive 2x2 grids changed")


def test_criterion_05_stagger_schedule(capsys):
    rng = np.random.default_rng(5)
    collisions = 0
    for num in (1, 2, 3, 4, 6, 8):
        for target in (10, 13):
            pmap = PrecisionMap(target)
            sched = build_stagger(num, target, pmap)
            full = set(np.nonzero(pmap.required[:, 0]
                                  == pmap.sample_bits)[0].tolist())
            for group in sched.groups:
                for slot in range(target):
                    demands = sum(sched.cycle_at(xb, slot) in full
                                  for xb in group)
                    collisions += demands > 1
    # staggered execution must be bit-identical to unstaggered
    mismatch = 0
    pmap = PrecisionMap(10)
    sched = build_stagger(2, 10, pmap)
    for xb in (0, 1):
        for _ in range(100):
            grid = rng.integers(0, 64, (10, 4))
            total = 0
            for slot in range(sched.num_cycles):
                cycle = sched.cycle_at(xb, slot)
                for k in range(4):
                    total += int(grid[cycle, k]) << (cycle + k)
            mismatch += total % (1 << 10) != accumulate_coefficient(grid, 10)
    ok = collisions == 0 and mismatch == 0
    _report(capsys, 5, "stagger-schedule", ok,
            f"{collisions} max-precision collisions, "
            f"{mismatch} staggered/unstaggered mismatches")


def test_criterion_06_sac_structure(capsys):
    one = build_sac_tree(SacVariant.ALL, 4, 10).samples_per_coefficient()
    forty = build_sac_tree(SacVariant.NONE, 4, 10).samples_per_coefficient()

    def max_weight(node):
        if isinstance(node, SacLeaf):
            return 1
        return max(max(node.weights),
                   max(max_weight(c) for c in node.children))

    widest = 0
    for variant in SacVariant:
        for cycles in (10, 13):
            tree = build_sac_tree(variant, 4, cycles)
            widest = max(widest, max(max_weight(n) for n, _ in tree.roots))
    ok = one == 1 and forty == 40 and widest <= MAX_WEIGHT == 32
    _report(capsys, 6, "sac-structure", ok,
            f"SAC-All samples/coeff = {one} (want 1), baseline = {forty} "
            f"(want 40), max weight = {widest} (<= 32)")


def test_criterion_07_cost_model_anchors(capsys):
    area_um2 = (estimate(ArchConfig(Operation.ENC, MultAlgorithm.SB)).total_area_um2
                + estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB)).total_area_um2)
    want = 96 * 7737.557
    area_ok = abs(area_um2 - want) / want < 0.005
    e6 = adc_sample_energy_pj(6)
    e6_ok = e6 == pytest.approx(0.945, abs=1e-12)
    p7, a7 = adc_scale(7)
    scale_ok = (abs(p7 - 1365.0) / 1365.0 < 0.05
                and abs(a7 - 628.33) / 628.33 < 0.05)
    ok = area_ok and e6_ok and scale_ok
    _report(capsys, 7, "cost-model-anchors", ok,
            f"X-SB area {area_um2 * 1e-6:.4f} mm^2 (want 0.743 +/- 0.5%), "
            f"E(6b sample) {e6:.3f} pJ (want 0.945 exactly), "
            f"7-bit scale ({p7:.1f} uW, {a7:.2f} um^2) within 5%")


def test_criterion_08_trend_reproduction(capsys):
    dec = Operation.DEC
    base_k2 = estimate(ArchConfig(dec, MultAlgorithm.K2, Architecture.BASELINE))
    share_k2 = estimate(ArchConfig(dec, MultAlgorithm.K2, Architecture.ADC_SHARE))
    sac_all = estimate(ArchConfig(dec, MultAlgorithm.SB, Architecture.SAC_ALL))
    sac_2x = estimate(ArchConfig(dec, MultAlgorithm.SB, Architecture.SAC_2X))
    sac_basic = estimate(ArchConfig(dec, MultAlgorithm.SB, Architecture.SAC_BASIC))
    cascade = estimate(ArchConfig(dec, MultAlgorithm.K2,
                                  Architecture.CASCADE_BASELINE))
    r_share = share_k2.ee_gbit_j / base_k2.ee_gbit_j
    r_sac = sac_all.ee_gbit_j / share_k2.ee_gbit_j
    enc_sb = estimate(ArchConfig(Operation.ENC, MultAlgorithm.SB))
    enc_tc = estimate(ArchConfig(Operation.ENC, MultAlgorithm.TC4K2))
    r_ce = enc_tc.ce_gbit_s_mm2 / enc_sb.ce_gbit_s_mm2
    ees = [r.ee_gbit_j for r in (sac_all, sac_2x, sac_basic, share_k2,
                                 base_k2, cascade)]
    ordering_ok = ees == sorted(ees, reverse=True)
    ok = (1.4 <= r_share <= 2.2 and 3.0 <= r_sac <= 10.0
          and 2.0 <= r_ce <= 5.0 and ordering_ok)
    _report(capsys, 8, "trend-reproduction", ok,
            f"EE ADCShare/Baseline(K2) {r_share:.2f} in [1.4,2.2], "
            f"EE SacAll/ADCShare {r_sac:.2f} in [3,10], "
            f"enc CE TC4K2/SB {r_ce:.2f} in [2,5], "
            f"EE ordering {'holds' if ordering_ok else 'BROKEN'}")


def test_criterion_09_noise_behavior(capsys):
    start = time.monotonic()
    cfg = ExperimentConfig(trials=10_000, seed=0)
    curve = run_noise(cfg, variance_grid=(0.05, 0.10), retries_grid=(0, 1, 2))
    p05 = curve.probability(0.05, 0)
    p10 = [curve.probability(0.10, r) for r in (0, 1, 2)]
    elapsed = time.monotonic() - start
    monotone = p10[0] >= p10[1] >= p10[2]
    ok = (p05 == 0.0 and 0.10 <= p10[0] <= 0.35 and monotone
          and elapsed < 600.0)
    _report(capsys, 9, "noise-behavior", ok,
            f"P(fail|var=0.05) = {p05} (want 0), P(fail|var=0.10, r=0..2) = "
            f"{p10[0]:.3f}/{p10[1]:.3f}/{p10[2]:.3f} "
            f"(first in [0.10,0.35], monotone), {elapsed:.0f}s (< 600s)")


def test_criterion_10_operation_census(capsys):
    rng = np.random.default_rng(10)
    sw = SoftwareBackend()
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, sw)
    m = Poly(rng.integers(0, 2, P.n), 2)
    ct = encrypt(pk, m, rng.bytes(32), P, sw)
    decrypt(sk, ct, P, sw)
    mults = sw.mult_count

    xb = XbarBackend(P)
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, xb)
    xb.reset_counters()
    encrypt(pk, m, rng.bytes(32), P, xb)
    enc_writes = xb.cell_bits_written
    xb.reset_counters()
    decrypt(sk, ct, P, xb)
    dec_writes = xb.cell_bits_written
    ok = mults == 24 and enc_writes == 3072 and dec_writes == 0
    _report(capsys, 10, "operation-census", ok,
            f"{mults} PolyMults across keygen+enc+dec (want 24), "
            f"encryption wrote {enc_writes} cell-bits (want 3072), "
            f"decryption wrote {dec_writes} (want 0)")
