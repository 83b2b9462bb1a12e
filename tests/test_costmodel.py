import dataclasses
import hashlib
import math

import pytest

from saberxbar.experiments import default_sweep_points
from saberxbar.params import RingParams, DEFAULT_PARAMS
from saberxbar.polymult import MultAlgorithm
from saberxbar.costmodel import (Operation, Architecture, ArchConfig,
                                 ComponentCatalog, DEFAULT_CATALOG,
                                 fit_adc_dac_fraction, adc_scale,
                                 adc_sample_energy_pj, estimate, _kernels)


# the three Saber parameter sets: Saber, LightSaber and FireSaber ranks
PARAM_SETS = (DEFAULT_PARAMS, RingParams(l=2, T=1 << 3, mu=10),
              RingParams(l=4, T=1 << 6, mu=6))


def _report(op, alg=MultAlgorithm.SB, arch=Architecture.BASELINE):
    return estimate(ArchConfig(op, alg, arch))


def _hash_report(digest, r):
    """Feed every field of report `r` into `digest`."""
    ac = r.config
    digest.update(repr((ac.operation.value, ac.algorithm.value, ac.architecture.value,
                        r.latency_ns, sorted(r.energy_pj.items()),
                        sorted(r.area_um2.items()), r.samples_converted,
                        r.cells_written, r.logical_cell_bits)).encode())


def test_adc_dac_fraction_fit_is_one_third():
    f = fit_adc_dac_fraction()
    assert math.isclose(f, 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(DEFAULT_CATALOG.adc_dac_fraction, f, rel_tol=1e-12)


def test_adc_scale_anchors():
    assert adc_scale(6) == (945.0, 435.0)
    p7, a7 = adc_scale(7)
    assert abs(p7 - 1365.0) / 1365.0 < 0.05
    assert abs(a7 - 628.33) / 628.33 < 0.05
    p1, a1 = adc_scale(1)
    assert 0 < p1 < 945.0 and 0 < a1 < 435.0
    with pytest.raises(ValueError):
        adc_scale(0)


def test_adc_sample_energy_6bit():
    assert adc_sample_energy_pj(6) == pytest.approx(0.945, abs=1e-12)


def test_catalog_validation_and_overhead():
    with pytest.raises(ValueError):
        ComponentCatalog(adc_dac_fraction=1.5)
    # the listed components of one array take 7,637.522 um^2
    with pytest.raises(ValueError, match="array_area_um2"):
        ComponentCatalog(array_area_um2=7637.0)
    cat = ComponentCatalog()
    assert cat.array_overhead_um2 > 0
    assert cat.array_non_adc_area_um2 + 16 * cat.adc_6b.area_um2 \
        + cat.adc_7b.area_um2 == pytest.approx(cat.array_area_um2)


def test_kernel_decomposition_counts():
    dec = _kernels(ArchConfig(Operation.DEC, MultAlgorithm.SB))
    assert len(dec) == 1 and dec[0].count == 3 and dec[0].target_bits == 10
    enc = _kernels(ArchConfig(Operation.ENC, MultAlgorithm.SB))
    assert len(enc) == 2 and enc[0].target_bits == 13
    decaps = _kernels(ArchConfig(Operation.DECAPS, MultAlgorithm.SB))
    assert len(decaps) == 3
    # every kernel streams over one stored operand: the l secret polynomials
    for params in PARAM_SETS:
        for op in Operation:
            for alg in MultAlgorithm:
                shapes = {(k.count, k.degree, k.out_coeffs)
                          for k in _kernels(ArchConfig(op, alg, params=params))}
                assert len(shapes) == 1, (params, op, alg, shapes)


def test_array_packing():
    # ceil(stored cell-bits / 16384): SB packs 3 dense 256x256x4 operands;
    # decomposed algorithms store count x degree x (2*degree - 1) x 4
    per_array = DEFAULT_CATALOG.array_non_adc_area_um2
    for op, alg, arrays in ((Operation.DEC, MultAlgorithm.SB, 48),
                            (Operation.DEC, MultAlgorithm.K2, 72),
                            (Operation.ENC, MultAlgorithm.TC4K2, 32)):
        assert _report(op, alg).area_um2["arrays"] == arrays * per_array


def test_xsb_area_anchor():
    total = (_report(Operation.ENC).total_area_um2
             + _report(Operation.DEC).total_area_um2)
    assert total == pytest.approx(96 * 7737.557, rel=1e-9)
    assert abs(total * 1e-6 - 0.743) / 0.743 < 0.005


def test_dec_writes_nothing_enc_programs_fresh_secret():
    dec = _report(Operation.DEC)
    assert dec.cells_written == 0
    assert dec.energy_pj["write"] == 0.0
    enc = _report(Operation.ENC)
    assert enc.logical_cell_bits == 3072
    assert enc.cells_written > 0
    assert enc.energy_pj["write"] == pytest.approx(
        enc.cells_written * DEFAULT_CATALOG.write_energy_pj_per_cell_bit)


def test_enc_adc_energy_fraction_dominates():
    enc = estimate(ArchConfig(Operation.ENC, MultAlgorithm.K2))
    frac = enc.energy_pj["adc"] / enc.total_energy_pj
    assert 0.60 <= frac <= 0.90


def test_adcshare_never_increases_energy():
    for op in (Operation.DEC, Operation.ENC):
        for alg in MultAlgorithm:
            base = estimate(ArchConfig(op, alg, Architecture.BASELINE))
            share = estimate(ArchConfig(op, alg, Architecture.ADC_SHARE))
            assert share.total_energy_pj <= base.total_energy_pj


def test_decryption_ee_ratios_in_band():
    base = estimate(ArchConfig(Operation.DEC, MultAlgorithm.K2,
                               Architecture.BASELINE))
    share = estimate(ArchConfig(Operation.DEC, MultAlgorithm.K2,
                                Architecture.ADC_SHARE))
    assert 1.4 <= share.ee_gbit_j / base.ee_gbit_j <= 2.2


def test_sac_ee_ordering_for_decryption():
    sac_all = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                                  Architecture.SAC_ALL))
    sac_2x = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                                 Architecture.SAC_2X))
    sac_basic = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                                    Architecture.SAC_BASIC))
    share = estimate(ArchConfig(Operation.DEC, MultAlgorithm.K2,
                                Architecture.ADC_SHARE))
    base = estimate(ArchConfig(Operation.DEC, MultAlgorithm.K2,
                               Architecture.BASELINE))
    cascade = estimate(ArchConfig(Operation.DEC, MultAlgorithm.K2,
                                  Architecture.CASCADE_BASELINE))
    ees = [r.ee_gbit_j for r in (sac_all, sac_2x, sac_basic, share, base,
                                 cascade)]
    assert ees == sorted(ees, reverse=True)


def test_sac_parallel_variants_use_more_arrays():
    basic = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                                Architecture.SAC_BASIC))
    two = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                              Architecture.SAC_2X))
    four = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                               Architecture.SAC_4X))
    assert two.area_um2["arrays"] == 2 * basic.area_um2["arrays"]
    assert four.area_um2["arrays"] == 4 * basic.area_um2["arrays"]


def test_sac_all_sample_count_and_tia_latency():
    rep = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                              Architecture.SAC_ALL))
    # one sample per output coefficient: 3 sub-mults x 256 outputs x 1 pass
    assert rep.samples_converted == 3 * 256
    basic = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                                Architecture.SAC_BASIC))
    assert basic.samples_converted == 3 * 256 * 10


def test_cascade_buffer_writes_per_coefficient():
    rep = estimate(ArchConfig(Operation.DEC, MultAlgorithm.SB,
                              Architecture.CASCADE_BASELINE))
    # 10 cycles x 4 columns x 6 buffer cell-bits = 240 per output coefficient
    assert rep.cells_written == 3 * 256 * 240
    assert rep.energy_pj["write"] == pytest.approx(rep.cells_written * 0.1)


def test_sac_all_full_width_switch_increases_adc_energy():
    cfg = ArchConfig(Operation.DEC, MultAlgorithm.SB, Architecture.SAC_ALL)
    optimistic = estimate(cfg, DEFAULT_CATALOG)
    full = estimate(cfg, dataclasses.replace(DEFAULT_CATALOG,
                                             sac_all_full_width_root=True))
    assert full.energy_pj["adc"] > optimistic.energy_pj["adc"]


def test_write_energy_tracks_physical_bits():
    sb = estimate(ArchConfig(Operation.ENC, MultAlgorithm.SB))
    tc = estimate(ArchConfig(Operation.ENC, MultAlgorithm.TC4K2))
    for rep in (sb, tc):
        assert rep.cells_written > 0
        assert rep.energy_pj["write"] == pytest.approx(
            rep.cells_written * DEFAULT_CATALOG.write_energy_pj_per_cell_bit)
    # the dense SB operand is exactly the l full negacyclic matrices
    assert sb.cells_written == 3 * 256 * 256 * 4


def test_enc_ce_ratio_tc4k2_vs_sb():
    sb = estimate(ArchConfig(Operation.ENC, MultAlgorithm.SB))
    tc = estimate(ArchConfig(Operation.ENC, MultAlgorithm.TC4K2))
    assert 2.0 <= tc.ce_gbit_s_mm2 / sb.ce_gbit_s_mm2 <= 5.0


def test_report_totals_and_metrics():
    rep = _report(Operation.DEC)
    assert rep.total_energy_pj == pytest.approx(sum(rep.energy_pj.values()))
    assert rep.total_area_um2 == pytest.approx(sum(rep.area_um2.values()))
    want_ee = 256.0 / (rep.total_energy_pj * 1e-12) / 1e9
    assert rep.ee_gbit_j == pytest.approx(want_ee)


def test_default_sweep_reports_are_pinned():
    # every field of every operation's default sweep reports, hashed: the
    # cost model's numbers do not move unless a change means them to
    digest = hashlib.sha256()
    for op in Operation:
        for ac in default_sweep_points(op):
            _hash_report(digest, estimate(ac))
    assert digest.hexdigest() == (
        "b1d67f1ac1aa47f9a4b4d794ec534017afa60e49616ea60a7f981dba6eba4704")


@pytest.mark.parametrize("full_width_root, want", [
    (False, "315e8abf935b6ff530ebf304c8ae0f8d772958b770d9384788681ebddf4cff94"),
    (True, "6fd390a76f44d41777adc7f0196afaea67627db3c3da6fbc9108cdabcb3c7fae"),
])
def test_every_design_point_report_is_pinned(full_width_root, want):
    # 3 parameter sets x 5 operations x 5 algorithms x 7 architectures, at
    # both SAC-All root widths: every architecture at every operand shape
    catalog = dataclasses.replace(DEFAULT_CATALOG,
                                  sac_all_full_width_root=full_width_root)
    digest = hashlib.sha256()
    for params in PARAM_SETS:
        for op in Operation:
            for alg in MultAlgorithm:
                for arch in Architecture:
                    _hash_report(digest, estimate(ArchConfig(op, alg, arch, params),
                                                  catalog))
    assert digest.hexdigest() == want
