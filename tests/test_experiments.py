import csv
import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from saberxbar import experiments, xbar
from saberxbar.params import DEFAULT_PARAMS, RingParams
from saberxbar.ring import gen_matrix
from saberxbar.costmodel import Operation, Architecture, ArchConfig
from saberxbar.polymult import MultAlgorithm
from saberxbar.experiments import (ConfigError, ExperimentConfig,
                                   parse_config_text, build_config,
                                   load_config, run_verify, run_noise,
                                   run_sweep, run_roundtrips,
                                   default_sweep_points, sweep_to_csv,
                                   sweep_to_json, noise_to_csv, noise_to_json,
                                   wilson_interval, decryption_margins)


# ---------------------------------------------------------------------------
# configuration

def test_parse_config_text():
    text = """
    # a comment
    operation = enc
    algorithm = TC4K2   # trailing comment
    noise.cell_variance = 0.05
    trials = 100
    """
    mapping = parse_config_text(text)
    assert mapping == {"operation": "enc", "algorithm": "TC4K2",
                       "noise.cell_variance": "0.05", "trials": "100"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign")
    with pytest.raises(ConfigError):
        parse_config_text("key =")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2")


def test_build_config_full():
    cfg = build_config({
        "operation": "enc",
        "algorithm": "k2",
        "architecture": "adcshare",
        "trials": "77",
        "seed": "9",
        "catalog.write_energy_pj_per_cell_bit": "0.2",
    })
    assert cfg.operation is Operation.ENC
    assert cfg.algorithm is MultAlgorithm.K2
    assert cfg.architecture is Architecture.ADC_SHARE
    assert cfg.trials == 77
    assert cfg.seed == 9
    assert cfg.catalog.write_energy_pj_per_cell_bit == 0.2


def test_build_config_errors():
    with pytest.raises(ConfigError):
        build_config({"operation": "never"})
    with pytest.raises(ConfigError):
        build_config({"nope.key": "1"})
    with pytest.raises(ConfigError):
        build_config({"trials": "many"})
    with pytest.raises(ConfigError):
        build_config({"trials": "0"})
    with pytest.raises(ConfigError):
        build_config({"catalog.unknown_field": "1"})
    with pytest.raises(ConfigError):
        build_config({"noise.cell_variance": "-1"})


def test_noise_header_lists_exactly_the_keys_the_run_reads():
    cfg = build_config({"algorithm": "K2", "architecture": "adcshare", "noise.gain": "1.5",
                        "trials": "1", "seed": "5"})
    curve = run_noise(cfg, variance_grid=(0.0,))
    csv_header = noise_to_csv(curve).splitlines()[1].removeprefix("# config=")
    for header in (json.loads(csv_header), json.loads(noise_to_json(curve))["config"]):
        assert header == {"noise.gain": 1.5, "trials": 1, "seed": 5}
        # each key is a config key, and rebuilds the setting the run read
        rebuilt = build_config({k: str(v) for k, v in header.items()})
        assert ((rebuilt.noise_gain, rebuilt.trials, rebuilt.seed)
                == (cfg.noise_gain, cfg.trials, cfg.seed))


def test_noise_output_does_not_depend_on_settings_the_run_does_not_read():
    base = ExperimentConfig(trials=40, seed=3)
    other = build_config({"architecture": "sac-all", "algorithm": "TC4K2",
                          "catalog.adc_rate": "2e9"}, base)
    want = noise_to_csv(run_noise(base, (0.05, 0.10), (0, 1)))
    assert noise_to_csv(run_noise(other, (0.05, 0.10), (0, 1))) == want


def _readme_config_block() -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("## Configuration"):]
    start = section.index("```\n") + 4
    return section[start:section.index("```", start)]


def test_readme_lists_the_config_keys_that_take_effect():
    mapping = parse_config_text(_readme_config_block())
    cfg = build_config(mapping)
    listed = {k for k in mapping if not k.startswith("catalog.")}
    assert set(experiments._CONFIG_KEYS) == listed
    for key in listed:
        value = getattr(cfg, experiments._CONFIG_KEYS[key][0])
        assert str(getattr(value, "value", value)).lower() == mapping[key].lower()
    assert ({k.removeprefix("catalog.") for k in mapping if k.startswith("catalog.")}
            == set(experiments._CATALOG_SCALARS))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("operation = dec\nseed = 5\n")
    cfg = load_config(path)
    assert cfg.operation is Operation.DEC and cfg.seed == 5


# ---------------------------------------------------------------------------
# verification suites

def test_run_verify_all_suites_pass():
    report = run_verify(ExperimentConfig(trials=1), trials_per_suite=5)
    assert report.passed
    names = [s.name for s in report.suites]
    assert names == ["polymult-vs-schoolbook", "crossbar-vs-software",
                     "sac-vs-digital-accumulate", "truncation-safety"]


def test_run_verify_detects_injected_stuck_fault():
    # at seed 0 the crossbar trials store a 1 in tile 0, row 0, column 0, so
    # a stuck-at-0 fault there changes the stored bit, and the suite must
    # fail and name the injected cell
    report = run_verify(ExperimentConfig(trials=1), trials_per_suite=5,
                        stuck_fault=(0, 0, 0, 0))
    crossbar = report.suites[1]
    assert not crossbar.passed and not report.passed
    assert "injected stuck-at-0 cell at tile 0, row 0, column 0" in crossbar.detail
    assert "first failing coefficient" in crossbar.detail
    # a cell stuck at the level it stores reads as programmed
    assert run_verify(ExperimentConfig(trials=1), trials_per_suite=5,
                      stuck_fault=(0, 0, 0, 1)).passed


def test_run_verify_fault_seed_that_fails():
    # seed 2's first crossbar trial stores a 0 in tile 0, row 0, column 0,
    # so a stuck-at-1 fault there differs from the stored bit
    report = run_verify(ExperimentConfig(trials=1, seed=2), trials_per_suite=3,
                        stuck_fault=(0, 0, 0, 1))
    crossbar = report.suites[1]
    assert not crossbar.passed and not report.passed
    assert "injected stuck-at-1 cell at tile 0, row 0, column 0" in crossbar.detail
    assert "first failing coefficient" in crossbar.detail


@pytest.mark.parametrize("fault", [(0, 0, 0, 2), (0, 0, 0, -1), (99, 0, 0, 1),
                                   (16, 0, 0, 1), (0, 128, 0, 1), (0, 0, 128, 0),
                                   (-1, 0, 0, 1), (0, 0, 0.5, 1), (0, 0, 0)])
def test_run_verify_rejects_a_stuck_fault_outside_the_operand(fault):
    # the default operand is 16 tiles of 128 x 128 one-bit cells
    with pytest.raises(ValueError, match=rf"stuck fault \({fault[0]}, "):
        run_verify(ExperimentConfig(trials=1), trials_per_suite=1, stuck_fault=fault)


def test_run_verify_checks_a_stuck_fault_without_programming(monkeypatch):
    # the operand's tile shape follows from n; no operand is programmed
    # before the fault is checked
    monkeypatch.setattr(experiments, "program_operand", None)
    with pytest.raises(ValueError, match=r"stuck fault \(16, 0, 0, 1\) is not \(tile < 16, "
                                         r"row < 128, column < 128, level 0 or 1\)"):
        run_verify(ExperimentConfig(trials=1), trials_per_suite=1, stuck_fault=(16, 0, 0, 1))


def test_verify_reports_are_pinned():
    # every suite's (name, passed, detail) over seeds, stuck faults and
    # suite sizes, hashed; 35 of the 60 runs have a failing suite, which
    # stops at its first failure and so moves the draws of the suites after it
    digest, failed = hashlib.sha256(), 0
    faults = (None, (0, 0, 0, 0), (0, 0, 0, 1), (3, 5, 7, 1), (15, 127, 127, 0))
    for seed, fault, size in itertools.product(range(4), faults, (1, 3, 9)):
        report = run_verify(ExperimentConfig(trials=1, seed=seed), stuck_fault=fault,
                            trials_per_suite=size)
        for s in report.suites:
            digest.update(repr((s.name, s.passed, s.detail)).encode() + b"\n")
        failed += not report.passed
    assert failed == 35
    assert digest.hexdigest() == (
        "6accab840d275c9a0c68d7b34e6ce5e03159f60a31b8e1e8eabf3bdfef99b350")


# ---------------------------------------------------------------------------
# noise Monte Carlo

def test_wilson_interval_basics():
    center, half = wilson_interval(0, 100)
    assert center >= 0 and half > 0
    assert wilson_interval(0, 0) == (0.0, 0.0)
    c50, _ = wilson_interval(50, 100)
    assert abs(c50 - 0.5) < 0.01


def test_run_noise_exact_at_zero_variance():
    cfg = ExperimentConfig(trials=5)
    curve = run_noise(cfg, variance_grid=(0.0,), retries_grid=(0,))
    assert curve.probability(0.0, 0) == 0.0


def test_run_noise_monotone_in_retries_and_deterministic():
    cfg = ExperimentConfig(trials=60, seed=3)
    curve = run_noise(cfg, variance_grid=(0.15,), retries_grid=(0, 1, 2))
    p0 = curve.probability(0.15, 0)
    p1 = curve.probability(0.15, 1)
    p2 = curve.probability(0.15, 2)
    assert p0 >= p1 >= p2
    assert p0 > 0  # 15% variance fails often enough to exercise retries
    again = run_noise(cfg, variance_grid=(0.15,), retries_grid=(0, 1, 2))
    assert [pt.failure_probability for pt in again.points] == \
        [pt.failure_probability for pt in curve.points]


def test_run_noise_repeated_grid_entries_repeat_their_points():
    cfg = ExperimentConfig(trials=20, seed=4)
    once = run_noise(cfg, (0.11,), (0,)).points
    assert run_noise(cfg, (0.11, 0.11), (0, 0)).points == once * 4


def test_noise_curve_is_pinned():
    # seed 3's 40-trial curve as this draw stream gives it: failure counts,
    # injected errors and smallest margins per (variance, retry budget)
    curve = run_noise(ExperimentConfig(trials=40, seed=3), (0.05, 0.10), (0, 1, 2))
    got = [(pt.cell_variance, pt.max_retries, round(pt.failure_probability * pt.trials),
            pt.injected_errors, pt.min_margin.successful, pt.min_margin.failed)
           for pt in curve.points]
    assert got == [(0.05, 0, 0, 0, 173.5, None), (0.05, 1, 0, 0, 173.5, None),
                   (0.05, 2, 0, 0, 173.5, None), (0.10, 0, 9, 50, 113.5, -255.5),
                   (0.10, 1, 8, 51, 113.5, -255.5), (0.10, 2, 8, 52, 113.5, -255.5)]


def test_run_noise_rejects_empty_grids():
    with pytest.raises(ConfigError):
        run_noise(ExperimentConfig(trials=1), variance_grid=())


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -0.1])
def test_noise_levels_must_be_finite_and_non_negative(bad):
    with pytest.raises(ConfigError):
        run_noise(ExperimentConfig(trials=1), variance_grid=(0.05, bad))
    with pytest.raises(ConfigError):
        ExperimentConfig(noise_gain=bad)


def test_noise_serialization_schemas():
    cfg = ExperimentConfig(trials=3)
    curve = run_noise(cfg, variance_grid=(0.0,), retries_grid=(0,))
    csv = noise_to_csv(curve)
    assert csv.startswith("# schema_version=4\n")
    assert ("cell_variance,max_retries,failure_probability,trials,ci_half_width,"
            "injected_errors,min_margin_successful,min_margin_failed") in csv
    fields = csv.splitlines()[-1].split(",")
    assert fields[5] == "0" and float(fields[6]) > 0 and fields[7] == ""
    payload = json.loads(noise_to_json(curve))
    assert payload["schema_version"] == "4"
    point = payload["points"][0]
    assert point["trials"] == 3 and point["injected_errors"] == 0
    assert point["min_margin"]["successful"] > 0
    assert point["min_margin"]["failed"] is None
    assert payload["config"]["seed"] == cfg.seed


def test_decryption_margin_is_positive_exactly_when_the_bit_decodes():
    P = DEFAULT_PARAMS
    pre = np.arange(P.p)
    for bit in (0, 1):
        margin = decryption_margins(pre, bit, P)
        assert np.array_equal(margin > 0, (pre >> (P.eps_p - 1)) == bit)
        assert margin.max() == P.p / 4 - 0.5 and margin.min() == -(P.p / 4 - 0.5)


def test_noise_points_count_errors_and_margins():
    curve = run_noise(ExperimentConfig(trials=60, seed=3), (0.0, 0.11), (0, 2))
    exact = [pt for pt in curve.points if pt.cell_variance == 0.0]
    assert all(pt.injected_errors == 0 and pt.min_margin.failed is None
               and pt.min_margin.successful > 0 for pt in exact)
    r0, r2 = (pt for pt in curve.points if pt.cell_variance == 0.11)
    assert 0 < r0.injected_errors <= r2.injected_errors
    assert r0.min_margin.failed < 0 < r0.min_margin.successful


def _outcome_fields(outcomes):
    return {var: (o.first_success, o.margins, o.errors) for var, o in outcomes.items()}


def test_noise_trials_do_not_depend_on_their_batch():
    cfg = ExperimentConfig(seed=4)
    whole = _outcome_fields(experiments._run_trials(cfg, (0.10, 0.11), 2, range(40)))
    halves = [_outcome_fields(experiments._run_trials(cfg, (0.10, 0.11), 2, range(a, b)))
              for a, b in ((0, 20), (20, 40))]
    assert any((fields[0] > 0).any() for fields in whole.values())  # retries ran
    for var, fields in whole.items():
        for got, first, second in zip(fields, halves[0][var], halves[1][var]):
            np.testing.assert_array_equal(got, np.concatenate([first, second]))


def test_a_batch_does_its_exact_work_once_however_many_retries_run(monkeypatch):
    calls = dict.fromkeys(("program", "matvec", "_ensure_programmed"), 0)

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)
    count(xbar, "program")
    count(xbar, "matvec")
    count(xbar.XbarBackend, "_ensure_programmed")
    cfg = ExperimentConfig(seed=4)
    outcomes = experiments._run_trials(cfg, (0.10, 0.11), 2, range(20))
    assert any((o.first_success > 0).any() for o in outcomes.values())  # retries ran
    # three products: key generation, encryption, and the exact decryption
    # sums that every attempt reads. Two transforms: s, which key generation
    # programs and decryption reuses, and encryption's s'. Both keys are
    # held, so no product checks the slots polynomial by polynomial.
    assert calls == {"program": 2, "matvec": 3, "_ensure_programmed": 0}


def test_noise_curve_does_not_depend_on_batch_size(monkeypatch):
    cfg = ExperimentConfig(trials=30, seed=6)
    grid, retries = (0.0, 0.10, 0.11), (0, 2)
    default = run_noise(cfg, grid, retries)
    monkeypatch.setattr(experiments, "_TRIALS_PER_BATCH", 7)
    assert run_noise(cfg, grid, retries) == default


def test_noise_point_does_not_depend_on_the_other_variances():
    cfg = ExperimentConfig(trials=40, seed=8)
    alone = run_noise(cfg, (0.10,), (0, 1)).points
    both = run_noise(cfg, (0.05, 0.10), (0, 1)).points
    assert alone == tuple(pt for pt in both if pt.cell_variance == 0.10)


def test_noise_memory_does_not_grow_with_trials():
    def peak(trials):
        gen_matrix.cache_clear()
        tracemalloc.start()
        try:
            run_noise(ExperimentConfig(trials=trials), (0.0,), (0,))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    one_batch = peak(experiments._TRIALS_PER_BATCH)
    assert peak(4000) <= 1.5 * one_batch


# ---------------------------------------------------------------------------
# sweeps

def test_default_sweep_points_grid():
    points = default_sweep_points(Operation.DEC)
    assert len(points) == 10
    combos = {(p.algorithm, p.architecture) for p in points}
    assert len(combos) == 10


def test_run_sweep_produces_reports_and_is_deterministic():
    rows = run_sweep(default_sweep_points(Operation.DEC))
    assert len(rows) == 10
    assert all(row.report is not None and not row.error for row in rows)
    again = run_sweep(default_sweep_points(Operation.DEC))
    assert sweep_to_csv(rows) == sweep_to_csv(again)  # byte-identical


def test_run_sweep_captures_per_row_errors():
    class Boom:
        operation = Operation.DEC
        algorithm = MultAlgorithm.SB
        architecture = Architecture.BASELINE
    rows = run_sweep([Boom()])
    assert rows[0].report is None and rows[0].error


def test_a_failing_design_point_is_a_row_of_its_error():
    # TC4K2 needs n >= 8: the point between two good ones records its
    # message, the next is still priced, and both outputs carry the error
    points = [ArchConfig(Operation.DEC, MultAlgorithm.SB),
              ArchConfig(Operation.DEC, MultAlgorithm.TC4K2, params=RingParams(n=4)),
              ArchConfig(Operation.DEC, MultAlgorithm.K2)]
    rows = run_sweep(points)
    assert rows[1].report is None and "TC4K2 requires n divisible by 8" in rows[1].error
    assert rows[0].report is not None and rows[2].report is not None and not rows[2].error
    records = list(csv.reader(sweep_to_csv(rows).splitlines()[2:]))
    assert all(len(record) == len(records[0]) for record in records)
    assert records[2] == ["dec", "TC4K2", "baseline"] + [""] * 9 + [rows[1].error]
    assert records[3][-1] == "" and records[3][3]
    entries = json.loads(sweep_to_json(rows))["rows"]
    assert entries[1] == {"operation": "dec", "algorithm": "TC4K2",
                          "architecture": "baseline", "error": rows[1].error}
    assert "error" not in entries[2] and "latency_ns" in entries[2]


def test_run_sweep_rejects_empty():
    with pytest.raises(ConfigError):
        run_sweep([])


def test_sweep_serialization_schemas():
    rows = run_sweep(default_sweep_points(Operation.DEC))
    csv = sweep_to_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "# schema_version=4"
    assert lines[1].startswith("# catalog=")
    header = lines[2].split(",")
    assert header[:3] == ["operation", "algorithm", "architecture"]
    assert len(lines) == 3 + 10
    payload = json.loads(sweep_to_json(rows))
    assert payload["schema_version"] == "4"
    assert len(payload["rows"]) == 10
    assert all("ee_gbit_j" in r for r in payload["rows"])


# ---------------------------------------------------------------------------
# roundtrips

def test_run_roundtrips_clean():
    assert run_roundtrips(3, seed=11) == 0


def test_run_roundtrips_deterministic():
    assert run_roundtrips(2, seed=1) == run_roundtrips(2, seed=1)


@pytest.mark.parametrize("trials", [-1, 0, 2.5, True])
def test_run_roundtrips_rejects_bad_trial_counts(trials):
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        run_roundtrips(trials)


def test_counts_and_seeds_must_be_integers():
    # a float would fail later, inside range or SeedSequence
    for bad in ({"trials": 2.5}, {"seed": 1.5}, {"trials": True}):
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentConfig(**bad)
    with pytest.raises(ConfigError, match="retry budget must be an integer >= 0"):
        run_noise(ExperimentConfig(trials=1), variance_grid=(0.0,), retries_grid=(0, 1.5))


@pytest.mark.parametrize("trials", [0, -5])
def test_run_verify_refuses_an_empty_run(trials):
    # with no trials three of the four suites would pass having run nothing
    with pytest.raises(ValueError, match="trials per suite must be an integer >= 1"):
        run_verify(ExperimentConfig(trials=1), trials_per_suite=trials)
