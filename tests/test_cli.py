import csv
import json
import time
from pathlib import Path

import pytest

from saberxbar import cli
from saberxbar.cli import main, EXIT_OK, EXIT_VERIFY_FAILURE, EXIT_CONFIG_ERROR


def test_verify_exits_zero(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[pass]") == 4


def _noise_config(argv, capsys):
    assert main(argv) == EXIT_OK
    header = capsys.readouterr().out.splitlines()[1]
    return json.loads(header.removeprefix("# config="))


def test_flags_accepted_before_and_after_subcommand(capsys):
    before = _noise_config(["--seed", "3", "--trials", "2", "noise", "--variances", "0"],
                           capsys)
    after = _noise_config(["noise", "--variances", "0", "--trials", "2", "--seed", "3"],
                          capsys)
    assert before == after
    assert (before["seed"], before["trials"]) == (3, 2)
    # a flag after the subcommand overrides the same flag before it
    assert _noise_config(["--seed", "3", "noise", "--trials", "1", "--variances", "0",
                          "--seed", "4"], capsys)["seed"] == 4


def test_config_before_subcommand_is_read(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("algorithm = K2\narchitecture = adcshare\nseed = 6\n")
    assert main(["--config", str(cfg), "cost"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["algorithm"], payload["architecture"]) == ("K2", "adcshare")
    assert _noise_config(["--config", str(cfg), "noise", "--trials", "1",
                          "--variances", "0"], capsys)["seed"] == 6


@pytest.mark.parametrize("argv", [
    ["verify", "--out", "results"],
    ["roundtrip", "--trials", "1", "--format", "json"],
    ["--out", "results", "cost"],
])
def test_output_flags_of_commands_that_write_nothing_are_usage_errors(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert "saberxbar: error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--out", "o", "cost"],
    ["--seed", "1", "--format=json", "sweep"],
    ["--out", "noise", "noise"],
])
def test_output_flags_before_the_subcommand_are_named_in_the_usage_error(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    flag = next(a.split("=")[0] for a in argv if a.startswith("--") and a != "--seed")
    assert f"error: {flag} goes after the subcommand" in err
    assert "noise, sweep and cost" in err and "invalid choice" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", ["noise.cell_variance = 0.05", "noise.tia_variance = 0.02",
                                  "max_retries = 2"])
def test_deleted_config_keys_exit_two_naming_the_key(tmp_path, capsys, line):
    # these keys were echoed into the noise header but never read by a command
    (tmp_path / "run.cfg").write_text(line + "\n")
    out = tmp_path / "noise"
    assert main(["noise", "--trials", "1", "--variances", "0", "--out", str(out),
                 "--config", str(tmp_path / "run.cfg")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "unknown config key" in err and repr(line.split()[0]) in err
    assert not out.exists()


def test_bad_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nope.key = 1\n")
    assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "absent.cfg")]) \
        == EXIT_CONFIG_ERROR


def test_sweep_writes_csv_and_json(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["sweep", "--out", str(out), "--format", "csv"]) == EXIT_OK
    text = (out / "sweep.csv").read_text()
    assert text.startswith("# schema_version=4")
    assert main(["sweep", "--out", str(out), "--format", "json"]) == EXIT_OK
    payload = json.loads((out / "sweep.json").read_text())
    assert len(payload["rows"]) == 10
    capsys.readouterr()


def test_noise_cli_with_custom_grids(tmp_path):
    out = tmp_path / "noise"
    rc = main(["noise", "--trials", "3", "--variances", "0.0",
               "--retries", "0,1", "--out", str(out), "--format", "csv"])
    assert rc == EXIT_OK
    lines = (out / "noise.csv").read_text().splitlines()
    assert lines[2].startswith("cell_variance,")
    assert len(lines) == 3 + 2  # two retry budgets at one variance


def test_noise_cli_bad_grid_exits_two():
    assert main(["noise", "--trials", "1", "--variances", "abc"]) \
        == EXIT_CONFIG_ERROR


def test_negative_seed_or_retry_budget_exits_two(tmp_path, capsys):
    assert main(["roundtrip", "--seed", "-1"]) == EXIT_CONFIG_ERROR
    out = tmp_path / "noise"
    assert main(["noise", "--trials", "1", "--variances", "0.0",
                 "--retries=-1", "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()
    assert capsys.readouterr().err.count("config error") == 2


def test_cost_reports_configured_point(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("operation = dec\nalgorithm = K2\narchitecture = adcshare\n")
    assert main(["cost", "--config", str(cfg)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == "4"
    assert payload["operation"] == "dec"
    assert payload["algorithm"] == "K2"
    assert payload["architecture"] == "adcshare"
    assert payload["ee_gbit_j"] > 0
    # the point's fields are its row of the sweep's JSON
    assert main(["sweep", "--config", str(cfg), "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {k: v for k, v in payload.items()
            if k not in ("catalog", "schema_version")} in rows


def test_cost_writes_its_report_in_the_format_asked_for(tmp_path, capsys):
    assert main(["cost", "--out", str(tmp_path / "j")]) == EXIT_OK
    payload = json.loads((tmp_path / "j" / "cost.json").read_text())
    assert payload["algorithm"] == "SB" and payload["ee_gbit_j"] > 0
    assert main(["cost", "--format", "json", "--out", str(tmp_path / "j2")]) == EXIT_OK
    assert json.loads((tmp_path / "j2" / "cost.json").read_text()) == payload


def test_cost_csv_is_the_sweep_csv_of_its_one_point(tmp_path, capsys):
    assert main(["cost", "--format", "csv", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "cost.csv").read_text().splitlines()
    assert lines[0] == "# schema_version=4" and lines[1].startswith("# catalog={")
    rows = list(csv.DictReader(lines[2:]))
    assert len(rows) == 1
    assert (rows[0]["operation"], rows[0]["algorithm"], rows[0]["architecture"]) == (
        "dec", "SB", "baseline")
    capsys.readouterr()
    assert main(["cost"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert float(rows[0]["energy_pj"]) == pytest.approx(payload["total_energy_pj"], abs=1e-3)
    assert int(rows[0]["cells_written"]) == payload["cells_written"]


def test_roundtrip_reports_success(capsys):
    assert main(["roundtrip", "--trials", "1", "--seed", "7"]) == EXIT_OK
    assert "1 roundtrips, 0 failures" in capsys.readouterr().out


@pytest.mark.parametrize("flags, config", [
    (["--variances=inf"], None),
    (["--variances=-0.1"], None),
    (["--variances=nan"], None),
    ([], "noise.gain = nan\n"),
    ([], "noise.gain = -1\n"),
    ([], "noise.cell_variance = inf\n"),
    ([], "noise.tia_variance = -0.5\n"),
])
def test_non_finite_or_negative_noise_inputs_exit_two(tmp_path, capsys, flags, config):
    # each returns at once: an infinite variance used to hang building the
    # error-magnitude table, and a negative gain silently turned noise off
    argv = ["noise", "--trials", "2", "--out", str(tmp_path / "noise")] + flags
    if config:
        (tmp_path / "noise.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "noise.cfg")]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert not (tmp_path / "noise").exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config", [
    (["--variances=1e6"], None),
    (["--variances=0.05,9.5"], None),
    ([], "noise.gain = 1e6\n"),
])
def test_noise_beyond_the_sample_noise_limit_exits_two_at_once(tmp_path, capsys, flags,
                                                               config):
    # a finite but huge variance used to spend minutes building the
    # error-magnitude table, which grows linearly with the noise std
    argv = ["noise", "--trials", "2", "--out", str(tmp_path / "noise")] + flags
    if config:
        (tmp_path / "noise.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "noise.cfg")]
    start = time.perf_counter()
    assert main(argv) == EXIT_CONFIG_ERROR
    assert time.perf_counter() - start < 5
    assert not (tmp_path / "noise").exists()
    assert "sample noise limit" in capsys.readouterr().err


@pytest.mark.parametrize("command, work", [("cost", "estimate"), ("noise", "run_noise")])
@pytest.mark.parametrize("under", [None, "sub"])
def test_an_out_path_that_is_or_lies_under_a_file_exits_two_before_running(
        tmp_path, capsys, monkeypatch, command, work, under):
    # the command used to run in full, then end in a FileExistsError or
    # NotADirectoryError traceback when it wrote its result
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{command} ran before its --out was checked")
    monkeypatch.setattr(cli, work, must_not_run)
    blocker = tmp_path / "results"
    blocker.write_text("keep")
    out = blocker / under if under else blocker
    assert main([command, "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert blocker.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results"]
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line, named", [
    ("catalog.adc_rate = 0", "adc_rate"),
    ("catalog.adc_rate = -1e9", "adc_rate"),
    ("catalog.write_energy_pj_per_cell_bit = -0.1", "write_energy_pj_per_cell_bit"),
    ("catalog.array_area_um2 = inf", "array_area_um2"),
    ("catalog.array_area_um2 = 100", "array_area_um2"),
    ("catalog.write_latency_ns = nan", "write_latency_ns"),
    ("catalog.sac_all_full_width_root = ture", "sac_all_full_width_root"),
])
def test_bad_catalog_values_exit_two_naming_the_field(tmp_path, capsys, line, named):
    # a zero ADC rate divided by zero, a negative one priced negative
    # energies, an array smaller than its parts priced negative area, and a
    # misspelt boolean read as false
    (tmp_path / "point.cfg").write_text(line + "\n")
    assert main(["cost", "--config", str(tmp_path / "point.cfg")]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert "config error" in captured.err and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spelling, value", [
    ("1", True), ("TRUE", True), ("yes", True), ("0", False), ("false", False), ("No", False),
])
def test_catalog_booleans_take_six_spellings(tmp_path, capsys, spelling, value):
    (tmp_path / "point.cfg").write_text(f"catalog.sac_all_full_width_root = {spelling}\n")
    assert main(["cost", "--config", str(tmp_path / "point.cfg")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["catalog"]["sac_all_full_width_root"] is value


def test_the_tests_import_this_checkouts_package():
    # as the benchmark's loader requires: the package under test is the one
    # in this checkout's src/, not another installed copy
    import saberxbar
    src = (Path(__file__).parents[1] / "src").resolve()
    assert Path(saberxbar.__file__).resolve().is_relative_to(src)
