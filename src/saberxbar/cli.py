"""Command-line entry point.

Subcommands: verify, noise, sweep, cost, roundtrip.
Exit codes: 0 success, 1 verification/roundtrip failure, 2 configuration error.
"""

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import replace

from .costmodel import ArchConfig, estimate
from .experiments import (ConfigError, ExperimentConfig, SweepRow, load_config,
                          run_verify, run_noise, run_sweep, run_roundtrips,
                          default_sweep_points, report_fields, sweep_to_csv,
                          sweep_to_json, noise_to_csv, noise_to_json,
                          DEFAULT_VARIANCE_GRID, SCHEMA_VERSION)

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="master RNG seed (overrides config)")
    parser.add_argument("--trials", type=int, metavar="N",
                        help="trial count (overrides config)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saberxbar",
        description="SABER PKE on simulated memristor crossbars: "
                    "verification, noise Monte Carlo, and cost sweeps.")
    _add_run_flags(parser)
    # The subcommands' copies default to unset, so that a flag given before
    # the subcommand is kept unless the same flag follows it.
    run_flags = argparse.ArgumentParser(add_help=False,
                                        argument_default=argparse.SUPPRESS)
    _add_run_flags(run_flags)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[run_flags],
                   help="run the oracle-equivalence suites")
    noise = sub.add_parser("noise", parents=[run_flags],
                           help="decryption-failure Monte Carlo")
    _add_output_flags(noise, "csv")
    noise.add_argument("--variances", metavar="CSV",
                       help="comma-separated cell-variance grid")
    noise.add_argument("--retries", metavar="CSV", default="0",
                       help="comma-separated retry budgets")
    _add_output_flags(sub.add_parser("sweep", parents=[run_flags],
                                     help="cost sweep over algorithms x architectures"),
                      "csv")
    _add_output_flags(sub.add_parser("cost", parents=[run_flags],
                                     help="cost report for the configured design point"),
                      "json")
    sub.add_parser("roundtrip", parents=[run_flags],
                   help="keygen/encrypt/decrypt roundtrips")
    return parser


_OUTPUT_FLAGS = ("--out", "--format")


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--out", metavar="DIR",
                        help="directory for result files (default: stdout only)")
    parser.add_argument("--format", choices=("csv", "json"), default=default_format,
                        help=f"result format (default: {default_format})")


def _check_output_flags_follow_the_command(parser, argv) -> None:
    """Exit 2 naming the flag when --out or --format comes before the
    subcommand: argparse would read its value as the subcommand and report
    only that value as an invalid choice."""
    for arg in argv:
        if arg in _COMMANDS:
            return
        flag = arg.split("=", 1)[0]
        if flag in _OUTPUT_FLAGS:
            parser.error(f"{flag} goes after the subcommand: "
                         "noise, sweep and cost take --out and --format")


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {key: getattr(args, key) for key in ("seed", "trials")
                 if getattr(args, key) is not None}
    return replace(cfg, **overrides)


def _check_out(out: str) -> None:
    """Raise ConfigError unless `out` is a writable directory or could be
    made one, so that a bad --out fails before the command runs."""
    probe = os.path.abspath(out)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--out {out!r}: {probe!r} is not a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {out!r}: {probe!r} is not writable")


def _emit(args, name: str, text: str) -> None:
    if args.out:
        path = os.path.join(args.out, f"{name}.{args.format}")
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc
        print(f"wrote {path}")
    else:
        print(text, end="")


def _cmd_verify(args, cfg: ExperimentConfig) -> int:
    report = run_verify(cfg)
    for suite in report.suites:
        status = "pass" if suite.passed else "FAIL"
        line = f"[{status}] {suite.name}"
        if suite.detail:
            line += f": {suite.detail}"
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILURE


def _parse_grid(text: str, cast, what: str):
    try:
        values = tuple(cast(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {what} grid {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"{what} grid is empty")
    return values


def _cmd_noise(args, cfg: ExperimentConfig) -> int:
    variances = (DEFAULT_VARIANCE_GRID if args.variances is None
                 else _parse_grid(args.variances, float, "variance"))
    retries = _parse_grid(args.retries, int, "retries")
    curve = run_noise(cfg, variances, retries)
    text = noise_to_csv(curve) if args.format == "csv" else noise_to_json(curve)
    _emit(args, "noise", text)
    return EXIT_OK


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    rows = run_sweep(default_sweep_points(cfg.operation), cfg.catalog)
    text = (sweep_to_csv(rows, cfg.catalog) if args.format == "csv"
            else sweep_to_json(rows, cfg.catalog))
    _emit(args, "sweep", text)
    return EXIT_OK


def _cmd_cost(args, cfg: ExperimentConfig) -> int:
    report = estimate(ArchConfig(cfg.operation, cfg.algorithm, cfg.architecture,
                                 cfg.params), cfg.catalog)
    row = SweepRow(cfg.operation.value, cfg.algorithm.value, cfg.architecture.value, report)
    if args.format == "csv":  # the sweep's CSV, one row
        _emit(args, "cost", sweep_to_csv([row], cfg.catalog))
        return EXIT_OK
    payload = {**report_fields(row), "catalog": dataclasses.asdict(cfg.catalog),
               "schema_version": SCHEMA_VERSION}
    _emit(args, "cost", json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_roundtrip(args, cfg: ExperimentConfig) -> int:
    failures = run_roundtrips(cfg.trials, cfg.seed, params=cfg.params)
    print(f"{cfg.trials} roundtrips, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILURE


_COMMANDS = {
    "verify": _cmd_verify,
    "noise": _cmd_noise,
    "sweep": _cmd_sweep,
    "cost": _cmd_cost,
    "roundtrip": _cmd_roundtrip,
}


def main(argv=None) -> int:
    parser = _build_parser()
    _check_output_flags_follow_the_command(parser, sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return _COMMANDS[args.command](args, _load(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
