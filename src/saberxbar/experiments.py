"""Experiment orchestration: verification suites, noise Monte Carlo, sweeps.

Configuration is a flat dotted key=value text format, e.g.:

    operation = dec
    algorithm = TC4K2
    noise.gain = 1.07
    trials = 10000
    catalog.write_energy_pj_per_cell_bit = 0.1

All runs are deterministic for a given (config, seed). Each noise
Monte Carlo trial derives its streams from the master seed, its trial index
and the variance's value, and trials run in fixed-size batches, so a
failure-curve point does not depend on trial order, batching or the rest of
the grid.
"""

import csv
import dataclasses
import io
import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .params import RingParams, DEFAULT_PARAMS
from .ring import Poly, _reduce, gen_matrices, sample_secrets
from .polymult import MultAlgorithm, multiply, schoolbook_mul
from .pke import (keygen, encrypt, decrypt, encode_message, encode_messages,
                  decode_message, frame_payload, check_frame, keygen_arrays,
                  encrypt_arrays, decrypt_sums)
from .xbar import (XbarBackend, NoisySampleBackend, NoiseSpec, DEFAULT_NOISE_GAIN,
                   MAX_SAMPLE_STD, operand_shape, program_operand, crossbar_polymult,
                   inject)
from .schedule import PrecisionMap, accumulate_coefficient, truncate_to_required
from .sac import SacVariant, build_sac_tree, sac_accumulate
from .costmodel import (Operation, Architecture, ArchConfig, ComponentCatalog,
                        DEFAULT_CATALOG, CostReport, estimate)

SCHEMA_VERSION = "4"


class ConfigError(ValueError):
    pass


def _check_count(value, what: str, least: int, error=ValueError) -> None:
    """Counts and seeds are integers of at least `least`: a float one would
    fail later, inside `range` or `SeedSequence`, and a bool is a slip."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise error(f"{what} must be an integer >= {least}, got {value!r}")


def _check_noise_level(value: float, what: str) -> None:
    """Variances and gains must be finite and >= 0: an infinite one never
    terminates the error-magnitude table, a negative one turns noise off."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{what} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    operation: Operation = Operation.DEC
    algorithm: MultAlgorithm = MultAlgorithm.SB
    architecture: Architecture = Architecture.BASELINE
    noise_gain: float = DEFAULT_NOISE_GAIN
    trials: int = 10_000
    seed: int = 0
    catalog: ComponentCatalog = DEFAULT_CATALOG
    params: RingParams = DEFAULT_PARAMS

    def __post_init__(self):
        _check_count(self.trials, "trials", 1, ConfigError)
        _check_count(self.seed, "seed", 0, ConfigError)
        _check_noise_level(self.noise_gain, "noise_gain")


def parse_config_text(text: str) -> dict:
    """key = value lines; '#' starts a comment; blank lines ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _enum_by_value(enum_cls, value: str, what: str):
    for member in enum_cls:
        if member.value.lower() == value.lower() or member.name.lower() == value.lower():
            return member
    valid = ", ".join(m.value for m in enum_cls)
    raise ConfigError(f"unknown {what} {value!r} (expected one of: {valid})")


def _parse_bool(text: str) -> bool:
    for value, spellings in ((True, ("1", "true", "yes")), (False, ("0", "false", "no"))):
        if text.lower() in spellings:
            return value
    raise ValueError(f"expected 1/0/true/false/yes/no, got {text!r}")


# config key -> (ExperimentConfig field, parser of its text)
_CONFIG_KEYS = {
    "operation": ("operation", lambda v: _enum_by_value(Operation, v, "operation")),
    "algorithm": ("algorithm", lambda v: _enum_by_value(MultAlgorithm, v, "algorithm")),
    "architecture": ("architecture",
                     lambda v: _enum_by_value(Architecture, v, "architecture")),
    "noise.gain": ("noise_gain", float),
    "trials": ("trials", int),
    "seed": ("seed", int),
}

# catalog.<field> -> parser of its text, for each scalar field of the catalog
_CATALOG_SCALARS = {f.name: _parse_bool if f.type is bool else float
                    for f in dataclasses.fields(ComponentCatalog) if f.type in (float, bool)}


def build_config(mapping: dict, base: ExperimentConfig = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    catalog = cfg.catalog
    updates = {}
    try:
        for key, value in mapping.items():
            if key in _CONFIG_KEYS:
                field, parse = _CONFIG_KEYS[key]
                updates[field] = parse(value)
            elif key.startswith("catalog."):
                name = key[len("catalog."):]
                if name not in _CATALOG_SCALARS:
                    raise ConfigError(f"unknown catalog field {name!r}")
                catalog = replace(catalog, **{name: _CATALOG_SCALARS[name](value)})
            else:
                raise ConfigError(f"unknown config key {key!r}")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{key} = {value}: {exc}") from exc
    return replace(cfg, catalog=catalog, **updates)


def load_config(path, base: ExperimentConfig = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text), base)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    suites: tuple

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


def _first_mismatch(got: np.ndarray, want: np.ndarray) -> str:
    idx = int(np.nonzero(got != want)[0][0])
    return f"first failing coefficient {idx}: got {int(got[idx])}, want {int(want[idx])}"


# Each suite yields one value per case, in order: a failure detail, or a
# false value when the case passes. All suites draw from one stream.

def _polymult_cases(rng, p: RingParams, trials: int):
    for alg in MultAlgorithm:
        for _ in range(trials):
            a = Poly(rng.integers(0, p.q, p.n), p.q)
            b = Poly(rng.integers(0, p.q, p.n), p.q)
            got, want = multiply(alg, a, b), schoolbook_mul(a, b)
            yield got != want and f"{alg.value}: " + _first_mismatch(got.coeffs, want.coeffs)


def _crossbar_cases(rng, p: RingParams, trials: int, stuck_fault):
    injected = "" if stuck_fault is None else (
        "; injected stuck-at-{3} cell at tile {0}, row {1}, column {2}".format(*stuck_fault))
    for _ in range(max(2, trials // 8)):
        a = Poly(rng.integers(0, p.p, p.n), p.p)
        s = rng.integers(-p.mu // 2, p.mu // 2 + 1, p.n)
        operand = program_operand(s, p)
        if stuck_fault is not None:
            t, row, col, level = stuck_fault
            cells = operand.cells.copy()
            cells.reshape(-1, *cells.shape[-2:])[t, row, col] = level
            operand = replace(operand, cells=cells)
        got = crossbar_polymult(a, operand).coeffs
        want = schoolbook_mul(a, Poly(s, p.p)).coeffs
        yield not np.array_equal(got, want) and _first_mismatch(got, want) + injected


def _sac_cases(rng, p: RingParams, trials: int):
    for variant in SacVariant:
        tree = build_sac_tree(variant, 4, p.eps_p)
        for _ in range(trials):
            grid = rng.integers(0, 64, (p.eps_p, 4))
            got = sac_accumulate(tree, grid, p.eps_p)
            want = accumulate_coefficient(grid, p.eps_p)
            yield got != want and f"{variant.value}: got {got}, want {want}"


def _truncation_cases(rng, p: RingParams, trials: int):
    pmap = PrecisionMap(p.eps_p)
    for _ in range(trials * 4):
        grid = rng.integers(0, 64, (p.eps_p, 4))
        a = accumulate_coefficient(grid, p.eps_p)
        b = accumulate_coefficient(truncate_to_required(grid, pmap), p.eps_p)
        yield a != b and f"truncated {b} != full {a}"


def run_verify(config: ExperimentConfig, stuck_fault=None,
               trials_per_suite: int = 25) -> VerifyReport:
    """Oracle-equivalence suites, each stopping at its first failure;
    `stuck_fault` = (tile, row, col, level) injects a stuck cell into the
    crossbar suite's programmed tiles, which are numbered row block by row
    block. A fault outside the operand's tiles, or at a level other than 0
    or 1, raises ValueError, as does a `trials_per_suite` below 1, which
    would leave suites that ran nothing reported as passed."""
    _check_count(trials_per_suite, "trials per suite", 1)
    rng = np.random.default_rng(config.seed)
    p = config.params
    if stuck_fault is not None:
        shape = operand_shape(p.n)
        limits = (shape[0] * shape[1], shape[2], shape[3], 2)
        if not (len(stuck_fault) == 4
                and all(isinstance(v, numbers.Integral) and 0 <= v < limit
                        for v, limit in zip(stuck_fault, limits))):
            raise ValueError(f"stuck fault {tuple(stuck_fault)} is not (tile < {limits[0]}, "
                             f"row < {limits[1]}, column < {limits[2]}, level 0 or 1)")
    k = trials_per_suite
    suites = {"polymult-vs-schoolbook": _polymult_cases(rng, p, k),
              "crossbar-vs-software": _crossbar_cases(rng, p, k, stuck_fault),
              "sac-vs-digital-accumulate": _sac_cases(rng, p, k),
              "truncation-safety": _truncation_cases(rng, p, k)}
    # a suite draws only while it runs: after the one before it has stopped
    details = {name: next(filter(None, cases), "") for name, cases in suites.items()}
    return VerifyReport(tuple(SuiteResult(name, not d, d) for name, d in details.items()))


# ---------------------------------------------------------------------------
# noise Monte Carlo

@dataclass(frozen=True)
class Margin:
    """Smallest decryption margin over the successful and over the failed
    trials of a point; None where there were none."""

    successful: float = None
    failed: float = None


@dataclass(frozen=True)
class FailurePoint:
    cell_variance: float
    max_retries: int
    failure_probability: float
    trials: int
    ci_half_width: float
    injected_errors: int  # sample errors in encryption and the budget's decryptions
    min_margin: Margin


@dataclass(frozen=True)
class FailureCurve:
    points: tuple
    config: dict

    def probability(self, variance: float, retries: int) -> float:
        for pt in self.points:
            if pt.cell_variance == variance and pt.max_retries == retries:
                return pt.failure_probability
        raise KeyError((variance, retries))


def wilson_interval(failures: int, trials: int, z: float = 1.96):
    """(center, half_width) of the 95% Wilson score interval."""
    if trials == 0:
        return 0.0, 0.0
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return center, half


DEFAULT_VARIANCE_GRID = (0.0, 0.02, 0.04, 0.05, 0.06, 0.08, 0.10)

# Trials multiplied together. It bounds the Monte Carlo's working memory;
# results do not depend on it. Timed on criterion 9's 10,000-trial run,
# batches of 1, 2 and 4 trials take about 2.5x, 1.5x and 1.3x as long as
# batches of 16 to 512, which tie within run-to-run noise while peak memory
# grows by about 0.2 MiB per trial of a batch; 32 is at the start of that
# plateau.
_TRIALS_PER_BATCH = 32


def decryption_margins(pre: np.ndarray, m: np.ndarray, params: RingParams) -> np.ndarray:
    """Signed distance of each pre-rounding coefficient (mod p) from the
    nearer edge of the interval that decodes to its message bit m, in units
    of 1 mod p: positive exactly when the bit decodes correctly."""
    half = params.p // 2
    offset = _reduce(pre - m * half + half // 2, params.p) - half  # from the interval's center
    return half / 2 - np.abs(offset + 0.5)


def _trial_seed(seed: int, trial: int, variance: float = None) -> np.random.SeedSequence:
    """Seed of trial `trial`'s key and message stream, or of its sample noise
    at `variance`: children of the master seed, keyed by the trial index and
    the variance's value."""
    key = (trial,) if variance is None else (
        trial, int(np.float64(variance).view(np.uint64)))
    return np.random.SeedSequence(seed, spawn_key=key)


@dataclass(frozen=True)
class _Outcomes:
    """Per-trial results at one variance, for max_retries + 1 attempts."""

    first_success: np.ndarray  # attempt that first decrypted correctly, -1 if none
    margins: np.ndarray        # (trials, attempts) worst coefficient's margin, nan if not made
    errors: np.ndarray         # (trials, attempts + 1) encryption's, then each attempt's

    def at_budget(self, r: int):
        """(success, decisive attempt's margin, injected errors) per trial
        at retry budget r."""
        success = (self.first_success >= 0) & (self.first_success <= r)
        last = np.minimum(r, (~np.isnan(self.margins)).sum(axis=1) - 1)
        decisive = np.where(success, self.first_success, last)
        margin = self.margins[np.arange(len(decisive)), decisive]
        return success, margin, self.errors[:, : r + 2].sum(axis=1)


def _run_trials(config: ExperimentConfig, variance_grid, max_r: int, trials) -> dict:
    """{variance: _Outcomes} for the trial indices `trials`, all multiplied
    together. Each (trial, variance) draws everything from its own streams,
    so its outcome does not depend on which other trials or variances run.

    Every exact quantity of the batch is computed once: the seeds expand in
    one batched call each, key generation and encryption make one product
    each, and the exact decryption sums one more, for every (variance,
    trial) entry against the trials' key that key generation programmed.
    Key generation and the exact sums run on an ideal `XbarBackend`,
    encryption on a `NoisySampleBackend`. Only the sample errors are drawn
    per read (`inject`), so a retry redraws them over the same exact sums.
    """
    p = config.params
    variances = list(dict.fromkeys(variance_grid))
    draws = [np.random.default_rng(_trial_seed(config.seed, t)).bytes(96 + p.n // 8 - 4)
             for t in trials]
    A = gen_matrices([d[:32] for d in draws], p)
    s, s_enc = sample_secrets([d[32:64] for d in draws] + [d[64:96] for d in draws],
                              p).reshape(2, len(draws), p.l, p.n)
    m = encode_messages([frame_payload(d[96:], p) for d in draws], p)

    # one crossbar per (variance, trial); exact products broadcast over them
    noise = np.array([[NoiseSpec(var, _trial_seed(config.seed, t, var)) for t in trials]
                      for var in variances], dtype=object)
    ideal = XbarBackend(p)
    b = keygen_arrays(A, s, p, ideal)  # exact, so one key serves every variance
    noisy = NoisySampleBackend(noise, p, config.noise_gain)
    c_m, b_prime = encrypt_arrays(A, b, m, s_enc, p, noisy)
    # b'^T s of every (variance, trial) entry, once, without sample errors,
    # against the key that key generation holds
    exact = ideal.matvec(b_prime[..., None, :, :], ideal.program(s), [p.p])

    # per (variance, trial) entry, flattened
    first_success = np.full(noise.size, -1)
    margins = np.full((noise.size, max_r + 1), np.nan)
    errors = np.zeros((noise.size, max_r + 2), dtype=np.int64)
    errors[:, 0] = noisy.last_injected.ravel()
    m = np.broadcast_to(m, noise.shape + m.shape[1:]).reshape(noise.size, p.n)
    c_m, exact = c_m.reshape(noise.size, p.n), exact.reshape(noise.size, 1, p.n)
    retryable = np.repeat(np.array(variances) > 0, len(draws))  # exact decryption is final
    pending = np.arange(noise.size)
    for attempt in range(max_r + 1):
        v, errors[pending, attempt + 1] = inject(exact[pending], [p.p], p.l,
                                                 noise.ravel()[pending], config.noise_gain)
        margin = decryption_margins(decrypt_sums(v[:, 0], c_m[pending], p), m[pending],
                                    p).min(axis=-1)
        margins[pending, attempt] = margin
        ok = margin > 0
        first_success[pending[ok]] = attempt
        pending = pending[~ok & retryable[pending]]
        if not len(pending):
            break
    shape = noise.shape
    first_success, margins, errors = (x.reshape(shape + x.shape[1:])
                                      for x in (first_success, margins, errors))
    return {var: _Outcomes(first_success[v], margins[v], errors[v])
            for v, var in enumerate(variances)}


def run_noise(config: ExperimentConfig,
              variance_grid=DEFAULT_VARIANCE_GRID,
              retries_grid=(0,)) -> FailureCurve:
    """Empirical decryption-failure curve over (variance, retries).

    Key generation is exact, so each trial's key serves every variance;
    encryption and every decryption attempt see fresh sample noise. A trial
    at retry budget r fails when none of its first r+1 decryptions recovers
    every message coefficient with a positive margin (`decryption_margins`),
    so the curve is monotone in r by construction. Each batch's exact work
    is done once (`_run_trials`): a decryption attempt reads the same exact
    sums as the one before it, so a retry redraws only the sample errors,
    and only for the trials that still fail. Trial t draws its keys and
    message from its own child stream of `config.seed`, and its sample
    noise from a child keyed by t and the variance's value, so a point does
    not depend on the trial order, on the batching, or on the other
    variances in the grid. Trials run in fixed-size batches, so memory does
    not grow with `config.trials`.

    Each point also counts the sample errors injected (in encryption and in
    the decryptions its budget allows) and the smallest decryption margin
    (`decryption_margins` of a trial's worst coefficient in the attempt that
    decided it) over its successful and over its failed trials.
    """
    if not variance_grid or not retries_grid:
        raise ConfigError("variance and retries grids must be non-empty")
    for r in retries_grid:
        _check_count(r, "retry budget", 0, ConfigError)
    for var in variance_grid:
        _check_noise_level(var, "cell variance")
        if var * config.noise_gain > MAX_SAMPLE_STD:
            raise ConfigError(f"cell variance {var} x noise gain {config.noise_gain} "
                              f"exceeds the sample noise limit {MAX_SAMPLE_STD}")
    max_r = max(retries_grid)
    keys = [(var, r) for var in variance_grid for r in retries_grid]
    fails, errors = dict.fromkeys(keys, 0), dict.fromkeys(keys, 0)
    worst = {key: [math.inf, math.inf] for key in keys}
    for start in range(0, config.trials, _TRIALS_PER_BATCH):
        trials = range(start, min(start + _TRIALS_PER_BATCH, config.trials))
        for var, out in _run_trials(config, variance_grid, max_r, trials).items():
            for r in dict.fromkeys(retries_grid):  # a repeated budget is tallied once
                success, margin, errs = out.at_budget(r)
                fails[var, r] += int((~success).sum())
                errors[var, r] += int(errs.sum())
                for i, group in enumerate((margin[success], margin[~success])):
                    if len(group):
                        worst[var, r][i] = min(worst[var, r][i], float(group.min()))
    points = []
    for key in keys:
        _, half = wilson_interval(fails[key], config.trials)
        margin = Margin(*(None if w == math.inf else w for w in worst[key]))
        points.append(FailurePoint(*key, fails[key] / config.trials, config.trials,
                                   half, errors[key], margin))
    # the header lists only the settings the run reads
    return FailureCurve(tuple(points), {"noise.gain": config.noise_gain,
                                        "trials": config.trials, "seed": config.seed})


# ---------------------------------------------------------------------------
# design-space sweeps

@dataclass(frozen=True)
class SweepRow:
    operation: str
    algorithm: str
    architecture: str
    report: CostReport = None
    error: str = ""


def default_sweep_points(operation: Operation):
    """The 5-algorithm x {Baseline, ADCShare} grid."""
    return [ArchConfig(operation, alg, arch)
            for alg in MultAlgorithm
            for arch in (Architecture.BASELINE, Architecture.ADC_SHARE)]


def run_sweep(arch_configs, catalog: ComponentCatalog = DEFAULT_CATALOG):
    """One CostReport per design point; per-row failures don't stop the sweep."""
    if not arch_configs:
        raise ConfigError("sweep needs at least one design point")
    rows = []
    for ac in arch_configs:
        try:
            rows.append(SweepRow(ac.operation.value, ac.algorithm.value,
                                 ac.architecture.value, estimate(ac, catalog)))
        except Exception as exc:  # record, continue
            rows.append(SweepRow(ac.operation.value, ac.algorithm.value,
                                 ac.architecture.value, None, str(exc)))
    return rows


_CSV_COLUMNS = ("operation", "algorithm", "architecture", "latency_ns",
                "energy_pj", "adc_pj", "write_pj", "area_um2",
                "samples_converted", "cells_written", "ce_gbit_s_mm2",
                "ee_gbit_j", "error")


def sweep_to_csv(rows, catalog: ComponentCatalog = DEFAULT_CATALOG) -> str:
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    buf.write(f"# catalog={json.dumps(dataclasses.asdict(catalog), sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")  # quotes an error that holds a comma
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        vals = [row.operation, row.algorithm, row.architecture]
        if row.report is None:
            vals += [""] * 9 + [row.error]
        else:
            r = row.report
            vals += [f"{r.latency_ns:.3f}", f"{r.total_energy_pj:.3f}",
                    f"{r.energy_pj['adc']:.3f}", f"{r.energy_pj['write']:.3f}",
                    f"{r.total_area_um2:.3f}", str(r.samples_converted),
                    str(r.cells_written), f"{r.ce_gbit_s_mm2:.4f}",
                    f"{r.ee_gbit_j:.4f}", ""]
        writer.writerow(vals)
    return buf.getvalue()


_REPORT_FIELDS = ("latency_ns", "energy_pj", "total_energy_pj", "area_um2",
                  "total_area_um2", "samples_converted", "cells_written",
                  "logical_cell_bits", "ce_gbit_s_mm2", "ee_gbit_j")


def report_fields(row: SweepRow) -> dict:
    """The JSON fields of one design point: its operation, algorithm and
    architecture, and its CostReport's numbers or the error it raised."""
    entry = {"operation": row.operation, "algorithm": row.algorithm,
             "architecture": row.architecture}
    if row.report is None:
        entry["error"] = row.error
    else:
        entry.update({name: getattr(row.report, name) for name in _REPORT_FIELDS})
    return entry


def sweep_to_json(rows, catalog: ComponentCatalog = DEFAULT_CATALOG) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "catalog": dataclasses.asdict(catalog),
        "rows": [report_fields(row) for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def noise_to_csv(curve: FailureCurve) -> str:
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    buf.write(f"# config={json.dumps(curve.config, sort_keys=True)}\n")
    buf.write("cell_variance,max_retries,failure_probability,trials,ci_half_width,"
              "injected_errors,min_margin_successful,min_margin_failed\n")
    for pt in curve.points:
        margins = ["" if v is None else str(v)
                   for v in (pt.min_margin.successful, pt.min_margin.failed)]
        buf.write(f"{pt.cell_variance},{pt.max_retries},"
                  f"{pt.failure_probability:.6f},{pt.trials},"
                  f"{pt.ci_half_width:.6f},{pt.injected_errors},{','.join(margins)}\n")
    return buf.getvalue()


def noise_to_json(curve: FailureCurve) -> str:
    return json.dumps({
        "schema_version": SCHEMA_VERSION,
        "config": curve.config,
        "points": [dataclasses.asdict(pt) for pt in curve.points],
    }, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# roundtrip driver (shared by the CLI and the acceptance suite)

def run_roundtrips(trials: int, seed: int = 0, backend=None,
                   params: RingParams = DEFAULT_PARAMS) -> int:
    """Full keygen/encrypt/decrypt roundtrips; returns the failure count.
    `trials` must be an integer >= 1, as on the command line."""
    _check_count(trials, "trials", 1)
    backend = backend or XbarBackend(params)
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        seeds = rng.bytes(96)  # the same stream as three 32-byte draws
        seed_a, r_kg, r_enc = seeds[:32], seeds[32:64], seeds[64:]
        pk, sk = keygen(seed_a, r_kg, params, backend)
        msg = frame_payload(rng.bytes(params.n // 8 - 4), params)
        ct = encrypt(pk, encode_message(msg, params), r_enc, params, backend)
        out = decode_message(decrypt(sk, ct, params, backend))
        if out != msg or not check_frame(out):
            failures += 1
    return failures
