#!/usr/bin/env python3
"""Host-time benchmark of the saberxbar simulator.

    python3 bench/run.py --workload roundtrip-mix --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one caller: an op starts when the previous
one ends. The benchmark calls the package's public functions from outside and
times the simulator's own run time (host time). Simulated results are checked
for identity and digested, not timed. `--trace 0` installs no hooks and gives
the end-to-end metrics; `--trace 1` wraps the same functions (tracing.py) and
gives the per-layer metrics. `--workload all` runs every workload, each in its
own process, and prints every metric by name and unit.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is the run record: machine,
versions, seed, sample counts, output digests and check results. The exit code
is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One caller on a shared 2-core machine: a second BLAS thread only adds
# contention noise. Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_BAND_TRIALS = 200   # trials needed before the criterion-9 band is checked

# Independent input streams drawn from the workload seed.
MAIN, OVERHEAD, WARMUP, VERIFY, SETUP = range(5)


def load_package():
    """Import saberxbar from this checkout's src/, never from elsewhere."""
    if not (SRC / "saberxbar" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}/saberxbar")
    sys.path.insert(0, str(SRC))
    import saberxbar
    if not Path(saberxbar.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: saberxbar imported from {saberxbar.__file__}, not {SRC}")
    return saberxbar


@dataclass
class Unit:
    """Result of one timed unit of work: `ops` ops, of which `failed` failed."""
    ops: int
    failed: int
    useful_decrypts: int
    digest: bytes


# ---------------------------------------------------------------------------
# workloads


class RoundtripMix:
    """Criterion-1 shape: one op is one round, a fresh-key roundtrip
    (`run_roundtrips(1, ...)`) on each of the six backends in turn."""

    name = "roundtrip-mix"
    ops_per_unit = 1
    prefix_units = 10
    tail_pct = 95

    def __init__(self, sx, seed):
        A = sx.MultAlgorithm
        self.sx = sx
        self.backends = [sx.SoftwareBackend(a) for a in
                         (A.SB, A.K2, A.K4, A.TC4, A.TC4K2)] + [sx.XbarBackend()]

    def warm_up(self, rng):
        self.unit(rng)

    def unit(self, rng):
        fails = [self.sx.experiments.run_roundtrips(
            1, int(rng.integers(2**63)), backend=b) for b in self.backends]
        return Unit(1, int(any(fails)), len(fails) - sum(fails), bytes(fails))

    def verify(self, rng, digest, checks):
        """Roundtrips driven by the benchmark itself: every backend must give
        the same key and ciphertext bytes and decrypt the framed message."""
        pke = self.sx.pke
        for _ in range(2):
            seed_a, r, r_enc = rng.bytes(32), rng.bytes(32), rng.bytes(32)
            msg = pke.frame_payload(rng.bytes(28))
            outputs = set()
            for b in self.backends:
                pk, sk = pke.keygen(seed_a, r, backend=b)
                ct = pke.pack_ciphertext(pke.encrypt(pk, pke.encode_message(msg),
                                                     r_enc, backend=b))
                out = pke.decode_message(pke.decrypt(sk, pke.unpack_ciphertext(ct),
                                                     backend=b))
                if out != msg or not pke.check_frame(out):
                    checks.append(f"verify: {tracing.backend_label(b)} "
                                  "did not decrypt the framed message")
                outputs.add(pke.pack_public_key(pk) + ct)
            if len(outputs) != 1:
                checks.append("verify: backends disagree on key or ciphertext bytes")
            digest.update(min(outputs))


class NoiseMc:
    """Criterion-9 shape: `run_noise` over cell variance (0.05, 0.10) x
    retries (0, 1, 2). One op is one trial across the whole grid; a timed
    unit is one `run_noise` call of `trials_per_call` trials."""

    name = "noise-mc"
    variances = (0.05, 0.10)
    retries = (0, 1, 2)
    trials_per_call = 10
    ops_per_unit = trials_per_call
    prefix_units = 3
    tail_pct = 75

    def __init__(self, sx, seed):
        self.sx = sx
        self.fails = {(v, r): 0 for v in self.variances for r in self.retries}
        self.trials = 0

    def _call(self, rng, trials=trials_per_call):
        cfg = self.sx.ExperimentConfig(trials=trials,
                                       seed=int(rng.integers(2**63)))
        curve = self.sx.experiments.run_noise(cfg, self.variances, self.retries)
        return {(pt.cell_variance, pt.max_retries):
                round(pt.failure_probability * pt.trials) for pt in curve.points}

    def warm_up(self, rng):
        self._call(rng, trials=1)

    def unit(self, rng):
        fails = self._call(rng)
        t = self.trials_per_call
        broken = any(fails[(0.05, r)] for r in self.retries) or any(
            fails[(v, a)] < fails[(v, b)]
            for v in self.variances for a, b in zip(self.retries, self.retries[1:]))
        for key, n in fails.items():
            self.fails[key] += n
        self.trials += t
        useful = sum(t - fails[(v, max(self.retries))] for v in self.variances)
        return Unit(t, t if broken else 0, useful,
                    repr(sorted(fails.items())).encode())

    def verify(self, rng, digest, checks):
        if self.trials < MIN_BAND_TRIALS:
            return
        p = self.fails[(0.10, 0)] / self.trials
        if not 0.10 <= p <= 0.35:
            checks.append(f"P(fail | 0.10, r=0) = {p:.4f} outside [0.10, 0.35]")


class OneKeyStream:
    """One key, many messages: set-up makes one `XbarBackend` key and
    serializes and parses the public key once; one op is one message framed,
    encrypted, packed, unpacked, decrypted and checked."""

    name = "one-key-stream"
    ops_per_unit = 1
    prefix_units = 100
    tail_pct = 99

    def __init__(self, sx, seed):
        self.pke = pke = sx.pke
        self.backend = sx.XbarBackend()
        rng = np.random.default_rng([seed, SETUP])
        pk, self.sk = pke.keygen(rng.bytes(32), rng.bytes(32), backend=self.backend)
        self.pk_bytes = pke.pack_public_key(pk)
        self.pk = pke.unpack_public_key(self.pk_bytes)

    def warm_up(self, rng):
        self.unit(rng)

    def unit(self, rng):
        pke = self.pke
        msg = pke.frame_payload(rng.bytes(28))
        ct = pke.pack_ciphertext(pke.encrypt(self.pk, pke.encode_message(msg),
                                             rng.bytes(32), backend=self.backend))
        out = pke.decode_message(pke.decrypt(self.sk, pke.unpack_ciphertext(ct),
                                             backend=self.backend))
        ok = out == msg and pke.check_frame(out)
        return Unit(1, int(not ok), int(ok), ct)

    def verify(self, rng, digest, checks):
        digest.update(self.pk_bytes)
        if self.pke.pack_public_key(self.pk) != self.pk_bytes:
            checks.append("public key does not survive pack/unpack")


WORKLOADS = {w.name: w for w in (RoundtripMix, NoiseMc, OneKeyStream)}


# ---------------------------------------------------------------------------
# measuring


@dataclass
class Run:
    seconds_per_op: list   # one sample per timed unit
    ops: int
    failed: int
    wall_s: float
    digest: object         # hashlib sha256 of the checked prefix
    prefix_ops: int = 0
    prefix_useful: int = 0
    prefix_snapshot: dict = None


def measure(wl, rng, seconds, min_units, tracer=None):
    """Run units back to back for `seconds`, and at least `min_units` units.
    The first `min_units` units are the checked prefix: they feed the output
    digest and, when traced, the per-op counts, so both repeat for a seed."""
    run = Run([], 0, 0, 0.0, hashlib.sha256())
    useful = 0
    start = time.perf_counter()
    while len(run.seconds_per_op) < min_units or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            u = wl.unit(rng)
        except Exception:
            if not run.failed:  # the first traceback is enough
                traceback.print_exc()
            u = Unit(wl.ops_per_unit, wl.ops_per_unit, 0, b"raised")
        run.seconds_per_op.append((time.perf_counter() - t0) / u.ops)
        run.ops += u.ops
        run.failed += u.failed
        useful += u.useful_decrypts
        if len(run.seconds_per_op) <= min_units:
            run.digest.update(u.digest)
            if len(run.seconds_per_op) == min_units:
                run.prefix_ops, run.prefix_useful = run.ops, useful
                if tracer is not None:
                    run.prefix_snapshot = tracer.snapshot()
    run.wall_s = time.perf_counter() - start
    return run


def measure_setup(args):
    """Median wall time, over fresh processes, from process start until the
    workload is set up and warmed and its first timed op could start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return samples


def costmodel_digest(sx):
    """Digest of every CostReport field over the default sweep of every
    operation. Untimed; it pins the cost model's numbers across commits."""
    h = hashlib.sha256()
    for op in sx.Operation:
        for ac in sx.experiments.default_sweep_points(op):
            r = sx.estimate(ac)
            h.update(repr((op.value, ac.algorithm.value, ac.architecture.value,
                           r.latency_ns, sorted(r.energy_pj.items()),
                           sorted(r.area_um2.items()), r.samples_converted,
                           r.cells_written, r.logical_cell_bits)).encode())
    return h.hexdigest()


def git_commit():
    """The checkout's commit, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head.removeprefix("ref: ")
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def machine_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "saberxbar").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def tail_blocks(samples, pct):
    """Consecutive blocks of `samples`, each with at least 10 samples beyond
    its `pct` percentile."""
    block = -(-1000 // (100 - pct))
    return np.array_split(samples, max(1, len(samples) // block))


def run_workload(args):
    sx = load_package()
    wl = WORKLOADS[args.workload](sx, args.seed)
    wl.warm_up(np.random.default_rng([args.seed, WARMUP]))
    if args.setup_only:
        print("ready", flush=True)
        return 0

    rng = np.random.default_rng([args.seed, MAIN])
    tracer = None
    if args.trace:
        # untraced then traced halves of the run give the tracing overhead
        untraced = measure(wl, np.random.default_rng([args.seed, OVERHEAD]),
                           args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = measure(wl, rng, args.seconds / 2, wl.prefix_units, tracer)
        finally:
            tracer.uninstall()
    else:
        run = measure(wl, rng, args.seconds, wl.prefix_units)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = []
    wl.verify(np.random.default_rng([args.seed, VERIFY]), run.digest, checks)
    if run.failed:
        checks.append(f"{run.failed} of {run.ops} ops failed")
    samples_ms = np.array(run.seconds_per_op) * 1e3
    ops_per_s = run.ops / run.wall_s
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "samples": {"ops": run.ops, "timed_units": len(samples_ms),
                    "ops_per_unit": wl.ops_per_unit,
                    "tail_percentile": wl.tail_pct,
                    "tail_blocks": [len(b) for b in tail_blocks(samples_ms, wl.tail_pct)],
                    "checked_prefix_ops": run.prefix_ops},
        "digests": {"outputs": run.digest.hexdigest(),
                    "costmodel": costmodel_digest(sx)},
        "failed_op_ratio": run.failed / run.ops,
    }
    if isinstance(wl, NoiseMc):
        record["noise_failures"] = {f"{v}/r{r}": n for (v, r), n in wl.fails.items()}
        record["noise_trials"] = wl.trials

    if args.trace:
        layer = tracer.metrics(run.prefix_snapshot, run.prefix_ops,
                               run.prefix_useful, run.ops)
        layer["trace.wall_ms_per_op"] = (run.wall_s * 1e3 / run.ops, "ms/op")
        layer["trace.unhooked_ms_per_op"] = (
            (run.wall_s - tracer.top_level_s) * 1e3 / run.ops, "ms/op")
        layer["trace.overhead_ratio"] = (
            (untraced.ops / untraced.wall_s) / ops_per_s, "ratio")
        checks += [f"census: {v}" for v in sorted(tracer.violations)]
        if untraced.failed:
            checks.append(f"{untraced.failed} of {untraced.ops} untraced ops failed")
        record["missing_hooks"] = tracer.missing
        metrics = layer
    else:
        setup = measure_setup(args)
        record["setup_samples_s"] = setup
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (float(np.median(samples_ms)), "ms"),
            # a burst of interference moves one block, not the median of them
            "op_ms_tail": (float(np.median([np.percentile(b, wl.tail_pct) for b in
                                            tail_blocks(samples_ms, wl.tail_pct)])), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    record["checks_failed"] = checks
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not checks, "attempted": run.ops, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not checks else 1


def run_all(args):
    """Every workload in its own process; a table, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        status = status or proc.returncode
        if len(lines) < 2:
            print(f"{name}: no result (exit {proc.returncode})")
            summary["correct"] = False
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={record['digests']['outputs'][:16]}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
            summary["metrics"][f"{name}.{metric}"] = m
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and warm up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
