"""Tests of the benchmark itself. Run with `python -m pytest bench`.

Each test runs the command BENCHMARK.json declares on a tiny run length and
reads the record and result lines it prints.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = ("calls_per_op", "hit_ratio", "bytes_per_op", "polymults_per_op",
                  "bits_per_op", "attempts_per_op")


@lru_cache(maxsize=None)
def bench(workload, seed, trace, run=0):
    """(record, result) of one tiny run; `run` tells repeated runs apart."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_every_metric_with_its_unit(workload, trace, kind):
    record, result = bench(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert record["missing_hooks" if trace else "setup_samples_s"] is not None
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "src_sha256"):
        assert record["machine"][key] is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_digests_and_counts(workload):
    (rec_a, res_a), (rec_b, res_b) = bench(workload, 3, 1), bench(workload, 3, 1, run=1)
    assert rec_a["digests"] == rec_b["digests"]
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if k.endswith(COUNT_SUFFIXES)} for res in (res_a, res_b)]
    assert counts[0] == counts[1]
    # tracing does not change what the program computes
    assert bench(workload, 3, 0)[0]["digests"] == rec_a["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_changes_the_digest(workload):
    a, b = bench(workload, 3, 0)[0], bench(workload, 4, 0)[0]
    assert a["digests"]["outputs"] != b["digests"]["outputs"]
    assert a["digests"]["costmodel"] == b["digests"]["costmodel"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_remainder_add_up_to_wall_time(workload):
    m = {k: v["value"] for k, v in bench(workload, 3, 1)[1]["metrics"].items()}
    spans = sum(v for k, v in m.items() if k.endswith(".self_ms_per_op"))
    assert m["trace.unhooked_ms_per_op"] >= 0
    assert spans + m["trace.unhooked_ms_per_op"] == pytest.approx(m["trace.wall_ms_per_op"])


def test_census_and_bypassed_layers():
    per_op = {w: {k: v["value"] for k, v in bench(w, 3, 1)[1]["metrics"].items()}
              for w in WORKLOADS}
    # criterion 10: 24 polymults per roundtrip, six roundtrips per round
    assert per_op["roundtrip-mix"]["pke.polymults_per_op"] == 144
    assert per_op["one-key-stream"]["xbar.cell_bits_written_per_op"] == 3072
    assert per_op["one-key-stream"]["xbar.boot_cell_bits_per_op"] == 0
    assert per_op["one-key-stream"]["ring.gen_matrix.hit_ratio"] == 1.0
    for w in ("noise-mc", "one-key-stream"):
        for alg in ("SB", "K2", "K4", "TC4", "TC4K2"):
            assert per_op[w][f"polymult.conv_raw.{alg}.calls_per_op"] == 0
    assert per_op["one-key-stream"]["experiments.run_roundtrips.calls_per_op"] == 0


def test_layer_map_names_declared_metrics():
    declared = {m["name"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    for entry in layer_map["moves"]:
        for name in entry["per_layer"]:
            prefix = name.removesuffix("*")
            assert any(d.startswith(prefix) for d in declared), name
        assert set(entry["end_to_end"]) <= declared
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_fails_without_package_source():
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
