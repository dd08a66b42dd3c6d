"""Smoke test of the benchmark: every workload at its smallest size.

Runs run.py in both modes and checks that every metric named in
BENCHMARK.json is printed with its unit and that every output check of
the workload ran and passed.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

POPULATE_CHECKS = {"rep_identical", "digest", "depth_counts", "node_exact",
                   "numeric_oracle"}
CHECKS = {
    "populate_a4": POPULATE_CHECKS,
    "populate_d4": POPULATE_CHECKS,
    "typea_a4": {"rep_identical", "digest", "frame_conditions",
                 "beta_roundtrip", "node_exact", "numeric_oracle"},
    "cli_mix": {"request:" + name for name in (
        "fold", "lambda0", "verify", "generate", "eigenvalues",
        "typea_analyze", "populate", "check_numeric", "bad_sigma",
        "bad_scalar", "missing_file")},
}


def run(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--size", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    ran = report["checks"]
    assert CHECKS[workload] <= set(ran), set(ran) ^ CHECKS[workload]
    assert all(count > 0 for count in ran.values())
    assert report["failed_checks"] == {}
    inputs = report["inputs"]
    assert inputs["scalars.max_order"] >= 1
    assert inputs["qpoly.max_coeff_bits"] >= 1
    assert {"python", "nproc", "seed"} <= set(report["environment"])
    if workload == "cli_mix":
        assert report["known_defects"]["attempted"] == 2 * (1 + trace)
    if trace and workload.startswith("populate"):
        # genengine calls is_generic through its own by-name import
        assert result["metrics"]["frame.is_generic.calls"]["value"] > 0
        assert result["metrics"]["qpoly.qgcd.calls"]["value"] > 0


def test_traced_calls_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = run("populate_d4", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(".calls")})
    assert counts[0] == counts[1]


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("populate_a4", 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_binds_every_name_and_restores():
    sys.path.insert(0, str(BENCH))
    import common
    common.use_source_tree()
    from cybethe import frame, genengine
    from tracer import Tracer
    original = frame.is_generic
    tracer = Tracer()
    tracer.install()
    try:
        assert genengine.is_generic is frame.is_generic
        assert genengine.is_generic is not original
    finally:
        tracer.restore()
    assert genengine.is_generic is original and frame.is_generic is original
