"""Smoke tests for the benchmark harness; run with `python -m pytest perfbench`.

They are kept next to the benchmark, outside the repository's test paths, so
the tier-1 suite and its timing do not change.
"""

import json
import os
import subprocess
import sys

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_every_job_kind_passes_at_tiny_sizes():
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(run.HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "words",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
