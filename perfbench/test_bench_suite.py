"""Smoke test of the benchmark: every workload at ``--scale 0.05``, as an
untraced run followed by a traced pass (about 45 s on two CPUs).

Run from the repository root::

    python -m pytest perfbench/test_bench_suite.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_workload_plain_and_traced(workload, tmp_path):
    out = tmp_path / "record.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--scale", "0.05", "--trace", "1",
         "--label", "smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text())
    assert record["correct"] and record["failed"] == 0, record["failures"]
    assert result["metrics"] == record["layers"]["metrics"]
    for section, kind in (("e2e", "end_to_end"), ("layers", "per_layer")):
        units = {name: entry["unit"]
                 for name, entry in record[section]["metrics"].items()}
        assert units == {metric["name"]: metric["unit"]
                         for metric in SPEC[kind]}
    assert all(entry["value"] > 0
               for entry in record["e2e"]["metrics"].values())
    # Tracing changes no output, and exact counts repeat across the
    # untraced run and the traced pass.
    assert record["layers"]["digest"] == record["e2e"]["digest"]
    assert record["layers"]["counts"] == record["e2e"]["counts"]
