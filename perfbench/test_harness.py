"""Self-test of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest perfbench``.

* A corrupted output byte (or, for ``serve-mix``, a decoded schedule
  that disagrees with a local build) must be counted as a failed op,
  while the same workload run clean fails nothing.
* Every metric named in ``BENCHMARK.json`` prints as ``name value unit``
  and appears in the final JSON line with its unit.
* Without the library sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness

harness.require_src()

import run  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
SCRIPT = harness.ROOT / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_is_caught(workload):
    runner = run.make_runner(workload, seed=7)
    try:
        clean = runner.setup(1, None)
        assert clean.attempted >= 1 and clean.failed == 0
        runner.corrupt = True
        bad = runner.setup(1, None)
    finally:
        runner.close()
    assert bad.attempted >= 1
    assert bad.failed / bad.attempted > 0


def _run_cli(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "serve-mix",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_prints_with_name_and_unit(trace, section):
    lines, result = _run_cli(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {
        parts[0]: parts[2]
        for parts in (line.split() for line in lines
                      if not line.startswith("#"))
        if len(parts) >= 3
    }
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
        assert result["metrics"][name]["unit"] == unit
    assert printed["fail_frac"] == "ratio"
    assert any(line.startswith("# machine ") and '"cores"' in line
               for line in lines)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(harness.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "halo-regular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
