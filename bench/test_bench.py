"""Self-check of the benchmark harness: a tiny-n run of every workload.

    python3 -m pytest -q bench/test_bench.py

Each run must print, as its last line, a result with every metric that
BENCHMARK.json lists for its mode, each with the listed unit. The
speedometer must sample while started and stop when stopped. Span self
times must account for the wall time of a traced command. Outside a
checkout, with only the benchmark's own files, the benchmark must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0", "--scale", "0.01", "--seed", "3"]


def _run(cwd, *argv):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_self_times_account_for_a_traced_command(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import spans
    from sramyield import cli

    original = cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        assert cli.main(["--out-dir", str(tmp_path), "compare", "--mode", "write",
                         "--constraints", "1.7e-11", "--n", "20000"]) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert cli.main is original
    metrics, calls = spans.layer_metrics(tracer.spans, wall)
    assert calls["cli.main"] == 1 and calls["transients.cell_build"] >= 1
    assert metrics["mc.draw_samples"] == 1600 + 20000
    # Self times tile the command's span; the rest is uncovered time.
    busy = sum(v for name, v in metrics.items() if name.endswith("_s"))
    assert busy == pytest.approx(wall, rel=1e-9)


def test_speedometer_samples_and_stops(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import calib

    speedo = calib.Speedometer()
    speedo.start()
    try:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        speedo.stop()
    count = len(speedo.samples)
    assert count >= 3 and 0 < speedo.spent < 0.5
    assert all(0 < sample <= speedo.spent for sample in speedo.samples)
    time.sleep(3 * calib.PERIOD_S)
    assert len(speedo.samples) == count
    assert speedo.speed_since(count, 1.0) == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--trace", "0", *TINY)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
