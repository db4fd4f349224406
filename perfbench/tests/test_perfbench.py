"""Self-test of the benchmark harness.

Runs every workload at a tiny size, untraced and traced, and checks that the
last line of output is the result object with every metric BENCHMARK.json
names, each with its unit. Also checks that a missing hook target reads as
absent and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


# desk is not in BENCHMARK.json but stays runnable, so it is tested too.
@pytest.mark.parametrize("workload", ["desk", "scale", "backbone"])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"  {name} " in proc.stdout


def test_missing_hook_target_reads_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import pgpfr.replay
    import spans

    monkeypatch.delattr(pgpfr.replay, "cosine_sim")
    recorder = spans.SpanRecorder()
    with recorder.record("r0"):
        pass
    metrics = recorder.layer_metrics("r0")
    assert metrics["replay.cosine_sim.calls"] is None
    assert metrics["losses.vpr_loss.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(tmp_path, "desk", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
