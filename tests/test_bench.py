"""The per-layer ladder of ``tests/tools/bench.py`` runs and writes its record.

The tool is loaded by path and records one pass at nmax 4, with one timed
call of each rung, so it cannot rot between the changes that record a ladder.
An end-to-end run lasts at least its ten seconds, so no test starts the
benchmark: its capture is checked on a canned run of a stubbed command."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).parent / "tools" / "bench.py"
RUNGS = {"coherent_build", "small_d", "apply_coherent", "apply_random", "joint_bs",
         "report_json", "phase_sweep_csv", "reconstruct_single", "jz_from_methods",
         "state_json"}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_ladder_records_every_rung_with_its_environment(tmp_path):
    path = load_tool().record(0, (4,), repeats=1, passes=1, workloads=(), out_dir=tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == "BENCH_0.json"
    assert set(doc) == {"pr", "ladder", "repeats", "passes", "environment", "rungs",
                        "end_to_end"}
    assert doc["end_to_end"] == {}
    assert (doc["pr"], doc["ladder"], doc["repeats"], doc["passes"]) == (0, [4], 1, 1)
    assert set(doc["environment"]) == {"python", "numpy", "blas_threads", "nproc", "loadavg",
                                       "loadavg_after", "commit", "src_modified", "src_sha256"}
    assert set(doc["rungs"]) == RUNGS
    for name, by_nmax in doc["rungs"].items():
        stats = by_nmax["4"]
        assert set(by_nmax) == {"4"}
        assert set(stats) == {"median_s", "q1_s", "q3_s", "calls"}
        assert stats["calls"] == 1
        assert 0.0 < stats["q1_s"] <= stats["median_s"] <= stats["q3_s"], name


COMMAND = ["python3", "perfbench/run.py"]  # stands in for BENCHMARK.json's command
# the shape of one run's stdout: human-readable lines, then one JSON line
CANNED = """workload cli-demo (the six README calls)
environment {"python": "3.11.7", "seed": 1}
passes [0.7]; per subcommand {"run": 0.1}
failed_frac 0 (0 of 84)
wall_s 0.7 s
{"correct": true, "attempted": 84, "failed": 0, "metrics": {"wall_s": 0.7}}
"""


def test_each_workload_run_is_captured_verbatim(monkeypatch):
    tool = load_tool()
    calls = []

    def run(argv, **kwargs):
        calls.append((argv, kwargs["cwd"]))
        return subprocess.CompletedProcess(argv, 0, CANNED, "")

    monkeypatch.setattr(tool, "benchmark", lambda: {"command": COMMAND})
    monkeypatch.setattr(tool.subprocess, "run", run)
    captured = tool.end_to_end(["cli-demo", "sweep-dense"])
    line = {"environment": 'environment {"python": "3.11.7", "seed": 1}',
            "result": CANNED.splitlines()[-1]}
    assert captured == {"cli-demo": line, "sweep-dense": line}
    assert calls == [
        ([*COMMAND, "--workload", name, "--seed", "1", "--seconds", "10", "--trace", "0"],
         tool.ROOT) for name in ("cli-demo", "sweep-dense")]


def test_a_failed_workload_run_stops_the_tool(monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "benchmark", lambda: {"command": COMMAND})
    monkeypatch.setattr(tool.subprocess, "run",
                        lambda argv, **kwargs: subprocess.CompletedProcess(argv, 1, "", "boom"))
    with pytest.raises(SystemExit, match="exited 1:\nboom"):
        tool.end_to_end(["cli-demo"])
