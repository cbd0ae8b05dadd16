"""The per-layer ladder of ``tests/tools/bench.py`` runs and writes its record.

The tool is loaded by path and records one pass at nmax 4, with one timed
call of each rung, so it cannot rot between the changes that record a ladder."""

import importlib.util
import json
from pathlib import Path

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
    path = load_tool().record(0, (4,), repeats=1, passes=1, out_dir=tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == "BENCH_0.json"
    assert set(doc) == {"pr", "ladder", "repeats", "passes", "environment", "rungs"}
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
