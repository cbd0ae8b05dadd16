"""The seeded state sweep of ``tests/tools/state_sweep.py`` runs and reports.

The tool is loaded by path and compares this tree with itself on five
cases a family, so it cannot rot between the changes that cite it."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent / "tools" / "state_sweep.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("state_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_tree_compared_with_itself_stays_identical_case_by_case():
    tool = load_tool()
    report = tool.compare(tool.ROOT / "src", count=5)
    assert set(report) == {"products", "cats"}
    for part in report.values():
        assert set(part) == {"cases", "identical", "moved", "newly_refused", "newly_built",
                             "largest_tail_move", "changed"}
        assert (part["cases"], part["identical"], part["changed"]) == (5, 5, [])
    results = tool.sweep(tool.ROOT / "src", 5)
    for result in (r for rs in results.values() for r in rs):
        keys = {"built": {"outcome", "hash", "tail_mass", "flagged"},
                "refused": {"outcome", "message"}, "warned": {"outcome", "message"}}
        assert set(result) == keys[result["outcome"]]
