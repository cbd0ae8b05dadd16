"""Every benchmark call still prints and writes what the manifest recorded.

``golden_outputs.py`` records, for the calls ``perfbench/workloads.py``
builds, the exit code and the sha256 (and the text of the small ones) of
stdout, stderr and every artifact.  Each case reruns one call as a program
and names the first output that moved.
"""

import json

import pytest

from golden_outputs import MANIFEST, cases, moves, run_case

GOLDEN = json.loads(MANIFEST.read_text(encoding="utf-8"))
CASES = cases()


def test_manifest_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    want = GOLDEN[name]
    got = run_case(*CASES[name])
    assert got["argv"] == want["argv"], f"{name}: the workload builds a different call"
    assert got["exit"] == want["exit"], f"{name}: exit code changed"
    assert sorted(got["outputs"]) == sorted(want["outputs"]), f"{name}: the set of outputs changed"
    for output, rec in want["outputs"].items():
        new = got["outputs"][output]
        if new["sha256"] != rec["sha256"]:
            if "text" in rec and "text" in new:  # a readable diff of a small output
                assert new["text"] == rec["text"], f"{name}: {output} changed"
            pytest.fail(f"{name}: {output} changed ({rec['bytes']} -> {new['bytes']} bytes)")


def test_moves_measures_each_numeric_token_in_ulp():
    assert moves("jz=0.5 n=3\n", "jz=0.5 n=3\n") is None
    got = moves("jz=1 a=2.5e-3,x\n", "jz=1.0000000000000002 a=0.0025,x\n")
    assert got == {"moved": 1, "abs": 2.220446049250313e-16, "ulp": 1.0,
                   "rel": 2.220446049250313e-16 / 1.0000000000000002, "text_changed": False}
    assert moves("p=[0.25, 0.75]", "p=[0.25, 0.5, 0.25]")["text_changed"]
    assert moves("dominant k=1", "dominant m=1")["text_changed"]
