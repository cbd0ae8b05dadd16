"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload once at a tiny cutoff, untraced and traced, and checks
that every metric named in BENCHMARK.json is emitted with its unit and that
every call passed its closed-form check.  It then perturbs each expected
value by a relative 1e-6 and checks that every call fails its check, and
that the harness exits non-zero, printing no result, in a tree without the
package sources.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
import workloads


def perturbed(expect):
    """The same expectation with a wrong expected value."""
    if isinstance(expect, workloads.DetectExpect):
        return replace(expect, jz=expect.jz + 1e-6 * (1.0 + abs(expect.jz)))
    m = expect.modes
    return replace(expect, modes=replace(m, a=m.a * (1 + 1e-6) + 1e-6, b=m.b * (1 - 1e-6)))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(workloads.NAMES):
        problems.append(f"BENCHMARK.json workloads {names} != harness {workloads.NAMES}")

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        emitted = run.units(trace)
        for name in names:
            res = run.measure(name, seed=0, seconds=0, trace=trace, size="tiny")
            got = set(res["metrics"])
            if got != set(want):
                problems.append(f"{name} trace={trace}: missing {sorted(set(want) - got)}, "
                                f"unexpected {sorted(got - set(want))}")
            problems += [f"{name}: unit of {k} is {emitted.get(k)!r}, BENCHMARK.json says {u!r}"
                         for k, u in want.items() if emitted.get(k) != u]
            problems += [f"{name} trace={trace}: {f}" for f in res["failures"]]
            print(f"ok {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{res['attempted']} calls checked")

    for name in names:
        ops = [replace(op, expect=perturbed(op.expect)) for op in workloads.build(name, 0, "tiny")]
        res = run.measure(name, seed=0, seconds=0, trace=False, ops=ops)
        if res["failed"] != res["attempted"]:
            problems.append(f"{name}: only {res['failed']} of {res['attempted']} calls "
                            "failed with wrong expected values")
        print(f"ok {name}: {res['failed']} of {res['attempted']} calls tripped on wrong values")

    bare = run.WORK.parent / ".perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        r = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", names[0],
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    if r.returncode == 0 or r.stdout.strip():
        problems.append(f"bare tree: exit {r.returncode}, stdout {r.stdout!r}")
    print(f"ok bare tree: exit {r.returncode}, {r.stderr.strip()}")

    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
