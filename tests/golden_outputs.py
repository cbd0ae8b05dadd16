"""Golden outputs of the benchmark's CLI calls, and the script that records them.

Each case is one call of ``perfbench/workloads.py``, built by its ``build``
(so no workload is copied here) and run as a ``python -m phonon_optics.cli``
child with BLAS pinned to one thread:

* the six ``cli-demo`` calls;
* the seed-1 ``large-cutoff`` call, in ``--format json`` and in ``--format csv``;
* the seed-1 ``sweep-dense`` call.

A case records its exit code and, for stdout, stderr and every file the call
wrote, the sha256 and, when the output is at most ``TEXT_LIMIT`` bytes, its
text.  ``tests/test_golden_outputs.py`` reruns every case against the
manifest.  A change that moves an output on purpose records it again with

    PYTHONPATH=src python tests/golden_outputs.py

and says in CHANGES.md which outputs changed and why.  To measure those
moves against another source tree, such as a ``git archive`` of the parent
commit, run

    PYTHONPATH=src python tests/golden_outputs.py --compare OTHER/src

It runs every case in both trees and, for each output that differs, prints
the largest move of a numeric token in ulp and as a relative error.  It
writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_manifest.json")
WORKLOADS = ROOT / "perfbench" / "workloads.py"
TEXT_LIMIT = 4096
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def cases() -> dict[str, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]]:
    """Case name to (argv, input files) of every recorded call."""
    build = _workloads().build
    out = {}
    for i, op in enumerate(build("cli-demo", 1)):
        out[f"cli-demo/{i}-{op.args[0]}"] = (op.args, op.files)
    (op,) = build("large-cutoff", 1)
    for fmt in ("json", "csv"):
        args = op.args[:op.args.index("--format") + 1] + (fmt,)
        out[f"large-cutoff/seed-1-{fmt}"] = (args, op.files)
    (op,) = build("sweep-dense", 1)
    out["sweep-dense/seed-1"] = (op.args, op.files)
    return out


def _record(data: bytes) -> dict:
    rec = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if len(data) <= TEXT_LIMIT:
        rec["text"] = data.decode("utf-8")
    return rec


def _call(args, files, src: Path) -> tuple[int, dict[str, bytes]]:
    """Run one call against the package in ``src``, in a fresh directory:
    its exit code and the bytes of stdout, stderr and every file it wrote."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.update(dict.fromkeys(_BLAS_THREADS, "1"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in files:
            (work / name).write_text(text, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "phonon_optics.cli", *args],
            cwd=work, env=env, capture_output=True, timeout=300,
        )
        inputs = {name for name, _ in files}
        outputs = {"stdout": done.stdout, "stderr": done.stderr}
        for path in sorted(work.iterdir()):
            if path.name not in inputs:
                outputs[path.name] = path.read_bytes()
    return done.returncode, outputs


def run_case(args, files) -> dict:
    """Run one call in a fresh directory: its exit code and its outputs."""
    code, outputs = _call(args, files, ROOT / "src")
    records = {name: _record(data) for name, data in outputs.items()}
    return {"argv": list(args), "exit": code, "outputs": records}


# a decimal number as the package writes one: integer, fixed or exponent form
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def moves(old: str, new: str) -> dict | None:
    """How far the numeric tokens of ``new`` moved from those of ``old``.

    None where the texts are equal.  Otherwise ``moved`` counts the tokens
    that changed, and the largest move is given as ``abs``, as ``ulp`` (of the
    larger of the two values) and as ``rel`` (of the larger magnitude).  Where
    the text between the numbers changed too, ``text_changed`` is True and
    only the tokens up to the first change are compared.
    """
    if old == new:
        return None
    a, b = _NUMBER.split(old), _NUMBER.split(new)
    out = {"moved": 0, "abs": 0.0, "ulp": 0.0, "rel": 0.0, "text_changed": False}
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0:  # the text between two numbers
            if x != y:
                out["text_changed"] = True
                break
            continue
        u, v = float(x), float(y)
        if u == v:
            continue
        out["moved"] += 1
        top = max(abs(u), abs(v))
        out["abs"] = max(out["abs"], abs(u - v))
        out["ulp"] = max(out["ulp"], abs(u - v) / math.ulp(top))
        out["rel"] = max(out["rel"], abs(u - v) / top)
    out["text_changed"] |= len(a) != len(b)
    return out


def compare(other_src: Path) -> None:
    """Print, for each output that differs between this tree's ``src`` and
    ``other_src``, how far its numbers moved; write nothing."""
    for name, (args, files) in cases().items():
        old_code, old = _call(args, files, other_src)
        new_code, new = _call(args, files, ROOT / "src")
        if old_code != new_code:
            print(f"{name}: exit {old_code} -> {new_code}")
        for output in sorted(old.keys() | new.keys()):
            if output not in old or output not in new:
                print(f"{name}: {output} only in {'this tree' if output in new else other_src}")
                continue
            move = moves(old[output].decode("utf-8"), new[output].decode("utf-8"))
            if move is not None:
                print(f"{name}: {output}: {move['moved']} numbers moved, largest "
                      f"{move['abs']:.3g} absolute, {move['ulp']:.3g} ulp, {move['rel']:.3g} "
                      f"relative" + ("; the text around them changed" * move["text_changed"]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", metavar="SRC", type=Path,
                        help="measure each output's moves against the package in SRC")
    other = parser.parse_args().compare
    if other is not None:
        compare(other.resolve())
        return
    manifest = {name: run_case(*case) for name, case in cases().items()}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} cases to {MANIFEST}")


if __name__ == "__main__":
    main()
