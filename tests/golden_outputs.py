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

and says in CHANGES.md which outputs changed and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
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


def run_case(args, files) -> dict:
    """Run one call in a fresh directory: its exit code and its outputs."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
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
        outputs = {"stdout": _record(done.stdout), "stderr": _record(done.stderr)}
        for path in sorted(work.iterdir()):
            if path.name not in inputs:
                outputs[path.name] = _record(path.read_bytes())
    return {"argv": list(args), "exit": done.returncode, "outputs": outputs}


def main() -> None:
    manifest = {name: run_case(*case) for name, case in cases().items()}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} cases to {MANIFEST}")


if __name__ == "__main__":
    main()
