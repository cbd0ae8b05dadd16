"""Benchmark of the phonon-optics command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/phonon_optics`` must exist).
Every operation is a fresh ``python -m phonon_optics.cli`` child, issued in
a closed loop by one client, so at most one child runs at a time.  BLAS
threads of every child are pinned to 1.  After the set-up measurements the
run repeats passes over the workload's operation list for about
``--seconds`` (at least one pass), and checks every call's output against
closed forms (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, where each child is ``trace_child.py``
and records spans around the functions in ``layers.WRAPPED``, and reports
the per-layer metrics of ``layers.PER_LAYER``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# Pin BLAS before numpy loads here too, so idle harness threads cannot
# compete with the measured child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s", "median wall time of a fresh interpreter importing phonon_optics.cli"),
    ("wall_s", "s", "median wall time of one pass over the operation list"),
    ("peak_rss_mb", "MB", "peak resident memory of the largest CLI child"),
)


def child_env() -> dict:
    """The caller's environment without its PYTHON* settings, such as
    PYTHONDONTWRITEBYTECODE, so children run alike wherever the harness runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    returncode: int
    started: float  # perf_counter just before the spawn
    ended: float  # perf_counter just after the reap
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def spawn(argv, cwd: Path, stdout_path: Path, stderr_path: Path, env: dict) -> Child:
    """Run one child to completion; its peak RSS comes from its own rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, t0, t1, usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# set-up measurements
# ---------------------------------------------------------------------------


def time_import(env: dict, repeats: int) -> list[float]:
    """Wall times of fresh interpreters running ``import phonon_optics.cli``."""
    out_dir = WORK / "setup"
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-c", "import phonon_optics.cli"]
    times = []
    for _ in range(repeats):
        child = spawn(argv, out_dir, out_dir / "out", out_dir / "err", env)
        if child.returncode != 0:
            raise RuntimeError("import phonon_optics.cli failed: "
                               + (out_dir / "err").read_text(errors="replace"))
        times.append(child.wall_s)
    return times


def parse_importtime(text: str) -> dict[str, float]:
    """import.* metrics from ``python -X importtime`` stderr."""
    self_us, cum_us, depth = {}, {}, {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        s, c, name = line[len("import time:"):].split("|")
        key = name.strip()
        self_us.setdefault(key, int(s))
        cum_us.setdefault(key, int(c))
        depth.setdefault(key, (len(name) - len(name.lstrip()) - 1) // 2)
    top = [k for k in ("phonon_optics", "phonon_optics.cli") if depth.get(k) == 0]
    own = sum(v for k, v in self_us.items() if k.split(".")[0] == "phonon_optics")
    return {
        "import.total_s": sum(cum_us[k] for k in top) * 1e-6,
        "import.numpy_s": cum_us.get("numpy", 0) * 1e-6,
        "import.scipy_linalg_s": cum_us.get("scipy.linalg", 0) * 1e-6,
        "import.scipy_optimize_s": cum_us.get("scipy.optimize", 0) * 1e-6,
        "import.phonon_optics_s": own * 1e-6,
    }


def import_breakdown(env: dict, repeats: int) -> dict[str, float]:
    out_dir = WORK / "importtime"
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-X", "importtime", "-c", "import phonon_optics.cli"]
    samples = defaultdict(list)
    for _ in range(repeats):
        child = spawn(argv, out_dir, out_dir / "out", out_dir / "err", env)
        text = (out_dir / "err").read_text(encoding="utf-8", errors="replace")
        if child.returncode != 0:
            raise RuntimeError("-X importtime child failed: " + text[-2000:])
        for k, v in parse_importtime(text).items():
            samples[k].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def environment(env: dict, seed: int) -> dict:
    """Versions, BLAS build and machine state.  The probe child imports the
    package too, which fills the bytecode cache before set-up is timed."""
    probe = (
        "import json, platform, numpy, scipy, phonon_optics.cli\n"
        "blas = numpy.__config__.CONFIG.get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': blas.get('openblas configuration')"
        " or blas.get('name')}))\n"
    )
    info = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                     capture_output=True, text=True, timeout=60).stdout)
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    info.update(
        blas_threads=int(os.environ["OPENBLAS_NUM_THREADS"]),
        nproc=len(os.sched_getaffinity(0)),
        loadavg_start=os.getloadavg(),
        commit=commit,
        source_sha256=digest.hexdigest(),
        seed=seed,
    )
    return info


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    op: workloads.Op
    child: Child
    errors: list
    bytes_written: int
    spans: dict | None


def run_pass(ops, env: dict, traced: bool) -> tuple[float, list[OpResult]]:
    """One pass over the operation list; outputs are checked after timing."""
    dirs = []
    children = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        op_dir = WORK / f"op{i}"
        op_dir.mkdir(parents=True)
        for name, text in op.files:
            (op_dir / name).write_text(text, encoding="utf-8")
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(op_dir / "spans.json")]
        else:
            argv = [sys.executable, "-m", "phonon_optics.cli"]
        children.append(spawn(argv + list(op.args), op_dir, op_dir / "stdout", op_dir / "stderr", env))
        dirs.append(op_dir)
    wall = time.perf_counter() - t0

    results = []
    for op, op_dir, child in zip(ops, dirs, children):
        spans_file = op_dir / "spans.json"
        spans = None
        if traced and spans_file.exists():
            body, t_end = spans_file.read_text(encoding="utf-8").splitlines()
            spans = json.loads(body)
            spans["t_end"] = json.loads(t_end)
            spans_file.unlink()
        inputs = {name for name, _ in op.files} | {"stderr"}
        written = sum(p.stat().st_size for p in op_dir.iterdir() if p.name not in inputs)
        stdout = (op_dir / "stdout").read_text(encoding="utf-8", errors="replace")
        if child.returncode != 0:
            tail = (op_dir / "stderr").read_text(errors="replace")[-500:]
            errors = [f"exit code {child.returncode}: {tail.strip()}"]
        else:
            try:
                errors = op.expect.errors(op_dir, stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        results.append(OpResult(op, child, errors, written, spans))
        shutil.rmtree(op_dir)
    return wall, results


def span_totals(spans: dict) -> tuple[dict, float]:
    """Per-name calls, self time and computed counts; plus the sum of self times."""
    recs = spans["spans"]
    child_time = [0.0] * len(recs)
    for name, start, end, parent, count in recs:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0})
    covered = 0.0
    for i, (name, start, end, parent, count) in enumerate(recs):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        t["count"] += count
        covered += (end - start) - child_time[i]
    return totals, covered


_COUNT_FIELD = {"cubic_ops": "count", "block_bytes": "count", "calls": "calls", "self_s": "self_s"}


def layer_values(results: list[OpResult]) -> dict[str, float]:
    """Per-layer values of one traced pass (summed over its operations)."""
    merged = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0})
    startup = exit_ = covered = wall = 0.0
    for r in results:
        if r.spans is None:
            continue
        totals, cov = span_totals(r.spans)
        for name, t in totals.items():
            for k in t:
                merged[name][k] += t[k]
        startup += r.spans["t_start"] - r.child.started
        exit_ += r.child.ended - r.spans["t_end"]
        covered += cov + r.spans["import_s"]
        wall += r.child.wall_s
    values = {"process.startup_s": startup, "process.exit_s": exit_,
              "cli.bytes_written": float(sum(r.bytes_written for r in results)),
              "trace.coverage": (startup + covered + exit_) / wall if wall > 0 else 0.0}
    for metric, *_ in layers.PER_LAYER:
        if metric in values or metric.startswith(("import.", "trace.", "process.")):
            continue
        span, field = metric.rsplit(".", 1)
        values[metric] = float(merged[span][_COUNT_FIELD[field]])
    return values


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            ops=None) -> dict:
    """Run one benchmark and return its result (see module docstring)."""
    if not (SRC / "phonon_optics" / "cli.py").is_file():
        raise FileNotFoundError(f"no phonon_optics sources under {SRC}")
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        info = environment(env, seed)
        ops = workloads.build(workload, seed, size) if ops is None else ops
        metrics: dict[str, float] = {}
        if trace:
            metrics.update(import_breakdown(env, IMPORTTIME_REPEATS))
        else:
            metrics["setup_s"] = statistics.median(time_import(env, SETUP_REPEATS))

        # Passes run back to back until the next one would end past the
        # deadline; a traced run alternates plain and traced passes and has
        # at least one of each.
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            use_trace = trace and len(traced) < len(plain)
            (traced if use_trace else plain).append(run_pass(ops, env, use_trace))
            if trace and not traced:
                continue
            next_kind = traced if trace and len(traced) < len(plain) else plain
            expected = statistics.median(w for w, _ in next_kind)
            if time.perf_counter() + expected > deadline:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    every = [r for _, results in plain + traced for r in results]
    failures = [f"{r.op.kind} {' '.join(r.op.args)}: {e}" for r in every for e in r.errors]
    failed = sum(1 for r in every if r.errors)
    if trace:
        per_pass = [layer_values(results) for _, results in traced]
        for metric in per_pass[0]:
            metrics[metric] = statistics.median(p[metric] for p in per_pass)
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                      - statistics.median(w for w, _ in plain))
    else:
        metrics["wall_s"] = statistics.median(w for w, _ in plain)
        metrics["peak_rss_mb"] = max(r.child.maxrss_mb for r in every)
    return {
        "environment": info,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "per_subcommand": _per_subcommand(every),
        "attempted": len(every),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }


def _per_subcommand(results):
    """Call count and median wall time of each subcommand (run_s, sweep_s, detect_s)."""
    by_kind = defaultdict(list)
    for r in results:
        by_kind[r.op.kind].append(r.child.wall_s)
    return {k: {"calls": len(v), "median_s": statistics.median(v)}
            for k, v in sorted(by_kind.items())}


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, *_ in layers.PER_LAYER}
    return {name: unit for name, unit, _ in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    unit = units(bool(args.trace))
    print(f"workload {args.workload} ({workloads.WHY[args.workload]})")
    print("environment " + json.dumps(res["environment"]))
    print(f"passes {json.dumps(res['passes'])}; per subcommand {json.dumps(res['per_subcommand'])}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} calls)")
    for line in res["failures"][:20]:
        print("FAILED " + line)
    for name, value in res["metrics"].items():
        print(f"{name} {value:.6g} {unit[name]}")
    correct = res["failed"] == 0
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in res["metrics"].items()} if correct else {}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
