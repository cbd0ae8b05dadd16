"""Per-layer timings of the package on a fixed cutoff ladder, and the script
that records and compares them.

Each rung times one layer in process, at nmax 40, 100 and 300:

* ``coherent_build``: ``make_coherent`` of a product state of mean nmax / 8;
* ``small_d``: ``operators._small_d`` drained on one beta, every block built;
* ``apply_coherent`` and ``apply_random``: one ``apply`` of the folded
  interferometer ``mz_unitary``, on that coherent state and on a seeded
  random state that weights every block;
* ``joint_bs``: one ``joint_bs_propagator`` on the coherent state with ion 1
  in a superposition;
* ``report_json``: ``number_distributions`` plus ``ReportRecord.to_json``;
* ``phase_sweep_csv``: a 1000-point ``phase_sweep`` plus ``sweep_to_csv``;
* ``reconstruct_single``: the fit of nmax + 1 weights to a trace on the
  ``default_times`` grid sized for them;
* ``jz_from_methods``: the three-way comparison at its defaults;
* ``state_json``: ``state_to_json`` and ``state_from_json``.

A pass is one child process with BLAS pinned to one thread.  It imports the
package from the source tree it is given, calls every rung once untimed,
then times each call with ``time.perf_counter``.  Record this tree with

    python tests/tools/bench.py --pr N

which writes ``BENCH_<N>.json`` at the repository root: for every rung and
nmax the median and quartiles of all its calls over the passes, and how many
calls those are, with an environment block (Python, NumPy, BLAS threads,
cores, load average, commit and the sha256 of the package source).  To
compare this tree with another, such as a ``git archive`` of the parent
commit, run

    python tests/tools/bench.py --compare OTHER/src

It runs the two trees pass by pass, the order flipped every pair, and for
each rung prints both trees' median, the median over pairs of this tree's
time divided by the other's, and the number of pairs this tree was faster.
It writes nothing.  The file is not named ``test_*.py``, so the test suite
does not collect it.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LADDER = (40, 100, 300)
REPEATS = 5  # timed calls of each rung in a pass
PASSES = 10  # passes for --pr; pairs of passes for --compare
SEED = 41
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def rungs(nmax: int) -> dict:
    """Rung name to a call of no arguments, built at cutoff ``nmax``.  Runs
    in a pass's child, where the package and NumPy are imported."""
    import math

    import numpy as np

    import phonon_optics as po
    from phonon_optics.interferometer import mz_unitary
    from phonon_optics.operators import _small_d
    from phonon_optics.seqlang import ReportRecord

    trunc = po.Truncation(nmax)
    half = math.sqrt(nmax / 16)  # |alpha|^2 = |beta|^2 = nmax / 16
    coherent = po.make_coherent(half, 1j * half, trunc)
    rng = np.random.default_rng(SEED)
    amps = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    random = po.MotionalState(trunc, amps / np.linalg.norm(amps))
    mz = mz_unitary(math.pi / 3, trunc)
    joint = po.joint_state(coherent, ion1=po.QubitState.plus())
    grid = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False).tolist()
    times = po.default_times(1.0, n_weights=nmax + 1)
    trace = po.signal(coherent, 1.0, times, "single")

    def drain():
        for _ in _small_d(0.7, nmax):
            pass

    return {
        "coherent_build": lambda: po.make_coherent(half, 1j * half, trunc),
        "small_d": drain,
        "apply_coherent": lambda: po.apply(mz, coherent),
        "apply_random": lambda: po.apply(mz, random),
        "joint_bs": lambda: po.joint_bs_propagator("u1", 0.7, joint),
        "report_json": lambda: ReportRecord(1, po.number_distributions(coherent), 0.0,
                                            0.0).to_json(),
        "phase_sweep_csv": lambda: po.sweep_to_csv(po.phase_sweep(coherent, grid)),
        "reconstruct_single": lambda: po.reconstruct_single(trace, nmax),
        "jz_from_methods": lambda: po.jz_from_methods(coherent),
        "state_json": lambda: po.state_from_json(po.state_to_json(coherent)),
    }


def child(ladder, repeats: int) -> None:
    """One pass: print {rung: {nmax: [seconds of each timed call]}} as JSON."""
    out = {}
    for nmax in ladder:
        for name, call in rungs(nmax).items():
            call()  # untimed: lazy set-up and caches
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                call()
                samples.append(time.perf_counter() - start)
            out.setdefault(name, {})[str(nmax)] = samples
    print(json.dumps(out))


def run_pass(src: Path, ladder, repeats: int) -> dict:
    """One pass in a child process on the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(_BLAS_THREADS, "1")}
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", *map(str, (repeats, *ladder))]
    done = subprocess.run(argv, env=env, cwd=src, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"a pass on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def quartiles(samples: list[float]) -> dict:
    """Median and quartiles of ``samples`` and their count."""
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "calls": len(samples)}


def source_sha256(src: Path) -> str:
    """sha256 over the names and bytes of the package's modules, in name order."""
    h = hashlib.sha256()
    for path in sorted((src / "phonon_optics").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _output(*argv) -> str:
    """The stripped stdout of a command, or "" where it cannot run."""
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def environment(src: Path) -> dict:
    """The host and the tree that a record was made on.  ``commit`` is the
    checkout's HEAD, and ``src_modified`` says whether ``src`` differs from it."""
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": _output("git", "rev-parse", "HEAD"),
        "src_modified": bool(_output("git", "status", "--porcelain", "src")),
        "src_sha256": source_sha256(src),
    }


def record(pr: int, ladder, repeats: int, passes: int, out_dir: Path = ROOT) -> Path:
    """Write ``BENCH_<pr>.json`` for this tree into ``out_dir``; return its path."""
    src = ROOT / "src"
    env = environment(src)
    runs = [run_pass(src, ladder, repeats) for _ in range(passes)]
    rung_stats = {
        name: {nmax: quartiles([t for run in runs for t in run[name][nmax]]) for nmax in by_n}
        for name, by_n in runs[0].items()
    }
    env["loadavg_after"] = list(os.getloadavg())
    doc = {"pr": pr, "ladder": list(ladder), "repeats": repeats, "passes": passes,
           "environment": env, "rungs": rung_stats}
    path = out_dir / f"BENCH_{pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def compare(other: Path, ladder, repeats: int, pairs: int) -> None:
    """Print, for each rung, both trees' medians, the median per-pair ratio
    this / other and the number of pairs this tree won."""
    trees = (ROOT / "src", other)
    medians = ([], [])  # per pass, (rung, nmax) to its median, for each tree
    for i in range(pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            run = run_pass(trees[side], ladder, repeats)
            medians[side].append({(k, n): statistics.median(t) for k, v in run.items()
                                  for n, t in v.items()})
    print(f"{pairs} pairs, {repeats} calls a pass; ratio = this tree / {other}")
    for key in medians[0][0]:
        new, old = ([m[key] for m in side] for side in medians)
        ratio = statistics.median(a / b for a, b in zip(new, old))
        won = sum(a < b for a, b in zip(new, old))
        print(f"{key[0]:>18} nmax {key[1]:>3}: {statistics.median(new) * 1e3:9.3f} ms vs "
              f"{statistics.median(old) * 1e3:9.3f} ms, ratio {ratio:.3f}, won {won}/{pairs}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pr", type=int, help="write BENCH_<PR>.json for this tree")
    mode.add_argument("--compare", metavar="SRC", type=Path,
                      help="time this tree against the package in SRC, pass by pass")
    # one pass, run by run_pass in a child: the repeats, then the ladder
    mode.add_argument("--child", type=int, nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[1:], args.child[0])
    elif args.compare is not None:
        compare(args.compare.resolve(), LADDER, REPEATS, PASSES)
    else:
        print(f"wrote {record(args.pr, LADDER, REPEATS, PASSES)}")


if __name__ == "__main__":
    main()
