"""A seeded sweep of state builds, and the script that compares two trees on it.

Each family draws ``COUNT`` cases from its own fixed seed in ``SEEDS``:

* ``products``: ``make_coherent(alpha, beta, Truncation(nmax))`` with mean
  phonon number 10^U(-8, log10 3e3), split between the modes at a uniform
  fraction, each amplitude at a uniform phase, and nmax uniform in 0..119;
* ``cats``: ``make_cat(alpha, parity, mode, Truncation(nmax))`` with
  |alpha| = 10^U(-12, log10 40) at a uniform phase, either parity and
  either mode, and nmax uniform in 0..119.

Each case lands in one outcome: ``built``, with the sha256 of ``amps``,
``tail_mass`` and ``flagged``; ``refused``, with the ValueError's message;
or ``warned``, with the message of the first warning, which the build
treats as an error.  Every number in a message is replaced by ``#``.  A
sweep runs in a child process, with BLAS pinned to one thread, on the
package in the source tree it is given.  Print each family's outcome
counts for this tree with

    python tests/tools/state_sweep.py

and compare this tree with another, such as a ``git archive`` of the
parent commit, with

    python tests/tools/state_sweep.py --compare OTHER/src

which runs both trees and prints, per family, how many cases stayed
identical, moved (with the largest move of ``tail_mass``), are newly
refused (or warned) and newly build, then one line for each case that did
not stay identical.  It writes nothing.  The Fock, random-state and
readout families are not swept yet.  The file is not named ``test_*.py``,
so the test suite does not collect it.
"""

import argparse
import cmath
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = {"products": 4301, "cats": 4302}
COUNT = 3000  # cases per family
NMAX_TOP = 119
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b")


def cases(family: str, count: int) -> list[tuple]:
    """The ``count`` seeded argument tuples of ``family``, nmax last."""
    rng = random.Random(SEEDS[family])
    out = []
    for _ in range(count):
        if family == "products":
            mean, share = 10.0 ** rng.uniform(-8.0, math.log10(3e3)), rng.random()
            alpha = cmath.rect(math.sqrt(share * mean), rng.uniform(0.0, 2 * math.pi))
            beta = cmath.rect(math.sqrt((1.0 - share) * mean), rng.uniform(0.0, 2 * math.pi))
            out.append((alpha, beta, rng.randint(0, NMAX_TOP)))
        else:
            r = 10.0 ** rng.uniform(-12.0, math.log10(40.0))
            alpha = cmath.rect(r, rng.uniform(0.0, 2 * math.pi))
            out.append((alpha, rng.choice(("even", "odd")), rng.choice(("c", "r")),
                        rng.randint(0, NMAX_TOP)))
    return out


def outcome(build) -> dict:
    """The outcome of one call of ``build``, which returns a state."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = build()
        except ValueError as e:
            return {"outcome": "refused", "message": _NUMBER.sub("#", str(e))}
        except Warning as w:
            return {"outcome": "warned", "message": _NUMBER.sub("#", str(w))}
    return {"outcome": "built", "hash": hashlib.sha256(s.amps.tobytes()).hexdigest(),
            "tail_mass": s.tail_mass, "flagged": s.flagged}


def child(count: int) -> None:
    """One sweep of this process's package: print {family: [outcome, ...]} as JSON."""
    import phonon_optics as po

    builders = {"products": lambda a, b, n: po.make_coherent(a, b, po.Truncation(n)),
                "cats": lambda a, p, m, n: po.make_cat(a, p, m, po.Truncation(n))}
    print(json.dumps({family: [outcome(lambda: build(*case)) for case in cases(family, count)]
                      for family, build in builders.items()}))


def sweep(src: Path, count: int) -> dict:
    """{family: [outcome, ...]} of the package in ``src``, swept in a child."""
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(_BLAS_THREADS, "1")}
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(count)]
    done = subprocess.run(argv, env=env, cwd=src, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"the sweep of {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(other: Path, count: int = COUNT) -> dict:
    """Per family, the cases of this tree against ``other``: the counts of
    identical, moved, newly refused and newly built ones, the largest move
    of ``tail_mass`` between two builds, and each case that changed with
    its two outcomes."""
    new, old = sweep(ROOT / "src", count), sweep(other, count)
    report = {}
    for family in SEEDS:
        counts = dict.fromkeys(("identical", "moved", "newly_refused", "newly_built"), 0)
        largest, changed = 0.0, []
        for case, a, b in zip(cases(family, count), new[family], old[family]):
            if a == b:
                counts["identical"] += 1
                continue
            built = (a["outcome"] == "built", b["outcome"] == "built")
            kind = {(True, False): "newly_built", (False, True): "newly_refused"}.get(built, "moved")
            counts[kind] += 1
            if all(built):
                largest = max(largest, abs(a["tail_mass"] - b["tail_mass"]))
            changed.append({"case": repr(case), "change": kind, "this": a, "other": b})
        report[family] = {"cases": count, **counts, "largest_tail_move": largest,
                          "changed": changed}
    return report


def _brief(result: dict) -> str:
    if result["outcome"] != "built":
        return f"{result['outcome']} {result['message']!r}"
    return f"tail_mass {result['tail_mass']:.3g}" + ", flagged" * result["flagged"]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="SRC", type=Path,
                        help="compare this tree with the package in SRC, case by case")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)  # a sweep's child
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return
    if args.compare is None:
        for family, results in sweep(ROOT / "src", COUNT).items():
            kinds = [r["outcome"] for r in results]
            print(f"{family}: {len(kinds)} cases, " + ", ".join(
                f"{kinds.count(k)} {k}" for k in ("built", "refused", "warned")))
        return
    for family, part in compare(args.compare.resolve()).items():
        print(f"{family}: {part['cases']} cases, {part['identical']} identical, "
              f"{part['moved']} moved (largest tail_mass move {part['largest_tail_move']:.3g}), "
              f"{part['newly_refused']} newly refused, {part['newly_built']} newly built")
        for c in part["changed"]:
            print(f"  {c['change']}: {c['case']}: {_brief(c['other'])} -> {_brief(c['this'])}")


if __name__ == "__main__":
    main()
