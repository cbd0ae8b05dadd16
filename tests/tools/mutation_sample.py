"""A seeded sample of single-edit mutants of the package, run against its tests.

Each mutant makes one edit to one module of ``src/phonon_optics``:

* ``compare``: flip one comparison (``<`` to ``>=``, ``==`` to ``!=``,
  ``is`` to ``is not``, ``in`` to ``not in``, and back);
* ``binop``: swap ``+`` and ``-``, or ``*`` and ``/``;
* ``constant``: add 1 to an int or float literal (a literal that 1 does not
  move, such as 1e308, is no site);
* ``raise-if``: make the test of an ``if`` whose body raises ``False``.

The sites are listed in a fixed order, and seed ``SEED`` draws ``COUNT``
of them.  The unmutated copy runs first, on the test files of the drawn
modules and then on all of ``tests/`` but ``KEYS_TEST``; where either
fails, the tool prints why and exits 1 before any mutant runs, since a
test that fails in every copy would count each mutant as killed.  Each
mutant runs in a temporary copy of the repository, first on
the test files that ``TESTS`` maps its module to, with ``-x``; a mutant that
survives them runs again on all of ``tests/`` but ``KEYS_TEST``.  A mutant
is killed when a test fails or a run passes ``TIMEOUT_S`` seconds.  As many
mutants run at once as the process has cores.  A survivor listed in
``EQUIVALENT`` changes no behaviour and is counted apart; every other
survivor is a missing test or code that pays for nothing.  ``KEYS_TEST``
holds every ``EQUIVALENT`` key to a live site; a mutant renames the site it
edits, so that test would kill every listed mutant.  Run it with

    python tests/tools/mutation_sample.py

and add ``--module detection`` to draw from one module only.  The file is
not named ``test_*.py``, so the test suite does not collect it.
"""

import argparse
import ast
import copy
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "phonon_optics"
COPIED = ("src", "tests", "perfbench", "demos", "README.md", "pyproject.toml")
SEED = 1
COUNT = 60
TIMEOUT_S = 300.0  # per test run
KEYS_TEST = "tests/test_mutation_sample.py"  # left out of every mutant's full run
FULL = ("tests", f"--ignore={KEYS_TEST}")  # the full run's pytest arguments

# the test files that exercise each module first
TESTS = {
    "cli": ("test_cli.py", "test_cli_properties.py", "test_readme.py"),
    "detection": ("test_detection.py", "test_detection_properties.py",
                  "test_direct_properties.py", "test_acceptance.py"),
    "fockspace": ("test_fockspace.py", "test_fockspace_properties.py", "test_records.py",
                  "test_hostile_values.py"),
    "interferometer": ("test_interferometer.py", "test_interferometer_properties.py"),
    "operators": ("test_operators.py", "test_operators_properties.py"),
    "recipes": ("test_recipes.py",),
    "seqlang": ("test_seqlang.py", "test_seqlang_properties.py"),
}

# survivors that change no behaviour: site key to the reason
EQUIVALENT = {
    "detection.: constant `32` -> `33`":
        "_SIGNAL_CHUNK only sets how many sample rows each slice of the probe table holds; "
        "every row's product with p is the same",
    "detection.default_times: constant `0` -> `1`":
        "a default of 1 weight and of 0 weights both give top = 0: the same 256-sample grid",
    "detection.default_times: constant `0` -> `1` #2":
        "clamping top at 1 instead of 0 moves only 0 or 1 weights, and top 1 also gives "
        "4 span / pi = 32 samples, below the 256 of the fixed grid, at the same span",
    "fockspace._int_text: constant `0` -> `1`":
        "the sign test runs only for integers beyond str()'s 4300 digits, never on 0",
    "fockspace._coherent_mode_amps: constant `1` -> `2`":
        "the vacuum's one extra zero entry, at k = n_max + 1, is never indexed: the caller "
        "reads k <= n_total_max",
    "fockspace._poisson_tails: constant `0.0` -> `1.0`":
        "the appended P(N > top) entry is never read: truncation_for_coherent stops at "
        "a tail under COHERENT_TAIL_TARGET long before top, 40 standard deviations past "
        "the mean, and coherent_superposition reads the entry at n_total_max, 100 below top",
    "fockspace.coherent_superposition: constant `1.0` -> `2.0`":
        "`scale or 1.0` divides by it only when every weight is 0, and 0 / 2 is 0",
    "fockspace.coherent_superposition: constant `1.0` -> `2.0` #4":
        "ldexp(2.0, k) is 2**(k + 1), another power of two that keeps a subnormal sum of "
        "kept probabilities normal, so vec / sqrt(retained) is the same state",
    "fockspace.coherent_superposition: constant `2` -> `3` #2":
        "a third of the exponent lifts a subnormal sum to about 2**-340 in place of 1, still "
        "normal and far from overflow, so vec / sqrt(retained) is the same state",
    "fockspace.make_coherent: constant `1.0` -> `2.0`":
        "coherent_superposition divides every weight by the largest, so one weight of 2 is 1",
    "fockspace.truncation_for_coherent: constant `0` -> `1` #2":
        "_poisson_tails(lam, 1) reaches one term further than (lam, 0) only where "
        "lam + 40 sqrt(lam) < 1, and that pmf term, lam**101 / 101!, underflows to 0",
    "fockspace.JointState.reduced_qubit: constant `1` -> `2`":
        "NumPy reads any negative reshape length, -2 as well as -1, as the one inferred length",
    "fockspace.JointState.motional_fidelity: constant `1` -> `2`":
        "NumPy reads any negative reshape length, -2 as well as -1, as the one inferred length",
    "operators._small_d: constant `1` -> `2`":
        "the one extra root, sqrt(n_total_max + 1), is never read: block N reads roots 1..N",
    "operators._apply_passive: constant `1` -> `2` #5":
        "NumPy reads any negative reshape length, -2 as well as -1, as the one inferred length",
    "operators._apply_passive: constant `1` -> `2` #9":
        "NumPy reads any negative reshape length, -2 as well as -1, as the one inferred length",
    "seqlang.Angle: constant `1` -> `2`":
        "a decimal angle's pi_den is never read: __str__ reads it only beside a pi_num",
}

_FLIPS = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
          ast.In: ast.NotIn, ast.NotIn: ast.In}
_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}


def _literal(node) -> bool:
    """A number literal that adding 1 moves."""
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value + 1 != node.value)


def _sites(tree):
    """(scope, kind, node, index) of every site, in a fixed walk order."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Compare):
                yield from ((inner, "compare", child, i) for i, op in enumerate(child.ops)
                            if type(op) in _FLIPS)
            elif isinstance(child, ast.BinOp) and type(child.op) in _SWAPS:
                yield inner, "binop", child, 0
            elif _literal(child):
                yield inner, "constant", child, 0
            elif isinstance(child, ast.If) and any(isinstance(s, ast.Raise) for s in child.body):
                yield inner, "raise-if", child, 0
            yield from walk(child, inner)
    return list(walk(tree, ""))


def _mutate(kind, node, index) -> tuple[str, str]:
    """Edit ``node`` in place; return its source before and after."""
    part = node.test if kind == "raise-if" else node
    before = ast.unparse(part)
    if kind == "compare":
        node.ops[index] = _FLIPS[type(node.ops[index])]()
    elif kind == "binop":
        node.op = _SWAPS[type(node.op)]()
    elif kind == "constant":
        node.value += 1
    else:
        node.test = ast.Constant(False)
    return before, ast.unparse(node.test if kind == "raise-if" else node)


def all_sites(modules):
    """(module, site number in that module, key) of every site."""
    out, seen = [], {}
    for module in modules:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for number, (scope, kind, node, index) in enumerate(_sites(tree)):
            before, after = _mutate(kind, copy.deepcopy(node), index)
            key = f"{module}.{scope}: {kind} `{before}` -> `{after}`"
            seen[key] = seen.get(key, 0) + 1
            out.append((module, number, key if seen[key] == 1 else f"{key} #{seen[key]}"))
    return out


def _copy(root: Path) -> Path:
    """Copy ``COPIED`` from the repository into ``root``; return ``root``."""
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, root / name)
    return root


def _pytest(root: Path, files) -> str:
    """"" when the tests pass in ``root``; else why not, the end of pytest's
    output or the timeout, which counts as a failure."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    try:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S:g} s"
    return "" if done.returncode == 0 else "\n".join(done.stdout.splitlines()[-15:])


def run_mutant(module, number) -> str:
    """'killed' or 'survived', for site ``number`` of ``module``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = _copy(Path(tmp))
        path = root / "src" / "phonon_optics" / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _mutate(*_sites(tree)[number][1:])
        path.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
        files = [f"tests/{name}" for name in TESTS[module]]
        return "killed" if _pytest(root, files) or _pytest(root, FULL) else "survived"


def unmutated_failure(modules) -> str:
    """"" when the unmutated copy passes the test files of ``modules`` and
    then the full suite; else which run failed and why."""
    files = sorted({f"tests/{name}" for module in modules for name in TESTS[module]})
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        root = _copy(Path(tmp))
        for run in (files, FULL):
            why = _pytest(root, run)
            if why:
                return f"pytest {' '.join(run)}:\n{why}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", action="append", choices=sorted(TESTS),
                        help="draw from this module only (repeatable; default all)")
    args = parser.parse_args(argv)

    modules = args.module or sorted(TESTS)
    why = unmutated_failure(modules)
    if why:
        print(f"the unmutated copy fails, so no mutant can be judged: {why}")
        return 1
    sites = all_sites(modules)
    drawn = sorted(random.Random(SEED).sample(sites, min(COUNT, len(sites))))
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        outcomes = list(pool.map(lambda s: run_mutant(s[0], s[1]), drawn))
    killed = equivalent = 0
    for (_, _, key), outcome in zip(drawn, outcomes):
        if outcome == "killed":
            killed += 1
            continue
        if key in EQUIVALENT:
            equivalent += 1
            print(f"equivalent: {key} ({EQUIVALENT[key]})")
        else:
            print(f"survived: {key}")
    print(f"{len(drawn)} drawn from {len(sites)} sites, {killed} killed, "
          f"{equivalent} equivalent, {len(drawn) - killed - equivalent} survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
