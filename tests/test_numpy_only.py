"""The package needs NumPy only and ships only what a program runs.

No module imports SciPy, and the dense test oracles of ``tests/oracles.py``
(the Fock matrices, the qubit operators, ``expm_oracle``, ``as_matrix``,
the 2x2 probe rotation and the dense unitarity defect) live there alone:
no package module defines them and the package exports none of them.
``expm_oracle`` runs with SciPy unavailable.  SciPy stays a test
dependency, as the oracle of the nonnegative least squares.  The weight
floor has one home, ``fockspace``, and so do the readers of a number or
label argument; ``detection`` reads nothing from ``operators``.  Only
``JointState`` knows where an ion's register lives: no code outside that
class calls ``moveaxis`` or ``axis_of``."""

import ast
import re
import sys
from pathlib import Path

import numpy as np

import phonon_optics
from phonon_optics import Truncation, beam_splitter
from oracles import as_matrix, dense_jy, expm_oracle

PACKAGE = Path(phonon_optics.__file__).parent


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, [node.module]


def defined_names(tree):
    """Every function, class, method and assigned name a module defines."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id


def is_oracle(name):
    bare = name.lstrip("_")
    # the dense defect goes by its private name: JcmUnitary.unitarity_defect
    # is the package's closed form
    return (bare.startswith(("dense_", "SIGMA_"))
            or bare in ("expm_oracle", "as_matrix", "DEFAULT_ORACLE_CAP", "rabi_rotation")
            or name == "_unitarity_defect")


def package_trees():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 8
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def test_no_package_module_imports_scipy():
    found = [
        f"{path.name}:{lineno}"
        for path, tree in package_trees()
        for lineno, names in imported_modules(tree)
        if any(name.split(".")[0] == "scipy" for name in names)
    ]
    assert found == []


def test_the_dense_oracles_live_in_the_tests_alone():
    found = [
        f"{path.name}:{lineno} {name}"
        for path, tree in package_trees()
        for lineno, name in defined_names(tree)
        if is_oracle(name)
    ]
    assert found == []
    assert [name for name in dir(phonon_optics) if is_oracle(name)] == []
    # the walk does see what it looks for
    oracles = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    assert sum(is_oracle(name) for _, name in defined_names(oracles)) == 15


def test_the_weight_floor_is_assigned_once_in_fockspace():
    found = [path.stem for path, tree in package_trees()
             for _, name in defined_names(tree) if name == "WEIGHT_FLOOR"]
    assert found == ["fockspace"]


READERS = ("_integer", "_number", "_finite", "_choice")
GONE = ("_float", "_require_coupling", "_require_mode", "_json_number")
CHOICE_MESSAGE = re.compile(r"must be '[^']*' or '")


def raised_texts(tree):
    """The string parts of every ``raise`` statement, with the line it is on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            for part in ast.walk(node):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.lineno, part.value


def test_every_argument_reader_lives_in_fockspace():
    defined = [(path.stem, name) for path, tree in package_trees()
               for _, name in defined_names(tree) if name in READERS + GONE]
    assert sorted(defined) == sorted(("fockspace", name) for name in READERS)
    # a label check is _choice's message, raised nowhere else
    found = [f"{path.name}:{lineno}" for path, tree in package_trees()
             for lineno, text in raised_texts(tree)
             if path.stem != "fockspace" and CHOICE_MESSAGE.search(text)]
    assert found == []
    # the walk does see what it looks for
    own = ast.parse("""raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")""")
    assert [bool(CHOICE_MESSAGE.search(text)) for _, text in raised_texts(own)] == [True]


REGISTER_MOVES = ("moveaxis", "axis_of")


def register_moves(tree):
    """(line, name) of every ``moveaxis`` or ``axis_of`` call outside the
    ``JointState`` class, called as an attribute or as a bare name."""
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "JointState"
              for node in ast.walk(cls)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in REGISTER_MOVES:
                yield node.lineno, name


def test_only_joint_state_moves_a_register_axis():
    found = [f"{path.name}:{lineno} {name}" for path, tree in package_trees()
             for lineno, name in register_moves(tree)]
    assert found == []
    # the walk does see what it looks for, and skips the class that owns the layout
    own = ast.parse("a = np.moveaxis(js.amps, js.axis_of(2), 0)\nb = moveaxis(a, 1, 0)\n"
                    "class JointState:\n    def f(self):\n        return np.moveaxis(self.amps, 0, 1)")
    assert sorted(name for _, name in register_moves(own)) == ["axis_of", "moveaxis", "moveaxis"]


def test_detection_imports_nothing_from_operators():
    (tree,) = [tree for path, tree in package_trees() if path.stem == "detection"]
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "fockspace" in modules and "operators" not in modules


def test_expm_oracle_without_scipy(monkeypatch):
    # a module set to None in sys.modules makes importing it raise ImportError
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    t = Truncation(4)
    u = expm_oracle(dense_jy(t), -0.62)  # exp(+0.62 i Jy) = B2(-0.62)
    assert np.max(np.abs(u - as_matrix(beam_splitter("b2", -0.62, t)))) < 1e-13
