"""The package needs NumPy only and ships only what a program runs.

No module imports SciPy, and the dense test oracles of ``tests/oracles.py``
(the Fock matrices, the qubit operators, ``expm_oracle``, ``as_matrix``,
the 2x2 probe rotation and the dense unitarity defect) and the recipes'
closed-form ``*_target`` states live there alone: no package module
defines them and the package exports none of them.
``expm_oracle`` runs with SciPy unavailable.  SciPy stays a test
dependency, as the oracle of the nonnegative least squares.  The weight
floor has one home, ``fockspace``, and so do the readers of a number or
label argument; ``detection`` reads nothing from ``operators``.  Two
constants are written once, in ``fockspace``: 1/sqrt(2) and the reach
lam + 40 sqrt(lam) of a Poisson tail.  Each
label set is spelled once, by the module that owns it: the modes by
``fockspace._MODES``, the cat parities by ``fockspace._PARITIES`` and the
probe kinds by ``detection._KINDS``.  A superposition's zero norm is refused
at one site, and the mean phonon number |alpha|^2 + |beta|^2 is read at
one, ``fockspace._mean_phonons``.  Only ``JointState`` knows where an
ion's register lives: no code outside that class calls ``moveaxis`` or
``axis_of``."""

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
    return bare.startswith(("dense_", "SIGMA_")) or bare.endswith("_target") or bare in (
        "expm_oracle", "as_matrix", "DEFAULT_ORACLE_CAP", "rabi_rotation", "unitarity_defect")


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
    assert sum(is_oracle(name) for _, name in defined_names(oracles)) == 18


def test_the_weight_floor_is_assigned_once_in_fockspace():
    found = [path.stem for path, tree in package_trees()
             for _, name in defined_names(tree) if name == "WEIGHT_FLOOR"]
    assert found == ["fockspace"]


RESTATED = ("1.0 / math.sqrt(2.0)", "40.0 * math.sqrt(")


def spelled_products(tree, module):
    """``module:line`` and the spelling of every product or quotient that
    opens with a number literal and one of the ``RESTATED`` spellings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant):
            text = ast.unparse(node)
            for spelling in RESTATED:
                if text.startswith(spelling):
                    yield f"{module}:{node.lineno} {spelling}"


def test_root_half_and_the_poisson_reach_are_each_written_once():
    # fockspace._SQRT_HALF and the reach of fockspace._poisson_tails
    found = [where for path, tree in package_trees() for where in spelled_products(tree, path.stem)]
    assert [where.split(":")[0] for where in found] == ["fockspace", "fockspace"]
    assert sorted(where.split(" ", 1)[1] for where in found) == sorted(RESTATED)
    # the walk does see what it looks for
    own = ast.parse("inv = 1.0 / math.sqrt(2.0)\ntop = int(lam + 40.0 * math.sqrt(lam)) + 100\n"
                    "x = 2.0 * math.sqrt(lam)\n")
    assert list(spelled_products(own, "m")) == [
        "m:1 1.0 / math.sqrt(2.0)", "m:2 40.0 * math.sqrt("]


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


LABEL_SETS = {("c", "r"): "_MODES", ("even", "odd"): "_PARITIES", ("single", "two"): "_KINDS"}


def label_spellings(tree, module):
    """Where ``tree`` spells a label set of ``LABEL_SETS``, or the mode
    string "cr": ``module.NAME`` for a tuple assigned to NAME alone, else
    ``module:line`` and the spelling."""
    named = {id(node.value): node.targets[0].id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and all(isinstance(e, ast.Constant) for e in node.elts):
            spelling = tuple(e.value for e in node.elts)
            if spelling in LABEL_SETS:
                where = named.get(id(node))
                yield f"{module}.{where}" if where else f"{module}:{node.lineno} {spelling}"
        elif isinstance(node, ast.Constant) and node.value == "cr":
            yield f"{module}:{node.lineno} 'cr'"


def test_each_label_set_is_spelled_by_its_owner_alone():
    found = [where for path, tree in package_trees() for where in label_spellings(tree, path.stem)]
    assert sorted(found) == ["detection._KINDS", "fockspace._MODES", "fockspace._PARITIES"]
    # the walk does see what it looks for
    own = ast.parse('_MODES = ("c", "r")\nx = {"kind": ("single", "two")}\n'
                    'for mode in "cr":\n    f(mode, ("even", "odd"))\n')
    assert sorted(label_spellings(own, "m")) == [
        "m._MODES", "m:2 ('single', 'two')", "m:3 'cr'", "m:4 ('even', 'odd')"]


MEAN_PHONONS = "mean phonon number |alpha|^2 + |beta|^2"


def norm_rules(tree, module):
    """``module:line`` and the rule of every zero-vector refusal (a raised
    text naming a zero norm or vector) and every reading of the mean phonon
    number (a sum of two ``_abs2`` calls, or ``MEAN_PHONONS`` passed to a reader)."""
    for lineno, text in raised_texts(tree):
        if "zero norm" in text or "zero vector" in text:
            yield f"{module}:{lineno} zero"
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and all(
                isinstance(side, ast.Call) and getattr(side.func, "id", None) == "_abs2"
                for side in (node.left, node.right)):
            yield f"{module}:{node.lineno} sum"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in READERS and any(
                isinstance(arg, ast.Constant) and arg.value == MEAN_PHONONS for arg in node.args):
            yield f"{module}:{node.lineno} read"


def test_the_zero_norm_and_the_mean_phonon_number_each_have_one_site():
    # coherent_superposition refuses a norm^2 of 0 and fockspace._mean_phonons
    # reads |alpha|^2 + |beta|^2: no cat rule or sizing helper restates either
    found = [where for path, tree in package_trees() for where in norm_rules(tree, path.stem)]
    assert sorted(where.split(" ")[1] for where in found) == ["read", "sum", "zero"]
    assert {where.split(":")[0] for where in found} == {"fockspace"}
    # the walk does see what it looks for
    own = ast.parse('raise ValueError("odd cat is the zero vector")\n'
                    'lam = _abs2(alpha) + _abs2(beta)\n'
                    f'lam = _finite(lam, "{MEAN_PHONONS}")\n')
    assert list(norm_rules(own, "m")) == ["m:1 zero", "m:2 sum", "m:3 read"]


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
