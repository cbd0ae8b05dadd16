"""The package needs NumPy only: no module imports SciPy, and the test
oracle ``expm_oracle`` runs with SciPy unavailable.  SciPy stays a test
dependency, as the oracle of the nonnegative least squares."""

import ast
import sys
from pathlib import Path

import numpy as np

import phonon_optics
from phonon_optics import Truncation, beam_splitter, dense_jy, expm_oracle

PACKAGE = Path(phonon_optics.__file__).parent


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, [node.module]


def test_no_package_module_imports_scipy():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 8
    found = [
        f"{path.name}:{lineno}"
        for path in paths
        for lineno, names in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if any(name.split(".")[0] == "scipy" for name in names)
    ]
    assert found == []


def test_expm_oracle_without_scipy(monkeypatch):
    # a module set to None in sys.modules makes importing it raise ImportError
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    t = Truncation(4)
    u = expm_oracle(dense_jy(t), -0.62)  # exp(+0.62 i Jy) = B2(-0.62)
    assert np.max(np.abs(u - beam_splitter("b2", -0.62, t).as_matrix())) < 1e-13
