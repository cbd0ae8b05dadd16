"""Dense test oracles: Fock matrices, the qubit operators and exp(-iHt).

The package builds its operators block by block and never forms a matrix
on the whole truncated space.  These dense forms exist only so that the
tests can check it: the generators are placed entry by entry by
``Truncation.flat`` and exponentiated by an eigendecomposition, so they
share no code with the operators under test, and a unitarity defect is
read from the dense blocks, not from a closed form.  Each matrix takes
16 dim^2 bytes (33 GB at nmax 300), so the tests keep them to small cutoffs.

The recipes' closed-form targets, ``entangled_cat_target`` and
``entangled_cat_u2u3_target``, are built directly from coherent-state
amplitudes by ``coherent_superposition``, with no operator applied, so the
round-trip tests of ``recipes`` never compare an implementation against
itself.  Like the matrices, they read no input: a test passes them the
values it means.
``seeded_state`` builds the seeded random states that several properties share.
"""

import math

import numpy as np

from phonon_optics import MotionalState, Truncation, coherent_superposition
from phonon_optics.detection import JcmUnitary
from phonon_optics.operators import _apply_passive

# Qubit basis order (g, e) with sigma_z |g> = -|g>.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)  # |e><g|
SIGMA_MINUS = SIGMA_PLUS.T.copy()

DEFAULT_ORACLE_CAP = 512


def dense_annihilation(trunc, mode: str) -> np.ndarray:
    """Dense annihilation matrix of one mode on the triangular basis."""
    k = trunc.phonons(mode)
    ms, ns = trunc.mode_numbers()
    cols = np.flatnonzero(k)
    # |m, n> lowers to |m - 1, n> (mode c) or |m, n - 1> (mode r)
    rows = trunc.flat(ms[cols] - (mode == "c"), ns[cols] - (mode == "r"))
    out = np.zeros((trunc.dim, trunc.dim), dtype=np.complex128)
    out[rows, cols] = np.sqrt(k[cols])
    return out


def dense_number(trunc, mode: str) -> np.ndarray:
    return np.diag(trunc.phonons(mode).astype(np.complex128))


def _dense_jxy(trunc, weight: complex) -> np.ndarray:
    """weight a+ b + conj(weight) a b+ as one dense matrix.

    a+ b |m, n> = sqrt(m + 1) sqrt(n) |m + 1, n - 1>, placed by
    ``Truncation.flat``, and a b+ is its transpose.  These matrices are the
    oracle for ``fockspace.expect`` and ``_apply_jx``, so they do not read
    the hop table those use.
    """
    out = np.zeros((trunc.dim, trunc.dim), dtype=np.complex128)
    ms, ns = trunc.mode_numbers()
    cols = np.flatnonzero(ns)
    m, n = ms[cols], ns[cols]
    rows = trunc.flat(m + 1, n - 1)
    coef = np.sqrt(m + 1) * np.sqrt(n)
    out[rows, cols] = weight * coef
    out[cols, rows] = np.conj(weight) * coef
    return out


def dense_jx(trunc) -> np.ndarray:
    return _dense_jxy(trunc, 0.5)


def dense_jy(trunc) -> np.ndarray:
    return _dense_jxy(trunc, -0.5j)


def dense_jz(trunc) -> np.ndarray:
    ms, ns = trunc.mode_numbers()
    return np.diag((0.5 * (ms - ns)).astype(np.complex128))


def expm_oracle(generator: np.ndarray, t: float) -> np.ndarray:
    """The matrix exp(-i H t) of a Hermitian generator H, from its
    eigendecomposition.  Rejects matrices larger than ``DEFAULT_ORACLE_CAP``
    on a side, and any that are not square or not Hermitian.
    """
    h = np.ascontiguousarray(generator, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("generator must be a square matrix")
    if h.shape[0] > DEFAULT_ORACLE_CAP:
        raise ValueError(f"oracle dimension {h.shape[0]} exceeds cap {DEFAULT_ORACLE_CAP}")
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * scale:
        raise ValueError("generator is not Hermitian")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def _rabi_rotation(theta: float) -> np.ndarray:
    """The 2x2 probe rotation [[c, -i s], [-i s, c]] of one coupled pair."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _unitarity_defect(blocks) -> float:
    """max |B+ B - 1| over square blocks; 0 for none."""
    return max((float(np.max(np.abs(b.conj().T @ b - np.eye(len(b))))) for b in blocks),
               default=0.0)


def as_matrix(op) -> np.ndarray:
    """The dense matrix of a passive ``UnitaryOperator`` on the Fock basis,
    or of a ``JcmUnitary`` on the joint basis, ion-2 qubit axis first."""
    dim = op.trunc.dim
    if isinstance(op, JcmUnitary):
        out = np.eye(2 * dim, dtype=np.complex128)
        for gi, ei, theta in zip(op.g_index, op.e_index, op.angle):
            rows = np.array([gi, dim + ei])
            out[np.ix_(rows, rows)] = _rabi_rotation(theta)
        return out
    # row i of the transformed identity is U e_i, i.e. column i of U; the
    # identity weights every block, so the rotation builds them all
    return _apply_passive(np.eye(dim, dtype=np.complex128), op.matrix, op.trunc).T


def unitarity_defect(u) -> float:
    """max |U+ U - 1| over the fixed-total blocks of a passive operator, or
    over the 2x2 rotations of a ``JcmUnitary``."""
    if isinstance(u, JcmUnitary):
        return _unitarity_defect(map(_rabi_rotation, u.angle))
    m = as_matrix(u)
    blocks = map(u.trunc.block, range(u.trunc.n_total_max + 1))
    return _unitarity_defect(m[sl, sl] for sl in blocks)


def entangled_cat_target(alpha, parity, theta, trunc) -> MotionalState:
    """The entangled cat |a, b> + s |-a, -b>, normalized, with a = alpha
    cos(theta/2), b = alpha sin(theta/2) and s = +1 for parity "even", -1
    for "odd"."""
    a, b = alpha * math.cos(theta / 2.0), alpha * math.sin(theta / 2.0)
    sign = 1.0 if parity == "even" else -1.0
    return coherent_superposition([(1.0, a, b), (sign, -a, -b)], trunc)


def entangled_cat_u2u3_target(alpha, beta, parity, trunc) -> MotionalState:
    """|e_minus, e_plus> + s |e_plus, e_minus>, normalized, with e_pm =
    (beta +- alpha)/sqrt(2) and s = +1 for parity "even", -1 for "odd"."""
    e_minus, e_plus = (beta - alpha) / math.sqrt(2.0), (beta + alpha) / math.sqrt(2.0)
    sign = 1.0 if parity == "even" else -1.0
    return coherent_superposition([(1.0, e_minus, e_plus), (sign, e_plus, e_minus)], trunc)


def seeded_state(seed: int) -> MotionalState:
    """A random unit state at nmax 10-300, a third of them even and the rest
    tilted toward one mode, as the seed draws it."""
    rng = np.random.default_rng(seed)
    t = Truncation(int(rng.integers(10, 301)))
    ms, ns = t.mode_numbers()
    amps = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
    tilt = (None, ns, ms)[seed % 3]
    if tilt is not None:
        amps *= np.exp(-rng.uniform(0.0, 3.0) * tilt / t.n_total_max)
    return MotionalState(t, amps / np.linalg.norm(amps))
