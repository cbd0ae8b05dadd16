"""Exact unitaries on the truncated two-mode space.

Beam splitters are SU(2) rotations generated by the Schwinger operators

    Jx = (a+ b + a b+)/2,   Jy = (a+ b - a b+)/2i,   Jz = (a+ a - b+ b)/2,

with a, b the center-of-mass and breathing-mode annihilation operators.
Sign conventions, fixed here once and used everywhere:

* beam splitters rotate as exp(-i theta J), i.e. ``beam_splitter("b1", t)``
  is exp(-i t Jx) and ``beam_splitter("b2", t)`` is exp(-i t Jy);
* phase shifters advance as exp(+i phi n), i.e. ``phase_shifter("c", phi)``
  multiplies |m, n> by exp(i phi m);
* the joint ion-motion propagators condition the rotation sense on ion 1's
  sigma_x eigenvalue (the +1 component sees +theta), and the conditional
  phase multiplies |g>_2 (x) |m, n> by exp(+i chi_t m / 2) because
  sigma_z |g> = -|g>.

Splitters and phase shifters are passive: each maps the mode operators
(a+, b+) linearly, so it is fixed by its 2x2 one-phonon unitary M, and a
chain of them is the product of their M (the U(2) picture of Yurke, McCall
& Klauder, PRA 33, 4033 (1986)).  M acts on the Fock space as

    e^{i delta N} e^{-i alpha Jz} e^{-i beta Jy} e^{-i gamma Jz},

with delta = arg(det M)/2 and alpha, beta, gamma the ZYZ Euler angles of
M e^{-i delta}: a diagonal phase, one Jy rotation and another diagonal
phase, and no rotation when beta = 0.  The rotation conserves the total
phonon number, so it acts block by block on the (m + n = N) subspaces.
Each block is a spin-N/2 irrep, on which e^{-i beta Jy} is the real Wigner
matrix d^{N/2}(beta).  Every application builds these blocks for its own
beta by a two-term recursion in the boson creation operators, with no
eigensolver, and multiplies each into the amplitudes as it is built.  The
block weights of a state are fixed, so blocks are built only up to the
highest one, top, whose tail norm exceeds ``WEIGHT_FLOOR``: O(top^3) time
and O(top^2) memory per application, with nothing kept between calls.  At
nmax 300 a coherent state of 25 mean phonons stops near top = 140 and
takes about 0.04 s; a state spread over every block takes about 0.27 s.
A caller applying many operators to one state pays that per call; folding
them with ``@`` first pays it once.  ``UnitaryOperator`` is this passive
operator and nothing else; the Jaynes-Cummings probe propagator lives in
``detection``, and the dense matrix-exponential oracle returns a
``DenseUnitary`` for tests only.
"""

import cmath
import math

import numpy as np

from .fockspace import (
    JointState,
    MotionalState,
    Truncation,
    _Record,
    _require_memory,
    _require_mode,
    _require_same,
)

# Qubit basis order (g, e) with sigma_z |g> = -|g>.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)  # |e><g|
SIGMA_MINUS = SIGMA_PLUS.T.copy()

DEFAULT_ORACLE_CAP = 512

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Norm below which the highest blocks of a state skip the rotation, and the
# lightest weights of a probe signal skip its cosine table.  Amplitudes of a
# unit state carry rounding errors near 1e-16, so this floor lies 14 orders
# below them.  It bounds a loop only: nothing is cached or switched by it.
WEIGHT_FLOOR = 1e-30


class UnitaryOperator(_Record):
    """A passive unitary: a splitter, a phase shifter or any product of them.

    ``matrix`` is its 2x2 one-phonon unitary M on (|1, 0>, |0, 1>), so column
    0 is the image of a+ in the (a+, b+) basis.  ``u2 @ u1`` composes two
    operators by the 2x2 product; ``apply`` and ``as_matrix`` go through the
    Euler form of ``_apply_passive``, so the Fock matrix is built only on
    demand.
    """

    __slots__ = ("trunc", "matrix")
    blocks = ()  # no rotation block is kept; the benchmark's traced child reads this

    def __matmul__(self, other):
        if not isinstance(other, UnitaryOperator):
            return NotImplemented
        _require_same(self, other)
        return UnitaryOperator(self.trunc, self.matrix @ other.matrix)

    def apply(self, state: MotionalState) -> MotionalState:
        if not isinstance(state, MotionalState):
            raise TypeError("a passive unitary acts on a MotionalState")
        _require_same(self, state)
        return state.with_amps(_apply_passive(state.amps, self.matrix, self.trunc))

    def unitarity_defect(self) -> float:
        """max |U+ U - 1| over the fixed-total blocks."""
        m = self.as_matrix()
        return _unitarity_defect(
            m[sl, sl] for sl in map(self.trunc.block, range(self.trunc.n_total_max + 1))
        )

    def as_matrix(self) -> np.ndarray:
        """The dense Fock matrix; refused before the identity is allocated
        when it and the rotation's peak on it exceed the memory limit."""
        eye_bytes = 16 * self.trunc.dim**2
        need = eye_bytes + _passive_need(eye_bytes, self.trunc.n_total_max, self.trunc)
        _require_memory(need, f"the dense matrix of a passive unitary needs about {need:.3g} bytes")
        # row i of the transformed identity is U e_i, i.e. column i of U
        eye = np.eye(self.trunc.dim, dtype=np.complex128)
        return _apply_passive(eye, self.matrix, self.trunc).T


def _unitarity_defect(blocks) -> float:
    """max |B+ B - 1| over square blocks; 0 for none."""
    return max((float(np.max(np.abs(b.conj().T @ b - np.eye(len(b))))) for b in blocks),
               default=0.0)


def _passive_need(nbytes: int, top: int, trunc: Truncation) -> int:
    """Peak heap bytes of ``_apply_passive`` on ``nbytes`` of amplitudes
    whose rotation stops at block ``top``, beyond the input itself.

    Measured by tracemalloc at nmax 40-500 on batches of 1 to 16 states of
    16 dim bytes each, and on the identity up to nmax 100: the phased copy of the input and its transpose x peak
    at 2 nbytes; x with the d blocks in flight at nbytes plus about 6.2
    blocks of 8 (top + 1)^2 bytes; x with the closing phase at nbytes plus
    two states.  jz holds half a state throughout, and 64 KiB covers the
    fixed overhead that dominates below nmax 40.  The bound lies above every
    measured peak, and within 1.5 times it from nmax 100 up.
    """
    return nbytes + max(nbytes, 50 * (top + 1) ** 2) + 40 * trunc.dim + 2**16


def _small_d(beta: float, n_total_max: int):
    """Yield the real Wigner block d_N(beta) of e^{-i beta Jy}, N = 0..nmax.

    Column k of d_N is e^{-i beta Jy}|k, N - k>.  The rotation turns the
    creation operators into c a+ + s b+ and c b+ - s a+ (c, s = cos, sin of
    beta/2), and N|k, N-k> = sqrt(k) a+|k-1, N-k> + sqrt(N-k) b+|k, N-k-1>,
    so column k of d_N is sqrt(k) (c a+ + s b+) d_{N-1}[:, k-1] plus
    sqrt(N-k) (c b+ - s a+) d_{N-1}[:, k], over N (Risbo's recursion,
    J. Geodesy 70, 383 (1996)): four slab updates and no eigensolver, O(N^2)
    per block.  Each block is checked against the rotated Jz,
    Jz d = d (cos beta Jz - sin beta Jx), and for unit column norms, both
    O(N^2) because Jx is tridiagonal; a deviation above 1e-9 N raises
    LinAlgError.  Only the block being built is held.
    """
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    root = np.sqrt(np.arange(n_total_max + 1, dtype=np.float64))
    d = np.ones((1, 1))
    yield d
    for total in range(1, n_total_max + 1):
        up = root[1 : total + 1]  # sqrt(m): a+ lands on row m = 1..N
        down = root[total:0:-1]  # sqrt(N - m): b+ lands on row m = 0..N-1
        a_d = up[:, None] * d
        b_d = down[:, None] * d
        col_a = up / total  # sqrt(k)/N feeds column k = 1..N
        col_b = down / total  # sqrt(N - k)/N feeds column k = 0..N-1
        d = np.zeros((total + 1, total + 1))
        d[1:, 1:] = a_d * (c * col_a)
        d[:-1, 1:] += b_d * (s * col_a)
        d[:-1, :-1] += b_d * (c * col_b)
        d[1:, :-1] -= a_d * (s * col_b)
        jz = np.arange(total + 1) - 0.5 * total
        hop = (0.5 * sin_b) * up * down  # sin(beta) <m+1, n-1| Jx |m, n>
        residual = (jz[:, None] - cos_b * jz) * d
        residual[:, 1:] += d[:, :-1] * hop
        residual[:, :-1] += d[:, 1:] * hop
        worst = float(np.max(np.abs(residual)))
        if not worst <= 1e-9 * total:
            raise np.linalg.LinAlgError(f"d block N = {total}: rotation residual {worst:.3g}")
        drift = float(np.max(np.abs(np.einsum("ij,ij->j", d, d) - 1.0)))
        if not drift <= 1e-9 * total:
            raise np.linalg.LinAlgError(f"d block N = {total}: column norms off 1 by {drift:.3g}")
        yield d


def _apply_passive(arr: np.ndarray, m: np.ndarray, trunc: Truncation) -> np.ndarray:
    """Fock action of the one-phonon unitary m along the last axis of arr.

    With delta = arg(det m)/2, w = m e^{-i delta} = [[a, b], [-b*, a*]] is in
    SU(2) and equals e^{-i alpha sz/2} e^{-i beta sy/2} e^{-i gamma sz/2}
    (ZYZ Euler angles) for beta = 2 atan2(|b|, |a|) in [0, pi],
    alpha + gamma = -2 arg(a) and alpha - gamma = -2 arg(-b).  These
    reproduce w itself, not -w, so the lift
    e^{i delta N} e^{-i alpha Jz} e^{-i beta Jy} e^{-i gamma Jz} is exact.
    Either branch of arg(det m) works: delta + pi turns w into -w, whose
    lift gains (-1)^N, and e^{i pi N} = (-1)^N cancels it.  At beta = 0
    (b = 0) and beta = pi (a = 0) the undefined angle cancels between the
    two phases, and beta = 0 skips the rotation.  The middle rotation is
    about y because e^{-i beta Jy} has real blocks d_N(beta): each block
    takes one real matmul on the float view of the amplitudes, as
    ``_small_d`` produces it, and is dropped after use.

    The rotation conserves N, and the diagonal phases keep every modulus,
    so a block's weight can be read from arr before anything is rotated.
    With top the highest N whose tail (the squared norm of blocks N..nmax,
    summed over the batch) exceeds WEIGHT_FLOOR**2, only d_0..d_top are
    built; the blocks above top keep their amplitudes and still get both
    diagonal phases.  The map applied is therefore exactly unitary, and it
    differs from the full rotation only on blocks of norm at most
    WEIGHT_FLOOR, so the output moves by at most 2 WEIGHT_FLOOR in 2-norm.
    ``as_matrix`` passes the identity, which weights every block, so it
    builds them all.  The peak that top implies, ``_passive_need``, is
    checked against the memory limit before the rotated copy is built.
    """
    if not np.isfinite(m).all():  # a non-finite angle, refused before any block is built
        raise ValueError("one-phonon matrix has non-finite amplitudes")
    delta = 0.5 * cmath.phase(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    a, b = m[0] * cmath.exp(-1j * delta)  # the first row of w
    beta = 2.0 * math.atan2(abs(b), abs(a))
    s, d = cmath.phase(a), cmath.phase(-b)  # alpha = -s - d, gamma = d - s
    ms, ns = trunc.mode_numbers()
    jz = 0.5 * (ms - ns)
    if beta == 0.0:
        return arr * np.exp(1j * (delta * (ms + ns) + 2.0 * s * jz))
    rows = arr.reshape(-1, trunc.dim)
    weight = np.einsum("ij,ij->j", rows.real, rows.real)
    weight += np.einsum("ij,ij->j", rows.imag, rows.imag)
    weight = np.add.reduceat(weight, trunc.flat(0, np.arange(trunc.n_total_max + 1)))
    tail = np.cumsum(weight[::-1])[::-1]  # tail[N]: squared norm of blocks N..nmax
    top = max(int(np.count_nonzero(tail > WEIGHT_FLOOR**2)) - 1, 0)
    need = _passive_need(arr.nbytes, top, trunc)
    _require_memory(need, f"a passive rotation up to N = {top} needs about {need:.3g} bytes")
    # (dim, batch) with contiguous rows, so each block is one contiguous slab.
    x = np.ascontiguousarray((arr * np.exp(1j * (s - d) * jz)).reshape(-1, trunc.dim).T)
    flat = x.view(np.float64)
    for total, block in enumerate(_small_d(beta, top)):
        sl = trunc.block(total)
        x[sl] = (block @ flat[sl]).view(np.complex128)
    out = x.T.reshape(arr.shape)
    out *= np.exp(1j * (delta * (ms + ns) + (s + d) * jz))
    return out


def _splitter(key: str, theta: float) -> np.ndarray:
    """One-phonon matrix of exp(-i theta Jx) (``b1``) or exp(-i theta Jy) (``b2``)."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)  # inf: NaN for apply to reject
    m = [[c, -1j * s], [-1j * s, c]] if key == "b1" else [[c, -s], [s, c]]
    return np.array(m, dtype=np.complex128)


def beam_splitter(kind: str, theta: float, trunc: Truncation) -> UnitaryOperator:
    """exp(-i theta Jx) for kind ``b1`` or exp(-i theta Jy) for kind ``b2``.

    Both conserve the total phonon number; theta = pi/2 is the 50/50
    splitter.  Building it forms only the 2x2 one-phonon matrix.
    """
    key = kind.strip().lower()
    if key not in ("b1", "b2"):
        raise ValueError(f"beam splitter kind must be 'b1' or 'b2', got {kind!r}")
    return UnitaryOperator(trunc, _splitter(key, float(theta)))


def phase_shifter(mode: str, phi: float, trunc: Truncation) -> UnitaryOperator:
    """exp(+i phi a+ a) on mode ``c`` or exp(+i phi b+ b) on mode ``r``."""
    _require_mode(mode)
    e = cmath.exp(1j * phi)
    m = np.diag([e, 1.0] if mode == "c" else [1.0, e])
    return UnitaryOperator(trunc, m)


def apply(u: UnitaryOperator, s: MotionalState) -> MotionalState:
    """U |s>; norm is preserved and tail bookkeeping is carried through."""
    return u.apply(s)


def joint_bs_propagator(kind: str, theta: float, js: JointState) -> JointState:
    """Ion-motion propagator conditioning a beam splitter on ion 1.

    kind ``u1`` uses the Jx splitter, kind ``u2`` the Jy splitter; theta is
    the accumulated rotation angle (twice the coupling times the interaction
    time).  In the sigma_x1 eigenbasis the +1 component receives B(theta)
    and the -1 component B(-theta), so sigma_x1 eigenstates stay factorized
    with their internal state untouched.
    """
    key = kind.strip().lower()
    if key not in ("u1", "u2"):
        raise ValueError(f"propagator kind must be 'u1' or 'u2', got {kind!r}")
    axis = js.axis_of(1)
    bs = "b1" if key == "u1" else "b2"
    a = np.moveaxis(js.amps, axis, 0)
    plus = _apply_passive((a[0] + a[1]) * _SQRT_HALF, _splitter(bs, theta), js.trunc)
    minus = _apply_passive((a[0] - a[1]) * _SQRT_HALF, _splitter(bs, -theta), js.trunc)
    out = np.stack([(plus + minus) * _SQRT_HALF, (plus - minus) * _SQRT_HALF])
    return js.with_amps(np.moveaxis(out, 0, axis))


def conditional_phase(mode: str, chi_t: float, js: JointState) -> JointState:
    """Number-dependent phase on one mode, conditioned on ion 2.

    |g>_2 (x) |m, n> gains exp(+i chi_t k / 2) and |e>_2 (x) |m, n> gains
    exp(-3 i chi_t k / 2), with k the phonon number of the chosen mode.
    With ion 2 prepared in |g> this realizes the plain phase shifter at
    phi = chi_t / 2.
    """
    k = js.trunc.phonons(mode)
    axis = js.axis_of(2)
    a = np.moveaxis(js.amps, axis, 0).copy()
    a[0] = a[0] * np.exp(0.5j * chi_t * k)
    a[1] = a[1] * np.exp(-1.5j * chi_t * k)
    return js.with_amps(np.moveaxis(a, 0, axis))


def carrier_half_pulse(js: JointState) -> JointState:
    """pi/2 carrier rotation on ion 2, |g> -> (|g> - i |e>)/sqrt(2) and
    |e> -> (|e> - i |g>)/sqrt(2).

    This phase fixes the sign of the sigma_x readout in the direct
    phonon-number measurement; the opposite phase would flip it.
    """
    axis = js.axis_of(2)
    a = np.moveaxis(js.amps, axis, 0)
    g = (a[0] - 1j * a[1]) * _SQRT_HALF
    e = (a[1] - 1j * a[0]) * _SQRT_HALF
    return js.with_amps(np.moveaxis(np.stack([g, e]), 0, axis))


# ---------------------------------------------------------------------------
# dense helpers and the matrix-exponential oracle
# ---------------------------------------------------------------------------


def dense_annihilation(trunc: Truncation, mode: str) -> np.ndarray:
    """Dense annihilation matrix of one mode on the triangular basis."""
    k = trunc.phonons(mode)
    ms, ns = trunc.mode_numbers()
    cols = np.flatnonzero(k)
    # |m, n> lowers to |m - 1, n> (mode c) or |m, n - 1> (mode r)
    rows = trunc.flat(ms[cols] - (mode == "c"), ns[cols] - (mode == "r"))
    out = _dense_zeros(trunc.dim)
    out[rows, cols] = np.sqrt(k[cols])
    return out


def dense_number(trunc: Truncation, mode: str) -> np.ndarray:
    k = trunc.phonons(mode)
    out = _dense_zeros(trunc.dim)
    np.fill_diagonal(out, k)
    return out


def _dense_zeros(side: int) -> np.ndarray:
    """A complex side x side zero matrix, refused before it is allocated
    when its 16 side^2 bytes exceed the memory limit."""
    need = 16 * side**2
    _require_memory(need, f"a dense {side} x {side} matrix needs {need:.3g} bytes")
    return np.zeros((side, side), dtype=np.complex128)


def _dense_jxy(trunc: Truncation, weight: complex) -> np.ndarray:
    """weight a+ b + conj(weight) a b+ as one dense matrix.

    a+ b |m, n> = sqrt(m + 1) sqrt(n) |m + 1, n - 1>, placed by
    ``Truncation.flat``, and a b+ is its transpose.  These matrices are the
    oracle for ``fockspace.expect`` and ``_apply_jx``, so they do not read
    the hop table those use.
    """
    out = _dense_zeros(trunc.dim)
    ms, ns = trunc.mode_numbers()
    cols = np.flatnonzero(ns)
    m, n = ms[cols], ns[cols]
    rows = trunc.flat(m + 1, n - 1)
    coef = np.sqrt(m + 1) * np.sqrt(n)
    out[rows, cols] = weight * coef
    out[cols, rows] = np.conj(weight) * coef
    return out


def dense_jx(trunc: Truncation) -> np.ndarray:
    return _dense_jxy(trunc, 0.5)


def dense_jy(trunc: Truncation) -> np.ndarray:
    return _dense_jxy(trunc, -0.5j)


def dense_jz(trunc: Truncation) -> np.ndarray:
    out = _dense_zeros(trunc.dim)
    ms, ns = trunc.mode_numbers()
    np.fill_diagonal(out, 0.5 * (ms - ns))
    return out


class DenseUnitary(_Record):
    """A full unitary matrix, the output of the test oracle ``expm_oracle``."""

    __slots__ = ("matrix",)

    def unitarity_defect(self) -> float:
        return _unitarity_defect([self.matrix])


def expm_oracle(generator: np.ndarray, t: float) -> DenseUnitary:
    """Dense exponential test oracle.

    For a Hermitian generator H the result is exp(-i H t) via
    eigendecomposition; for an anti-Hermitian generator A it is exp(A t) via
    scaling and squaring (equivalently exp(-i (iA) t)).  Rejects matrices
    larger than ``DEFAULT_ORACLE_CAP`` on a side; this path is for
    cross-checks only.
    """
    g = np.ascontiguousarray(generator, dtype=np.complex128)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("generator must be a square matrix")
    if g.shape[0] > DEFAULT_ORACLE_CAP:
        raise ValueError(f"oracle dimension {g.shape[0]} exceeds cap {DEFAULT_ORACLE_CAP}")
    scale = max(1.0, float(np.max(np.abs(g))))
    if np.max(np.abs(g - g.conj().T)) <= 1e-12 * scale:
        w, v = np.linalg.eigh(g)
        u = (v * np.exp(-1j * t * w)) @ v.conj().T
    elif np.max(np.abs(g + g.conj().T)) <= 1e-12 * scale:
        import scipy.linalg  # test-only path; keeps scipy out of the CLI import

        u = scipy.linalg.expm(t * g)
    else:
        raise ValueError("generator is neither Hermitian nor anti-Hermitian")
    return DenseUnitary(u)


# ---------------------------------------------------------------------------
# laboratory parameters
# ---------------------------------------------------------------------------

_BREATHING_RATIO = 3.0 ** (-0.25)  # eta_r / eta for the linear two-ion trap


class LabParams(_Record):
    """Laser and trap parameters driving the effective interactions.

    Omega, Omega_r are Rabi frequencies (rad/s); eta, eta_r the Lamb-Dicke
    parameters of the center-of-mass and breathing modes; Delta, Delta_r the
    dispersive detunings (rad/s); t the interaction time (s).
    """

    __slots__ = ("Omega", "eta", "eta_r", "Delta", "Delta_r", "Omega_r", "t")

    def __init__(self, Omega: float, eta: float, eta_r: float, Delta: float, Delta_r: float,
                 Omega_r: float, t: float) -> None:  # callers name the parameters
        super().__init__(Omega, eta, eta_r, Delta, Delta_r, Omega_r, t)

    @classmethod
    def linked(
        cls,
        Omega: float,
        eta: float,
        Delta: float,
        Delta_r: float,
        Omega_r: float,
        t: float,
    ) -> "LabParams":
        """Constructor enforcing eta_r = 3^(-1/4) eta of the shared trap."""
        return cls(Omega, eta, _BREATHING_RATIO * eta, Delta, Delta_r, Omega_r, t)

    def has_linked_modes(self) -> bool:
        """True when eta_r = 3^(-1/4) eta to 1e-12."""
        return abs(self.eta_r - _BREATHING_RATIO * self.eta) <= 1e-12


class EffectiveAngles(_Record):
    """Dimensionless angles and rates of the effective dynamics.

    theta is the beam-splitter rotation angle, phi and phi_r the phase-shift
    angles, chi and chi_r the dispersive shift rates (rad/s), lam the
    red-sideband coupling (rad/s) and g the two-mode sideband coupling
    (rad/s).
    """

    __slots__ = ("theta", "phi", "phi_r", "chi", "chi_r", "lam", "g")


def lab_to_angles(p: LabParams) -> EffectiveAngles:
    """Convert laboratory parameters to the effective angles.

    theta = 2 Omega eta eta_r t, chi = eta^2 Omega^2 / (2 Delta),
    phi = chi t / 2, and likewise for the breathing mode;
    lam = eta Omega / 2 and g = Omega eta eta_r.
    """
    if p.Delta == 0.0 or p.Delta_r == 0.0:
        raise ValueError("detunings must be nonzero for the dispersive phases")
    chi = p.eta**2 * p.Omega**2 / (2.0 * p.Delta)
    chi_r = p.eta_r**2 * p.Omega_r**2 / (2.0 * p.Delta_r)
    return EffectiveAngles(
        2.0 * p.Omega * p.eta * p.eta_r * p.t,  # theta
        chi * p.t / 2.0,  # phi
        chi_r * p.t / 2.0,  # phi_r
        chi,
        chi_r,
        p.eta * p.Omega / 2.0,  # lam
        p.Omega * p.eta * p.eta_r,  # g
    )
