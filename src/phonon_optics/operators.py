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
highest one, top, whose tail is not rounding noise (the one floor rule,
``fockspace.WEIGHT_FLOOR``): O(top^3) time and O(top^2) memory per
application, with nothing kept between calls (README gives measured times).
A caller applying many operators to one state pays that per call; folding
them with ``@`` first pays it once.  ``UnitaryOperator`` is this passive
operator and nothing else; the Jaynes-Cummings probe propagator lives in
``detection``.
"""

import cmath
import math

import numpy as np

from .fockspace import (
    WEIGHT_FLOOR,
    JointState,
    MotionalState,
    Truncation,
    _MODES,
    _SQRT_HALF,
    _Record,
    _choice,
    _finite,
    _require_memory,
    _require_same,
)


class UnitaryOperator(_Record):
    """A passive unitary: a splitter, a phase shifter or any product of them.

    ``matrix`` is its 2x2 one-phonon unitary M on (|1, 0>, |0, 1>), so column
    0 is the image of a+ in the (a+, b+) basis.  ``u2 @ u1`` composes two
    operators by the 2x2 product; ``apply(u, s)`` goes through the Euler form
    of ``_apply_passive``, so no Fock matrix is ever built.
    """

    __slots__ = ("trunc", "matrix")
    blocks = ()  # no rotation block is kept; the benchmark's traced child reads this

    def __matmul__(self, other):
        if not isinstance(other, UnitaryOperator):
            return NotImplemented
        _require_same(self, other)
        return UnitaryOperator(self.trunc, self.matrix @ other.matrix)


def _passive_need(nbytes: int, top: int, trunc: Truncation) -> int:
    """Peak heap bytes of ``_apply_passive`` on ``nbytes`` of amplitudes
    whose rotation stops at block ``top``, beyond the input itself.

    Measured by tracemalloc at nmax 40-500 on batches of 1 to 16 states of
    16 dim bytes each, and on the identity up to nmax 100: the phased copy of the input and its transpose x peak
    at 2 nbytes; x with the d blocks in flight at nbytes plus about 5.2
    blocks of 8 (top + 1)^2 bytes; x with the closing phase at nbytes plus
    two states.  jz holds half a state throughout, and 64 KiB covers the
    fixed overhead that dominates below nmax 40.  The bound lies above every
    measured peak, and within 1.35 times it from nmax 100 up.
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
    per block.  Only the block being built is held, and nothing here checks
    it: the property ``test_small_d_blocks_rotate_jz_and_keep_unit_columns``
    in ``tests/test_operators_properties.py`` holds every block to the
    rotated Jz, Jz d = d (cos beta Jz - sin beta Jx), and to unit column
    norms, both within 1e-14 N.
    """
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
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
    The peak that top implies, ``_passive_need``, is checked against the
    memory limit before the rotated copy is built.
    """
    if not np.isfinite(m).all():  # a matrix given directly, refused before any block is built
        raise ValueError("one-phonon matrix has non-finite amplitudes")
    delta = 0.5 * cmath.phase(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    a, b = m[0] * cmath.exp(-1j * delta)  # the first row of w
    beta = 2.0 * math.atan2(abs(b), abs(a))
    s, d = cmath.phase(a), cmath.phase(-b)  # alpha = -s - d, gamma = d - s
    ms, ns = trunc.mode_numbers()
    jz, totals = 0.5 * (ms - ns), ms + ns
    if beta == 0.0:
        return arr * np.exp(1j * (delta * totals + 2.0 * s * jz))
    weight = np.bincount(totals, weights=(np.abs(arr.reshape(-1, trunc.dim)) ** 2).sum(axis=0))
    tail = np.cumsum(weight[::-1])[::-1]  # tail[N]: squared norm of blocks N..nmax
    top = max(int(np.count_nonzero(tail > WEIGHT_FLOOR**2)) - 1, 0)
    need = _passive_need(arr.nbytes, top, trunc)
    _require_memory(need, f"a passive rotation up to N = {top} needs")
    # (dim, batch) with contiguous rows, so each block is one contiguous slab.
    x = np.ascontiguousarray((arr * np.exp(1j * (s - d) * jz)).reshape(-1, trunc.dim).T)
    flat = x.view(np.float64)
    for total, block in enumerate(_small_d(beta, top)):
        sl = trunc.block(total)
        x[sl] = (block @ flat[sl]).view(np.complex128)
    out = x.T.reshape(arr.shape)
    out *= np.exp(1j * (delta * totals + (s + d) * jz))
    return out


def _splitter(key: str, theta: float) -> np.ndarray:
    """One-phonon matrix of exp(-i theta Jx) (``b1``) or exp(-i theta Jy) (``b2``)."""
    half = 0.5 * theta
    c, s = np.cos(half), np.sin(half)
    m = [[c, -1j * s], [-1j * s, c]] if key == "b1" else [[c, -s], [s, c]]
    return np.array(m, dtype=np.complex128)


def beam_splitter(kind: str, theta: float, trunc: Truncation) -> UnitaryOperator:
    """exp(-i theta Jx) for kind ``b1`` or exp(-i theta Jy) for kind ``b2``.

    Both conserve the total phonon number; theta = pi/2 is the 50/50
    splitter.  Building it forms only the 2x2 one-phonon matrix.
    """
    kind = _choice(kind, "beam splitter kind", ("b1", "b2"))
    return UnitaryOperator(trunc, _splitter(kind, _finite(theta, "theta")))


def phase_shifter(mode: str, phi: float, trunc: Truncation) -> UnitaryOperator:
    """exp(+i phi a+ a) on mode ``c`` or exp(+i phi b+ b) on mode ``r``."""
    mode = _choice(mode, "mode", _MODES)
    e = cmath.exp(1j * _finite(phi, "phi"))
    m = np.diag([e, 1.0] if mode == "c" else [1.0, e])
    return UnitaryOperator(trunc, m)


def apply(u: UnitaryOperator, s: MotionalState) -> MotionalState:
    """U |s>; norm is preserved and tail bookkeeping is carried through."""
    if not isinstance(s, MotionalState):
        raise TypeError("a passive unitary acts on a MotionalState")
    _require_same(u, s)
    return s.with_amps(_apply_passive(s.amps, u.matrix, u.trunc))


def joint_bs_propagator(kind: str, theta: float, js: JointState) -> JointState:
    """Ion-motion propagator conditioning a beam splitter on ion 1.

    kind ``u1`` uses the Jx splitter, kind ``u2`` the Jy splitter; theta is
    the accumulated rotation angle (twice the coupling times the interaction
    time).  In the sigma_x1 eigenbasis the +1 component receives B(theta)
    and the -1 component B(-theta), so sigma_x1 eigenstates stay factorized
    with their internal state untouched.  The parity P = (-1)^{a+ a} turns a
    into -a and so flips Jx and Jy: B(-theta) = P B(theta) P exactly.  Both
    arms therefore share one rotation, applied to the batch of the +1
    component and P times the -1 component, with P applied again after.
    """
    bs = "b1" if _choice(kind, "propagator kind", ("u1", "u2")) == "u1" else "b2"
    theta = _finite(theta, "theta")
    g, e = js.register(1)
    parity = (-1.0) ** js.trunc.phonons("c")
    arms = np.stack([g + e, parity * (g - e)]) * _SQRT_HALF
    plus, minus = _apply_passive(arms, _splitter(bs, theta), js.trunc)
    minus *= parity
    return js.with_register(1, (plus + minus) * _SQRT_HALF, (plus - minus) * _SQRT_HALF)


def conditional_phase(mode: str, chi_t: float, js: JointState) -> JointState:
    """Number-dependent phase on one mode, conditioned on ion 2.

    |g>_2 (x) |m, n> gains exp(+i chi_t k / 2) and |e>_2 (x) |m, n> gains
    exp(-3 i chi_t k / 2), with k the phonon number of the chosen mode.
    With ion 2 prepared in |g> this realizes the plain phase shifter at
    phi = chi_t / 2.  A chi_t whose largest phase overflows is a ValueError.
    """
    chi_t = _finite(chi_t, "chi_t")
    # chi_t k comes first (here and in the direct readout): at nmax 0 it is 0,
    # where 1.5 chi_t alone may overflow and 0 inf is NaN
    _finite(1.5 * (chi_t * js.trunc.n_total_max), "phase 1.5 * chi_t * nmax")
    phase = chi_t * js.trunc.phonons(mode)
    g, e = js.register(2)
    return js.with_register(2, g * np.exp(0.5j * phase), e * np.exp(-1.5j * phase))


def carrier_half_pulse(js: JointState) -> JointState:
    """pi/2 carrier rotation on ion 2, |g> -> (|g> - i |e>)/sqrt(2) and
    |e> -> (|e> - i |g>)/sqrt(2).

    This phase fixes the sign of the sigma_x readout in the direct
    phonon-number measurement; the opposite phase would flip it.
    """
    g, e = js.register(2)
    return js.with_register(2, (g - 1j * e) * _SQRT_HALF, (e - 1j * g) * _SQRT_HALF)


# ---------------------------------------------------------------------------
# laboratory parameters
# ---------------------------------------------------------------------------

_BREATHING_RATIO = 3.0 ** (-0.25)  # eta_r / eta for the linear two-ion trap


class LabParams(_Record):
    """Laser and trap parameters driving the effective interactions.

    Omega, Omega_r are Rabi frequencies (rad/s); eta, eta_r the Lamb-Dicke
    parameters of the center-of-mass and breathing modes; Delta, Delta_r the
    dispersive detunings (rad/s); t the interaction time (s).  Each field is
    stored as a finite float; anything else, an integer beyond the float
    range included, is a ValueError naming the field.
    """

    __slots__ = ("Omega", "eta", "eta_r", "Delta", "Delta_r", "Omega_r", "t")

    def __init__(self, Omega: float, eta: float, eta_r: float, Delta: float, Delta_r: float,
                 Omega_r: float, t: float) -> None:  # callers name the parameters
        fields = (Omega, eta, eta_r, Delta, Delta_r, Omega_r, t)
        super().__init__(*map(_finite, fields, self.__slots__))

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
        eta = _finite(eta, "eta")
        return cls(Omega, eta, _BREATHING_RATIO * eta, Delta, Delta_r, Omega_r, t)


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
    lam = eta Omega / 2 and g = Omega eta eta_r.  ``LabParams`` holds finite
    floats; a zero detuning or an angle that overflows a float is a
    ValueError naming it.
    """
    if p.Delta == 0.0 or p.Delta_r == 0.0:
        raise ValueError("detunings must be nonzero for the dispersive phases")
    chi = _dispersive_rate(p.eta, p.Omega, p.Delta)
    chi_r = _dispersive_rate(p.eta_r, p.Omega_r, p.Delta_r)
    angles = EffectiveAngles(
        2.0 * p.Omega * p.eta * p.eta_r * p.t,  # theta
        chi * p.t / 2.0,  # phi
        chi_r * p.t / 2.0,  # phi_r
        chi,
        chi_r,
        p.eta * p.Omega / 2.0,  # lam
        p.Omega * p.eta * p.eta_r,  # g
    )
    overflowed = [a for a in EffectiveAngles.__slots__ if not math.isfinite(getattr(angles, a))]
    if overflowed:
        raise ValueError(f"the laboratory parameters overflow {', '.join(overflowed)}")
    return angles


def _dispersive_rate(eta: float, omega: float, delta: float) -> float:
    """eta^2 omega^2 / (2 delta), or inf where a square overflows a float."""
    try:
        return eta**2 * omega**2 / (2.0 * delta)
    except OverflowError:
        return math.inf
