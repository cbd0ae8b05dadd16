"""Phonon-number detection via sideband probes on ion 2.

Three measurement schemes for the interferometer output:

1. Single-mode Jaynes-Cummings probe.  A red-sideband pulse of one mode
   makes the ground-state signal P_g(tau) = (1/2)[1 + sum_m p_m
   cos(2 lambda tau sqrt(m))]; nonnegative least squares on the known
   frequency dictionary {2 lambda sqrt(m)} recovers the marginal p_m.
   The fit is the Lawson-Hanson active-set method, the population
   extraction of Meekhof et al., PRL 76, 1796 (1996); it is solved in this
   module (``_nnls``, NumPy only), so detection needs no SciPy.
   A plain uniform-grid Fourier transform would smear these incommensurate
   sqrt(m) lines, which is why the fit is a spectral estimate on the exact
   dictionary.
2. Two-mode probe.  Driving both lower sidebands couples |g, m, n> to
   |e, m-1, n-1> with Rabi angle g t sqrt(m n), so the signal only resolves
   the products k = m n.  The reconstruction therefore returns level-set
   probabilities q_k = sum_{mn=k} p_mn; distinct pairs with equal products
   are genuinely indistinguishable in this signal.
3. Direct mean-phonon readout.  A pi/2 carrier pulse on ion 2 followed by
   the dispersive conditional phase makes <sigma_x2> = -<sin(2 chi t n)>,
   which linearizes to -2 chi t <n> for small chi t.  The carrier phase
   convention |g> -> (|g> - i |e>)/sqrt(2) fixes this sign; the opposite
   convention flips it.

The exact probe propagator ``JcmUnitary`` lives here as the reference for
``signal``.  Traces are exact probabilities (no shot noise); a sample-count
based binomial noise option is a possible extension.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fockspace import (
    JointState,
    MotionalState,
    QubitState,
    Truncation,
    expect,
    joint_state,
    number_distributions,
)
from .operators import _unitarity_defect, carrier_half_pulse, conditional_phase

DEFAULT_SAMPLE_COUNT = 256
DEFAULT_ANGLE_SPAN = 8.0 * math.pi  # resolves adjacent sqrt(m) lines to m ~ 60

_PROB_TOL = 1e-12
_SIGNAL_CHUNK = 32  # samples per slice of the cosine table in ``signal``
_NNLS_ITERATIONS_PER_COLUMN = 3  # SciPy's NNLS stops at 3 n iterations too


@dataclass(frozen=True)
class SignalTrace:
    """Time-sampled ground-state probability of the probe ion."""

    times: np.ndarray
    values: np.ndarray
    coupling: float
    kind: str  # 'single' | 'two'
    mode: str = "c"  # probed mode for the single kind

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        # NaN fails both comparisons, so it is rejected with the out-of-range values
        if not np.all((values >= -_PROB_TOL) & (values <= 1.0 + _PROB_TOL)):
            raise ValueError("probabilities must be finite and lie in [0, 1]")
        if self.kind not in ("single", "two"):
            raise ValueError(f"kind must be 'single' or 'two', got {self.kind!r}")
        if self.mode not in ("c", "r"):
            raise ValueError(f"mode must be 'c' or 'r', got {self.mode!r}")
        if not (math.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError(f"coupling must be finite and positive, got {self.coupling!r}")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def to_csv(self) -> str:
        lines = ["t,p_g"]
        for t, v in zip(self.times, self.values):
            lines.append(f"{t:.17g},{v:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReconstructedNumberDistribution:
    """Marginal phonon-number distribution fitted from a single-mode trace."""

    p: np.ndarray
    residual: float

    def to_json(self) -> str:
        return json.dumps({"p": [float(x) for x in self.p], "residual": self.residual})


@dataclass(frozen=True)
class LevelSetDistribution:
    """Probabilities of the product value k = m * n, the most a two-mode
    probe can identify."""

    q: dict[int, float]
    residual: float

    def to_json(self) -> str:
        return json.dumps(
            {"q": {str(k): float(v) for k, v in sorted(self.q.items())},
             "residual": self.residual}
        )


@dataclass(frozen=True)
class DirectEstimate:
    """Result of the carrier-pulse + conditional-phase readout."""

    sigma_x_exact: float
    mean_n_linearized: float
    chi_t: float
    mode: str


def default_times(
    coupling: float,
    n_samples: int = DEFAULT_SAMPLE_COUNT,
    angle_span: float = DEFAULT_ANGLE_SPAN,
) -> np.ndarray:
    """Uniform samples with coupling * t covering [0, angle_span]."""
    if not (math.isfinite(coupling) and coupling > 0):
        raise ValueError(f"coupling must be finite and positive, got {coupling!r}")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    t_end = angle_span / coupling
    if not math.isfinite(t_end):
        raise ValueError(f"coupling {coupling!r} is too small: the sample times overflow")
    return np.linspace(0.0, t_end, n_samples)


@lru_cache(maxsize=None)
def _jcm_tables(n_total_max: int, kind: str, mode: str):
    """(g_index, e_index, root) arrays for the coupled pairs of one probe.

    With the flat index t(t+1)/2 + m of |m, n> (t = m + n), the |e> partner
    sits t + 1 entries earlier for |m-1, n>, t for |m, n-1> and 2t for
    |m-1, n-1>.
    """
    ms, ns = Truncation(n_total_max).mode_numbers()
    totals = ms + ns
    if kind == "single":
        k = ms if mode == "c" else ns
        g_idx = np.flatnonzero(k >= 1)
        shift = totals[g_idx] + (1 if mode == "c" else 0)
        root = np.sqrt(k[g_idx].astype(np.float64))
    else:
        g_idx = np.flatnonzero((ms >= 1) & (ns >= 1))
        shift = 2 * totals[g_idx]
        root = np.sqrt((ms[g_idx] * ns[g_idx]).astype(np.float64))
    return g_idx, g_idx - shift, root


@dataclass(frozen=True)
class JcmUnitary:
    """Exact probe propagator on a JointState with an ion-2 register.

    Pair k rotates |g>_2 (x) motional state ``g_index[k]`` and its lowered
    partner |e>_2 (x) ``e_index[k]`` by [[c, -i s], [-i s, c]], with c, s
    the cosine and sine of ``angle[k]``; all other states are stationary.
    """

    trunc: Truncation
    g_index: np.ndarray
    e_index: np.ndarray
    angle: np.ndarray

    def apply(self, js: JointState) -> JointState:
        if not isinstance(js, JointState):
            raise TypeError("a Jaynes-Cummings unitary acts on a JointState")
        if js.trunc != self.trunc:
            raise ValueError(
                f"truncation mismatch: operator has n_total_max = "
                f"{self.trunc.n_total_max}, state has {js.trunc.n_total_max}"
            )
        axis = js.axis_of(2)
        a = np.moveaxis(js.amps, axis, 0)
        g, e = a[0].copy(), a[1].copy()
        c, s = np.cos(self.angle), np.sin(self.angle)
        g_act = a[0][..., self.g_index]
        e_act = a[1][..., self.e_index]
        g[..., self.g_index] = c * g_act - 1j * s * e_act
        e[..., self.e_index] = -1j * s * g_act + c * e_act
        return js.with_amps(np.moveaxis(np.stack([g, e]), 0, axis))

    def unitarity_defect(self) -> float:
        """max |U+ U - 1| over the 2x2 rotations."""
        return _unitarity_defect(map(_rabi_rotation, self.angle))

    def as_matrix(self) -> np.ndarray:
        """The (2 dim) joint matrix, ion-2 qubit axis first, motional axis last."""
        dim = self.trunc.dim
        out = np.eye(2 * dim, dtype=np.complex128)
        for gi, ei, theta in zip(self.g_index, self.e_index, self.angle):
            rows = np.array([gi, dim + ei])
            out[np.ix_(rows, rows)] = _rabi_rotation(theta)
        return out


def _rabi_rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def jcm_unitary(
    coupling: float, t: float, trunc: Truncation, kind: str, mode: str = "c"
) -> JcmUnitary:
    """Exact probe propagator of duration t on the ion-2 register.

    Basis states without a partner inside the truncation (m = 0 for the
    single kind, m n = 0 for the two-mode kind, and |e> states at the
    cutoff boundary) are stationary.
    """
    if kind not in ("single", "two"):
        raise ValueError(f"kind must be 'single' or 'two', got {kind!r}")
    if mode not in ("c", "r"):
        raise ValueError(f"mode must be 'c' or 'r', got {mode!r}")
    g_idx, e_idx, root = _jcm_tables(trunc.n_total_max, kind, mode)
    return JcmUnitary(trunc, g_idx, e_idx, coupling * t * root)


def jcm_propagate(
    js: JointState, coupling: float, t: float, kind: str, mode: str = "c"
) -> JointState:
    """Evolve a joint state under the probe Hamiltonian for time t."""
    return jcm_unitary(coupling, t, js.trunc, kind, mode).apply(js)


def level_sets(s: MotionalState) -> dict[int, float]:
    """True q_k = sum over pairs with m * n = k of |c_mn|^2."""
    ms, ns = s.trunc.mode_numbers()
    k = ms * ns
    q = np.bincount(k, weights=np.abs(s.amps) ** 2)
    present = np.flatnonzero(np.bincount(k))
    return dict(zip(present.tolist(), q[present].tolist()))


def signal(
    out_state: MotionalState,
    coupling: float,
    times: np.ndarray,
    kind: str,
    mode: str = "c",
) -> SignalTrace:
    """Closed-form ground-state signal of a probe on the given state.

    Equals the ground-state probability from ``jcm_propagate`` at every
    sample; that equivalence is a standing property of the test suite.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    if kind == "single":
        dist = number_distributions(out_state)
        p = dist.p_m if mode == "c" else dist.p_n
        freqs = 2.0 * coupling * np.sqrt(np.arange(p.size, dtype=np.float64))
    elif kind == "two":
        q = level_sets(out_state)
        ks = np.array(sorted(q), dtype=np.float64)
        p = np.array([q[int(k)] for k in ks])
        freqs = 2.0 * coupling * np.sqrt(ks)
    else:
        raise ValueError(f"kind must be 'single' or 'two', got {kind!r}")
    # a slice of samples at a time keeps the cosine table at _SIGNAL_CHUNK rows
    values = np.empty(times.size)
    for start in range(0, times.size, _SIGNAL_CHUNK):
        stop = start + _SIGNAL_CHUNK
        values[start:stop] = np.cos(np.outer(times[start:stop], freqs)) @ p
    values = 0.5 * (1.0 + values)
    return SignalTrace(times, np.clip(values, 0.0, 1.0), coupling, kind, mode)


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve min ||a x - b|| subject to x >= 0; return x and the residual norm.

    Lawson-Hanson active-set method (Solving Least Squares Problems, 1974,
    ch. 23).  Each outer iteration frees the fixed-at-zero column with the
    largest positive gradient a^T (b - a x) and solves least squares on the
    free columns.  While that solution has a negative entry, x steps toward
    it only as far as the feasible set allows, and the column that reaches
    zero is fixed again.  In exact arithmetic every outer iteration lowers
    the residual, so the loop ends when no gradient entry is positive or,
    at the rounding level, when an iteration fails to lower it.  Raises
    ValueError on non-finite input and after 3 n iterations, as SciPy does.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("nonnegative least squares needs finite input")
    n = a.shape[1]
    max_iterations = _NNLS_ITERATIONS_PER_COLUMN * n
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    residual = b.astype(np.float64)
    rnorm = float(np.linalg.norm(residual))
    iterations = 0
    while True:
        gradient = a.T @ residual
        gradient[free] = 0.0
        j = int(np.argmax(gradient))
        if gradient[j] <= 0.0:
            break
        free[j] = True
        z = x.copy()
        while True:
            iterations += 1
            if iterations > max_iterations:
                raise ValueError(
                    f"nonnegative least squares did not converge in {max_iterations} iterations"
                )
            cols = a[:, free]
            s = np.zeros(n)
            s[free] = np.linalg.lstsq(cols, b, rcond=None)[0]
            # one refinement step takes the residual down to the rounding level of b
            s[free] += np.linalg.lstsq(cols, b - cols @ s[free], rcond=None)[0]
            negative = np.flatnonzero(s < 0.0)
            if negative.size == 0:
                break
            ratio = z[negative] / (z[negative] - s[negative])
            k = int(np.argmin(ratio))
            z += ratio[k] * (s - z)
            z[negative[k]] = 0.0
            free &= z > 0.0
        new_residual = b - a @ s
        new_rnorm = float(np.linalg.norm(new_residual))
        if new_rnorm >= rnorm:
            break
        x, residual, rnorm = s, new_residual, new_rnorm
    return x, rnorm


def _nnls_on_dictionary(trace: SignalTrace, n_weights: int) -> tuple[np.ndarray, float]:
    """Normalized nonnegative weights p_k, k < n_weights, of the cos^2
    dictionary, and the fit residual, from the Lawson-Hanson ``_nnls``.

    P_g = sum_k p_k cos^2(coupling * t * sqrt(k)); the constant and the
    oscillating parts enter through the same columns.  The fit needs at
    least two samples per weight, checked before the dictionary is built.
    """
    if trace.times.size < 2 * n_weights:
        raise ValueError(
            f"{trace.times.size} samples cannot determine {n_weights} weights; "
            f"need at least {2 * n_weights}"
        )
    roots = np.sqrt(np.arange(n_weights, dtype=np.float64))
    design = np.cos(np.outer(trace.times, trace.coupling * roots)) ** 2
    coeffs, residual = _nnls(design, trace.values)
    total = coeffs.sum()
    if total <= 0.0:
        raise ValueError("reconstruction collapsed to the zero distribution")
    return coeffs / total, residual


def reconstruct_single(trace: SignalTrace, m_max: int) -> ReconstructedNumberDistribution:
    """Fit the marginal p_m, m = 0..m_max, to a single-mode trace.

    The sqrt(m) frequencies are pairwise distinct, so the dictionary is
    never degenerate; the fit needs at least 2 (m_max + 1) samples.
    """
    if trace.kind != "single":
        raise ValueError("reconstruct_single needs a single-mode trace")
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    p, residual = _nnls_on_dictionary(trace, m_max + 1)
    return ReconstructedNumberDistribution(p, residual)


def reconstruct_two(trace: SignalTrace, k_max: int) -> LevelSetDistribution:
    """Fit the level-set probabilities q_k, k = 0..k_max, to a two-mode trace.

    Only the products k = m n are identifiable: pairs with equal products
    share a frequency, so the joint p_mn itself is not recoverable from
    this signal.  The fit needs at least 2 (k_max + 1) samples.
    """
    if trace.kind != "two":
        raise ValueError("reconstruct_two needs a two-mode trace")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    q, residual = _nnls_on_dictionary(trace, k_max + 1)
    return LevelSetDistribution({k: float(v) for k, v in enumerate(q)}, residual)


def direct_mean_phonon(
    out_state: MotionalState, chi: float, t: float, mode: str = "c"
) -> DirectEstimate:
    """Mean phonon number from a single sigma_x readout.

    Runs the full protocol on a joint state (carrier pi/2 pulse on ion 2,
    conditional phase, sigma_x expectation) and checks it against the exact
    diagonal form -<sin(2 chi t n)> to 1e-12 before linearizing.
    """
    chi_t = chi * t
    if not (math.isfinite(chi_t) and chi_t > 0.0):
        raise ValueError(f"chi * t must be finite and positive, got {chi_t!r}")
    dist = number_distributions(out_state)
    p = dist.p_m if mode == "c" else dist.p_n
    k = np.arange(p.size, dtype=np.float64)
    sigma_x = -float(np.sin(2.0 * chi_t * k) @ p)

    js = joint_state(out_state, ion2=QubitState.ground())
    js = carrier_half_pulse(js, ion=2)
    js = conditional_phase(mode, chi_t, js)
    sigma_x_protocol = js.expect_sigma_x(2)
    if abs(sigma_x_protocol - sigma_x) > 1e-12:
        raise AssertionError(
            f"protocol sigma_x {sigma_x_protocol!r} deviates from closed form {sigma_x!r}"
        )
    return DirectEstimate(sigma_x, -sigma_x / (2.0 * chi_t), chi_t, mode)


@dataclass(frozen=True)
class JzComparison:
    """Mean Jz of one state measured three independent ways."""

    jz_exact: float
    jz_reconstructed: float
    jz_direct: float

    @property
    def max_pairwise_deviation(self) -> float:
        vals = (self.jz_exact, self.jz_reconstructed, self.jz_direct)
        return max(abs(a - b) for a in vals for b in vals)

    def summary(self) -> str:
        return (
            f"jz_exact={self.jz_exact:.17g} "
            f"jz_reconstructed={self.jz_reconstructed:.17g} "
            f"jz_direct={self.jz_direct:.17g} "
            f"max_pairwise_dev={self.max_pairwise_deviation:.3g}"
        )


def jz_from_methods(
    out_state: MotionalState,
    coupling: float = 1.0,
    n_samples: int = DEFAULT_SAMPLE_COUNT,
    m_max: int | None = None,
    chi_t: float = 1e-3,
) -> JzComparison:
    """<Jz> by (a) exact expectation, (b) single-mode reconstruction of both
    marginals, (c) the direct readout on both modes."""
    jz_exact = expect(out_state, "jz")

    if m_max is None:
        m_max = out_state.trunc.n_total_max
    times = default_times(coupling, n_samples)
    moments = {}
    for mode in ("c", "r"):
        trace = signal(out_state, coupling, times, "single", mode)
        p = reconstruct_single(trace, m_max).p
        moments[mode] = float(np.arange(p.size) @ p)
    jz_rec = 0.5 * (moments["c"] - moments["r"])

    direct_c = direct_mean_phonon(out_state, chi_t, 1.0, "c")
    direct_r = direct_mean_phonon(out_state, chi_t, 1.0, "r")
    jz_dir = 0.5 * (direct_c.mean_n_linearized - direct_r.mean_n_linearized)
    return JzComparison(jz_exact, jz_rec, jz_dir)
