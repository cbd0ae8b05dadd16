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

import json
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fockspace import (
    JointState,
    MotionalState,
    QubitState,
    Truncation,
    _frozen,
    _Record,
    _require_memory,
    _require_mode,
    _require_same,
    expect,
    joint_state,
    number_distributions,
)
from .operators import (
    WEIGHT_FLOOR,
    _dense_zeros,
    _unitarity_defect,
    carrier_half_pulse,
    conditional_phase,
)

DEFAULT_SAMPLE_COUNT = 256
DEFAULT_ANGLE_SPAN = 8.0 * math.pi  # resolves adjacent sqrt(m) lines to m ~ 60

_PROB_TOL = 1e-12
_SIGNAL_CHUNK = 32  # samples per slice of the cosine table in ``signal``
_NNLS_ITERATIONS_PER_COLUMN = 3  # SciPy's NNLS stops at 3 n iterations too
# tracemalloc reads a peak heap of about 33 B per sample for a trace (its
# times, values and their temporaries) and 24 B per sample and weight for a
# fit (the cos^2 design, its temporaries and the free columns); the rest
# covers the allocator's overhead.
_TRACE_BYTES_PER_SAMPLE = 48
_FIT_BYTES_PER_SAMPLE_WEIGHT = 32


class SignalTrace(_Record):
    """Time-sampled ground-state probability of the probe ion.

    ``kind`` is ``single`` or ``two``; ``mode`` is the probed mode of the
    single kind.
    """

    __slots__ = ("times", "values", "coupling", "kind", "mode")

    def __init__(self, times: np.ndarray, values: np.ndarray, coupling: float, kind: str,
                 mode: str = "c") -> None:
        times = np.ascontiguousarray(times, dtype=np.float64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        # NaN fails both comparisons, so it is rejected with the out-of-range values
        if not np.all((values >= -_PROB_TOL) & (values <= 1.0 + _PROB_TOL)):
            raise ValueError("probabilities must be finite and lie in [0, 1]")
        if kind not in ("single", "two"):
            raise ValueError(f"kind must be 'single' or 'two', got {kind!r}")
        _require_mode(mode)
        if not (math.isfinite(coupling) and coupling > 0):
            raise ValueError(f"coupling must be finite and positive, got {coupling!r}")
        super().__init__(_frozen(times), _frozen(values), coupling, kind, mode)

    def to_csv(self) -> str:
        lines = ["t,p_g"]
        for t, v in zip(self.times, self.values):
            lines.append(f"{t:.17g},{v:.17g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "trace",
                "coupling": self.coupling,
                "signal_kind": self.kind,
                "mode": self.mode,
                "t": self.times.tolist(),
                "p_g": self.values.tolist(),
            }
        )


class ReconstructedNumberDistribution(_Record):
    """Marginal phonon-number distribution fitted from a single-mode trace."""

    __slots__ = ("p", "residual")

    @property
    def mean_n(self) -> float:
        """sum_m m p_m."""
        return float(np.arange(self.p.size) @ self.p)

    def to_json(self) -> str:
        return json.dumps({"p": [float(x) for x in self.p], "residual": self.residual})


class LevelSetDistribution(_Record):
    """Probabilities of the product value k = m * n, the most a two-mode
    probe can identify."""

    __slots__ = ("q", "residual")

    def to_json(self) -> str:
        return json.dumps(
            {"q": {str(k): float(v) for k, v in sorted(self.q.items())},
             "residual": self.residual}
        )


class DirectEstimate(NamedTuple):
    """Result of the carrier-pulse + conditional-phase readout."""

    sigma_x_exact: float
    mean_n_linearized: float
    chi_t: float
    mode: str

    def to_json(self) -> str:
        return json.dumps({"kind": "direct", **self._asdict()})

    def to_csv(self) -> str:
        """A header of the field names and one row of their values."""
        row = self._asdict()
        values = (v if isinstance(v, str) else f"{v:.17g}" for v in row.values())
        return ",".join(row) + "\n" + ",".join(values) + "\n"


def _require_samples(n_samples: int, n_weights: int = 0) -> None:
    """Refuse a sample count too small to determine ``n_weights`` weights, or
    whose trace and fit design of ``n_weights`` columns would not fit in
    memory, before the sample grid is built."""
    if n_samples < 2 * n_weights:
        raise ValueError(
            f"{n_samples} samples cannot determine {n_weights} weights; "
            f"need at least {2 * n_weights}"
        )
    need = n_samples * (_TRACE_BYTES_PER_SAMPLE + _FIT_BYTES_PER_SAMPLE_WEIGHT * n_weights)
    _require_memory(need, f"{n_samples} samples need about {need:.3g} bytes")


def _require_finite_phase(coupling: float, k_max: int, times: np.ndarray) -> None:
    """Refuse a probe whose largest phase 2 coupling sqrt(k_max) max|t| is not
    a finite float, before NumPy fills the cosine table with inf and NaN."""
    t_max = float(np.abs(times).max(initial=0.0))
    if not math.isfinite(2.0 * float(coupling) * math.sqrt(k_max) * t_max):
        raise ValueError(
            f"probe phase 2 * coupling * sqrt(k) * t is not finite for coupling "
            f"{coupling!r}, k up to {k_max} and |t| up to {t_max!r}"
        )


def default_times(coupling: float, n_samples: int = DEFAULT_SAMPLE_COUNT) -> np.ndarray:
    """Uniform samples with coupling * t covering [0, DEFAULT_ANGLE_SPAN]."""
    if not (math.isfinite(coupling) and coupling > 0):
        raise ValueError(f"coupling must be finite and positive, got {coupling!r}")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    t_end = DEFAULT_ANGLE_SPAN / coupling
    if not math.isfinite(t_end):
        raise ValueError(f"coupling {coupling!r} is too small: the sample times overflow")
    return np.linspace(0.0, t_end, n_samples)


@lru_cache(maxsize=None)
def _jcm_tables(n_total_max: int, kind: str, mode: str):
    """(g_index, e_index, root) arrays for the coupled pairs of one probe.

    Pair k couples |g, m, n> at flat index g_index[k] to |e> and the lowered
    pair at e_index[k], both from ``Truncation.flat``: |m-1, n> for the
    single kind on mode c, |m, n-1> on mode r, and |m-1, n-1> for the
    two-mode kind.  root[k] is sqrt of the lowered phonon number (single)
    or of m n (two-mode), nonzero exactly where the partner exists.
    """
    trunc = Truncation(n_total_max)
    ms, ns = trunc.mode_numbers()
    if kind == "single":
        k, lower_m, lower_n = trunc.phonons(mode), mode == "c", mode == "r"
    else:
        k, lower_m, lower_n = ms * ns, 1, 1
    g_idx = np.flatnonzero(k)
    e_idx = trunc.flat(ms[g_idx] - lower_m, ns[g_idx] - lower_n)
    return g_idx, e_idx, np.sqrt(k[g_idx].astype(np.float64))


class JcmUnitary(_Record):
    """Exact probe propagator on a JointState with an ion-2 register.

    Pair k rotates |g>_2 (x) motional state ``g_index[k]`` and its lowered
    partner |e>_2 (x) ``e_index[k]`` by [[c, -i s], [-i s, c]], with c, s
    the cosine and sine of ``angle[k]``; all other states are stationary.
    """

    __slots__ = ("trunc", "g_index", "e_index", "angle")

    def apply(self, js: JointState) -> JointState:
        if not isinstance(js, JointState):
            raise TypeError("a Jaynes-Cummings unitary acts on a JointState")
        _require_same(self, js)
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
        """The (2 dim) joint matrix, ion-2 qubit axis first, motional axis last;
        refused before it is allocated when it exceeds the memory limit."""
        dim = self.trunc.dim
        out = _dense_zeros(2 * dim)
        np.fill_diagonal(out, 1.0)
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
    _require_mode(mode)
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
    The weight p_k of line k is the marginal p_m (single kind) or the
    level-set probability q_k (two-mode kind).  The lightest weights, whose
    sum is at most WEIGHT_FLOOR**2, get no column in the cosine table, so
    each sample moves by at most WEIGHT_FLOOR**2 / 2.
    """
    _require_mode(mode)
    times = np.ascontiguousarray(times, dtype=np.float64)
    if kind == "single":
        dist = number_distributions(out_state)
        p = dist.p_m if mode == "c" else dist.p_n
    elif kind == "two":
        ms, ns = out_state.trunc.mode_numbers()
        p = np.bincount(ms * ns, weights=np.abs(out_state.amps) ** 2)
    else:
        raise ValueError(f"kind must be 'single' or 'two', got {kind!r}")
    order = np.argsort(p)
    ks = np.sort(order[np.cumsum(p[order]) > WEIGHT_FLOOR**2])
    _require_finite_phase(coupling, int(ks[-1]), times)
    p = p[ks]
    freqs = 2.0 * coupling * np.sqrt(ks)
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
    least two samples per weight and a design that fits in memory, both
    checked before the dictionary is built.
    """
    _require_samples(trace.times.size, n_weights)
    _require_finite_phase(trace.coupling, n_weights - 1, trace.times)
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
    _require_mode(mode)
    chi_t = chi * t
    if not (math.isfinite(chi_t) and chi_t > 0.0):
        raise ValueError(f"chi * t must be finite and positive, got {chi_t!r}")
    nmax = out_state.trunc.n_total_max
    if not math.isfinite(2.0 * float(chi_t) * nmax):
        raise ValueError(
            f"readout phase 2 * chi_t * nmax is not finite for chi_t {chi_t!r} and nmax {nmax}"
        )
    dist = number_distributions(out_state)
    p = dist.p_m if mode == "c" else dist.p_n
    k = np.arange(p.size, dtype=np.float64)
    sigma_x = -float(np.sin(2.0 * chi_t * k) @ p)

    js = joint_state(out_state, ion2=QubitState.ground())
    js = carrier_half_pulse(js)
    js = conditional_phase(mode, chi_t, js)
    sigma_x_protocol = js.expect_sigma_x(2)
    if abs(sigma_x_protocol - sigma_x) > 1e-12:
        raise AssertionError(
            f"protocol sigma_x {sigma_x_protocol!r} deviates from closed form {sigma_x!r}"
        )
    return DirectEstimate(sigma_x, -sigma_x / (2.0 * chi_t), chi_t, mode)


class JzComparison(_Record):
    """Mean Jz of one state measured three independent ways.

    ``traces``, ``fits`` and ``directs`` hold, per mode ``c`` and ``r``, the
    single-mode trace, its reconstruction and the direct readout that the
    two measured values come from.
    """

    __slots__ = ("jz_exact", "jz_reconstructed", "jz_direct", "traces", "fits", "directs")

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
    _require_samples(n_samples, m_max + 1)
    times = default_times(coupling, n_samples)
    traces, fits = {}, {}
    for mode in ("c", "r"):
        traces[mode] = signal(out_state, coupling, times, "single", mode)
        fits[mode] = reconstruct_single(traces[mode], m_max)
    jz_rec = 0.5 * (fits["c"].mean_n - fits["r"].mean_n)

    directs = {mode: direct_mean_phonon(out_state, chi_t, 1.0, mode) for mode in ("c", "r")}
    jz_dir = 0.5 * (directs["c"].mean_n_linearized - directs["r"].mean_n_linearized)
    return JzComparison(jz_exact, jz_rec, jz_dir, traces, fits, directs)
