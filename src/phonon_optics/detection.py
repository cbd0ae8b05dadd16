"""Phonon-number detection via sideband probes on ion 2.

Three measurement schemes for the interferometer output:

1. Single-mode Jaynes-Cummings probe.  A red-sideband pulse of one mode
   makes the ground-state signal P_g(tau) = (1/2)[1 + sum_m p_m
   cos(2 lambda tau sqrt(m))].  One table, ``_probe_table``, holds those
   cosines for ``signal`` and for the fit that recovers the marginal p_m:
   the Lawson-Hanson active-set method, the population extraction of
   Meekhof et al., PRL 76, 1796 (1996), solved here in NumPy (``_nnls``),
   so detection needs no SciPy.  A uniform-grid Fourier transform would
   smear these incommensurate sqrt(m) lines, which is why the fit is a
   spectral estimate on the exact dictionary.
2. Two-mode probe.  Driving both lower sidebands couples |g, m, n> to
   |e, m-1, n-1> with Rabi angle g t sqrt(m n), so the signal only resolves
   the products k = m n.  The reconstruction therefore returns level-set
   probabilities q_k = sum_{mn=k} p_mn; distinct pairs with equal products
   are genuinely indistinguishable in this signal.
3. Direct mean-phonon readout.  A pi/2 carrier pulse on ion 2 followed by
   the dispersive conditional phase makes <sigma_x2> = -<sin(2 chi t n)>,
   which linearizes to -2 chi t <n> for small chi t.  The carrier phase
   convention |g> -> (|g> - i |e>)/sqrt(2) fixes this sign; the opposite
   convention flips it.  ``direct_mean_phonon`` returns this closed form;
   the tests run the protocol on a ``JointState`` as its reference.

The exact probe propagator ``JcmUnitary`` is the reference for ``signal``,
whose traces are exact probabilities (no shot noise).  ``jz_exact`` is the
one <Jz>: ``expect(s, "jz")``, bit for bit ``number_distributions(s).mean_jz``.
"""

import json
import math

import numpy as np

from .fockspace import (
    WEIGHT_FLOOR,
    JointState,
    MotionalState,
    Truncation,
    _MODES,
    _Record,
    _choice,
    _finite,
    _int_text,
    _integer,
    _nonnegative,
    _require_memory,
    _require_same,
    expect,
    number_distributions,
)

DEFAULT_SAMPLE_COUNT = 256
DEFAULT_ANGLE_SPAN = 8.0 * math.pi  # resolves sqrt(m) lines to m ~ 60; widened for more

_KINDS = ("single", "two")  # the probe kinds
_PROB_TOL = 1e-12
_SIGNAL_CHUNK = 32  # samples per slice of the cosine table in ``signal``
_NNLS_ITERATIONS_PER_COLUMN = 3  # SciPy's NNLS stops at 3 n iterations too
# tracemalloc reads a peak heap of about 33 B per sample for a trace (its
# times, values and their temporaries) and 24 B per sample and weight for a
# fit (the design, its temporaries and the free columns); the rest
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
        kind, mode = _choice(kind, "kind", _KINDS), _choice(mode, "mode", _MODES)
        super().__init__(times, values, _finite(coupling, "coupling", positive=True), kind, mode)

    def to_csv(self) -> str:
        rows = (f"{t:.17g},{v:.17g}" for t, v in zip(self.times, self.values))
        return "\n".join(["t,p_g", *rows]) + "\n"

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
    """Probabilities q[k] of the product value k = m * n, the most a two-mode
    probe can identify, as a dense array over k = 0..k_max."""

    __slots__ = ("q", "residual")

    def to_json(self) -> str:
        return json.dumps(
            {"q": {str(k): v for k, v in enumerate(self.q.tolist())}, "residual": self.residual}
        )


class DirectEstimate(_Record):
    """Result of the carrier-pulse + conditional-phase readout."""

    __slots__ = ("sigma_x_exact", "mean_n_linearized", "chi_t", "mode")

    def to_json(self) -> str:
        return json.dumps({"kind": "direct", **{k: getattr(self, k) for k in self.__slots__}})

    def to_csv(self) -> str:
        """A header of the field names and one row of their values."""
        values = (getattr(self, k) for k in self.__slots__)
        cells = (v if isinstance(v, str) else f"{v:.17g}" for v in values)
        return ",".join(self.__slots__) + "\n" + ",".join(cells) + "\n"


def _require_samples(n_samples: int, n_weights: int = 0) -> None:
    """Refuse a sample count that is no integer, too small to determine
    ``n_weights`` weights, or whose trace and fit design of ``n_weights``
    columns would not fit in memory, before the sample grid is built."""
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 2 * n_weights:
        raise ValueError(f"{_int_text(n_samples)} samples cannot determine {_int_text(n_weights)} "
                         f"weights; need at least {_int_text(2 * n_weights)}")
    need = n_samples * (_TRACE_BYTES_PER_SAMPLE + _FIT_BYTES_PER_SAMPLE_WEIGHT * n_weights)
    _require_memory(need, f"{_int_text(n_samples)} samples need")


def _probe_table(coupling: float, roots: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The one probe table cos(2 coupling sqrt(k) t): a row per time, a column
    per line sqrt(k) in ``roots``, neither of them empty.  A largest phase that
    is not a finite float is refused before NumPy fills the table with inf and NaN."""
    t_max = float(np.abs(times).max())
    top = 2.0 * (coupling * float(roots.max()))
    _finite(t_max * top, "probe phase 2 * coupling * sqrt(k) * t")
    return np.cos(np.outer(times, 2.0 * (coupling * roots)))


def default_times(coupling: float, n_samples: int | None = None, n_weights: int = 0) -> np.ndarray:
    """Uniform samples of coupling * t over [0, span] for a fit of ``n_weights``
    lines 2 sqrt(k), k < n_weights, checked by ``_require_samples``.  Adjacent
    lines differ by about 1/sqrt(k), so the span is 8 pi max(1, sqrt((n_weights
    - 1) / 60)) and the count, unless given, max(256, ceil(4 span sqrt(n_weights
    - 1) / pi)): 4 a period of the top line, and the fixed grid to 61 weights."""
    coupling = _finite(coupling, "coupling", positive=True)
    top = _finite(max(_nonnegative(n_weights, "n_weights") - 1, 0), "the number of weights")
    span = DEFAULT_ANGLE_SPAN * max(1.0, math.sqrt(top / 60.0))
    if n_samples is None:
        count = _finite(4.0 * span * math.sqrt(top) / math.pi, "the sample count of those weights")
        n_samples = max(DEFAULT_SAMPLE_COUNT, math.ceil(count))
    if _integer(n_samples, "n_samples") < 2:
        raise ValueError("need at least two samples")
    _require_samples(n_samples, n_weights)
    t_end = span / coupling
    if not math.isfinite(t_end):
        raise ValueError(f"coupling {coupling!r} is too small: the sample times overflow")
    return np.linspace(0.0, t_end, n_samples)


def _jcm_tables(trunc: Truncation, kind: str, mode: str):
    """(g_index, e_index, root) arrays for the coupled pairs of one probe.

    Pair k couples |g, m, n> at flat index g_index[k] to |e> and the lowered
    pair at e_index[k], both from ``Truncation.flat``: |m-1, n> for the
    single kind on mode c, |m, n-1> on mode r, and |m-1, n-1> for the
    two-mode kind.  root[k] is sqrt of the lowered phonon number (single)
    or of m n (two-mode), nonzero exactly where the partner exists.
    """
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
        g, e = np.array(js.register(2))  # a writable copy of both components
        c, s = np.cos(self.angle), np.sin(self.angle)
        g_act, e_act = g[..., self.g_index], e[..., self.e_index]
        g[..., self.g_index] = c * g_act - 1j * s * e_act
        e[..., self.e_index] = -1j * s * g_act + c * e_act
        return js.with_register(2, g, e)

    def unitarity_defect(self) -> float:
        """max |U+ U - 1| over the 2x2 rotations, in closed form: U+ U is
        (cos^2 + sin^2) times the identity, so the defect is the largest
        |cos^2 + sin^2 - 1| over ``angle``, and 0 for no angles."""
        c, s = np.cos(self.angle), np.sin(self.angle)
        return float(np.max(np.abs(c * c + s * s - 1.0), initial=0.0))


def jcm_unitary(
    coupling: float, t: float, trunc: Truncation, kind: str, mode: str = "c"
) -> JcmUnitary:
    """Exact probe propagator of duration t on the ion-2 register.

    Basis states without a partner inside the truncation (m = 0 for the
    single kind, m n = 0 for the two-mode kind, and |e> states at the
    cutoff boundary) are stationary.  A coupling, t or largest angle that
    is not finite is a ValueError naming it.
    """
    kind, mode = _choice(kind, "kind", _KINDS), _choice(mode, "mode", _MODES)
    scale = _finite(coupling, "coupling") * _finite(t, "t")
    g_idx, e_idx, root = _jcm_tables(trunc, kind, mode)
    if root.size:  # with no coupled pair there is no angle to overflow
        _finite(scale * float(root.max()), "probe angle coupling * t * sqrt(k)")
    return JcmUnitary(trunc, g_idx, e_idx, scale * root)


def jcm_propagate(
    js: JointState, coupling: float, t: float, kind: str, mode: str = "c"
) -> JointState:
    """Evolve a joint state under the probe Hamiltonian for time t."""
    return jcm_unitary(coupling, t, js.trunc, kind, mode).apply(js)


def level_sets(s: MotionalState) -> np.ndarray:
    """True q[k] = sum over pairs with m * n = k of |c_mn|^2, dense over
    k = 0..max m n; a product that no pair reaches reads 0."""
    ms, ns = s.trunc.mode_numbers()
    return np.bincount(ms * ns, weights=np.abs(s.amps) ** 2)


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
    It is (1/2)(1 + table @ p), with ``_probe_table`` and the weight p_k of
    line k the marginal p_m (single kind) or the level-set probability q_k
    (two-mode kind).  A line whose weight is rounding noise (the one floor
    rule, ``fockspace.WEIGHT_FLOOR``) gets no column in the table, so a
    sample moves by at most half the sum of those weights.
    """
    kind, mode = _choice(kind, "kind", _KINDS), _choice(mode, "mode", _MODES)
    coupling = _finite(coupling, "coupling", positive=True)
    times = np.ascontiguousarray(times, dtype=np.float64)
    p = number_distributions(out_state).marginal(mode) if kind == "single" else level_sets(out_state)
    ks = np.flatnonzero(p > WEIGHT_FLOOR**2)
    roots, p = np.sqrt(ks), p[ks]
    # a slice of samples at a time keeps the table at _SIGNAL_CHUNK rows
    values = np.empty(times.size)
    for start in range(0, times.size, _SIGNAL_CHUNK):
        stop = start + _SIGNAL_CHUNK
        values[start:stop] = _probe_table(coupling, roots, times[start:stop]) @ p
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
    ValueError after 3 n iterations, as SciPy does.
    """
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
    """Normalized nonnegative weights p_k, k < n_weights, of the probe
    dictionary (1/2)(1 + table), with the ``_probe_table`` of ``signal``, and
    the fit residual, from the Lawson-Hanson ``_nnls``.  The fit needs at
    least two samples per weight and a design that fits in memory, both
    checked before the dictionary is built.
    """
    _require_samples(trace.times.size, n_weights)
    design = 0.5 * (1.0 + _probe_table(trace.coupling, np.sqrt(np.arange(n_weights)), trace.times))
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
    p, residual = _nnls_on_dictionary(trace, _nonnegative(m_max, "m_max") + 1)
    return ReconstructedNumberDistribution(p, residual)


def reconstruct_two(trace: SignalTrace, k_max: int) -> LevelSetDistribution:
    """Fit the level-set probabilities q_k, k = 0..k_max, to a two-mode trace.

    Only the products k = m n are identifiable: pairs with equal products
    share a frequency, so the joint p_mn itself is not recoverable from
    this signal.  The fit needs at least 2 (k_max + 1) samples.
    """
    if trace.kind != "two":
        raise ValueError("reconstruct_two needs a two-mode trace")
    q, residual = _nnls_on_dictionary(trace, _nonnegative(k_max, "k_max") + 1)
    return LevelSetDistribution(q, residual)


def direct_mean_phonon(out_state: MotionalState, chi_t: float, mode: str = "c") -> DirectEstimate:
    """Mean phonon number from a single sigma_x readout at dispersive angle
    chi_t = chi * t.

    Returns the closed form -sum_k p_k sin(2 chi_t k) of the protocol's
    <sigma_x2> (carrier pi/2 pulse on ion 2, conditional phase on ``mode``)
    and its linearization <n>; the tests check it against the protocol run
    by ``carrier_half_pulse`` and ``conditional_phase`` on a joint state.
    """
    mode = _choice(mode, "mode", _MODES)
    chi_t = _finite(chi_t, "chi * t", positive=True)
    _finite(2.0 * (chi_t * out_state.trunc.n_total_max), "readout phase 2 * chi_t * nmax")
    p = number_distributions(out_state).marginal(mode)
    sigma_x = -float(np.sin(2.0 * (chi_t * np.arange(p.size))) @ p)
    return DirectEstimate(sigma_x, -sigma_x / (2.0 * chi_t), chi_t, mode)


class JzComparison(_Record):
    """Mean Jz of one state measured three independent ways.

    ``traces``, ``fits`` and ``directs`` are pairs in (c, r) mode order:
    the single-mode trace, its reconstruction and the direct readout that
    the two measured values come from.
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
    n_samples: int | None = None,
    m_max: int | None = None,
    chi_t: float = 1e-3,
) -> JzComparison:
    """<Jz> by (a) exact expectation, (b) single-mode reconstruction of both
    marginals, (c) the direct readout on both modes.  ``m_max`` is read and
    its fit's grid built by ``default_times``, which checks the coupling and
    sample count, before any readout.  The direct readouts come next: they
    cost O(nmax^2), and refuse a bad ``chi_t`` before the fits are paid for."""
    m_max = out_state.trunc.n_total_max if m_max is None else _nonnegative(m_max, "m_max")
    times = default_times(coupling, n_samples, m_max + 1)

    jz_exact = expect(out_state, "jz")
    directs = tuple(direct_mean_phonon(out_state, chi_t, mode) for mode in _MODES)
    jz_dir = 0.5 * (directs[0].mean_n_linearized - directs[1].mean_n_linearized)
    traces = tuple(signal(out_state, coupling, times, "single", mode) for mode in _MODES)
    fits = tuple(reconstruct_single(trace, m_max) for trace in traces)
    jz_rec = 0.5 * (fits[0].mean_n - fits[1].mean_n)
    return JzComparison(jz_exact, jz_rec, jz_dir, traces, fits, directs)
