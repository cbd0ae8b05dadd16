"""Property tests of the Lawson-Hanson solver behind the probe reconstructions.

``scipy.optimize.nnls`` is the oracle: on random tall problems and on the
cos^2 dictionaries of real probe traces the in-package ``_nnls`` must give
the same solution and residual.  The Karush-Kuhn-Tucker conditions, which
characterize the optimum without any oracle, are checked on their own.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
scipy_optimize = pytest.importorskip("scipy.optimize")
from hypothesis import given, strategies as st  # noqa: E402

from phonon_optics import MotionalState, Truncation, default_times, signal  # noqa: E402
from phonon_optics.detection import _nnls, _nnls_on_dictionary  # noqa: E402

seeds = st.integers(0, 2**32 - 1)


def tall_problem(seed, n, extra_rows, nonnegative):
    """A random m x n system with m >= n; uniform entries make many
    constraints active, Gaussian ones a mix."""
    rng = np.random.default_rng(seed)
    m = n + extra_rows
    a = rng.random((m, n)) if nonnegative else rng.normal(size=(m, n))
    return a, rng.normal(size=m)


@given(seeds, st.integers(1, 15), st.integers(0, 45), st.booleans())
def test_nnls_matches_scipy_on_tall_problems(seed, n, extra_rows, nonnegative):
    a, b = tall_problem(seed, n, extra_rows, nonnegative)
    want_x, want_residual = scipy_optimize.nnls(a, b)
    x, residual = _nnls(a, b)
    assert np.max(np.abs(x - want_x)) <= 1e-10 * max(1.0, np.max(np.abs(want_x)))
    assert abs(residual - want_residual) <= 1e-10 * max(1.0, np.linalg.norm(b))


@given(
    seeds, st.integers(1, 12), st.integers(0, 14), st.sampled_from(["single", "two"]),
    st.floats(0.05, 1.0),
)
def test_nnls_matches_scipy_on_probe_dictionaries(seed, nmax, k_max, kind, decay):
    # amplitudes falling as decay^(m + n) give weights over many decades,
    # like the Poisson tails of coherent states
    rng = np.random.default_rng(seed)
    trunc = Truncation(nmax)
    ms, ns = trunc.mode_numbers()
    amps = (rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)) * decay ** (ms + ns)
    state = MotionalState(trunc, amps / np.linalg.norm(amps))
    times = default_times(1.0)
    trace = signal(state, 1.0, times, kind)
    roots = np.sqrt(np.arange(k_max + 1, dtype=np.float64))

    p, residual = _nnls_on_dictionary(trace, k_max + 1)
    design = np.cos(np.outer(times, roots)) ** 2
    want, want_residual = scipy_optimize.nnls(design, trace.values)
    assert np.max(np.abs(p - want / want.sum())) <= 1e-10
    # a residual no larger than SciPy's, down to its rounding level (about
    # 1e-15) when the dictionary covers the trace; stopping early, or solving
    # without refinement, leaves it one or more orders above that
    assert residual <= want_residual + 1e-14


@given(seeds, st.integers(1, 15), st.integers(0, 45), st.booleans())
def test_nnls_meets_kkt_conditions(seed, n, extra_rows, nonnegative):
    a, b = tall_problem(seed, n, extra_rows, nonnegative)
    x, residual = _nnls(a, b)
    gradient = a.T @ (b - a @ x)  # minus the gradient of ||a x - b||^2 / 2
    tol = 1e-10 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
    assert np.all(x >= 0.0)
    assert np.all(gradient[x == 0.0] <= tol)
    assert np.all(np.abs(gradient[x > 0.0]) <= tol)
    assert residual == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-12, abs=1e-15)
