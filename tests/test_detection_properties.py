"""Property tests of the Lawson-Hanson solver behind the probe reconstructions.

``scipy.optimize.nnls`` is the oracle: on random tall problems and on the
cos^2 dictionaries of real probe traces the in-package ``_nnls`` must give
the same solution and residual.  The Karush-Kuhn-Tucker conditions, which
characterize the optimum without any oracle, are checked on their own.
The default sample grid, sized to the fit it serves, keeps the design well
conditioned and the fitted marginal exact up to nmax 200.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st

from phonon_optics import (
    MotionalState, Truncation, default_times, make_cat, make_coherent, number_distributions,
    reconstruct_single, signal,
)
from phonon_optics.detection import _nnls, _nnls_on_dictionary

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
    want_x, want_residual = scipy.optimize.nnls(a, b)
    x, residual = _nnls(a, b)
    assert np.max(np.abs(x - want_x)) <= 1e-10 * max(1.0, np.max(np.abs(want_x)))
    assert abs(residual - want_residual) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_nnls_matches_scipy_where_a_step_stops_at_the_boundary():
    # the solve on all three columns has a negative weight, so the step toward it
    # stops where the first weight reaches 0; a step past that point ends suboptimal
    a = np.array([[2.0, 2.0, 3.0], [1.0, -2.0, 3.0], [2.0, 0.0, 3.0]])
    b = np.array([2.0, -3.0, 3.0])
    want_x, want_residual = scipy.optimize.nnls(a, b)
    x, residual = _nnls(a, b)
    assert np.max(np.abs(x - want_x)) <= 1e-10 and abs(residual - want_residual) <= 1e-10


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
    want, want_residual = scipy.optimize.nnls(design, trace.values)
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


DESIGN_COND_BOUND = 150.0  # the sized grid's cond is 72, 91 and 141 at m_max 100, 127, 200


def probed_state(kind, nmax, seed):
    """A coherent, cat or sparse random state at cutoff nmax."""
    rng = np.random.default_rng(seed)
    trunc = Truncation(nmax)
    if kind == "coherent":  # mean phonons up to about nmax / 4
        radius = rng.uniform(0.0, 0.5 * np.sqrt(nmax))
        return make_coherent(radius * np.exp(2j * np.pi * rng.random()),
                             rng.uniform(0.0, radius) * 1j, trunc)
    if kind == "cat":
        return make_cat(rng.uniform(0.1, 0.5 * np.sqrt(nmax) + 0.1), ("even", "odd")[seed % 2],
                        "cr"[seed // 2 % 2], trunc)
    amps = np.zeros(trunc.dim, dtype=complex)
    picks = rng.choice(trunc.dim, size=min(trunc.dim, 6), replace=False)
    amps[picks] = rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size)
    return MotionalState(trunc, amps / np.linalg.norm(amps))


@settings(max_examples=30)
@given(seeds, st.integers(0, 200), st.sampled_from(["coherent", "cat", "sparse"]),
       st.sampled_from("cr"))
def test_default_grid_fits_every_line_up_to_nmax_200(seed, nmax, kind, mode):
    # the fixed 256-sample grid gave cond 5.8e3 at m_max 100 and 5.0e15 at 200
    assume(nmax or kind != "cat" or seed % 2 == 0)  # an odd cat has no amplitude at nmax 0
    state = probed_state(kind, nmax, seed)
    times = default_times(1.0, n_weights=nmax + 1)
    design = 0.5 * (1.0 + np.cos(np.outer(times, 2.0 * np.sqrt(np.arange(nmax + 1)))))
    assert np.linalg.cond(design) < DESIGN_COND_BOUND
    fit = reconstruct_single(signal(state, 1.0, times, "single", mode), nmax)
    assert np.max(np.abs(fit.p - number_distributions(state).marginal(mode))) <= 1e-10
