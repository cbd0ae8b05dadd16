"""Property tests of the report JSON.

``ReportRecord.to_json`` lists only the pairs (m, n) with p = |c_mn|^2 above
``WEIGHT_FLOOR**2`` (1e-60), in (total, m) order; the rest is rounding
noise of unit-norm amplitudes.  A reader rebuilds the joint distribution by
filling the missing pairs with 0.  Its ``jz`` and ``mean_jz`` are one number,
and its marginals are the sums of p over each mode's phonon number.
Programs start from coherent, cat and Fock states at cutoffs up to nmax 300
and pass through a random chain of splitters and phase shifters, so most
pairs hold weights far below the floor or exact zeros.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from phonon_optics import number_distributions, seqlang  # noqa: E402
from phonon_optics.fockspace import WEIGHT_FLOOR  # noqa: E402

FLOOR = WEIGHT_FLOOR**2  # 1e-60

parts = st.floats(-4.0, 4.0)
elements = st.tuples(
    st.sampled_from(["bs1", "bs2", "ps c", "ps r"]), st.floats(-4 * math.pi, 4 * math.pi)
)


@st.composite
def init_clauses(draw):
    nmax = draw(st.sampled_from([3, 20, 80, 300]))
    kind = draw(st.sampled_from(["coherent", "cat", "fock"]))
    if kind == "coherent":
        body = " ".join(repr(draw(parts)) for _ in range(4))
    elif kind == "cat":  # |alpha| >= 0.5, so the odd cat has a norm
        re, im = draw(st.floats(0.5, 4.0)), draw(parts)
        body = f"{re!r} {im!r} {draw(st.sampled_from(['even', 'odd']))} "
        body += draw(st.sampled_from(["c", "r"]))
    else:
        m = draw(st.integers(0, nmax))
        body = f"{m} {draw(st.integers(0, nmax - m))}"
    return f"init {kind} {body} nmax {nmax}"


def _report(init, chain):
    """The final state of ``init`` and ``chain`` and its one report's JSON."""
    text = "\n".join([init, *(f"{verb} {angle!r}" for verb, angle in chain), "report"])
    result = seqlang.execute(seqlang.parse(text))
    (record,) = result.records
    return result.final_state, json.loads(record.to_json())


programs = (init_clauses(), st.lists(elements, min_size=1, max_size=3))


@settings(max_examples=20)
@given(*programs)
def test_sparse_rows_rebuild_the_distribution(init, chain):
    state, data = _report(init, chain)
    dist = number_distributions(state)
    trunc = state.trunc

    rebuilt = np.zeros(trunc.dim)
    for m, n, p in data["p"]:
        rebuilt[trunc.index(m, n)] = p
    omitted = dist.p - rebuilt
    assert np.max(np.abs(omitted)) <= FLOOR
    assert float(omitted.sum()) <= trunc.dim * FLOOR
    assert data["p_m"] == dist.p_m.tolist() and data["p_n"] == dist.p_n.tolist()


@settings(max_examples=20)
@given(*programs)
def test_a_report_reads_one_distribution(init, chain):
    state, data = _report(init, chain)
    assert data["jz"] == data["mean_jz"]  # bit for bit: one number, written twice

    ms, ns = state.trunc.mode_numbers()
    p = np.abs(state.amps) ** 2
    heavy = p > FLOOR
    assert data["p"] == [list(row) for row in zip(*(a[heavy].tolist() for a in (ms, ns, p)))]

    size = state.trunc.n_total_max + 1
    for key, numbers in (("p_m", ms), ("p_n", ns)):
        want = np.zeros(size)
        np.add.at(want, numbers, p)
        np.testing.assert_allclose(data[key], want, rtol=1e-15, atol=0.0)
