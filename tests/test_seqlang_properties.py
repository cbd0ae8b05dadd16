"""Property test of the report JSON's sparse ``p`` rows.

``ReportRecord.to_json`` lists only the pairs (m, n) with p_mn above
``WEIGHT_FLOOR**2`` (1e-60), in (total, m) order; the rest is rounding
noise of unit-norm amplitudes.  A reader rebuilds the dense table by
filling the missing pairs with 0.  Programs start from coherent, cat and
Fock states at cutoffs up to nmax 300 and pass through a random chain of
splitters and phase shifters, so most pairs hold weights far below the
floor or exact zeros.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from phonon_optics import number_distributions, seqlang  # noqa: E402
from phonon_optics.operators import WEIGHT_FLOOR  # noqa: E402

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


@settings(max_examples=20)
@given(init_clauses(), st.lists(elements, min_size=1, max_size=3))
def test_sparse_rows_rebuild_the_distribution(init, chain):
    text = "\n".join([init, *(f"{verb} {angle!r}" for verb, angle in chain), "report"])
    result = seqlang.execute(seqlang.parse(text))
    (record,) = result.records
    data = json.loads(record.to_json())
    dist = number_distributions(result.final_state)
    trunc = result.final_state.trunc

    rows = data["p"]
    ms, ns = trunc.mode_numbers()
    p_tri = dist.p_mn[ms, ns]
    heavy = p_tri > FLOOR
    assert rows == [list(row) for row in zip(*(a[heavy].tolist() for a in (ms, ns, p_tri)))]

    rebuilt = np.zeros_like(dist.p_mn)
    for m, n, p in rows:
        rebuilt[m, n] = p
    omitted = dist.p_mn - rebuilt
    assert np.max(np.abs(omitted)) <= FLOOR
    assert float(omitted.sum()) <= trunc.dim * FLOOR
    assert data["p_m"] == dist.p_m.tolist() and data["p_n"] == dist.p_n.tolist()
