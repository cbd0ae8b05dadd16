"""Shared test settings and fixtures.

Property tests run under a fixed hypothesis profile: derandomized, so a
run draws the same examples every time, and without a per-example
deadline, so timing noise on a busy host cannot fail them.  The
``drawn_blocks`` fixture counts the rotation blocks a passive operator
builds.
"""

import pytest
from hypothesis import settings

settings.register_profile("phonon-optics", derandomize=True, deadline=None)
settings.load_profile("phonon-optics")


@pytest.fixture
def drawn_blocks(monkeypatch):
    """Count the Wigner blocks that passive rotations draw.

    ``operators._small_d`` is wrapped so that each call appends one entry,
    the number of blocks it has yielded so far.
    """
    from phonon_optics import operators

    small_d = operators._small_d
    counts = []

    def counting(beta, n_total_max):
        counts.append(0)
        for block in small_d(beta, n_total_max):
            counts[-1] += 1
            yield block

    monkeypatch.setattr(operators, "_small_d", counting)
    return counts
