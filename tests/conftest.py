"""Shared test settings.

Property tests run under a fixed hypothesis profile: derandomized, so a
run draws the same examples every time, and without a per-example
deadline, so timing noise on a busy host cannot fail them.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("phonon-optics", derandomize=True, deadline=None)
    settings.load_profile("phonon-optics")
