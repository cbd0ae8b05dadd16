"""Mach-Zehnder interferometer on the two vibrational modes.

The interferometer is temporal: a 50/50 splitter, a phase phi on the
center-of-mass mode, and a second 50/50 splitter, all realized as
U = exp(+i (pi/2) Jx) e^{i phi a+ a} exp(+i (pi/2) Jx).  The phonon-number
difference (Jz) of the output carries the phase.

The three factors are passive, so ``mz_unitary`` multiplies their 2x2
one-phonon matrices into one operator and ``mz_output`` propagates a state
through it with a single Jx rotation.  The statistics need no propagation:
e^{i phi a+ a} = e^{i phi N/2} e^{i phi Jz} with N central, so in the
Heisenberg picture U+ Jz U = sin(phi) Jx - cos(phi) Jz (Yurke, McCall &
Klauder, PRA 33, 4033 (1986)).  This is exact on the truncated space,
because each fixed-N block is a spin-N/2 irrep.  Five moments of the input
state then give <Jz>, <Jz^2> and the exact slope d<Jz>/dphi at every
phase, for arbitrary input states.
"""

import math
import operator
from typing import Iterable

import numpy as np

from .fockspace import MotionalState, Truncation, _apply_jx, _finite, _Record, expect
from .operators import UnitaryOperator, apply, beam_splitter, phase_shifter


class InterferometerReport(_Record):
    """Output statistics at one phase setting.

    delta_phi is sqrt(var_jz) / |d<Jz>/dphi|, or +inf where the signal slope
    vanishes (|slope| below 1e-14).  var_jz is nonnegative up to rounding, as
    the property ``test_sweep_variance_is_nonnegative`` holds to -1e-12.
    """

    __slots__ = ("phi", "mean_jz", "mean_jz2", "var_jz", "dmeanjz_dphi", "delta_phi")


SWEEP_CSV_HEADER = ",".join(InterferometerReport.__slots__)  # the sweep's CSV columns


def mz_unitary(phi: float, trunc: Truncation) -> UnitaryOperator:
    """The whole interferometer at phase phi as one passive operator."""
    half = beam_splitter("b1", -math.pi / 2.0, trunc)  # exp(+i (pi/2) Jx)
    return half @ phase_shifter("c", phi, trunc) @ half


def mz_output(in_state: MotionalState, phi: float) -> MotionalState:
    """Push a motional state through the interferometer at phase phi."""
    return apply(mz_unitary(phi, in_state.trunc), in_state)


def mz_report(in_state: MotionalState, phi: float) -> InterferometerReport:
    """Statistics of the output Jz plus the propagated phase error.

    The slope d<Jz>/dphi is exact: it is read from the same rotated moments
    as <Jz>, so no finite difference is taken.
    """
    return phase_sweep(in_state, [phi])[0]


def phase_sweep(
    in_state: MotionalState, phis: Iterable[float]
) -> list[InterferometerReport]:
    """One report per grid point, ordered like the grid.

    Five input moments, <Jx> and <Jz> from ``expect`` and the (co)variances
    of Jx and Jz, are computed once; every grid point is then a rotation of
    them, so at phi = 0 mean_jz is -<Jz> and dmeanjz_dphi <Jx>, bit for bit.
    """
    grid = np.array([_finite(phi, "phases") for phi in phis], dtype=np.float64)
    if grid.size == 0:
        raise ValueError("phase grid must be nonempty")

    amps = in_state.amps
    ms, ns = in_state.trunc.mode_numbers()
    jz_diag = 0.5 * (ms - ns)
    jx_amps = _apply_jx(amps, in_state.trunc)
    jx, jz = expect(in_state, "jx"), expect(in_state, "jz")
    # Central second moments, so no grid point subtracts <Jz>^2 from <Jz^2>.
    dx = jx_amps - jx * amps
    dz = (jz_diag - jz) * amps
    vxx = np.vdot(dx, dx).real
    vzz = np.vdot(dz, dz).real
    vxz = np.vdot(dx, dz).real

    c, s = np.cos(grid), np.sin(grid)
    mean = s * jx - c * jz
    var = s * s * vxx + c * c * vzz - 2.0 * s * c * vxz
    mean2 = var + mean * mean
    slope = c * jx + s * jz
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # set to inf below
        delta = np.sqrt(np.maximum(var, 0.0)) / np.abs(slope)
    delta[np.abs(slope) < 1e-14] = math.inf
    return [
        InterferometerReport(*map(float, row))
        for row in zip(grid, mean, mean2, var, slope, delta)
    ]


def sweep_to_csv(reports: Iterable[InterferometerReport]) -> str:
    """``SWEEP_CSV_HEADER``, then each report's slots in order, at 17 significant digits."""
    row = ",".join(["{:.17g}"] * len(InterferometerReport.__slots__)).format
    fields = operator.attrgetter(*InterferometerReport.__slots__)
    return "\n".join([SWEEP_CSV_HEADER, *(row(*fields(r)) for r in reports)]) + "\n"
