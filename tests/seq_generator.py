"""Random valid pulse programs for parser round-trip properties."""

import numpy as np

from phonon_optics.seqlang import Angle, PulseProgram, Statement


def random_angle(rng):
    if rng.random() < 0.5:
        num = int(rng.integers(-8, 9))
        den = int(rng.integers(1, 9))
        return Angle.from_pi(num, den)
    return Angle(float(np.round(rng.normal(), 6)))


def random_program(rng) -> PulseProgram:
    nmax = int(rng.integers(2, 12))
    kind = rng.choice(["fock", "coherent", "cat"])
    if kind == "fock":
        m = int(rng.integers(0, nmax + 1))
        n = int(rng.integers(0, nmax - m + 1))
        state = ("fock", m, n)
    elif kind == "coherent":
        state = ("coherent", *(float(np.round(rng.normal(), 4)) for _ in range(4)))
    else:
        state = (
            "cat",
            float(np.round(rng.normal(), 4)),
            float(np.round(rng.normal(), 4)),
            str(rng.choice(["even", "odd"])),
            str(rng.choice(["c", "r"])),
        )
    statements = [Statement("init", (*state, "nmax", nmax))]
    for _ in range(int(rng.integers(0, 8))):
        verb = str(
            rng.choice(["bs1", "bs2", "ps", "cphase", "mz", "jcm", "direct", "report"])
        )
        if verb in ("bs1", "bs2"):
            args = (random_angle(rng),)
        elif verb in ("ps", "cphase"):
            args = (str(rng.choice(["c", "r"])), random_angle(rng))
        elif verb == "mz":
            args = (random_angle(rng),)
        elif verb == "jcm":
            t0 = float(np.round(rng.uniform(0, 5), 4))
            args = (
                str(rng.choice(["single", "two"])),
                float(np.round(rng.uniform(0.1, 3), 4)),
                t0,
                t0 + float(np.round(rng.uniform(0.5, 20), 4)),
                int(rng.integers(2, 300)),
            )
        elif verb == "direct":
            args = (
                str(rng.choice(["c", "r"])),
                float(rng.uniform(1e-4, 0.01)),
            )
        else:
            args = ()
        statements.append(Statement(verb, args))
    return PulseProgram(tuple(statements), tuple(range(1, len(statements) + 1)))
