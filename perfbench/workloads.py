"""Workloads of the benchmark and the closed-form check of every operation.

Each workload is a list of CLI operations (argv after ``phonon-optics``,
plus the ``.seq`` files the call reads).  Inputs are generated from the
workload seed.  Every operation carries an expectation whose ``errors``
method compares the call's stdout and artifacts with closed forms:

* ``run`` and ``sweep``: the coherent product rule.  A product coherent
  state |a>_c |b>_r (or the one-phonon state a|1,0> + b|0,1>) stays one
  under every beam splitter and phase shifter; the mode amplitudes
  (a, b) transform with the 2x2 one-phonon matrices below, and
  <Jz>, <Jx>, <Jy> = (|a|^2 - |b|^2)/2, Re(a* b), Im(a* b).  A coherent
  state has var(Jz) = (|a|^2 + |b|^2)/4 at every phase.  Probe traces and
  the direct readout are checked against the same product distribution.
* ``detect``: the three <Jz> estimates agree to ``DETECT_MAX_DEV`` and
  the exact one matches the product rule.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9  # product-rule moments, probe traces, direct readout
SLOPE_TOL = 1e-6  # sweep slope: central difference with step 1e-4
DETECT_MAX_DEV = 1e-3

HALF_PI = math.pi / 2.0

# ---------------------------------------------------------------------------
# one-phonon (2x2) matrices of the program's unitaries
# ---------------------------------------------------------------------------


def _mul(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def rot_x(theta):
    """exp(-i theta sigma_x / 2): the one-phonon matrix of exp(-i theta Jx)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return ((c, -1j * s), (-1j * s, c))


def rot_y(theta):
    """exp(-i theta sigma_y / 2): the one-phonon matrix of exp(-i theta Jy)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return ((c, -s), (s, c))


def phase(mode, phi):
    """diag(e^{i phi}, 1) on mode c, diag(1, e^{i phi}) on mode r."""
    z = complex(math.cos(phi), math.sin(phi))
    return ((z, 0j), (0j, 1 + 0j)) if mode == "c" else ((1 + 0j, 0j), (0j, z))


def mz(phi):
    """Splitter exp(+i pi/2 Jx), phase on c, splitter again."""
    half = rot_x(-HALF_PI)
    return _mul(half, _mul(phase("c", phi), half))


def mz_slope_matrix(phi):
    """d mz(phi) / d phi."""
    half = rot_x(-HALF_PI)
    z = 1j * complex(math.cos(phi), math.sin(phi))
    return _mul(half, _mul(((z, 0j), (0j, 0j)), half))


@dataclass(frozen=True)
class Modes:
    """Mode amplitudes (a, b) of a product coherent state ('coherent') or
    of the one-phonon state a|1,0> + b|0,1> ('photon')."""

    a: complex
    b: complex
    kind: str = "coherent"

    def through(self, m):
        return Modes(m[0][0] * self.a + m[0][1] * self.b,
                     m[1][0] * self.a + m[1][1] * self.b, self.kind)

    def moments(self):
        """(jx, jy, jz)."""
        cross = self.a.conjugate() * self.b
        return cross.real, cross.imag, 0.5 * (abs(self.a) ** 2 - abs(self.b) ** 2)

    @property
    def mean_n(self):
        return abs(self.a) ** 2 + abs(self.b) ** 2

    def joint_pops(self, nmax):
        """p[m, n] on the triangle m + n <= nmax, renormalized like the program."""
        p = np.zeros((nmax + 1, nmax + 1))
        if self.kind == "photon":
            p[1, 0], p[0, 1] = abs(self.a) ** 2, abs(self.b) ** 2
            return p
        k = np.arange(nmax + 1)
        lg = np.array([math.lgamma(x + 1.0) for x in k])

        def poisson(mean):
            if mean == 0.0:
                return (k == 0).astype(float)
            return np.exp(k * math.log(mean) - mean - lg)

        p = np.outer(poisson(abs(self.a) ** 2), poisson(abs(self.b) ** 2))
        p[k[:, None] + k[None, :] > nmax] = 0.0
        return p / p.sum()


def probe_signal(p, kind, coupling, times):
    """Ground-state probability of the probe ion, 1/2 (1 + sum p cos(2 g t sqrt k))."""
    size = p.shape[0]
    m, n = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    if kind == "single":
        w, k = p.sum(axis=1), np.arange(size)
    else:
        w = np.bincount((m * n).ravel(), weights=p.ravel())
        k = np.arange(w.size)
        keep = w > 0
        w, k = w[keep], k[keep]
    return 0.5 * (1.0 + np.cos(np.outer(times, 2.0 * coupling * np.sqrt(k))) @ w)


def direct_mean_n(p, mode, chi_t):
    """Linearized direct readout: <sin(2 chi_t n)> / (2 chi_t)."""
    marg = p.sum(axis=1) if mode == "c" else p.sum(axis=0)
    return float(np.sin(2.0 * chi_t * np.arange(marg.size)) @ marg) / (2.0 * chi_t)


def _close(name, got, want, tol, errors):
    if not abs(got - want) <= tol:
        errors.append(f"{name}: got {got!r}, expected {want!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI call: ``args`` is its argv, ``files`` the inputs written into
    the call's directory, ``expect`` the check of its output."""

    args: tuple
    files: tuple  # ((name, text), ...)
    expect: object

    @property
    def kind(self) -> str:
        """The subcommand."""
        return self.args[0]


_REPORT_RE = re.compile(r"^report\[(\d+)\]: jz=(\S+) jx=(\S+) jy=(\S+) -> (\S+)$", re.M)
_DIRECT_RE = re.compile(r"^direct\[(\d+)\]: mode=(\w) mean_n=(\S+) -> (\S+)$", re.M)
_TRACE_RE = re.compile(r"^trace\[(\d+)\]: kind=(\w+) samples=(\d+) -> (\S+)$", re.M)


def _read_trace(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        d = json.loads(text)
        return np.array(d["t"]), np.array(d["p_g"])
    rows = np.array([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]])
    return rows[:, 0], rows[:, 1]


@dataclass(frozen=True)
class RunExpect:
    """Program statements folded into closed-form records."""

    modes: Modes  # input state
    nmax: int
    statements: tuple  # ('bs1', theta) ('bs2', theta) ('ps', mode, phi) ('mz', phi)
    #                  ('report',) ('direct', mode, chi_t) ('jcm', kind, g, t0, t1, n)

    def errors(self, op_dir: Path, stdout: str):
        errors = []
        reports = {int(m[0]): m for m in _REPORT_RE.findall(stdout)}
        directs = {int(m[0]): m for m in _DIRECT_RE.findall(stdout)}
        traces = {int(m[0]): m for m in _TRACE_RE.findall(stdout)}
        state = self.modes
        for idx, st in enumerate(self.statements, start=1):  # index 0 is init
            verb = st[0]
            if verb == "bs1":
                state = state.through(rot_x(st[1]))
            elif verb == "bs2":
                state = state.through(rot_y(st[1]))
            elif verb == "ps":
                state = state.through(phase(st[1], st[2]))
            elif verb == "mz":
                state = state.through(mz(st[1]))
            elif verb == "report":
                if idx not in reports:
                    errors.append(f"report[{idx}] missing from stdout")
                    continue
                _, jz, jx, jy, name = reports[idx]
                want_x, want_y, want_z = state.moments()
                _close(f"report[{idx}].jz", float(jz), want_z, TOL, errors)
                _close(f"report[{idx}].jx", float(jx), want_x, TOL, errors)
                _close(f"report[{idx}].jy", float(jy), want_y, TOL, errors)
                if not (op_dir / name).is_file():
                    errors.append(f"artifact {name} missing")
            elif verb == "direct":
                if idx not in directs:
                    errors.append(f"direct[{idx}] missing from stdout")
                    continue
                want = direct_mean_n(state.joint_pops(self.nmax), st[1], st[2])
                _close(f"direct[{idx}].mean_n", float(directs[idx][2]), want, TOL, errors)
                if not (op_dir / directs[idx][3]).is_file():
                    errors.append(f"artifact {directs[idx][3]} missing")
            elif verb == "jcm":
                if idx not in traces:
                    errors.append(f"trace[{idx}] missing from stdout")
                    continue
                _, kind, g, t0, t1, n = st
                t, p_g = _read_trace(op_dir / traces[idx][3])
                want_t = np.linspace(t0, t1, n)
                want_p = probe_signal(state.joint_pops(self.nmax), kind, g, want_t)
                if t.shape != want_t.shape:
                    errors.append(f"trace[{idx}]: {t.size} samples, expected {n}")
                    continue
                _close(f"trace[{idx}].t", float(np.max(np.abs(t - want_t))), 0.0, 1e-12, errors)
                _close(f"trace[{idx}].p_g", float(np.max(np.abs(p_g - want_p))), 0.0, TOL, errors)
        return errors


@dataclass(frozen=True)
class SweepExpect:
    modes: Modes
    points: int
    out: str | None  # CSV file, or None for stdout
    phi_min: float = 0.0
    phi_max: float = 2.0 * math.pi

    def errors(self, op_dir: Path, stdout: str):
        errors = []
        text = stdout if self.out is None else (op_dir / self.out).read_text(encoding="utf-8")
        rows = text.splitlines()[1:]
        if len(rows) != self.points:
            return [f"sweep: {len(rows)} rows, expected {self.points}"]
        step = (self.phi_max - self.phi_min) / self.points
        var = self.modes.mean_n / 4.0
        for k, line in enumerate(rows):
            phi, mean_jz, mean_jz2, var_jz, slope, delta = (float(x) for x in line.split(","))
            want_phi = self.phi_min + k * step
            out = self.modes.through(mz(want_phi))
            d = self.modes.through(mz_slope_matrix(want_phi))
            want_slope = (out.a.conjugate() * d.a).real - (out.b.conjugate() * d.b).real
            want_jz = out.moments()[2]
            _close(f"row {k} phi", phi, want_phi, 1e-12, errors)
            _close(f"row {k} mean_jz", mean_jz, want_jz, TOL, errors)
            _close(f"row {k} var_jz", var_jz, var, TOL, errors)
            _close(f"row {k} mean_jz2", mean_jz2, var + want_jz**2, TOL * (1.0 + var), errors)
            _close(f"row {k} slope", slope, want_slope, SLOPE_TOL, errors)
            if abs(want_slope) > 0.1:
                want_delta = math.sqrt(var) / abs(want_slope)
                _close(f"row {k} delta_phi", delta, want_delta, 1e-4 * want_delta, errors)
            if len(errors) > 8:
                break
        return errors


_JZ_RE = re.compile(r"jz_exact=(\S+) jz_reconstructed=(\S+) jz_direct=(\S+) max_pairwise_dev=(\S+)")


@dataclass(frozen=True)
class DetectExpect:
    jz: float  # closed-form <Jz> of the detected state
    artifacts: tuple

    def errors(self, op_dir: Path, stdout: str):
        m = _JZ_RE.search(stdout)
        if m is None:
            return ["detect: no <Jz> comparison line"]
        errors = []
        _close("jz_exact", float(m[1]), self.jz, TOL, errors)
        dev = float(m[4])
        if not dev <= DETECT_MAX_DEV:
            errors.append(f"max_pairwise_dev {dev!r} exceeds {DETECT_MAX_DEV:g}")
        errors += [f"artifact {a} missing" for a in self.artifacts if not (op_dir / a).is_file()]
        return errors


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# The two README pulse programs, verbatim up to comments.
MZ_SEQ = "init coherent 0 0 2 0 nmax 40\nmz pi/3\nreport\n"
PROBE_SEQ = (
    "init fock 1 0 nmax 6\nbs2 pi/2\nreport\n"
    "jcm single 1.0 0.0 25.13 256\ndirect c 0.001\n"
)

WHY = {
    "cli-demo": "the six README calls at nmax <= 40: import and fixed per-call costs dominate",
    "large-cutoff": "run at nmax 300: three O(nmax^4) beam-splitter builds, memory and O(dim) loops dominate",
    "sweep-dense": "sweep of 1000 points at nmax 100: one build, then per-point apply and expect dominate",
}


def _cli_demo(rng, size):
    pi3 = math.pi / 3.0
    coh = Modes(0j, 2 + 0j)
    return [
        Op(("run", "mz.seq"), (("mz.seq", MZ_SEQ),),
           RunExpect(coh, 40, (("mz", pi3), ("report",)))),
        Op(("run", "probe.seq", "--format", "json"), (("probe.seq", PROBE_SEQ),),
           RunExpect(Modes(1 + 0j, 0j, "photon"), 6,
                     (("bs2", HALF_PI), ("report",), ("jcm", "single", 1.0, 0.0, 25.13, 256),
                      ("direct", "c", 0.001)))),
        Op(("sweep", "coherent 0 0 2 0 nmax 40", "--points", "64"), (),
           SweepExpect(coh, 64, None)),
        Op(("detect", "coherent 0 0 2 0 nmax 25", "--method", "single",
                      "--mz", "pi/3", "--m-max", "20"), (),
           DetectExpect(coh.through(mz(pi3)).moments()[2], ("detect_trace.csv", "detect_p.json"))),
        Op(("detect", "fock 1 1 nmax 6", "--method", "two", "--k-max", "6"), (),
           DetectExpect(0.0, ("detect_trace.csv", "detect_q.json"))),
        Op(("detect", "coherent 0 0 2 0 nmax 25", "--method", "direct", "--mz", "pi/3"), (),
           DetectExpect(coh.through(mz(pi3)).moments()[2], ("detect_direct.json",))),
    ]


def _coherent(rng, mean_lo, mean_hi):
    n = rng.uniform(mean_lo, mean_hi)
    f = rng.uniform(0.2, 0.8)
    ua, ub = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    a = math.sqrt(n * f) * complex(math.cos(ua), math.sin(ua))
    b = math.sqrt(n * (1.0 - f)) * complex(math.cos(ub), math.sin(ub))
    return Modes(a, b)


def _spec(modes, nmax):
    a, b = modes.a, modes.b
    return f"coherent {a.real!r} {a.imag!r} {b.real!r} {b.imag!r} nmax {nmax}"


def _large_cutoff(rng, size):
    nmax, mean = (300, 25.0) if size == "full" else (40, 4.0)
    modes = _coherent(rng, mean - 3.0, mean + 3.0)
    theta1 = rng.uniform(0.3, 2.8)
    theta2 = theta1
    while abs(theta2 - theta1) < 0.2:
        theta2 = rng.uniform(0.3, 2.8)
    statements = (
        ("bs1", theta1),
        ("bs2", theta2),
        ("ps", rng.choice("cr"), rng.uniform(-math.pi, math.pi)),
        ("mz", rng.uniform(0.2, 3.0)),
        ("report",),
        ("direct", "c", 0.001),
        ("jcm", "two", 1.0, 0.0, rng.uniform(5.0, 15.0), 256),
    )
    lines = ["init " + _spec(modes, nmax)]
    for st in statements:
        lines.append(" ".join(x if isinstance(x, str) else repr(x) for x in st))
    text = "\n".join(lines) + "\n"
    return [Op(("run", "large.seq", "--format", "json"), (("large.seq", text),),
               RunExpect(modes, nmax, statements))]


def _sweep_dense(rng, size):
    nmax, mean, points = (100, 20.0, 1000) if size == "full" else (30, 4.0, 16)
    modes = _coherent(rng, mean - 2.0, mean + 2.0)
    return [Op(("sweep", _spec(modes, nmax), "--points", str(points), "--out", "sweep.csv"),
               (), SweepExpect(modes, points, "sweep.csv"))]


_BUILDERS = {"cli-demo": _cli_demo, "large-cutoff": _large_cutoff, "sweep-dense": _sweep_dense}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, size: str = "full") -> list[Op]:
    """Operation list of one pass; the same (name, seed, size) gives the same list."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), size)
