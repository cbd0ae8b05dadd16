"""Truncated two-mode Fock space for the vibrational modes of two trapped ions.

The first index m counts phonons of the center-of-mass mode (label ``c``),
the second index n counts phonons of the breathing mode (label ``r``).
States live on the triangular basis {|m, n> : m + n <= n_total_max},
enumerated in lexicographic (total, m) order so that every fixed-total
subspace is one contiguous block.  Keeping complete total-number blocks is
what makes number-conserving unitaries exactly unitary on the truncated
space, with no leakage at the cutoff.

This module is the one home of the basis and its invariants; ``operators``
and ``detection`` call it instead of restating them:

* the layout: ``Truncation.flat`` gives the flat index t(t+1)/2 + m of
  |m, n> (t = m + n), and ``index``, ``block``, ``dim`` and
  ``mode_numbers`` all derive from it;
* the mode labels: ``Truncation.phonons`` maps ``c`` to m and ``r`` to n,
  and ``_require_mode`` refuses any other label;
* ``_require_same`` refuses two objects on different truncations;
* ``_unit_amps`` casts, checks and freezes the amplitudes of every state
  class, ``_frozen`` makes any array read-only and ``_require_tail``
  checks a discarded probability.

Qubit registers use the convention sigma_z |g> = -|g>, sigma_z |e> = +|e>,
with basis index 0 = |g> and 1 = |e>.

Everything here is immutable after construction and all operations are pure
functions, so concurrent read access needs no synchronization.  Every
read-only class of the package subclasses ``_Record``, which stores one value
per ``__slots__`` field and, through ``_read_only``, refuses every later
assignment or deletion; a class that checks its arguments does so in its own
``__init__`` and then passes them on.  Only ``Truncation`` compares by value.
"""

import json
import math
import operator
import os
from functools import lru_cache
from typing import Sequence

import numpy as np

# States whose discarded probability exceeds this are flagged but usable.
DEFAULT_TAIL_TOLERANCE = 1e-10

_NORM_TOL = 1e-12

_OBSERVABLES = ("jx", "jy", "jz", "jz2", "nc", "nr")

_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
_CGROUP_V1_LIMIT = "/sys/fs/cgroup/memory/memory.limit_in_bytes"


def _memory_limit_bytes() -> int | None:
    """The smallest of physical RAM (sysconf), a numeric cgroup v2
    ``memory.max`` and the cgroup v1 ``memory.limit_in_bytes``, or None
    where none gives an answer.

    ``memory.max`` reads ``max`` when the group has no limit; that value and
    a missing file are ignored.  cgroup v1 writes "no limit" as a number near
    2**63, which the minimum drops.
    """
    limits = []
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        pass
    for path in (_CGROUP_MEMORY_MAX, _CGROUP_V1_LIMIT):
        try:
            with open(path, encoding="ascii") as f:
                limits.append(int(f.read()))
        except (OSError, ValueError):  # no such file, or "max"
            pass
    return min(limits, default=None)


def _require_memory(need: int, request: str) -> None:
    """Refuse, before anything is allocated, a request that needs ``need``
    bytes, more than ``_memory_limit_bytes()``.

    ``request`` opens the error message and says what needs how much.
    """
    limit = _memory_limit_bytes()
    if limit is not None and need > limit:
        raise ValueError(f"{request}, more than the memory limit of {limit:.3g} bytes")


def _read_only(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of ``_Record``."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class _Record:
    """Base of the package's read-only classes.

    A subclass names its fields in ``__slots__``; ``__init__`` stores one
    value per slot, in slot order, and nothing may set or delete a field
    afterwards.  It generates no ``__eq__``, ``__repr__`` or ``__hash__``.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _read_only

    def __init__(self, *values) -> None:
        slots = type(self).__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} values, got {len(values)}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.setflags(write=False)
    return arr


def _require_mode(mode: str) -> None:
    if mode not in ("c", "r"):
        raise ValueError(f"mode must be 'c' or 'r', got {mode!r}")


def _require_same(a, b) -> None:
    """Refuse two objects (states or operators) on different truncations."""
    if a.trunc != b.trunc:
        raise ValueError(
            f"truncation mismatch: n_total_max = {a.trunc.n_total_max} "
            f"vs {b.trunc.n_total_max}"
        )


def _require_tail(tail_mass: float) -> None:
    if not 0.0 <= tail_mass <= 1.0:
        raise ValueError(f"tail_mass must lie in [0, 1], got {tail_mass}")


def _unit_amps(amps, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``amps`` as a read-only contiguous complex array of the given shape,
    refused unless it is finite with unit norm to 1e-12; ``what`` names the
    state in the error messages."""
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    if amps.shape != shape:
        raise ValueError(f"{what} amplitudes have shape {amps.shape}, expected {shape}")
    if not np.isfinite(amps).all():
        raise ValueError(f"{what} has non-finite amplitudes")
    norm2 = float(np.vdot(amps, amps).real)
    if abs(norm2 - 1.0) > _NORM_TOL:
        raise ValueError(f"{what} not normalized: norm^2 = {norm2!r}")
    return _frozen(amps)


@lru_cache(maxsize=None)
def _mode_numbers(n_total_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (ms, ns) listing the basis pairs in (total, m) order."""
    totals = np.repeat(np.arange(n_total_max + 1), np.arange(1, n_total_max + 2))
    ms = np.arange(totals.size) - Truncation.flat(0, totals)
    return _frozen(ms), _frozen(totals - ms)


class Truncation(_Record):
    """Total-phonon cutoff: basis pairs (m, n) with m + n <= n_total_max.

    Construction refuses a non-integer or negative cutoff, and one whose
    state arrays would exceed ``_memory_limit_bytes()``, so an absurd
    cutoff fails before anything is allocated.
    """

    __slots__ = ("n_total_max",)

    def __init__(self, n_total_max: int) -> None:
        try:
            n = operator.index(n_total_max)
        except TypeError:
            raise ValueError(f"n_total_max must be an integer, got {n_total_max!r}") from None
        if n < 0:
            raise ValueError(f"n_total_max must be >= 0, got {n}")
        # A state allocates, per basis state, its complex128 amplitudes and
        # the two int64 arrays of mode_numbers, and number_distributions
        # fills a float64 (nmax + 1)^2 table: 32 dim + 8 (nmax + 1)^2 bytes.
        need = 32 * self.flat(0, n + 1) + 8 * (n + 1) ** 2
        _require_memory(need, f"n_total_max = {n} needs {need:.3g} bytes of state arrays")
        super().__init__(n)

    def __eq__(self, other):
        if not isinstance(other, Truncation):
            return NotImplemented
        return self.n_total_max == other.n_total_max

    def __hash__(self) -> int:  # defining __eq__ alone would drop it
        return hash(self.n_total_max)

    @staticmethod
    def flat(m, n):
        """Flat index t(t+1)/2 + m of |m, n>, t = m + n, for ints or integer
        arrays; unchecked, so the caller keeps (m, n) inside the truncation."""
        total = m + n
        return total * (total + 1) // 2 + m

    @property
    def dim(self) -> int:
        return self.flat(0, self.n_total_max + 1)

    def contains(self, m: int, n: int) -> bool:
        return m >= 0 and n >= 0 and m + n <= self.n_total_max

    def index(self, m: int, n: int) -> int:
        """Flat index of |m, n>; rejects pairs outside the truncation."""
        if not self.contains(m, n):
            raise ValueError(
                f"(m, n) = ({m}, {n}) outside truncation: need m, n >= 0 and "
                f"m + n <= {self.n_total_max}"
            )
        return self.flat(m, n)

    def block(self, total: int) -> slice:
        """Slice of the flat array holding the m + n = total subspace."""
        if not 0 <= total <= self.n_total_max:
            raise ValueError(f"no block for total = {total}")
        return slice(self.flat(0, total), self.flat(0, total + 1))

    def mode_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        return _mode_numbers(self.n_total_max)

    def phonons(self, mode: str) -> np.ndarray:
        """Phonon numbers of mode ``c`` (m) or ``r`` (n) over the basis."""
        _require_mode(mode)
        ms, ns = self.mode_numbers()
        return ms if mode == "c" else ns


class MotionalState(_Record):
    """Pure two-mode motional state on a triangular truncated basis.

    Attributes
    ----------
    trunc : Truncation
        The basis cutoff.
    amps : np.ndarray
        Complex amplitudes c_mn in (total, m) order, unit norm within 1e-12.
    tail_mass : float
        Probability discarded when the state was truncated at construction.
    """

    __slots__ = ("trunc", "amps", "tail_mass")

    def __init__(self, trunc: Truncation, amps: np.ndarray, tail_mass: float = 0.0) -> None:
        amps = _unit_amps(amps, (trunc.dim,), "state")
        _require_tail(tail_mass)
        super().__init__(trunc, amps, tail_mass)

    @property
    def flagged(self) -> bool:
        """True when tail_mass exceeds DEFAULT_TAIL_TOLERANCE."""
        return self.tail_mass > DEFAULT_TAIL_TOLERANCE

    def amplitude(self, m: int, n: int) -> complex:
        return complex(self.amps[self.trunc.index(m, n)])

    def with_amps(self, amps: np.ndarray) -> "MotionalState":
        """Same truncation and bookkeeping, new amplitudes."""
        return MotionalState(self.trunc, amps, self.tail_mass)


def make_fock(m: int, n: int, trunc: Truncation) -> MotionalState:
    """Number state |m, n>."""
    amps = np.zeros(trunc.dim, dtype=np.complex128)
    amps[trunc.index(m, n)] = 1.0
    return MotionalState(trunc, amps)


def _log_factorials(n_max: int) -> np.ndarray:
    """log k! for k = 0..n_max."""
    return np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])


def _coherent_mode_amps(alpha: complex, n_max: int) -> np.ndarray:
    """Amplitudes <k|alpha> for k = 0..n_max.

    The modulus exp(-|alpha|^2/2) |alpha|^k / sqrt(k!) is formed in log
    space, so it does not underflow for large |alpha|; the phase is the
    running product of alpha / |alpha|, so a real or imaginary alpha keeps
    exact signs.
    """
    r = abs(alpha)
    if r == 0.0:
        out = np.zeros(n_max + 1, dtype=np.complex128)
        out[0] = 1.0
        return out
    k = np.arange(n_max + 1)
    modulus = np.exp(k * math.log(r) - 0.5 * r * r - 0.5 * _log_factorials(n_max))
    steps = np.full(n_max + 1, alpha / r, dtype=np.complex128)
    steps[0] = 1.0
    return modulus * np.cumprod(steps)


def _abs2(alpha: complex) -> float:
    """|alpha|^2 of a coherent amplitude; ValueError unless it is finite."""
    try:
        r2 = abs(alpha) ** 2
    except OverflowError:
        r2 = math.inf
    if not math.isfinite(r2):
        raise ValueError(f"coherent amplitude {alpha!r} is out of range: |alpha|^2 must be finite")
    return r2


def _coherent_overlap(a: complex, b: complex) -> complex:
    """Exact <a|b> for coherent states."""
    return np.exp(-0.5 * (_abs2(a) + _abs2(b)) + np.conj(a) * b)


def _cat_weight(alpha: complex, sign: float) -> float:
    """Weight w of both terms of the normalized cat w (|alpha> + sign |-alpha>)."""
    norm2 = 2.0 * (1.0 + sign * math.exp(-2.0 * _abs2(alpha)))
    if norm2 <= 1e-300:
        raise ValueError("odd cat with alpha = 0 is the zero vector")
    return 1.0 / math.sqrt(norm2)


def coherent_superposition(
    terms: Sequence[tuple[complex, complex, complex]], trunc: Truncation
) -> MotionalState:
    """Normalized truncation of sum_k w_k |alpha_k>_c |beta_k>_r.

    Parameters
    ----------
    terms : sequence of (weight, alpha, beta)
        Weights are the exact (untruncated) expansion coefficients.
    trunc : Truncation

    The discarded probability is computed against the exact norm of the
    untruncated superposition (closed-form coherent overlaps), so tail_mass
    is meaningful for non-orthogonal superpositions such as cat states.  The
    norm comes first, so an amplitude whose |alpha|^2 is not finite is
    refused before any array is built.
    """
    exact_norm2 = 0.0
    for wj, aj, bj in terms:
        for wk, ak, bk in terms:
            exact_norm2 += (
                np.conj(complex(wj))
                * complex(wk)
                * _coherent_overlap(aj, ak)
                * _coherent_overlap(bj, bk)
            ).real
    if exact_norm2 <= 1e-300:
        raise ValueError("superposition has zero norm")

    ms, ns = trunc.mode_numbers()
    vec = np.zeros(trunc.dim, dtype=np.complex128)
    for w, alpha, beta in terms:
        ca = _coherent_mode_amps(complex(alpha), trunc.n_total_max)
        cb = _coherent_mode_amps(complex(beta), trunc.n_total_max)
        vec += complex(w) * ca[ms] * cb[ns]

    retained = float(np.vdot(vec, vec).real)
    if retained <= 0.0:
        raise ValueError("all amplitude mass lies outside the truncation")
    tail = min(1.0, max(0.0, 1.0 - retained / exact_norm2))
    return MotionalState(trunc, vec / math.sqrt(retained), tail)


def make_coherent(alpha: complex, beta: complex, trunc: Truncation) -> MotionalState:
    """Product coherent state |alpha>_c |beta>_r, renormalized after truncation."""
    return coherent_superposition([(1.0, alpha, beta)], trunc)


def make_cat(alpha: complex, parity: str, mode: str, trunc: Truncation) -> MotionalState:
    """Even or odd coherent superposition in one mode, vacuum in the other.

    The state is N (|alpha> + s |-alpha>) with s = +1 for parity ``"even"``
    and s = -1 for ``"odd"``; N = [2 (1 + s exp(-2|alpha|^2))]^(-1/2).  Even
    cats have support only on even phonon numbers, odd cats only on odd ones.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    _require_mode(mode)
    sign = 1.0 if parity == "even" else -1.0
    weight = _cat_weight(alpha, sign)
    if mode == "c":
        terms = [(weight, alpha, 0.0), (sign * weight, -alpha, 0.0)]
    else:
        terms = [(weight, 0.0, alpha), (sign * weight, 0.0, -alpha)]
    return coherent_superposition(terms, trunc)


def inner(a: MotionalState, b: MotionalState) -> complex:
    """<a|b>; both states must share a truncation."""
    _require_same(a, b)
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: MotionalState, b: MotionalState) -> float:
    """|<a|b>|^2, the phase-insensitive overlap."""
    return abs(inner(a, b)) ** 2


class JointDistribution(_Record):
    """Joint and marginal phonon-number distributions of a motional state.

    ``p_mn`` is the square (n_total_max + 1)^2 array, zero outside the
    triangle; ``p_m`` and ``p_n`` are its marginals.
    """

    __slots__ = ("p_mn", "p_m", "p_n", "mean_jz")

    def __init__(self, p_mn: np.ndarray, p_m: np.ndarray, p_n: np.ndarray,
                 mean_jz: float) -> None:
        p_mn, p_m, p_n = (_frozen(np.asarray(p, dtype=np.float64)) for p in (p_mn, p_m, p_n))
        super().__init__(p_mn, p_m, p_n, mean_jz)

    def triangle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays m, n and p_mn over every basis pair, in (total, m) order."""
        ms, ns = _mode_numbers(self.p_m.shape[0] - 1)
        return ms, ns, self.p_mn[ms, ns]

    def to_csv(self) -> str:
        """Rows "m,n,p" for every basis pair, in (total, m) order."""
        rows = zip(*(a.tolist() for a in self.triangle()))
        return "m,n,p\n" + "".join(f"{m},{n},{p:.17g}\n" for m, n, p in rows)


def number_distributions(s: MotionalState) -> JointDistribution:
    """Joint p_mn = |c_mn|^2 with marginals and the mean of (Nc - Nr)/2."""
    ms, ns = s.trunc.mode_numbers()
    size = s.trunc.n_total_max + 1
    p_mn = np.zeros((size, size), dtype=np.float64)
    p_mn[ms, ns] = np.abs(s.amps) ** 2
    p_m = p_mn.sum(axis=1)
    p_n = p_mn.sum(axis=0)
    k = np.arange(size)
    mean_jz = 0.5 * (float(k @ p_m) - float(k @ p_n))
    return JointDistribution(p_mn, p_m, p_n, mean_jz)


@lru_cache(maxsize=None)
def _hop_tables(n_total_max: int):
    """(src, coef) of a+ b on the triangular basis: a+ b |m, n> =
    coef |m + 1, n - 1> for every |m, n> at flat index src with n >= 1.

    The total is kept, so with the flat index t(t+1)/2 + m the image sits
    at src + 1.  a b+ = (a+ b)+ is the same table read backwards, from
    src + 1 to src with the same coefficient sqrt((m + 1) n).
    """
    ms, ns = _mode_numbers(n_total_max)
    src = np.flatnonzero(ns >= 1)
    return src, np.sqrt((ms[src] + 1.0) * ns[src])


def _apply_jx(amps: np.ndarray, trunc: Truncation) -> np.ndarray:
    src, coef = _hop_tables(trunc.n_total_max)
    out = np.zeros_like(amps)
    out[src + 1] += 0.5 * coef * amps[src]
    out[src] += 0.5 * coef * amps[src + 1]
    return out


def expect(s: MotionalState, obs: str) -> float:
    """Expectation value of a Schwinger or number observable.

    obs is one of ``jx``, ``jy``, ``jz``, ``jz2``, ``nc``, ``nr`` (case
    insensitive).  All are Hermitian, so the result is real.
    """
    key = obs.strip().lower()
    if key not in _OBSERVABLES:
        raise ValueError(f"unknown observable {obs!r}; expected one of {_OBSERVABLES}")
    ms, ns = s.trunc.mode_numbers()
    p = np.abs(s.amps) ** 2
    if key == "nc":
        return float(ms @ p)
    if key == "nr":
        return float(ns @ p)
    if key == "jz":
        return float((0.5 * (ms - ns)) @ p)
    if key == "jz2":
        return float((0.25 * (ms - ns) ** 2) @ p)
    # <Jx> and <Jy> are the real and imaginary parts of <a+ b>
    src, coef = _hop_tables(s.trunc.n_total_max)
    hop = np.vdot(s.amps[src + 1], coef * s.amps[src])
    return float(hop.real if key == "jx" else hop.imag)


def reduced_purity(s: MotionalState) -> float:
    """Purity of either single-mode reduced density matrix (they coincide)."""
    ms, ns = s.trunc.mode_numbers()
    size = s.trunc.n_total_max + 1
    coeff = np.zeros((size, size), dtype=np.complex128)
    coeff[ms, ns] = s.amps
    gram = coeff.conj().T @ coeff
    return float(np.sum(np.abs(gram) ** 2))


# ---------------------------------------------------------------------------
# qubit registers and joint ion-motion states
# ---------------------------------------------------------------------------


class QubitState(_Record):
    """Internal two-level state, amplitudes ordered (g, e)."""

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray) -> None:
        super().__init__(_unit_amps(amps, (2,), "qubit state"))

    @classmethod
    def of(cls, g: complex, e: complex) -> "QubitState":
        return cls(np.array([g, e], dtype=np.complex128))

    @classmethod
    def ground(cls) -> "QubitState":
        return cls.of(1.0, 0.0)

    @classmethod
    def excited(cls) -> "QubitState":
        return cls.of(0.0, 1.0)

    @classmethod
    def plus(cls) -> "QubitState":
        """sigma_x = +1 eigenstate (|g> + |e>)/sqrt(2)."""
        inv = 1.0 / math.sqrt(2.0)
        return cls.of(inv, inv)

    @classmethod
    def minus(cls) -> "QubitState":
        """sigma_x = -1 eigenstate (|g> - |e>)/sqrt(2)."""
        inv = 1.0 / math.sqrt(2.0)
        return cls.of(inv, -inv)

    def sigma_x_eigenvalue(self) -> int | None:
        """+1 or -1 when the state is a sigma_x eigenstate to 1e-12, else None."""
        g, e = self.amps
        if abs(g - e) <= 1e-12:
            return 1
        if abs(g + e) <= 1e-12:
            return -1
        return None


class JointState(_Record):
    """One or two qubit registers tensored with a motional state.

    ``ions`` records which physical ions carry a register, in increasing
    order, e.g. (2,) or (1, 2).  ``amps`` has shape (2,)*len(ions) + (dim,),
    qubit axes first (ion 1 before ion 2), motional axis last.  ``tail_mass``
    is carried over from the motional state.
    """

    __slots__ = ("trunc", "ions", "amps", "tail_mass")

    def __init__(self, trunc: Truncation, ions: tuple[int, ...], amps: np.ndarray,
                 tail_mass: float = 0.0) -> None:
        if tuple(sorted(set(ions))) != ions or not set(ions) <= {1, 2}:
            raise ValueError(f"ions must be a sorted subset of (1, 2), got {ions}")
        amps = _unit_amps(amps, (2,) * len(ions) + (trunc.dim,), "joint state")
        _require_tail(tail_mass)
        super().__init__(trunc, ions, amps, tail_mass)

    @property
    def flagged(self) -> bool:
        """True when tail_mass exceeds DEFAULT_TAIL_TOLERANCE."""
        return self.tail_mass > DEFAULT_TAIL_TOLERANCE

    @property
    def qubit_count(self) -> int:
        return len(self.ions)

    def axis_of(self, ion: int) -> int:
        if ion not in self.ions:
            raise ValueError(f"ion {ion} carries no qubit register in this state")
        return self.ions.index(ion)

    def with_amps(self, amps: np.ndarray) -> "JointState":
        return JointState(self.trunc, self.ions, amps, self.tail_mass)

    def ground_probability(self, ion: int) -> float:
        """Probability of finding the given ion in |g>."""
        a = np.moveaxis(self.amps, self.axis_of(ion), 0)
        return float(np.vdot(a[0], a[0]).real)

    def reduced_qubit(self, ion: int) -> np.ndarray:
        """2x2 reduced density matrix of one ion's register."""
        a = np.moveaxis(self.amps, self.axis_of(ion), 0).reshape(2, -1)
        return a @ a.conj().T

    def qubit_fidelity(self, ion: int, target: QubitState) -> float:
        """<target| rho_ion |target>."""
        rho = self.reduced_qubit(ion)
        return float((target.amps.conj() @ rho @ target.amps).real)

    def expect_sigma_x(self, ion: int) -> float:
        rho = self.reduced_qubit(ion)
        return float(2.0 * rho[1, 0].real)

    def motional_fidelity(self, target: MotionalState) -> float:
        """<target| rho_motional |target>, i.e. fidelity with a pure target."""
        _require_same(self, target)
        flat = self.amps.reshape(-1, self.trunc.dim)
        overlaps = flat @ target.amps.conj()
        return float(np.sum(np.abs(overlaps) ** 2))


def joint_state(
    motional: MotionalState,
    ion1: QubitState | None = None,
    ion2: QubitState | None = None,
) -> JointState:
    """Tensor qubit registers onto a motional state (ion 1 axis first)."""
    ions: list[int] = []
    amps = motional.amps
    factors: list[np.ndarray] = []
    if ion1 is not None:
        ions.append(1)
        factors.append(ion1.amps)
    if ion2 is not None:
        ions.append(2)
        factors.append(ion2.amps)
    for q in reversed(factors):
        amps = np.multiply.outer(q, amps)
    return JointState(motional.trunc, tuple(ions), amps, motional.tail_mass)


# ---------------------------------------------------------------------------
# truncation sizing and serialization
# ---------------------------------------------------------------------------


def truncation_for_coherent(
    alpha: complex, beta: complex, tail_tol: float = 1e-12
) -> Truncation:
    """Smallest truncation keeping a product coherent state's tail below tol.

    The total phonon number of |alpha>_c |beta>_r is Poisson with mean
    |alpha|^2 + |beta|^2, so the discarded mass is a single Poisson tail.
    """
    lam = _abs2(alpha) + _abs2(beta)
    if not math.isfinite(lam):
        raise ValueError("coherent amplitudes must be finite")
    if not tail_tol >= 0.0:
        raise ValueError(f"tail_tol must be >= 0, got {tail_tol}")
    if lam == 0.0:
        return Truncation(0)
    # Log-space pmf up to far past the mean, where the remaining mass is
    # below 1e-300; exp(-lam) alone underflows for lam above ~745.
    top = int(lam + 40.0 * math.sqrt(lam) + 100.0)
    if top > 200000:
        raise ValueError(f"mean phonon number {lam:.6g} is too large to truncate")
    k = np.arange(top + 1)
    pmf = np.exp(k * math.log(lam) - lam - _log_factorials(top))
    # tail[n] = P(total > n), summed from the small end of the tail up.
    tail = np.append(np.cumsum(pmf[::-1])[-2::-1], 0.0)
    return Truncation(int(np.argmax(tail <= tail_tol)))


def state_to_json(s: MotionalState) -> str:
    """Dump format: {"n_total_max", "amps": [[m, n, re, im], ...], "tail_mass"}."""
    ms, ns = s.trunc.mode_numbers()
    rows = list(zip(ms.tolist(), ns.tolist(), s.amps.real.tolist(), s.amps.imag.tolist()))
    return json.dumps(
        {"n_total_max": s.trunc.n_total_max, "amps": rows, "tail_mass": s.tail_mass}
    )


def state_from_json(text: str) -> MotionalState:
    data = json.loads(text)
    trunc = Truncation(int(data["n_total_max"]))
    amps = np.zeros(trunc.dim, dtype=np.complex128)
    for m, n, re, im in data["amps"]:
        amps[trunc.index(int(m), int(n))] = complex(re, im)
    return MotionalState(trunc, amps, float(data.get("tail_mass", 0.0)))
