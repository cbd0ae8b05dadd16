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
  ``mode_numbers`` all derive from it.  Each ``Truncation`` holds its own
  layout arrays, and nothing is cached at module level;
* the mode labels: ``Truncation.phonons`` maps ``c`` to m and ``r`` to n;
* the register layout (qubit axes first, motional axis last): only
  ``JointState.register`` and ``with_register`` reach one ion's (g, e) pair;
* how an argument is read: an entry point reads each number and label
  once, where it enters, and keeps what ``_integer`` (an int), ``_number``
  (a float or complex), ``_finite`` (a finite float) or ``_choice`` (one of
  a few labels) returns; each refuses a bool and names the argument;
* ``_require_same`` refuses two objects on different truncations;
* ``_unit_amps`` casts and checks the amplitudes of every state class,
  and ``_tail`` reads a discarded probability;
* the one floor rule: a weight (a probability or a squared norm) at or
  below ``WEIGHT_FLOOR**2`` = 1e-60 is rounding noise, since amplitudes of
  a unit state carry rounding errors near 1e-16.  A rotation skips such
  tail blocks, ``signal`` such probe lines and a report's JSON such rows.

Qubit registers use the convention sigma_z |g> = -|g>, sigma_z |e> = +|e>,
with basis index 0 = |g> and 1 = |e>.

Everything here is immutable after construction and all operations are pure
functions, so concurrent read access needs no synchronization.  Every
read-only class of the package subclasses ``_Record``, which stores one value
per ``__slots__`` field, freezes every array it stores and, through
``_read_only``, refuses every later assignment or deletion; a class that
checks its arguments does so in its own ``__init__`` and then passes them
on.  A record field holds a number, string, tuple, record or read-only
array, never a list or dict.  Only ``Truncation`` compares by value.
"""

import json
import math
import numbers
import operator
import os
import sys
from typing import Sequence

import numpy as np

# States whose discarded probability exceeds this are flagged but usable.
DEFAULT_TAIL_TOLERANCE = 1e-10

# ``truncation_for_coherent`` keeps a product coherent state's tail at or below this.
COHERENT_TAIL_TARGET = 1e-12

WEIGHT_FLOOR = 1e-30  # a weight at or below WEIGHT_FLOOR**2 is rounding noise

_NORM_TOL = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_OBSERVABLES = ("jx", "jy", "jz", "jz2", "nc", "nr")

_MODES = ("c", "r")  # center-of-mass and breathing; also the order of every (c, r) pair
_PARITIES = ("even", "odd")  # of a cat

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


def _require_memory(need: int, what: str) -> None:
    """Refuse, before anything is allocated, a request that needs ``need``
    bytes, more than ``_memory_limit_bytes()``.

    ``what`` opens the error message: the request and its verb, such as
    "1000 samples need".  The byte counts are written only on refusal.
    """
    limit = _memory_limit_bytes()
    if limit is not None and need > limit:
        raise ValueError(f"{what} about {_approx(need)} bytes, "
                         f"more than the memory limit of {_approx(limit)} bytes")


def _approx(count: int) -> str:
    """A nonnegative integer to 3 significant digits, as ``f"{count:.3g}"``
    writes it, also where ``count`` lies beyond the float range or has more
    digits than ``str()`` converts."""
    if count <= sys.float_info.max:
        return f"{count:.3g}"
    exponent = math.floor(math.log10(count))  # log10 takes an int of any size
    mantissa = round(10.0 ** (math.log10(count) - exponent), 2)
    if mantissa >= 10.0:
        mantissa, exponent = 1.0, exponent + 1
    return f"{mantissa:.3g}e+{exponent}"


def _int_text(value: int) -> str:
    """``str(value)``, or its sign and ``_approx`` beyond the digits ``str()`` converts."""
    try:
        return str(value)
    except ValueError:
        return "-" * (value < 0) + _approx(abs(value))


def _read_only(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of ``_Record``."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class _Record:
    """Base of the package's read-only classes.

    A subclass names its fields in ``__slots__``; ``__init__`` stores one
    value per slot, in slot order, and marks each NumPy array read-only in
    place (the array given, not a copy).  Nothing may set or delete a field
    afterwards.  A field holds a number, string, tuple, record or array,
    never a list or dict; a test, not a per-slot check, holds that rule.
    It generates no ``__eq__``, ``__repr__`` or ``__hash__``; ``copy`` and
    ``pickle`` rebuild a record through ``_rebuild``.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _read_only

    def __init__(self, *values) -> None:
        slots = type(self).__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} values, got {len(values)}")
        for name, value in zip(slots, values):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return _rebuild, (type(self), *(getattr(self, name) for name in type(self).__slots__))


def _rebuild(cls, *values):
    """A ``cls`` record holding ``values``, stored (and refrozen) by
    ``_Record.__init__`` without the subclass's checks: the values come from
    a record that passed them."""
    record = cls.__new__(cls)
    _Record.__init__(record, *values)
    return record


def _read_int(text: str, what: str) -> int:
    """``int(text)`` for a signed decimal ``text``; a ValueError naming ``what``
    where it is longer than ``int()`` converts (4,300 digits by default)."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise ValueError(f"{what} has {digits} digits, too many to read as an integer") from None


def _integer(value, what: str) -> int:
    """``operator.index(value)`` for an integer that is not a bool, such as a
    NumPy integer; a ValueError naming ``what`` for anything else."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r:.40}")


def _nonnegative(value: int, what: str) -> int:
    """``value`` as a nonnegative integer, else a ValueError naming ``what``."""
    value = _integer(value, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {_int_text(value)}")
    return value


def _number(value, what: str) -> float | complex:
    """``value`` as a Python float, or a complex where it is not real; a
    ValueError naming ``what`` for a bool, a non-number and an integer beyond
    the float range.  NaN and inf pass, for the caller's own checks."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):  # np.bool_ is no number
        raise ValueError(f"{what} must be a number, got {value!r:.40}")
    try:
        return float(value) if isinstance(value, numbers.Real) else complex(value)
    except OverflowError:  # float() of an int, or a Fraction, too large for it
        number = "an integer" if isinstance(value, int) else "a number"
        raise ValueError(f"{what} must be finite, got {number} beyond the float range") from None


def _finite(value, what: str, positive: bool = False) -> float:
    """``value`` read by ``_number``, refused with a ValueError naming
    ``what`` unless it is real and finite and, where ``positive``, above 0."""
    value = _number(value, what)
    if isinstance(value, complex):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        rule = "finite and positive" if positive else "finite"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return value


def _choice(value, what: str, options: tuple[str, ...]) -> str:
    """``value`` as the plain string of one of ``options``; a ValueError
    naming ``what`` and the options for anything else."""
    if isinstance(value, str) and value in options:
        return str(value)
    shown = _int_text(value) if isinstance(value, int) else repr(value)
    raise ValueError(f"{what} must be {' or '.join(map(repr, options))}, got {shown:.40}")


def _require_same(a, b) -> None:
    """Refuse two objects (states or operators) on different truncations."""
    if a.trunc != b.trunc:
        raise ValueError(
            f"truncation mismatch: n_total_max = {a.trunc.n_total_max} "
            f"vs {b.trunc.n_total_max}"
        )


def _tail(tail_mass) -> float:
    """``tail_mass`` read by ``_number``, refused unless it is a float in [0, 1]."""
    value = _number(tail_mass, "tail_mass")
    if not (isinstance(value, float) and 0.0 <= value <= 1.0):
        raise ValueError(f"tail_mass must lie in [0, 1], got {value}")
    return value


def _unit_amps(amps, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``amps`` as a contiguous complex array of the given shape,
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
    return amps


class Truncation(_Record):
    """Total-phonon cutoff: basis pairs (m, n) with m + n <= n_total_max.

    Construction refuses a bool, a non-integer or a negative cutoff, and
    one whose state arrays would exceed ``_memory_limit_bytes()``, so an
    absurd cutoff fails before anything is allocated.  It then builds the
    read-only layout arrays that ``mode_numbers`` returns.
    """

    __slots__ = ("n_total_max", "_ms", "_ns")

    def __init__(self, n_total_max: int) -> None:
        n = _nonnegative(n_total_max, "n_total_max")
        # The two int64 arrays of mode_numbers and a state's complex128 amplitudes
        # take 32 dim bytes; number_distributions peaks at a float64 p and one
        # temporary, 16 dim = 8 (nmax + 1)^2 + 8 (nmax + 1) bytes.
        need = 32 * self.flat(0, n + 1) + 8 * (n + 1) ** 2
        _require_memory(need, f"the state arrays of n_total_max = {_approx(n)} need")
        totals = np.repeat(np.arange(n + 1), np.arange(1, n + 2))
        ms = np.arange(totals.size) - self.flat(0, totals)
        super().__init__(n, ms, totals - ms)

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
        """Whether |m, n> lies inside; refuses a bool or non-integer m or n."""
        m, n = _integer(m, "m"), _integer(n, "n")
        return m >= 0 and n >= 0 and m + n <= self.n_total_max

    def index(self, m: int, n: int) -> int:
        """Flat index of |m, n>; refuses a bool or non-integer m or n, and (m, n) outside."""
        m, n = _integer(m, "m"), _integer(n, "n")
        if not self.contains(m, n):
            raise ValueError(f"(m, n) = ({_int_text(m)}, {_int_text(n)}) outside truncation: "
                             f"need m, n >= 0 and m + n <= {self.n_total_max}")
        return self.flat(m, n)

    def block(self, total: int) -> slice:
        """Slice of the flat array holding the m + n = total subspace."""
        total = _integer(total, "total")
        if not 0 <= total <= self.n_total_max:
            raise ValueError(f"no block for total = {_int_text(total)}")
        return slice(self.flat(0, total), self.flat(0, total + 1))

    def mode_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (ms, ns) listing the basis pairs in (total, m) order."""
        return self._ms, self._ns

    def phonons(self, mode: str) -> np.ndarray:
        """Phonon numbers of mode ``c`` (m) or ``r`` (n) over the basis."""
        ms, ns = self.mode_numbers()
        return ms if _choice(mode, "mode", _MODES) == "c" else ns


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
        super().__init__(trunc, amps, _tail(tail_mass))

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
        r2 = abs(_number(alpha, "coherent amplitude")) ** 2
    except OverflowError:
        r2 = math.inf
    if not math.isfinite(r2):
        raise ValueError(f"coherent amplitude {alpha!r} is out of range: |alpha|^2 must be finite")
    return r2


def _coherent_overlap(a: complex, b: complex) -> complex:
    """Exact <a|b> for coherent states.  conj(a) b is formed on Python
    complex values: NumPy would cast an integer like 2**63 to uint64."""
    return np.exp(-0.5 * (_abs2(a) + _abs2(b)) + complex(a).conjugate() * complex(b))


def _poisson_tails(lam: float, n: int) -> np.ndarray:
    """P(N > k), k = 0..top, of a Poisson N of mean ``lam`` > 0, where top reaches
    100 past both ``n`` and 40 standard deviations past the mean; a top above
    200,000 is a ValueError.  The pmf is formed in log space, where exp(-lam)
    cannot underflow, and each tail is summed from its small end up, so nothing
    cancels.  The mass beyond top is left out."""
    top = max(n, int(lam + 40.0 * math.sqrt(lam))) + 100
    if top > 200000:
        raise ValueError(f"mean phonon number {lam:.6g} is too large to truncate")
    pmf = np.exp(np.arange(top + 1) * math.log(lam) - lam - _log_factorials(top))
    return np.append(np.cumsum(pmf[::-1])[-2::-1], 0.0)


def _cat_sign(parity: str) -> float:
    """The sign s of the cat |alpha> + s |-alpha>: +1 for parity ``"even"``,
    -1 for ``"odd"``; any other parity is a ValueError."""
    return 1.0 if _choice(parity, "parity", _PARITIES) == "even" else -1.0


def _require_cat_norm(alpha: complex, sign: float) -> None:
    """Refuse the cat |alpha> + sign |-alpha> whose norm^2, 2 (1 + sign
    exp(-2|alpha|^2)), is zero: the odd cat at alpha = 0, to rounding."""
    if 1.0 + sign * math.exp(-2.0 * _abs2(alpha)) <= 0.0:
        raise ValueError("odd cat with alpha = 0 is the zero vector")


def coherent_superposition(
    terms: Sequence[tuple[complex, complex, complex]], trunc: Truncation
) -> MotionalState:
    """Normalized truncation of sum_k w_k |alpha_k>_c |beta_k>_r.

    Parameters
    ----------
    terms : sequence of (weight, alpha, beta)
        Weights are the exact (untruncated) expansion coefficients.
    trunc : Truncation

    tail_mass of a product (one term) is its Poisson tail P(N > n_total_max),
    summed from the log-space pmf; with more terms it is 1 - retained / norm^2
    against the exact untruncated norm (closed-form coherent overlaps), which
    holds for non-orthogonal terms such as cats, above a floor near 1e-16.  The
    weights and the norm come first, so a non-finite weight, or an amplitude
    whose |alpha|^2 is not finite, is refused before any array is built.  A
    state whose every kept probability underflows is refused with the largest
    mean phonon number |alpha|^2 + |beta|^2 of a term.
    """
    scale, weights = 0.0, []
    for wj, _, _ in terms:
        w = complex(_number(wj, "superposition weight"))
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise ValueError(f"superposition weight must be finite, got {wj!r}")
        scale = max(scale, abs(w.real), abs(w.imag))
        weights.append(w)
    # neither the state nor tail_mass depends on a common factor of the weights,
    # so dividing by their largest part keeps every product of two finite
    terms = [(w / (scale or 1.0), alpha, beta) for w, (_, alpha, beta) in zip(weights, terms)]
    exact_norm2 = 0.0
    for wj, aj, bj in terms:
        for wk, ak, bk in terms:
            exact_norm2 += (
                np.conj(wj) * wk * _coherent_overlap(aj, ak) * _coherent_overlap(bj, bk)
            ).real
    if exact_norm2 <= 1e-300:
        raise ValueError("superposition has zero norm")

    ms, ns = trunc.mode_numbers()
    vec = np.zeros(trunc.dim, dtype=np.complex128)
    for w, alpha, beta in terms:
        ca = _coherent_mode_amps(complex(alpha), trunc.n_total_max)
        cb = _coherent_mode_amps(complex(beta), trunc.n_total_max)
        vec += w * ca[ms] * cb[ns]

    retained, n = float(np.vdot(vec, vec).real), trunc.n_total_max
    means = [_abs2(alpha) + _abs2(beta) for _, alpha, beta in terms]
    if retained <= 0.0:
        raise ValueError(
            f"all amplitude mass lies outside the truncation: mean phonon number "
            f"|alpha|^2 + |beta|^2 = {max(means):.6g}, n_total_max = {n}"
        )
    if len(terms) > 1:
        tail = max(0.0, 1.0 - retained / exact_norm2)
    else:  # a product
        tail = min(1.0, _poisson_tails(means[0], n)[n]) if means[0] else 0.0
    if retained < sys.float_info.min:  # a subnormal sum: scale it near 1 by a power of 2
        vec = vec * math.ldexp(1.0, -math.frexp(retained)[1] // 2)
        retained = float(np.vdot(vec, vec).real)
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
    sign = _cat_sign(parity)
    mode = _choice(mode, "mode", _MODES)
    _require_cat_norm(alpha, sign)
    if mode == "c":
        terms = [(1.0, alpha, 0.0), (sign, -alpha, 0.0)]
    else:
        terms = [(1.0, 0.0, alpha), (sign, 0.0, -alpha)]
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

    ``p`` holds p_mn = |c_mn|^2 in the state's own (total, m) order, the
    order of its amplitudes and of ``trunc.mode_numbers()``; ``p_m`` and
    ``p_n`` are the marginals over 0..n_total_max, and ``mean_jz`` is the
    package's one <Jz> = 0.5 sum_d d P(m - n = d).
    """

    __slots__ = ("trunc", "p", "p_m", "p_n", "mean_jz")

    def marginal(self, mode: str) -> np.ndarray:
        """The marginal of mode ``c`` (``p_m``) or ``r`` (``p_n``)."""
        return self.p_m if _choice(mode, "mode", _MODES) == "c" else self.p_n

    def to_csv(self) -> str:
        """Rows "m,n,p" for every basis pair, in (total, m) order."""
        ms, ns = self.trunc.mode_numbers()
        rows = zip(ms.tolist(), ns.tolist(), self.p.tolist())
        return "m,n,p\n" + "".join(f"{m},{n},{p:.17g}\n" for m, n, p in rows)


def number_distributions(s: MotionalState) -> JointDistribution:
    """Joint p_mn = |c_mn|^2, its marginals, and the mean of (Nc - Nr)/2 read
    from the distribution of m - n, so no two totals of order <N> cancel."""
    ms, ns = s.trunc.mode_numbers()
    size = s.trunc.n_total_max + 1
    p = np.abs(s.amps) ** 2
    p_m = np.bincount(ms, weights=p, minlength=size)
    p_n = np.bincount(ns, weights=p, minlength=size)
    d = ms - ns  # m - n = 2 Jz, shifted in place to 0..2 nmax: no second temporary
    d += size - 1
    mean_jz = 0.5 * float(np.arange(1 - size, size) @ np.bincount(d, weights=p))
    return JointDistribution(s.trunc, p, p_m, p_n, mean_jz)


def _hop_tables(trunc: Truncation):
    """(src, coef) of a+ b on the triangular basis: a+ b |m, n> =
    coef |m + 1, n - 1> for every |m, n> at flat index src with n >= 1.

    The total is kept, so with the flat index t(t+1)/2 + m the image sits
    at src + 1.  a b+ = (a+ b)+ is the same table read backwards, from
    src + 1 to src with the same coefficient sqrt((m + 1) n).
    """
    ms, ns = trunc.mode_numbers()
    src = np.flatnonzero(ns >= 1)
    return src, np.sqrt((ms[src] + 1.0) * ns[src])


def _apply_jx(amps: np.ndarray, trunc: Truncation) -> np.ndarray:
    src, coef = _hop_tables(trunc)
    out = np.zeros_like(amps)
    out[src + 1] += 0.5 * coef * amps[src]
    out[src] += 0.5 * coef * amps[src + 1]
    return out


def expect(s: MotionalState, obs: str) -> float:
    """Expectation value of a Schwinger or number observable.

    obs is one of ``jx``, ``jy``, ``jz``, ``jz2``, ``nc``, ``nr``, spelled
    as listed.  All are Hermitian, so the result is real.  ``jz`` is the
    ``mean_jz`` of ``number_distributions``, bit for bit.
    """
    if _choice(obs, "observable", _OBSERVABLES) == "jz":
        return number_distributions(s).mean_jz
    ms, ns = s.trunc.mode_numbers()
    p = np.abs(s.amps) ** 2
    if obs == "nc":
        return float(ms @ p)
    if obs == "nr":
        return float(ns @ p)
    if obs == "jz2":
        return float((0.25 * (ms - ns) ** 2) @ p)
    # <Jx> and <Jy> are the real and imaginary parts of <a+ b>
    src, coef = _hop_tables(s.trunc)
    hop = np.vdot(s.amps[src + 1], coef * s.amps[src])
    return float(hop.real if obs == "jx" else hop.imag)


def reduced_purity(s: MotionalState) -> float:
    """Purity of either single-mode reduced density matrix (they coincide)."""
    ms, ns = s.trunc.mode_numbers()
    size = s.trunc.n_total_max + 1
    # the complex square, its conjugate copy and the Gram matrix: 48 bytes an entry
    _require_memory(48 * size**2, f"the reduced density matrix of n_total_max = {size - 1} needs")
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
        return cls(np.array([_number(g, "g"), _number(e, "e")], dtype=np.complex128))

    @classmethod
    def ground(cls) -> "QubitState":
        return cls.of(1.0, 0.0)

    @classmethod
    def excited(cls) -> "QubitState":
        return cls.of(0.0, 1.0)

    @classmethod
    def plus(cls) -> "QubitState":
        """sigma_x = +1 eigenstate (|g> + |e>)/sqrt(2)."""
        return cls.of(_SQRT_HALF, _SQRT_HALF)

    @classmethod
    def minus(cls) -> "QubitState":
        """sigma_x = -1 eigenstate (|g> - |e>)/sqrt(2)."""
        return cls.of(_SQRT_HALF, -_SQRT_HALF)

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
    flagged = MotionalState.flagged

    def __init__(self, trunc: Truncation, ions: tuple[int, ...], amps: np.ndarray,
                 tail_mass: float = 0.0) -> None:
        labels = tuple(_integer(ion, "ion label") for ion in ions)
        if tuple(sorted(set(labels))) != ions or not set(labels) <= {1, 2}:
            raise ValueError(f"ions must be a sorted subset of (1, 2), got {ions}")
        amps = _unit_amps(amps, (2,) * len(labels) + (trunc.dim,), "joint state")
        super().__init__(trunc, labels, amps, _tail(tail_mass))

    def axis_of(self, ion: int) -> int:
        ion = _integer(ion, "ion")
        if ion not in self.ions:
            raise ValueError(f"ion {_int_text(ion)} carries no qubit register in this state")
        return self.ions.index(ion)

    def with_amps(self, amps: np.ndarray) -> "JointState":
        return JointState(self.trunc, self.ions, amps, self.tail_mass)

    def register(self, ion: int) -> tuple[np.ndarray, np.ndarray]:
        """One ion's |g> and |e> parts, read-only views: other register first, motion last."""
        return tuple(np.moveaxis(self.amps, self.axis_of(ion), 0))

    def with_register(self, ion: int, g: np.ndarray, e: np.ndarray) -> "JointState":
        """This state with one ion's |g> and |e> components replaced."""
        return self.with_amps(np.moveaxis(np.stack([g, e]), 0, self.axis_of(ion)))

    def ground_probability(self, ion: int) -> float:
        """Probability of finding the given ion in |g>."""
        g, _ = self.register(ion)
        return float(np.vdot(g, g).real)

    def reduced_qubit(self, ion: int) -> np.ndarray:
        """2x2 reduced density matrix of one ion's register."""
        a = np.reshape(self.register(ion), (2, -1))
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
    registers = [(ion, q) for ion, q in ((1, ion1), (2, ion2)) if q is not None]
    amps = motional.amps
    for _, q in reversed(registers):
        amps = np.multiply.outer(q.amps, amps)
    return JointState(motional.trunc, tuple(ion for ion, _ in registers), amps, motional.tail_mass)


# ---------------------------------------------------------------------------
# truncation sizing and serialization
# ---------------------------------------------------------------------------


def truncation_for_coherent(alpha: complex, beta: complex) -> Truncation:
    """Smallest truncation keeping a product coherent state's tail at or
    below ``COHERENT_TAIL_TARGET``.

    The total phonon number of |alpha>_c |beta>_r is Poisson with mean
    |alpha|^2 + |beta|^2, so the discarded mass is a single Poisson tail.
    """
    lam = _abs2(alpha) + _abs2(beta)
    if not math.isfinite(lam):
        raise ValueError("coherent amplitudes must be finite")
    if lam == 0.0:
        return Truncation(0)
    return Truncation(int(np.argmax(_poisson_tails(lam, 0) <= COHERENT_TAIL_TARGET)))


def state_to_json(s: MotionalState) -> str:
    """Dump format: {"n_total_max", "amps": [[m, n, re, im], ...], "tail_mass"}."""
    ms, ns = s.trunc.mode_numbers()
    rows = list(zip(ms.tolist(), ns.tolist(), s.amps.real.tolist(), s.amps.imag.tolist()))
    return json.dumps(
        {"n_total_max": s.trunc.n_total_max, "amps": rows, "tail_mass": s.tail_mass}
    )


def state_from_json(text: str) -> MotionalState:
    """Read the format of ``state_to_json`` and nothing else: a malformed
    document, such as one listing a pair twice, is a ValueError naming the field."""
    try:
        data = json.loads(text, parse_int=lambda s: _read_int(s, "a JSON integer"))
    except RecursionError:
        raise ValueError("state JSON is nested too deeply") from None
    if not (isinstance(data, dict) and isinstance(data.get("amps"), list)):
        raise ValueError(f"state JSON must be an object with an 'amps' list, got {data!r:.40}")
    trunc = Truncation(data.get("n_total_max"))
    amps, seen = np.zeros(trunc.dim, dtype=np.complex128), set()
    for i, row in enumerate(data["amps"]):
        if not (isinstance(row, list) and len(row) == 4):
            raise ValueError(f"amps[{i}] must be a row [m, n, re, im], got {row!r:.40}")
        m, n = (_integer(v, f"amps[{i}] {k}") for k, v in zip("mn", row))
        re, im = (_finite(v, f"amps[{i}] {k}") for k, v in zip(("re", "im"), row[2:]))
        index = trunc.index(m, n)
        if index in seen:
            raise ValueError(f"amps[{i}] lists (m, n) = ({m}, {n}) a second time")
        seen.add(index)
        amps[index] = complex(re, im)
    return MotionalState(trunc, amps, data.get("tail_mass", 0.0))
