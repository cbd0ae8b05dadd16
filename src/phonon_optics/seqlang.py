"""Line-oriented pulse-sequence language.

One statement per line; ``#`` starts a comment and blank lines are ignored.

    init (fock M N | coherent RE IM RE IM | cat RE IM (even|odd) (c|r)) nmax INT
    bs1 ANGLE | bs2 ANGLE | ps (c|r) ANGLE | cphase (c|r) ANGLE
    mz ANGLE | jcm (single|two) COUPLING T0 T1 NSAMPLES | direct (c|r) CHI_T
    report

Angles are decimal radians or rational multiples of pi: ``pi``, ``pi/2``,
``3*pi/4``, ``-pi/3`` and so on (integer numerator and denominator).  All
other numbers are plain decimal literals.  Exactly one ``init`` statement is
required and it must come first; verbs and keywords are case insensitive.
The argument slots of each verb and of each ``init`` state kind live in one
table, ``_GRAMMAR``, the one home of the grammar above: ``parse`` walks it
and ``format_program`` writes the arguments back in its order.

``execute`` threads a motional state through the statements.  ``cphase``
acts with ion 2 implicitly prepared in |g>, which turns the conditional
phase with angle chi_t into the plain phase shifter at chi_t / 2.  ``mz``
is the splitter, phase, splitter interferometer.  ``bs1``, ``bs2``, ``ps``,
``cphase`` and ``mz`` are passive, each a 2x2 unitary on the mode
operators: a run of them folds into one operator (the product of the
2x2 matrices), applied with at most one rotation before the next ``jcm``,
``direct`` or ``report`` and at the end, so every record sees the state it
would see statement by statement.  ``jcm`` and ``direct`` emit probe
records without changing the state; ``report`` records the number
distributions and the Schwinger expectations at that point.
Formatting is canonical (lowercase, single spaces) and parsing a formatted
program reproduces the statement structure exactly; comments are not
preserved.
"""

import json
import math
import re
from typing import NamedTuple

import numpy as np

from . import interferometer
from .detection import _require_samples, direct_mean_phonon, signal
from .fockspace import (
    MotionalState,
    Truncation,
    _Record,
    expect,
    make_cat,
    make_coherent,
    make_fock,
    number_distributions,
)
from .operators import WEIGHT_FLOOR, UnitaryOperator, apply, beam_splitter, phase_shifter


class ParseError(Exception):
    """Rejection with the line and column of the offending token."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ExecutionError(Exception):
    """Runtime failure of a parsed program, tagged with the statement's line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


_PI_RE = re.compile(r"^([+-]?)(?:(\d+)\*)?pi(?:/(\d+))?$", re.IGNORECASE)
_INT_RE = re.compile(r"^[+-]?\d+$")


class Angle(NamedTuple):
    """Angle literal; keeps the rational-pi spelling when one was used."""

    value: float
    pi_num: int | None = None
    pi_den: int = 1

    @classmethod
    def from_pi(cls, num: int, den: int = 1) -> "Angle":
        if den <= 0:
            raise ValueError("denominator must be positive")
        return cls(num * math.pi / den, num, den)

    @classmethod
    def from_value(cls, value: float) -> "Angle":
        return cls(float(value))

    def text(self) -> str:
        if self.pi_num is None:
            return repr(self.value)
        sign = "-" if self.pi_num < 0 else ""
        mag = abs(self.pi_num)
        head = f"{sign}pi" if mag == 1 else f"{sign}{mag}*pi"
        return head if self.pi_den == 1 else f"{head}/{self.pi_den}"


def _read_int(text: str, what: str) -> int:
    """``int(text)`` for a signed decimal ``text``, with a ValueError naming
    ``what`` where it is longer than ``int()`` converts (4,300 digits by
    default)."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise ValueError(f"{what} has {digits} digits, too many to read as an integer") from None


def parse_angle(text: str) -> Angle:
    """Angle literal: decimal radians or a rational multiple of pi.

    Raises ValueError for anything else, a zero denominator, or a value
    that is not finite.
    """
    m = _PI_RE.match(text)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        num = sign * (_read_int(m.group(2), "pi numerator") if m.group(2) else 1)
        den = _read_int(m.group(3), "pi denominator") if m.group(3) else 1
        if den == 0:
            raise ValueError("angle denominator must be nonzero")
        try:
            return Angle.from_pi(num, den)
        except OverflowError:
            raise ValueError(f"angle {text!r} is out of range") from None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"expected an angle (decimal radians or a pi fraction), got {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError("angles must be finite")
    return Angle.from_value(value)


class Statement(NamedTuple):
    verb: str
    args: dict


class PulseProgram(_Record):
    __slots__ = ("statements", "lines")  # lines: the source line of each statement

    @property
    def nmax(self) -> int:
        return self.statements[0].args["nmax"]


class _Token(_Record):
    __slots__ = ("text", "line", "col")  # col is 1-based

    @property
    def end(self) -> int:
        return self.col + len(self.text)


class _LineReader:
    """Hands out the tokens of one line with located errors."""

    def __init__(self, tokens: list[_Token], line: int, verb: str, verb_end: int):
        self.tokens = tokens
        self.line = line
        self.verb = verb
        self.verb_end = verb_end
        self.pos = 0
        self.cols: dict[str, int] = {}  # the column of each slot read, by key

    def take(self, what: str) -> _Token:
        if self.pos >= len(self.tokens):
            col = self.tokens[-1].end if self.tokens else self.verb_end
            raise ParseError(self.line, col, f"'{self.verb}' is missing {what}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def read(self, key: str, kind):
        """The next token as the slot ``key`` of ``kind``: a tuple of
        keywords, ``Angle``, ``int`` or ``float``."""
        keywords = isinstance(kind, tuple)
        what = "one of " + "/".join(kind) if keywords else "an angle" if kind is Angle else key
        tok = self.take(what)
        text = tok.text
        self.cols[key] = tok.col
        if keywords:
            if text.lower() in kind:
                return text.lower()
            message = f"expected {what}, got {text!r}"
        elif kind is Angle:
            try:
                return parse_angle(text)
            except ValueError as exc:
                message = str(exc)
        elif kind is int:
            if _INT_RE.match(text):
                try:
                    return _read_int(text, key)
                except ValueError as exc:
                    message = str(exc)
            else:
                message = f"expected an integer {key}, got {text!r}"
        else:
            try:
                value = float(text)
            except ValueError:
                message = f"expected a number for {key}, got {text!r}"
            else:
                if math.isfinite(value):
                    return value
                message = f"{key} must be finite, got {text!r}"
        raise ParseError(self.line, tok.col, message)

    def finish(self):
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            raise ParseError(
                self.line, tok.col, f"unexpected trailing argument {tok.text!r} after '{self.verb}'"
            )


# The argument grammar, its one home: each verb, and each ``init`` state
# kind, to its ordered slots (key, kind).  A verb's keys are its ``args``
# keys; a state's keys name its slots in messages and in ``cols``.
_GRAMMAR = {
    "init": {
        "fock": (("M", int), ("N", int)),
        "coherent": (
            ("alpha real part", float), ("alpha imaginary part", float),
            ("beta real part", float), ("beta imaginary part", float),
        ),
        "cat": (
            ("alpha real part", float), ("alpha imaginary part", float),
            ("parity", ("even", "odd")), ("mode", ("c", "r")),
        ),
    },
    "bs1": (("theta", Angle),),
    "bs2": (("theta", Angle),),
    "ps": (("mode", ("c", "r")), ("angle", Angle)),
    "cphase": (("mode", ("c", "r")), ("angle", Angle)),
    "mz": (("phi", Angle),),
    "jcm": (
        ("kind", ("single", "two")),
        ("coupling", float), ("t0", float), ("t1", float), ("nsamples", int),
    ),
    "direct": (("mode", ("c", "r")), ("chi_t", float)),
    "report": (),
}


def _parse_init(r: _LineReader) -> dict:
    kind = r.read("state", tuple(_GRAMMAR["init"]))
    state = (kind, *(r.read(key, slot) for key, slot in _GRAMMAR["init"][kind]))
    key = r.take("the keyword 'nmax'")
    if key.text.lower() != "nmax":
        raise ParseError(r.line, key.col, f"expected keyword 'nmax', got {key.text!r}")
    nmax = r.read("nmax", int)
    if nmax < 0:
        raise ParseError(r.line, r.cols["nmax"], f"nmax must be >= 0, got {nmax}")
    if kind == "fock":
        m, n = state[1], state[2]
        if m < 0 or n < 0:
            raise ParseError(r.line, r.cols["M" if m < 0 else "N"], "fock indices must be >= 0")
        if m + n > nmax:
            raise ParseError(
                r.line, r.cols["M"],
                f"fock state ({m}, {n}) exceeds the truncation: {m} + {n} > nmax = {nmax}",
            )
    return {"state": state, "nmax": nmax}


def _parse_statement(tokens: list[_Token], line: int) -> Statement:
    verb_tok = tokens[0]
    verb = verb_tok.text.lower()
    if verb not in _GRAMMAR:
        raise ParseError(line, verb_tok.col, f"unknown verb {verb_tok.text!r}")
    r = _LineReader(tokens[1:], line, verb, verb_tok.end)
    if verb == "init":
        args = _parse_init(r)
    else:
        args = {key: r.read(key, kind) for key, kind in _GRAMMAR[verb]}
    if verb == "jcm":
        coupling, t0, t1, nsamples = (args[k] for k in ("coupling", "t0", "t1", "nsamples"))
        if not coupling > 0:
            raise ParseError(line, r.cols["coupling"], f"coupling must be positive, got {coupling}")
        if nsamples < 2:
            raise ParseError(line, r.cols["nsamples"], f"nsamples must be >= 2, got {nsamples}")
        if not t1 > t0:
            raise ParseError(line, r.cols["t1"], f"t1 must exceed t0, got {t0} .. {t1}")
        if not math.isfinite(t1 - t0):
            raise ParseError(
                line, r.cols["t0"], f"time range t1 - t0 must be finite, got {t0} .. {t1}"
            )
    r.finish()
    return Statement(verb, args)


def _tokenize(text: str) -> list[list[_Token]]:
    lines: list[list[_Token]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        body = raw if hash_at < 0 else raw[:hash_at]
        toks = [
            _Token(m.group(0), lineno, m.start() + 1)
            for m in re.finditer(r"\S+", body)
        ]
        if toks:
            lines.append(toks)
    return lines


def parse(text: str) -> PulseProgram:
    """Parse program text; raises ParseError with line and column on failure."""
    statements: list[Statement] = []
    lines: list[int] = []
    for tokens in _tokenize(text):
        line = tokens[0].line
        stmt = _parse_statement(tokens, line)
        if stmt.verb == "init" and statements:
            raise ParseError(line, tokens[0].col, "'init' must be the first statement")
        if stmt.verb != "init" and not statements:
            raise ParseError(line, tokens[0].col, "the program must start with 'init'")
        statements.append(stmt)
        lines.append(line)
    if not statements:
        raise ParseError(1, 1, "empty program: missing 'init'")
    return PulseProgram(statements, lines)


def parse_state_spec(spec: str, nmax_override: int | None = None) -> MotionalState:
    """Build the initial state from the init clause alone (CLI state-spec)."""
    program = parse("init " + spec.strip())
    if len(program.statements) != 1:
        raise ParseError(1, 1, "state spec must be a single init clause")
    args = dict(program.statements[0].args)
    if nmax_override is not None:
        args["nmax"] = nmax_override
    return _build_initial_state(args, line=1)


def _build_initial_state(args: dict, line: int) -> MotionalState:
    trunc = Truncation(args["nmax"])
    state = args["state"]
    try:
        if state[0] == "fock":
            return make_fock(state[1], state[2], trunc)
        if state[0] == "coherent":
            return make_coherent(complex(state[1], state[2]), complex(state[3], state[4]), trunc)
        return make_cat(complex(state[1], state[2]), state[3], state[4], trunc)
    except ValueError as exc:
        raise ExecutionError(line, str(exc)) from exc


class ReportRecord(_Record):
    __slots__ = ("index", "distribution", "jx", "jy", "jz")

    def to_json(self) -> str:
        """Moments, dense marginals and the joint rows [m, n, p] with
        p > WEIGHT_FLOOR**2, in (total, m) order.  The rows left out are
        rounding noise: each weighs at most 1e-60, all at most dim * 1e-60."""
        d = self.distribution
        ms, ns, p = d.triangle()
        keep = p > WEIGHT_FLOOR**2
        return json.dumps(
            {
                "kind": "report",
                "index": self.index,
                "jx": self.jx,
                "jy": self.jy,
                "jz": self.jz,
                "mean_jz": d.mean_jz,
                "p_m": d.p_m.tolist(),
                "p_n": d.p_n.tolist(),
                "p": list(zip(ms[keep].tolist(), ns[keep].tolist(), p[keep].tolist())),
            }
        )

    def to_csv(self) -> str:
        return self.distribution.to_csv()


class TraceRecord(_Record):
    __slots__ = ("index", "trace")


class DirectRecord(_Record):
    __slots__ = ("index", "estimate")


class ExecutionResult(_Record):
    __slots__ = ("final_state", "records")


def _passive(stmt: Statement, trunc: Truncation) -> UnitaryOperator | None:
    """The statement's passive operator, or None if it is not passive."""
    args = stmt.args
    if stmt.verb in ("bs1", "bs2"):
        return beam_splitter("b" + stmt.verb[2], args["theta"].value, trunc)
    if stmt.verb == "ps":
        return phase_shifter(args["mode"], args["angle"].value, trunc)
    if stmt.verb == "cphase":  # ion 2 implicitly in |g>: phase shift at chi_t / 2
        return phase_shifter(args["mode"], args["angle"].value / 2.0, trunc)
    if stmt.verb == "mz":
        return interferometer.mz_unitary(args["phi"].value, trunc)
    return None


def _apply_run(run: UnitaryOperator | None, state: MotionalState, line: int) -> MotionalState:
    """Apply a folded run of passive statements; a failure names its first line."""
    if run is None:
        return state
    try:
        return apply(run, state)
    except (ValueError, AssertionError) as exc:
        raise ExecutionError(line, str(exc)) from exc


def execute(program: PulseProgram) -> ExecutionResult:
    """Run a parsed program; deterministic for identical programs."""
    records: list = []
    state: MotionalState | None = None
    run: UnitaryOperator | None = None  # the pending passive statements, folded
    run_line = 0
    for idx, (stmt, line) in enumerate(zip(program.statements, program.lines)):
        try:
            if stmt.verb == "init":
                state = _build_initial_state(stmt.args, line)
            elif (u := _passive(stmt, state.trunc)) is not None:
                run, run_line = (u, line) if run is None else (u @ run, run_line)
            else:
                state, run = _apply_run(run, state, run_line), None
                if stmt.verb == "jcm":
                    _require_samples(stmt.args["nsamples"])
                    times = np.linspace(stmt.args["t0"], stmt.args["t1"], stmt.args["nsamples"])
                    trace = signal(state, stmt.args["coupling"], times, stmt.args["kind"])
                    records.append(TraceRecord(idx, trace))
                elif stmt.verb == "direct":
                    est = direct_mean_phonon(state, stmt.args["chi_t"], 1.0, stmt.args["mode"])
                    records.append(DirectRecord(idx, est))
                elif stmt.verb == "report":
                    moments = (expect(state, k) for k in ("jx", "jy", "jz"))
                    records.append(ReportRecord(idx, number_distributions(state), *moments))
                else:  # pragma: no cover - parser rejects unknown verbs
                    raise ExecutionError(line, f"unknown verb {stmt.verb!r}")
        except ExecutionError:
            raise
        except (ValueError, AssertionError) as exc:
            raise ExecutionError(line, str(exc)) from exc
    return ExecutionResult(_apply_run(run, state, run_line), records)


def _text(value) -> str:
    """An argument's canonical text; a state tuple is its words in order."""
    if isinstance(value, Angle):
        return value.text()
    if isinstance(value, tuple):
        return " ".join(map(_text, value))
    return str(value)


def _format_statement(stmt: Statement) -> str:
    """The verb, then each argument's text; ``nmax`` follows its keyword."""
    words = [stmt.verb]
    for key, value in stmt.args.items():
        if key == "nmax":
            words.append(key)
        words.append(_text(value))
    return " ".join(words)


def format_program(program: PulseProgram) -> str:
    """Canonical text: lowercase verbs, single spaces, one statement per line.

    Parsing the result reproduces the statement structure; comments and
    original spacing are not preserved.
    """
    return "\n".join(_format_statement(s) for s in program.statements) + "\n"
