"""Hostile input to the command line: a property over ``run``, ``sweep`` and
``detect``.

Programs and state specs are drawn from the grammar table
``seqlang._GRAMMAR`` and flags from ``cli.build_parser``.  Each slot and
flag value is either a plausible token of its kind or one from a hostile
pool: integers and pi fractions too long for ``int()`` to read,
non-finite and extreme floats, ``-0``, ``pi/0``, empty fields, Unicode digits and a verb where a
number goes.  Every cutoff the draw can reach is at most 6, and the memory
limit is patched to 1e7 bytes, so no call can grow large.

Whatever the draw, the call must:

* exit with a documented code (0 success, 1 parse error, 2 runtime or
  usage error, 3 I/O failure) and print no traceback, nor Python's advice
  to raise ``sys.set_int_max_str_digits()``;
* on exit 0, print and write no ``nan`` and no ``inf``, except the
  documented ``+inf`` of ``delta_phi`` where the sweep's slope vanishes;
* on any other exit, write no artifact.

The program text and the state spec also go to ``seqlang.parse`` directly:
it may refuse them only with a located ``ParseError``, and where ``run`` or
``detect`` reads such a text the call exits 1 with that error.
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from phonon_optics import cli, fockspace, seqlang  # noqa: E402
from phonon_optics.interferometer import SWEEP_CSV_HEADER  # noqa: E402

HOSTILE = (
    "9" * 4301,  # one digit more than int() reads from text by default
    "-" + "7" * 5000,
    "9" * 4301 + "*pi", "pi/" + "9" * 4301,  # either part of a pi fraction
    "nan", "inf", "-inf", "-0", "1e308", "1e-320", "pi/0",
    "",  # an empty field
    "٣", "４",  # ARABIC-INDIC DIGIT THREE, FULLWIDTH DIGIT FOUR
    "report", "bs1",  # a verb where a number goes
)
PLAUSIBLE = {
    int: ("0", "1", "2", "3", "6"),  # a cutoff, fock index or count: nmax stays <= 6
    float: ("0", "0.5", "1", "-1.25", "3"),
    seqlang.Angle: ("pi/3", "-pi/4", "0.7", "2*pi"),
    "samples": ("16", "64", "256"),  # sample and grid counts of the flags
    "points": ("2", "8", "65"),
}
OUT_NAMES = ("out", "sub/dir", "")
EXIT_CODES = {0: None, 1: "parse error: ", 2: ("error: ", "usage: "), 3: "i/o error: "}
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def tokens(draw, kind):
    """A slot of ``kind`` (a type, ``Angle``, a tuple of keywords or a flag
    named in ``PLAUSIBLE``); one in eight is hostile, so that some calls get
    through to their output."""
    plausible = kind if isinstance(kind, tuple) else PLAUSIBLE[kind]
    return draw(st.sampled_from(HOSTILE if draw(st.integers(0, 7)) == 0 else plausible))


@st.composite
def statements(draw, verb):
    if verb == "init":
        kind = draw(st.sampled_from(tuple(seqlang._GRAMMAR["init"])))
        words = [kind] + [draw(tokens(k)) for _, k in seqlang._GRAMMAR["init"][kind]]
        words += ["nmax", draw(tokens(int))]
    else:
        words = [verb] + [draw(tokens(k)) for _, k in seqlang._GRAMMAR[verb]]
    if draw(st.integers(0, 19)) == 0:  # now and then a word too few
        del words[draw(st.integers(0, len(words) - 1))]
    return " ".join(words)


@st.composite
def programs(draw):
    verbs = st.sampled_from([v for v in seqlang._GRAMMAR if v != "init"])
    lines = ["init " + draw(statements("init"))]
    lines += [draw(statements(draw(verbs))) for _ in range(draw(st.integers(0, 3)))]
    return "\n".join(lines) + "\n"


def _flag_actions(command):
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if a.choices and command in a.choices)
    return [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


@st.composite
def flags(draw, command):
    argv = []
    for action in _flag_actions(command):
        if not (action.required or draw(st.booleans())):
            continue
        if action.choices:
            value = draw(tokens(tuple(action.choices)))
        elif action.dest == "out":
            value = draw(st.sampled_from(OUT_NAMES))
        elif action.dest in PLAUSIBLE:
            value = draw(tokens(action.dest))
        else:
            kind = {int: int, float: float}.get(action.type, seqlang.Angle)
            value = draw(tokens(kind))
        argv += [action.option_strings[0], value]
    return argv


@st.composite
def calls(draw):
    """(argv, the text ``seqlang.parse`` reads, whether parsing comes first)."""
    command = draw(st.sampled_from(["run", "sweep", "detect"]))
    if command == "run":
        text = draw(programs())
        return ["run", "hostile.seq"] + draw(flags("run")), text, True
    spec = draw(statements("init"))
    # sweep checks its grid flags before it reads the spec; detect reads it first
    return [command, spec] + draw(flags(command)), "init " + spec.strip(), command == "detect"


def _non_finite(text):
    if text.startswith(SWEEP_CSV_HEADER):  # delta_phi is +inf where the slope vanishes
        text = "\n".join(row.rsplit(",", 1)[0] for row in text.splitlines())
    return _NON_FINITE.findall(text)


def _run(argv, program):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            Path("hostile.seq").write_text(program or "", encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refusing a flag
                    code = exc.code
            written = {str(p.relative_to(tmp)): p.read_text(encoding="utf-8")
                       for p in Path(tmp).rglob("*") if p.is_file() and p.name != "hostile.seq"}
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=300)
@given(calls())
def test_hostile_argv_exits_cleanly(call):
    argv, text, parsed_first = call
    try:
        seqlang.parse(text)
        refusal = None
    except seqlang.ParseError as exc:  # any other exception fails the property
        refusal = f"parse error: {exc}\n"

    with mock.patch.object(fockspace, "_memory_limit_bytes", lambda: 10**7):
        code, out, err, written = _run(argv, text if argv[0] == "run" else None)

    event(f"{argv[0]} exits {code}")
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    assert "set_int_max_str_digits" not in err
    if code == 0:
        assert err == ""
        assert not _non_finite(out), out
        for name, body in written.items():
            assert not _non_finite(body), name
    else:
        assert err.startswith(EXIT_CODES[code]), err
        assert written == {}, sorted(written)
    if parsed_first and refusal is not None and not err.startswith("usage: "):
        assert (code, err) == (1, refusal)
