"""The README's command-line calls and the demo programs run as documented.

Each call goes through ``cli.main`` in a temporary directory holding a copy
of ``demos/``; it must exit 0, and every artifact it names on stdout must
exist.  Each README call also runs as a program, ``python -m
phonon_optics.cli``, and must print and write the same bytes as in process.
The README's grammar of the pulse language is the ``seqlang`` docstring's,
and its "Command line" section names exactly the flags ``cli`` defines.
"""

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from phonon_optics import seqlang
from phonon_optics.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.seq"))


def _command_line_section() -> str:
    """The README's "Command line" section, up to the next level-2 heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _readme_calls() -> list[str]:
    """The ``phonon-optics ...`` lines of the README's "Command line" block."""
    block = _command_line_section().split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("phonon-optics ")]


def _named_artifacts(argv: list[str], stdout: str) -> list[Path]:
    """Files a call names on stdout: ``-> NAME`` under run's ``--out``
    directory, ``wrote NAME`` and ``wrote N rows to NAME`` as given."""
    run_out = argv[0] == "run" and "--out" in argv
    out_dir = Path(argv[argv.index("--out") + 1]) if run_out else Path(".")
    names = [out_dir / m for m in re.findall(r" -> (\S+)$", stdout, re.M)]
    names += [Path(m) for m in re.findall(r"^wrote (?:\d+ rows to )?(\S+)$", stdout, re.M)]
    return names


@pytest.fixture
def in_demo_copy(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "demos", tmp_path / "demos")
    monkeypatch.chdir(tmp_path)


def _run(capsys, argv: list[str]) -> list[Path]:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    named = _named_artifacts(argv, out)
    assert all(path.is_file() for path in named), (named, out)
    return named


def test_readme_and_demos_are_found():
    assert len(_readme_calls()) >= 6
    assert len(DEMOS) >= 2


@pytest.mark.parametrize("line", _readme_calls())
def test_readme_command_line_call_runs(line, capsys, in_demo_copy):
    argv = shlex.split(line)[1:]
    named = _run(capsys, argv)
    assert named or argv[0] == "sweep"  # a sweep without --out writes stdout only


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("line", _readme_calls())
def test_readme_call_as_a_program_matches_in_process(line, capsys, tmp_path, monkeypatch):
    argv = shlex.split(line)[1:]
    program, in_process = tmp_path / "program", tmp_path / "in_process"
    for where in (program, in_process):
        shutil.copytree(ROOT / "demos", where / "demos")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "phonon_optics.cli", *argv], cwd=program,
                          env=env, capture_output=True, timeout=120)
    monkeypatch.chdir(in_process)
    code = main(argv)
    out = capsys.readouterr().out
    assert (done.returncode, done.stderr) == (0, b"")
    assert code == 0
    assert done.stdout == out.encode("utf-8")
    assert _tree(program) == _tree(in_process)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_program_runs(demo, fmt, capsys, in_demo_copy):
    named = _run(capsys, ["run", f"demos/{demo}", "--format", fmt, "--out", "artifacts"])
    assert named and all(path.suffix == f".{fmt}" for path in named)


# one canonical statement for each verb the grammar names
_EXAMPLES = {
    "init": "init cat 1.5 0.0 odd c nmax 30",
    "bs1": "bs1 pi/2",
    "bs2": "bs2 0.25",
    "ps": "ps r -pi/4",
    "cphase": "cphase c 2*pi",
    "mz": "mz pi/3",
    "jcm": "jcm two 0.5 0.0 12.0 64",
    "direct": "direct r 0.001",
    "report": "report",
}


def _readme_grammar() -> list[str]:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\nGrammar, ", 1)[1]
    return section.split("```text\n", 1)[1].split("```", 1)[0].splitlines()


def _docstring_grammar() -> list[str]:
    """The first run of indented lines in the ``seqlang`` docstring."""
    lines = seqlang.__doc__.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("    "))
    block = []
    for line in lines[start:]:
        if not line.startswith("    "):
            break
        block.append(line[4:])
    return block


def _verbs(grammar: list[str]) -> list[str]:
    """The first word of each top-level alternative, groups removed."""
    verbs = []
    for line in grammar:
        while (flat := re.sub(r"\([^()]*\)", "", line)) != line:
            line = flat
        verbs += [alt.split()[0] for alt in line.split(" | ")]
    return verbs


def test_readme_grammar_is_the_module_grammar():
    assert _readme_grammar() == _docstring_grammar()
    assert _verbs(_readme_grammar()) == list(_EXAMPLES) == list(seqlang._GRAMMAR)


def _parser_flags() -> set[str]:
    """Every ``--flag`` that ``build_parser`` defines, over all subcommands."""
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    return {flag for sub in subcommands.choices.values() for action in sub._actions
            for flag in action.option_strings if flag.startswith("--")} - {"--help"}


def test_readme_names_every_cli_flag():
    # a flag that nothing lists can outlive its use unnoticed
    flags = re.findall(r"(?<![\w-])--[a-z][a-z-]*", _command_line_section())
    assert set(flags) == _parser_flags()


@pytest.mark.parametrize("verb", list(_EXAMPLES))
def test_each_grammar_verb_has_an_example_that_parses(verb):
    text = _EXAMPLES[verb] if verb == "init" else f"init fock 0 0 nmax 2\n{_EXAMPLES[verb]}"
    program = seqlang.parse(text)
    assert program.statements[-1].verb == verb
    assert seqlang.format_program(program) == text + "\n"
