"""The README's command-line calls and the demo programs run as documented.

Each call goes through ``cli.main`` in a temporary directory holding a copy
of ``demos/``; it must exit 0, and every artifact it names on stdout must
exist.  Each README call also runs as a program, ``python -m
phonon_optics.cli``, and must print and write the same bytes as in process.
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from phonon_optics.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.seq"))


def _readme_calls() -> list[str]:
    """The ``phonon-optics ...`` lines of the README's "Command line" block."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
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
