import ast
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from phonon_optics import cli, detection, number_distributions, parse, parse_state_spec
from phonon_optics.cli import main
from phonon_optics.seqlang import ParseError

MZ_DEMO = "init coherent 0 0 2 0 nmax 40\nmz pi/3\nreport\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_mz_demo(tmp_path, capsys):
    path = tmp_path / "mz.seq"
    path.write_text(MZ_DEMO)
    code, out, err = run_cli(capsys, "run", str(path), "--out", str(tmp_path))
    assert code == 0
    assert err == ""
    artifact = tmp_path / "mz_report2.csv"
    assert artifact.exists()
    # the report line carries mean Jz = (n/2) cos(pi/3) = 1
    line = next(l for l in out.splitlines() if l.startswith("report[2]"))
    jz = float(line.split("jz=")[1].split()[0])
    assert jz == pytest.approx(1.0, abs=1e-9)
    assert artifact.read_text().splitlines()[0] == "m,n,p"


def test_run_json_format(tmp_path, capsys):
    path = tmp_path / "probe.seq"
    path.write_text(
        "init fock 1 0 nmax 4\njcm single 1.0 0.0 12.56 32\ndirect c 0.001\nreport\n"
    )
    code, out, _ = run_cli(capsys, "run", str(path), "--format", "json",
                           "--out", str(tmp_path))
    assert code == 0
    trace = json.loads((tmp_path / "probe_trace1.json").read_text())
    assert trace["signal_kind"] == "single"
    assert len(trace["t"]) == 32
    direct = json.loads((tmp_path / "probe_direct2.json").read_text())
    assert direct["mean_n_linearized"] == pytest.approx(1.0, rel=1e-4)
    report = json.loads((tmp_path / "probe_report3.json").read_text())
    assert report["jz"] == pytest.approx(0.5)


def test_run_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.seq"
    path.write_text("init fock 9 9 nmax 4\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "1:11" in err


def test_run_runtime_error_exit_code(tmp_path, capsys):
    path = tmp_path / "odd.seq"
    path.write_text("init cat 0 0 odd c nmax 4\n")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "line 1" in err


def test_run_cutoff_beyond_memory_exit_code(tmp_path, capsys, monkeypatch):
    from phonon_optics import fockspace

    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 100)
    path = tmp_path / "big.seq"
    path.write_text("init fock 1 0 nmax 6\nbs1 pi/2\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "line 1" in err and "memory limit" in err


def test_sweep_cutoff_beyond_memory_exit_code(capsys, monkeypatch):
    from phonon_optics import fockspace

    # about 2.4e13 bytes of state arrays against a fixed 1 TiB limit
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 2**40)
    code, out, err = run_cli(capsys, "sweep", "coherent 0 0 2 0 nmax 1000000", "--points", "4")
    assert code == 2
    assert out == ""
    assert "memory limit" in err


def test_run_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    from phonon_optics import seqlang

    def exhausted(*args, **kwargs):
        raise MemoryError("out of memory")

    monkeypatch.setattr(seqlang, "execute", exhausted)
    path = tmp_path / "any.seq"
    path.write_text("init fock 1 0 nmax 2\n")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "out of memory" in err


def test_run_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.seq"))
    assert code == 3
    assert "i/o error" in err


def parse_sweep_csv(out):
    lines = out.strip().splitlines()
    assert lines[0] == "phi,mean_jz,mean_jz2,var_jz,dmeanjz_dphi,delta_phi"
    return [list(map(float, line.split(","))) for line in lines[1:]]


def test_sweep_shot_noise_minimum(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "coherent 0 0 2 0 nmax 40", "--points", "64"
    )
    assert code == 0
    rows = parse_sweep_csv(out)
    assert len(rows) == 64
    deltas = [row[5] for row in rows]
    best = int(np.argmin(deltas))
    assert rows[best][0] == pytest.approx(math.pi / 2)
    assert deltas[best] == pytest.approx(0.5, abs=1e-6)


def test_sweep_n9_minimum(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "coherent 0 0 3 0 nmax 50", "--points", "64"
    )
    assert code == 0
    rows = parse_sweep_csv(out)
    assert min(row[5] for row in rows) == pytest.approx(1 / 3, abs=1e-6)


def test_sweep_takes_64_points_by_default(capsys):
    code, out, _ = run_cli(capsys, "sweep", "fock 0 0 nmax 3")
    assert code == 0
    assert len(parse_sweep_csv(out)) == 64


def test_sweep_vacuum_flat(capsys):
    code, out, _ = run_cli(capsys, "sweep", "fock 0 0 nmax 3", "--points", "8")
    assert code == 0
    rows = parse_sweep_csv(out)
    assert all(abs(row[1]) < 1e-13 for row in rows)


def test_sweep_to_file_matches_stdout(tmp_path, capsys):
    argv = ("sweep", "coherent 0 0 1 0 nmax 25", "--points", "16")
    code, stdout_csv, _ = run_cli(capsys, *argv)
    assert code == 0
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert out == f"wrote 16 rows to {out_file}\n"
    assert out_file.read_text() == stdout_csv


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "coherent 0 0 2 0 nmax 10", "--points", "3", "--phi-max", "pi/0"),
        ("sweep", "coherent 0 0 2 0 nmax 10", "--points", "3", "--phi-max", "inf"),
        ("sweep", "coherent 0 0 2 0 nmax 10", "--points", "3", "--phi-min", "1e400"),
        ("sweep", "coherent 0 0 2 0 nmax 10", "--points", "3", "--phi-max", "9" * 400 + "*pi"),
        ("detect", "coherent 0 0 2 0 nmax 10", "--method", "single", "--mz", "nan"),
    ],
)
def test_bad_angle_flag_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("--seed", "1", "sweep", "fock 0 0 nmax 2"),
        ("sweep", "fock 0 0 nmax 2", "--workers", "2"),
        ("sweep", "fock 0 0 nmax 2", "--fd-step", "1e-4"),
        ("sweep", "fock 0 0 nmax 6", "--nmax", "2"),
        ("detect", "fock 3 3 nmax 6", "--method", "direct", "--nmax", "2"),
        ("detect", "fock 1 0 nmax 3", "--method", "single", "--samples", "256"),
    ],
)
def test_removed_flags_are_rejected(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_non_finite_grid(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "fock 1 0 nmax 2", "--points", "2",
        "--phi-min=-1e308", "--phi-max", "1e308",
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the import alone, then every detect method, each of which runs the fit;
    # the import loads no dataclasses either, whose own import costs 1.6 ms
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import contextlib, io, sys, phonon_optics.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy_modules(), 'dataclasses' in sys.modules)\n"
        "for method in ('single', 'two', 'direct'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = phonon_optics.cli.main(['detect', 'coherent 0 0 1 0.5 nmax 8',\n"
        "                                       '--method', method, '--out', method])\n"
        "    print(method, code, scipy_modules())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True, cwd=tmp_path,
    )
    assert done.stdout.splitlines() == ["[] False", "single 0 []", "two 0 []", "direct 0 []"]


@pytest.mark.parametrize("value", ["-pi/2", "-2*pi/3", "-1e-1", "-.5"])
def test_negative_angle_as_separate_argument(capsys, value):
    spec = ("sweep", "fock 1 0 nmax 2", "--points", "2")
    code, joined, _ = run_cli(capsys, *spec, f"--phi-min={value}")
    assert code == 0
    code, separate, err = run_cli(capsys, *spec, "--phi-min", value)
    assert code == 0
    assert err == ""
    assert separate == joined


def test_negative_mz_angle_as_separate_argument(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = ("detect", "coherent 0 0 1 0 nmax 8", "--method", "direct")
    code, joined, _ = run_cli(capsys, *spec, "--mz=-pi/3", "--out", "joined")
    assert code == 0
    code, separate, _ = run_cli(capsys, *spec, "--mz", "-pi/3", "--out", "separate")
    assert code == 0
    assert separate.replace("separate", "joined") == joined


def test_angle_flag_still_needs_a_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fock 1 0 nmax 2", "--phi-min", "--points", "2"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_run_with_splitters_leaves_scipy_unloaded(tmp_path):
    program = tmp_path / "split.seq"
    program.write_text(
        "init coherent 0.5 0 1 0.2 nmax 12\nbs1 pi/3\nbs2 -pi/4\nmz pi/5\nreport\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys; from phonon_optics.cli import main; "
        f"code = main(['run', {str(program)!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.strip().splitlines()[-1] == "0 []"
    assert (tmp_path / "split_report4.csv").exists()


def test_program_path_freezes_the_import_heap(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import gc, sys; from phonon_optics.cli import main; "
        "sys.argv = ['phonon-optics', 'sweep', 'fock 1 0 nmax 2', '--points', '2', "
        "'--out', 'sweep.csv']; "
        "code = main(); print(code, gc.get_freeze_count() > 0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True, cwd=tmp_path,
    )
    assert done.stdout.splitlines()[-1] == "0 True"


def test_in_process_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, "sweep", "fock 1 0 nmax 2", "--points", "2")
    assert code == 0
    assert gc.get_freeze_count() == frozen


def test_sweep_bad_state_spec(capsys):
    code, _, err = run_cli(capsys, "sweep", "squeezed 1 0 nmax 4")
    assert code == 1
    assert "parse error" in err


def test_a_one_word_state_spec_is_a_parse_error_at_its_end(capsys):
    # the error is located by the spec's first word, the only one it has
    assert run_cli(capsys, "detect", "fock", "--method", "single") == (
        1, "", "parse error: 1:5: 'init' is missing M\n")


def test_sweep_rejects_single_point(capsys):
    code, _, err = run_cli(capsys, "sweep", "fock 0 0 nmax 2", "--points", "1")
    assert code == 2


@pytest.mark.parametrize("phi", ["1.5", "0"])
def test_sweep_rejects_empty_phase_range(capsys, phi):
    code, out, err = run_cli(
        capsys, "sweep", "fock 1 0 nmax 2", "--points", "4", "--phi-min", phi, "--phi-max", phi,
    )
    assert code == 2
    assert out == ""
    assert f"empty phase range [{float(phi)!r}, {float(phi)!r})" in err


def test_detect_single_on_mz_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "detect", "coherent 0 0 2 0 nmax 25", "--method", "single",
        "--mz", "pi/3", "--m-max", "20",
    )
    assert code == 0
    jz_line = next(l for l in out.splitlines() if l.startswith("jz_exact"))
    fields = dict(part.split("=") for part in jz_line.split())
    assert float(fields["jz_reconstructed"]) == pytest.approx(1.0, abs=1e-3)
    assert float(fields["jz_direct"]) == pytest.approx(1.0, abs=1e-3)
    assert (tmp_path / "detect_trace.csv").exists()
    rec = json.loads((tmp_path / "detect_p.json").read_text())
    assert len(rec["p"]) == 21


def test_detect_two_on_fock11(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "detect", "fock 1 1 nmax 6", "--method", "two", "--k-max", "6",
        "--out", "pair",
    )
    assert code == 0
    rec = json.loads((tmp_path / "pair_q.json").read_text())
    assert float(rec["q"]["1"]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("mode", ["c", "r"])
def test_detect_two_refuses_a_mode(tmp_path, capsys, monkeypatch, mode):
    # the two-mode probe drives both modes; --mode used to be read and ignored
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "detect", "fock 1 1 nmax 6", "--method", "two",
                             "--mode", mode, "--out", "pair")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --mode is for --method single and direct")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["single", "direct"])
def test_detect_refuses_k_max_outside_two(tmp_path, capsys, monkeypatch, method):
    # only the two-mode fit reads --k-max; the other methods used to ignore it
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "detect", "fock 1 1 nmax 6", "--method", method,
                             "--k-max", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --k-max is for --method two")
    assert list(tmp_path.iterdir()) == []


def test_detect_direct(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "detect", "coherent 0 0 2 0 nmax 25", "--method", "direct",
        "--mz", "pi/3", "--chi-t", "1e-3",
    )
    assert code == 0
    est = json.loads((tmp_path / "detect_direct.json").read_text())
    # MZ output at phi = pi/3 holds 3 phonons in the c.m. mode
    assert est["mean_n_linearized"] == pytest.approx(3.0, abs=1e-3)


def closed_form_mean_n(spec, chi_t):
    """-<sigma_x2> / (2 chi_t), with <sigma_x2> = -sum_k p_k sin(2 chi_t k)
    over the c-mode marginal of ``spec``."""
    p = number_distributions(parse_state_spec(spec)).p_m
    return float(np.sin(2 * chi_t * np.arange(p.size)) @ p) / (2 * chi_t)


# At phases 2 chi_t n this large, the closed form and a replay of the carrier
# pulse and conditional phase round apart by more than 1e-12; the readout used
# to replay the protocol on every call and refuse these with exit 2.
@pytest.mark.parametrize("method", ["direct", "single"])
def test_detect_direct_readout_at_large_phase(tmp_path, capsys, monkeypatch, method):
    monkeypatch.chdir(tmp_path)
    spec = "fock 40 0 nmax 40"
    code, out, err = run_cli(capsys, "detect", spec, "--method", method, "--chi-t", "777.77")
    assert (code, err) == (0, "")
    if method == "direct":
        got = json.loads((tmp_path / "detect_direct.json").read_text())["mean_n_linearized"]
    else:  # the comparison's jz_direct is (n_c - n_r) / 2, and n_r = 0 here
        got = 2 * float(out.split("jz_direct=")[1].split()[0])
    assert got == pytest.approx(closed_form_mean_n(spec, 777.77), rel=1e-12)


def test_run_direct_readout_at_large_phase(tmp_path, capsys):
    path = tmp_path / "big.seq"
    path.write_text("init fock 300 0 nmax 300\ndirect c 12345.678\n")
    code, _, err = run_cli(capsys, "run", str(path), "--format", "json", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    got = json.loads((tmp_path / "big_direct1.json").read_text())["mean_n_linearized"]
    assert got == pytest.approx(closed_form_mean_n("fock 300 0 nmax 300", 12345.678), rel=1e-12)


def test_detect_bad_params_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "detect", "fock 1 0 nmax 4", "--method", "direct", "--chi-t", "0",
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags", [("--method", "single", "--m-max"), ("--method", "two", "--k-max")]
)
def test_detect_absurd_weight_count_exit_code(tmp_path, capsys, monkeypatch, flags):
    # the default grid sized for 2**62 + 1 weights carries twice as many
    # samples, so its memory is refused before the grid or a dictionary of
    # 2**62 + 1 roots is built
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "detect", "fock 1 1 nmax 3", *flags, str(2**62))
    assert code == 2
    assert "samples need about" in err and "more than the memory limit" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--method", "single", "--m-max", "-3"), "m_max must be nonnegative, got -3"),
        (("--method", "two", "--k-max", "-1"), "k_max must be nonnegative, got -1"),
    ],
)
def test_detect_negative_cutoff_exit_code(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "detect", "coherent 0 0 1 0 nmax 10", *flags)
    assert code == 2
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_detect_two_refuses_its_fit_before_the_comparison(tmp_path, capsys, monkeypatch):
    from phonon_optics import fockspace

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 2**40)

    def fit(*args, **kwargs):
        pytest.fail("an NNLS fit ran before the refusal")

    monkeypatch.setattr(detection, "jz_from_methods", fit)
    monkeypatch.setattr(detection, "_nnls", fit)
    code, out, err = run_cli(
        capsys, "detect", "coherent 7 0.5 0 0 nmax 127", "--method", "two", "--k-max", "100000",
    )
    assert code == 2
    assert out == ""
    assert "for 100001 weights, 413119 samples need about 1.32e+12 bytes" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k_max", ["-1", "-5"])
def test_detect_two_reads_k_max_before_any_trace(tmp_path, capsys, monkeypatch, k_max):
    monkeypatch.chdir(tmp_path)

    def early(*args, **kwargs):
        pytest.fail("a trace or the comparison ran before k_max was read")

    monkeypatch.setattr(detection, "signal", early)
    monkeypatch.setattr(detection, "jz_from_methods", early)
    code, out, err = run_cli(capsys, "detect", "coherent 7 0.5 0 0 nmax 100", "--method", "two",
                             "--k-max", k_max)
    assert code == 2
    assert out == ""
    assert f"k_max must be nonnegative, got {k_max}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--chi-t", "-1", "chi * t must be finite and positive, got -1.0"),
    ("--m-max", "-1", "m_max must be nonnegative, got -1"),
])
def test_detect_two_reads_the_comparison_before_its_trace(tmp_path, capsys, monkeypatch,
                                                          flag, value, message):
    monkeypatch.chdir(tmp_path)

    def early(*args, **kwargs):
        pytest.fail("the two-mode trace or fit ran before the comparison read its arguments")

    monkeypatch.setattr(detection, "signal", early)
    monkeypatch.setattr(detection, "reconstruct_two", early)
    code, out, err = run_cli(capsys, "detect", "coherent 3 1 4 0 nmax 200", "--method", "two",
                             flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def _borrowed(source):
    """Each private ``detection`` name that ``source`` reads, and each
    ``times`` it reads off a comparison's ``traces``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("detection"):
            found += [f"detection.{alias.name}" for alias in node.names if alias.name[0] == "_"]
        elif not isinstance(node, ast.Attribute):
            continue
        elif isinstance(node.value, ast.Name) and node.value.id == "detection":
            found += [f"detection.{node.attr}"] if node.attr[0] == "_" else []
        elif node.attr == "times" and any(
                isinstance(n, ast.Attribute) and n.attr == "traces" for n in ast.walk(node.value)):
            found.append("traces.times")
    return sorted(found)


def test_cli_reads_no_private_detection_name_and_no_comparison_times():
    # the probe grid and its checks belong to detection.default_times
    own = ("from .detection import _nnls, signal\ndetection._require_samples(8, 2)\n"
           "t = comparison.traces[0].times\nn = trace.times.size\ndetection.signal\n")
    assert _borrowed(own) == ["detection._nnls", "detection._require_samples", "traces.times"]
    assert _borrowed(Path(cli.__file__).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("method", ["single", "direct"])
def test_detect_at_nmax_200_fits_on_the_sized_grid(tmp_path, capsys, monkeypatch, method):
    # a fixed grid of 256 samples refused this: "256 samples cannot determine 201 weights"
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "detect", "coherent 7 0.5 0 0 nmax 200", "--method", method)
    assert code == 0 and err == ""
    fields = dict(f.split("=") for f in out.splitlines()[1].split())
    assert abs(float(fields["jz_reconstructed"]) - float(fields["jz_exact"])) <= 1e-9
    if method == "single":
        assert len((tmp_path / "detect_trace.csv").read_text().splitlines()) == 1 + 827


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--method", "single", "--coupling", "nan"), "coupling must be finite and positive, got nan"),
        (("--method", "two", "--coupling", "inf"), "coupling must be finite and positive, got inf"),
        (("--method", "single", "--coupling", "1e-320"), "coupling 1e-320 is too small"),
        (("--method", "direct", "--chi-t", "nan"), "chi * t must be finite and positive, got nan"),
        (("--method", "single", "--chi-t", "inf"), "chi * t must be finite and positive, got inf"),
    ],
)
def test_detect_non_finite_parameter_is_named(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning on the way fails the test
        code, _, err = run_cli(capsys, "detect", "fock 1 0 nmax 4", *flags)
    assert code == 2
    assert message in err
    assert "Warning" not in err
    assert list(tmp_path.iterdir()) == []


def test_detect_validates_before_printing(tmp_path, capsys, monkeypatch):
    # the single-mode result line used to be printed before --chi-t was checked
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "detect", "fock 1 0 nmax 4", "--method", "single", "--chi-t", "inf"
    )
    assert code == 2
    assert out == ""
    assert "chi * t must be finite and positive, got inf" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_points_beyond_memory(capsys, monkeypatch):
    from phonon_optics import fockspace

    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 10**6)
    code, out, err = run_cli(capsys, "sweep", "fock 1 0 nmax 4", "--points", "2000")
    assert code == 2
    assert out == ""
    assert "--points 2000 needs about" in err and "memory limit" in err
    code, out, _ = run_cli(capsys, "sweep", "fock 1 0 nmax 4", "--points", "500")
    assert code == 0
    assert len(out.splitlines()) == 501
    # 1 KiB a point: 976 points fit in 10**6 bytes, and 977 do not
    assert run_cli(capsys, "sweep", "fock 1 0 nmax 4", "--points", "976")[0] == 0
    assert run_cli(capsys, "sweep", "fock 1 0 nmax 4", "--points", "977")[0] == 2


DETECT_SINGLE = ("detect", "fock 1 0 nmax 4", "--method", "single")
DETECT_TWO = ("detect", "fock 1 1 nmax 4", "--method", "two")


@pytest.mark.parametrize(
    "refused, runs, message",
    [
        # 1240 samples x (48 + 32 x 301 weights) B = 1.2e7 B against 1e7 B
        (DETECT_SINGLE + ("--m-max", "300"), DETECT_SINGLE + ("--m-max", "200"),
         "for 301 weights, 1240 samples need about 1.2e+07 bytes"),
        # the comparison's fits would pass; the two-mode fit of 281 weights does not
        (DETECT_TWO + ("--k-max", "280"), DETECT_TWO + ("--k-max", "4"),
         "for 281 weights, 1157 samples need about 1.05e+07 bytes"),
        (("run", "init fock 1 0 nmax 4\njcm single 1 0 10 1000000\n"),
         ("run", "init fock 1 0 nmax 4\njcm single 1 0 10 100000\n"),
         "line 2: 1000000 samples need about 4.8e+07 bytes"),
    ],
    ids=["detect-single", "detect-two", "run-jcm"],
)
def test_sample_count_beyond_memory_is_refused(tmp_path, capsys, monkeypatch, refused, runs,
                                               message):
    # the limit is patched, so the refused grid is never allocated
    from phonon_optics import fockspace

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 10**7)

    def call(argv):
        if argv[0] == "run":
            Path("samples.seq").write_text(argv[1])
            argv = ("run", "samples.seq", "--out", "out")
        return run_cli(capsys, *argv)

    code, out, err = call(refused)
    assert code == 2
    assert out == ""
    assert message in err and "more than the memory limit of 1e+07 bytes" in err
    assert [p.name for p in tmp_path.iterdir() if p.name != "samples.seq"] == []
    assert call(runs)[0] == 0


@pytest.mark.parametrize("method, name", [("single", "reconstruct_single"),
                                          ("direct", "direct_mean_phonon")])
def test_detect_reuses_the_comparison(tmp_path, capsys, monkeypatch, method, name):
    # one call per mode, both made by the comparison; detect used to repeat
    # the call for its own mode
    monkeypatch.chdir(tmp_path)
    original = getattr(detection, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(detection, name, counting)
    code, _, _ = run_cli(capsys, "detect", "coherent 0 0 1 0 nmax 10", "--method", method)
    assert code == 0
    assert len(calls) == 2


@pytest.mark.parametrize(
    "argv, want",
    [
        (("run", "init coherent 1e200 0 0 0 nmax 5\nreport\n"), 2),
        (("run", "init cat 0 3e154 odd c nmax 5\n"), 2),
        (("run", "init coherent inf 0 0 0 nmax 5\n"), 1),
        (("sweep", "coherent 1e200 0 0 0 nmax 5", "--points", "2"), 2),
        (("sweep", "cat 1e300 0 even r nmax 5"), 2),
        (("sweep", "coherent 0 0 nan 0 nmax 5"), 1),
        (("sweep", "fock 1 0 nmax 4", "--points", "100000"), 2),
        (("detect", "coherent 0 0 1e200 0 nmax 5", "--method", "single"), 2),
        (("detect", "cat -1e200 0 even c nmax 5", "--method", "direct"), 2),
        (("detect", "coherent 0 -inf 0 0 nmax 5", "--method", "two"), 1),
        (("detect", "fock 1 0 nmax 4", "--method", "two", "--coupling", "1e308"), 2),
        (("detect", "fock 1 0 nmax 4", "--method", "direct", "--chi-t", "1e308"), 2),
        (("run", "init fock 1 0 nmax 4\njcm single 1e308 0 1e308 4\n"), 2),
        (("run", "init fock 1 0 nmax 4\njcm single 1 -1e308 1e308 4\n"), 1),
    ],
)
def test_hostile_input_exits_without_traceback(tmp_path, capsys, monkeypatch, argv, want):
    from phonon_optics import fockspace

    monkeypatch.chdir(tmp_path)
    # small enough that --points 100000 is refused before any grid is built
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 10**7)
    if argv[0] == "run":
        Path("hostile.seq").write_text(argv[1])
        argv = ("run", "hostile.seq")
    code, out, err = run_cli(capsys, *argv)  # an escaping exception fails the test
    assert code == want
    assert out == ""
    assert "Traceback" not in err and err.startswith(("error: ", "parse error: "))
    assert [p.name for p in tmp_path.iterdir() if p.name != "hostile.seq"] == []


@pytest.mark.parametrize("command", ["run", "sweep", "detect"])
def test_integer_too_long_to_convert_is_a_parse_error(tmp_path, capsys, monkeypatch, command):
    # int() refuses text of more than 4,300 digits with its own ValueError;
    # the parser reports it at the token, like any other bad slot
    monkeypatch.chdir(tmp_path)
    spec = "fock 0 0 nmax " + "9" * 5000
    if command == "run":
        Path("long.seq").write_text(f"init {spec}\n")
        argv = ("run", "long.seq")
    else:
        argv = (command, spec) + (("--method", "direct") if command == "detect" else ())
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    col = 20 if command == "run" else 15  # a state spec is located as given, without "init "
    assert err == f"parse error: 1:{col}: nmax has 5000 digits, too many to read as an integer\n"
    assert [p.name for p in tmp_path.iterdir()] == (["long.seq"] if command == "run" else [])


@pytest.mark.parametrize(
    "angle, part", [("9" * 5000 + "*pi", "numerator"), ("-pi/" + "9" * 5000, "denominator")],
    ids=["numerator", "denominator"],
)
def test_pi_fraction_too_long_to_convert_is_refused(tmp_path, capsys, monkeypatch, angle, part):
    # int() refuses either part of more than 4,300 digits with its own
    # ValueError, which asks for sys.set_int_max_str_digits()
    monkeypatch.chdir(tmp_path)
    message = f"pi {part} has 5000 digits, too many to read as an integer"
    program = f"init fock 0 0 nmax 2\nbs1 {angle}\n"
    with pytest.raises(ParseError) as exc:
        parse(program)
    assert (exc.value.line, exc.value.col, exc.value.message) == (2, 5, message)

    Path("long.seq").write_text(program)
    assert run_cli(capsys, "run", "long.seq") == (1, "", f"parse error: 2:5: {message}\n")

    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "fock 0 0 nmax 2", "--phi-min", angle])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.endswith(f"--phi-min: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["long.seq"]


def test_detect_fit_iteration_limit_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(detection, "_NNLS_ITERATIONS_PER_COLUMN", 0)
    code, _, err = run_cli(capsys, "detect", "fock 1 0 nmax 4", "--method", "single")
    assert code == 2
    assert "did not converge in 0 iterations" in err


def _keys(path):
    return list(json.loads(path.read_text()))


def _header(path):
    return path.read_text().splitlines()[0]


TRACE_KEYS = ["kind", "coupling", "signal_kind", "mode", "t", "p_g"]
DIRECT_KEYS = ["kind", "sigma_x_exact", "mean_n_linearized", "chi_t", "mode"]
DIRECT_HEADER = "sigma_x_exact,mean_n_linearized,chi_t,mode"


def test_run_artifact_formats_are_pinned(tmp_path, capsys):
    path = tmp_path / "probe.seq"
    path.write_text("init fock 1 0 nmax 4\nreport\njcm single 1.0 0.0 12.56 32\ndirect c 0.001\n")
    for fmt in ("json", "csv"):
        code, _, _ = run_cli(capsys, "run", str(path), "--format", fmt, "--out", str(tmp_path))
        assert code == 0
    assert _keys(tmp_path / "probe_report1.json") == [
        "kind", "index", "jx", "jy", "jz", "mean_jz", "p_m", "p_n", "p"]
    assert _keys(tmp_path / "probe_trace2.json") == TRACE_KEYS
    assert _keys(tmp_path / "probe_direct3.json") == DIRECT_KEYS
    assert _header(tmp_path / "probe_report1.csv") == "m,n,p"
    assert _header(tmp_path / "probe_trace2.csv") == "t,p_g"
    assert _header(tmp_path / "probe_direct3.csv") == DIRECT_HEADER
    assert len((tmp_path / "probe_direct3.csv").read_text().splitlines()) == 2


def test_detect_artifact_formats_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for method in ("single", "two", "direct"):
        code, _, _ = run_cli(capsys, "detect", "fock 1 1 nmax 4", "--method", method,
                             "--out", method)
        assert code == 0
    assert _keys(tmp_path / "single_p.json") == ["p", "residual"]
    assert _keys(tmp_path / "two_q.json") == ["q", "residual"]
    assert _keys(tmp_path / "direct_direct.json") == DIRECT_KEYS
    assert _header(tmp_path / "single_trace.csv") == "t,p_g"
    assert _header(tmp_path / "two_trace.csv") == "t,p_g"


@pytest.mark.parametrize("mode", ["c", "r"])
def test_run_and_detect_write_the_same_direct_json(tmp_path, capsys, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    Path("d.seq").write_text(f"init coherent 0.5 0 1 0.25 nmax 12\ndirect {mode} 0.002\n")
    assert run_cli(capsys, "run", "d.seq", "--format", "json")[0] == 0
    assert run_cli(capsys, "detect", "coherent 0.5 0 1 0.25 nmax 12", "--method", "direct",
                   "--mode", mode, "--chi-t", "0.002")[0] == 0
    assert Path("d_direct1.json").read_text() == Path("detect_direct.json").read_text()


NINES_400 = "9" * 400


@pytest.mark.parametrize("argv", [
    ("sweep", "fock 0 0 nmax 3", "--points", NINES_400),
    ("sweep", f"fock 0 0 nmax {'9' * 160}"),
    ("detect", "fock 1 0 nmax 3", "--method", "single", "--m-max", str(10**300)),
    ("run", f"init fock 1 0 nmax 3\njcm single 1 0 1 {NINES_400}\n"),
], ids=["sweep-points", "sweep-nmax", "detect-samples", "run-jcm-samples"])
def test_byte_counts_beyond_the_float_range_are_refused(tmp_path, capsys, monkeypatch, argv):
    # each count used to be formatted as a float before the check, which
    # leaked "OverflowError: int too large to convert to float"
    from phonon_optics import fockspace

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 2**40)
    if argv[0] == "run":
        Path("big.seq").write_text(argv[1])
        argv = ("run", "big.seq", "--out", "out")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "bytes, more than the memory limit of 1.1e+12 bytes" in err
    assert "Traceback" not in err
