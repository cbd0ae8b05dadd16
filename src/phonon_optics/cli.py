"""Command-line front end.

Three subcommands:

* ``run``     execute a .seq pulse program and write its report artifacts;
* ``sweep``   sweep the interferometer phase for a given input state and
              emit the statistics table as CSV;
* ``detect``  run one detection scheme on a state and write the trace and
              reconstruction artifacts, plus the three-way <Jz> comparison.

State specs reuse the sequence language's init clause verbatim, e.g.
``"coherent 0 0 2 0 nmax 40"``.  Exit codes: 0 success, 1 parse error,
2 runtime error, 3 I/O failure.  Floats are printed with 17 significant
digits so a reader can reproduce them exactly.

Every artifact format lives on the record that owns its fields, as its
``to_csv`` or ``to_json``; this module only names the files and routes
each record to one.

Run as a program (``python -m phonon_optics.cli`` or the ``phonon-optics``
script, both of which call ``main()`` without arguments), ``main`` first
calls ``gc.freeze()``: the objects the imports created live until exit, so
the collector, and the collections at interpreter shutdown, skip them.  A
call ``main(argv)`` from Python leaves its host's collector alone.
"""

import argparse
import gc
import math
import re
import sys
from pathlib import Path

from . import detection, fockspace, interferometer, seqlang


def _angle(text: str) -> float:
    """Flag type accepting decimal radians or pi fractions like ``pi/3``."""
    try:
        return seqlang.parse_angle(text.strip()).value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_ANGLE_FLAGS = ("--phi-min", "--phi-max", "--mz")
_NEGATIVE_ANGLE = re.compile(r"-(\d|\.\d|pi)", re.IGNORECASE)

# tracemalloc reads about 0.72 KB of peak heap per sweep point (its grid
# value, report and CSV row); the rest covers the allocator's overhead.
_SWEEP_BYTES_PER_POINT = 1024


def _attach_negative_angles(argv: list[str]) -> list[str]:
    """Rewrite ``--phi-min -pi/2`` as ``--phi-min=-pi/2``.

    argparse reads a separate flag value that starts with '-' as an option
    unless it is a plain decimal, so a negative pi fraction or exponent
    literal after an angle flag would be rejected as a missing argument.
    """
    out: list[str] = []
    pending = False
    for token in argv:
        if pending and _NEGATIVE_ANGLE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
        pending = token in _ANGLE_FLAGS
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonon-optics",
        description="Two-mode phonon optics: pulse programs, interferometer "
        "sweeps and phonon-number detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a .seq pulse program")
    p_run.add_argument("path", help="pulse program file (.seq)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="artifact format (default csv)")
    p_run.add_argument("--out", default=".", help="directory for artifacts (default .)")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="interferometer phase sweep")
    p_sweep.add_argument("state_spec", help="init clause, e.g. 'coherent 0 0 2 0 nmax 40'")
    p_sweep.add_argument("--phi-min", type=_angle, default=0.0)
    p_sweep.add_argument("--phi-max", type=_angle, default=2.0 * math.pi,
                         help="grid is half open: [phi-min, phi-max)")
    p_sweep.add_argument("--points", type=int, default=64)
    p_sweep.add_argument("--out", default=None, help="CSV file (default stdout)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_det = sub.add_parser("detect", help="run one detection scheme")
    p_det.add_argument("state_spec", help="init clause, e.g. 'fock 1 1 nmax 4'")
    p_det.add_argument("--method", choices=("single", "two", "direct"), required=True)
    p_det.add_argument("--mode", choices=fockspace._MODES, default=None,
                       help="probed mode for single/direct (default c); "
                            "refused for two, which probes both modes")
    p_det.add_argument("--coupling", type=float, default=1.0,
                       help="probe coupling in rad/s (default 1.0)")
    p_det.add_argument("--samples", type=int, help="samples per trace (default: sized to the fit)")
    p_det.add_argument("--m-max", type=int, default=None,
                       help="largest phonon number fitted (default nmax)")
    p_det.add_argument("--k-max", type=int, default=None,
                       help="largest product m*n fitted by --method two (default nmax)")
    p_det.add_argument("--chi-t", type=float, default=1e-3,
                       help="dispersive angle of the direct readout")
    p_det.add_argument("--mz", type=_angle, default=None,
                       help="push the state through the interferometer at this "
                            "phase before detecting")
    p_det.add_argument("--out", default="detect", help="artifact file prefix")
    p_det.set_defaults(handler=cmd_detect)
    return parser


def cmd_run(args) -> int:
    path = Path(args.path)
    text = path.read_text(encoding="utf-8")
    program = seqlang.parse(text)
    result = seqlang.execute(program)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for record in result.records:
        if isinstance(record, seqlang.ReportRecord):
            kind, item = "report", record
            note = f"jz={item.distribution.mean_jz:.17g} jx={item.jx:.17g} jy={item.jy:.17g}"
        elif isinstance(record, seqlang.TraceRecord):
            kind, item = "trace", record.trace
            note = f"kind={item.kind} samples={item.times.size}"
        else:
            kind, item = "direct", record.estimate
            note = f"mode={item.mode} mean_n={item.mean_n_linearized:.17g}"
        name = f"{path.stem}_{kind}{record.index}.{args.format}"
        print(f"{kind}[{record.index}]: {note} -> {name}")
        body = item.to_csv() if args.format == "csv" else item.to_json()
        (out_dir / name).write_text(body, encoding="utf-8")
    final = result.final_state
    print(
        f"done: {len(result.records)} record(s), final state nmax={final.trunc.n_total_max} "
        f"tail_mass={final.tail_mass:.3g}"
    )
    return 0


def cmd_sweep(args) -> int:
    if args.points < 2:
        raise ValueError("sweep needs at least two grid points")
    if args.phi_min == args.phi_max:
        raise ValueError(f"empty phase range [{args.phi_min!r}, {args.phi_max!r}): "
                         "--phi-max must differ from --phi-min")
    need = _SWEEP_BYTES_PER_POINT * args.points
    fockspace._require_memory(need, f"--points {args.points} needs")
    state = seqlang.parse_state_spec(args.state_spec)
    step = (args.phi_max - args.phi_min) / args.points
    grid = [args.phi_min + k * step for k in range(args.points)]
    reports = interferometer.phase_sweep(state, grid)
    csv_text = interferometer.sweep_to_csv(reports)
    if args.out is None:
        sys.stdout.write(csv_text)
    else:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.points} rows to {args.out}")
    return 0


def cmd_detect(args) -> int:
    state = seqlang.parse_state_spec(args.state_spec)
    if args.method == "two" and args.mode is not None:
        raise ValueError("--mode is for --method single and direct: the two-mode probe "
                         "drives both modes")
    if args.method != "two" and args.k_max is not None:
        raise ValueError("--k-max is for --method two: only the two-mode probe fits "
                         "products m*n")
    mode = args.mode or "c"
    if args.mz is not None:
        state = interferometer.mz_output(state, args.mz)
    if args.method == "two":  # its grid first; its trace and fit run after the comparison
        k_max = state.trunc.n_total_max if args.k_max is None else fockspace._nonnegative(args.k_max, "k_max")
        times = detection.default_times(args.coupling, args.samples, k_max + 1)
    # the comparison reads every other detection parameter before its first trace
    comparison = detection.jz_from_methods(
        state, coupling=args.coupling, n_samples=args.samples,
        m_max=args.m_max, chi_t=args.chi_t,
    )

    side = fockspace._MODES.index(mode)  # the comparison's pairs are in this order
    artifacts: list[tuple[str, str]] = []
    if args.method == "single":
        rec = comparison.fits[side]
        artifacts.append((f"{args.out}_trace.csv", comparison.traces[side].to_csv()))
        artifacts.append((f"{args.out}_p.json", rec.to_json()))
        print(f"single[{mode}]: mean_n={rec.mean_n:.17g} residual={rec.residual:.3g}")
    elif args.method == "two":
        trace = detection.signal(state, args.coupling, times, "two")
        rec = detection.reconstruct_two(trace, k_max)
        artifacts.append((f"{args.out}_trace.csv", trace.to_csv()))
        artifacts.append((f"{args.out}_q.json", rec.to_json()))
        top = int(rec.q.argmax())
        print(f"two: dominant product k={top} q_k={rec.q[top]:.17g} "
              f"residual={rec.residual:.3g}")
    else:
        est = comparison.directs[side]
        artifacts.append((f"{args.out}_direct.json", est.to_json()))
        print(f"direct[{est.mode}]: sigma_x={est.sigma_x_exact:.17g} "
              f"mean_n={est.mean_n_linearized:.17g}")

    print(comparison.summary())
    for name, body in artifacts:
        Path(name).write_text(body, encoding="utf-8")
        print(f"wrote {name}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        # The import heap lives until exit, so the collector and the
        # shutdown collections need not walk it again.
        gc.freeze()
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_attach_negative_angles(list(argv)))
    try:
        return args.handler(args)
    except seqlang.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (seqlang.ExecutionError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
