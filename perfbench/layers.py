"""Layer map of the benchmark.

``WRAPPED`` names the public functions the traced child wraps in a span,
and the span each one records.  ``PER_LAYER`` lists every per-layer metric
the traced run emits, its unit, and the end-to-end metric (and workload) it
is expected to move.  Counts labelled "computed" are derived from argument
sizes at the ``operators`` boundary, not measured, so they repeat exactly.

This module imports nothing heavy: the traced child loads it before it
starts timing the package import.
"""

# (module, attribute, span name).  Several functions may share a span name.
WRAPPED = (
    ("phonon_optics.cli", "main", "cli.main"),
    ("phonon_optics.seqlang", "parse", "seqlang.parse"),
    ("phonon_optics.seqlang", "execute", "seqlang.execute"),
    ("phonon_optics.operators", "beam_splitter", "operators.beam_splitter"),
    ("phonon_optics.operators", "apply", "operators.apply"),
    ("phonon_optics.operators", "phase_shifter", "operators.phase_shifter"),
    ("phonon_optics.interferometer", "mz_output", "interferometer.mz_output"),
    ("phonon_optics.interferometer", "mz_report", "interferometer.mz_report"),
    ("phonon_optics.interferometer", "phase_sweep", "interferometer.phase_sweep"),
    ("phonon_optics.interferometer", "sweep_to_csv", "interferometer.sweep_to_csv"),
    ("phonon_optics.fockspace", "expect", "fockspace.expect"),
    ("phonon_optics.fockspace", "make_fock", "fockspace.state_build"),
    ("phonon_optics.fockspace", "make_coherent", "fockspace.state_build"),
    ("phonon_optics.fockspace", "make_cat", "fockspace.state_build"),
    ("phonon_optics.fockspace", "number_distributions", "fockspace.number_distributions"),
    ("phonon_optics.detection", "level_sets", "detection.level_sets"),
    ("phonon_optics.detection", "signal", "detection.signal"),
    ("phonon_optics.detection", "direct_mean_phonon", "detection.direct_mean_phonon"),
    ("phonon_optics.detection", "jz_from_methods", "detection.jz_from_methods"),
    ("phonon_optics.detection", "reconstruct_single", "detection.reconstruct"),
    ("phonon_optics.detection", "reconstruct_two", "detection.reconstruct"),
)

_IMPORT = "setup_s and wall_s on cli-demo; under 10% of wall_s on large-cutoff"
_BUILD = "wall_s and peak_rss_mb on large-cutoff; no effect on cli-demo"
_SWEEP = "wall_s on sweep-dense"
_RUN = "wall_s on large-cutoff"
_DETECT = "wall_s on cli-demo (detect calls); regression guard"
_PARSE = "wall_s on cli-demo (run calls)"

# (metric, unit, better, what it measures, end-to-end metric it should move).
# Values are per pass over the workload's operation list: counts are summed
# over the pass, times are the summed span self times of the pass, and the
# median over the run's traced passes is reported.
PER_LAYER = (
    ("import.total_s", "s", "lower", "-X importtime: phonon_optics + phonon_optics.cli cumulative", _IMPORT),
    ("import.numpy_s", "s", "lower", "-X importtime: numpy cumulative", _IMPORT),
    ("import.scipy_linalg_s", "s", "lower", "-X importtime: scipy.linalg cumulative", _IMPORT),
    ("import.scipy_optimize_s", "s", "lower", "-X importtime: scipy.optimize cumulative", _IMPORT),
    ("import.phonon_optics_s", "s", "lower", "-X importtime: self time of phonon_optics modules", _IMPORT),
    ("process.startup_s", "s", "lower", "spawn to the child's first statement (exec, interpreter, site)", _IMPORT),
    ("process.exit_s", "s", "lower", "child's last statement to reap (interpreter finalization)", _IMPORT),
    ("operators.beam_splitter.calls", "count", "lower", "beam-splitter builds", _BUILD),
    ("operators.beam_splitter.self_s", "s", "lower", "span self time", _BUILD),
    ("operators.beam_splitter.cubic_ops", "count", "lower", "computed: sum_{N<=nmax} (N+1)^3 per build", _BUILD),
    ("operators.apply.calls", "count", "lower", "operator applications", _SWEEP),
    ("operators.apply.self_s", "s", "lower", "span self time", _SWEEP),
    ("operators.apply.block_bytes", "B", "lower", "computed: 16 sum_{N<=nmax} (N+1)^2 per block apply", _SWEEP),
    ("operators.phase_shifter.calls", "count", "lower", "phase-shifter builds", _SWEEP),
    ("operators.phase_shifter.self_s", "s", "lower", "span self time", _SWEEP),
    ("interferometer.mz_output.calls", "count", "lower", "interferometer passes", _SWEEP),
    ("interferometer.mz_output.self_s", "s", "lower", "span self time", _SWEEP),
    ("interferometer.mz_report.calls", "count", "lower", "reports incl. finite differences", _SWEEP),
    ("interferometer.mz_report.self_s", "s", "lower", "span self time", _SWEEP),
    ("interferometer.phase_sweep.self_s", "s", "lower", "span self time", _SWEEP),
    ("interferometer.sweep_to_csv.self_s", "s", "lower", "span self time (serialization)", _SWEEP),
    ("fockspace.expect.calls", "count", "lower", "expectation values", _SWEEP),
    ("fockspace.expect.self_s", "s", "lower", "span self time", _SWEEP),
    ("fockspace.state_build.calls", "count", "lower", "make_fock / make_coherent / make_cat", _RUN),
    ("fockspace.state_build.self_s", "s", "lower", "span self time", _RUN),
    ("fockspace.number_distributions.self_s", "s", "lower", "span self time", _RUN),
    ("detection.level_sets.self_s", "s", "lower", "span self time (O(dim) loop)", _RUN),
    ("cli.main.self_s", "s", "lower", "argument parsing, serialization and I/O in the CLI", _RUN),
    ("cli.bytes_written", "B", "lower", "stdout plus artifact bytes of the pass", _RUN),
    ("detection.signal.self_s", "s", "lower", "span self time", _DETECT),
    ("detection.direct_mean_phonon.self_s", "s", "lower", "span self time", _DETECT),
    ("detection.jz_from_methods.self_s", "s", "lower", "span self time", _DETECT),
    ("detection.reconstruct.calls", "count", "lower", "NNLS fits", _DETECT),
    ("detection.reconstruct.self_s", "s", "lower", "span self time (NNLS)", _DETECT),
    ("seqlang.parse.calls", "count", "lower", "program and state-spec parses", _PARSE),
    ("seqlang.parse.self_s", "s", "lower", "span self time", _PARSE),
    ("seqlang.execute.self_s", "s", "lower", "span self time", _PARSE),
    ("trace.overhead_s", "s", "lower", "median traced pass minus median untraced pass", "none; tracing cost"),
    ("trace.coverage", "ratio", "higher", "(startup + import + span self times + exit) / child wall", "none; must stay >= 0.9"),
)
