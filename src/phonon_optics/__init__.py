"""Two-mode phonon optics for trapped ions.

Beam splitters and phase shifters acting on the center-of-mass and breathing
vibrational modes of a two-ion crystal, built as exact unitaries on a
total-phonon truncated Fock space, together with the state-generation
recipes, a motional Mach-Zehnder interferometer, three phonon-number
detection schemes and a small pulse-sequence language with a CLI.
"""

from .fockspace import (
    DEFAULT_TAIL_TOLERANCE,
    JointDistribution,
    JointState,
    MotionalState,
    QubitState,
    Truncation,
    coherent_superposition,
    expect,
    fidelity,
    inner,
    joint_state,
    make_cat,
    make_coherent,
    make_fock,
    number_distributions,
    reduced_purity,
    state_from_json,
    state_to_json,
    truncation_for_coherent,
)
from .operators import (
    EffectiveAngles,
    LabParams,
    UnitaryOperator,
    apply,
    beam_splitter,
    carrier_half_pulse,
    conditional_phase,
    joint_bs_propagator,
    lab_to_angles,
    phase_shifter,
)
from .recipes import entangled_cat, entangled_cat_u2u3, entangled_number
from .interferometer import (
    InterferometerReport,
    mz_output,
    mz_report,
    phase_sweep,
    sweep_to_csv,
)
from .detection import (
    DirectEstimate,
    JzComparison,
    LevelSetDistribution,
    ReconstructedNumberDistribution,
    SignalTrace,
    default_times,
    direct_mean_phonon,
    jcm_unitary,
    jz_from_methods,
    level_sets,
    reconstruct_single,
    reconstruct_two,
    signal,
)
from .seqlang import (
    ExecutionError,
    ExecutionResult,
    ParseError,
    PulseProgram,
    Statement,
    execute,
    format_program,
    parse,
    parse_state_spec,
)

__version__ = "0.1.0"
