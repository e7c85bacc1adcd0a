"""Optimal probabilistic dense coding over non-maximally entangled qudit
channels: encoding, minimum-error and separation-assisted decoding, multistage
maximum-confidence decoding, analytic figures of merit, and Monte Carlo
cross-validation."""

from .channel import Message, SchmidtState, decode_split, encode, resource_state, symmetric_state
from .discrimination import (
    FINAL_ABSTAIN,
    FINAL_ME,
    SeparationMap,
    StagePlan,
    confidence,
    dilation_unitary,
    failure_state,
    me_measurement,
    me_outcome_probs,
    separated_state,
    separation_map,
    stage_success_probability,
)
from .gates import fourier, gxor, pauli_x, pauli_z
from .infometrics import (
    InfoReport,
    conditional_entropy,
    counts_mutual_info,
    mutual_info_from_joint,
    mutual_info_me,
    mutual_info_multistage,
    mutual_info_sep,
)
from .protocol_sim import (
    DecodingStrategy,
    SimulationReport,
    TrialRecord,
    analytic_joint,
    analytic_record_distribution,
    empirical_mutual_info,
    run_simulation,
    run_trial,
)
from .qkd import (
    GUESS_ME,
    GUESS_UNIFORM,
    EveStrategy,
    QkdReport,
    analytic_qkd_error,
    analytic_sift_rate,
    simulate_qkd,
)
from .tensor_core import (
    INCONCLUSIVE,
    Ket,
    Measurement,
    Operator,
    apply,
    born_probabilities,
    derived_rng,
    project_subsystem,
    sample_outcome,
    tensor,
)

__version__ = "0.1.0"
