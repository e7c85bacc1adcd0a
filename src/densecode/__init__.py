"""Optimal probabilistic dense coding over non-maximally entangled qudit
channels: minimum-error and separation-assisted decoding, multistage
maximum-confidence decoding, analytic figures of merit, and Monte Carlo
cross-validation."""

from .channel import SchmidtState
from .discrimination import FINAL_ABSTAIN, FINAL_ME, StagePlan, me_outcome_probs
from .infometrics import (
    InfoReport,
    counts_mutual_info,
    mutual_info_me,
    mutual_info_multistage,
)
from .protocol_sim import (
    INCONCLUSIVE,
    DecodingStrategy,
    SimulationReport,
    derived_rng,
    run_simulation,
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

__version__ = "0.1.0"
