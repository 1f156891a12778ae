"""Streaming Bayesian change-point detection over an unbounded latent-class
hierarchy, with fixed-K and raw-observation baselines."""

__version__ = "0.1.0"

from .crp import (
    LabelCounts,
    crp_numerators,
    crp_prior,
    crp_run_predictive,
    sequence_probability,
)
from .detector import (
    Detector,
    DetectorConfig,
    NigParams,
    RunResult,
    SparsePosterior,
    StepOutput,
    fixed_k_run_predictive,
    run,
)
from .emission import (
    CandidatePolicy,
    ClassTable,
    EmissionParams,
    decay_rates,
    e_step,
    em_step,
    emission_loglik,
    gaussian_gradients,
    m_step,
    spawn_candidate,
)
from .errors import ConfigError, ContractViolation, DegenerateStateError, InputError
from .oracles import (
    SegmentSpec,
    brute_force_joint,
    brute_force_joint_by_segments,
    finite_difference,
    gen_piecewise_gaussian,
    nig_update,
)
from .runlength import (
    ChangePointRule,
    HazardConfig,
    PrunePolicy,
    RunLengthState,
    detect_changepoints,
    normalize_posterior,
    prune,
    recursion_step,
)

__all__ = [
    "__version__",
    "CandidatePolicy",
    "ChangePointRule",
    "ClassTable",
    "ConfigError",
    "ContractViolation",
    "DegenerateStateError",
    "Detector",
    "DetectorConfig",
    "EmissionParams",
    "HazardConfig",
    "InputError",
    "LabelCounts",
    "NigParams",
    "PrunePolicy",
    "RunLengthState",
    "RunResult",
    "SegmentSpec",
    "SparsePosterior",
    "StepOutput",
    "brute_force_joint",
    "brute_force_joint_by_segments",
    "crp_numerators",
    "crp_prior",
    "crp_run_predictive",
    "decay_rates",
    "detect_changepoints",
    "e_step",
    "em_step",
    "emission_loglik",
    "finite_difference",
    "fixed_k_run_predictive",
    "gaussian_gradients",
    "gen_piecewise_gaussian",
    "m_step",
    "nig_update",
    "normalize_posterior",
    "prune",
    "recursion_step",
    "run",
    "sequence_probability",
    "spawn_candidate",
]
