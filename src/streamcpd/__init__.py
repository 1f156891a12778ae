"""Streaming Bayesian change-point detection over an unbounded latent-class
hierarchy, with fixed-K and raw-observation baselines.

The package holds what the detector and the CLI run; the exact references
the tests check it against live with the tests, in ``tests/reference.py``."""

__version__ = "0.1.0"

from .crp import LabelCounts
from .detector import (
    Detector,
    DetectorConfig,
    RunResult,
    SparsePosterior,
    StepOutput,
    run,
)
from .emission import (
    CandidatePolicy,
    ClassTable,
    EmissionParams,
    decay_rates,
    em_step,
    spawn_candidate,
)
from .errors import ConfigError, ContractViolation, DegenerateStateError, InputError
from .nig import NigParams
from .runlength import (
    ChangePointRule,
    HazardConfig,
    PrunePolicy,
    RunLengthState,
    recursion_step,
)
from .synth import SegmentSpec, gen_piecewise_gaussian

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
    "decay_rates",
    "em_step",
    "gen_piecewise_gaussian",
    "recursion_step",
    "run",
    "spawn_candidate",
]
