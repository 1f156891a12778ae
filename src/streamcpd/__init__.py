"""Streaming Bayesian change-point detection over an unbounded latent-class
hierarchy, with fixed-K and raw-observation baselines.

The public names are the detector, its configs, its outputs, its errors and
the synthetic series generator. The step's internals stay in their modules:
the class table and the SGD-EM step in ``streamcpd.emission``, the label
ledger in ``streamcpd.crp``, and the trellis state and step in
``streamcpd.runlength``. The exact references the tests check the package
against live with the tests, in ``tests/reference.py``."""

__version__ = "0.1.0"

from .detector import (
    Detector,
    DetectorConfig,
    RunResult,
    SparsePosterior,
    StepOutput,
    run,
)
from .emission import CandidatePolicy, EmissionParams
from .errors import ConfigError, ContractViolation, InputError
from .nig import NigParams
from .runlength import ChangePointRule, HazardConfig, PrunePolicy
from .synth import SegmentSpec, gen_piecewise_gaussian

__all__ = [
    "__version__",
    "CandidatePolicy",
    "ChangePointRule",
    "ConfigError",
    "ContractViolation",
    "Detector",
    "DetectorConfig",
    "EmissionParams",
    "HazardConfig",
    "InputError",
    "NigParams",
    "PrunePolicy",
    "RunResult",
    "SegmentSpec",
    "SparsePosterior",
    "StepOutput",
    "gen_piecewise_gaussian",
    "run",
]
