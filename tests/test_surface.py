import importlib.util
import sys

import streamcpd
import streamcpd.cli

# What the detector and the CLI run, and nothing only a test calls; the
# exact references live with the tests, in tests/reference.py.
RUNTIME_NAMES = {
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
}


def test_public_surface_is_the_runtime():
    assert len(streamcpd.__all__) == len(RUNTIME_NAMES) == 26
    assert set(streamcpd.__all__) == RUNTIME_NAMES
    for name in streamcpd.__all__:
        assert getattr(streamcpd, name) is not None


def test_the_exact_references_are_not_in_the_package():
    # They live in tests/reference.py: no streamcpd module holds or loads them.
    assert importlib.util.find_spec("streamcpd.oracles") is None
    assert "streamcpd.oracles" not in sys.modules
