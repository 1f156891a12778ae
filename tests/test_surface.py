import importlib
import importlib.util
import sys

import pytest

import streamcpd
import streamcpd.cli

# What a user of the detector, its configs and the CLI needs, and nothing
# only a test calls; the exact references live with the tests, in
# tests/reference.py.
PUBLIC_NAMES = {
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
}

# The step's internals, importable from their modules only.
INTERNALS = {
    "ClassTable": "streamcpd.emission",
    "em_step": "streamcpd.emission",
    "decay_rates": "streamcpd.emission",
    "spawn_candidate": "streamcpd.emission",
    "LabelCounts": "streamcpd.crp",
    "RunLengthState": "streamcpd.runlength",
    "recursion_step": "streamcpd.runlength",
}


def test_public_surface_is_the_runtime():
    assert len(streamcpd.__all__) == len(PUBLIC_NAMES) == 18
    assert set(streamcpd.__all__) == PUBLIC_NAMES
    for name in streamcpd.__all__:
        assert getattr(streamcpd, name) is not None


@pytest.mark.parametrize("name", sorted(INTERNALS))
def test_step_internals_live_in_their_modules(name):
    assert name not in streamcpd.__all__
    assert callable(getattr(importlib.import_module(INTERNALS[name]), name))


def test_degenerate_state_error_is_gone():
    # No step of a detector reaches the trellis's failure path (see
    # test_detector.py), so its error class went; the step's contract
    # failures are ContractViolation.
    import streamcpd.errors

    assert "DegenerateStateError" not in streamcpd.__all__
    assert not hasattr(streamcpd.errors, "DegenerateStateError")


def test_the_exact_references_are_not_in_the_package():
    # They live in tests/reference.py: no streamcpd module holds or loads them.
    assert importlib.util.find_spec("streamcpd.oracles") is None
    assert "streamcpd.oracles" not in sys.modules
