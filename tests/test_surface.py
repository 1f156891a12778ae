import streamcpd

# What the detector and the CLI run, and nothing only a test calls; the
# exact references import from streamcpd.oracles.
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
