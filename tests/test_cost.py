"""Python-level calls per detector step, pinned per mode.

A step's cost in calls is deterministic, so it needs no timing, no bound
and no seeds. Only frames of streamcpd's own code are counted: numpy's
Python wrappers (``errstate``, ``count_nonzero``, ...) vary with the numpy
version. The count covers steps 301..600 of a fixed two-regime series at
top-m 100, so it reads top-m's steady state. A change that moves a count
updates its pin and states the old and new counts.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from streamcpd import Detector, DetectorConfig, PrunePolicy

SERIES = np.r_[
    np.random.default_rng(1).normal(0.0, 1.0, 300),
    np.random.default_rng(2).normal(8.0, 1.0, 300),
].tolist()

# streamcpd calls over the 300 counted steps.
CALLS = {"infinite": 5476, "fixed-k": 4907, "baseline": 2485}


def _calls(mode: str) -> int:
    det = Detector(DetectorConfig(mode=mode, prune=PrunePolicy.top_m(100)))
    for x in SERIES[:300]:
        det.step(x)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_globals.get("__name__", "").startswith("streamcpd"):
            count += 1

    sys.setprofile(profile)
    try:
        for x in SERIES[300:]:
            det.step(x)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("mode", CALLS)
def test_calls_per_step_are_pinned(mode):
    assert _calls(mode) == CALLS[mode]
