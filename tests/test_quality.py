"""Detection quality on fixed series: what each mode flags, per cell.

The first cell is the stationary one: on N(0, 1) noise with no change, the
stock ``map-drop`` rule flags nothing, in every mode and under every prune
kind. (``test_mass_near_zero_rule_is_quiet_on_a_stationary_series`` covers
the other rule.)
"""

from __future__ import annotations

import numpy as np
import pytest

from streamcpd import DetectorConfig, PrunePolicy, run

STATIONARY_T = 2000

PRUNES = {
    "none": PrunePolicy(),
    "threshold": PrunePolicy.threshold(1e-10),
    "top-m-100": PrunePolicy.top_m(100),
    "top-m-1": PrunePolicy.top_m(1),
}


@pytest.fixture(scope="module")
def stationary() -> np.ndarray:
    return np.random.default_rng(0).normal(0.0, 1.0, STATIONARY_T)


@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
@pytest.mark.parametrize("prune", PRUNES.values(), ids=PRUNES.keys())
def test_stationary_series_flags_no_change(stationary, mode, prune):
    res = run(stationary, DetectorConfig(mode=mode, prune=prune))
    assert res.change_points == []
