"""The bit-identity corpus: every output of a grid of detector runs, pinned
by sha256 in ``tests/corpus.json``.

The grid is mode × config × prune × series. The configs are the stock one,
alpha 0.5 and 2, beta 0.3 with K = 7, the mass-near-zero rule, the
log-variance update and the emission rule off its defaults (variance floor,
decay, initial learning rates and candidate variance; in ``infinite`` also
with a fixed candidate mean), each in the modes it changes. The prunes are
none, threshold 1e-10, top-m 100 and top-m 1. The four series are two
regimes, shuffled regimes, repeated values and mixed scales, 200 steps
each: 224 cells and 44 800 steps. Every config field is written out
below, so a changed default moves no cell.

A cell's record hashes, per block of 100 steps, each step's ``t``,
``z_star``, ``k_t``, ``r_star`` and ``cp_flag``, the bytes of its
responsibilities and of its shown posterior, and the trellis's
``evidence_log`` after the step. The last block also hashes the final class
parameters. A mismatch names the cell and its first block that differs.

A change that moves outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_corpus.py --write

and says which cells changed and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from streamcpd import (
    CandidatePolicy,
    ChangePointRule,
    Detector,
    DetectorConfig,
    HazardConfig,
    NigParams,
    PrunePolicy,
)

CORPUS = Path(__file__).with_name("corpus.json")
BLOCK = 100
STEPS = 200

BASE = dict(
    alpha=1.0,
    k_fixed=10,
    dirichlet_beta=1.0,
    hazard=HazardConfig(lam=1e6),
    candidate=CandidatePolicy(mu0=None, var_init=1.0),
    eta_init=(1.0, 0.02),
    decay=0.02,
    var_floor=1e-6,
    log_var_update=False,
    prune=PrunePolicy(epsilon=0.0, max_live=0),
    cp_rule=ChangePointRule(
        mode="map-drop", drop_fraction=0.5, mass_window=0, mass_threshold=0.5
    ),
    baseline=NigParams(mu=0.0, kappa=1.0, a=1.0, b=1.0),
    seed=0,
)

MASS_NEAR_ZERO = ChangePointRule(
    mode="mass-near-zero", drop_fraction=0.5, mass_window=5, mass_threshold=0.5
)

# The emission rule off its defaults: the variance floor, the winner's
# decay and the initial learning rates.
RULE = {"var_floor": 1e-3, "decay": 0.1, "eta_init": (0.5, 0.05)}

# Each mode's configs: only those whose fields the mode reads.
CONFIGS = {
    "infinite": {
        "stock": {},
        "alpha-0.5": {"alpha": 0.5},
        "alpha-2": {"alpha": 2.0},
        "mass-near-zero": {"cp_rule": MASS_NEAR_ZERO},
        "log-var": {"log_var_update": True},
        "rule": {**RULE, "candidate": CandidatePolicy(mu0=None, var_init=2.0)},
        "rule-fixed-mean": {**RULE, "candidate": CandidatePolicy(mu0=0.0, var_init=4.0)},
    },
    "fixed-k": {
        "stock": {},
        "beta-0.3-k-7": {"dirichlet_beta": 0.3, "k_fixed": 7},
        "mass-near-zero": {"cp_rule": MASS_NEAR_ZERO},
        "log-var": {"log_var_update": True},
        # var_init below the floor: the fan-out starts at the floor.
        "rule": {**RULE, "candidate": CandidatePolicy(mu0=None, var_init=1e-4)},
    },
    "baseline": {
        "stock": {},
        "mass-near-zero": {"cp_rule": MASS_NEAR_ZERO},
    },
}

PRUNES = {
    "none": PrunePolicy(epsilon=0.0, max_live=0),
    "threshold": PrunePolicy(epsilon=1e-10, max_live=0),
    "top-100": PrunePolicy(epsilon=0.0, max_live=100),
    "top-1": PrunePolicy(epsilon=0.0, max_live=1),
}


def _series() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(12)
    half = STEPS // 2
    two = np.r_[rng.normal(0.0, 1.0, half), rng.normal(5.0, 1.0, STEPS - half)]
    means = np.array([0.0, 6.0, 0.0, -4.0, 6.0, -4.0, 10.0, 0.0])
    shuffled = np.repeat(means[rng.permutation(means.size)], STEPS // means.size)
    shuffled += rng.normal(0.0, 1.0, STEPS)
    # Runs of one exact value, then integers that repeat.
    repeated = np.r_[np.full(60, 2.0), np.full(40, -1.0), np.round(rng.normal(3.0, 2.0, 100))]
    scales = np.repeat([1e-2, 1.0, 10.0, 1e-1, 3.0], STEPS // 5)
    mixed = np.repeat([0.0, 1.0, 30.0, 30.0, -20.0], STEPS // 5) + scales * rng.normal(size=STEPS)
    return {"two-regimes": two, "shuffled": shuffled, "repeated": repeated, "mixed-scales": mixed}


SERIES = _series()

CELLS = [
    (mode, config, prune, series)
    for mode, configs in CONFIGS.items()
    for config in configs
    for prune in PRUNES
    for series in SERIES
]


def _key(cell) -> str:
    return "/".join(cell)


def _record(cell) -> list[str]:
    """The cell's sha256 per block of BLOCK steps."""
    mode, config, prune, series = cell
    cfg = DetectorConfig(mode=mode, **{**BASE, "prune": PRUNES[prune], **CONFIGS[mode][config]})
    det = Detector(cfg)
    blocks, h = [], hashlib.sha256()
    for i, x in enumerate(SERIES[series].tolist(), 1):
        s = det.step(x)
        h.update(struct.pack("<qqqq?d", s.t, s.z_star, s.k_t, s.r_star, s.cp_flag,
                             det.rl.evidence_log))
        h.update(s.responsibilities.tobytes())
        h.update(s.rl_posterior.runs.tobytes())
        h.update(s.rl_posterior.probs.tobytes())
        if i % BLOCK == 0 or i == STEPS:
            if i == STEPS:
                for p in det.params or []:
                    h.update(struct.pack("<ddddq", *dataclasses.astuple(p)))
            blocks.append(h.hexdigest())
            h = hashlib.sha256()
    return blocks


@pytest.fixture(scope="module")
def corpus() -> dict[str, list[str]]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_the_grid(corpus):
    assert sorted(corpus) == sorted(map(_key, CELLS))


@pytest.mark.parametrize("cell", CELLS, ids=_key)
def test_cell_is_bit_identical(corpus, cell):
    want = corpus[_key(cell)]
    got = _record(cell)
    diff = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not diff and len(got) == len(want), (
        f"{_key(cell)}: steps {diff[0] * BLOCK + 1}..{(diff[0] + 1) * BLOCK} differ"
        if diff else f"{_key(cell)}: {len(got)} blocks, {len(want)} pinned"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    records = {_key(cell): _record(cell) for cell in CELLS}
    CORPUS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cells to {CORPUS}")
