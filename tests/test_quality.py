"""Detection quality on fixed series: what each mode flags, per cell.

- Stationary: on N(0, 1) noise with no change, the stock ``map-drop`` rule
  flags nothing, in every mode and under every prune kind.
  (``test_mass_near_zero_rule_is_quiet_on_a_stationary_series`` covers the
  other rule.)
- Outlier: one 12-sigma value in N(0, 1) noise. The latent modes absorb it
  into a class of its own and flag nothing; the baseline flags it.
- Gap: ten segments of N(0, 1) whose mean alternates between 0 and the
  gap, scored by ``cli.score_changepoints``. The baseline's recall is the
  yardstick of the latent modes'. ``pytest -s`` prints the table.
"""

from __future__ import annotations

import numpy as np
import pytest

from streamcpd import DetectorConfig, PrunePolicy, SegmentSpec, gen_piecewise_gaussian, run
from streamcpd.cli import score_changepoints

MODES = ("infinite", "fixed-k", "baseline")
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


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("prune", PRUNES.values(), ids=PRUNES.keys())
def test_stationary_series_flags_no_change(stationary, mode, prune):
    res = run(stationary, DetectorConfig(mode=mode, prune=prune))
    assert res.change_points == []


OUTLIER_T, OUTLIER_AT = 400, 201


@pytest.mark.parametrize("mode", MODES)
def test_one_outlier_is_flagged_by_the_baseline_alone(mode):
    # Seeds 0-9, at top-m 100; all 30 runs behave so, and under threshold
    # 1e-10 too.
    want = [OUTLIER_AT] if mode == "baseline" else []
    for seed in range(10):
        series = np.random.default_rng(seed).normal(0.0, 1.0, OUTLIER_T)
        series[OUTLIER_AT - 1] = 12.0
        res = run(series, DetectorConfig(mode=mode, prune=PRUNES["top-m-100"]))
        assert res.change_points == want, f"seed {seed}"


GAPS = (1.0, 2.0, 3.0)
GAP_SEGMENTS, GAP_LENGTH, TOLERANCE = 10, 300, 30

# Of the nine true change points, the fewest each cell matched within the
# tolerance over seeds 0-9 at top-m 100 (numpy 2.4, Python 3.11). A cell
# asserts one fewer on seed 0: the margin is one change point, a recall of
# 1/9. The cells left out matched none on some seed (the latent modes at
# 1 sigma, fixed-k at 2 sigma), so they are only printed.
MATCHED_FLOOR = {
    ("baseline", 1.0): 2,
    ("baseline", 2.0): 9,
    ("baseline", 3.0): 9,
    ("infinite", 2.0): 3,
    ("infinite", 3.0): 8,
    ("fixed-k", 3.0): 7,
}


@pytest.fixture(scope="module")
def gap_scores() -> dict:
    """Each (mode, gap) cell's ``(pairs, precision, recall, mean delay)``
    on seed 0."""
    scores = {}
    for gap in GAPS:
        segments = [SegmentSpec(GAP_LENGTH, gap * (i % 2), 1.0) for i in range(GAP_SEGMENTS)]
        series, truth, _ = gen_piecewise_gaussian(segments, 0)
        for mode in MODES:
            res = run(series, DetectorConfig(mode=mode, prune=PRUNES["top-m-100"]))
            scores[mode, gap] = score_changepoints(res.change_points, truth, TOLERANCE)
    return scores


@pytest.mark.parametrize("mode, gap", MATCHED_FLOOR, ids=[f"{m}-{g:g}sigma" for m, g in MATCHED_FLOOR])
def test_gap_recall_holds_its_floor(gap_scores, mode, gap):
    pairs = gap_scores[mode, gap][0]
    assert len(pairs) >= MATCHED_FLOOR[mode, gap] - 1


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: infinite's recall at a 2-sigma gap is 0.33-0.89 over seeds 0-9; "
    "its target is the baseline's, at least 0.9",
)
def test_infinite_recall_at_a_two_sigma_gap_reaches_0_9(gap_scores):
    assert gap_scores["infinite", 2.0][2] >= 0.9


def test_gap_table_has_the_baseline_as_yardstick(gap_scores):
    # At every gap the baseline matches at least as many change points as
    # either latent mode; so it did on each of seeds 0-9.
    print(f"\ngap cells: {GAP_SEGMENTS} x {GAP_LENGTH} samples, top-m 100, seed 0, "
          f"tolerance {TOLERANCE}")
    print(f"{'gap':>5} {'mode':>9} {'precision':>9} {'recall':>6} {'F1':>5} {'delay':>6}")
    for (mode, gap), (_, precision, recall, delay) in gap_scores.items():
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        print(f"{gap:>5g} {mode:>9} {precision:>9.2f} {recall:>6.2f} {f1:>5.2f} {delay:>6.1f}")
    for gap in GAPS:
        for mode in ("infinite", "fixed-k"):
            assert gap_scores["baseline", gap][2] >= gap_scores[mode, gap][2]
