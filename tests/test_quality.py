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
- Regimes: twelve segments over 2, 4 or 8 regimes whose means lie 5 sigma
  apart, in the latent modes, at alpha 1 and 2 and at scales 1e4 and 1e-2:
  labels used over true regimes, NMI against the true regimes, and F1 of
  the change points. ``pytest -s`` prints the table.
"""

from __future__ import annotations

import numpy as np
import pytest

from streamcpd import DetectorConfig, PrunePolicy, SegmentSpec, gen_piecewise_gaussian, run
from streamcpd.cli import score_changepoints

from reference import nmi

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


REGIME_SEGMENTS, REGIME_LENGTH, REGIME_TOLERANCE = 12, 150, 10

# Cell: (mode, regimes, alpha, scale); fixed-k runs at its stock K = 10.
REGIME_CELLS = {
    "infinite-2": ("infinite", 2, 1.0, 1.0),
    "infinite-4": ("infinite", 4, 1.0, 1.0),
    "infinite-8": ("infinite", 8, 1.0, 1.0),
    "fixed-k-2": ("fixed-k", 2, 1.0, 1.0),
    "fixed-k-4": ("fixed-k", 4, 1.0, 1.0),
    "fixed-k-8": ("fixed-k", 8, 1.0, 1.0),
    "infinite-alpha-2": ("infinite", 4, 2.0, 1.0),
    "infinite-scale-1e4": ("infinite", 4, 1.0, 1e4),
    "fixed-k-scale-1e4": ("fixed-k", 4, 1.0, 1e4),
    "infinite-scale-1e-2": ("infinite", 4, 1.0, 1e-2),
    "fixed-k-scale-1e-2": ("fixed-k", 4, 1.0, 1e-2),
}


def regime_series(regimes: int, scale: float, seed: int):
    """``(series, true change points, true regime labels)``: 12 segments of
    150 samples, each N(5 sigma j, sigma^2) of its regime j, sigma =
    ``scale``. Every regime occurs, and no two adjacent segments share
    one."""
    rng = np.random.default_rng(seed)
    while True:
        order = [int(rng.integers(regimes))]
        for _ in range(REGIME_SEGMENTS - 1):
            order.append((order[-1] + int(rng.integers(1, regimes))) % regimes)
        if len(set(order)) == regimes:
            break
    segments = [SegmentSpec(REGIME_LENGTH, 5.0 * scale * j, scale**2, j + 1) for j in order]
    return gen_piecewise_gaussian(segments, rng)


def regime_cell(mode: str, regimes: int, alpha: float, scale: float, seed: int):
    """One cell's ``(labels used / true regimes, NMI, F1)`` at top-m 100."""
    series, truth, labels = regime_series(regimes, scale, seed)
    res = run(series, DetectorConfig(mode=mode, alpha=alpha, prune=PRUNES["top-m-100"]))
    z_star = [s.z_star for s in res.steps]
    _, precision, recall, _ = score_changepoints(res.change_points, truth, REGIME_TOLERANCE)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return len(set(z_star)) / regimes, nmi(labels, z_star), f1


# Of each cell that works today, the lowest NMI and F1 over seeds 0-9
# (numpy 2.4, Python 3.11), rounded down. A cell asserts its seed 0 run
# reaches them less a margin of 0.05 in NMI and 0.1 in F1, about one of
# the eleven change points.
REGIME_FLOOR = {
    "infinite-2": (0.90, 1.0),
    "infinite-4": (0.92, 1.0),
    "infinite-8": (0.93, 0.95),
    "fixed-k-2": (0.91, 0.87),
    "fixed-k-4": (0.67, 0.54),
    "fixed-k-8": (0.50, 0.55),
}


@pytest.fixture(scope="module")
def regime_scores() -> dict:
    """Each regime cell's ``(labels used / true, NMI, F1)`` on seed 0."""
    scores = {cell: regime_cell(*args, seed=0) for cell, args in REGIME_CELLS.items()}
    print(f"\nregime cells: {REGIME_SEGMENTS} x {REGIME_LENGTH} samples, means 5 sigma apart, "
          f"top-m 100, seed 0, tolerance {REGIME_TOLERANCE}")
    print(f"{'cell':>20} {'used/true':>9} {'NMI':>5} {'F1':>5}")
    for cell, (used, score, f1) in scores.items():
        print(f"{cell:>20} {used:>9.2f} {score:>5.2f} {f1:>5.2f}")
    return scores


@pytest.mark.parametrize("cell", REGIME_FLOOR)
def test_regime_cell_holds_its_floor(regime_scores, cell):
    _, score, f1 = regime_scores[cell]
    nmi_floor, f1_floor = REGIME_FLOOR[cell]
    assert score >= nmi_floor - 0.05
    assert f1 >= f1_floor - 0.1


def _xfail(item: str, target: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {target}")


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(c, marks=_xfail("3", f"{c} uses 3-8 labels per regime over seeds 0-9; "
                                          "its target is at most 1.5"))
        for c in ("infinite-2", "infinite-4", "infinite-8")
    ],
)
def test_infinite_uses_at_most_1_5_labels_per_regime(regime_scores, cell):
    assert regime_scores[cell][0] <= 1.5


@_xfail("3", "at alpha 2 infinite opens a label per sample and flags nothing; its target is "
             "at most 1.5 labels per regime and F1 at least 0.9")
def test_infinite_at_alpha_2_finds_the_regimes(regime_scores):
    used, _, f1 = regime_scores["infinite-alpha-2"]
    assert used <= 1.5 and f1 >= 0.9


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(c, marks=_xfail("7", f"{c} reads NMI 0.00-0.31 over seeds 0-9; "
                                          "its target is at least 0.85"))
        for c in ("infinite-scale-1e4", "fixed-k-scale-1e4",
                  "infinite-scale-1e-2", "fixed-k-scale-1e-2")
    ],
)
def test_scaled_series_keep_their_regimes(regime_scores, cell):
    assert regime_scores[cell][1] >= 0.85


@_xfail("4", "fixed-k at 8 regimes uses 0.38-0.62 labels per regime over seeds 0-9; "
             "its target is at least 0.9")
def test_fixed_k_uses_a_label_per_regime_at_8_regimes(regime_scores):
    assert regime_scores["fixed-k-8"][0] >= 0.9


def test_nmi_reads_agreement_up_to_relabeling():
    assert nmi([1, 1, 2, 2], [5, 5, 7, 7]) == pytest.approx(1.0)
    assert nmi([1, 1, 2, 2], [1, 2, 1, 2]) == 0.0
    assert nmi([1, 2, 3, 4], [1, 1, 1, 1]) == 0.0
    # One label per sample: I = H(truth), so NMI = 2 log 4 / (log 4 + log 1800).
    truth = np.repeat([1, 2, 3, 4], 450)
    want = 2 * np.log(4) / (np.log(4) + np.log(1800))
    assert nmi(truth, np.arange(1800)) == pytest.approx(want)
