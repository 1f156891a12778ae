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
- Delay: on the 1 and 2 sigma gap series, the changes each mode flags
  before the next change and the median and p90 of their delays, beside
  the oracle CUSUM that knows both regimes' means, at the detectors' own
  false-alarm budget ln(lam); and the flags per 10^4 steps of each on the
  stationary series. ``pytest -s`` prints the table.
- Mixtures: six segments whose samples come from the same three atoms
  N(0, 1), N(8, 1) and N(16, 1), in proportions that alternate, so only
  the class mix changes: the case the latent layer is for. Changes found
  within 100 steps, their median delay, the flags that match no change,
  and the final class count. ``pytest -s`` prints the table.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from streamcpd import DetectorConfig, PrunePolicy, SegmentSpec, gen_piecewise_gaussian, run
from streamcpd.cli import score_changepoints

from reference import cusum_oracle, nmi

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
def gap_runs() -> dict:
    """Each gap's ``(series, true change points, {mode: flags})`` on seed 0,
    at top-m 100."""
    runs = {}
    for gap in GAPS:
        segments = [SegmentSpec(GAP_LENGTH, gap * (i % 2), 1.0) for i in range(GAP_SEGMENTS)]
        series, truth, _ = gen_piecewise_gaussian(segments, 0)
        flags = {
            mode: run(series, DetectorConfig(mode=mode, prune=PRUNES["top-m-100"])).change_points
            for mode in MODES
        }
        runs[gap] = series, truth, flags
    return runs


@pytest.fixture(scope="module")
def gap_scores(gap_runs) -> dict:
    """Each (mode, gap) cell's ``(pairs, precision, recall, mean delay)``
    on seed 0."""
    return {
        (mode, gap): score_changepoints(flags[mode], truth, TOLERANCE)
        for gap, (_, truth, flags) in gap_runs.items()
        for mode in MODES
    }


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


def test_fixed_k_uses_a_label_per_regime_at_8_regimes():
    # ROADMAP item 4's target, over seeds 0-9. Opened one at a time, as in
    # infinite, all K = 10 classes are used on every seed (1.25 per regime).
    used = [regime_cell(*REGIME_CELLS["fixed-k-8"], seed=seed)[0] for seed in range(10)]
    assert min(used) >= 0.9


DELAY_GAPS = (1.0, 2.0)
# The oracle's threshold: the detectors' own false-alarm budget, ln(lam).
ORACLE_H = math.log(DetectorConfig().hazard.lam)


def detection_delays(flags, truth, length: int) -> list[int]:
    """The delay of each true change flagged before the next one (or the
    series' end): the first such flag's step less the change point."""
    delays = []
    for c, end in zip(truth, truth[1:] + [length]):
        first = next((f for f in flags if c < f <= end), None)
        if first is not None:
            delays.append(first - c)
    return delays


def delay_cell(delays) -> tuple[int, float, float]:
    """``(changes detected, median delay, p90 delay)``; NaN delays when no
    change was detected."""
    if not delays:
        return 0, math.nan, math.nan
    return len(delays), float(np.median(delays)), float(np.percentile(delays, 90))


@pytest.fixture(scope="module")
def delay_scores(gap_runs, stationary) -> dict:
    """Each (mode or ``oracle``, gap) cell's ``(detected, median delay, p90
    delay)`` on seed 0."""
    scores = {}
    for gap in DELAY_GAPS:
        series, truth, flags = gap_runs[gap]
        alarms = dict(flags, oracle=cusum_oracle(series, (0.0, gap), ORACLE_H))
        for who, f in alarms.items():
            scores[who, gap] = delay_cell(detection_delays(f, truth, series.size))
    print(f"\ndelay cells: {GAP_SEGMENTS} x {GAP_LENGTH} samples, top-m 100, seed 0, "
          f"oracle CUSUM at h = ln(lam) = {ORACLE_H:.2f}; a change is detected when "
          f"flagged before the next")
    print(f"{'gap':>5} {'who':>9} {'detected':>8} {'median':>6} {'p90':>6}")
    for (who, gap), (detected, median, p90) in scores.items():
        print(f"{gap:>5g} {who:>9} {detected:>8} {median:>6.1f} {p90:>6.1f}")
    rates = {
        mode: run(stationary, DetectorConfig(mode=mode, prune=PRUNES["top-m-100"])).change_points
        for mode in MODES
    }
    for gap in DELAY_GAPS:
        rates[f"oracle {gap:g}sigma"] = cusum_oracle(stationary, (0.0, gap), ORACLE_H)
    print(f"flags per 10^4 steps on the stationary series ({STATIONARY_T} steps, top-m 100):")
    for who, f in rates.items():
        print(f"{who:>15} {len(f) * 1e4 / STATIONARY_T:>6.1f}")
    return scores


# Each cell's fewest changes detected, and its largest median and p90
# delays (rounded up), over seeds 0-9 (numpy 2.4, Python 3.11). A cell
# asserts its seed 0 run detects at least one change fewer, with delays at
# most 5 (median) and 10 (p90) steps longer. Cells left out: fixed-k at
# 1 sigma detected no change on any seed, so it is only printed; infinite
# is held to the strict xfails below.
DELAY_FLOOR = {
    ("baseline", 1.0): (9, 40, 69),
    ("baseline", 2.0): (9, 13, 17),
    ("fixed-k", 2.0): (3, 203, 260),
    ("oracle", 1.0): (9, 31, 54),
    ("oracle", 2.0): (9, 8, 17),
}


@pytest.mark.parametrize("who, gap", DELAY_FLOOR, ids=[f"{w}-{g:g}sigma" for w, g in DELAY_FLOOR])
def test_delay_cell_holds_its_floor(delay_scores, who, gap):
    detected, median, p90 = delay_scores[who, gap]
    want_detected, want_median, want_p90 = DELAY_FLOOR[who, gap]
    assert detected >= want_detected - 1
    assert median <= want_median + 5
    assert p90 <= want_p90 + 10


@pytest.mark.parametrize(
    "gap",
    [
        pytest.param(1.0, marks=_xfail("3", "infinite detects none of the 9 changes at a 1-sigma "
                                            "gap over seeds 0-9; its target is every change, with "
                                            "a median delay at most 2x the oracle CUSUM's")),
        pytest.param(2.0, marks=_xfail("3", "infinite detects 8-9 of the 9 changes at a 2-sigma "
                                            "gap over seeds 0-9, with a median delay 1.9-6.8x the "
                                            "oracle CUSUM's; its target is every change, at most 2x")),
    ],
    ids=["1sigma", "2sigma"],
)
def test_infinite_detects_every_gap_change_within_twice_the_oracle_delay(delay_scores, gap):
    detected, median, _ = delay_scores["infinite", gap]
    assert detected == GAP_SEGMENTS - 1
    assert median <= 2 * delay_scores["oracle", gap][1]


MIX_ATOMS = (0.0, 8.0, 16.0)
MIX_SEGMENTS, MIX_LENGTH, MIX_WINDOW = 6, 300, 100
MIX_CELLS = {
    "mix": ((0.8, 0.1, 0.1), (0.1, 0.1, 0.8)),
    "mix-hard": ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5)),
}


def mixture_series(props, atoms, seg_len: int, n_seg: int, seed: int):
    """``(series, true change points)``: ``n_seg`` segments of ``seg_len``
    samples. Segment i draws each sample's atom with the proportions
    ``props[i % len(props)]``, then the sample from N(atom, 1); so adjacent
    segments share their atoms and differ only in the mix."""
    rng = np.random.default_rng(seed)
    atoms = np.asarray(atoms, dtype=float)
    parts = []
    for i in range(n_seg):
        z = rng.choice(atoms.size, size=seg_len, p=props[i % len(props)])
        parts.append(rng.normal(atoms[z], 1.0))
    return np.concatenate(parts), [seg_len * i for i in range(1, n_seg)]


def mixture_cell(flags, truth, window: int = MIX_WINDOW):
    """``(delays, unmatched, stray)``: a change is found when a flag falls
    in the ``window`` steps after it, and the first such flag matches it and
    gives its delay; an unmatched flag matches no change, and a stray one
    is an unmatched flag outside the window after every change."""
    delays, matched = [], set()
    for c in truth:
        first = next((f for f in flags if c < f <= c + window), None)
        if first is not None:
            delays.append(first - c)
            matched.add(first)
    unmatched = [f for f in flags if f not in matched]
    stray = [f for f in unmatched if not any(c < f <= c + window for c in truth)]
    return delays, unmatched, stray


@pytest.fixture(scope="module")
def mixture_scores() -> dict:
    """Each (cell, mode)'s ``(found, median delay, unmatched, stray, final
    K)`` on seed 0, at top-m 100 and, in fixed-k, K = 5."""
    scores = {}
    for cell, props in MIX_CELLS.items():
        series, truth = mixture_series(props, MIX_ATOMS, MIX_LENGTH, MIX_SEGMENTS, 0)
        for mode in MODES:
            cfg = DetectorConfig(mode=mode, k_fixed=5, prune=PRUNES["top-m-100"])
            res = run(series, cfg)
            delays, unmatched, stray = mixture_cell(res.change_points, truth)
            median = float(np.median(delays)) if delays else math.nan
            scores[cell, mode] = len(delays), median, len(unmatched), len(stray), res.final_k
    print(f"\nmixture cells: {MIX_SEGMENTS} x {MIX_LENGTH} samples over atoms N(0, 1), "
          f"N(8, 1), N(16, 1), top-m 100, seed 0, window {MIX_WINDOW}")
    for cell, props in MIX_CELLS.items():
        print(f"{cell}: proportions alternate {props[0]} / {props[1]}")
    print(f"{'cell':>8} {'mode':>9} {'found':>5} {'delay':>5} {'unmatched':>9} "
          f"{'stray':>5} {'K':>3}")
    for (cell, mode), (found, median, unmatched, stray, k) in scores.items():
        k = "-" if mode == "baseline" else k
        print(f"{cell:>8} {mode:>9} {found:>5} {median:>5.1f} {unmatched:>9} {stray:>5} {k:>3}")
    return scores


# Over seeds 0-9 (numpy 2.4, Python 3.11) on the "mix" cell: the fewest
# changes found (of 5), the largest median delay and, in the latent modes,
# the most stray flags. A mode asserts its seed 0 run finds at least one
# change fewer, with a median delay at most 5 steps longer and at most 2
# stray flags more. The baseline, a single Gaussian per run, strays 6-19
# times per seed, so it has no stray ceiling. "mix-hard" is only printed.
MIX_FLOOR = {
    "infinite": (5, 9, 2),
    "fixed-k": (5, 22, 0),
    "baseline": (5, 8, None),
}


@pytest.mark.parametrize("mode", MIX_FLOOR)
def test_mixture_cell_holds_its_floor(mixture_scores, mode):
    found, median, _, stray, _ = mixture_scores["mix", mode]
    want_found, want_median, want_stray = MIX_FLOOR[mode]
    assert found >= want_found - 1
    assert median <= want_median + 5
    if want_stray is not None:
        assert stray <= want_stray + 2


@pytest.mark.parametrize("mode", ("infinite", "fixed-k"))
def test_latent_modes_raise_fewer_unmatched_flags_than_the_baseline(mixture_scores, mode):
    # Over seeds 0-4 the unmatched flags summed to 7 (infinite), 5 (fixed-k)
    # and 95 (baseline); each latent mode raised fewer on every seed 0-9.
    assert mixture_scores["mix", mode][2] < mixture_scores["mix", "baseline"][2]


def test_cusum_oracle_by_hand():
    # Toward mean 1 from mean 0, each sample adds x - 0.5: 0 and 0 leave the
    # sum at 0, then three 1s add 0.5 each, so it reaches h = 1 at t = 4.
    # The means then swap, a 1 adds -0.5 (floored at 0), and the 0s at t = 6
    # and 7 add 0.5 each: the second alarm.
    assert cusum_oracle([0, 0, 1, 1, 1, 0, 0, 0], (0.0, 1.0), 1.0) == [4, 7]
    # Toward mean 4 from mean 2: each sample adds 2 (x - 3), so x = 5 adds 4
    # and alarms at once at h = 4, but not at h = 4.5.
    assert cusum_oracle([5.0], (2.0, 4.0), 4.0) == [1]
    assert cusum_oracle([5.0], (2.0, 4.0), 4.5) == []
    # A mean that moves away from the other regime never alarms.
    assert cusum_oracle([-3.0] * 50, (0.0, 1.0), 1.0) == []


def test_delay_and_mixture_scoring_by_hand():
    # Changes at 100 and 200 in a series of 300 steps.
    assert detection_delays([5, 50, 120, 130, 250], [100, 200], 300) == [20, 50]
    assert detection_delays([5, 200], [100, 200], 300) == [100]
    # 120 matches 100 and 250 matches 200; 130 is unmatched but inside the
    # window after 100, so only 5 and 50 stray.
    assert mixture_cell([5, 50, 120, 130, 250], [100, 200]) == ([20, 50], [5, 50, 130], [5, 50])
    detected, median, p90 = delay_cell([])
    assert detected == 0 and math.isnan(median) and math.isnan(p90)
    assert delay_cell([1, 2, 3, 10]) == (4, 2.5, pytest.approx(7.9))


def test_nmi_reads_agreement_up_to_relabeling():
    assert nmi([1, 1, 2, 2], [5, 5, 7, 7]) == pytest.approx(1.0)
    assert nmi([1, 1, 2, 2], [1, 2, 1, 2]) == 0.0
    assert nmi([1, 2, 3, 4], [1, 1, 1, 1]) == 0.0
    # One label per sample: I = H(truth), so NMI = 2 log 4 / (log 4 + log 1800).
    truth = np.repeat([1, 2, 3, 4], 450)
    want = 2 * np.log(4) / (np.log(4) + np.log(1800))
    assert nmi(truth, np.arange(1800)) == pytest.approx(want)
