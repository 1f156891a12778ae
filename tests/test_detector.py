import hashlib
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import t as student_t

from streamcpd import (
    CandidatePolicy,
    ChangePointRule,
    ConfigError,
    ContractViolation,
    DegenerateStateError,
    Detector,
    DetectorConfig,
    HazardConfig,
    InputError,
    NigParams,
    PrunePolicy,
    SegmentSpec,
    baseline_predictive,
    detect_changepoints,
    fixed_k_run_predictive,
    gen_piecewise_gaussian,
    nig_update,
    run,
)
from streamcpd.detector import _fixed_k_offsets, _nig_grow, _nig_row, _student_t_logpdf


def _two_segment_series(seed=0, sigma=1.0, jump=8.0, n=200):
    segs = [SegmentSpec(n, 0.0, sigma**2, 1), SegmentSpec(n, jump, sigma**2, 2)]
    return gen_piecewise_gaussian(segs, seed)


def _quiet_config(**kw):
    # candidate twice as wide as the unit-variance data plus a moderate
    # concentration: keeps duplicate-class churn down on synthetic streams
    kw.setdefault("alpha", 0.5)
    kw.setdefault("candidate", CandidatePolicy(var_init=2.0))
    return DetectorConfig(**kw)


# -- stepping basics ---------------------------------------------------------


def test_first_observation_contract():
    det = Detector(DetectorConfig())
    out = det.step(4.2)
    assert out.t == 1
    assert out.z_star == 1
    assert out.k_t == 1
    assert list(out.rl_posterior.runs) == [0, 1]
    # lambda = 1e6: growth dominates, so the MAP run length is 1
    assert out.r_star == 1
    np.testing.assert_allclose(out.responsibilities, [1.0])


def test_first_observation_under_forced_reset():
    out = Detector(DetectorConfig(hazard=HazardConfig(1.0))).step(4.2)
    assert out.r_star == 0


def test_constant_series_keeps_one_class_and_grows_run():
    res = run(np.full(100, 3.0), DetectorConfig())
    assert res.final_k == 1
    assert res.change_points == []
    assert [s.r_star for s in res.steps] == list(range(1, 101))


def test_two_segment_series_detects_one_changepoint():
    series, cps, _ = _two_segment_series(seed=3)
    res = run(series, _quiet_config(seed=3))
    assert len(res.change_points) == 1
    assert abs(res.change_points[0] - cps[0]) <= 10
    assert res.final_k in (2, 3)


def test_two_segment_sharp_series_over_seeds():
    # 200+200 points, N(0, 0.1) then N(10, 0.1): one change point within
    # +-10 of the boundary and a final class count of 2, on >= 18/20 seeds
    segs = [SegmentSpec(200, 0.0, 0.1, 1), SegmentSpec(200, 10.0, 0.1, 2)]
    good = 0
    for seed in range(20):
        series, cps, _ = gen_piecewise_gaussian(segs, seed)
        res = run(series, _quiet_config(seed=seed))
        good += (
            len(res.change_points) == 1
            and abs(res.change_points[0] - 200) <= 10
            and res.final_k == 2
        )
    assert good >= 18


def test_hazard_one_resets_every_step():
    res = run(np.linspace(0.0, 1.0, 20), DetectorConfig(hazard=HazardConfig(1.0)))
    assert all(s.r_star == 0 for s in res.steps)
    assert res.steps[-1].rl_posterior.probs[0] == pytest.approx(1.0)


def test_same_seed_same_series_bit_identical():
    series, _, _ = _two_segment_series(seed=5)
    cfg = DetectorConfig(seed=11)
    a, b = run(series, cfg), run(series, cfg)
    assert [s.r_star for s in a.steps] == [s.r_star for s in b.steps]
    assert [s.z_star for s in a.steps] == [s.z_star for s in b.steps]
    for sa, sb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(sa.rl_posterior.probs, sb.rl_posterior.probs)
        np.testing.assert_array_equal(sa.responsibilities, sb.responsibilities)


def test_seed_does_not_change_outputs():
    series, _, _ = _two_segment_series(seed=5)
    a, b = run(series, DetectorConfig(seed=0)), run(series, DetectorConfig(seed=7))
    assert [s.z_star for s in a.steps] == [s.z_star for s in b.steps]
    assert [s.r_star for s in a.steps] == [s.r_star for s in b.steps]
    assert a.change_points == b.change_points


def test_class_count_is_monotone():
    rng = np.random.default_rng(0)
    series = np.concatenate([rng.normal(0, 1, 80), rng.normal(6, 1, 80), rng.normal(-5, 1, 80)])
    res = run(series, DetectorConfig(seed=1))
    ks = [s.k_t for s in res.steps]
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    assert all(s.z_star <= s.k_t for s in res.steps)


def test_posterior_slice_normalized_every_step():
    series, _, _ = _two_segment_series(seed=9, n=120)
    res = run(series, DetectorConfig(seed=9))
    for s in res.steps:
        assert s.rl_posterior.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(s.rl_posterior.runs) <= s.t + 1


def test_rejects_non_finite_observation():
    det = Detector(DetectorConfig())
    with pytest.raises(InputError):
        det.step(float("nan"))
    with pytest.raises(InputError):
        det.step(float("inf"))


@pytest.mark.parametrize("mode", ["infinite", "fixed-k"])
@pytest.mark.parametrize("series", [[0.0, 1e200], [1e200, 0.0]])
def test_overflowing_observation_is_input_error(mode, series):
    with pytest.raises(InputError, match=r"observation at t=2 overflows the emission model"):
        run(series, DetectorConfig(mode=mode))


@pytest.mark.parametrize("mode", ["infinite", "fixed-k"])
@pytest.mark.parametrize(
    "warm, bad, kw",
    [
        # overflows in the first E-step, before the table is written
        (50, 1e200, {}),
        # a huge mean step overflows the E-step after the M-step wrote
        (1, 1e150, {"eta_init": (1e6, 0.02), "candidate": CandidatePolicy(mu0=0.0)}),
    ],
)
def test_overflow_leaves_detector_state_unchanged(mode, warm, bad, kw):
    series, _, _ = _two_segment_series(seed=3, n=40)
    cfg = DetectorConfig(mode=mode, **kw)
    det = Detector(cfg)
    for x in series[:warm]:
        det.step(x)
    params = det.params
    with pytest.raises(InputError):
        det.step(bad)
    assert det.params == params
    resumed = [det.step(x) for x in series[warm:]]
    ref = run(series, cfg).steps[warm:]
    assert [(s.z_star, s.k_t, s.r_star) for s in resumed] == [
        (s.z_star, s.k_t, s.r_star) for s in ref
    ]


def test_empty_series_rejected():
    with pytest.raises(ContractViolation):
        run([], DetectorConfig())


def test_length_one_series():
    res = run([1.5], DetectorConfig())
    assert len(res.steps) == 1 and res.final_k == 1


def test_cp_flags_match_offline_readout():
    series, _, _ = _two_segment_series(seed=2)
    cfg = _quiet_config(seed=2)
    res = run(series, cfg)
    offline = detect_changepoints([s.r_star for s in res.steps], cfg.cp_rule)
    assert [s.t for s in res.steps if s.cp_flag] == [p + 1 for p in offline]


def test_mass_near_zero_rule_end_to_end():
    series, cps, _ = _two_segment_series(seed=4)
    rule = ChangePointRule(mode="mass-near-zero", mass_window=3, mass_threshold=0.5)
    res = run(series, _quiet_config(cp_rule=rule, seed=4))
    assert res.change_points, "expected at least one flagged step"
    assert min(abs(t - cps[0]) for t in res.change_points) <= 10


def test_pruned_and_unpruned_map_traces_agree():
    segs = [
        SegmentSpec(80, 0.0, 1.0, 1),
        SegmentSpec(80, 8.0, 1.0, 2),
        SegmentSpec(80, 0.0, 1.0, 1),
    ]
    series, _, _ = gen_piecewise_gaussian(segs, 21)
    base = _quiet_config(seed=21)
    pruned = _quiet_config(seed=21, prune=PrunePolicy.threshold(1e-8))
    ra, rb = run(series, base), run(series, pruned)
    assert [s.r_star for s in ra.steps] == [s.r_star for s in rb.steps]
    assert [s.z_star for s in ra.steps] == [s.z_star for s in rb.steps]


def _shuffled_regimes(seed, n_regimes, seg, n_segments, spacing):
    # Unit-variance segments whose means cycle through n_regimes levels
    # `spacing` apart, in a seeded shuffled order.
    rng = np.random.default_rng(seed)
    order = rng.permutation(np.resize(np.arange(n_regimes), n_segments))
    return np.repeat(spacing * order, seg) + rng.standard_normal(seg * n_segments)


def _trace_sha256(res):
    rows = "".join(
        f"{s.t},{s.z_star},{s.k_t},{s.r_star},{int(s.cp_flag)}\n" for s in res.steps
    )
    return hashlib.sha256(rows.encode()).hexdigest()


# Golden traces: the discrete outputs of two seeded runs, pinned so that a
# speed-up which changes any label, class count, MAP run length or
# change-point flag fails here.


def test_golden_trace_infinite_many_classes():
    series = _shuffled_regimes(2024, n_regimes=12, seg=40, n_segments=30, spacing=6.0)
    res = run(series, DetectorConfig(prune=PrunePolicy.top_m(100)))
    assert res.final_k > 20
    assert _trace_sha256(res) == (
        "08170ac2d76f538ebc2dabaf1be67a526ddec121bf451eb745df79ef14f7e051"
    )


def test_golden_trace_fixed_k():
    series = _shuffled_regimes(7, n_regimes=4, seg=60, n_segments=20, spacing=3.0)
    res = run(
        series,
        DetectorConfig(mode="fixed-k", k_fixed=10, prune=PrunePolicy.threshold(1e-10)),
    )
    assert len(res.change_points) > 5
    assert _trace_sha256(res) == (
        "2e3a3c13268212370a2fa14d234831d61deb638a3a65ea1332ed1448838ee4de"
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(mode="nope")
    with pytest.raises(ConfigError):
        DetectorConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        DetectorConfig(decay=0.0)
    with pytest.raises(ConfigError):
        DetectorConfig(seed=-1)


# -- fixed-k mode -------------------------------------------------------------


def test_fixed_k_run_predictive_uniform_at_empty_window():
    for k in (1, 2, 3):
        assert fixed_k_run_predictive(0, 0, k, 3, 1.0) == pytest.approx(1 / 3)


def test_fixed_k_run_predictive_window_counts():
    got = [fixed_k_run_predictive(w, 3, k, 3, 1.0) for k, w in enumerate([2, 1, 0], start=1)]
    np.testing.assert_allclose(got, [3 / 6, 2 / 6, 1 / 6])


def test_fixed_k_run_predictive_normalizes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        kf = int(rng.integers(2, 8))
        counts = rng.integers(0, 10, kf)
        r = int(counts.sum())
        beta = float(rng.uniform(0.1, 3.0))
        total = sum(fixed_k_run_predictive(int(w), r, k + 1, kf, beta) for k, w in enumerate(counts))
        assert total == pytest.approx(1.0, rel=1e-12)


def test_fixed_k_run_predictive_range_check():
    with pytest.raises(ContractViolation):
        fixed_k_run_predictive(0, 0, 4, 3, 1.0)


def test_fixed_k_mode_detects_changepoint_and_keeps_k():
    series, cps, _ = _two_segment_series(seed=6)
    res = run(series, DetectorConfig(mode="fixed-k", k_fixed=10, seed=6))
    assert res.final_k == 10
    assert all(1 <= s.z_star <= 10 for s in res.steps)
    assert res.change_points
    assert min(abs(t - cps[0]) for t in res.change_points) <= 10


def test_fixed_k_deterministic():
    series, _, _ = _two_segment_series(seed=8, n=60)
    cfg = DetectorConfig(mode="fixed-k", seed=5)
    a, b = run(series, cfg), run(series, cfg)
    assert [s.z_star for s in a.steps] == [s.z_star for s in b.steps]


# -- baseline mode --------------------------------------------------------------


def test_baseline_empty_window_predictive_is_student_t():
    p = NigParams(mu=0.5, kappa=2.0, a=3.0, b=1.5)
    scale = math.sqrt(p.b * (p.kappa + 1) / (p.a * p.kappa))
    for x in (-2.0, 0.0, 1.7):
        assert baseline_predictive(x, p) == pytest.approx(
            student_t.pdf(x, df=2 * p.a, loc=p.mu, scale=scale), rel=1e-12
        )


def test_baseline_predictive_integrates_to_one():
    p = NigParams()
    total, _ = quad(lambda x: baseline_predictive(x, p), -60, 60, limit=200)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_baseline_predictive_mode_at_repeated_value():
    # the unit-weight prior at 0 still pulls the mean: mode sits at
    # n/(n+1) of the repeated value, approaching it as the window grows
    p = NigParams()
    for _ in range(30):
        p = nig_update(p, 2.0)
    grid = np.linspace(-4, 8, 1201)
    dens = [baseline_predictive(g, p) for g in grid]
    assert abs(grid[int(np.argmax(dens))] - 2.0) < 0.1


def test_nig_update_pulls_mean_toward_data():
    p = nig_update(NigParams(), 4.0)
    assert 0.0 < p.mu < 4.0
    assert p.kappa == 2.0 and p.a == 1.5


def test_baseline_mode_detects_changepoint():
    series, cps, _ = _two_segment_series(seed=7)
    res = run(series, DetectorConfig(mode="baseline", seed=7))
    assert res.change_points
    assert min(abs(t - cps[0]) for t in res.change_points) <= 10
    assert all(s.z_star == 1 and s.k_t == 1 for s in res.steps)
    assert res.params == []


def test_baseline_with_pruning_matches_unpruned_map_trace():
    series, _, _ = _two_segment_series(seed=13, n=120)
    a = run(series, DetectorConfig(mode="baseline", seed=13))
    b = run(
        series,
        DetectorConfig(mode="baseline", seed=13, prune=PrunePolicy.threshold(1e-10)),
    )
    assert [s.r_star for s in a.steps] == [s.r_star for s in b.steps]


@pytest.mark.parametrize(
    "history, outlier",
    [(np.random.default_rng(0).normal(0.0, 1.0, 500), 150.0), ([0.0], 1e120)],
)
def test_baseline_outlier_keeps_every_weight_finite(history, outlier):
    # A 150-sigma outlier after 500 N(0, 1) samples, or 1e120 after one 0:
    # its Student-t density under every run is far below the smallest float,
    # but the trellis takes log densities, so no live weight underflows to
    # -inf (and the second no longer ends in DegenerateStateError).
    det = Detector(DetectorConfig(mode="baseline"))
    for x in history:
        det.step(x)
    out = det.step(outlier)
    assert np.all(np.isfinite(det.rl.log_weights))
    assert out.r_star == 0


@pytest.mark.parametrize(
    "series", [[0.0, 1e154], [0.0, 1e154, -1.3e154], [0.0, 1.4e154], [0.0, 1e200]]
)
def test_baseline_overflowing_observation_is_degenerate(series):
    # (x - mu)^2 or kappa (x - mu)^2 overflows at t=2. The detector raises
    # DegenerateStateError there, as it did when every density underflowed,
    # keeps its state, and writes no inf or NaN into its table.
    det = Detector(DetectorConfig(mode="baseline"))
    det.step(series[0])
    rl, nig = det.rl, det._nig
    with pytest.raises(DegenerateStateError, match="t=2"):
        for x in series[1:]:
            det.step(x)
    assert det.t == 1 and det.rl is rl and det._nig is nig
    assert np.all(np.isfinite(nig))


@pytest.mark.parametrize("a0", [0.3, 1.0, 2.5])
def test_lgamma_term_recurrence_matches_mpmath(a0):
    # D = lgamma(a + 1/2) - lgamma(a) is carried by D(a + 1/2) = log(a) - D(a)
    # from the prior's math.lgamma seed; checked at 50 digits up to r = 1e4.
    mpmath.mp.dps = 50
    prior = _nig_row(NigParams(a=a0))
    col = prior[:, None]
    checked = set(range(300)) | set(range(300, 10_001, 37)) | {10_000}
    for r in range(10_001):
        if r in checked:
            a, d = mpmath.mpf(col[2, 0]), col[4, 0]
            want = mpmath.loggamma(a + mpmath.mpf(0.5)) - mpmath.loggamma(a)
            assert abs(d - float(want)) <= 1e-12, (r, d, want)
        col = _nig_grow(col, 0.25, prior)[:, 1:]
    assert col[2, 0] == a0 + 10_001 / 2


def test_baseline_hypothesis_predictive_matches_student_t():
    # After 200 steps every live hypothesis's predictive equals the Student-t
    # of the NIG posterior of its window, folded independently.
    rng = np.random.default_rng(11)
    series = rng.normal(0.5, 2.0, 200)
    det = Detector(DetectorConfig(mode="baseline"))
    for x in series:
        det.step(x)
    x_next = 1.3
    psi = np.exp(_student_t_logpdf(x_next, det._nig))
    for r, got in zip(det.rl.run_lengths, psi):
        p = NigParams()
        for x in series[len(series) - r :]:
            p = nig_update(p, x)
        scale = math.sqrt(p.b * (p.kappa + 1) / (p.a * p.kappa))
        want = student_t.pdf(x_next, df=2 * p.a, loc=p.mu, scale=scale)
        assert got == pytest.approx(want, rel=1e-12), r


def test_fixed_k_offsets_match_ndtri():
    for k in range(1, 200):
        got = np.array(_fixed_k_offsets(k))
        want = ndtri(np.arange(1, k + 1) / (k + 1.0))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_nig_validation():
    with pytest.raises(ConfigError):
        NigParams(kappa=0.0)
