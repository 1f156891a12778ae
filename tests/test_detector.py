import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import t as student_t

from streamcpd import (
    CandidatePolicy,
    ChangePointRule,
    ConfigError,
    ContractViolation,
    Detector,
    DetectorConfig,
    HazardConfig,
    InputError,
    LabelCounts,
    NigParams,
    PrunePolicy,
    RunLengthState,
    SegmentSpec,
    crp_numerators,
    crp_run_predictive,
    fixed_k_run_predictive,
    gen_piecewise_gaussian,
    recursion_step,
    run,
)
from streamcpd import detector, runlength
from streamcpd.detector import (
    _TABLE_CAP,
    BaselineModel,
    _fixed_k_offsets,
    _run_length_rows_past_cap,
    _run_length_table,
)
from streamcpd.oracles import brute_force_joint, nig_update


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


@pytest.mark.parametrize("seed", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_seed_is_accepted(seed):
    assert DetectorConfig(seed=seed).seed == 3


@pytest.mark.parametrize("seed", [np.int64(-1), -1, 3.0, "3", True, False])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ConfigError):
        DetectorConfig(seed=seed)


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
        # a huge mean step overflows the MAP scoring after the M-step
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


def _steps_sha256(steps):
    h = hashlib.sha256()
    for s in steps:
        h.update(f"{s.t},{s.z_star},{s.k_t},{s.r_star},{int(s.cp_flag)}\n".encode())
        h.update(s.responsibilities.tobytes())
        h.update(s.rl_posterior.runs.tobytes())
        h.update(s.rl_posterior.probs.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "mode, k_fixed, n, digest",
    [
        ("infinite", 10, 325, "e01e4f4483c6093d7581ef9f6a0a719ed71f9af2a9421ca2304316da3eb9ed11"),
        ("fixed-k", 1, 321, "7179a17d9baca9c40b7a4cc583407492cdbe6ecee71d02d9da7ecc3960118b4d"),
        ("fixed-k", 10, 321, "0564f11e6a22044e3d2909cfbcb001bac7870ea5b6d37266f54a92082b3f23a5"),
    ],
)
def test_large_decay_keeps_stepping(mode, k_fixed, n, digest):
    # At decay 0.9 the winner's learning rates round to 0 at step n + 1;
    # they stay at the smallest positive double and the run goes on. The
    # hash pins the n steps before any rate reaches that floor.
    series = np.random.default_rng(0).normal(0.0, 1.0, 1000)
    res = run(series, DetectorConfig(mode=mode, k_fixed=k_fixed, decay=0.9))
    assert len(res.steps) == 1000
    assert min(min(p.eta_mu, p.eta_var) for p in res.params) == 5e-324
    assert _steps_sha256(res.steps[:n]) == digest


def test_empty_series_rejected():
    with pytest.raises(ContractViolation):
        run([], DetectorConfig())


def test_length_one_series():
    res = run([1.5], DetectorConfig())
    assert len(res.steps) == 1 and res.final_k == 1


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


def _enumeration_cases(seed, n):
    # n short series (T <= 10) whose values jump between three levels, so
    # the MAP labels change within the series.
    rng = np.random.default_rng(seed)
    for _ in range(n):
        T = int(rng.integers(1, 11))
        series = rng.normal(0.0, 1.0, T) + 6.0 * rng.integers(0, 3, T)
        yield series, float(rng.choice([0.5, 1.0, 2.0])), float(rng.choice([2.0, 10.0, 1e6]))


def _assert_joint_matches(det, want):
    got = np.exp(det.rl.log_weights)
    np.testing.assert_allclose(got, want[det.rl.run_lengths], rtol=1e-12, atol=0)


def test_infinite_detector_matches_enumeration_on_its_labels():
    # The detector's own trellis, fed by its own CRP window predictives,
    # against the exact enumeration over every reset/growth path of the
    # label trace it produced.
    for series, alpha, lam in _enumeration_cases(31, 50):
        det = Detector(DetectorConfig(alpha=alpha, hazard=HazardConfig(lam)))
        z_trace = [det.step(x).z_star for x in series]
        _assert_joint_matches(det, brute_force_joint(z_trace, alpha, lam))


def _fixed_k_joint(labels, k_fixed, beta, lam):
    # Exact rational enumeration of the fixed-k trellis: a reset pays
    # h * 1/K, a growth over a window of r labels holding w copies of this
    # step's label pays (1 - h) (w + beta) / (r + K beta).
    T = len(labels)
    h, b = 1 / Fraction(lam), Fraction(beta)
    out = [Fraction(0)] * (T + 1)
    for mask in range(1 << T):
        prob, last_reset = Fraction(1), 0
        for t in range(1, T + 1):
            if (mask >> (t - 1)) & 1:
                prob *= h / k_fixed
                last_reset = t
            else:
                window = labels[last_reset : t - 1]
                w = window.count(labels[t - 1])
                prob *= (1 - h) * (w + b) / (len(window) + k_fixed * b)
        out[T - last_reset] += prob
    return np.array([float(p) for p in out])


def test_fixed_k_detector_matches_enumeration_on_its_labels():
    for series, beta, lam in _enumeration_cases(32, 50):
        det = Detector(
            DetectorConfig(mode="fixed-k", k_fixed=3, dirichlet_beta=beta, hazard=HazardConfig(lam))
        )
        z_trace = [det.step(x).z_star for x in series]
        _assert_joint_matches(det, _fixed_k_joint(z_trace, 3, beta, lam))


def _posterior_sha256(res):
    h = hashlib.sha256()
    for s in res.steps:
        h.update(s.rl_posterior.runs.tobytes())
        h.update(s.rl_posterior.probs.tobytes())
    return h.hexdigest()


def _responsibilities_sha256(res):
    h = hashlib.sha256()
    for s in res.steps:
        h.update(s.responsibilities.tobytes())
    return h.hexdigest()


# The next three goldens also pin the stored posterior slices and the
# responsibilities bit for bit. On 90 of the 1200 steps of the many-classes
# run, on every step of the fixed-k run and on 1198 of the 1200 of the
# baseline run, every posterior entry is shown; the many-classes run also
# reaches top-m's steady state (one hypothesis over the cap) 1101 times.


def test_golden_trace_infinite_many_classes():
    series = _shuffled_regimes(2024, n_regimes=12, seg=40, n_segments=30, spacing=6.0)
    res = run(series, DetectorConfig(prune=PrunePolicy.top_m(100)))
    assert res.final_k > 20
    assert _trace_sha256(res) == (
        "08170ac2d76f538ebc2dabaf1be67a526ddec121bf451eb745df79ef14f7e051"
    )
    assert _posterior_sha256(res) == (
        "acb902efbcea3cf4cbb9508e438828fad045fbe7952e5e766b639b900994a424"
    )
    assert _responsibilities_sha256(res) == (
        "077cedd6e620d27d85d019aac3dda5983bce5dfac14db2a6ad9ffca73644f197"
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
    assert _posterior_sha256(res) == (
        "4ba767fc96fd89e8c647fc9dcd3be675f55f02ef93f74faa0db05b869c8e8da0"
    )
    assert _responsibilities_sha256(res) == (
        "210a8678cfa6a23dfb07f047e2e92ceb2c85ceb8e84a47b340249017c378206b"
    )


def test_golden_trace_baseline_threshold_pruned():
    series = _shuffled_regimes(11, n_regimes=4, seg=60, n_segments=20, spacing=3.0)
    res = run(series, DetectorConfig(mode="baseline", prune=PrunePolicy.threshold(1e-10)))
    assert len(res.change_points) > 5
    assert _trace_sha256(res) == (
        "0d4190d44e1c2be50450d30fceb57de6479ea91aa261b47b974f58c5b17c6668"
    )
    assert _posterior_sha256(res) == (
        "9a5bd62bcbbe8787c3cc413bf89c4c14594e3e7b88d1472ad5d8919ad2194ae3"
    )
    assert _responsibilities_sha256(res) == (
        "5485c6b2a1b42da3ca8362b2086b4c03a071e70583b8c1462d45c433c2a64638"
    )


def test_golden_trace_infinite_unpruned():
    # The c5 detection configuration, with no pruning: every run length
    # stays live.
    segs = [
        SegmentSpec(200, 0.0, 1.0, 1),
        SegmentSpec(200, 8.0, 1.0, 2),
        SegmentSpec(200, 0.0, 1.0, 1),
    ]
    series, _, _ = gen_piecewise_gaussian(segs, 5)
    res = run(series, DetectorConfig(alpha=0.5, candidate=CandidatePolicy(var_init=2.0)))
    assert res.change_points == [203, 403]
    assert _trace_sha256(res) == (
        "641a2ae6bdd77bfbaee4c64ed52a176a608c4976a7930992a6cee492548f9aa2"
    )


# Unpruned runs long enough that some joint weights fall more than
# log(tiny) below the largest, so logsumexp takes its masked branch: on 405
# of the 900 steps of the baseline run and 122 of the 1200 of the infinite
# one. The stored posterior slices are pinned bit for bit along with the
# discrete trace.


def test_golden_trace_baseline_unpruned():
    segs = [
        SegmentSpec(300, 0.0, 1.0, 1),
        SegmentSpec(300, 8.0, 1.0, 2),
        SegmentSpec(300, 0.0, 1.0, 1),
    ]
    series, _, _ = gen_piecewise_gaussian(segs, 1)
    res = run(series, DetectorConfig(mode="baseline"))
    assert res.change_points == [301, 601]
    assert _trace_sha256(res) == (
        "ac3dbd8adb2f057946838123501b0b9689fc1af135e5c00b8b293bd05f013eda"
    )
    assert _posterior_sha256(res) == (
        "1f06ada6c7fe5e52bc027244465a881262f43f88054fe3b7dc36faa93b32e294"
    )


def test_golden_trace_infinite_unpruned_four_segments():
    segs = [SegmentSpec(300, 8.0 * (i % 2), 1.0, 1 + i % 2) for i in range(4)]
    series, _, _ = gen_piecewise_gaussian(segs, 1)
    res = run(series, DetectorConfig(alpha=0.5, candidate=CandidatePolicy(var_init=2.0)))
    assert res.change_points == [303, 603, 903]
    assert _trace_sha256(res) == (
        "656625fd56f1175113bb6fb888535552194362e99fe5fca6c738948e058b556f"
    )
    assert _posterior_sha256(res) == (
        "dcc7413bc8aa0b7b820f4d86b8c77e27d1f4e0abe14daf506ce56c61adb9bff8"
    )


# Four regimes 3 apart: unpruned, every mode has steps whose posterior has
# entries below the 1e-14 readout cut and steps where it has none.
_READOUT_SERIES = _shuffled_regimes(7, n_regimes=4, seg=40, n_segments=6, spacing=3.0)


@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
def test_posterior_slice_is_the_shown_part_of_the_full_posterior(mode, monkeypatch):
    full = []
    normalize = detector.normalize_posterior

    def capture(state):
        posterior = normalize(state)
        assert posterior[state.posterior_argmin] == posterior.min()
        full.append((state.run_lengths, posterior))
        return posterior

    monkeypatch.setattr(detector, "normalize_posterior", capture)
    # A shared dense table longer than the series, so it is not rebuilt
    # during the runs.
    table = np.arange(4 * _READOUT_SERIES.size, dtype=np.int64)
    table.setflags(False)
    monkeypatch.setattr(runlength, "_DENSE", table)
    branches = set()
    for policy in (PrunePolicy.none(), PrunePolicy.threshold(1e-10), PrunePolicy.top_m(20)):
        full.clear()
        res = run(_READOUT_SERIES, DetectorConfig(mode=mode, prune=policy))
        assert len(full) == len(res.steps)
        for s, (runs, posterior) in zip(res.steps, full):
            shown = posterior >= 1e-14
            got = s.rl_posterior
            assert got.runs.tobytes() == runs[shown].tobytes()
            assert got.probs.tobytes() == posterior[shown].tobytes()
            assert got.runs.dtype == np.int64 and got.probs.dtype == np.float64
            k = int(shown.sum())
            if k == shown.size:
                branches.add("nothing hidden")
                assert got.runs is runs and got.probs is posterior
                continue
            # A slice shorter than its state never keeps the full posterior
            # (and with it the hidden tail) alive.
            assert not np.shares_memory(got.probs, posterior)
            if shown[:k].all() and runs[k - 1] == k - 1:
                branches.add("first k")
                assert np.shares_memory(got.runs, table)
            else:
                branches.add("gathered")
                assert not np.shares_memory(got.runs, table)
    assert branches == {"nothing hidden", "first k", "gathered"}


@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
def test_step_outputs_are_read_only(mode):
    # Writing into a step's arrays raises, whether the slice is the step's
    # own posterior or a copy, and leaves the next steps as they would be.
    cfg = DetectorConfig(mode=mode)
    det, ref = Detector(cfg), Detector(cfg)
    branches = set()
    for x in _READOUT_SERIES:
        out, want = det.step(x), ref.step(x)
        assert out.rl_posterior.runs.tobytes() == want.rl_posterior.runs.tobytes()
        assert out.rl_posterior.probs.tobytes() == want.rl_posterior.probs.tobytes()
        assert out.responsibilities.tobytes() == want.responsibilities.tobytes()
        assert (out.z_star, out.k_t, out.r_star, out.cp_flag) == (
            want.z_star,
            want.k_t,
            want.r_star,
            want.cp_flag,
        )
        branches.add(out.rl_posterior.runs.size == det.rl.run_lengths.size)
        for arr in (out.rl_posterior.runs, out.rl_posterior.probs, out.responsibilities):
            with pytest.raises(ValueError):
                arr[0] = 7
    assert branches == {True, False}


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(mode="nope")
    with pytest.raises(ConfigError):
        DetectorConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        DetectorConfig(decay=0.0)
    with pytest.raises(ConfigError):
        DetectorConfig(seed=-1)
    # A class count that is not an integer failed only at the first step,
    # with a raw TypeError; True is an integer to Python but not a count.
    for k in (2.5, 2.0, "3", 0, np.int64(0), True):
        with pytest.raises(ConfigError):
            DetectorConfig(mode="fixed-k", k_fixed=k)
    # An overflowing baseline prior scale 2 b0 (kappa0 + 1) / kappa0.
    for p in (NigParams(b=1e308), NigParams(kappa=5e-324)):
        with pytest.raises(ConfigError):
            Detector(DetectorConfig(mode="baseline", baseline=p))


@pytest.mark.parametrize("k", [np.int64(3), np.int32(3), np.uint8(3), 3])
def test_numpy_integer_counts_are_accepted(k):
    series = np.random.default_rng(1).normal(0.0, 1.0, 30)
    cfg = DetectorConfig(mode="fixed-k", k_fixed=k, prune=PrunePolicy.top_m(k))
    res = run(series, cfg)
    want = run(series, DetectorConfig(mode="fixed-k", k_fixed=3, prune=PrunePolicy.top_m(3)))
    assert res.final_k == 3
    assert _trace_sha256(res) == _trace_sha256(want)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("prune", [PrunePolicy.none(), PrunePolicy.top_m(20)])
def test_infinite_window_predictive_while_numerator_table_grows(alpha, prune, monkeypatch):
    # The model's numerator and denominator tables start shorter than the
    # run and double together; every step's window predictive equals the
    # formula written out, over every run length (unpruned, read by slices)
    # and over a sparse set of them (top-m, read by gathers once pruning
    # starts).
    sizes, dense = [], []

    def checked(counts, runs, k, numerators, denominators=None):
        got = crp_run_predictive(counts, runs, k, numerators, denominators)
        w = counts.window_counts(k, runs)
        np.testing.assert_array_equal(got, np.where(w > 0, w, alpha) / (runs + alpha))
        if denominators is not None:
            np.testing.assert_array_equal(runs, np.arange(runs.size))
            assert denominators.size == numerators.size
        sizes.append(numerators.size)
        dense.append(denominators is not None)
        return got

    monkeypatch.setattr(detector, "crp_run_predictive", checked)
    series, _, _ = _two_segment_series(seed=3, jump=6.0, n=150)
    run(series, DetectorConfig(alpha=alpha, prune=prune))
    assert len(sizes) == 300
    if prune.kind == "none":  # run lengths reach 299
        assert sizes[0] < 300 <= sizes[-1]
        assert all(dense)
    else:
        assert any(dense) and not all(dense)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=60),
    alpha=st.sampled_from([0.5, 1.0, 3.0]),
    data=st.data(),
)
def test_dense_run_lengths_read_by_slices_as_by_gathers(labels, alpha, data):
    # Run lengths 0..n-1 (dense: slices of the per-run-length tables) and a
    # pruned subset of them with the last kept (sparse: gathers) give the
    # same window counts, CRP window predictives, baseline predictives and
    # next-state run lengths, bit for bit, on the hypotheses they share.
    t = len(labels)
    n = data.draw(st.integers(min_value=3, max_value=t + 1))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    keep[[0, -1]] = True
    keep[data.draw(st.integers(min_value=1, max_value=n - 2))] = False
    dense = np.arange(n)
    sparse = dense[keep]
    rng = np.random.default_rng(t)
    lw = rng.normal(0.0, 1.0, n)
    full, pruned = RunLengthState(dense, lw), RunLengthState(sparse, lw[keep])
    assert full.dense and not pruned.dense

    num, den = crp_numerators(alpha, n), np.arange(n, dtype=float) + alpha
    for k in range(1, max(labels) + 2):
        want = [labels[t - r :].count(k) for r in dense]
        for hot in (False, True):  # binary search, or k's kept prefix counts
            lc = LabelCounts()
            for z in labels:
                lc.record(z)
            if hot:
                lc.window_counts(k, np.arange(t + 1))
            w = lc.window_counts(k, dense, dense=True)
            np.testing.assert_array_equal(w, want)
            np.testing.assert_array_equal(lc.window_counts(k, sparse), w[keep])
            p = crp_run_predictive(lc, dense, k, num, den)
            np.testing.assert_array_equal(crp_run_predictive(lc, dense, k, num), p)
            np.testing.assert_array_equal(crp_run_predictive(lc, sparse, k, num), p[keep])

    live = np.vstack([rng.normal(0.0, 3.0, n), rng.uniform(0.5, 4.0, n)])
    x = data.draw(st.floats(min_value=-10.0, max_value=10.0))
    a = BaselineModel(DetectorConfig(mode="baseline"))
    b = BaselineModel(DetectorConfig(mode="baseline"))
    a.live, b.live = live, live[:, keep]
    log_psi = a.predict(x, t, dense, full.dense)[0]
    np.testing.assert_array_equal(b.predict(x, t, sparse, pruned.dense)[0], log_psi[keep])
    np.testing.assert_array_equal(b._grown, a._grown[:, np.r_[True, keep]])

    hazard = HazardConfig(50.0)
    grown = recursion_step(full, log_psi, hazard).run_lengths
    regrown = recursion_step(pruned, log_psi[keep], hazard).run_lengths
    np.testing.assert_array_equal(grown, np.r_[0, dense + 1])
    np.testing.assert_array_equal(regrown, np.r_[0, sparse + 1])
    assert not grown.flags.writeable and not regrown.flags.writeable


def test_run_lengths_kept_by_steps_outlive_the_shared_table(monkeypatch):
    # Dense run lengths, a state's own and the first k shown by a step
    # that hides the rest, are views of one shared table that is rebuilt
    # when a state outgrows it; the views a run's steps kept stay read-only
    # and read the same as a run that never saw the table grow.
    small = np.arange(8, dtype=np.int64)
    small.setflags(False)
    monkeypatch.setattr(runlength, "_DENSE", small)
    series, _, _ = _two_segment_series(seed=2, n=60)
    kept = {mode: run(series, DetectorConfig(mode=mode)) for mode in ("baseline", "infinite")}
    assert runlength._DENSE.size > series.size
    assert np.shares_memory(kept["baseline"].steps[0].rl_posterior.runs, small)
    # Unpruned, a step holds run lengths 0..t; one that shows fewer and
    # keeps a view shows the first k.
    first_k = [
        s.rl_posterior.runs
        for s in kept["infinite"].steps
        if s.rl_posterior.runs.size <= s.t and s.rl_posterior.runs.base is not None
    ]
    assert first_k
    runlength._dense_run_lengths(2 * runlength._DENSE.size)
    for mode, res in kept.items():
        again = run(series, DetectorConfig(mode=mode))
        for s, want in zip(res.steps, again.steps):
            assert not s.rl_posterior.runs.flags.writeable
            np.testing.assert_array_equal(s.rl_posterior.runs, want.rl_posterior.runs)
    for runs in first_k:
        np.testing.assert_array_equal(runs, np.arange(runs.size))
        with pytest.raises(ValueError):
            runs[0] = 1
    with pytest.raises(ValueError):
        kept["baseline"].steps[0].rl_posterior.runs[0] = 1
    np.testing.assert_array_equal(small, np.arange(8))


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


def _baseline_log_predictives(det, x):
    # The baseline model's log predictive of x under every live hypothesis,
    # read without committing.
    return det.model.predict(x, det.t + 1, det.rl.run_lengths, det.rl.dense)[0]


def _nig_pdf(x, p):
    # The baseline's Student-t predictive density of x under one NIG state.
    det = Detector(DetectorConfig(mode="baseline", baseline=p))
    return float(np.exp(_baseline_log_predictives(det, x)[0]))


def test_baseline_empty_window_predictive_is_student_t():
    p = NigParams(mu=0.5, kappa=2.0, a=3.0, b=1.5)
    scale = math.sqrt(p.b * (p.kappa + 1) / (p.a * p.kappa))
    for x in (-2.0, 0.0, 1.7):
        assert _nig_pdf(x, p) == pytest.approx(
            student_t.pdf(x, df=2 * p.a, loc=p.mu, scale=scale), rel=1e-12
        )


def test_baseline_predictive_integrates_to_one():
    p = NigParams()
    total, _ = quad(lambda x: _nig_pdf(x, p), -60, 60, limit=200)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_baseline_predictive_mode_at_repeated_value():
    # the unit-weight prior at 0 still pulls the mean: mode sits at
    # n/(n+1) of the repeated value, approaching it as the window grows
    p = NigParams()
    for _ in range(30):
        p = nig_update(p, 2.0)
    grid = np.linspace(-4, 8, 1201)
    dens = [_nig_pdf(g, p) for g in grid]
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
    "series", [[0.0, 1e154, -1.3e154], [0.0, 1.4e154], [0.0, 1e200]]
)
def test_baseline_overflowing_observation_is_degenerate(series):
    # (x - mu)^2 overflows for some live column at the last step: at t=2
    # under the prior, at t=3 under the column whose mean 1e154 moved to
    # 5e153. The detector raises InputError there, as the latent modes do,
    # keeps its state, and writes no inf or NaN into its table.
    det = Detector(DetectorConfig(mode="baseline"))
    for x in series[:-1]:
        det.step(x)
    rl, live = det.rl, det.model.live
    with pytest.raises(InputError, match=f"t={len(series)}"):
        det.step(series[-1])
    assert det.t == len(series) - 1 and det.rl is rl and det.model.live is live
    assert np.all(np.isfinite(live))


@pytest.mark.parametrize("series", [[0.0, 1e154], [0.0] * 100 + [2e153]])
def test_baseline_far_observation_is_accepted(series):
    # Only d^2, d^2 / B and B + d^2 can overflow, so an observation whose
    # square still fits is accepted whatever the run lengths, as in the
    # latent modes, and ordinary observations after one such value step
    # normally.
    det = Detector(DetectorConfig(mode="baseline"))
    for x in series:
        det.step(x)
    for x in np.random.default_rng(5).normal(0.0, 1.0, 20):
        out = det.step(x)
        assert out.rl_posterior.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert det.t == len(series) + 20
    assert np.all(np.isfinite(det.rl.log_weights))
    assert np.all(np.isfinite(det.model.live))


def test_baseline_column_near_overflow_refuses_later_observations():
    # Known limit, pinned until overflow-safe residuals land: unpruned, the
    # column that absorbed 1e154 three times keeps B near 1e308, so B + d^2
    # overflows there for every later ordinary value, which is refused with
    # the detector left as it was.
    det = Detector(DetectorConfig(mode="baseline"))
    for x in [0.0, 1e154, 1e154, 1e154]:
        det.step(x)
    rl, live = det.rl, det.model.live
    for x in np.random.default_rng(0).normal(0.0, 1.0, 5):
        with pytest.raises(InputError, match="t=5"):
            det.step(x)
        assert det.t == 4 and det.rl is rl and det.model.live is live
    assert np.all(np.isfinite(live))


@pytest.mark.parametrize("a0", [0.3, 1.0, 2.5])
def test_lgamma_term_recurrence_matches_mpmath(a0):
    # c_r = D_r - log(pi)/2 with D_r = lgamma(a_r + 1/2) - lgamma(a_r) is
    # carried by D(a + 1/2) = log(a) - D(a) from the prior's math.lgamma
    # seed; checked at 50 digits up to r = 1e4.
    mpmath.mp.dps = 50
    table = _run_length_table(NigParams(a=a0), 10_001)
    a = a0
    checked = set(range(300)) | set(range(300, 10_001, 37)) | {10_000}
    for r in range(10_001):
        if r in checked:
            am = mpmath.mpf(a)
            want = mpmath.loggamma(am + mpmath.mpf(0.5)) - mpmath.loggamma(am)
            want -= mpmath.log(mpmath.pi) / 2
            assert abs(table[0, r] - float(want)) <= 1e-12, (r, table[0, r], want)
        a += 0.5
    assert table[1, 10_000] == a


@pytest.mark.parametrize(
    "kappa0, a0", [(1.0, 1.0), (0.3, 2.5), (2.5, 0.3), (0.05, 1.0), (1e-10, 1.0), (1e-17, 0.3)]
)
def test_run_length_table_rows_match_nig_folds(kappa0, a0):
    # Row r holds h_r = a_r + 1/2, 1/kappa_{r+1} and rho_r = kappa_r
    # (kappa_r + 2) / (kappa_r + 1)^2 for the kappa_r and a_r that r
    # conjugate updates reach (they do not depend on the observations).
    table = _run_length_table(NigParams(kappa=kappa0, a=a0), 400)
    p = NigParams(kappa=kappa0, a=a0)
    for r, x in enumerate(np.random.default_rng(2).normal(0.0, 3.0, 400)):
        assert table[1, r] == p.a + 0.5
        assert table[2, r] == 1.0 / (p.kappa + 1.0)
        want_rho = p.kappa * (p.kappa + 2.0) / (p.kappa + 1.0) ** 2
        assert table[3, r] == pytest.approx(want_rho, rel=1e-15, abs=0)
        want_c = math.lgamma(p.a + 0.5) - math.lgamma(p.a) - 0.5 * math.log(math.pi)
        assert table[0, r] == pytest.approx(want_c, abs=1e-12)
        p = nig_update(p, x)


@pytest.mark.parametrize("a0", [0.3, 1.0, 2.5])
def test_run_length_rows_past_cap_match_recurrence(a0):
    # Past the cap, kappa_r and a_r are computed directly and D(a) from its
    # asymptotic series: against the recurrence table continued past the
    # cap, and against mpmath far beyond it.
    p = NigParams(kappa=0.3, a=a0)
    r = np.arange(_TABLE_CAP, _TABLE_CAP + 2000)
    got = _run_length_rows_past_cap(p, r)
    want = _run_length_table(p, _TABLE_CAP + 2000)[:, _TABLE_CAP:]
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-15, atol=0)
    mpmath.mp.dps = 50
    far = np.array([_TABLE_CAP, 10**6, 10**9, 10**12])
    for r_i, c in zip(far, _run_length_rows_past_cap(p, far)[0]):
        am = mpmath.mpf(a0) + mpmath.mpf(int(r_i)) / 2
        want_c = mpmath.loggamma(am + 0.5) - mpmath.loggamma(am) - mpmath.log(mpmath.pi) / 2
        assert abs(c - float(want_c)) <= 1e-12, r_i


def _nig_log_predictives_mpmath(series, kappa0, a0, x_next):
    # Log predictive of x_next under the NIG posterior of every window
    # series[-r:], r = 0..len(series), folded at the current mpmath
    # precision. The posterior does not depend on the order of the window,
    # so one fold backwards from the end reaches every window.
    x_next = mpmath.mpf(x_next)
    mu, kappa, a, b = mpmath.mpf(0), mpmath.mpf(kappa0), mpmath.mpf(a0), mpmath.mpf(1)
    half = mpmath.mpf(0.5)
    out = []
    for r in range(len(series) + 1):
        if r:
            x = mpmath.mpf(float(series[-r]))
            kappa1 = kappa + 1
            mu, b = (kappa * mu + x) / kappa1, b + kappa * (x - mu) ** 2 / (2 * kappa1)
            kappa, a = kappa1, a + half
        big_b = 2 * b * (kappa + 1) / kappa
        out.append(
            mpmath.loggamma(a + half) - mpmath.loggamma(a)
            - mpmath.log(mpmath.pi * big_b) / 2
            - (a + half) * mpmath.log1p((x_next - mu) ** 2 / big_b)
        )
    return out


def test_baseline_run_length_table_stops_at_cap(monkeypatch):
    # With the cap lowered to 256, an unpruned run of 700 steps keeps a
    # 256-row table, and the hypotheses past it still get log predictives
    # within 1e-12 of a 40-digit fold.
    monkeypatch.setattr(detector, "_TABLE_CAP", 256)
    mpmath.mp.dps = 40
    series = np.random.default_rng(256).normal(0.5, 2.0, 700)
    det = Detector(DetectorConfig(mode="baseline", baseline=NigParams(kappa=0.3, a=0.3)))
    for x in series:
        det.step(x)
    assert det.model.consts.shape == (4, 256)
    got = _baseline_log_predictives(det, 1.3)
    want = _nig_log_predictives_mpmath(series, 0.3, 0.3, 1.3)
    assert max(abs(g - float(w)) for g, w in zip(got, want)) <= 1e-12


def test_baseline_log_predictive_matches_mpmath_long_run():
    # Unpruned, T = 4000: every hypothesis's log predictive against the NIG
    # posterior of its window folded at 40 digits.
    mpmath.mp.dps = 40
    series = np.random.default_rng(4000).normal(0.5, 2.0, 4000)
    det = Detector(DetectorConfig(mode="baseline"))
    for x in series:
        det.step(x)
    got = _baseline_log_predictives(det, 1.3)
    assert list(det.rl.run_lengths) == list(range(4001))
    want = _nig_log_predictives_mpmath(series, 1.0, 1.0, 1.3)
    assert max(abs(g - float(w)) for g, w in zip(got, want)) <= 1e-12


def _check_baseline_predictives(policy, prior=NigParams()):
    # After 200 steps every live hypothesis's predictive equals the Student-t
    # of the NIG posterior of its window, folded independently.
    rng = np.random.default_rng(11)
    series = rng.normal(0.5, 2.0, 200)
    det = Detector(DetectorConfig(mode="baseline", prune=policy, baseline=prior))
    for x in series:
        det.step(x)
    x_next = 1.3
    psi = np.exp(_baseline_log_predictives(det, x_next))
    for r, got in zip(det.rl.run_lengths, psi):
        p = prior
        for x in series[len(series) - r :]:
            p = nig_update(p, x)
        scale = math.sqrt(p.b * (p.kappa + 1) / (p.a * p.kappa))
        want = student_t.pdf(x_next, df=2 * p.a, loc=p.mu, scale=scale)
        assert got == pytest.approx(want, rel=1e-12), r


def test_baseline_hypothesis_predictive_matches_student_t():
    _check_baseline_predictives(PrunePolicy.none())


@pytest.mark.parametrize(
    "policy", [PrunePolicy.threshold(1e-10), PrunePolicy.top_m(20)], ids=["threshold", "top-m"]
)
def test_baseline_hypothesis_predictive_matches_student_t_pruned(policy):
    # Top-m is the only policy that leaves survivors that are not
    # contiguous, so a model keep hook that misaligns the hypothesis table
    # with the trellis fails its case.
    _check_baseline_predictives(policy)


@pytest.mark.parametrize("kappa0", [1e-10, 1e-17])
def test_baseline_hypothesis_predictive_matches_student_t_tiny_kappa0(kappa0):
    # rho_0 is about 2 kappa0 here: a form that loses its digits to
    # cancellation (or rounds it to 0, so that B = 0 at t = 2) fails.
    _check_baseline_predictives(PrunePolicy.none(), NigParams(kappa=kappa0))


def test_fixed_k_offsets_match_ndtri():
    for k in range(1, 200):
        got = np.array(_fixed_k_offsets(k))
        want = ndtri(np.arange(1, k + 1) / (k + 1.0))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_nig_validation():
    with pytest.raises(ConfigError):
        NigParams(kappa=0.0)
