import copy
import contextlib
import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    NigParams,
    PrunePolicy,
    SegmentSpec,
    gen_piecewise_gaussian,
    run,
)
from streamcpd import detector, nig, runlength
from streamcpd.crp import LabelCounts
from streamcpd.detector import BaselineModel, _fixed_k_offsets
from streamcpd.nig import _TABLE_CAP, _run_length_rows_past_cap, _run_length_table
from streamcpd.runlength import RunLengthState, logsumexp, recursion_step

from conftest import crp_rule, dirichlet_rule
from reference import BaselineReference, LatentReference, brute_force_joint, nig_update


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


@pytest.mark.parametrize(
    "mode, want", [("infinite", []), ("fixed-k", []), ("baseline", None)], ids=lambda v: str(v)
)
def test_params_before_the_first_step(mode, want):
    assert Detector(DetectorConfig(mode=mode)).params == want


def test_refused_first_fixed_k_observation_leaves_no_classes():
    # The fan-out is made inside the step's rollback: learning rates this
    # large overflow the first M-step, and the refused observation leaves
    # the table empty, where it used to leave all 10 classes built.
    det = Detector(DetectorConfig(mode="fixed-k", eta_init=(1e300, 0.02)))
    with pytest.raises(InputError, match="t=1"):
        det.step(0.0)
    assert det.rl.t == 0
    assert det.params == []


def _assert_same_step(a, b):
    # Every StepOutput field, the arrays' dtypes, shapes and bytes included.
    for f in dataclasses.fields(a):
        got, want = getattr(a, f.name), getattr(b, f.name)
        if f.name == "rl_posterior":
            pairs = zip(got, want)
        elif f.name == "responsibilities":
            pairs = [(got, want)]
        else:
            assert type(got) is type(want) and got == want, f.name
            continue
        for g, w in pairs:
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), f.name


@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
@pytest.mark.parametrize(
    "prune",
    [PrunePolicy(), PrunePolicy.threshold(1e-10), PrunePolicy.top_m(5)],
    ids=["none", "threshold", "top-m"],
)
def test_detector_resumes_from_a_copy_of_its_model_and_state(mode, prune):
    # A fresh detector given a copy of a detector's model and its trellis
    # state goes on step for step as the uninterrupted one: t, the last MAP
    # run length and the baseline's hypothesis table live in the state.
    series, _, _ = _two_segment_series(seed=4, n=150)
    cfg = DetectorConfig(mode=mode, prune=prune)
    det = Detector(cfg)
    for x in series[:150]:
        det.step(x)
    resumed = Detector(cfg)
    resumed.model, resumed.rl = copy.deepcopy(det.model), det.rl
    assert resumed.rl.t == det.rl.t == 150
    for x in series[150:]:
        _assert_same_step(resumed.step(x), det.step(x))
        assert resumed.rl.t == det.rl.t
    assert sorted(vars(resumed)) == ["cfg", "model", "rl"]


_VALUES = st.one_of(
    st.randoms(use_true_random=False).map(lambda r: r.gauss(0.0, 1.0)),
    st.builds(
        lambda sign, u: sign * 10.0**u,
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=-300.0, max_value=300.0),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["infinite", "fixed-k", "baseline"]),
    prune=st.sampled_from([PrunePolicy(), PrunePolicy.threshold(1e-10), PrunePolicy.top_m(5)]),
    lam=st.sampled_from([1.0, 2.0, 1e6, 1e300]),
    values=st.lists(_VALUES, max_size=40),
)
def test_a_refused_observation_changes_nothing(mode, prune, lam, values):
    # predict is the one call of a step that may refuse an observation, and
    # it leaves the model as it was; the trellis step after it cannot fail.
    # So a detector that was refused some values goes on as one that never
    # saw them, and nothing but InputError leaves a step.
    cfg = DetectorConfig(mode=mode, prune=prune, hazard=HazardConfig(lam))
    a, b = Detector(cfg), Detector(cfg)
    for x in values:
        try:
            got = a.step(x)
        except InputError:
            continue
        _assert_same_step(got, b.step(x))
    assert a.rl.t == b.rl.t


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


_NOT_REAL = {"10**400": 10**400, "None": None, "[1.0]": [1.0], "array": np.array([1.0, 2.0]), "'x'": "x"}


@pytest.mark.parametrize("x", _NOT_REAL.values(), ids=_NOT_REAL.keys())
def test_observation_that_is_not_a_real_number_is_input_error(x):
    # Each raised a raw OverflowError, TypeError or ValueError.
    det = Detector(DetectorConfig())
    det.step(0.5)
    with pytest.raises(InputError, match="observation at t=2 is not a real number"):
        det.step(x)
    assert det.rl.t == 1
    assert det.step(0.5).t == 2


@pytest.mark.parametrize(
    "series", [[1.0, 10**400], ["1", "x"], [[1.0], [2.0, 3.0]]], ids=["10**400", "'x'", "ragged"]
)
def test_series_that_is_not_real_numbers_is_input_error(series):
    with pytest.raises(InputError, match="series is not an array of real numbers"):
        run(series, DetectorConfig())


def test_empty_series_rejected():
    with pytest.raises(ContractViolation):
        run([], DetectorConfig())


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 1, 2)])
def test_series_of_more_than_one_axis_is_refused(shape):
    # run([[0, 5], [0.1, 5.1]]) read its values in row order, as 4 steps.
    series = np.arange(math.prod(shape), dtype=float).reshape(shape)
    with pytest.raises(ContractViolation, match=rf"shape \({shape[0]}, "):
        run(series, DetectorConfig())


def test_series_of_one_axis_reads_in_any_of_its_shapes():
    x = np.array([0.0, 0.3, 5.0, 5.2, 0.1])
    want = [(s.z_star, s.r_star) for s in run(x, DetectorConfig()).steps]
    for shape in [(5, 1), (1, 5), (1, 5, 1)]:
        got = run(x.reshape(shape), DetectorConfig()).steps
        assert [(s.z_star, s.r_star) for s in got] == want


def test_length_one_series():
    res = run([1.5], DetectorConfig())
    assert len(res.steps) == 1 and res.final_k == 1


def test_mass_near_zero_rule_end_to_end():
    series, cps, _ = _two_segment_series(seed=4)
    rule = ChangePointRule(mode="mass-near-zero", mass_window=3, mass_threshold=0.5)
    res = run(series, _quiet_config(cp_rule=rule, seed=4))
    assert res.change_points, "expected at least one flagged step"
    assert min(abs(t - cps[0]) for t in res.change_points) <= 10


@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
@pytest.mark.parametrize(
    "prune",
    [PrunePolicy(), PrunePolicy.threshold(1e-10), PrunePolicy.top_m(100), PrunePolicy.top_m(1)],
    ids=["none", "threshold", "top-m-100", "top-m-1"],
)
def test_mass_near_zero_rule_is_quiet_on_a_stationary_series(mode, prune):
    # While every live run length lies inside the window, the mass on them
    # is 1 whatever the data say, so the rule waits for a longer one: a
    # stationary series flags nothing, its first steps included.
    series = np.random.default_rng(0).normal(0.0, 1.0, 300)
    rule = ChangePointRule(mode="mass-near-zero", mass_window=5)
    res = run(series, DetectorConfig(mode=mode, prune=prune, cp_rule=rule))
    assert res.change_points == []


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
    step = detector.recursion_step

    def capture(*args):
        out = step(*args)
        _, runs, posterior, i_min = out
        assert posterior[i_min] == posterior.min()
        full.append((runs, posterior))
        return out

    monkeypatch.setattr(detector, "recursion_step", capture)
    # A shared dense table longer than the series, so it is not rebuilt
    # during the runs.
    table = np.arange(4 * _READOUT_SERIES.size, dtype=np.int64)
    table.setflags(False)
    monkeypatch.setattr(runlength, "_DENSE", table)
    branches = set()
    for policy in (PrunePolicy(), PrunePolicy.threshold(1e-10), PrunePolicy.top_m(20)):
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
    # A learning-rate pair of another length failed only at the first step
    # (IndexError; TypeError in fixed-k) or had its extra rates ignored, and
    # a string such as "no" turned the log-space update on.
    for eta in ((1.0,), (1.0, 0.02, 3.0), [1.0, 0.02], 1.0):
        with pytest.raises(ConfigError):
            DetectorConfig(eta_init=eta)
    for flag in ("no", "false", 1, None):
        with pytest.raises(ConfigError):
            DetectorConfig(log_var_update=flag)
    assert DetectorConfig(log_var_update=np.bool_(True)).log_var_update
    # A baseline prior scale 2 b0 (kappa0 + 1) / kappa0 that would overflow
    # is outside the fields' bounds.
    for kw in ({"b": 1e308}, {"kappa": 5e-324}):
        with pytest.raises(ConfigError):
            Detector(DetectorConfig(mode="baseline", baseline=NigParams(**kw)))


@pytest.mark.parametrize("k", [np.int64(3), np.int32(3), np.uint8(3), 3])
def test_numpy_integer_counts_are_accepted(k):
    series = np.random.default_rng(1).normal(0.0, 1.0, 30)
    cfg = DetectorConfig(mode="fixed-k", k_fixed=k, prune=PrunePolicy.top_m(k))
    res = run(series, cfg)
    want = run(series, DetectorConfig(mode="fixed-k", k_fixed=3, prune=PrunePolicy.top_m(3)))
    assert res.final_k == 3
    assert _trace_sha256(res) == _trace_sha256(want)


@pytest.mark.parametrize(
    "mode, conc",
    [pytest.param("infinite", a, id=str(a)) for a in (0.5, 1.0, 3.0)]
    + [pytest.param("fixed-k", b, id=f"fixed-k-{b}") for b in (0.5, 1.0, 3.0)],
)
@pytest.mark.parametrize("prune", [PrunePolicy(), PrunePolicy.top_m(20)])
def test_infinite_window_predictive_while_numerator_table_grows(mode, conc, prune, monkeypatch):
    # Each latent model's ledger keeps its numerator and denominator tables
    # shorter than the run at first and doubles them together; every
    # step's window predictive equals the formula written out, over every
    # run length (unpruned, read by slices) and over a sparse set of them
    # (top-m, read by gathers once pruning starts). The window counts come
    # from a ledger the test keeps and queries without the dense path.
    k_fixed = 4
    if mode == "infinite":
        cfg = DetectorConfig(alpha=conc, prune=prune)
    else:
        cfg = DetectorConfig(mode=mode, k_fixed=k_fixed, dirichlet_beta=conc, prune=prune)
    calls = []
    ledger = LabelCounts()
    window_predictive = LabelCounts.window_predictive

    def checked(self, k, runs, dense=False):
        got = window_predictive(self, k, runs, dense)
        w = ledger._window_counts(k, runs, dense=False)[0]
        if mode == "infinite":
            want = np.where(w > 0, w, conc) / (runs + conc)
        else:
            want = (w + conc) / (runs + k_fixed * conc)
        np.testing.assert_array_equal(got, want)
        if dense:
            np.testing.assert_array_equal(runs, np.arange(runs.size))
        assert self._den.size == self._num.size
        calls.append((k, self._num.size, dense))
        return got

    monkeypatch.setattr(LabelCounts, "window_predictive", checked)
    series, _, _ = _two_segment_series(seed=3, jump=6.0, n=150)
    det = Detector(cfg)
    for x in series:
        z = det.step(x).z_star
        assert calls[-1][0] == z
        ledger.record(z)
    sizes, dense = [c[1] for c in calls], [c[2] for c in calls]
    assert len(sizes) == 300
    if not (prune.epsilon or prune.max_live):  # run lengths reach 299
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
    # same window counts, CRP and Dirichlet window predictives, baseline
    # predictives and next-state run lengths, bit for bit, on the hypotheses
    # they share.
    t = len(labels)
    n = data.draw(st.integers(min_value=3, max_value=t + 1))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    keep[[0, -1]] = True
    keep[data.draw(st.integers(min_value=1, max_value=n - 2))] = False
    dense = np.arange(n)
    sparse = dense[keep]
    rng = np.random.default_rng(t)
    lw = rng.normal(0.0, 1.0, n)
    full = RunLengthState(dense, lw, t, logsumexp(lw))
    pruned = RunLengthState(sparse, lw[keep], t, logsumexp(lw[keep]))
    assert full.dense and not pruned.dense

    k_max = max(labels) + 1
    rules = crp_rule(alpha), dirichlet_rule(k_max, alpha)
    for k in range(1, k_max + 1):
        want = [labels[t - r :].count(k) for r in dense]
        # hot: counts rebuilt by this query, or kept from one before
        for hot, rule in itertools.product((False, True), rules):
            lc = LabelCounts(**rule)
            for z in labels:
                lc.record(z)
            if hot:
                lc._window_counts(k, np.arange(t + 1), dense=False)
            w = lc._window_counts(k, dense, dense=True)[0]
            np.testing.assert_array_equal(w, want)
            w_sparse = lc._window_counts(k, sparse, dense=False)[0]
            np.testing.assert_array_equal(w_sparse, w[keep])
            p = lc.window_predictive(k, dense, dense=True)
            np.testing.assert_array_equal(lc.window_predictive(k, dense), p)
            np.testing.assert_array_equal(lc.window_predictive(k, sparse), p[keep])

    live = np.vstack([rng.normal(0.0, 3.0, n), rng.uniform(0.5, 4.0, n)])
    x = data.draw(st.floats(min_value=-10.0, max_value=10.0))
    a = BaselineModel(DetectorConfig(mode="baseline"))
    b = BaselineModel(DetectorConfig(mode="baseline"))
    a_out = a.predict(x, RunLengthState(dense, lw, t, full.evidence_log, live))
    b_out = b.predict(x, RunLengthState(sparse, lw[keep], t, pruned.evidence_log, live[:, keep]))
    log_psi = a_out[0]
    np.testing.assert_array_equal(b_out[0], log_psi[keep])
    np.testing.assert_array_equal(b_out[4], a_out[4][:, np.r_[True, keep]])

    hazard = HazardConfig(50.0)
    grown = recursion_step(full, log_psi, hazard)[1]
    regrown = recursion_step(pruned, log_psi[keep], hazard)[1]
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


def _dirichlet_predictive(w, r, k_fixed, beta):
    """The Dirichlet window predictive of class 1 seen w times among the
    last r labels, the others class 2."""
    lc = LabelCounts(**dirichlet_rule(k_fixed, beta))
    for z in [2] * (r - w) + [1] * w:
        lc.record(z)
    return lc.window_predictive(1, np.array([r]))[0]


def test_fixed_k_run_predictive_uniform_at_empty_window():
    assert _dirichlet_predictive(0, 0, 3, 1.0) == pytest.approx(1 / 3)


def test_fixed_k_run_predictive_window_counts():
    got = [_dirichlet_predictive(w, 3, 3, 1.0) for w in [2, 1, 0]]
    np.testing.assert_allclose(got, [3 / 6, 2 / 6, 1 / 6])


def test_fixed_k_run_predictive_normalizes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        kf = int(rng.integers(2, 8))
        counts = rng.integers(0, 10, kf)
        r = int(counts.sum())
        beta = float(rng.uniform(0.1, 3.0))
        total = sum(_dirichlet_predictive(int(w), r, kf, beta) for w in counts)
        assert total == pytest.approx(1.0, rel=1e-12)


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
    # read without stepping the detector.
    return det.model.predict(x, det.rl)[0]


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
    rl, live = det.rl, det.rl.columns
    with pytest.raises(InputError, match=f"t={len(series)}"):
        det.step(series[-1])
    assert det.rl.t == len(series) - 1 and det.rl is rl and det.rl.columns is live
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
    assert det.rl.t == len(series) + 20
    assert np.all(np.isfinite(det.rl.log_weights))
    assert np.all(np.isfinite(det.rl.columns))


def test_baseline_column_near_overflow_refuses_later_observations():
    # Known limit, pinned until overflow-safe residuals land: unpruned, the
    # column that absorbed 1e154 three times keeps B near 1e308, so B + d^2
    # overflows there for every later ordinary value, which is refused with
    # the detector left as it was.
    det = Detector(DetectorConfig(mode="baseline"))
    for x in [0.0, 1e154, 1e154, 1e154]:
        det.step(x)
    rl, live = det.rl, det.rl.columns
    for x in np.random.default_rng(0).normal(0.0, 1.0, 5):
        with pytest.raises(InputError, match="t=5"):
            det.step(x)
        assert det.rl.t == 4 and det.rl is rl and det.rl.columns is live
    assert np.all(np.isfinite(live))


@pytest.mark.parametrize("a0", [0.3, 1.0, 2.5, 300.0, 1e4, 1e13, 1e16, 1e150])
def test_lgamma_term_recurrence_matches_mpmath(a0):
    # c_r = D_r - log(pi)/2 with D_r = lgamma(a_r + 1/2) - lgamma(a_r) is
    # carried by D(a + 1/2) = log(a) - D(a) from the prior's seed; checked
    # up to r = 1e4 at 50 digits more than a0 has before its point, so that
    # a_r + 1/2 is exact.
    mpmath.mp.dps = 50 + max(0, math.ceil(math.log10(a0)))
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
    monkeypatch.setattr(nig, "_TABLE_CAP", 256)
    mpmath.mp.dps = 40
    series = np.random.default_rng(256).normal(0.5, 2.0, 700)
    det = Detector(DetectorConfig(mode="baseline", baseline=NigParams(kappa=0.3, a=0.3)))
    for x in series:
        det.step(x)
    assert det.model.nig.rows.shape == (4, 256)
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
    _check_baseline_predictives(PrunePolicy())


@pytest.mark.parametrize(
    "policy", [PrunePolicy.threshold(1e-10), PrunePolicy.top_m(20)], ids=["threshold", "top-m"]
)
def test_baseline_hypothesis_predictive_matches_student_t_pruned(policy):
    # Top-m is the only policy that leaves survivors that are not
    # contiguous, so a prune that misaligns the state's columns with its
    # run lengths fails its case.
    _check_baseline_predictives(policy)


@pytest.mark.parametrize("kappa0", [1e-10, 1e-17])
def test_baseline_hypothesis_predictive_matches_student_t_tiny_kappa0(kappa0):
    # rho_0 is about 2 kappa0 here: a form that loses its digits to
    # cancellation (or rounds it to 0, so that B = 0 at t = 2) fails.
    _check_baseline_predictives(PrunePolicy(), NigParams(kappa=kappa0))


@st.composite
def _mixed_series(draw, max_len=150):
    # Up to max_len values in segments at scales 0 (repeated values) to 1e3
    # around means up to 1e3.
    segments = draw(
        st.lists(
            st.tuples(
                st.integers(1, 60), st.floats(-1e3, 1e3), st.sampled_from([0.0, 1e-3, 1.0, 1e3])
            ),
            min_size=1,
            max_size=6,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.concatenate([mu + scale * rng.normal(size=n) for n, mu, scale in segments])
    return xs[: draw(st.integers(1, max_len))].tolist()


def _prunes(n):
    # No prune, a threshold in 1e-300..0.5, or top-m for m in 1..n+2. Half
    # the thresholds are drawn from 1e-12..0.5: log-uniform over the whole
    # range, only about 3% lie above 1e-10, and almost none of those drop
    # an entry, so a prune that misplaces its cut would seldom show.
    log10_eps = st.one_of(st.floats(-300.0, math.log10(0.5)), st.floats(-12.0, math.log10(0.5)))
    return st.one_of(
        st.just(PrunePolicy()),
        log10_eps.map(lambda u: PrunePolicy.threshold(10.0**u)),
        st.integers(1, n + 2).map(PrunePolicy.top_m),
    )


def _near(p, q):
    # Within a relative 1e-12 of each other, and not both 0.
    return 0.0 < max(p, q) and abs(p - q) <= 1e-12 * max(p, q)


@settings(max_examples=80, deadline=None)
@given(series=_mixed_series(), data=st.data())
def test_baseline_steps_match_the_reference_detector(series, data):
    # Every step of a baseline detector against tests/reference.py's plain
    # one: the MAP run length, the flag and the kept run lengths exactly,
    # the shown posterior and the evidence to 1e-9. A step where the top
    # two posterior entries, or an entry and the prune's cut, or the rule's
    # mass and its threshold, lie within 1e-12 ends the example unjudged:
    # rounding may break such a tie either way. With the table's cap
    # lowered to 16, the rows of run lengths from 64 up (past the first
    # table) are the past-cap rows.
    prune = data.draw(_prunes(len(series)))
    prior = NigParams(
        mu=data.draw(st.floats(-10.0, 10.0)),
        kappa=10.0 ** data.draw(st.floats(-3.0, 3.0)),
        a=data.draw(st.floats(0.1, 100.0)),
        b=10.0 ** data.draw(st.floats(-3.0, 3.0)),
    )
    rule = data.draw(
        st.sampled_from([ChangePointRule(), ChangePointRule("mass-near-zero", mass_window=5)])
    )
    lam = data.draw(st.sampled_from([3.0, 100.0, 1e6]))
    cfg = DetectorConfig(
        mode="baseline", prune=prune, baseline=prior, cp_rule=rule, hazard=HazardConfig(lam)
    )
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(nig, "_TABLE_CAP", 16)
        det, ref = Detector(cfg), BaselineReference(cfg)
        for x in series:
            out = det.step(x)
            _check_trellis_step(det, out, ref, ref.step(x), assume)


def _check_trellis_step(det, out, ref, want, judge):
    """A detector's step ``out`` against the reference's ``want``, ``(r_star,
    cp_flag, posterior, evidence_log)``: the MAP run length, the flag and
    the kept run lengths exactly, the shown posterior and the evidence to
    1e-9. A near-tie (see :func:`_near`) at the MAP, at the prune's cut or
    at the rule's threshold is passed to ``judge`` as False first, which
    may end the step unjudged. Returns the reference's posterior."""
    r_star, cp_flag, posterior, evidence = want
    prune, rule = det.cfg.prune, det.cfg.cp_rule
    probs = sorted(posterior.values(), reverse=True) + [0.0]
    mass = sum(p for r, p in posterior.items() if r <= rule.mass_window)
    m = prune.max_live
    judge(
        not _near(probs[0], probs[1])
        and not any(_near(p, prune.epsilon) for p in probs)
        and not (0 < m < len(posterior) and _near(probs[m - 1], probs[m]))
        and not _near(mass, rule.mass_threshold)
    )
    assert (out.r_star, out.cp_flag) == (r_star, cp_flag)
    assert det.rl.run_lengths.tolist() == [r for r, _, _ in ref.hyps]
    shown = dict(zip(out.rl_posterior.runs.tolist(), out.rl_posterior.probs.tolist()))
    assert shown.keys() <= posterior.keys()
    for r, p in posterior.items():
        assert abs(shown.get(r, 0.0) - p) <= 1e-9, r
    assert abs(det.rl.evidence_log - evidence) <= 1e-9
    return posterior


def _check_latent_step(det, ref, x, judge):
    """One step of a latent detector against the reference: the label, the
    class count and the responsibilities exactly, then the trellis as
    :func:`_check_trellis_step` checks it. An observation the reference
    refuses must be refused by the detector too."""
    try:
        z_star, k_t, resp, *want = ref.step(x)
    except FloatingPointError:
        with pytest.raises(InputError):
            det.step(x)
        return {}
    out = det.step(x)
    assert (out.z_star, out.k_t) == (z_star, k_t)
    assert out.responsibilities.tolist() == resp
    return _check_trellis_step(det, out, ref, want, judge)


@settings(max_examples=100, deadline=None)
@given(series=_mixed_series(200), data=st.data())
def test_latent_steps_match_the_reference_detector(series, data):
    # Every step of a latent detector against tests/reference.py's plain
    # one, which shares only the class table and the emission functions:
    # its class prior comes from a Counter, its window counts from scanning
    # the label list, and its trellis, prune and rule are written out on
    # Python floats. A near-tie ends the example unjudged, as in the
    # baseline's property.
    rules = [ChangePointRule(), ChangePointRule("mass-near-zero", mass_window=5)]
    cfg = DetectorConfig(
        mode=data.draw(st.sampled_from(["infinite", "fixed-k"])),
        alpha=data.draw(st.floats(0.2, 1.0)),
        k_fixed=data.draw(st.integers(1, 12)),
        dirichlet_beta=data.draw(st.floats(0.1, 3.0)),
        hazard=HazardConfig(data.draw(st.sampled_from([3.0, 100.0, 1e6]))),
        log_var_update=data.draw(st.booleans()),
        prune=data.draw(_prunes(len(series))),
        cp_rule=data.draw(st.sampled_from(rules)),
    )
    det, ref = Detector(cfg), LatentReference(cfg)
    for x in series:
        _check_latent_step(det, ref, x, assume)


def _judged(ok):
    assert ok, "a near-tie in a fixed case: choose another series"


@pytest.mark.parametrize("mode", ["infinite", "fixed-k"])
@pytest.mark.parametrize(
    "prune", [PrunePolicy(), PrunePolicy.threshold(1e-4)], ids=["none", "threshold"]
)
def test_latent_long_run_matches_the_reference_detector(mode, prune, monkeypatch):
    # 640 steps. Unpruned, the shared dense run lengths, the ledger's label
    # buffer and its num(w) and r + c tables each double from 64 to 1024
    # along the way, while every step reads them by slices. Under the
    # threshold, most steps drop the young hypotheses and keep the oldest.
    small = np.arange(64, dtype=np.int64)
    small.setflags(False)
    monkeypatch.setattr(runlength, "_DENSE", small)
    segs = [SegmentSpec(160, mu, 1.0, i) for i, mu in [(1, 0.0), (2, 6.0), (1, 0.0), (3, -5.0)]]
    series, _, _ = gen_piecewise_gaussian(segs, 5)
    cfg = DetectorConfig(
        mode=mode, alpha=0.5, candidate=CandidatePolicy(var_init=2.0), prune=prune
    )
    det, ref = Detector(cfg), LatentReference(cfg)
    for x in series.tolist():
        _check_latent_step(det, ref, x, _judged)
    if not (prune.epsilon or prune.max_live):
        assert det.model.counts._den.size == 1024 and runlength._DENSE.size == 1024


@pytest.mark.parametrize("mode", ["infinite", "fixed-k"])
@pytest.mark.parametrize("m, lam", [(1, 2.0), (4, 1e308)], ids=["top-1", "top-4"])
def test_latent_top_m_with_tied_posterior_entries_matches_the_reference(mode, m, lam):
    # Repeated values under top-m, at hazards that make the entries at its
    # cut tie exactly, so its steady state must drop the last of the tied
    # minima, as a stable sort does. At h = 1/2, log h == log(1 - h), and
    # the reset ties with run length 1 while one hypothesis is kept. At
    # h = 1e-308 every hypothesis but the oldest lies more than 708.4 below
    # it, so their posterior entries are all exactly 0.
    series = [2.0] * 40 + [-1.0] * 40
    cfg = DetectorConfig(
        mode=mode, k_fixed=4, hazard=HazardConfig(lam), prune=PrunePolicy.top_m(m)
    )
    det, ref = Detector(cfg), LatentReference(cfg)
    ties = 0
    for x in series:
        posterior = _check_latent_step(det, ref, x, lambda ok: None)
        probs = sorted(posterior.values(), reverse=True)
        ties += len(probs) > m and probs[m - 1] == probs[m]
    assert ties >= 30


def test_fixed_k_offsets_match_ndtri():
    for k in range(1, 200):
        got = np.array(_fixed_k_offsets(k))
        want = ndtri(np.arange(1, k + 1) / (k + 1.0))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_nig_validation():
    with pytest.raises(ConfigError):
        NigParams(kappa=0.0)


# -- config bounds ------------------------------------------------------------


@pytest.mark.parametrize(
    "cls, kw",
    [
        # Each was accepted and then refused every observation, or refused
        # by Detector(cfg) with no field to name.
        (CandidatePolicy, {"var_init": 9.5e153}),
        (CandidatePolicy, {"mu0": 1e200}),
        (NigParams, {"mu": 1.34e154}),
        (NigParams, {"kappa": 9e307}),
        (NigParams, {"a": 1e200}),
        (DetectorConfig, {"var_floor": 1e-150}),
        (DetectorConfig, {"var_floor": 1e200}),
        (DetectorConfig, {"mode": "fixed-k", "k_fixed": 10**7}),
        (DetectorConfig, {"mode": "fixed-k", "dirichlet_beta": 1e300}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(f"{k}={x}" for k, x in v.items()),
)
def test_values_the_models_cannot_take_are_refused_by_their_field(cls, kw):
    field = list(kw)[-1]
    with pytest.raises(ConfigError, match=rf"^{cls.__name__}\.{field} must be "):
        cls(**kw)


@pytest.mark.parametrize("prior", [{"mu": 10.0}, {"mu": 2.2e98, "kappa": 9e15}])
def test_largest_a0_steps_a_long_stream(prior):
    # At a0 = 9e304 these priors made every joint weight vanish, at t = 614
    # and t = 5, as the trellis summed log densities of about -a0 per step.
    baseline = NigParams(a=1e150, **prior)
    det = Detector(DetectorConfig(mode="baseline", baseline=baseline, prune=PrunePolicy.top_m(1)))
    for _ in range(3000):
        det.step(0.0)
    assert det.rl.t == 3000


@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
def test_extreme_configs_in_range_step_ordinary_values(mode):
    # Every field at the end of its range that the models find hardest.
    # At var_floor = var_init = 1e-150 a fixed-k detector stepped 0.0 and
    # then refused 0.0, 0.0, 1.0 and -1.0.
    for kw in (
        {"var_floor": 1e-100, "candidate": CandidatePolicy(var_init=1e-100)},
        {"var_floor": 1e150, "candidate": CandidatePolicy(var_init=1e150)},
        {"candidate": CandidatePolicy(var_init=1e150)},
        {"k_fixed": 1, "dirichlet_beta": 1e150},
        {"baseline": NigParams(mu=1e150, kappa=1e-150, b=1e150)},
        {"baseline": NigParams(mu=-1e150, kappa=1e150, b=1e150)},
    ):
        det = Detector(DetectorConfig(mode=mode, **kw))
        for x in (0.0, 0.0, 0.0, 1.0, -1.0):
            det.step(x)
        assert det.rl.t == 5


_RULE_ENDS = {
    "infinite": [{"alpha": 5e-324}, {"alpha": 1e308}],
    "fixed-k": [{"k_fixed": 1, "dirichlet_beta": 5e-324}, {"k_fixed": 300, "dirichlet_beta": 1e150}],
    "baseline": [
        {"baseline": NigParams(kappa=1e-150, a=1e150, b=5e-324)},
        {"baseline": NigParams(mu=1e150, kappa=1e150, a=5e-324, b=1e150)},
    ],
}


@pytest.mark.parametrize("prune", [PrunePolicy(), PrunePolicy.threshold(0.5), PrunePolicy.top_m(1)])
@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
def test_no_step_reaches_the_trellis_failure_path(mode, prune):
    # recursion_step refuses a step whose weights sum to 0 or overflow (it
    # raised DegenerateStateError for the former). A detector never asks
    # it: run length 0's weight, log h + log_psi[0] + evidence, is finite,
    # since entry 0 of a latent log predictive is the log of a value in
    # (0, 1], the baseline's is finite, and so is the evidence. Here, at the
    # ends of the hazard's range and of each model's rule, on ordinary and
    # extreme observations, every step returns or refuses its observation
    # as an InputError, and each state keeps that weight and its evidence
    # finite.
    for lam, kw in itertools.product((1.0, 1e308), _RULE_ENDS[mode]):
        det = Detector(DetectorConfig(mode=mode, hazard=HazardConfig(lam), prune=prune, **kw))
        for x in (0.0, 1.0, -1.0, 1e-300, 5.0, 0.5, 2.0, 1e100, 1e154, -1e154):
            with contextlib.suppress(InputError):
                det.step(x)
            assert math.isfinite(det.rl.log_weights[0]) and math.isfinite(det.rl.evidence_log)
        assert det.rl.t > 0


# -- known defects --------------------------------------------------------------
# Each is a strict xfail: it fails on an assertion today, and the fix its
# ROADMAP item names makes it pass, which the strict mark reports until the
# mark is taken off.


def _refused(det, xs) -> int:
    n = 0
    for x in xs:
        try:
            det.step(x)
        except InputError:
            n += 1
    return n


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: after 1e200 at t=1 every N(0, 1) value is refused",
)
@pytest.mark.parametrize("mode", ["infinite", "fixed-k"])
def test_ordinary_values_step_after_a_huge_first_observation(mode):
    det = Detector(DetectorConfig(mode=mode))
    det.step(1e200)
    # Today all 20 are refused.
    assert _refused(det, np.random.default_rng(0).normal(0.0, 1.0, 20)) == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: a candidate at mu0=1e150 blows the class variance up to 1e298",
)
def test_candidate_at_the_largest_mu0_keeps_stepping():
    # The first class starts at 1e150, so 0.0 moves its variance to about
    # 1e298, where the gradient's 2 var^2 overflows: 1.0 and -1.0 are
    # refused today.
    det = Detector(DetectorConfig(candidate=CandidatePolicy(mu0=1e150)))
    assert _refused(det, [0.0, 1.0, -1.0]) == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: at alpha > 1 infinite opens one class per sample",
)
@pytest.mark.parametrize("seed", [0, 3])
def test_alpha_two_infers_few_classes_and_the_change(seed):
    # At alpha = 1 the same series ends with K = 12 or 13 and a change
    # flagged at t = 153; at alpha = 2 today, K = 300 and nothing is flagged.
    rng = np.random.default_rng(seed)
    series = np.concatenate([rng.normal(0.0, 1.0, 150), rng.normal(6.0, 1.0, 150)])
    res = run(series, DetectorConfig(alpha=2.0))
    assert res.final_k < 150
    assert any(abs(t - 150) <= 10 for t in res.change_points)
