import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from streamcpd import (
    ChangePointRule,
    ConfigError,
    ContractViolation,
    DegenerateStateError,
    HazardConfig,
    PrunePolicy,
    RunLengthState,
    normalize_posterior,
    prune,
    recursion_step,
)

from streamcpd.oracles import brute_force_joint
from streamcpd.runlength import _TINY, logsumexp

from conftest import random_canonical_labels, trellis_joint


def _log(psi):
    """A predictive in the log domain ``recursion_step`` takes: log 0 is
    -inf, and the log of a negative value is NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(np.asarray(psi, dtype=float))


# -- log-sum-exp ---------------------------------------------------------


@given(
    st.lists(
        st.one_of(
            st.just(-math.inf),
            st.floats(min_value=-1e300, max_value=1e300),
            # Close enough to 0 that both sides of the -708.4 cut are drawn.
            st.floats(min_value=-1500.0, max_value=10.0),
        ),
        min_size=1,
        max_size=40,
    )
)
@example([0.0, -1.0, -700.0])  # no entry below the cut
@example([0.0, -720.0, -1e4, -math.inf])  # entries in and below the subnormal band
def test_logsumexp_matches_scipy(values):
    a = np.array(values)
    got, want = logsumexp(a), float(scipy_logsumexp(a))
    if want == -math.inf:
        assert got == -math.inf
    else:
        # The absolute floor covers results near zero, where rounding the
        # shifted sum at 1 leaves an absolute error of a few ulps.
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_logsumexp_cut_is_where_exp_leaves_the_normal_range():
    # Entries are masked when x - max < log(tiny): exp of the cut itself is
    # normal, exp of the next float below it is not.
    cut = math.log(_TINY)
    below = math.nextafter(cut, -math.inf)
    assert math.exp(cut) >= _TINY > math.exp(below)
    out = np.empty(2)
    logsumexp(np.array([0.0, cut]), out=out)
    assert out[1] == np.exp(cut) / (1.0 + np.exp(cut))
    logsumexp(np.array([0.0, below]), out=out)
    assert out[1] == 0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("far_tail", [True, False])
def test_logsumexp_masks_only_underflowing_weights(seed, far_tail):
    # Weights on both sides of the cut, in the subnormal band (-745, -708.4)
    # and, with far_tail, below it where exp is 0; with seed 0 the maximum
    # is exactly 0 and the cut itself and the float below it are drawn.
    rng = np.random.default_rng(seed)
    cut = math.log(_TINY)
    a = np.concatenate(
        [
            rng.uniform(-700.0, 0.0, 100),
            rng.uniform(-712.0, -705.0, 200),
            rng.uniform(-745.0, -708.4, 100),
            rng.uniform(-2000.0, -745.0, 100) if far_tail else [],
            [0.0, cut, math.nextafter(cut, -math.inf)],
            [-math.inf] if far_tail else [],
        ]
    )
    a = rng.permutation(a)
    if seed:
        a += rng.uniform(-50.0, 50.0)
    m = a.max()
    want_e = np.exp(a - m)
    want_total = want_e.sum()
    want = m + math.log(want_total)
    out = np.empty_like(a)
    assert logsumexp(a) == want
    assert logsumexp(a, i_min=a.argmin()) == want
    assert logsumexp(a, out=out) == want
    normal = want_e >= _TINY
    assert normal.sum() >= 150 and (~normal).sum() >= 150
    np.testing.assert_array_equal(out[normal], want_e[normal] / want_total)
    assert (out[~normal] == 0.0).all()


def test_logsumexp_all_neg_inf_is_neg_inf():
    assert logsumexp(np.full(3, -np.inf)) == -math.inf


@pytest.mark.parametrize("values", [[np.nan], [0.0, np.nan], [-np.inf, np.nan, 5.0]])
def test_logsumexp_propagates_nan(values):
    assert math.isnan(logsumexp(np.array(values)))


# -- hazard ------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, -1.0, 0.5, float("inf"), float("nan"), True, "100"])
def test_hazard_config_rejects_bad_lambda(lam):
    # True would read as lam = 1: a change at every step.
    with pytest.raises(ConfigError):
        HazardConfig(lam)


@pytest.mark.parametrize("lam", [100, 100.0, np.int64(100), np.float32(100.0), np.uint16(100)])
def test_hazard_config_accepts_real_numbers(lam):
    hazard = HazardConfig(lam).hazard
    assert type(hazard) is float and hazard == 0.01


# -- recursion ---------------------------------------------------------


def test_recursion_single_step_hand_computed():
    # h=0.5, psi=[0.5], psi_reset=1: reset 0.5*1*1, growth 0.5*0.5*1
    st_ = recursion_step(RunLengthState.initial(), _log([0.5]), HazardConfig(2.0))
    assert st_.t == 1
    assert list(st_.run_lengths) == [0, 1]
    np.testing.assert_allclose(np.exp(st_.log_weights), [0.5, 0.25], rtol=1e-14)
    assert st_.evidence_log == pytest.approx(math.log(0.75))


def test_recursion_no_hazard_limit_moves_mass_up():
    j = 3
    lw = np.full(6, -np.inf)
    lw[j] = 0.0
    state = RunLengthState(np.arange(6, dtype=np.int64), lw, t=5)
    out = recursion_step(state, _log(np.ones(6)), HazardConfig(1e12))
    post = normalize_posterior(out)
    assert out.run_lengths[np.argmax(post)] == j + 1
    assert post.max() == pytest.approx(1.0, abs=1e-11)


def test_recursion_matches_brute_force_small_cases():
    rng = np.random.default_rng(11)
    for _ in range(25):
        T = int(rng.integers(1, 9))
        labels = random_canonical_labels(rng, T)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        lam = float(rng.choice([2.0, 10.0, 1e6]))
        got, _ = trellis_joint(labels, alpha, lam)
        want = brute_force_joint(labels, alpha, lam)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_recursion_constant_psi_scales_total_mass():
    # with psi = c everywhere and psi_reset = 1, total mass becomes
    # c*(1-h)*total + h*total
    c, lam = 0.7, 5.0
    h = 1.0 / lam
    state = RunLengthState(
        np.arange(3, dtype=np.int64), np.log(np.array([0.2, 0.3, 0.5])), t=2
    )
    out = recursion_step(state, _log(np.full(3, c)), HazardConfig(lam))
    total = np.exp(out.log_weights).sum()
    assert total == pytest.approx(c * (1 - h) + h, rel=1e-12)


def test_recursion_length_mismatch():
    with pytest.raises(ContractViolation):
        recursion_step(RunLengthState.initial(), _log([0.5, 0.5]), HazardConfig(2.0))


def test_recursion_rejects_bad_psi():
    with pytest.raises(ContractViolation):
        recursion_step(RunLengthState.initial(), _log([-0.1]), HazardConfig(2.0))
    with pytest.raises(ContractViolation):
        recursion_step(RunLengthState.initial(), _log([np.nan]), HazardConfig(2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_recursion_rejects_bad_log_psi_on_a_vanished_hypothesis(bad):
    # +inf meets the -inf weight (inf - inf); NaN propagates.
    state = RunLengthState(np.arange(2, dtype=np.int64), np.array([0.0, -np.inf]), t=1)
    with pytest.raises(ContractViolation):
        recursion_step(state, np.array([0.0, bad]), HazardConfig(2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_recursion_rejects_bad_log_psi_when_growth_is_impossible(bad):
    # Hazard 1: the growth term is -inf, and +inf meets it (inf - inf).
    with pytest.raises(ContractViolation):
        recursion_step(RunLengthState.initial(), np.array([bad]), HazardConfig(1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_recursion_rejects_bad_log_psi_reset(bad):
    with pytest.raises(ContractViolation):
        recursion_step(RunLengthState.initial(), np.array([0.0]), HazardConfig(2.0), bad)


def test_recursion_accepts_zero_predictive():
    # log_psi = -inf (predictive 0): that hypothesis's growth gets no mass.
    out = recursion_step(RunLengthState.initial(), np.array([-np.inf]), HazardConfig(2.0))
    assert list(out.run_lengths) == [0, 1]
    assert out.log_weights[1] == -np.inf
    assert out.evidence_log == pytest.approx(math.log(0.5), abs=1e-15)
    np.testing.assert_array_equal(normalize_posterior(out), [1.0, 0.0])


def test_recursion_all_zero_mass_degenerates():
    with pytest.raises(DegenerateStateError):
        recursion_step(RunLengthState.initial(), _log([0.0]), HazardConfig(1.0), _log(0.0))


def test_support_is_full_range_before_pruning():
    state = RunLengthState.initial()
    for t in range(1, 8):
        state = recursion_step(state, _log(np.full(t, 0.5)), HazardConfig(3.0))
        assert list(state.run_lengths) == list(range(t + 1))


# -- normalization and MAP ---------------------------------------------


def test_normalize_simple():
    state = RunLengthState(np.arange(3, dtype=np.int64), np.log([1.0, 1.0, 2.0]), t=2)
    np.testing.assert_allclose(normalize_posterior(state), [0.25, 0.25, 0.5], rtol=1e-14)
    # input untouched
    np.testing.assert_allclose(state.log_weights, np.log([1.0, 1.0, 2.0]))


def test_normalize_is_memoized_and_read_only():
    state = RunLengthState(np.arange(3, dtype=np.int64), np.log([1.0, 1.0, 2.0]), t=2)
    post = normalize_posterior(state)
    assert normalize_posterior(state) is post
    assert not post.flags.writeable
    # prune reads the same posterior: memoized or not, the result is identical
    fresh = RunLengthState(state.run_lengths, state.log_weights, state.t)
    a, b = prune(state, PrunePolicy.top_m(2)), prune(fresh, PrunePolicy.top_m(2))
    np.testing.assert_array_equal(a.run_lengths, b.run_lengths)
    np.testing.assert_array_equal(a.log_weights, b.log_weights)


def test_normalize_single_hypothesis():
    state = RunLengthState(np.zeros(1, dtype=np.int64), np.log([5.0]), t=0)
    np.testing.assert_allclose(normalize_posterior(state), [1.0])


def test_normalize_extreme_log_weights():
    # frozen with mpmath: e/(1+e) = 0.73105857863000490...
    state = RunLengthState(np.arange(2, dtype=np.int64), np.array([-1000.0, -1001.0]), t=1)
    post = normalize_posterior(state)
    np.testing.assert_allclose(post, [0.7310585786300049, 0.2689414213699951], atol=1e-6)


def test_normalize_all_zero_raises():
    state = RunLengthState(np.arange(2, dtype=np.int64), np.full(2, -np.inf), t=1)
    with pytest.raises(DegenerateStateError):
        normalize_posterior(state)


@given(st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=40))
def test_normalize_sums_to_one(logs):
    state = RunLengthState(
        np.arange(len(logs), dtype=np.int64), np.array(logs), t=len(logs) - 1
    )
    assert normalize_posterior(state).sum() == pytest.approx(1.0, abs=1e-9)


def test_degenerate_hazard_one_forces_reset():
    state = RunLengthState.initial()
    for t in range(1, 6):
        state = recursion_step(state, _log(np.full(t, 0.5)), HazardConfig(1.0))
        post = normalize_posterior(state)
        assert state.run_lengths[post.argmax()] == 0


def test_huge_lambda_constant_psi_gives_full_run():
    state = RunLengthState.initial()
    for t in range(1, 51):
        state = recursion_step(state, _log(np.full(t, 0.7)), HazardConfig(1e9))
    post = normalize_posterior(state)
    assert state.run_lengths[post.argmax()] == 50


def test_log_domain_survives_long_runs():
    state = RunLengthState.initial()
    cfg = HazardConfig(1e6)
    rng = np.random.default_rng(0)
    for t in range(1, 2001):
        psi = rng.uniform(0.05, 1.0, t)
        state = recursion_step(state, _log(psi), cfg)
    assert np.all(np.isfinite(state.log_weights))
    assert math.isfinite(state.evidence_log)


# -- pruning ------------------------------------------------------------


def _spread_state(n=6):
    rng = np.random.default_rng(3)
    lw = np.log(rng.dirichlet(np.ones(n)))
    return RunLengthState(np.arange(n, dtype=np.int64), lw, t=n - 1)


def test_prune_none_is_identity():
    state = _spread_state()
    assert prune(state, PrunePolicy.none()) is state


def test_prune_threshold_drops_tiny_mass():
    lw = np.log(np.array([0.9999, 1e-6, 9.9e-5]))
    state = RunLengthState(np.arange(3, dtype=np.int64), lw, t=2)
    out = prune(state, PrunePolicy.threshold(1e-5))
    assert list(out.run_lengths) == [0, 2]
    # survivor posterior renormalized, total joint mass preserved
    assert normalize_posterior(out).sum() == pytest.approx(1.0, abs=1e-12)
    assert np.exp(out.log_weights).sum() == pytest.approx(np.exp(state.log_weights).sum())


def test_prune_never_drops_run_zero():
    lw = np.log(np.array([1e-12, 0.5, 0.5]))
    state = RunLengthState(np.arange(3, dtype=np.int64), lw, t=2)
    out = prune(state, PrunePolicy.threshold(1e-3))
    assert 0 in out.run_lengths


def test_prune_top_m():
    state = _spread_state(8)
    out = prune(state, PrunePolicy.top_m(3))
    assert len(out.run_lengths) <= 4  # top 3 plus possibly run 0
    assert 0 in out.run_lengths


def _top_m_by_sort(posterior, run_lengths, m):
    # The top-m keep mask by a stable sort: the m largest entries, ties to
    # the lower index, plus run length 0 at entry 0.
    keep = np.zeros(posterior.size, dtype=bool)
    keep[np.argsort(-posterior, kind="stable")[:m]] = True
    if run_lengths[0] == 0:
        keep[0] = True
    return keep


@given(
    st.lists(
        st.one_of(
            # Few distinct values, so ties are common; -inf and -800 give
            # posterior entries of exactly 0.
            st.sampled_from([-math.inf, -800.0, -3.0, -1.0, 0.0]),
            st.floats(min_value=-40.0, max_value=0.0),
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([0, 0, 0, -1, 1, 3]),
    st.sampled_from([0, 5]),
)
@example([-1.0, 0.0, 0.0], 0, 0)  # the minimum at index 0 is run length 0
@example([-1.0, 0.0, 0.0], 0, 5)  # the minimum at index 0 is not
@example([0.0, -2.0, -2.0, 0.0, -2.0], 0, 0)  # tied minima
@example([0.0, -math.inf, -math.inf, -800.0], 0, 0)  # exact zeros
@example([0.0, -2.0, -2.0, 0.0, -2.0], 1, 0)  # n = max_live + 2
def test_prune_top_m_matches_a_stable_sort(log_weights, extra, first_run):
    # ``extra`` is n - (max_live + 1): 0 is top-m's steady state, which
    # prune handles without a sort.
    lw = np.array(log_weights)
    assume(np.isfinite(lw).any())
    m = max(1, lw.size - 1 - extra)
    runs = np.arange(first_run, first_run + lw.size, dtype=np.int64)
    state = RunLengthState(runs, lw)
    posterior = normalize_posterior(state)
    keep = _top_m_by_sort(posterior, runs, m)
    out = prune(state, PrunePolicy.top_m(m))
    assert out.run_lengths.tolist() == runs[keep].tolist()
    want_lw = lw[keep] - math.log(float(posterior[keep].sum()))
    assert out.log_weights.tobytes() == want_lw.tobytes()
    assert out.evidence_log == state.evidence_log


def test_prune_keeps_evidence_when_survivor_mass_underflows():
    # 200 hypotheses at 1/200 each fall below the threshold, so only run 0
    # survives, and its posterior exp(-1000) underflows to zero.
    lw = np.concatenate(([-1000.0], np.zeros(200)))
    state = RunLengthState(np.arange(201, dtype=np.int64), lw, t=200)
    out = prune(state, PrunePolicy.threshold(0.01))
    assert list(out.run_lengths) == [0]
    assert out.evidence_log == state.evidence_log
    assert out.log_weights[0] == pytest.approx(state.evidence_log, abs=1e-12)


@pytest.mark.parametrize("policy", [PrunePolicy.threshold(1e-3), PrunePolicy.top_m(2)])
def test_prune_of_an_empty_state_is_a_contract_violation(policy):
    state = RunLengthState(np.zeros(0, dtype=np.int64), np.zeros(0), t=0, evidence_log=0.0)
    with pytest.raises(ContractViolation):
        prune(state, policy)


def test_prune_policy_validation():
    with pytest.raises(ContractViolation):
        PrunePolicy.top_m(0)
    # A count that is not an integer failed only at the first prune, with a
    # raw TypeError.
    for m in (2.5, 2.0, "3", True):
        with pytest.raises(ConfigError):
            PrunePolicy.top_m(m)
    with pytest.raises(ConfigError):
        PrunePolicy(kind="none", max_live=0.5)
    assert PrunePolicy.top_m(np.int64(3)).max_live == 3
    with pytest.raises(ConfigError):
        PrunePolicy.threshold(0.0)
    with pytest.raises(ConfigError):
        PrunePolicy(kind="banana")
    for stray in ({"epsilon": 0.5}, {"max_live": 5}):
        with pytest.raises(ConfigError):
            PrunePolicy(**stray)
    with pytest.raises(ConfigError):
        PrunePolicy(kind="top-m", max_live=5, epsilon=0.5)
    with pytest.raises(ConfigError):
        PrunePolicy(kind="threshold", epsilon=0.5, max_live=5)


# -- cached evidence ----------------------------------------------------


def _assert_evidence_consistent(state):
    want = float(scipy_logsumexp(state.log_weights))
    assert state.evidence_log == pytest.approx(want, rel=0, abs=1e-12)
    assert normalize_posterior(state).sum() == pytest.approx(1.0, rel=0, abs=1e-12)
    np.testing.assert_allclose(
        normalize_posterior(state), np.exp(state.log_weights - want), rtol=0, atol=1e-12
    )


def test_hand_built_state_computes_its_evidence():
    lw = np.log(np.array([0.1, 0.2, 0.3]))
    state = RunLengthState(np.arange(3, dtype=np.int64), lw, 2)
    assert state.evidence_log == pytest.approx(math.log(0.6), abs=1e-15)
    _assert_evidence_consistent(state)


_PSI = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0))
_POLICIES = [
    PrunePolicy.none(),
    PrunePolicy.threshold(1e-3),
    PrunePolicy.threshold(0.2),
    PrunePolicy.top_m(1),
    PrunePolicy.top_m(3),
]


@given(
    lam=st.floats(min_value=1.0, max_value=1e6),
    policies=st.lists(st.sampled_from(_POLICIES), min_size=1, max_size=30),
    data=st.data(),
)
def test_evidence_log_tracks_weights_through_recursion_and_pruning(lam, policies, data):
    cfg = HazardConfig(lam)
    state = RunLengthState.initial()
    for policy in policies:
        n = state.log_weights.size
        psi = np.array(data.draw(st.lists(_PSI, min_size=n, max_size=n)))
        psi_reset = data.draw(st.floats(min_value=1e-3, max_value=5.0))
        state = recursion_step(state, _log(psi), cfg, _log(psi_reset))
        _assert_evidence_consistent(state)
        state = prune(state, policy)
        _assert_evidence_consistent(state)


# -- change-point readout ----------------------------------------------


def _fired(rule, r_star_trace, posterior_trace=None):
    """The steps (0-based) at which the rule fires over a trace, called as
    Detector.step calls it: with the previous MAP run length, None at the
    first step."""
    posterior_trace = posterior_trace or [(None, None)] * len(r_star_trace)
    prev = [None] + r_star_trace[:-1]
    steps = zip(prev, r_star_trace, posterior_trace)
    return [i for i, (p, r, (runs, probs)) in enumerate(steps) if rule.fires(p, r, runs, probs)]


def test_detect_map_drop_single_reset():
    rule = ChangePointRule()
    assert _fired(rule, [0, 1, 2, 3, 0, 1, 2]) == [4]


def test_detect_monotone_growth_is_quiet():
    assert _fired(ChangePointRule(), [0, 1, 2, 3, 4, 5]) == []


def test_detect_jump_up_is_not_a_cp():
    assert _fired(ChangePointRule(), [0, 1, 2, 10, 11]) == []


def test_detect_mass_mode():
    rule = ChangePointRule(mode="mass-near-zero", mass_window=1, mass_threshold=0.6)
    posteriors = [
        (np.array([0, 4]), np.array([0.1, 0.9])),
        (np.array([0, 1, 5]), np.array([0.7, 0.1, 0.2])),
        (np.array([0, 1, 2, 6]), np.array([0.3, 0.35, 0.2, 0.15])),
    ]
    assert _fired(rule, [4, 0, 1], posteriors) == [1, 2]


def test_change_point_rule_validation():
    with pytest.raises(ConfigError):
        ChangePointRule(drop_fraction=0.0)
    with pytest.raises(ConfigError):
        ChangePointRule(mode="mass-near-zero", mass_threshold=1.0)
    with pytest.raises(ConfigError):
        ChangePointRule(mode="nope")


@pytest.mark.parametrize("window", [math.nan, math.inf, 2.5, -1, True])
def test_mass_window_must_be_a_non_negative_integer(window):
    # A NaN window would make the mass-near-zero rule never fire.
    with pytest.raises(ConfigError):
        ChangePointRule(mode="mass-near-zero", mass_window=window)
    assert ChangePointRule(mode="mass-near-zero", mass_window=np.int64(2)).mass_window == 2
