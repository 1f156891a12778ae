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
    Detector,
    DetectorConfig,
    HazardConfig,
    PrunePolicy,
)
from streamcpd import detector, runlength
from streamcpd.runlength import _TINY, RunLengthState, logsumexp, recursion_step

from conftest import random_canonical_labels, trellis_joint
from reference import brute_force_joint


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


@pytest.mark.parametrize("lam", [1, 1.0, 2.5, 1e6, np.float32(300.0)])
def test_hazard_config_caches_its_logs(lam):
    cfg = HazardConfig(lam)
    h = 1.0 / float(lam)
    assert cfg.log_hazard == math.log(h)
    assert cfg.log_survival == (math.log1p(-h) if h < 1.0 else -math.inf)
    assert cfg.log_hazard is cfg.log_hazard
    # The cache is not a field: equality and the hash ignore it.
    assert cfg == HazardConfig(lam) and hash(cfg) == hash(HazardConfig(lam))


# -- recursion ---------------------------------------------------------


def _state(runs, log_weights, t):
    """A hand-built state, with its evidence as ``recursion_step`` keeps it."""
    lw = np.asarray(log_weights, dtype=float)
    return RunLengthState(np.asarray(runs, dtype=np.int64), lw, t, logsumexp(lw))


_HZ = HazardConfig(5.0)


def _grown_to(log_weights, runs=None):
    """A state, its log predictives and its log reset predictive whose
    growth step under ``_HZ`` gives these grown weights, at these grown run
    lengths (default ``0..n-1``; entry 1 must be run length 1). Entries 1..
    are exact: ``log_psi + log(1-h)`` is exactly 0. Entry 0 is within
    rounding of its target."""
    g = np.asarray(log_weights, dtype=float)
    runs = np.arange(g.size) if runs is None else np.asarray(runs)
    state = _state(runs[1:] - 1, g[1:], int(runs[-1]) - 1)
    log_psi = np.full(g.size - 1, -float(_HZ.log_survival))
    return state, log_psi, g[0] - _HZ.log_hazard - state.evidence_log


def _prune_to(log_weights, policy, runs=None):
    """The grown run lengths and the state after pruning, of the growth
    step that gives these grown weights. The step's columns are the grown
    run lengths and their negatives, which the state must keep aligned
    with its run lengths, and it must carry the step's MAP run length."""
    state, log_psi, reset = _grown_to(log_weights, runs)
    grown = np.arange(len(log_weights)) if runs is None else np.asarray(runs)
    columns = np.vstack([grown, -grown])
    out, grown_runs, posterior, _ = recursion_step(state, log_psi, _HZ, reset, policy, columns)
    np.testing.assert_array_equal(out.columns, [out.run_lengths, -out.run_lengths])
    assert out.r_star == grown_runs[posterior.argmax()]
    return out, grown_runs


def test_recursion_single_step_hand_computed():
    # h=0.5, psi=[0.5], psi_reset=1: reset 0.5*1*1, growth 0.5*0.5*1
    st_, runs, posterior, i_min = recursion_step(
        RunLengthState.initial(), _log([0.5]), HazardConfig(2.0)
    )
    assert st_.t == 1
    assert list(st_.run_lengths) == [0, 1] and st_.run_lengths is runs
    np.testing.assert_allclose(np.exp(st_.log_weights), [0.5, 0.25], rtol=1e-14)
    assert st_.evidence_log == pytest.approx(math.log(0.75))
    np.testing.assert_allclose(posterior, [2 / 3, 1 / 3], rtol=1e-14)
    assert i_min == 1


def test_recursion_no_hazard_limit_moves_mass_up():
    j = 3
    lw = np.full(6, -np.inf)
    lw[j] = 0.0
    state = _state(np.arange(6), lw, 5)
    _, runs, post, _ = recursion_step(state, _log(np.ones(6)), HazardConfig(1e12))
    assert runs[np.argmax(post)] == j + 1
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
    state = _state(np.arange(3), np.log(np.array([0.2, 0.3, 0.5])), 2)
    out = recursion_step(state, _log(np.full(3, c)), HazardConfig(lam))[0]
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
    state = _state(np.arange(2), np.array([0.0, -np.inf]), 1)
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
    out, _, posterior, _ = recursion_step(
        RunLengthState.initial(), np.array([-np.inf]), HazardConfig(2.0)
    )
    assert list(out.run_lengths) == [0, 1]
    assert out.log_weights[1] == -np.inf
    assert out.evidence_log == pytest.approx(math.log(0.5), abs=1e-15)
    np.testing.assert_array_equal(posterior, [1.0, 0.0])


def test_recursion_all_zero_mass_degenerates():
    with pytest.raises(ContractViolation, match="finite, nonzero mass"):
        recursion_step(RunLengthState.initial(), _log([0.0]), HazardConfig(1.0), _log(0.0))


def test_support_is_full_range_before_pruning():
    state = RunLengthState.initial()
    for t in range(1, 8):
        state = recursion_step(state, _log(np.full(t, 0.5)), HazardConfig(3.0))[0]
        assert list(state.run_lengths) == list(range(t + 1))


# -- normalization and MAP ---------------------------------------------


def test_normalize_simple():
    state, log_psi, reset = _grown_to(np.log([1.0, 1.0, 2.0]))
    out, runs, posterior, _ = recursion_step(state, log_psi, _HZ, reset)
    np.testing.assert_allclose(posterior, [0.25, 0.25, 0.5], rtol=1e-14)
    # The posterior and run lengths are read-only; the state's weights are
    # the grown ones, unnormalized.
    assert not posterior.flags.writeable and not runs.flags.writeable
    np.testing.assert_allclose(out.log_weights, np.log([1.0, 1.0, 2.0]), rtol=0, atol=1e-15)


def test_normalize_single_hypothesis():
    state, log_psi, reset = _grown_to([-math.inf, math.log(5.0)])
    _, _, posterior, i_min = recursion_step(state, log_psi, _HZ, reset)
    np.testing.assert_array_equal(posterior, [0.0, 1.0])
    assert i_min == 0


def test_normalize_extreme_log_weights():
    # frozen with mpmath: e/(1+e) = 0.73105857863000490...
    state, log_psi, reset = _grown_to([-1000.0, -1001.0])
    post = recursion_step(state, log_psi, _HZ, reset)[2]
    np.testing.assert_allclose(post, [0.7310585786300049, 0.2689414213699951], atol=1e-6)


def test_normalize_all_zero_raises():
    # Every predictive 0 on a state with mass: no grown weight is left to
    # normalize.
    state = _state(np.arange(2), np.zeros(2), 1)
    with pytest.raises(ContractViolation, match="finite, nonzero mass"):
        recursion_step(state, np.full(2, -np.inf), HazardConfig(2.0), -math.inf)


@given(st.lists(st.floats(min_value=-500, max_value=500), min_size=2, max_size=40))
def test_normalize_sums_to_one(logs):
    state, log_psi, reset = _grown_to(logs)
    _, _, posterior, i_min = recursion_step(state, log_psi, _HZ, reset)
    assert posterior.sum() == pytest.approx(1.0, abs=1e-9)
    assert posterior[i_min] == posterior.min()


def test_degenerate_hazard_one_forces_reset():
    state = RunLengthState.initial()
    for t in range(1, 6):
        state, runs, post, _ = recursion_step(state, _log(np.full(t, 0.5)), HazardConfig(1.0))
        assert runs[post.argmax()] == 0


def test_huge_lambda_constant_psi_gives_full_run():
    state = RunLengthState.initial()
    for t in range(1, 51):
        state, runs, post, _ = recursion_step(state, _log(np.full(t, 0.7)), HazardConfig(1e9))
    assert runs[post.argmax()] == 50


def test_log_domain_survives_long_runs():
    state = RunLengthState.initial()
    cfg = HazardConfig(1e6)
    rng = np.random.default_rng(0)
    for t in range(1, 2001):
        psi = rng.uniform(0.05, 1.0, t)
        state = recursion_step(state, _log(psi), cfg)[0]
    assert np.all(np.isfinite(state.log_weights))
    assert math.isfinite(state.evidence_log)


# -- pruning ------------------------------------------------------------


def _spread_weights(n=6):
    return np.log(np.random.default_rng(3).dirichlet(np.ones(n)))


def test_prune_none_is_identity():
    state, log_psi, reset = _grown_to(_spread_weights())
    out, runs, _, _ = recursion_step(state, log_psi, _HZ, reset, PrunePolicy())
    assert out.run_lengths is runs and out.run_lengths.size == 6


def test_prune_threshold_drops_tiny_mass():
    lw = np.log(np.array([0.9999, 1e-6, 9.9e-5]))
    state, log_psi, reset = _grown_to(lw)
    out, runs, posterior, _ = recursion_step(
        state, log_psi, _HZ, reset, PrunePolicy.threshold(1e-5)
    )
    assert list(runs) == [0, 1, 2] and list(out.run_lengths) == [0, 2]
    # survivor posterior renormalized, total joint mass preserved
    assert np.exp(out.log_weights - out.evidence_log).sum() == pytest.approx(1.0, abs=1e-12)
    assert np.exp(out.log_weights).sum() == pytest.approx(np.exp(lw).sum())


def test_prune_never_drops_run_zero():
    lw = np.log(np.array([1e-12, 0.5, 0.5]))
    out, _ = _prune_to(lw, PrunePolicy.threshold(1e-3))
    assert list(out.run_lengths) == [0, 1, 2]


def test_prune_top_m():
    out, _ = _prune_to(_spread_weights(8), PrunePolicy.top_m(3))
    assert len(out.run_lengths) <= 4  # top 3 plus possibly run 0
    assert out.run_lengths[0] == 0


def _top_m_by_sort(posterior, m):
    # The top-m keep mask by a stable sort: the m largest entries, ties to
    # the lower index, plus run length 0 at entry 0.
    keep = np.zeros(posterior.size, dtype=bool)
    keep[np.argsort(-posterior, kind="stable")[:m]] = True
    keep[0] = True
    return keep


def _prune_by_mask(grown, posterior, policy):
    # The pruned state built from an explicit keep mask over the grown
    # trellis: the entries at or above the threshold, or the top m by a
    # stable sort, plus run length 0. None when the survivors carry no
    # mass, which the step refuses.
    if policy.epsilon:
        keep = posterior >= policy.epsilon
        keep[0] = True
    else:
        keep = _top_m_by_sort(posterior, policy.max_live)
    runs, kept_lw = grown.run_lengths[keep], grown.log_weights[keep]
    mass = float(posterior[keep].sum())
    if mass >= _TINY:
        return runs, kept_lw - math.log(mass)
    kept_log = logsumexp(kept_lw)
    if kept_log == -math.inf:
        return None
    return runs, kept_lw + (grown.evidence_log - kept_log)


def _assert_step_prunes_as_the_mask(state, log_psi, log_psi_reset, policy):
    # The step under ``policy`` against the mask reference over the grown
    # trellis of the same step unpruned, whose log weights are the grown
    # ones as they are.
    grown, runs, posterior, _ = recursion_step(state, log_psi, _HZ, log_psi_reset)
    want = _prune_by_mask(grown, posterior, policy)
    if want is None:
        with pytest.raises(ContractViolation):
            recursion_step(state, log_psi, _HZ, log_psi_reset, policy)
        return
    out, runs_again, posterior_again, _ = recursion_step(state, log_psi, _HZ, log_psi_reset, policy)
    assert runs_again.tolist() == runs.tolist()
    assert posterior_again.tobytes() == posterior.tobytes()
    assert out.run_lengths.tolist() == want[0].tolist()
    assert out.log_weights.tobytes() == want[1].tobytes()
    assert out.evidence_log == grown.evidence_log
    assert out.t == grown.t == state.t + 1


@given(
    st.lists(
        st.one_of(
            # Few distinct values, so ties are common; -inf and -800 give
            # posterior entries of exactly 0.
            st.sampled_from([-math.inf, -800.0, -3.0, -1.0, 0.0]),
            st.floats(min_value=-40.0, max_value=0.0),
        ),
        min_size=2,
        max_size=12,
    ),
    st.sampled_from([0, 0, 0, -1, 1, 3]),
)
@example([-1.0, 0.0, 0.0], 0)  # the minimum at index 0 is run length 0
@example([0.0, -2.0, -2.0, 0.0, -2.0], 0)  # tied minima
@example([0.0, -math.inf, -math.inf, -800.0], 0)  # exact zeros
@example([0.0, -2.0, -2.0, 0.0, -2.0], 1)  # n = max_live + 2
# The steady-state minimum is the last entry, which the step drops by
# slicing: strictly decreasing weights, and tied minima that include the
# last entry.
@example([0.0, -1.0, -2.0, -3.0], 0)
@example([0.0, -2.0, -1.0, -2.0], 0)
@example([-1.0, 0.0, -1.0, -1.0], 0)
@example([0.0, -math.inf, 0.0, -math.inf], 0)
def test_prune_top_m_matches_a_stable_sort(log_weights, extra):
    # ``extra`` is n - (max_live + 1): 0 is top-m's steady state, which the
    # step handles without a sort.
    lw = np.array(log_weights)
    assume(np.isfinite(lw[1:]).any())
    m = max(1, lw.size - 1 - extra)
    state, log_psi, reset = _grown_to(lw)
    _assert_step_prunes_as_the_mask(state, log_psi, reset, PrunePolicy.top_m(m))


# Few distinct values, so ties are common; -inf and -800 give posterior
# entries of exactly 0.
_LOG_VALUE = st.one_of(
    st.sampled_from([-math.inf, -800.0, -3.0, -1.0, 0.0]),
    st.floats(min_value=-40.0, max_value=5.0),
)


_THRESHOLD = st.tuples(
    st.just("threshold"),
    st.one_of(
        st.sampled_from([1e-300, 1e-10, 1e-4, 0.5]),
        st.floats(min_value=1e-300, max_value=0.5),
        # None: the posterior's smallest entry, kept since the test is >=.
        st.none(),
    ),
)


@given(
    pairs=st.lists(st.tuples(_LOG_VALUE, _LOG_VALUE), min_size=1, max_size=10),
    gaps=st.lists(st.sampled_from([1, 1, 2, 5]), min_size=9, max_size=9),
    log_psi_reset=_LOG_VALUE,
    pick=st.one_of(_THRESHOLD, st.tuples(st.just("top-m"), st.integers(1, 13))),
)
# Tied exact zeros at the minimum; top-m drops the last of them, by one
# argmin at n = M + 1 and by the sort at n = M + 2.
@example([(0.0, -math.inf), (0.0, 0.0), (0.0, -math.inf)], [1] * 9, 0.0, ("top-m", 3))
@example([(0.0, -math.inf), (0.0, 0.0), (0.0, -math.inf)], [1] * 9, 0.0, ("top-m", 2))
# The last entry is the minimum at n = M + 1, so top-m drops it by slicing:
# strictly decreasing weights (after run length 0), and tied minima that
# include the last entry; on dense and on sparse run lengths.
@example([(0.0, 0.0), (-1.0, 0.0), (-2.0, 0.0)], [1] * 9, 0.0, ("top-m", 3))
@example([(0.0, 0.0), (-1.0, 0.0), (-2.0, 0.0)], [2] * 9, 0.0, ("top-m", 3))
@example([(0.0, 0.0), (-3.0, 0.0), (-3.0, 0.0)], [1] * 9, 0.0, ("top-m", 3))
@example([(0.0, -3.0), (0.0, 0.0), (0.0, -3.0)], [5] * 9, -3.0, ("top-m", 3))
# Run length 0 is the minimum: kept by the threshold at it, and top-m at
# n = M + 1 then drops nothing.
@example([(0.0, 0.0), (0.0, 0.0)], [1] * 9, -3.0, ("threshold", None))
@example([(0.0, 0.0), (0.0, 0.0)], [1] * 9, -3.0, ("top-m", 2))
@example([(0.0, 0.0), (0.0, 0.0)], [1] * 9, -math.inf, ("top-m", 2))
# A threshold at or below every entry on sparse run lengths: nothing drops.
@example([(0.0, 0.0), (-1.0, 0.0)], [2] * 9, 0.0, ("threshold", 1e-300))
# Only run length 0 survives, and its weight is 0: refused.
@example([(-800.0, -3.0), (-800.0, -1.0), (-800.0, -1.0)], [1] * 9, -math.inf, ("threshold", 0.5))
def test_prune_equals_a_mask_reference(pairs, gaps, log_psi_reset, pick):
    # The pruned state, keep-all path or not, is bitwise what the explicit
    # mask gives over the grown trellis.
    lw, log_psi = (np.array(column) for column in zip(*pairs))
    assume(np.isfinite(lw).any())
    runs = np.concatenate(([0], np.cumsum(gaps[: lw.size - 1])))
    state = _state(runs, lw, int(runs[-1]))
    try:
        _, _, posterior, _ = recursion_step(state, log_psi, _HZ, log_psi_reset)
    except ContractViolation:  # no mass left: the detector never asks this
        assume(False)
    kind, value = pick
    if kind == "threshold":
        if value is None:
            smallest = float(posterior.min())
            value = smallest if 0.0 < smallest <= 0.5 else 0.5
        policy = PrunePolicy.threshold(value)
    else:
        policy = PrunePolicy.top_m(min(value, posterior.size + 2))
    _assert_step_prunes_as_the_mask(state, log_psi, log_psi_reset, policy)


def test_prune_keeps_evidence_when_survivor_mass_underflows():
    # 200 hypotheses at 1/200 each fall below the threshold, so only run 0
    # survives, and its posterior exp(-1000) underflows to zero.
    state, log_psi, reset = _grown_to(np.concatenate(([-1000.0], np.zeros(200))))
    grown = recursion_step(state, log_psi, _HZ, reset)[0]
    out = recursion_step(state, log_psi, _HZ, reset, PrunePolicy.threshold(0.01))[0]
    assert list(out.run_lengths) == [0]
    assert out.evidence_log == grown.evidence_log
    assert out.log_weights[0] == pytest.approx(grown.evidence_log, abs=1e-12)


def test_prune_that_drops_the_last_entry_keeps_a_view_of_the_parent_run_lengths():
    # Top-m at n = M + 1 whose last entry is the smallest keeps the first
    # n - 1 run lengths as a read-only view of the grown array: on dense
    # run lengths (still a view of the shared table) and on sparse ones.
    # Where the smallest entry is elsewhere, the survivors are gathered.
    # At hazard 2/3 the oldest run length, (1/3)^t, is the smallest.
    hazard = HazardConfig(1.5)
    dense = RunLengthState.initial()
    for _ in range(4):
        dense = recursion_step(dense, np.zeros(dense.run_lengths.size), hazard)[0]
    out, runs, posterior, _ = recursion_step(dense, np.zeros(5), hazard, 0.0, PrunePolicy.top_m(5))
    assert posterior.argmin() == 5
    assert out.run_lengths.tolist() == [0, 1, 2, 3, 4]
    assert np.shares_memory(out.run_lengths, runs)
    assert np.shares_memory(out.run_lengths, runlength._DENSE)
    assert not out.run_lengths.flags.writeable

    out, runs = _prune_to([0.0, -1.0, -2.0, -3.0], PrunePolicy.top_m(3), runs=[0, 1, 3, 8])
    assert runs.tolist() == [0, 1, 3, 8] and out.run_lengths.tolist() == [0, 1, 3]
    assert np.shares_memory(out.run_lengths, runs)
    assert not out.run_lengths.flags.writeable

    out, runs = _prune_to([0.0, -3.0, -1.0, -2.0], PrunePolicy.top_m(3))
    assert out.run_lengths.tolist() == [0, 2, 3]
    assert not np.shares_memory(out.run_lengths, runs)


def test_prune_that_drops_nothing_keeps_the_parent_run_lengths(monkeypatch):
    # A threshold no entry falls below, on dense run lengths: the pruned
    # state holds the grown run-length array, still a view of the shared
    # table; so does top-m with room for every hypothesis.
    hazard = HazardConfig(10.0)
    state = RunLengthState.initial()
    for _ in range(4):
        state = recursion_step(state, np.zeros(state.run_lengths.size), hazard)[0]
    table = runlength._dense_run_lengths(6)
    for policy in (
        PrunePolicy.threshold(1e-300),
        PrunePolicy.top_m(6),
        PrunePolicy.top_m(9),
        PrunePolicy(),
    ):
        out, runs, _, _ = recursion_step(state, np.zeros(5), hazard, 0.0, policy)
        assert out.run_lengths is runs
        assert np.shares_memory(out.run_lengths, table)

    # In the detector, such a step leaves the baseline model's run-length
    # columns alone: the state keeps the grown columns the model returned,
    # and takes new ones only when a prune drops some.
    grown = []
    predict = detector.BaselineModel.predict

    def recording(self, *args):
        out = predict(self, *args)
        grown.append(out[4])
        return out

    monkeypatch.setattr(detector.BaselineModel, "predict", recording)
    series = np.sin(np.arange(20) / 3.0)
    det = Detector(DetectorConfig(mode="baseline", prune=PrunePolicy.threshold(1e-300)))
    for t, x in enumerate(series, 1):
        det.step(x)
        assert det.rl.run_lengths.size == t + 1
        assert np.shares_memory(det.rl.run_lengths, runlength._DENSE)
        assert det.rl.columns is grown[-1]
    det = Detector(DetectorConfig(mode="baseline", prune=PrunePolicy.threshold(0.2)))
    selected = []
    for x in series:
        det.step(x)
        selected.append(det.rl.columns is not grown[-1])
    assert any(selected)


def test_prune_policy_validation():
    with pytest.raises(ConfigError, match="at least one hypothesis"):
        PrunePolicy.top_m(0)
    # A count that is not an integer failed only at the first prune, with a
    # raw TypeError.
    for m in (2.5, 2.0, "3", True):
        with pytest.raises(ConfigError):
            PrunePolicy.top_m(m)
    with pytest.raises(ConfigError):
        PrunePolicy(max_live=0.5)
    assert PrunePolicy.top_m(np.int64(3)).max_live == 3
    with pytest.raises(ConfigError):
        PrunePolicy.threshold(0.0)
    with pytest.raises(ConfigError, match="mutually exclusive"):
        PrunePolicy(epsilon=0.5, max_live=5)
    with pytest.raises(ConfigError, match="mutually exclusive"):
        PrunePolicy(epsilon=1e-10, max_live=5)


# -- cached evidence ----------------------------------------------------


def _assert_evidence_consistent(state):
    want = float(scipy_logsumexp(state.log_weights))
    assert state.evidence_log == pytest.approx(want, rel=0, abs=1e-12)


_PSI = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0))
_POLICIES = [
    PrunePolicy(),
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
        grown, _, posterior, _ = recursion_step(state, _log(psi), cfg, _log(psi_reset))
        _assert_evidence_consistent(grown)
        np.testing.assert_allclose(
            posterior, np.exp(grown.log_weights - grown.evidence_log), rtol=0, atol=1e-12
        )
        state = recursion_step(state, _log(psi), cfg, _log(psi_reset), policy)[0]
        _assert_evidence_consistent(state)
        assert state.evidence_log == grown.evidence_log


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
