import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcpd import CandidatePolicy, ContractViolation, DetectorConfig, EmissionParams
from streamcpd.emission import ClassTable, decay_rates, em_step, m_step, spawn_candidate

from conftest import gaussian_gradients
from reference import emission_loglik, finite_difference


def _p(mu=0.0, var=1.0, eta_mu=1.0, eta_var=0.02):
    return EmissionParams(mu=mu, var=var, eta_mu=eta_mu, eta_var=eta_var)


_CFG = DetectorConfig()
# The emission rule a detector's class table gets by default.
_RULE = dict(
    var_floor=_CFG.var_floor,
    log_space=_CFG.log_var_update,
    decay=_CFG.decay,
    eta_init=_CFG.eta_init,
    candidate=_CFG.candidate,
)


def _table(*params, **rule):
    """A table holding ``params``, under the default rule but for ``rule``."""
    table = ClassTable(**{**_RULE, **rule})
    for p in params:
        table.push(p.mu, p.var, p.eta_mu, p.eta_var, p.born_at)
    return table


def _resp(x, prior, table):
    """The E-step responsibilities that em_step returns."""
    return em_step(table, x, prior)[0]


def _m(p, x, gamma, **rule):
    """M-step of one class through a one-column table."""
    table = _table(p, **rule)
    m_step(table, x, [gamma])
    return table.params()[0]


# -- likelihood -----------------------------------------------------------


def test_loglik_standard_normal_at_zero():
    assert emission_loglik(0.0, _p()) == pytest.approx(-0.9189385332046727)


def test_loglik_peak_value():
    for var in (0.3, 1.0, 7.5):
        assert emission_loglik(2.0, _p(mu=2.0, var=var)) == pytest.approx(
            -0.5 * math.log(2 * math.pi * var)
        )


@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=0.01, max_value=25))
def test_loglik_symmetry(d, var):
    p = _p(mu=1.5, var=var)
    assert emission_loglik(1.5 + d, p) == pytest.approx(emission_loglik(1.5 - d, p))


# -- E-step ---------------------------------------------------------------


def test_e_step_single_class():
    np.testing.assert_allclose(_resp(0.3, [1.0], _table(_p())), [1.0])


def test_e_step_symmetric_classes():
    np.testing.assert_allclose(
        _resp(0.7, [0.5, 0.5], _table(_p(), _p())), [0.5, 0.5], rtol=1e-15
    )


def test_e_step_well_separated_classes():
    # Bayes rule at x=0 with N(0,1) vs N(10,1), equal priors: the loser gets
    # exp(-50) = 1.9287498479639178e-22 (checked with mpmath at 50 digits).
    resp = _resp(0.0, [0.5, 0.5], _table(_p(mu=0.0), _p(mu=10.0)))
    assert resp[1] == pytest.approx(1.9287498479639178e-22, rel=1e-12)
    assert resp[0] == pytest.approx(1.0)


def test_e_step_length_mismatch():
    with pytest.raises(ContractViolation):
        _resp(0.0, [0.5, 0.5], _table(_p()))


@given(
    st.floats(min_value=-5, max_value=5),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6),
)
def test_e_step_normalized(x, weights):
    prior = np.array(weights) / sum(weights)
    table = _table(*(_p(mu=i * 1.5, var=0.5 + i) for i in range(len(weights))))
    resp = _resp(x, prior, table)
    assert resp.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(resp >= 0)


# -- M-step ---------------------------------------------------------------


def test_m_step_zero_responsibility_is_identity():
    p = _p(mu=1.0, var=2.0)
    q = _m(p, x=5.0, gamma=0.0)
    assert (q.mu, q.var) == (p.mu, p.var)
    assert (q.eta_mu, q.eta_var) == (p.eta_mu, p.eta_var)


def test_m_step_unit_gradient_example():
    q = _m(_p(mu=0.0, var=1.0, eta_mu=1.0), x=1.0, gamma=1.0)
    assert q.mu == pytest.approx(1.0)


def test_m_step_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        x = float(rng.uniform(-5, 5))
        mu = float(rng.uniform(-3, 3))
        var = float(rng.uniform(0.2, 4.0))
        gamma = float(rng.uniform(0.05, 1.0))

        def f(theta):
            m, v = theta
            return gamma * (-0.5 * math.log(2 * math.pi * v) - (x - m) ** 2 / (2 * v))

        numeric = finite_difference(f, np.array([mu, var]), step=1e-5)
        analytic = np.array(gaussian_gradients(x, mu, var, gamma))
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)


def test_m_step_mean_gradient_vanishes_at_center():
    g_mu, _ = gaussian_gradients(2.0, 2.0, 1.7, 0.8)
    assert g_mu == 0.0


def test_m_step_var_gradient_vanishes_when_matched():
    # (x - mu)^2 == var is the stationary point of the variance update
    _, g_var = gaussian_gradients(3.0, 1.0, 4.0, 0.8)
    assert g_var == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=200)
@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=1e-6, max_value=10),
    st.floats(min_value=0.001, max_value=1.0),
)
def test_m_step_variance_never_below_floor(x, gamma, var, eta_var):
    p = _p(var=var, eta_var=eta_var)
    for _ in range(3):
        p = _m(p, x, gamma)
        assert p.var >= 1e-6


def test_m_step_log_space_variant():
    p = _p(var=2.0)
    q_nat = _m(p, x=0.5, gamma=1.0)
    q_log = _m(p, x=0.5, gamma=1.0, log_space=True)
    # same gradient sign, variance stays positive without relying on the floor
    assert (q_nat.var - p.var) * (q_log.var - p.var) > 0
    tiny = _m(_p(var=1e-5, eta_var=5.0), x=100.0, gamma=1.0, log_space=True)
    assert tiny.var > 0


def test_m_step_preserves_learning_rates():
    q = _m(_p(eta_mu=0.5, eta_var=0.01), x=2.0, gamma=0.7)
    assert (q.eta_mu, q.eta_var) == (0.5, 0.01)


# -- rate decay -------------------------------------------------------------


def test_decay_single_win():
    table = _table(_p(eta_mu=1.0, eta_var=0.02), decay=0.02)
    decay_rates(table, k_star=1)
    out = table.params()
    assert out[0].eta_mu == pytest.approx(0.98)
    assert out[0].eta_var == pytest.approx(0.0196)


def test_decay_leaves_losers_alone():
    params = [_p(), _p(eta_mu=0.7)]
    table = _table(*params, decay=0.02)
    decay_rates(table, k_star=1)
    assert table.params()[1] == params[1]


def test_decay_is_geometric():
    table = _table(_p(eta_mu=1.0), decay=0.02)
    for _ in range(10):
        decay_rates(table, 1)
    assert table.params()[0].eta_mu == pytest.approx(0.98**10)


def test_decay_rejects_bad_winner():
    with pytest.raises(ContractViolation):
        decay_rates(_table(_p(), decay=0.02), k_star=2)
    with pytest.raises(ContractViolation):
        decay_rates(_table(_p(), decay=1.0), k_star=1)


@pytest.mark.parametrize("decay", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
def test_table_refuses_a_decay_outside_the_unit_interval(decay):
    # The rule is checked once, when the table is built, not at every win.
    with pytest.raises(ContractViolation, match="decay must lie in"):
        ClassTable(**{**_RULE, "decay": decay})


def test_rates_never_increase_under_mixed_updates():
    rng = np.random.default_rng(8)
    table = _table(_p(), _p(mu=4.0), decay=0.02)
    prev = [(p.eta_mu, p.eta_var) for p in table.params()]
    for _ in range(200):
        x = float(rng.normal())
        m_step(table, x, [0.5, 0.5])
        decay_rates(table, int(rng.integers(1, 3)))
        params = table.params()
        for p, (em, ev) in zip(params, prev):
            assert p.eta_mu <= em and p.eta_var <= ev
        prev = [(p.eta_mu, p.eta_var) for p in params]


# -- candidate spawning ------------------------------------------------------


def _spawn(x, policy, born_at=0, **rule):
    """Spawn into a table that already holds one class; return the candidate."""
    table = _table(_p(), candidate=policy, **rule)
    spawn_candidate(table, x, born_at)
    assert table.n == 2
    return table.params()[1]


def test_spawn_at_observation():
    p = _spawn(3.2, CandidatePolicy(), eta_init=(1.0, 0.02), born_at=7)
    assert (p.mu, p.var, p.eta_mu, p.eta_var, p.born_at) == (3.2, 1.0, 1.0, 0.02, 7)


def test_spawn_fixed_mean_policy():
    p = _spawn(3.2, CandidatePolicy(mu0=0.0), eta_init=(1.0, 0.02))
    assert p.mu == 0.0


def test_spawn_clamps_variance_to_floor():
    p = _spawn(0.0, CandidatePolicy(var_init=1e-9), eta_init=(1.0, 0.02), var_floor=1e-6)
    assert p.var == 1e-6


# -- class table ----------------------------------------------------------------


def test_table_grows_past_capacity_and_round_trips():
    # The table starts at 8 columns; 19 pushes double it twice.
    params = [_p(mu=float(i), var=1.0 + i, eta_mu=0.5, eta_var=0.01) for i in range(19)]
    table = ClassTable(**_RULE)
    for i, p in enumerate(params):
        table.push(p.mu, p.var, p.eta_mu, p.eta_var, born_at=i)
    assert table.n == 19
    assert table.params() == [
        EmissionParams(p.mu, p.var, p.eta_mu, p.eta_var, born_at=i) for i, p in enumerate(params)
    ]


def test_dropped_candidate_column_is_overwritten_by_next_spawn():
    table = _table(_p(mu=1.0), candidate=CandidatePolicy(), eta_init=(1.0, 0.02))
    spawn_candidate(table, 5.0, born_at=2)
    table.n = 1
    spawn_candidate(table, 7.0, born_at=3)
    assert [(p.mu, p.born_at) for p in table.params()] == [(1.0, 0), (7.0, 3)]


def test_m_step_rejects_nan_variance_and_zero_rates():
    nan_var = ClassTable(**_RULE)
    nan_var.push(0.0, float("nan"), 1.0, 0.02, 0)
    with pytest.raises(ContractViolation):
        m_step(nan_var, 0.5, [1.0])
    zero_rate = ClassTable(**_RULE)
    zero_rate.push(0.0, 1.0, 1.0, 0.0, 0)
    with pytest.raises(ContractViolation):
        m_step(zero_rate, 0.5, [1.0])


def test_decay_floors_rates_that_underflow_to_zero():
    # 5e-324 * 0.5 rounds to 0; the rates stay at the smallest positive double.
    table = _table(_p(eta_mu=5e-324, eta_var=5e-324), decay=0.5)
    decay_rates(table, 1)
    assert table.live()[2:, 0].tolist() == [5e-324, 5e-324]
    # Only a rate that would round to 0 is floored.
    table = _table(_p(eta_mu=1.0, eta_var=5e-324), decay=0.5)
    decay_rates(table, 1)
    assert table.live()[2:, 0].tolist() == [0.5, 5e-324]


def test_m_step_length_mismatch():
    with pytest.raises(ContractViolation):
        m_step(_table(_p(), _p()), 0.0, [1.0])


# -- table operations against the scalar reference formulas -------------------

_FLOOR = DetectorConfig().var_floor
_EPS = np.finfo(float).eps

_class = st.builds(
    EmissionParams,
    mu=st.floats(min_value=-5, max_value=5),
    var=st.one_of(
        st.just(_FLOOR),
        st.floats(min_value=_FLOOR, max_value=2 * _FLOOR),
        st.floats(min_value=_FLOOR, max_value=10.0),
    ),
    eta_mu=st.floats(min_value=1e-3, max_value=1.0),
    eta_var=st.floats(min_value=1e-3, max_value=1.0),
)


def _ref_e_step(x, prior, params):
    # the per-class loop the table replaced
    loglik = np.array([emission_loglik(x, p) for p in params])
    score = loglik + np.log(prior)
    w = np.exp(score - np.max(score))
    return w / w.sum(), score


def _ref_m_step(p, x, gamma, log_space):
    d = x - p.mu
    g_mu = gamma * d / p.var
    g_var = gamma * (d * d / (2.0 * p.var * p.var) - 1.0 / (2.0 * p.var))
    mu = p.mu + p.eta_mu * g_mu
    if log_space:
        logv = min(math.log(p.var) + p.eta_var * g_var * p.var, 700.0)
        var = math.exp(logv)
    else:
        logv, var = None, p.var + p.eta_var * g_var
    return mu, max(_FLOOR, var), logv


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_class, min_size=1, max_size=8),
    st.floats(min_value=-5, max_value=5),
    st.booleans(),
    st.data(),
)
def test_table_matches_scalar_formulas(params, x, log_space, data):
    k = len(params)
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    prior = np.array(weights) / sum(weights)
    table = _table(*params, var_floor=_FLOOR, log_space=log_space, decay=0.02)

    # E-step: same arithmetic order, but np.log and numpy's square may each
    # differ by one ulp from math.log and Python's `d ** 2` (libm pow; e.g.
    # d = 0x1.a976ccc4caf8ep+2), so each score may move by a few ulps of
    # the magnitudes it is built from: the score, log var and log prior.
    # em_step also updates its table, so it runs on a copy.
    resp = _resp(x, prior, _table(*params))
    ref, score = _ref_e_step(x, prior, params)
    scale = (
        1.0
        + np.abs(score).max()
        + np.abs(np.log([p.var for p in params])).max()
        + np.abs(np.log(prior)).max()
    )
    np.testing.assert_allclose(resp, ref, rtol=16 * _EPS * scale, atol=1e-300)

    # M-step from the same responsibilities: the mean and the natural
    # variance update are bit-equal; the log-space variance goes through
    # np.log/np.exp, so it may differ by a few ulps of the log variance.
    m_step(table, x, resp)
    for q, p, g in zip(table.params(), params, resp):
        mu, var, logv = _ref_m_step(p, x, float(g), log_space)
        assert q.mu == mu
        if log_space:
            rel = 1e-15 * (1.0 + abs(math.log(p.var)) + abs(logv))
            assert q.var == pytest.approx(var, rel=rel, abs=0)
        else:
            assert q.var == var
        assert q.var >= _FLOOR
        assert (q.eta_mu, q.eta_var) == (p.eta_mu, p.eta_var)

    # decay touches only the winner's rates, as (1 - decay) * eta
    k_star = data.draw(st.integers(1, k))
    before = table.params()
    decay_rates(table, k_star)
    for j, (q, p) in enumerate(zip(table.params(), before), start=1):
        assert (q.mu, q.var, q.born_at) == (p.mu, p.var, p.born_at)
        if j == k_star:
            assert (q.eta_mu, q.eta_var) == ((1.0 - 0.02) * p.eta_mu, (1.0 - 0.02) * p.eta_var)
        else:
            assert q == p


# -- the fused SGD-EM step ----------------------------------------------------


def _unfused_e_step(x, class_prior, table):
    prior = np.asarray(class_prior, dtype=float)
    live = table.live()
    mu, var = live[0], live[1]
    loglik = -0.5 * (math.log(2.0 * math.pi) + np.log(var)) - (x - mu) ** 2 / (2.0 * var)
    with np.errstate(divide="ignore"):
        score = loglik + np.log(prior)
    w = np.exp(score - float(score.max()))
    w /= w.sum()
    return w


def _unfused_m_step(table, x, gamma, var_floor, log_space):
    live = table.live()
    mu, var, eta_mu, eta_var = live[0], live[1], live[2], live[3]
    d = x - mu
    two_var = 2.0 * var
    g_mu = gamma * d / var
    g_var = gamma * (d * d / (two_var * var) - 1.0 / two_var)
    if log_space:
        new_var = np.exp(np.minimum(np.log(var) + eta_var * g_var * var, 700.0))
    else:
        new_var = var + eta_var * g_var
    mu += eta_mu * g_mu
    np.maximum(var_floor, new_var, out=var)


def _unfused_map_assignment(resp):
    return int(np.asarray(resp, dtype=float).argmax()) + 1


def _unfused_step(table, x, prior, var_floor=_FLOOR, log_space=False):
    """Reference for em_step: the unfused sequence of an E-step, an M-step
    and the MAP class of a second E-step, each written out on its own,
    which em_step must reproduce bit for bit."""
    with np.errstate(over="raise", invalid="raise"):
        resp = _unfused_e_step(x, prior, table)
        _unfused_m_step(table, x, resp, var_floor, log_space)
        z_star = _unfused_map_assignment(_unfused_e_step(x, prior, table))
    return resp, z_star


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_class, min_size=1, max_size=8),
    st.floats(min_value=-5, max_value=5),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_em_step_equals_unfused_sequence(params, x, log_space, candidate, data):
    k = len(params) + candidate
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    prior = np.array(weights) / sum(weights)
    rule = dict(var_floor=_FLOOR, log_space=log_space, eta_init=(1.0, 0.02))
    if candidate:
        var_init = data.draw(st.sampled_from([_FLOOR, 1.5 * _FLOOR, 1.0]))
        rule["candidate"] = CandidatePolicy(var_init=var_init)
    ref, fused = _table(*params, **rule), _table(*params, **rule)
    if candidate:
        for table in (ref, fused):
            spawn_candidate(table, x, born_at=9)
    before = fused.live().copy()
    try:
        ref_resp, ref_z = _unfused_step(ref, x, prior, log_space=log_space)
    except FloatingPointError:
        with pytest.raises(FloatingPointError):
            em_step(fused, x, prior)
        assert np.array_equal(fused.live(), before)
        return
    resp, z_star = em_step(fused, x, prior)
    assert np.array_equal(resp, ref_resp)
    assert np.array_equal(fused.live(), ref.live())
    assert z_star == ref_z


def test_em_step_exact_tie_goes_to_existing_class():
    # The candidate is spawned as an exact copy of the one existing class
    # and the prior splits evenly, so the two post-update scores are equal.
    table = _table(
        _p(mu=0.25, var=1.0, eta_mu=1.0, eta_var=0.02),
        candidate=CandidatePolicy(),
        eta_init=(1.0, 0.02),
    )
    spawn_candidate(table, 0.25)
    ref = _table(*table.params())
    resp, z_star = em_step(table, 0.25, [0.5, 0.5])
    assert resp.tolist() == [0.5, 0.5]
    assert np.array_equal(table.live()[:, 0], table.live()[:, 1])
    assert z_star == 1
    assert _unfused_step(ref, 0.25, [0.5, 0.5])[1] == 1


@pytest.mark.parametrize(
    "x, eta_mu",
    [
        # overflows the first scoring, before any update is computed
        (1e200, 1.0),
        # a huge mean step overflows the post-update scoring
        (1e150, 1e6),
    ],
)
def test_em_step_overflow_leaves_table_unchanged(x, eta_mu):
    table = _table(_p(eta_mu=eta_mu), _p(mu=3.0, var=2.0, eta_mu=eta_mu))
    before = table.live().copy()
    with pytest.raises(FloatingPointError):
        em_step(table, x, [0.5, 0.5])
    assert np.array_equal(table.live(), before)


def test_em_step_map_examples():
    # Identical classes at x differ only through the prior, and the larger
    # responsibility shrinks its variance more, so the MAP class follows the
    # prior; an exact tie goes to the lowest class id.
    def z(prior):
        return em_step(_table(*(_p(mu=0.4) for _ in prior)), 0.4, prior)[1]

    assert z([0.2, 0.7, 0.1]) == 2
    assert z([0.5, 0.5]) == 1
    assert z([1.0]) == 1


def test_em_step_map_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        r = rng.uniform(0.01, 1.0, 5)
        mus, variances = rng.normal(0, 2, 5), rng.uniform(0.5, 2, 5)
        params = [_p(mu=float(m), var=float(v)) for m, v in zip(mus, variances)]
        x = float(rng.normal())
        z_unit = em_step(_table(*params), x, r / r.sum())[1]
        assert em_step(_table(*params), x, 3.7 * r / r.sum())[1] == z_unit


# Every form an observation may take. em_step converts it once to a 0-d
# float64 array; a bare np.array(x) would keep an integer dtype (uint64 at
# 2**63) or an object one (above 2**64).
_OBSERVATION = st.one_of(
    st.floats(min_value=-5, max_value=5),
    st.integers(-5, 5),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63)),
    st.floats(min_value=-5, max_value=5).map(np.float64),
    st.floats(min_value=-5, max_value=5, width=32).map(np.float32),
    st.floats(min_value=-5, max_value=5).map(np.array),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_class, min_size=1, max_size=6), _OBSERVATION, st.data())
def test_em_step_takes_every_form_of_the_observation(params, x, data):
    # em_step(x) is bitwise em_step(float(x)): responsibilities, MAP class
    # and the updated table.
    k = len(params)
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    prior = np.array(weights) / sum(weights)
    ref, got = _table(*params), _table(*params)
    try:
        want_resp, want_z = em_step(ref, float(x), prior)
    except FloatingPointError:
        with pytest.raises(FloatingPointError):
            em_step(got, x, prior)
        return
    resp, z_star = em_step(got, x, prior)
    assert resp.dtype == want_resp.dtype and resp.tobytes() == want_resp.tobytes()
    assert z_star == want_z
    assert got.live().tobytes() == ref.live().tobytes()


def test_em_step_empty_table():
    with pytest.raises(ContractViolation):
        em_step(ClassTable(**_RULE), 0.0, [])
