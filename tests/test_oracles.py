import math

import numpy as np
import pytest

from streamcpd import ConfigError, ContractViolation, SegmentSpec, gen_piecewise_gaussian

from conftest import gaussian_gradients, random_canonical_labels, trellis_joint
from reference import brute_force_joint, brute_force_joint_by_segments, finite_difference


# -- generator ------------------------------------------------------------


def test_single_segment_has_no_changepoints():
    series, cps, labels = gen_piecewise_gaussian([SegmentSpec(5, 0.0, 1.0)], 0)
    assert len(series) == 5 and cps == [] and list(labels) == [1] * 5


def test_two_segments_boundary():
    segs = [SegmentSpec(100, 0.0, 1.0, 1), SegmentSpec(100, 10.0, 1.0, 2)]
    series, cps, labels = gen_piecewise_gaussian(segs, 0)
    assert cps == [100]
    assert list(labels[:100]) == [1] * 100 and list(labels[100:]) == [2] * 100


def test_sample_mean_law_of_large_numbers():
    n = 100_000
    series, _, _ = gen_piecewise_gaussian([SegmentSpec(n, 2.5, 4.0)], 7)
    assert abs(series.mean() - 2.5) < 3 * 2.0 / math.sqrt(n)


def test_generator_deterministic_given_seed():
    segs = [SegmentSpec(50, 0.0, 1.0), SegmentSpec(50, 3.0, 0.5)]
    a, _, _ = gen_piecewise_gaussian(segs, 123)
    b, _, _ = gen_piecewise_gaussian(segs, 123)
    np.testing.assert_array_equal(a, b)


def test_segment_validation():
    with pytest.raises(ConfigError):
        SegmentSpec(0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        SegmentSpec(5, 0.0, 0.0)
    # Every value synth would write must be one run accepts.
    for mu, var in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ConfigError):
            SegmentSpec(5, mu, var)
    with pytest.raises(ConfigError):
        SegmentSpec(5, 0.0, 1.0, class_id=0)
    with pytest.raises(ConfigError):
        SegmentSpec(2.5, 0.0, 1.0)
    assert SegmentSpec(np.int64(5), 0, 1, class_id=np.int64(2)).length == 5


# -- brute-force enumeration ------------------------------------------------


def test_single_step_is_hazard_split():
    for lam in (2.0, 10.0, 1e6):
        out = brute_force_joint([1], 1.0, lam)
        np.testing.assert_allclose(out, [1.0 / lam, 1.0 - 1.0 / lam], rtol=1e-15)


def test_three_step_vector_matches_recursion():
    labels = [1, 2, 2]
    want = brute_force_joint(labels, 1.0, 2.0)
    got, _ = trellis_joint(labels, 1.0, 2.0)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_marginalized_evidence_matches_accumulator():
    rng = np.random.default_rng(6)
    for _ in range(10):
        labels = random_canonical_labels(rng, int(rng.integers(1, 9)))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        lam = float(rng.choice([2.0, 10.0, 1e6]))
        joint = brute_force_joint(labels, alpha, lam)
        _, state = trellis_joint(labels, alpha, lam)
        assert math.exp(state.evidence_log) == pytest.approx(joint.sum(), rel=1e-12)


def test_enumeration_bound():
    with pytest.raises(ContractViolation):
        brute_force_joint([1] * 13, 1.0, 2.0)
    with pytest.raises(ContractViolation):
        brute_force_joint([], 1.0, 2.0)


def test_two_enumeration_strategies_agree():
    rng = np.random.default_rng(17)
    for _ in range(30):
        T = int(rng.integers(1, 11))
        labels = random_canonical_labels(rng, T)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        lam = float(rng.choice([2.0, 10.0, 1e6]))
        a = brute_force_joint(labels, alpha, lam)
        b = brute_force_joint_by_segments(labels, alpha, lam)
        np.testing.assert_allclose(b, a, rtol=1e-14, atol=0)


# -- finite differences -------------------------------------------------------


def test_finite_difference_polynomial():
    g = finite_difference(lambda th: th[0] ** 2, np.array([3.0]))
    assert g[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_difference_constant():
    g = finite_difference(lambda th: 1.25, np.array([0.3, -2.0]))
    np.testing.assert_allclose(g, [0.0, 0.0])


def test_finite_difference_gaussian_loglik():
    x, mu, var, gamma = 1.3, 0.2, 0.9, 0.6

    def f(theta):
        m, v = theta
        return gamma * (-0.5 * math.log(2 * math.pi * v) - (x - m) ** 2 / (2 * v))

    numeric = finite_difference(f, np.array([mu, var]))
    np.testing.assert_allclose(
        np.array(gaussian_gradients(x, mu, var, gamma)), numeric, rtol=1e-5
    )


def test_finite_difference_rejects_bad_step():
    with pytest.raises(ContractViolation):
        finite_difference(lambda th: 0.0, np.array([1.0]), step=0.0)
