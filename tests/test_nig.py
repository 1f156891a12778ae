"""The NIG module's prior predictive, run length 0's entry of the baseline's
pass: scipy's Student-t, and the reset predictive at every step bit for
bit."""

import math

import mpmath
import numpy as np
import pytest
from scipy.stats import t as student_t

import streamcpd
from streamcpd import Detector, DetectorConfig, NigParams, PrunePolicy, detector, nig
from streamcpd.runlength import RunLengthState

# a0 from 256 up seeds the run-length table from the series of D(a); kappa
# reaches its 1e-150 bound.
PRIORS = [
    NigParams(),
    NigParams(mu=0.5, kappa=2.0, a=3.0, b=1.5),
    NigParams(mu=-3.0, kappa=0.05, a=0.1, b=1e-3),
    NigParams(a=255.9, b=40.0),
    NigParams(a=256.0),
    NigParams(mu=2.0, kappa=0.3, a=1e3, b=1e3),
    NigParams(a=1e13, b=1e13),
    NigParams(kappa=1e-150),
    NigParams(mu=-4.0, kappa=3e-150, a=300.0, b=1e3),
]


def _run_length_0(p, x):
    """The log predictive of ``x`` at run length 0, the prior column: entry
    0 of a fresh baseline's first ``predict``."""
    model = detector.BaselineModel(DetectorConfig(mode="baseline", baseline=p))
    return float(model.predict(x, RunLengthState.initial())[0][0])


@pytest.mark.parametrize("p", PRIORS, ids=str)
def test_log_prior_predictive_is_scipy_student_t(p):
    # Within 1e-12, relative once the log density passes 1 in magnitude:
    # far in the tail at a0 = 1e13 it is -5e5, where an ulp is 1.2e-10.
    scale = math.sqrt(p.b * (p.kappa + 1.0) / (p.a * p.kappa))
    for k in (-300.0, -30.0, -3.0, -0.5, 0.0, 0.7, 4.0, 1e3):
        x = p.mu + k * scale
        want = student_t.logpdf(x, 2.0 * p.a, p.mu, scale)
        assert abs(_run_length_0(p, x) - want) <= 1e-12 * max(1.0, abs(want)), k


@pytest.mark.parametrize("a0", [0.1, 256.0, 5e3, 1e4, 1e8])
def test_log_prior_predictive_matches_mpmath(a0):
    # Against the Student-t at 50 digits, to 1e-14 (relative past 1), with
    # a0 where scipy's t.logpdf drifts by up to 1.3e-12 (about 2e3 to 5e4).
    mpmath.mp.dps = 50
    p = NigParams(mu=2.0, kappa=0.3, a=a0, b=a0)
    a, big_b = mpmath.mpf(a0), 2 * mpmath.mpf(a0) * (mpmath.mpf(0.3) + 1) / mpmath.mpf(0.3)
    for x in (-1e4, -3.0, 0.0, 2.0, 2.5, 40.0, 1e6):
        d2 = (mpmath.mpf(x) - 2) ** 2
        want = float(
            mpmath.loggamma(a + 0.5) - mpmath.loggamma(a) - mpmath.log(mpmath.pi * big_b) / 2
            - (a + 0.5) * mpmath.log1p(d2 / big_b)
        )
        assert abs(_run_length_0(p, x) - want) <= 1e-14 * max(1.0, abs(want)), x


@pytest.mark.parametrize(
    "prune",
    [PrunePolicy(), PrunePolicy.threshold(1e-10), PrunePolicy.top_m(20)],
    ids=["none", "threshold", "top-m"],
)
@pytest.mark.parametrize("p", PRIORS[:2] + PRIORS[4:5] + PRIORS[7:8], ids=str)
def test_log_prior_predictive_is_the_reset_predictive(prune, p):
    # At every state of a two-regime run, the baseline's reset predictive,
    # entry 0 of its pass over every live hypothesis, is that of its first
    # step, the pass over the prior column alone, bit for bit.
    rng = np.random.default_rng(7)
    series = np.r_[rng.normal(0.0, 1.0, 100), rng.normal(6.0, 3.0, 100)]
    det = Detector(DetectorConfig(mode="baseline", prune=prune, baseline=p))
    for x in series:
        for y in (x, -2.5, 40.0):
            assert det.model.predict(y, det.rl)[0][0] == _run_length_0(p, y)
        det.step(x)


def test_nig_py_is_the_one_owner_of_the_nig_math():
    # The detector neither defines the table's names nor imports them back.
    assert streamcpd.NigParams is nig.NigParams
    for name in (
        "_TABLE_CAP",
        "_D_SERIES_FROM",
        "_lgamma_half_diff",
        "_run_length_rows",
        "_run_length_table",
        "_run_length_rows_past_cap",
    ):
        assert hasattr(nig, name) and not hasattr(detector, name)
