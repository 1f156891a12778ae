import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcpd import ContractViolation, CrpState, LabelCounts, sample_class, sequence_probability

from conftest import all_canonical_sequences, random_canonical_labels


def _state_with_labels(labels, alpha=1.0):
    s = CrpState(alpha)
    for z in labels:
        s.record_assignment(z)
    return s


# -- global predictive ---------------------------------------------------


def test_first_customer_always_opens_a_table():
    s = CrpState(3.7)
    np.testing.assert_allclose(s.global_predictive(), [1.0])


def test_global_predictive_counts():
    s = _state_with_labels([1, 1, 2], alpha=1.0)  # m = [2, 1], t = 3
    np.testing.assert_allclose(s.global_predictive(), [0.5, 0.25, 0.25])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=60),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_global_predictive_is_a_distribution(choices, alpha):
    s = CrpState(alpha)
    for c in choices:
        s.record_assignment(min(c + 1, s.k_current + 1))
    p = s.global_predictive()
    assert np.all(p >= 0) and np.all(p <= 1)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


# -- sampling -------------------------------------------------------------


def test_sample_class_degenerate():
    rng = np.random.default_rng(0)
    assert all(sample_class(np.array([1.0]), rng) == 1 for _ in range(5))


def test_sample_class_reproducible():
    a = [sample_class(np.array([0.5, 0.5]), np.random.default_rng(42)) for _ in range(1)]
    b = [sample_class(np.array([0.5, 0.5]), np.random.default_rng(42)) for _ in range(1)]
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    seq1 = [sample_class(np.array([0.3, 0.3, 0.4]), rng1) for _ in range(50)]
    seq2 = [sample_class(np.array([0.3, 0.3, 0.4]), rng2) for _ in range(50)]
    assert a == b and seq1 == seq2


def test_sample_class_frequencies():
    rng = np.random.default_rng(123)
    p = np.array([0.25, 0.25, 0.5])
    draws = np.array([sample_class(p, rng) for _ in range(100_000)])
    freq = np.bincount(draws, minlength=4)[1:] / draws.size
    np.testing.assert_allclose(freq, p, atol=0.01)


def test_sample_class_rejects_bad_distribution():
    rng = np.random.default_rng(0)
    with pytest.raises(ContractViolation):
        sample_class(np.array([0.5, 0.4]), rng)
    with pytest.raises(ContractViolation):
        sample_class(np.array([1.5, -0.5]), rng)


# -- run-window predictive ------------------------------------------------


def test_run_predictive_empty_window_is_one():
    s = _state_with_labels([1, 2, 1], alpha=0.5)
    for k in (1, 2, 3):
        assert s.run_predictive(0, k) == 1.0


def test_run_predictive_window_counts():
    # window of the last 3 labels: (1, 1, 2)
    s = _state_with_labels([1, 1, 1, 2], alpha=1.0)
    assert s.run_predictive(3, 1) == pytest.approx(0.5)
    assert s.run_predictive(3, 2) == pytest.approx(0.25)
    assert s.run_predictive(3, 3) == pytest.approx(0.25)  # unseen: new-table mass


def test_run_predictive_window_equals_history_matches_global():
    rng = np.random.default_rng(5)
    for alpha in (0.5, 1.0, 2.0):
        labels = random_canonical_labels(rng, 30)
        s = _state_with_labels(labels, alpha)
        g = s.global_predictive()
        for k in range(1, s.k_current + 2):
            assert s.run_predictive(s.t, k) == pytest.approx(g[k - 1], rel=1e-12)


def test_run_predictive_additivity_over_window():
    rng = np.random.default_rng(9)
    labels = random_canonical_labels(rng, 25)
    s = _state_with_labels(labels, alpha=1.3)
    for r in range(0, 26):
        seen = set(labels[len(labels) - r :])
        total = sum(s.run_predictive(r, k) for k in seen)
        total += s.alpha / (r + s.alpha)  # the shared new-table mass
        assert total == pytest.approx(1.0, rel=1e-12)


def test_run_predictive_rejects_window_beyond_history():
    s = _state_with_labels([1, 1])
    with pytest.raises(ContractViolation):
        s.run_predictive(3, 1)


def test_run_predictive_rejects_unknown_class():
    s = _state_with_labels([1, 1])
    with pytest.raises(ContractViolation):
        s.run_predictive(1, 3)  # only class 2 may be new


# -- recording -------------------------------------------------------------


def test_record_first_assignment():
    s = CrpState(1.0)
    s.record_assignment(1)
    assert s.t == 1
    np.testing.assert_array_equal(s._counts.prefix(1), [0, 1])
    assert s.k_current == 1
    np.testing.assert_array_equal(s.counts(), [1])


def test_record_accumulates_counts():
    s = _state_with_labels([1, 2])
    s.record_assignment(2)
    assert s.counts().sum() == 3
    assert s.counts()[1] == 2


def test_record_rejects_gapped_class():
    s = _state_with_labels([1])
    with pytest.raises(ContractViolation):
        s.record_assignment(3)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_record_long_random_stream_invariants(seed):
    rng = np.random.default_rng(seed)
    s = CrpState(1.0)
    labels = []
    for i in range(400):
        labels.append(int(rng.integers(1, s.k_current + 2)))
        s.record_assignment(labels[-1])
        assert s.counts().sum() == i + 1
        assert s.k_current == len(set(labels))
    # prefix sequences are monotone and consistent with the counts
    for k in range(1, s.k_current + 1):
        pref = s._counts.prefix(k)
        assert np.all(np.diff(pref) >= 0)
        assert pref[-1] == labels.count(k) == s.counts()[k - 1]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=120),
    st.lists(st.tuples(st.integers(1, 6), st.integers(0, 4)), min_size=1, max_size=40),
)
def test_label_counts_window_queries_match_brute_force(labels, queries):
    # Queries interleave with records; sparse run sets take the binary
    # search, dense ones the kept prefix counts of the queried class.
    lc = LabelCounts()
    qi = 0
    for i, z in enumerate(labels):
        lc.record(z)
        k, spread = queries[qi % len(queries)]
        qi += 1
        t = i + 1
        runs = np.arange(0, t + 1, spread + 1) if spread < 4 else np.array([0, t])
        want = [labels[t - r : t].count(k) for r in runs]
        np.testing.assert_array_equal(lc.window_counts(k, runs), want)
        assert lc.total(k) == labels[:t].count(k)
    for k in range(1, 7):
        want = [labels[:tau].count(k) for tau in range(len(labels) + 1)]
        np.testing.assert_array_equal(lc.prefix(k), want)
    np.testing.assert_array_equal(lc.totals(6), [labels.count(k) for k in range(1, 7)])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=60),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_global_predictive_is_counts_over_t_plus_alpha(choices, alpha):
    s = CrpState(alpha)
    for c in choices:
        s.record_assignment(min(c + 1, s.k_current + 1))
    want = np.array([*s.counts().astype(float), alpha]) / (s.t + alpha)
    np.testing.assert_array_equal(s.global_predictive(), want)


def test_label_counts_window_queries():
    lc = LabelCounts(3)
    for z in [1, 2, 2, 3, 2]:
        lc.record(z)
    np.testing.assert_array_equal(lc.window_counts(2, np.array([0, 1, 2, 3, 5])), [0, 1, 1, 2, 3])
    np.testing.assert_array_equal(lc.totals(3), [1, 3, 1])


# -- sequence probability / exchangeability --------------------------------


def test_sequence_probability_singleton():
    assert sequence_probability([1], 0.7) == 1.0


def test_sequence_probability_chain_rule():
    assert sequence_probability([1, 2, 2], 1.0) == pytest.approx(1 / 6)
    assert sequence_probability([1, 1, 2], 1.0) == pytest.approx(1 / 6)


def test_sequence_probability_rejects_non_canonical():
    with pytest.raises(ContractViolation):
        sequence_probability([2, 1], 1.0)


def _eppf(sizes, alpha):
    # closed-form partition probability, exact rational arithmetic
    a = Fraction(alpha)
    n = sum(sizes)
    num = a ** len(sizes)
    for s in sizes:
        num *= math.factorial(s - 1)
    den = Fraction(1)
    for i in range(n):
        den *= a + i
    return float(num / den)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("length", [2, 3, 4, 5])
def test_exchangeability_matches_closed_form(alpha, length):
    for seq in all_canonical_sequences(length):
        sizes = [seq.count(k) for k in sorted(set(seq))]
        assert sequence_probability(seq, alpha) == pytest.approx(
            _eppf(sizes, alpha), rel=1e-14
        )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_canonical_sequences_partition_unity(alpha):
    for length in (1, 2, 3, 4, 5):
        total = sum(sequence_probability(s, alpha) for s in all_canonical_sequences(length))
        assert total == pytest.approx(1.0, rel=1e-12)
