import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcpd import ContractViolation
from streamcpd.crp import LabelCounts

from conftest import all_canonical_sequences, crp_rule, dirichlet_rule, random_canonical_labels
from reference import sequence_probability


def _counts_with_labels(labels, alpha=1.0):
    """A CRP ledger at ``alpha`` that has recorded ``labels``."""
    lc = LabelCounts(**crp_rule(alpha))
    for z in labels:
        lc.record(z)
    return lc


def _crp_prior(lc):
    """The CRP class prior over the seen classes and a new one."""
    return lc.class_prior(lc.k + 1)


# -- global predictive ---------------------------------------------------


def test_first_customer_always_opens_a_table():
    np.testing.assert_allclose(_crp_prior(LabelCounts(**crp_rule(3.7))), [1.0])


def test_global_predictive_counts():
    lc = _counts_with_labels([1, 1, 2])  # m = [2, 1], t = 3
    np.testing.assert_allclose(_crp_prior(lc), [0.5, 0.25, 0.25])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=60),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_global_predictive_is_a_distribution(choices, alpha):
    lc = LabelCounts(**crp_rule(alpha))
    for c in choices:
        lc.record(min(c + 1, lc.k + 1))
    p = _crp_prior(lc)
    assert np.all(p >= 0) and np.all(p <= 1)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


# -- run-window predictive ------------------------------------------------


def test_run_predictive_empty_window_is_one():
    lc = _counts_with_labels([1, 2, 1], alpha=0.5)
    for k in (1, 2, 3):
        assert lc.window_predictive(k, np.array([0]))[0] == 1.0


def test_run_predictive_window_counts():
    # window of the last 3 labels: (1, 1, 2)
    lc = _counts_with_labels([1, 1, 1, 2])
    r = np.array([3])
    assert lc.window_predictive(1, r)[0] == pytest.approx(0.5)
    assert lc.window_predictive(2, r)[0] == pytest.approx(0.25)
    assert lc.window_predictive(3, r)[0] == pytest.approx(0.25)  # unseen: new-table mass


def test_run_predictive_window_equals_history_matches_global():
    rng = np.random.default_rng(5)
    for alpha in (0.5, 1.0, 2.0):
        labels = random_canonical_labels(rng, 30)
        lc = _counts_with_labels(labels, alpha)
        g = _crp_prior(lc)
        for k in range(1, lc.k + 2):
            got = lc.window_predictive(k, np.array([lc.t]))[0]
            assert got == pytest.approx(g[k - 1], rel=1e-12)


def test_run_predictive_additivity_over_window():
    rng = np.random.default_rng(9)
    labels = random_canonical_labels(rng, 25)
    alpha = 1.3
    lc = _counts_with_labels(labels, alpha)
    for r in range(0, 26):
        seen = set(labels[len(labels) - r :])
        total = sum(lc.window_predictive(k, np.array([r]))[0] for k in seen)
        total += alpha / (r + alpha)  # the shared new-table mass
        assert total == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_run_predictive_gathers_the_new_table_numerator(alpha):
    # A long label history queried at a sparse (pruned) set of run lengths,
    # against the formula written out.
    rng = np.random.default_rng(17)
    lc = _counts_with_labels(random_canonical_labels(rng, 40) + [1, 2, 3] * 120, alpha)
    runs = np.unique(np.r_[0, rng.choice(lc.t + 1, 60, replace=False), lc.t])
    for k in range(1, lc.k + 2):
        w = lc._window_counts(k, runs, dense=False)[0]
        want = np.where(w > 0, w, alpha) / (runs + alpha)
        np.testing.assert_array_equal(lc.window_predictive(k, runs), want)


def test_run_predictive_grows_its_tables_past_the_longest_window():
    # The ledger's tables start at 64 entries. An unsorted query whose
    # longest window, not its last, lies past them grows them; so does a
    # dense one. Each is answered, not refused for a short table.
    labels = [1, 2, 2] * 70
    lc = _counts_with_labels(labels, alpha=0.5)
    t = lc.t
    for runs, dense in (([200, 0, 5], False), (list(range(t + 1)), True), ([t, 3, 70], False)):
        runs = np.array(runs)
        w = np.array([labels[t - r :].count(1) for r in runs])
        want = np.where(w > 0, w, 0.5) / (runs + 0.5)
        np.testing.assert_array_equal(lc.window_predictive(1, runs, dense), want)


def test_run_predictive_rejects_window_beyond_history():
    lc = _counts_with_labels([1, 1])
    with pytest.raises(ContractViolation):
        lc.window_predictive(1, np.array([3]))


# -- recording -------------------------------------------------------------


def test_record_first_assignment():
    lc = LabelCounts()
    lc.record(1)
    assert lc.t == 1
    w = lc._window_counts(1, np.arange(lc.t + 1), dense=False)[0]
    np.testing.assert_array_equal(w, [0, 1])
    assert lc.k == 1
    np.testing.assert_array_equal(lc.m[: lc.k], [1])


def test_record_accumulates_counts():
    lc = _counts_with_labels([1, 2])
    lc.record(2)
    assert lc.m[: lc.k].sum() == 3
    assert lc.m[1] == 2


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_record_long_random_stream_invariants(seed):
    rng = np.random.default_rng(seed)
    lc = LabelCounts()
    labels = []
    for i in range(400):
        labels.append(int(rng.integers(1, lc.k + 2)))
        lc.record(labels[-1])
        assert lc.m[: lc.k].sum() == i + 1
        assert lc.k == len(set(labels))
        # the totals always end in a spare zero slot past the highest id
        assert lc.m.size > lc.k and not lc.m[lc.k :].any()
    # every window count against the labels, counted from the end; the
    # whole history's agrees with the totals
    ends = np.array(labels[::-1])
    for k in range(1, lc.k + 1):
        w = lc._window_counts(k, np.arange(lc.t + 1), dense=False)[0]
        np.testing.assert_array_equal(w, np.r_[0, np.cumsum(ends == k)])
        assert w[-1] == labels.count(k) == lc.m[k - 1]


def _query(kind, t, seed):
    """The window lengths of one query at time t, and whether the query
    states that they are dense."""
    rng = np.random.default_rng(seed)
    if kind == "strided":
        return np.arange(0, t + 1, seed % 4 + 1), False
    if kind == "ends":
        return np.array([0, t]), False
    if kind == "unsorted":  # in any order, with repeats
        return rng.integers(0, t + 1, rng.integers(1, 6)), False
    if kind == "dense":
        return np.arange(rng.integers(1, t + 2)), True
    # "short": a window of at most 2 labels, so a rebuild for it keeps the
    # counts from t - 2 on, and a longer query of the same class reaches
    # before them.
    return np.array([min(t, int(seed % 3))]), False


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=120),
    st.lists(
        st.tuples(
            st.integers(1, 6),
            st.sampled_from(["strided", "ends", "unsorted", "dense", "short"]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_label_counts_window_queries_match_brute_force(labels, queries):
    # Queries interleave with records: each class change, and each query
    # that reaches before the queried class's kept counts, rebuilds them;
    # the others read the counts that record kept up to date.
    lc = LabelCounts()
    qi = 0
    for i, z in enumerate(labels):
        lc.record(z)
        k, kind, seed = queries[qi % len(queries)]
        qi += 1
        t = i + 1
        runs, dense = _query(kind, t, seed)
        want = [labels[t - r : t].count(k) for r in runs]
        np.testing.assert_array_equal(lc._window_counts(k, runs, dense)[0], want)
        assert lc.m[k - 1] == labels[:t].count(k)
    t = len(labels)
    for k in range(1, 7):
        want = [labels[t - r :].count(k) for r in range(t + 1)]
        w = lc._window_counts(k, np.arange(t + 1), dense=False)[0]
        np.testing.assert_array_equal(w, want)
    np.testing.assert_array_equal(lc.m[:6], [labels.count(k) for k in range(1, 7)])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=60),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_global_predictive_is_counts_over_t_plus_alpha(choices, alpha):
    lc = LabelCounts(**crp_rule(alpha))
    for c in choices:
        lc.record(min(c + 1, lc.k + 1))
    want = np.array([*lc.m[: lc.k], alpha]) / (lc.t + alpha)
    np.testing.assert_array_equal(_crp_prior(lc), want)


@settings(max_examples=40, deadline=None)
@given(
    dirichlet=st.booleans(),
    conc=st.sampled_from([0.3, 0.5, 2.0]),
    classes=st.sampled_from([1, 5]),
    length=st.integers(min_value=1, max_value=300),
    seed=st.integers(0, 2**32 - 1),
)
def test_ledger_rule_equals_the_crp_and_dirichlet_formulas(dirichlet, conc, classes, length, seed):
    # The class prior and the window predictive against the CRP's and the
    # symmetric Dirichlet's formulas written out, bit for bit, after every
    # record. Each step first queries the label just recorded at unsorted
    # run lengths led by the longest window, t: so the tables double on an
    # unsorted query whose largest entry is past them (at t = 64, 128 and
    # 256), where a one-class stream's window count is t too. Then any
    # class, seen or not, at unsorted sparse run lengths with repeats and
    # at dense ones.
    k_fixed = 7
    rule = dirichlet_rule(k_fixed, conc) if dirichlet else crp_rule(conc)
    lc = LabelCounts(**rule)
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, classes + 1, length)
    m = np.zeros(k_fixed)
    for t, z in enumerate(labels.tolist(), 1):
        lc.record(z)
        m[z - 1] += 1
        if dirichlet:
            want = (m + conc) / (t + k_fixed * conc)
            np.testing.assert_array_equal(lc.class_prior(k_fixed), want)
        else:
            want = np.r_[m[: lc.k], conc] / (t + conc)
            np.testing.assert_array_equal(lc.class_prior(lc.k + 1), want)
        with pytest.raises(ContractViolation):  # the prior covers every class seen
            lc.class_prior(lc.k - 1)
        q = int(rng.integers(1, classes + 2))
        queries = (
            (z, np.r_[t, rng.integers(0, t + 1, 3)], False),
            (q, rng.integers(0, t + 1, rng.integers(1, 8)), False),
            (q, np.arange(rng.integers(1, t + 2)), True),
        )
        for k, runs, dense in queries:
            w = np.r_[0, np.cumsum(labels[:t][::-1] == k)][runs]
            if dirichlet:
                want = (w + conc) / (runs + k_fixed * conc)
            else:
                want = np.where(w > 0, w, conc) / (runs + conc)
            np.testing.assert_array_equal(lc.window_predictive(k, runs, dense), want)


@pytest.mark.parametrize("runs", [[-1], [5], [0, -1], [5, 0], [2, 4, 5]])
@pytest.mark.parametrize("k", [1, 2])  # class 1's counts are rebuilt, 2's are kept
def test_label_counts_reject_windows_outside_the_history(runs, k):
    lc = _counts_with_labels([1, 2, 2, 2])
    lc._window_counts(2, np.arange(5), dense=False)
    with pytest.raises(ContractViolation):
        lc._window_counts(k, np.array(runs), dense=False)


@pytest.mark.parametrize("k", [1, 2])
def test_unsorted_window_query_is_not_read_as_dense(k):
    # [2, 0, 2] ends in its size minus 1, as 0..n-1 does; only a caller
    # holding trellis run lengths may say a query is dense.
    labels = [1, 2, 2, 2]
    lc = _counts_with_labels(labels)
    lc._window_counts(2, np.arange(5), dense=False)
    runs = np.array([2, 0, 2])
    want = [labels[4 - r :].count(k) for r in runs]
    np.testing.assert_array_equal(lc._window_counts(k, runs, dense=False)[0], want)
    np.testing.assert_array_equal(
        lc.window_predictive(k, runs), np.where(want, want, 1.0) / (runs + 1.0)
    )


@pytest.mark.parametrize("k", [1, 2])
def test_dense_window_query_longer_than_the_history_is_refused(k):
    lc = _counts_with_labels([1, 2, 2, 2])
    lc._window_counts(2, np.arange(5), dense=False)
    np.testing.assert_array_equal(lc._window_counts(k, np.arange(5), dense=True)[0],
                                  lc._window_counts(k, np.arange(5), dense=False)[0])
    np.testing.assert_array_equal(lc.window_predictive(k, np.arange(5), dense=True),
                                  lc.window_predictive(k, np.arange(5)))
    with pytest.raises(ContractViolation):
        lc._window_counts(k, np.arange(6), dense=True)
    with pytest.raises(ContractViolation):
        lc.window_predictive(k, np.arange(6), dense=True)


def test_label_counts_window_queries():
    lc = LabelCounts()
    for z in [1, 2, 2, 3, 2]:
        lc.record(z)
    w = lc._window_counts(2, np.array([0, 1, 2, 3, 5]), dense=False)[0]
    np.testing.assert_array_equal(w, [0, 1, 1, 2, 3])
    np.testing.assert_array_equal(lc.m[:3], [1, 3, 1])


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
