"""Chinese-restaurant-process bookkeeping over the MAP label history.

One ledger, :class:`LabelCounts`, holds the seating counts of the label
history, and both latent models read their predictives from it: the class
prior (the CRP's is :func:`crp_prior`) and the window counts, which
:func:`window_predictive` turns into the predictive of the step's label
under every live run length. No state represents class probabilities
explicitly.

The ledger keeps the class totals m_1..m_K as one float array and the labels
themselves as one int64 history, so memory is linear in the stream length
whatever the number of classes. The count of class k inside the window of
the last r labels is c_k(t) - c_k(t - r), where c_k is the prefix count:
the number of k's occurrences at or before a time. The ledger keeps those
counts for the class last queried, from a kept start ``base`` on, and
``record`` appends one entry to them. A query reaches back to ``lo = t -
max(r)``; when it names another class, or reaches before ``base``, the
counts are rebuilt from ``lo`` by one ``cumsum`` over the labels since
then. So one step's predictive across all live run-length hypotheses is a
single gather from those counts, and the rebuilds touch only the labels
inside the longest live window, not the whole history. When the caller
states that the window lengths are dense, ``0..n-1`` (as an unpruned
trellis's run lengths are), the starts t - r are t, t-1, ..., t-n+1, and
the counts are c_k(t) minus a reversed slice: no index array or gather.

Both latent models' window predictives have the form num(w) / (r + c), for
a label seen w times among the last r labels. The CRP's has num = w, or the
new-table mass alpha at w = 0, and c = alpha: a label absent from the window
is a new table in it, so an empty window gives 1. The symmetric Dirichlet over
K classes, which tends to the CRP as K grows with K beta held at alpha, has
num = w + beta and c = K beta. So each model keeps one pair of tables: the
numerators, indexed by w, and the denominators r + c over r = 0, 1, 2, ....
:func:`window_predictive` gathers the first at the window counts and, on
dense window lengths, reads the second by a prefix slice. Since w <= r,
tables longer than the largest live run length cover every step.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


class LabelCounts:
    """Per-class totals and the label history, with vectorized windowed
    queries. Class ids are 1-based and may be recorded in any order.

    ``m[k - 1]`` is m_k, the occurrences of class k so far, as a float.
    ``m`` always has a zero slot past the highest class id, and room for
    classes 1..``n_classes`` from the start. ``k`` is the highest class id
    recorded (0 before the first label)."""

    def __init__(self, n_classes: int = 0):
        self._labels = np.empty(64, dtype=np.int64)  # the labels at times 1..t
        self._hot = 0  # the class whose counts are kept (0: none)
        self._base = 0  # the counts' start: _counts[j] is c_hot(base + j) - c_hot(base)
        self._counts = np.zeros(0, dtype=np.int64)  # for j = 0..t - base, then spare room
        self.m = np.zeros(max(16, n_classes + 1))
        self.k = 0
        self.t = 0

    def record(self, k: int) -> None:
        """Append one label at time t + 1."""
        if k < 1:
            raise ContractViolation(f"class ids are 1-based, got {k}")
        if k >= self.m.size:
            self.m = np.concatenate([self.m, np.zeros(k)])
        t = self.t
        if t == self._labels.size:
            self._labels = np.concatenate([self._labels, np.empty_like(self._labels)])
        self._labels[t] = k
        self.t = t = t + 1
        self.m[k - 1] += 1
        self.k = max(self.k, k)
        if self._hot:
            c, j = self._counts, t - self._base
            if j == c.size:
                c = self._counts = np.concatenate([c, np.empty_like(c)])
            c[j] = c[j - 1] + (k == self._hot)

    def total(self, k: int) -> int:
        """m_k: occurrences of class k over the whole history."""
        return int(self.m[k - 1]) if k <= self.k else 0

    def window_counts(self, k: int, runs: np.ndarray, dense: bool = False) -> np.ndarray:
        """Count of class k among the last r labels, vectorized over r.

        With ``dense`` the caller states that ``runs`` is ``0..n-1``, as
        trellis run lengths ending in n - 1 are (only n - 1 <= t is
        checked): the counts are then read without building the window
        starts. It is not inferred from ``runs[-1] == n - 1``, which an
        unsorted ``[2, 0, 2]`` passes too."""
        t = self.t
        if dense:
            longest = len(runs) - 1
        else:
            runs = np.asarray(runs, dtype=np.int64)
            # A negative r, read as an unsigned integer, lies past t too, so
            # one reduction checks both ends and, when they hold, gives the
            # longest window.
            longest = int(np.maximum.reduce(runs.view(np.uint64))) if runs.size else -1
        if longest > t:
            raise ContractViolation(f"window lengths must lie in [0, {t}]")
        if self.total(k) == 0:
            return np.zeros(len(runs), dtype=np.int64)
        lo = t - max(longest, 0)
        if k != self._hot or lo < self._base:
            c = self._counts = np.empty(2 * (t - lo + 1), dtype=np.int64)
            c[0] = 0
            np.cumsum(self._labels[lo:t] == k, out=c[1 : t - lo + 1])
            self._hot, self._base = k, lo
        c, end = self._counts, t - self._base
        if dense:
            # c at t - r for r = 0..longest.
            return c[end] - c[end - longest : end + 1][::-1]
        return c[end] - c[end - runs]


def crp_prior(counts: LabelCounts, alpha: float) -> np.ndarray:
    """CRP predictive over classes 1..K+1 given the full label history.

    Entry k <= K is m_k / (t + alpha); the last entry is the new-class mass
    alpha / (t + alpha). Sums to 1 exactly up to rounding. The labels must
    be canonical (numbered by first appearance), so K classes are 1..K.
    """
    k = counts.k
    p = counts.m[: k + 1].copy()
    p[k] = alpha
    p /= counts.t + alpha
    return p


def window_predictive(
    w: np.ndarray,
    runs: np.ndarray,
    numerators: np.ndarray,
    denominators: np.ndarray,
    dense: bool,
) -> np.ndarray:
    """A latent model's window predictive of one label at each run length
    r in ``runs``, where the label occurred ``w`` times among the last r
    labels (:meth:`LabelCounts.window_counts`): ``numerators[w] / (r +
    denominators[0])``.

    ``numerators`` is indexed by window count and must cover every one of
    them; since w <= r, a table longer than the largest run length does.
    ``denominators`` is ``r + c`` over r = 0, 1, 2, ...; with ``dense`` the
    caller states that ``runs`` is ``0..n-1``, and the denominators are read
    as the table's first n entries, which must exist, instead of computed
    as ``runs + c``. Both give the same floats, since every r below 2^53
    converts to float exactly.
    """
    if dense and w.size > denominators.size:
        raise ContractViolation(
            f"the denominator table covers run lengths below {denominators.size} only"
        )
    try:
        num = numerators.take(w)
    except IndexError:
        raise ContractViolation(
            f"the numerator table covers window counts below {numerators.size} only"
        ) from None
    return num / (denominators[: w.size] if dense else runs + denominators[0])
