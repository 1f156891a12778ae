"""Chinese-restaurant-process bookkeeping over the MAP label history.

One ledger, :class:`LabelCounts`, holds the seating counts of the label
history, and both latent models read their predictives from it: the class
prior (the CRP's is :func:`crp_prior`) and the window counts, which
:func:`window_predictive` turns into the predictive of the step's label
under every live run length. No state represents class probabilities
explicitly.

The ledger keeps the class totals m_1..m_K as one float array, and for each
class the ascending times at which it was recorded, so memory is linear in
the stream length whatever the number of classes. The count of class k
inside the window of the last r labels is c_k(t) - c_k(t - r), where c_k is
the prefix count: the number of k's occurrences at or before a time. That
makes one step's predictive across all live run-length hypotheses a single
vectorized query: a binary search of the occurrence times when the
hypotheses are few against a long history, and otherwise a gather from the
dense prefix counts of the queried class, which are kept up to date while
that class stays the one queried. When the caller states that the window
lengths are dense, ``0..n-1`` (as an unpruned trellis's run lengths are),
the starts t - r are t, t-1, ..., t-n+1, and the counts are c_k(t) minus a
reversed slice of the prefix counts: no index array, range scan or gather.

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
    """Per-class totals and occurrence times, with vectorized windowed
    queries. Class ids are 1-based and may be recorded in any order.

    ``m[k - 1]`` is m_k, the occurrences of class k so far, as a float.
    ``m`` always has a zero slot past the highest class id, and room for
    classes 1..``n_classes`` from the start."""

    def __init__(self, n_classes: int = 0):
        self._occ: list[np.ndarray] = []  # class k: times 1..t it was recorded at
        self._hot = 0  # class whose dense prefix counts are kept (0: none)
        self._hot_prefix = np.zeros(0, dtype=np.int64)  # c_hot(0..t), then spare room
        self.m = np.zeros(max(16, n_classes + 1))
        self.t = 0

    @property
    def k(self) -> int:
        """The highest class id recorded (0 before the first label)."""
        return len(self._occ)

    def record(self, k: int) -> None:
        """Append one label at time t + 1."""
        if k < 1:
            raise ContractViolation(f"class ids are 1-based, got {k}")
        if k >= self.m.size:
            self.m = np.concatenate([self.m, np.zeros(k)])
        while len(self._occ) < k:
            self._occ.append(np.empty(16, dtype=np.int64))
        occ, n = self._occ[k - 1], int(self.m[k - 1])
        if n == occ.size:
            occ = self._occ[k - 1] = np.concatenate([occ, np.empty_like(occ)])
        self.t += 1
        occ[n] = self.t
        self.m[k - 1] = n + 1
        if self._hot:
            c = self._hot_prefix
            if self.t == c.size:
                c = self._hot_prefix = np.concatenate([c, np.empty_like(c)])
            c[self.t] = c[self.t - 1] + (k == self._hot)

    def total(self, k: int) -> int:
        """m_k: occurrences of class k over the whole history."""
        return int(self.m[k - 1]) if k <= len(self._occ) else 0

    def window_counts(self, k: int, runs: np.ndarray, dense: bool = False) -> np.ndarray:
        """Count of class k among the last r labels, vectorized over r.

        With ``dense`` the caller states that ``runs`` is ``0..n-1``, as
        trellis run lengths ending in n - 1 are (only n - 1 <= t is
        checked): the counts are then read without building the window
        starts. It is not inferred from ``runs[-1] == n - 1``, which an
        unsorted ``[2, 0, 2]`` passes too."""
        t = self.t
        if dense:
            size = len(runs)
            if size > t + 1:
                raise ContractViolation(f"window lengths must lie in [0, {t}]")
            start = None
        else:
            start = t - np.asarray(runs, dtype=np.int64)
            # r < 0 puts the start past t, and r > t puts it below 0, which
            # as an unsigned integer is also past t: one reduction checks
            # both.
            if start.size and np.maximum.reduce(start.view(np.uint64)) > t:
                raise ContractViolation(f"window lengths must lie in [0, {t}]")
            size = start.size
        n = self.total(k)
        if n == 0:
            return np.zeros(size if start is None else start.shape, dtype=np.int64)
        if k != self._hot:
            if size * n.bit_length() < t:
                # m binary searches cost about m * log2(n), less than
                # building c_k(0..t) in t steps.
                if start is None:
                    start = t - np.asarray(runs, dtype=np.int64)
                return n - self._occ[k - 1][:n].searchsorted(start, side="right")
            self._hot = k
            self._hot_prefix = np.empty(2 * (t + 1), dtype=np.int64)
            self._hot_prefix[: t + 1] = self.prefix(k)
        c = self._hot_prefix
        if start is None:
            # c[t - r] for r = 0..size-1.
            return c[t] - c[t + 1 - size : t + 1][::-1]
        return c[t] - c[start]

    def prefix(self, k: int) -> np.ndarray:
        """The prefix-count sequence c_k(0..t) for one class."""
        occ = self._occ[k - 1][: self.total(k)] if k <= len(self._occ) else np.zeros(0, np.int64)
        return np.cumsum(np.bincount(occ, minlength=self.t + 1))


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
