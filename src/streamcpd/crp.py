"""Chinese-restaurant-process bookkeeping over the MAP label history.

One seating rule gives both predictives a latent model needs: a label seen
w times among n gets num(w) / (n + c), with num(w) = w + smoothing above
num(0) = unseen. Over the whole history (n = t, w = m_k) it is the class
prior; over the last r labels it is the window predictive under run length
r. The CRP's rule has smoothing 0 and unseen = c = alpha (an unseen class is
a new table, so an empty window gives 1); the symmetric Dirichlet over K
classes, which tends to the CRP as K grows with K beta held at alpha, has
smoothing = unseen = beta and c = K beta. One ledger, :class:`LabelCounts`,
holds the labels and the rule's constants and answers both. No state
represents class probabilities explicitly.

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

The window predictive reads the rule from two tables the ledger caches,
num(w) over w and r + c over r: a gather at the window counts and, on dense
window lengths, a prefix slice. Since w <= r, tables past the longest window
cover every query; they double when that window reaches their end.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


class LabelCounts:
    """The label history and the seating rule ``num(w) / (n + c)`` over it:
    per-class totals, vectorized windowed queries, and the class prior and
    window predictive. Class ids are 1-based and may be recorded in any
    order. ``smoothing``, ``unseen`` and ``c`` are the rule's constants (the
    defaults are the CRP's at alpha = 1).

    ``m[k - 1]`` is m_k, the occurrences of class k so far, as a float.
    ``m`` always has a zero slot past the highest class id. ``k`` is the
    highest class id recorded (0 before the first label)."""

    def __init__(self, *, smoothing: float = 0.0, unseen: float = 1.0, c: float = 1.0):
        self._labels = np.empty(64, dtype=np.int64)  # the labels at times 1..t
        self._hot = 0  # the class whose counts are kept (0: none)
        self._base = 0  # the counts' start: _counts[j] is c_hot(base + j) - c_hot(base)
        self._counts = np.zeros(0, dtype=np.int64)  # for j = 0..t - base, then spare room
        self.smoothing, self.unseen, self.c = smoothing, unseen, c
        self._num = self._den = np.zeros(0)  # num(w) over w, and r + c over r
        self.m = np.zeros(16)
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

    def class_prior(self, n: int) -> np.ndarray:
        """The rule over the whole history for classes 1..n: ``num(m_k) /
        (t + c)``, which is ``unseen / (t + c)`` past the highest class
        recorded. ``n`` must cover every class recorded. The CRP's sums to
        1 up to rounding at n = k + 1, the Dirichlet's at n = K."""
        k = self.k
        if n < k:
            raise ContractViolation(f"the prior must cover the {k} classes recorded, got {n}")
        p = np.empty(n)
        np.add(self.m[:k], self.smoothing, out=p[:k])
        p[k:] = self.unseen
        p /= self.t + self.c
        return p

    def window_predictive(self, k: int, runs: np.ndarray, dense: bool = False) -> np.ndarray:
        """``num(w) / (r + c)`` for class k at each run length r in
        ``runs``, with w the count of k among the last r labels.

        With ``dense`` the caller states that ``runs`` is ``0..n-1``, as
        trellis run lengths ending in n - 1 are (only n - 1 <= t is
        checked): the counts are then read without building the window
        starts, and the denominators are a prefix of their table, not
        ``runs + c``: the same floats, since every r below 2^53 is exact as
        a float. It is not inferred from ``runs[-1] == n - 1``, which an
        unsorted ``[2, 0, 2]`` passes too."""
        w, runs, longest = self._window_counts(k, runs, dense)
        size = self._den.size
        if max(longest, 0) >= size:  # an empty query reads den[0] too
            r = np.arange(max(64, 2 * size, longest + 1), dtype=float)
            self._num = r + self.smoothing
            self._num[0] = self.unseen
            self._den = r + self.c
        num = self._num.take(w)
        return num / (self._den[: w.size] if dense else runs + self._den[0])

    def _window_counts(self, k: int, runs, dense: bool):
        """The count of class k among the last r labels for each r in
        ``runs``, ``runs`` (int64 unless dense), and the longest window (-1
        if none)."""
        t = self.t
        if dense:
            longest = len(runs) - 1
        else:
            runs = np.asarray(runs, dtype=np.int64)
            # A negative r, read as an unsigned integer, lies past t too, so
            # one maximum (read at its argmax, cheaper than a reduction)
            # checks both ends and, when they hold, gives the longest window.
            u = runs.view(np.uint64)
            longest = int(u[u.argmax()]) if runs.size else -1
        if longest > t:
            raise ContractViolation(f"window lengths must lie in [0, {t}]")
        if k > self.k or not self.m[k - 1]:  # m_k = 0: k is not in the window
            return np.zeros(len(runs), dtype=np.int64), runs, longest
        lo = t - max(longest, 0)
        if k != self._hot or lo < self._base:
            c = self._counts = np.empty(2 * (t - lo + 1), dtype=np.int64)
            c[0] = 0
            np.cumsum(self._labels[lo:t] == k, out=c[1 : t - lo + 1])
            self._hot, self._base = k, lo
        c, end = self._counts, t - self._base
        if dense:
            # c at t - r for r = 0..longest.
            return c[end] - c[end - longest : end + 1][::-1], runs, longest
        return c[end] - c[end - runs], runs, longest
