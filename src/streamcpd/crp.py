"""Chinese-restaurant-process bookkeeping over the MAP label history.

The state never represents class probabilities explicitly: both the global
predictive and the per-run-window predictive come straight from seating
counts. Each class keeps the ascending times at which it was recorded, so
memory is linear in the stream length whatever the number of classes. The
count of class k inside the window of the last r labels is c_k(t) - c_k(t -
r), where c_k is the prefix count: the number of k's occurrences at or
before a time. That makes one step's predictive across all live run-length
hypotheses a single vectorized query: a binary search of the occurrence
times when the hypotheses are few against a long history, and otherwise a
gather from the dense prefix counts of the queried class, which are kept
up to date while that class stays the one queried.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractViolation


class LabelCounts:
    """Per-class occurrence times with vectorized windowed queries."""

    def __init__(self, n_classes: int = 0):
        self._occ: list[np.ndarray] = []  # class k: times 1..t it was recorded at
        self._n: list[int] = []  # class k: occurrences so far (valid prefix of _occ)
        self._hot = 0  # class whose dense prefix counts are kept (0: none)
        self._hot_prefix = np.zeros(0, dtype=np.int64)  # c_hot(0..t), then spare room
        self.n_classes = n_classes
        self.t = 0

    def record(self, k: int) -> None:
        """Append one label at time t + 1."""
        if k < 1:
            raise ContractViolation(f"class ids are 1-based, got {k}")
        while len(self._occ) < k:
            self._occ.append(np.empty(16, dtype=np.int64))
            self._n.append(0)
        occ, n = self._occ[k - 1], self._n[k - 1]
        if n == occ.size:
            occ = self._occ[k - 1] = np.concatenate([occ, np.empty_like(occ)])
        self.t += 1
        occ[n] = self.t
        self._n[k - 1] = n + 1
        self.n_classes = max(self.n_classes, k)
        if self._hot:
            c = self._hot_prefix
            if self.t == c.size:
                c = self._hot_prefix = np.concatenate([c, np.empty_like(c)])
            c[self.t] = c[self.t - 1] + (k == self._hot)

    def total(self, k: int) -> int:
        """m_k: occurrences of class k over the whole history."""
        return self._n[k - 1] if k <= len(self._n) else 0

    def totals(self, n: int | None = None) -> np.ndarray:
        """Occurrence counts for classes 1..n (default: all seen classes)."""
        n = self.n_classes if n is None else n
        out = np.zeros(n, dtype=np.int64)
        seen = min(n, len(self._n))
        out[:seen] = self._n[:seen]
        return out

    def window_counts(self, k: int, runs: np.ndarray) -> np.ndarray:
        """Count of class k among the last r labels, vectorized over r."""
        runs = np.asarray(runs, dtype=np.int64)
        if runs.size and (runs.min() < 0 or runs.max() > self.t):
            raise ContractViolation(f"window lengths must lie in [0, {self.t}]")
        n = self.total(k)
        if n == 0:
            return np.zeros(runs.shape, dtype=np.int64)
        if k != self._hot:
            if runs.size * n.bit_length() < self.t:
                # m binary searches cost about m * log2(n), less than
                # building c_k(0..t) in t steps.
                return n - np.searchsorted(self._occ[k - 1][:n], self.t - runs, side="right")
            self._hot = k
            self._hot_prefix = np.empty(2 * (self.t + 1), dtype=np.int64)
            self._hot_prefix[: self.t + 1] = self.prefix(k)
        c = self._hot_prefix
        return c[self.t] - c[self.t - runs]

    def prefix(self, k: int) -> np.ndarray:
        """The prefix-count sequence c_k(0..t) for one class."""
        occ = self._occ[k - 1][: self._n[k - 1]] if k <= len(self._occ) else np.zeros(0, np.int64)
        return np.cumsum(np.bincount(occ, minlength=self.t + 1))


class CrpState:
    """CRP seating over the MAP label history.

    Labels are canonical: class ids are assigned in order of first
    appearance, so ids are the contiguous range 1..k_current with no gaps.
    """

    def __init__(self, alpha: float):
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
            raise ConfigError(f"CRP concentration alpha must be positive, got {alpha!r}")
        self.alpha = float(alpha)
        self.k_current = 0
        self._counts = LabelCounts(0)
        # m_1..m_K as floats, then alpha in slot K; capacity doubles.
        self._weights = np.zeros(16)
        self._weights[0] = self.alpha

    @property
    def t(self) -> int:
        return self._counts.t

    def global_predictive(self) -> np.ndarray:
        """Predictive over classes 1..K+1 given the full label history.

        Entry k <= K is m_k / (t + alpha); the last entry is the new-class
        mass alpha / (t + alpha). Sums to 1 exactly up to rounding.
        """
        return self._weights[: self.k_current + 1] / (self.t + self.alpha)

    def run_predictive_many(self, runs: np.ndarray, k: int) -> np.ndarray:
        """Predictive of label k restricted to the last-r-labels window, for
        each window length in ``runs``.

        With w = count of k in the window: w / (r + alpha) if w > 0, else
        the new-table mass alpha / (r + alpha). An unseen-in-window class
        gets the full new-table mass; under the CRP, "not in this window"
        is exactly the new-table event. For r = 0 the window is empty and
        the value is alpha / alpha = 1.
        """
        if not (1 <= k <= self.k_current + 1):
            raise ContractViolation(
                f"class id {k} out of range 1..{self.k_current + 1}"
            )
        runs = np.asarray(runs, dtype=np.int64)
        w = self._counts.window_counts(k, runs)
        num = np.where(w > 0, w.astype(float), self.alpha)
        return num / (runs + self.alpha)

    def record_assignment(self, k: int) -> None:
        """Record the MAP label for this step; opens class K+1 if k is new."""
        if not (1 <= k <= self.k_current + 1):
            raise ContractViolation(
                f"cannot record class {k}: next unused id is {self.k_current + 1}"
            )
        self._counts.record(k)
        if k == self.k_current + 1:
            if k == self._weights.size:
                self._weights = np.concatenate([self._weights, np.zeros(k)])
            self._weights[k - 1] = 0.0
            self._weights[k] = self.alpha
            self.k_current = k
        self._weights[k - 1] += 1.0

    def counts(self) -> np.ndarray:
        """Current per-class totals m_1..m_K."""
        return self._counts.totals(self.k_current)


def sequence_probability(labels, alpha: float) -> float:
    """Chain-rule probability of a canonical label sequence under the CRP.

    Canonical means classes are numbered by first appearance (1, then 2,
    ...). Intended for tests: exchangeability says the value depends only
    on the sizes of the induced blocks.
    """
    labels = list(labels)
    if not (isinstance(alpha, (int, float)) and alpha > 0):
        raise ConfigError(f"alpha must be positive, got {alpha!r}")
    seen = 0
    counts: dict[int, int] = {}
    prob = 1.0
    for i, z in enumerate(labels):
        if not (1 <= z <= seen + 1):
            raise ContractViolation(
                f"labels must be canonically numbered; position {i} has {z}, expected <= {seen + 1}"
            )
        if z == seen + 1:
            prob *= alpha / (i + alpha)
            seen += 1
        else:
            prob *= counts[z] / (i + alpha)
        counts[z] = counts.get(z, 0) + 1
    return prob
