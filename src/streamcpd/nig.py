"""Normal-Inverse-Gamma (NIG) conjugate math: the prior, the run-length table
and its Student-t pass, which on the prior column is the prior predictive.

The baseline's NIG posterior after a window of r observations has kappa_r =
kappa0 + r and a_r = a0 + r/2, which depend on r alone, so it reads two
tables:

- the hypothesis table, ``(2, n)``, the trellis state's ``columns`` and so
  aligned with its run lengths: row ``mu`` and row ``B = 2 b (kappa + 1) /
  kappa``, the Student-t's degrees of freedom times its squared scale. Column
  0 is always the prior (run length 0, an empty window), so its predictive
  is also the reset predictive. The initial state holds no columns: its one
  hypothesis, run length 0, has the prior.
- the run-length table, ``(4, n)`` and indexed by run length r: ``c_r =
  D_r - log(pi)/2``, ``h_r = a_r + 1/2``, ``1/kappa_{r+1}`` and ``rho_r =
  kappa_r (kappa_r + 2) / (kappa_r + 1)^2``, computed as ``(kappa_r /
  kappa_{r+1}) ((kappa_r + 2) / kappa_{r+1})``: each factor is accurate to
  an ulp for any kappa_r (``1 - (1/kappa_{r+1})^2`` would cancel to 0 for
  kappa0 below 1e-16) and neither can overflow. ``D_r = lgamma(a_r + 1/2)
  - lgamma(a_r)`` follows the exact recurrence ``D(a + 1/2) = log(a) -
  D(a)`` from a ``math.lgamma`` seed (the asymptotic series of D(a) from a0
  = 256 up), which is also more accurate than the difference of two large
  log gammas. The table is rebuilt at twice its size when a live run
  length outgrows it, up to ``_TABLE_CAP`` rows; the rows of the few
  hypotheses older than that are computed at each step from kappa0 + r,
  a0 + r/2 and the asymptotic series of D(a), so the model's memory stays
  bounded by the live hypotheses on an unbounded stream. A step reads the
  table with one gather at the live run lengths, or as its first n columns
  when they are dense.

One pass over the columns computes ``d = x - mu`` and ``d^2`` once and uses
them both for the Student-t log predictive ``log p = c_r - log(B)/2 - h_r
log1p(d^2 / B)`` and for the next table: ``mu' = mu + d / kappa_{r+1}`` and
``B' = (B + d^2) rho_r``. The latter follows from the conjugate update
``b' = b + kappa d^2 / (2 kappa')`` with ``kappa' = kappa + 1``: since ``b =
kappa B / (2 (kappa + 1))``, ``b' = kappa (B + d^2) / (2 kappa')``, and so
``B' = 2 b' (kappa' + 1) / kappa' = (B + d^2) kappa (kappa + 2) / (kappa +
1)^2``. The baseline feeds the trellis its Student-t log densities as they
are, with no exp/log round trip. Its float guard decorates the pass, at
0.6-1.15 µs a call against 1.1-2.1 µs for a ``with`` block (see
``emission.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .schema import check_fields, real


@dataclass(frozen=True)
class NigParams:
    """Normal-Inverse-Gamma parameters: the baseline's prior, and the
    posterior the conjugate update folds from it. The bounds keep the
    baseline's arithmetic finite on ordinary observations: (x - mu)^2, the
    prior scale 2 b (kappa + 1) / kappa and a^2 stay below about 1e301.
    The Student-t log density is about -a log1p((x - mu)^2 / B) per step:
    at a = 9e304, mu = 10 and top-1 pruning, the trellis's sum of it
    overflowed at the 614th zero."""

    mu: float = real("[-1e150, 1e150]", 0.0)
    kappa: float = real("[1e-150, 1e150]", 1.0)
    a: float = real("(0, 1e150]", 1.0)
    b: float = real("(0, 1e150]", 1.0)

    __post_init__ = check_fields


# The run-length table stops growing at this many rows (2 MB). Past it a_r
# >= 2^15, where the series of D(a) (_lgamma_half_diff) is off by less than
# 1e-25.
_TABLE_CAP = 1 << 16

# From this a0 up, the table's D_0 is the series of D(a), not a difference
# of two log gammas. Both are within 1e-12 of D(a) from a = 70 to about
# 1200: the series' next term is about 1/(640 a^5), 1.4e-15 here, and the
# difference loses about 1.1e-16 a log(a) to cancellation, 1.6e-13 here
# (0.03 at a0 = 1e13, and all of D from 1e16 up).
_D_SERIES_FROM = 256.0


def _lgamma_half_diff(a):
    """D(a) = lgamma(a + 1/2) - lgamma(a) of a large ``a`` (a number or an
    array), by the series log(a)/2 - 1/(8a) + 1/(192 a^3) + O(a^-5)."""
    return 0.5 * np.log(a) + ((1.0 / 192.0) / np.square(a) - 0.125) / a


def _run_length_rows(kappa: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rows ``c``, ``h``, ``1/kappa'`` and ``rho`` of the run-length table
    (see the module docstring) at run lengths whose posterior has ``kappa``
    and ``a``, with ``d = lgamma(a + 1/2) - lgamma(a)``."""
    out = np.empty((4, kappa.size))
    c, h, inv_k1, rho = out
    np.subtract(d, 0.5 * math.log(math.pi), out=c)
    np.add(a, 0.5, out=h)
    np.add(kappa, 1.0, out=inv_k1)
    np.divide(1.0, inv_k1, out=inv_k1)
    np.multiply(kappa, inv_k1, out=rho)
    rho *= (kappa + 2.0) * inv_k1
    return out


def _run_length_table(p: NigParams, n: int) -> np.ndarray:
    """The baseline's run-length table for run lengths r = 0..n-1 under the
    prior ``p``. kappa_r and a_r are summed one step at a time, as the
    conjugate fold does."""
    kappa = np.add.accumulate(np.r_[p.kappa, np.ones(n - 1)])
    a = np.add.accumulate(np.r_[p.a, np.full(n - 1, 0.5)])
    if p.a < _D_SERIES_FROM:
        d0 = math.lgamma(p.a + 0.5) - math.lgamma(p.a)
    else:
        d0 = float(_lgamma_half_diff(a[0]))
    # D_{r+1} = log(a_r) - D_r.
    d = accumulate(np.log(a[:-1]).tolist(), lambda d_r, log_a: log_a - d_r, initial=d0)
    return _run_length_rows(kappa, a, np.fromiter(d, float, n))


def _run_length_rows_past_cap(p: NigParams, r: np.ndarray) -> np.ndarray:
    """The run-length table's rows at run lengths ``r >= _TABLE_CAP`` under
    the prior ``p``, from closed forms and the series of D(a)."""
    kappa = p.kappa + r
    a = p.a + 0.5 * r
    return _run_length_rows(kappa, a, _lgamma_half_diff(a))


class RunLengthTable:
    """The run-length table ``rows`` of the prior ``p`` at run lengths
    ``0..n-1`` (64 at first), the prior's column ``prior_col``, and the
    pass over both."""

    def __init__(self, p: NigParams):
        self.prior = p
        self.prior_col = np.array([p.mu, 2.0 * p.b * (p.kappa + 1.0) / p.kappa])
        self.rows = _run_length_table(p, 64)

    @np.errstate(over="raise", invalid="raise")
    def log_predictive(self, x: float, run_lengths: np.ndarray, dense: bool, columns):
        """The Student-t log predictive of ``x`` under each column of the
        hypothesis table ``columns`` (None: the prior column alone) at the
        ascending ``run_lengths`` (``0..n-1`` if ``dense``), and the grown
        table. Raises ``FloatingPointError`` if some (x - mu)^2 overflows."""
        n = run_lengths.size
        if run_lengths[-1] < self.rows.shape[1]:
            rows = self.rows[:, :n] if dense else self.rows.take(run_lengths, axis=1)
        else:
            rows = self._rows_past(run_lengths)
        c, h, inv_k1, rho = rows[0], rows[1], rows[2], rows[3]
        if columns is None:
            columns = self.prior_col[:, None]
        mu, big_b = columns[0], columns[1]
        grown = np.empty((2, n + 1))
        grown[:, 0] = self.prior_col
        mu1, big_b1 = grown[0, 1:], grown[1, 1:]
        # mu1 holds d until the last lines turn it into mu'.
        d = np.subtract(x, mu, out=mu1)
        d2 = np.square(d)
        np.add(big_b, d2, out=big_b1)
        log_psi = np.log(big_b)
        log_psi *= -0.5
        log_psi += c
        d2 /= big_b
        np.log1p(d2, out=d2)
        d2 *= h
        log_psi -= d2
        d *= inv_k1
        mu1 += mu
        big_b1 *= rho
        return log_psi, grown

    def _rows_past(self, run_lengths: np.ndarray) -> np.ndarray:
        """The table's columns at ``run_lengths`` (ascending) once the
        largest outgrows the table: the table doubles, up to ``_TABLE_CAP``
        rows, and the rows past it are computed."""
        n = self.rows.shape[1]
        if n < _TABLE_CAP:
            n = min(2 * n, _TABLE_CAP)
            self.rows = _run_length_table(self.prior, n)
        split = np.count_nonzero(run_lengths < n)
        past = _run_length_rows_past_cap(self.prior, run_lengths[split:])
        return np.concatenate((self.rows.take(run_lengths[:split], axis=1), past), axis=1)

