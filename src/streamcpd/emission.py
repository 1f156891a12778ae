"""Per-class Gaussian emission model and the streaming EM step: E-step
responsibilities, one-sample stochastic gradient M-step, MAP class,
per-class adaptive learning-rate decay, and candidate spawning.

Classes live in one struct-of-arrays :class:`ClassTable`: a ``(4, capacity)``
float array whose rows are ``mu``, ``var``, ``eta_mu`` and ``eta_var``, plus
an integer ``born_at`` row. Columns ``0..n-1`` are the live classes, in class
id order (column ``j`` is class ``j + 1``). Capacity starts at 8 and
doubles when full, so spawning a candidate writes column ``n`` and makes it
live, and dropping it again is setting ``n`` back; no step reallocates.
Invariants of every live column: ``var >= var_floor > 0`` (the M-step
clamps at the floor) and both learning rates are positive and never grow
(decay multiplies them by ``1 - decay``, down to the smallest positive
double).

The table owns the emission rule. Its five settings are given once, at
construction, and every function here reads them from the table: the
variance floor, the variance's update form, the winner's decay, the initial
learning rates and the candidate's start (its mean, and its variance
``max(var_floor, var_init)``, at which fixed-k's classes start too).

One observation is one fused pass over the live columns, :func:`em_step`:
the log prior, ``d = x - mu``, ``d^2``, ``2 var`` and ``log var`` are
computed once and shared by the E-step scores and the M-step gradients, the
MAP class is the argmax of the post-update scores, and the new means and
variances are written into the table only once the step has succeeded.

The step is a few dozen numpy calls on arrays of a few elements, so numpy's
per-call dispatch, not the arithmetic, sets its cost. A Python float
operand adds to that cost: numpy converts it anew at every call. So every
operand on the step path is an ndarray: the constants are read-only 0-d
arrays built once here, the observation is converted once per step, and the
table holds ``var_floor`` as one too. The scores and responsibilities are
written out in :func:`em_step` itself. The gradient and the SGD update stay
in their own helpers, :func:`_gradients` and :func:`_sgd_update`, because
the M-step alone, :func:`m_step`, runs them too, and the finite-difference
gradient check calls :func:`_gradients`; so that check tests the arithmetic
the fused step runs. :func:`m_step` is kept only because the benchmark's tracer
self-test checks that tracing restores it.

The scalar reference the table arithmetic is tested against, and the finite
differences the gradient helper is checked with, are in
``tests/reference.py``.
:class:`EmissionParams` is the per-class record the table is read back
into, off the hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .schema import check_fields, real

# The smallest positive double: where decay leaves a learning rate that
# would round to 0.
_MIN_RATE = 5e-324


def _const(value: float) -> np.ndarray:
    """A read-only 0-d float array: an operand numpy does not convert."""
    a = np.array(value, dtype=float)
    a.setflags(False)
    return a


_NEG_HALF = _const(-0.5)
_ONE = _const(1.0)
_TWO = _const(2.0)
_LOG_2PI = _const(math.log(2.0 * math.pi))


@dataclass(frozen=True)
class EmissionParams:
    """Gaussian parameters of one class plus its two adaptive learning rates."""

    mu: float
    var: float
    eta_mu: float
    eta_var: float
    born_at: int = 0

    def __post_init__(self):
        if not (self.var > 0.0):
            raise ContractViolation(f"variance must be positive, got {self.var!r}")
        if not (self.eta_mu > 0.0 and self.eta_var > 0.0):
            raise ContractViolation("learning rates must be positive")


class ClassTable:
    """Struct-of-arrays parameters of the live classes (see the module
    docstring for the layout) and the emission rule over them: the
    variance floor ``var_floor`` (a read-only 0-d array), ``log_space``
    (see :func:`_sgd_update`), the winner's ``decay`` in (0, 1), the
    initial learning rates ``eta_init`` and the candidate's start, ``mu0``
    (None: at the observation) and ``var0``."""

    def __init__(
        self, *, var_floor: float, log_space: bool, decay: float,
        eta_init: tuple[float, float], candidate: CandidatePolicy,
    ):
        if not (0.0 < decay < 1.0):
            raise ContractViolation(f"decay must lie in (0, 1), got {decay!r}")
        self._data = np.empty((4, 8))
        self._born = np.empty(8, dtype=np.int64)
        self.n = 0
        self.var_floor, self.log_space = _const(var_floor), log_space
        self.decay, self.eta_init = decay, eta_init
        self.mu0, self.var0 = candidate.mu0, max(var_floor, candidate.var_init)

    def live(self) -> np.ndarray:
        """View of the live columns: rows mu, var, eta_mu, eta_var."""
        return self._data[:, : self.n]

    def push(self, mu: float, var: float, eta_mu: float, eta_var: float, born_at: int) -> None:
        """Write one class into column ``n`` and make it live."""
        n, cap = self.n, self._born.size
        if n == cap:
            data = np.empty((4, 2 * cap))
            data[:, :cap] = self._data
            born = np.empty(2 * cap, dtype=np.int64)
            born[:cap] = self._born
            self._data, self._born = data, born
        # Scalar stores: a tuple assigned to the column is built into an array first.
        data = self._data
        data[0, n] = mu
        data[1, n] = var
        data[2, n] = eta_mu
        data[3, n] = eta_var
        self._born[n] = born_at
        self.n = n + 1

    def params(self) -> list[EmissionParams]:
        """The live classes as records, in class id order."""
        rows = self.live().tolist()
        return [
            EmissionParams(*col, born_at=int(b))
            for *col, b in zip(*rows, self._born[: self.n])
        ]


@dataclass(frozen=True)
class CandidatePolicy:
    """How a freshly spawned class is initialized: mean at the triggering
    observation (``mu0=None``) or at a fixed value, variance ``var_init``
    (fixed-k's classes start at it too). The bounds keep a new class's
    first step finite on ordinary observations: 2 var^2, a gradient's
    divisor, and (x - mu0)^2 stay below about 1e300."""

    mu0: float | None = real("[-1e150, 1e150]", None, "at-observation")
    var_init: float = real("(0, 1e150]", 1.0)

    __post_init__ = check_fields


def _log_prior(class_prior, n: int) -> np.ndarray:
    """Log of the class prior over ``n`` classes; a zero entry gives -inf,
    so the caller ignores numpy's divide-by-zero flag."""
    prior = np.asarray(class_prior, dtype=float)
    if prior.size != n or n == 0:
        raise ContractViolation(f"{prior.size} prior entries for {n} classes")
    return np.log(prior)


def _gradients(gamma, d, d2, two_var, var):
    """Gradient of gamma * log N(x; mu, var) w.r.t. (mu, var), from d = x -
    mu, d2 = d * d and two_var = 2 var."""
    g_mu = gamma * d / var
    g_var = gamma * (d2 / (two_var * var) - _ONE / two_var)
    return g_mu, g_var


def _sgd_update(table, live, gamma, d, d2, two_var, log_var):
    """The means and variances of ``table``'s live columns ``live`` after
    one gradient step weighted by ``gamma``, as new arrays; the table is
    not written.

    The variance moves in its natural parameterization by default, clamped
    at the table's ``var_floor``; with its ``log_space`` it moves in log
    variance instead (the chain-rule gradient is the natural one times var).
    """
    mu, var, eta_mu, eta_var = live
    g_mu, g_var = _gradients(gamma, d, d2, two_var, var)
    if table.log_space:
        # clamp keeps a wildly mis-scaled step finite instead of overflowing
        new_var = np.exp(np.minimum(log_var + eta_var * g_var * var, 700.0))
    else:
        new_var = var + eta_var * g_var
    np.maximum(table.var_floor, new_var, out=new_var)
    return mu + eta_mu * g_mu, new_var


def em_step(table: ClassTable, x: float, class_prior) -> tuple[np.ndarray, int]:
    """One stochastic EM step on observation x over every live class: the
    E-step responsibilities, one gradient M-step weighted by them, and the
    MAP class under the updated parameters. The table's rule says how the
    variance moves (see :func:`_sgd_update`) and where it is clamped.

    ``d = x - mu``, ``d^2``, ``2 var`` and ``log var`` are computed once and
    shared by the E-step scores and the M-step gradients, and the log prior
    once for both scorings. The MAP class is the argmax of the post-update
    scores (log prior + log N(x; mu', var')), ties going to the lowest class
    id, so an existing class beats a candidate in the last column. It can
    differ from the argmax of the normalized post-update responsibilities
    only where two scores lie within about 1e-16 of each other.

    Returns the responsibilities and the 1-based MAP class. An overflow or
    invalid operation raises ``FloatingPointError``; the new means and
    variances are written into the table only after the whole step has
    succeeded, so a failed step leaves it unchanged. Learning rates are
    untouched; decay is a separate operation.
    """
    live = table.live()
    var = live[1]
    x = np.array(x, dtype=float)
    with np.errstate(over="raise", invalid="raise", divide="ignore"):
        log_prior = _log_prior(class_prior, table.n)
        d = x - live[0]
        d2 = d * d
        two_var = _TWO * var
        log_var = np.log(var)
        # log N(x; mu, var) + log prior, then exp(score - max), normalized:
        # the responsibilities, computed in the score's own array.
        resp = _NEG_HALF * (_LOG_2PI + log_var) - d2 / two_var
        resp += log_prior
        m = resp[resp.argmax()]  # resp.max(), read as in runlength.logsumexp
        if not math.isfinite(m):
            raise ContractViolation("class prior has no positive entry")
        resp -= m
        np.exp(resp, out=resp)
        resp /= np.add.reduce(resp)  # resp.sum() without the method wrapper
        new_mu, new_var = _sgd_update(table, live, resp, d, d2, two_var, log_var)
        d = x - new_mu
        score = _NEG_HALF * (_LOG_2PI + np.log(new_var)) - d * d / (_TWO * new_var)
        score += log_prior
    z_star = int(score.argmax()) + 1
    live[0], live[1] = new_mu, new_var
    return resp, z_star


def m_step(table: ClassTable, x: float, resp) -> None:
    """One stochastic gradient ascent step on this observation's term of the
    expected complete-data log likelihood, for every live class at once
    (class j weighted by ``resp[j]``), in place, through the arithmetic and
    under the rule of :func:`em_step`.
    """
    live = table.live()
    gamma = np.asarray(resp, dtype=float)
    if gamma.size != table.n:
        raise ContractViolation(f"{gamma.size} responsibilities for {table.n} classes")
    var = live[1]
    d = x - live[0]
    log_var = np.log(var) if table.log_space else None
    live[0], live[1] = _sgd_update(table, live, gamma, d, d * d, 2.0 * var, log_var)
    if table.n and not (live[1:].min() > 0.0):
        raise ContractViolation("class variances and learning rates must be positive")


def decay_rates(table: ClassTable, k_star: int) -> None:
    """Shrink both learning rates of the winning class by the table's
    ``decay``, in place, but not below the smallest positive double; every
    other class keeps its rates."""
    if not (1 <= k_star <= table.n):
        raise ContractViolation(f"winning class {k_star} out of range 1..{table.n}")
    data, j, keep = table._data, k_star - 1, 1.0 - table.decay
    data[2, j] *= keep
    data[3, j] *= keep
    if not (data[2, j] > 0.0 and data[3, j] > 0.0):
        # Only a large decay gets here: at 0.9 the rates of a class round
        # to 0 after about 320 wins.
        np.maximum(data[2:, j], _MIN_RATE, out=data[2:, j])


def spawn_candidate(table: ClassTable, x: float, born_at: int = 0) -> None:
    """Append a fresh candidate class at the table's start, its mean at x
    unless ``mu0`` fixes it, as the last live column."""
    mu = x if table.mu0 is None else table.mu0
    eta_mu, eta_var = table.eta_init
    table.push(float(mu), table.var0, eta_mu, eta_var, born_at)
