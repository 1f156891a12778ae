"""Run-length trellis: growth/reset recursion, posterior normalization,
pruning, and the change-point rule.

All weights live in log space, and so do the predictives that feed them:
``recursion_step`` takes the log predictive of the current observation under
every live hypothesis. The joint weight of each live run-length hypothesis
is kept unnormalized; with an expected run length of 1e6 and thousands of
steps, linear-domain arithmetic would underflow.

Every ``RunLengthState`` caches its evidence: ``evidence_log`` always equals
the log-sum of ``log_weights``, the log probability of everything observed
so far. ``recursion_step`` computes it once per step, as the only
log-sum-exp of the step, and keeps that pass's exponentials as the state's
posterior: ``e = exp(lw - max)``, evidence ``max + log(sum(e))``, posterior
``e / sum(e)``. So a step makes one ``exp`` pass over its weights, and the
readout and ``prune`` share its posterior. The reset term reads the cached
evidence instead of summing the weights again.

That pass skips the weights more than 708.4 (``-log(tiny)``) below the
largest: their ``e`` would be subnormal or 0, numpy's ``exp`` computes such
lanes on a slow path, and on an unpruned trellis most old hypotheses fall
that far (over half of them by t = 2400 on a two-regime stream). They are
set to exactly 0 instead. The evidence and the posterior entries are as if
they had been exponentiated, except that an entry whose ``e`` would have
been below ``tiny`` (2.2e-308) reads exactly 0.

Run lengths strictly ascend from 0, so a state whose last run length is
``n - 1`` holds exactly ``0..n-1``: on an unpruned trellis every state, and
on a pruned one each state whose pruning dropped nothing. Such dense run
lengths are prefix views of one shared, read-only ``int64`` table
``0, 1, 2, ...``, rebuilt at twice its size when a state outgrows it (a
view of an earlier table keeps that table alive, unchanged); so
``recursion_step`` grows a dense state by taking a longer view instead of
computing ``run_lengths + 1``, the predictive models read their
per-run-length tables by slices instead of gathers, and a detector step
that shows only the first k posterior entries hands out ``0..k-1`` as a
view instead of a copy.

A step validates its inputs only when it fails. A NaN or +inf log predictive
always makes the step's total non-finite (NaN propagates, and +inf gives
+inf, or NaN where it meets a -inf weight), so the checks run on that path
alone: a bad input raises ``ContractViolation`` and a valid one whose every
weight vanished raises ``DegenerateStateError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, ContractViolation, DegenerateStateError

# Smallest normal float: a kept posterior mass below it has lost precision.
_TINY = float(np.finfo(float).tiny)
# exp(x) is subnormal or 0 exactly when x is below this.
_LOG_TINY = math.log(_TINY)


# The shared table of dense run lengths (see the module docstring).
_DENSE = np.arange(64, dtype=np.int64)
_DENSE.setflags(False)


def _is_integer(value) -> bool:
    """Whether a config value is an integer: a Python or numpy integer, but
    not a bool, which is an ``Integral`` that would read as 0 or 1."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _dense_run_lengths(n: int) -> np.ndarray:
    """The run lengths ``0..n-1``: a read-only view of the shared table."""
    global _DENSE
    table = _DENSE
    if n > table.size:
        table = np.arange(max(n, 2 * table.size), dtype=np.int64)
        table.setflags(False)
        _DENSE = table
    return table[:n]


def logsumexp(
    a: np.ndarray, out: np.ndarray | None = None, i_min: int | None = None
) -> float:
    """``log(sum(exp(a)))`` of a non-empty 1-D array, shifted by its maximum.

    Returns -inf when every entry is -inf and NaN when any entry is NaN.
    With ``out`` (an array shaped like ``a``) and a finite result, the same
    exponentials also fill ``out`` with the normalized weights
    ``exp(a - max) / sum(exp(a - max))``; otherwise ``out`` is left as is.

    Entries more than ``-log(tiny)`` (708.4) below the maximum, whose
    exponential would be subnormal or 0, are set to exactly 0 instead of
    being exponentiated, because numpy's ``exp`` takes a slow path on such
    lanes. Together they would add less than ``a.size * tiny`` to a sum of
    at least exp(0) = 1, far below its rounding, so the result and every
    other weight are as if they had been exponentiated. The branch is taken
    only when the smallest shifted entry is below the cut. A caller that
    already knows an index of the smallest entry of ``a`` passes it as
    ``i_min``, which spares the scan for it.
    """
    # The same value as a.max(), NaN included, and cheaper to read.
    m = float(a[a.argmax()])
    if not math.isfinite(m):
        return m
    e = np.subtract(a, m, out=out)
    if e[e.argmin() if i_min is None else i_min] < _LOG_TINY:
        low = e < _LOG_TINY
        np.putmask(e, low, 0.0)
        np.exp(e, out=e)
        np.putmask(e, low, 0.0)
    else:
        np.exp(e, out=e)
    total = float(np.add.reduce(e))
    if out is not None:
        out /= total
    return m + math.log(total)


@dataclass(frozen=True)
class HazardConfig:
    """Constant (memoryless) hazard: a change occurs each step with
    probability 1/lam, so lam is the expected run length under the prior."""

    lam: float = 1e6

    def __post_init__(self):
        lam = self.lam
        if not (isinstance(lam, Real) and not isinstance(lam, bool) and math.isfinite(lam)):
            raise ConfigError(f"hazard lam must be a finite number, got {lam!r}")
        if lam < 1.0:
            raise ConfigError(f"hazard lam must be >= 1 so that 0 < 1/lam <= 1, got {lam!r}")

    @property
    def hazard(self) -> float:
        # float() so that a numpy lam (say float32) gives a double hazard.
        return 1.0 / float(self.lam)


@dataclass
class RunLengthState:
    """Live run-length hypotheses and their log joint weights.

    ``run_lengths[i]`` is the run-length value of hypothesis i (strictly
    ascending, and 0 is always present after a step, so it is entry 0);
    ``log_weights[i]`` is the log of its unnormalized joint weight.
    ``evidence_log`` is the log total mass, i.e. the log probability of
    everything observed so far.

    Invariant: ``evidence_log == logsumexp(log_weights)``. Every function
    here that builds a state keeps it, and a state built without
    ``evidence_log`` computes it once on construction. Treat the arrays as
    read-only: writing to ``log_weights`` in place breaks the invariant and
    the memoized posterior. Dense run lengths ``0..n-1`` built here are
    views of one table shared by every state and detector (see the module
    docstring).

    ``posterior_argmin`` is an index of the posterior's smallest entry on a
    state built by ``recursion_step``, which finds it anyway, and None on
    any other state.
    """

    run_lengths: np.ndarray
    log_weights: np.ndarray
    t: int = 0
    evidence_log: float | None = None
    _posterior: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    posterior_argmin: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.evidence_log is None:
            self.evidence_log = logsumexp(self.log_weights)

    @property
    def dense(self) -> bool:
        """Whether the run lengths are exactly ``0..n-1``: since they
        strictly ascend from 0, whether the last is n - 1 (an O(1) test)."""
        runs = self.run_lengths
        return runs[-1] == runs.size - 1

    @classmethod
    def initial(cls) -> "RunLengthState":
        """State before any observation: all mass on run length 0."""
        return cls(_dense_run_lengths(1), np.zeros(1, dtype=float), 0, 0.0)


def recursion_step(
    state: RunLengthState,
    log_psi: np.ndarray,
    cfg: HazardConfig,
    log_psi_reset: float = 0.0,
) -> RunLengthState:
    """One growth/reset update of the trellis.

    ``log_psi[i]`` is the log predictive of the current observation under
    hypothesis i (of a probability mass in the latent-class modes, of a
    density in the raw-observation baseline); -inf (predictive 0) is
    allowed, NaN and +inf are not. Every hypothesis i grows to run length
    ``run_lengths[i] + 1`` with log weight ``log(1-h) + log_psi[i] +
    lw[i]``; the newborn run length 0 collects ``log(h) + log_psi_reset +
    evidence``, where ``log_psi_reset`` is the log empty-window predictive
    (0 for the latent-class modes: with no within-run history the new-table
    event is certain).

    The returned state carries its posterior, from the exp pass that
    computed its evidence; its run lengths and posterior are read-only, so
    they can be handed out without a copy. When the run lengths are dense
    (``0..n-1``), the new ones are a view of the shared table. Inputs are
    checked only when the step's total is not finite (see the module
    docstring).
    """
    lw = state.log_weights
    log_psi = np.asarray(log_psi, dtype=float)
    if log_psi.shape != lw.shape:
        raise ContractViolation(
            f"log_psi has {log_psi.size} entries but state holds {lw.size} hypotheses"
        )
    h = cfg.hazard
    n = lw.size
    new_lw = np.empty(n + 1)
    posterior = np.empty(n + 1)
    try:
        new_lw[0] = math.log(h) + log_psi_reset + state.evidence_log
        np.add(log_psi, math.log1p(-h) if h < 1.0 else -math.inf, out=new_lw[1:])
        new_lw[1:] += lw
        # exp and the division by the total keep the order of the entries,
        # so this is also where the posterior is smallest.
        i_min = new_lw.argmin()
        total = logsumexp(new_lw, out=posterior, i_min=i_min)
    except RuntimeWarning:
        # Only under an "error" warnings filter: a +inf log_psi (an invalid
        # input) met a -inf weight. With the default filters numpy warns
        # "invalid value" and the total is NaN; either way the step takes
        # the one failure path below.
        total = math.nan
    if not math.isfinite(total):
        _check_log_psi(log_psi, log_psi_reset)
        raise DegenerateStateError(
            f"all joint weights vanished at t={state.t + 1}; observation numerically impossible"
        )

    if state.dense:
        new_runs = _dense_run_lengths(n + 1)
    else:
        new_runs = np.empty(n + 1, dtype=np.int64)
        new_runs[0] = 0
        np.add(state.run_lengths, 1, out=new_runs[1:])
        # setflags(False) clears the writeable flag at a third of the cost
        # of the flags.writeable setter.
        new_runs.setflags(False)
    out = RunLengthState(new_runs, new_lw, state.t + 1, total)
    posterior.setflags(False)
    out._posterior = posterior
    out.posterior_argmin = i_min
    return out


def _check_log_psi(log_psi: np.ndarray, log_psi_reset: float) -> None:
    """The entry checks of ``recursion_step``, run once its total is not
    finite: NaN and +inf are refused (``x < inf`` is false for both)."""
    if not (log_psi < math.inf).all():
        raise ContractViolation("log_psi entries must be below +inf and not NaN")
    if not log_psi_reset < math.inf:
        raise ContractViolation("log_psi_reset must be below +inf and not NaN")


def normalize_posterior(state: RunLengthState) -> np.ndarray:
    """Posterior over live run lengths: ``e / sum(e)`` with ``e = exp(lw -
    max)``, the formula ``recursion_step`` also uses.

    Computed once per state and memoized; the returned array is read-only
    and the state's weights are left untouched.
    """
    if state._posterior is None:
        if not math.isfinite(state.evidence_log):
            raise DegenerateStateError("cannot normalize: all weights are zero")
        posterior = np.empty(state.log_weights.shape)
        if posterior.size:
            logsumexp(state.log_weights, out=posterior)
        posterior.flags.writeable = False
        state._posterior = posterior
    return state._posterior


@dataclass(frozen=True)
class PrunePolicy:
    """Hypothesis pruning: ``none``, drop below a posterior-mass threshold
    ``epsilon``, or keep the top ``max_live``. A field the kind does not use
    must stay 0, so each policy has one form (and one manifest form). Run
    length 0 is never pruned (of a state whose run lengths ascend, as every
    state ``recursion_step`` builds does).

    The policies read the posterior of ``normalize_posterior``, in which an
    entry whose weight ``exp(lw - max)`` is below ``tiny`` (2.2e-308) is
    exactly 0 (see ``logsumexp``). So a threshold ``epsilon`` at or below
    2.2e-308 drops those entries too, and top-m, choosing among them, keeps
    the lower indices (its sort is stable)."""

    kind: str = "none"
    epsilon: float = 0.0
    max_live: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "threshold", "top-m"):
            raise ConfigError(f"unknown prune kind {self.kind!r}")
        if self.kind == "threshold" and not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"prune epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not _is_integer(self.max_live):
            raise ConfigError(f"prune max_live must be an integer, got {self.max_live!r}")
        if self.kind == "top-m" and self.max_live < 1:
            raise ContractViolation("top-m pruning must keep at least one hypothesis")
        if (self.kind != "threshold" and self.epsilon) or (self.kind != "top-m" and self.max_live):
            raise ConfigError(f"{self.kind!r} pruning leaves the fields it does not use at 0")

    @classmethod
    def none(cls) -> "PrunePolicy":
        return cls()

    @classmethod
    def threshold(cls, epsilon: float) -> "PrunePolicy":
        return cls(kind="threshold", epsilon=epsilon)

    @classmethod
    def top_m(cls, m: int) -> "PrunePolicy":
        return cls(kind="top-m", max_live=m)


def prune(state: RunLengthState, policy: PrunePolicy) -> RunLengthState:
    """Drop hypotheses per the policy and fold their mass back into the
    survivors, so the total joint mass (and hence the evidence) is kept.

    Run length 0 is kept: the run lengths must ascend, so it is entry 0
    when present. Surviving hypotheses keep their run-length values; the
    representation is sparse, so subsequent recursion steps work unchanged.

    Top-m keeps the ``max_live`` largest entries, ties going to the lower
    index (a stable sort). In its steady state, one hypothesis over the cap
    after each growth step, that drops exactly the last of the smallest
    entries, which is found with one ``argmin`` instead of a sort; when that
    entry is run length 0, nothing is dropped.
    """
    if policy.kind == "none":
        return state

    posterior = normalize_posterior(state)
    if policy.kind == "threshold":
        keep = posterior >= policy.epsilon
    elif posterior.size == policy.max_live + 1:
        # The stable sort below would drop exactly the last of the minima.
        keep = np.ones(posterior.size, dtype=bool)
        keep[posterior.size - 1 - posterior[::-1].argmin()] = False
    else:
        order = np.argsort(-posterior, kind="stable")
        keep = np.zeros(posterior.size, dtype=bool)
        keep[order[: policy.max_live]] = True
    if keep.size and state.run_lengths[0] == 0:
        keep[0] = True
    elif not keep.any():
        raise ContractViolation("prune policy removed every hypothesis")

    kept_lw = state.log_weights[keep]
    kept_mass = float(posterior[keep].sum())
    if kept_mass >= _TINY:
        kept_lw -= math.log(kept_mass)
    else:
        # The survivors' posterior underflowed: rescale from their log weights.
        kept_lw += state.evidence_log - logsumexp(kept_lw)
    return RunLengthState(state.run_lengths[keep], kept_lw, state.t, state.evidence_log)


@dataclass(frozen=True)
class ChangePointRule:
    """Readout rule turning the run-length trace into change points.

    ``map-drop`` declares a change at t when the MAP run length falls below
    ``drop_fraction`` times its previous value. ``mass-near-zero`` declares
    one when the posterior mass on run lengths <= ``mass_window`` reaches
    ``mass_threshold``.
    """

    mode: str = "map-drop"
    drop_fraction: float = 0.5
    mass_window: int = 0
    mass_threshold: float = 0.5

    def __post_init__(self):
        if self.mode not in ("map-drop", "mass-near-zero"):
            raise ConfigError(f"unknown change-point rule {self.mode!r}")
        if not (0.0 < self.drop_fraction <= 1.0):
            raise ConfigError(f"drop_fraction must lie in (0, 1], got {self.drop_fraction!r}")
        if not (_is_integer(self.mass_window) and self.mass_window >= 0):
            raise ConfigError(f"mass_window must be an integer >= 0, got {self.mass_window!r}")
        if not (0.0 < self.mass_threshold < 1.0):
            raise ConfigError(f"mass_threshold must lie in (0, 1), got {self.mass_threshold!r}")

    def fires(self, prev_r_star: int | None, r_star: int, run_lengths, posterior) -> bool:
        """Whether the rule declares a change at a step whose MAP run length
        is ``r_star`` and whose run-length posterior is ``posterior`` over
        ``run_lengths``; ``prev_r_star`` is the previous step's MAP run
        length, None at the first step (where map-drop never fires).
        map-drop reads only the two MAP run lengths, mass-near-zero only the
        posterior.
        """
        if self.mode == "map-drop":
            return prev_r_star is not None and r_star < self.drop_fraction * prev_r_star
        mass = np.asarray(posterior)[np.asarray(run_lengths) <= self.mass_window].sum()
        return float(mass) >= self.mass_threshold

