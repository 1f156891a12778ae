"""Run-length trellis: growth/reset recursion, posterior normalization, MAP
extraction, pruning, and change-point readout.

All weights live in log space. The joint weight of each live run-length
hypothesis is kept unnormalized; with an expected run length of 1e6 and
thousands of steps, linear-domain arithmetic would underflow.

Every ``RunLengthState`` caches its evidence: ``evidence_log`` always equals
the log-sum of ``log_weights``, the log probability of everything observed
so far. ``recursion_step`` computes it once per step, as the only
log-sum-exp of the step; the reset term, ``normalize_posterior`` and
``prune`` read it instead of summing the weights again. A state also keeps
the posterior once computed, so the readout and ``prune`` of one step share
one ``exp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, DegenerateStateError

# Smallest normal float: a kept posterior mass below it has lost precision.
_TINY = float(np.finfo(float).tiny)


def logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` of a non-empty 1-D array, shifted by its maximum.

    Returns -inf when every entry is -inf and NaN when any entry is NaN.
    """
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))


@dataclass(frozen=True)
class HazardConfig:
    """Constant (memoryless) hazard: a change occurs each step with
    probability 1/lam, so lam is the expected run length under the prior."""

    lam: float = 1e6

    def __post_init__(self):
        if not (isinstance(self.lam, (int, float)) and math.isfinite(self.lam)):
            raise ConfigError(f"hazard lam must be a finite number, got {self.lam!r}")
        if self.lam < 1.0:
            raise ConfigError(f"hazard lam must be >= 1 so that 0 < 1/lam <= 1, got {self.lam!r}")

    @property
    def hazard(self) -> float:
        return 1.0 / self.lam


@dataclass
class RunLengthState:
    """Live run-length hypotheses and their log joint weights.

    ``run_lengths[i]`` is the run-length value of hypothesis i (ascending,
    and 0 is always present after a step); ``log_weights[i]`` is the log of
    its unnormalized joint weight. ``evidence_log`` is the log total mass,
    i.e. the log probability of everything observed so far.

    Invariant: ``evidence_log == logsumexp(log_weights)``. Every function
    here that builds a state keeps it, and a state built without
    ``evidence_log`` computes it once on construction. Treat the arrays as
    read-only: writing to ``log_weights`` in place breaks the invariant and
    the memoized posterior.
    """

    run_lengths: np.ndarray
    log_weights: np.ndarray
    t: int = 0
    evidence_log: float | None = None
    _posterior: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.evidence_log is None:
            self.evidence_log = logsumexp(self.log_weights)

    @classmethod
    def initial(cls) -> "RunLengthState":
        """State before any observation: all mass on run length 0."""
        return cls(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=float), 0, 0.0)

    def posterior(self) -> np.ndarray:
        return normalize_posterior(self)


def recursion_step(
    state: RunLengthState,
    psi: np.ndarray,
    cfg: HazardConfig,
    psi_reset: float = 1.0,
) -> RunLengthState:
    """One growth/reset update of the trellis.

    ``psi[i]`` is the predictive value of the current observation under
    hypothesis i (a probability mass in the latent-class modes, a density
    in the raw-observation baseline). Every hypothesis i grows to run
    length ``run_lengths[i] + 1`` with weight ``(1-h) * psi[i] * w[i]``;
    the newborn run length 0 collects ``h * psi_reset * sum(w)``, where
    ``psi_reset`` is the empty-window predictive (1 for the latent-class
    modes: with no within-run history the new-table event is certain).
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != state.log_weights.shape:
        raise ContractViolation(
            f"psi has {psi.size} entries but state holds {state.log_weights.size} hypotheses"
        )
    if not np.all(np.isfinite(psi)) or np.any(psi < 0.0):
        raise ContractViolation("psi entries must be finite and non-negative")
    if not (math.isfinite(psi_reset) and psi_reset >= 0.0):
        raise ContractViolation("psi_reset must be finite and non-negative")

    h = cfg.hazard
    with np.errstate(divide="ignore"):
        log_psi = np.log(psi)
        log_growth = math.log1p(-h) if h < 1.0 else -math.inf
        log_reset_pred = math.log(psi_reset) if psi_reset > 0.0 else -math.inf

    reset_lw = math.log(h) + log_reset_pred + state.evidence_log
    grown_lw = log_growth + log_psi + state.log_weights

    new_runs = np.concatenate(([0], state.run_lengths + 1)).astype(np.int64)
    new_lw = np.concatenate(([reset_lw], grown_lw))

    total = logsumexp(new_lw)
    if not math.isfinite(total):
        raise DegenerateStateError(
            f"all joint weights vanished at t={state.t + 1}; observation numerically impossible"
        )
    return RunLengthState(new_runs, new_lw, state.t + 1, total)


def normalize_posterior(state: RunLengthState) -> np.ndarray:
    """Posterior over live run lengths, scaled by the cached evidence.

    Computed once per state and memoized; the returned array is read-only
    and the state's weights are left untouched.
    """
    if state._posterior is None:
        if not math.isfinite(state.evidence_log):
            raise DegenerateStateError("cannot normalize: all weights are zero")
        posterior = np.exp(state.log_weights - state.evidence_log)
        posterior.flags.writeable = False
        state._posterior = posterior
    return state._posterior


def map_runlength(posterior: np.ndarray) -> int:
    """Index of the posterior maximum; ties break toward the smallest run
    length (the change-sensitive choice)."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.size == 0:
        raise ContractViolation("empty posterior")
    return int(np.argmax(posterior))


@dataclass(frozen=True)
class PrunePolicy:
    """Hypothesis pruning: ``none``, drop below a posterior-mass threshold,
    or keep the top-M. Run length 0 is never pruned."""

    kind: str = "none"
    epsilon: float = 0.0
    max_live: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "threshold", "top-m"):
            raise ConfigError(f"unknown prune kind {self.kind!r}")
        if self.kind == "threshold" and not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"prune epsilon must lie in (0, 1), got {self.epsilon!r}")
        if self.kind == "top-m" and self.max_live < 1:
            raise ContractViolation("top-m pruning must keep at least one hypothesis")

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

    Surviving hypotheses keep their run-length values; the representation
    is sparse, so subsequent recursion steps work unchanged.
    """
    if policy.kind == "none":
        return state

    posterior = normalize_posterior(state)
    if policy.kind == "threshold":
        keep = posterior >= policy.epsilon
    else:
        order = np.argsort(-posterior, kind="stable")
        keep = np.zeros(posterior.size, dtype=bool)
        keep[order[: policy.max_live]] = True
    keep |= state.run_lengths == 0

    if not np.any(keep):
        raise ContractViolation("prune policy removed every hypothesis")

    kept_lw = state.log_weights[keep]
    kept_mass = float(posterior[keep].sum())
    if kept_mass >= _TINY:
        rescale = -math.log(kept_mass)
    else:
        # The survivors' posterior underflowed: rescale from their log weights.
        rescale = state.evidence_log - logsumexp(kept_lw)
    return RunLengthState(
        state.run_lengths[keep], kept_lw + rescale, state.t, state.evidence_log
    )


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
        if self.mass_window < 0:
            raise ConfigError("mass_window must be non-negative")
        if not (0.0 < self.mass_threshold < 1.0):
            raise ConfigError(f"mass_threshold must lie in (0, 1), got {self.mass_threshold!r}")


def detect_changepoints(r_star_trace, rule: ChangePointRule, posterior_trace=None) -> list[int]:
    """Positions (0-based, into the given trace) where the rule fires.

    ``posterior_trace`` is required for mass-near-zero mode: a sequence of
    ``(run_lengths, probabilities)`` pairs, one per step.
    """
    trace = list(r_star_trace)
    if not trace:
        raise ContractViolation("empty run-length trace")

    hits: list[int] = []
    if rule.mode == "map-drop":
        for i in range(1, len(trace)):
            if trace[i] < rule.drop_fraction * trace[i - 1]:
                hits.append(i)
        return hits

    if posterior_trace is None:
        raise ContractViolation("mass-near-zero rule needs a posterior trace")
    for i, (runs, probs) in enumerate(posterior_trace):
        runs = np.asarray(runs)
        mass = float(np.asarray(probs)[runs <= rule.mass_window].sum())
        if mass >= rule.mass_threshold:
            hits.append(i)
    return hits
