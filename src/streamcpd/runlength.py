"""Run-length trellis: one call per step that grows, normalizes and prunes
it, and the change-point rule.

All weights live in log space, and so do the predictives that feed them:
``recursion_step`` takes the log predictive of the current observation under
every live hypothesis. The joint weight of each live run-length hypothesis
is kept unnormalized; with an expected run length of 1e6 and thousands of
steps, linear-domain arithmetic would underflow.

``recursion_step`` is the trellis's one call per step, and it builds one
``RunLengthState``. It grows the weights, then takes the step's only
log-sum-exp over them and keeps that pass's exponentials as the posterior:
``e = exp(lw - max)``, evidence ``max + log(sum(e))``, posterior ``e /
sum(e)``. So a step makes one ``exp`` pass over its weights, and the prune,
the readout and the change-point rule all read that one posterior. The
state carries its evidence, ``evidence_log``, which pruning keeps; the next
step's reset term reads it instead of summing the weights again. It also
carries ``t``, the step's MAP run length and the model's per-hypothesis
``columns``, which the prune selects with the run lengths.

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
view instead of a copy. A prune that drops nothing keeps the grown
run-length array, and a top-m prune that drops only the last entry a prefix
view of it, so a dense state stays such a view.

A trellis step takes no log of the hazard: ``HazardConfig`` computes
``log h`` and ``log(1 - h)`` once and caches them.

A step validates its inputs only when it fails. A NaN or +inf log predictive
always makes the step's total non-finite (NaN propagates, and +inf gives
+inf, or NaN where it meets a -inf weight), so the checks run on that path
alone, and each failure is a ``ContractViolation`` naming the broken
precondition: a bad entry, or inputs that leave the step no finite, nonzero
mass. The detector never reaches that path (see ``detector.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractViolation
from .schema import check_fields, choice, integer, real

# Smallest normal float: a kept posterior mass below it has lost precision.
_TINY = float(np.finfo(float).tiny)
# exp(x) is subnormal or 0 exactly when x is below this.
_LOG_TINY = math.log(_TINY)


# The shared table of dense run lengths (see the module docstring).
_DENSE = np.arange(64, dtype=np.int64)
_DENSE.setflags(False)


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
    probability 1/lam, so lam is the expected run length under the prior.

    ``log_hazard`` and ``log_survival`` (``log h`` and ``log(1 - h)``, -inf
    at h = 1) are computed on first use and cached on the config, so a
    trellis step reads them instead of taking two logs. ``log_survival`` is
    a read-only 0-d array, the step's array operand: numpy converts a float
    operand anew at every call, a 0-d array not."""

    lam: float = real("[1, inf)", 1e6)

    __post_init__ = check_fields

    @property
    def hazard(self) -> float:
        return 1.0 / self.lam

    # cached_property stores into the instance dict directly, which a
    # frozen dataclass allows; the cache is not a field, so equality, the
    # hash and dataclasses.replace are as before.
    @cached_property
    def log_hazard(self) -> float:
        return math.log(self.hazard)

    @cached_property
    def log_survival(self) -> np.ndarray:
        h = self.hazard
        a = np.array(math.log1p(-h) if h < 1.0 else -math.inf)
        a.setflags(False)
        return a


@dataclass(frozen=True)
class PrunePolicy:
    """Hypothesis pruning: drop below a posterior-mass threshold
    ``epsilon``, or keep the top ``max_live``. 0 turns either off, and
    setting both is refused, so each policy has one form (and one manifest
    form). Run length 0 is never pruned.

    The policies read the posterior ``recursion_step`` takes from the grown
    weights, in which an entry whose weight ``exp(lw - max)`` is below
    ``tiny`` (2.2e-308) is exactly 0 (see ``logsumexp``). So a threshold
    ``epsilon`` at or below 2.2e-308 drops those entries too, and top-m,
    choosing among them, keeps the lower indices (its sort is stable)."""

    epsilon: float = real("[0, 1)", 0.0)
    max_live: int = integer("[0, inf)", 0)

    def __post_init__(self):
        check_fields(self)
        if self.epsilon and self.max_live:
            raise ConfigError(f"PrunePolicy.epsilon and .max_live are mutually exclusive: {self}")

    @classmethod
    def threshold(cls, epsilon: float) -> "PrunePolicy":
        policy = cls(epsilon=epsilon)
        if not policy.epsilon:
            raise ConfigError("threshold pruning needs an epsilon above 0")
        return policy

    @classmethod
    def top_m(cls, m: int) -> "PrunePolicy":
        policy = cls(max_live=m)
        if not policy.max_live:
            raise ConfigError("top-m pruning must keep at least one hypothesis")
        return policy


class RunLengthState:
    """Live run-length hypotheses, their log joint weights and their model
    columns: the trellis between two steps.

    ``run_lengths[i]`` is the run-length value of hypothesis i, strictly
    ascending from 0, so run length 0 is entry 0. ``log_weights[i]`` is the
    log of its unnormalized joint weight. ``evidence_log`` is the log total
    mass ``logsumexp(log_weights)``, the log probability of everything
    observed so far. ``t`` counts the steps taken, and ``r_star`` is the
    MAP run length of the step that built the state (None before any).
    ``columns`` is None or the predictive model's per-hypothesis columns,
    column i belonging to hypothesis i (the baseline's rows mu and B), so
    the statistics of each hypothesis's window travel with it through every
    prune. ``dense``, set once here, says whether the run lengths are
    ``0..n-1``: since they strictly ascend from 0, whether the last is n - 1.

    ``recursion_step`` builds every state after the first and keeps that
    invariant; treat the arrays as read-only. Dense run lengths ``0..n-1``
    are views of one table shared by every state and detector (see the
    module docstring).
    """

    __slots__ = ("run_lengths", "log_weights", "t", "evidence_log", "columns", "r_star", "dense")

    def __init__(
        self,
        run_lengths: np.ndarray,
        log_weights: np.ndarray,
        t: int,
        evidence_log: float,
        columns: np.ndarray | None = None,
        r_star: int | None = None,
    ):
        self.run_lengths = run_lengths
        self.log_weights = log_weights
        self.t = t
        self.evidence_log = evidence_log
        self.columns = columns
        self.r_star = r_star
        self.dense = run_lengths[-1] == run_lengths.size - 1

    @classmethod
    def initial(cls) -> "RunLengthState":
        """State before any observation: all mass on run length 0."""
        return cls(_dense_run_lengths(1), np.zeros(1, dtype=float), 0, 0.0)


def recursion_step(
    state: RunLengthState,
    log_psi: np.ndarray,
    hazard: HazardConfig,
    log_psi_reset: float = 0.0,
    policy: PrunePolicy = PrunePolicy(),
    columns: np.ndarray | None = None,
) -> tuple[RunLengthState, np.ndarray, np.ndarray, int]:
    """One step of the trellis: grow it, normalize it and prune it.

    ``log_psi[i]`` is the log predictive of the current observation under
    hypothesis i (of a probability mass in the latent-class modes, of a
    density in the raw-observation baseline); -inf (predictive 0) is
    allowed, NaN and +inf are not. Every hypothesis i grows to run length
    ``run_lengths[i] + 1`` with log weight ``log(1-h) + log_psi[i] +
    lw[i]``; the newborn run length 0 collects ``log(h) + log_psi_reset +
    evidence``, where ``log_psi_reset`` is the log empty-window predictive.
    The detector passes run length 0's entry, ``log_psi[0]``: run length 0
    is entry 0 of every state and its window is empty. ``columns`` is None
    or the model's columns of the grown hypotheses, ``(rows, n + 1)`` and
    aligned with the grown run lengths; the next state keeps those of the
    survivors.

    Returns ``(next_state, run_lengths, posterior, i_min)``: the state after
    pruning by ``policy``, which also carries the step's MAP run length
    ``r_star``, and the grown trellis before it, its run lengths, posterior
    and an index of the posterior's smallest entry. Those arrays are
    read-only, so they can be handed out without a copy. When the run
    lengths are dense (``0..n-1``), the new ones are a view of the shared
    table. Inputs are checked only when the step's total is not finite
    (see the module docstring).

    Pruning keeps the evidence: it folds the dropped mass back into the
    survivors, which keep their run-length values. Top-m keeps the
    ``max_live`` largest entries, ties going to the lower index (a stable
    sort); in its steady state, one hypothesis over the cap, that drops the
    last of the smallest entries, found by one ``argmin``.

    A prune that drops nothing returns the same step's unpruned state bit
    for bit, its log weights not rescaled (that would move them by about
    1e-16 and cost about 1.8 µs at n = 131): also under a threshold only
    run length 0's entry falls below, and in top-m's steady state when the
    smallest entry is run length 0, which is never dropped. When that state
    drops the last entry (over half its steps on a stream of many classes),
    the survivors are taken by slices, bitwise as the mask would give them:
    a read-only prefix view of the run lengths, so a dense state stays a
    view of the shared table. Their mass, all but the smallest entry's, is
    at least about 1 - 1/n and needs no rescale from the log weights. Other
    prunes take the mask path, which refuses a threshold prune whose only
    survivor, run length 0, has weight 0: no mass to fold the rest into.
    """
    lw = state.log_weights
    log_psi = np.asarray(log_psi, dtype=float)
    if log_psi.shape != lw.shape:
        raise ContractViolation(
            f"log_psi has {log_psi.size} entries but state holds {lw.size} hypotheses"
        )
    n = lw.size + 1
    new_lw = np.empty(n)
    posterior = np.empty(n)
    try:
        new_lw[0] = hazard.log_hazard + log_psi_reset + state.evidence_log
        grown = new_lw[1:]
        np.add(log_psi, hazard.log_survival, out=grown)
        grown += lw
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
        raise ContractViolation(
            f"the joint weights at t={state.t + 1} sum to exp({total}): log_psi and"
            " log_psi_reset must leave the step a finite, nonzero mass"
        )

    if state.dense:
        runs = _dense_run_lengths(n)
    else:
        runs = np.empty(n, dtype=np.int64)
        runs[0] = 0
        np.add(state.run_lengths, 1, out=runs[1:])
        # setflags(False) clears the writeable flag at a third of the cost
        # of the flags.writeable setter.
        runs.setflags(False)
    posterior.setflags(False)
    t = state.t + 1
    r_star = int(runs[posterior.argmax()])

    k, keep = n, None  # without a mask, the survivors are the first k entries
    epsilon, max_live = policy.epsilon, policy.max_live
    if epsilon:
        if posterior[i_min] < epsilon:
            keep = posterior >= epsilon
    elif n == max_live + 1:
        # The stable sort below would drop exactly the last of the minima.
        k = n - 1 - posterior[::-1].argmin()
        if k == 0:  # that is run length 0, which is never dropped
            k = n
        elif k < n - 1:
            keep = np.ones(n, dtype=bool)
            keep[k] = False
    elif 0 < max_live < n:
        keep = np.zeros(n, dtype=bool)
        keep[np.argsort(-posterior, kind="stable")[:max_live]] = True

    kept_runs, kept_lw = runs, new_lw
    if keep is not None:
        keep[0] = True
        survivors = runs[keep]
        if survivors.size < n:
            kept_runs = survivors
            if columns is not None:
                columns = columns.compress(keep, axis=1)
            kept_lw = new_lw[keep]
            kept_mass = float(np.add.reduce(posterior[keep]))
            if kept_mass >= _TINY:
                kept_lw -= math.log(kept_mass)
            else:
                # Their posterior underflowed: rescale from the log weights.
                kept_log = logsumexp(kept_lw)
                if kept_log == -math.inf:
                    # Only run length 0 survived, with weight 0: no mass
                    # to fold the rest into (-inf + inf would give NaN).
                    raise ContractViolation("prune policy kept only hypotheses of zero mass")
                kept_lw += total - kept_log
    elif k < n:
        kept_runs = runs[:k]
        kept_runs.setflags(False)
        if columns is not None:
            columns = columns[:, :k]
        kept_lw = new_lw[:k] - math.log(float(np.add.reduce(posterior[:k])))
    return RunLengthState(kept_runs, kept_lw, t, total, columns, r_star), runs, posterior, i_min


def _check_log_psi(log_psi: np.ndarray, log_psi_reset: float) -> None:
    """The entry checks of ``recursion_step``, run once its total is not
    finite: NaN and +inf are refused (``x < inf`` is false for both)."""
    if not (log_psi < math.inf).all():
        raise ContractViolation("log_psi entries must be below +inf and not NaN")
    if not log_psi_reset < math.inf:
        raise ContractViolation("log_psi_reset must be below +inf and not NaN")


@dataclass(frozen=True)
class ChangePointRule:
    """Readout rule turning the run-length trace into change points.

    ``map-drop`` declares a change at t when the MAP run length falls below
    ``drop_fraction`` times its previous value. ``mass-near-zero`` declares
    one when the posterior mass on run lengths <= ``mass_window`` reaches
    ``mass_threshold`` and some run length exceeds the window: until one
    does, that mass is 1 whatever the data say.
    """

    mode: str = choice("map-drop", "mass-near-zero")
    drop_fraction: float = real("(0, 1]", 0.5)
    mass_window: int = integer("[0, inf)", 0)
    mass_threshold: float = real("(0, 1)", 0.5)

    __post_init__ = check_fields

    def fires(self, prev_r_star: int | None, r_star: int, run_lengths, posterior) -> bool:
        """Whether the rule declares a change at a step whose MAP run length
        is ``r_star`` and whose run-length posterior is ``posterior`` over
        ``run_lengths``; ``prev_r_star`` is the previous step's MAP run
        length, None at the first step (where map-drop never fires).
        map-drop reads only the two MAP run lengths, mass-near-zero only the
        posterior and its ascending run lengths.
        """
        if self.mode == "map-drop":
            return prev_r_star is not None and r_star < self.drop_fraction * prev_r_star
        run_lengths = np.asarray(run_lengths)
        if run_lengths[-1] <= self.mass_window:
            return False
        mass = np.asarray(posterior)[run_lengths <= self.mass_window].sum()
        return float(mass) >= self.mass_threshold

