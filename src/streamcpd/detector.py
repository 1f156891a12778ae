"""End-to-end streaming detector.

One run-length recursion, fed by a predictive model chosen once per mode
(the "underlying predictive model" of Adams & MacKay, 2007):

- ``infinite`` (:class:`InfiniteModel`): latent classes under a CRP; a
  candidate class is spawned every step and kept only if the MAP assignment
  picks it. Predictive: the CRP window predictive of the MAP labels.
- ``fixed-k`` (:class:`FixedKModel`): K fixed classes under a symmetric
  Dirichlet prior. Predictive: the Dirichlet-categorical window predictive.
- ``baseline`` (:class:`BaselineModel`): no latent layer. Predictive: the
  Normal-Inverse-Gamma Student-t on the raw observations.

A model has ``predict(x, t, run_lengths, dense) -> (log_psi, log_psi_reset,
z_star, k_t, resp)``, the log predictive of observation x at step t under
every live hypothesis and under a reset; ``commit(z_star)``, called once the
trellis step has succeeded; and ``keep``: None, or ``keep(before, kept)``
after pruning dropped hypotheses, for a model with one column per hypothesis
(the baseline). When the run lengths are dense, ``0..n-1``
(``RunLengthState.dense``), ``predict`` reads its per-run-length tables by
prefix slices instead of gathers. So :meth:`Detector.step` is one body for every mode: predict,
``recursion_step``, readout, commit, prune, keep.

The readout hands out the posterior entries at or above 1e-14 with their
run lengths, in one of three forms: the step's own arrays when nothing is
hidden; a copy of the first k probabilities with a view of the shared dense
table as run lengths when the shown entries are the first k and their run
lengths are ``0..k-1``; otherwise copies by two boolean gathers. A stored
slice that hides entries thus never keeps the step's full posterior, and
with it the hidden tail, alive.

The two latent models share one emission step, a single SGD-EM pass over one
:class:`ClassTable` (E-step, M-step and MAP assignment from shared
intermediates, committed only on success) plus the winner's rate decay. They
also share one ledger of the MAP labels, a :class:`LabelCounts`, and one
``commit`` that records the step's label in it. They differ only in whether a
candidate column is spawned and in the two formulas they read from the
ledger, the class prior and the window predictive: the CRP's from ``crp.py``,
the Dirichlet's here. The CRP window predictive reads a numerator table at
the window counts and divides by r + alpha, which on dense run lengths is a
prefix slice of a second table ``arange(N) + alpha``, the same size as the
first and grown with it; the window counts themselves are then a reversed
slice of the kept prefix counts (see ``crp.py``).

The baseline's NIG posterior after a window of r observations has kappa_r =
kappa0 + r and a_r = a0 + r/2, which depend on r alone, so it keeps two
tables:

- the hypothesis table, ``(2, n)`` and aligned with
  ``RunLengthState.run_lengths``: row ``mu`` and row ``B = 2 b (kappa + 1) /
  kappa``, the Student-t's degrees of freedom times its squared scale. Column
  0 is always the prior (run length 0, an empty window), so its predictive
  is also the reset predictive.
- the run-length table, ``(4, n)`` and indexed by run length r: ``c_r =
  D_r - log(pi)/2``, ``h_r = a_r + 1/2``, ``1/kappa_{r+1}`` and ``rho_r =
  kappa_r (kappa_r + 2) / (kappa_r + 1)^2``, computed as ``(kappa_r /
  kappa_{r+1}) ((kappa_r + 2) / kappa_{r+1})``: each factor is accurate to
  an ulp for any kappa_r (``1 - (1/kappa_{r+1})^2`` would cancel to 0 for
  kappa0 below 1e-16) and neither can overflow. ``D_r = lgamma(a_r + 1/2)
  - lgamma(a_r)`` follows the exact recurrence ``D(a + 1/2) = log(a) -
  D(a)`` from a ``math.lgamma`` seed, which is also more accurate than the
  difference of two large log gammas. The table is rebuilt at twice its
  size when a live run length outgrows it, up to ``_TABLE_CAP`` rows; the
  rows of the few hypotheses older than that are computed at each step
  from kappa0 + r, a0 + r/2 and the asymptotic series of D(a), so the
  model's memory stays bounded by the live hypotheses on an unbounded
  stream. A step reads the table with one gather at the live run lengths,
  or as its first n columns when they are dense.

One pass over the columns computes ``d = x - mu`` and ``d^2`` once and uses
them both for the Student-t log predictive ``log p = c_r - log(B)/2 - h_r
log1p(d^2 / B)`` and for the next table: ``mu' = mu + d / kappa_{r+1}`` and
``B' = (B + d^2) rho_r``. The latter follows from the conjugate update
``b' = b + kappa d^2 / (2 kappa')`` with ``kappa' = kappa + 1``: since ``b =
kappa B / (2 (kappa + 1))``, ``b' = kappa (B + d^2) / (2 kappa')``, and so
``B' = 2 b' (kappa' + 1) / kappa' = (B + d^2) kappa (kappa + 2) / (kappa +
1)^2``. The baseline feeds the trellis its Student-t log densities as they
are, with no exp/log round trip.

The runtime needs only numpy and the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .crp import LabelCounts, crp_numerators, crp_prior, crp_run_predictive
from .emission import (
    CandidatePolicy,
    ClassTable,
    EmissionParams,
    decay_rates,
    em_step,
    spawn_candidate,
)

# Not called here; kept in this namespace because perfbench's tracer
# self-test checks that tracing restores ``streamcpd.detector.m_step``.
from .emission import m_step  # noqa: F401
from .errors import ConfigError, ContractViolation, InputError
# The readout reaches the shared dense table through the module: perfbench's
# tracer times every function imported into this namespace as a span of its
# own, which added about 10 us of traced time per step to a 0.2 us call.
from . import runlength
from .runlength import (
    ChangePointRule,
    HazardConfig,
    PrunePolicy,
    RunLengthState,
    _is_integer,
    normalize_posterior,
    prune,
    recursion_step,
)

# Posterior entries below this are dropped from StepOutput (memory plumbing
# only; keeps the stored slice summing to 1 within 1e-9 for runs well past
# 10^4 steps).
_POSTERIOR_KEEP = 1e-14

# The baseline's responsibilities: one class, shared by every step.
_ONE = np.ones(1)
_ONE.setflags(False)


@dataclass(frozen=True)
class NigParams:
    """Normal-Inverse-Gamma parameters (used both as prior and posterior)."""

    mu: float = 0.0
    kappa: float = 1.0
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ConfigError(f"NIG mu must be finite, got {self.mu!r}")
        if not all(0.0 < v < math.inf for v in (self.kappa, self.a, self.b)):
            raise ConfigError("NIG kappa, a, b must all be positive and finite")


# The run-length table stops growing at this many rows (2 MB). Past it a_r
# >= 2^15, where the series of D(a) in _run_length_rows_past_cap is off by
# less than 1e-25.
_TABLE_CAP = 1 << 16


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
    d0 = math.lgamma(p.a + 0.5) - math.lgamma(p.a)
    # D_{r+1} = log(a_r) - D_r.
    d = accumulate(np.log(a[:-1]).tolist(), lambda d_r, log_a: log_a - d_r, initial=d0)
    return _run_length_rows(kappa, a, np.fromiter(d, float, n))


def _run_length_rows_past_cap(p: NigParams, r: np.ndarray) -> np.ndarray:
    """The run-length table's rows at run lengths ``r >= _TABLE_CAP`` under
    the prior ``p``, from closed forms: D(a) = log(a)/2 - 1/(8a) + 1/(192
    a^3) + O(a^-5)."""
    kappa = p.kappa + r
    a = p.a + 0.5 * r
    series = (1.0 / 192.0) / np.square(a) - 0.125
    return _run_length_rows(kappa, a, 0.5 * np.log(a) + series / a)


def _fixed_k_offsets(k_fixed: int) -> list[float]:
    """Standard normal quantiles at i / (k_fixed + 1), i = 1..k_fixed: where
    the fixed-k class means start, in prior standard deviations from the
    first observation."""
    # Imported here, its only use: statistics also loads fractions and
    # decimal, several ms of every interpreter that imports the package.
    from statistics import NormalDist

    std = NormalDist()
    return [std.inv_cdf(i / (k_fixed + 1.0)) for i in range(1, k_fixed + 1)]


def fixed_k_run_predictive(window_count, r, k: int, k_fixed: int, beta: float):
    """Dirichlet-categorical posterior predictive of class k over a window
    of length r in which k occurred ``window_count`` times:
    (w + beta) / (r + K * beta). Vectorized over window_count/r (numbers or
    numpy arrays)."""
    if not 1 <= k <= k_fixed:
        raise ContractViolation(f"class id {k} out of range 1..{k_fixed}")
    return (window_count + beta) / (r + k_fixed * beta)


@dataclass(frozen=True)
class DetectorConfig:
    mode: str = "infinite"
    alpha: float = 1.0
    k_fixed: int = 10
    dirichlet_beta: float = 1.0
    hazard: HazardConfig = field(default_factory=HazardConfig)
    candidate: CandidatePolicy = field(default_factory=CandidatePolicy)
    eta_init: tuple[float, float] = (1.0, 0.02)
    decay: float = 0.02
    var_floor: float = 1e-6
    log_var_update: bool = False
    prune: PrunePolicy = field(default_factory=PrunePolicy)
    cp_rule: ChangePointRule = field(default_factory=ChangePointRule)
    baseline: NigParams = field(default_factory=NigParams)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _MODELS:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not (0.0 < self.alpha < math.inf):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (_is_integer(self.k_fixed) and self.k_fixed >= 1):
            raise ConfigError(f"k_fixed must be an integer >= 1, got {self.k_fixed!r}")
        if not (0.0 < self.dirichlet_beta < math.inf):
            raise ConfigError(
                f"dirichlet beta must be positive and finite, got {self.dirichlet_beta!r}"
            )
        if not all(0.0 < eta < math.inf for eta in self.eta_init):
            raise ConfigError(
                f"initial learning rates must be positive and finite, got {self.eta_init!r}"
            )
        if not (0.0 < self.decay < 1.0):
            raise ConfigError(f"decay must lie in (0, 1), got {self.decay!r}")
        if not (0.0 < self.var_floor < math.inf):
            raise ConfigError(f"var_floor must be positive and finite, got {self.var_floor!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


class SparsePosterior(NamedTuple):
    """The run-length posterior entries of one step that are at least
    ``_POSTERIOR_KEEP`` (1e-14), with their run lengths, ascending. Both
    arrays are read-only. When no entry falls below the cut they are the
    step's own run lengths and posterior, not copies. When the shown
    entries are the first k, with run lengths ``0..k-1``, ``probs`` is a
    copy and ``runs`` a view of the shared dense run-length table (see
    ``runlength.py``). Otherwise both are copies. So a slice that hides
    entries never keeps the step's full posterior alive."""

    runs: np.ndarray
    probs: np.ndarray


@dataclass(slots=True)
class StepOutput:
    """Everything one step produced: label, class count, MAP run length,
    the E-step responsibilities, the (sparse) run-length posterior slice,
    and the change-point flag. Its arrays are read-only and may be shared
    with the detector's state (the baseline's responsibilities are one
    array for every step, and ``rl_posterior`` takes one of the three
    forms :class:`SparsePosterior` lists), so copy one before changing
    it. None keeps a hidden posterior tail alive."""

    t: int
    z_star: int
    k_t: int
    r_star: int
    responsibilities: np.ndarray
    rl_posterior: SparsePosterior
    cp_flag: bool


@dataclass
class RunResult:
    steps: list[StepOutput]
    change_points: list[int]
    final_k: int
    params: list[EmissionParams]
    config: DetectorConfig
    series: np.ndarray


class _LatentModel:
    """What the two latent models share: the class table and its emission
    step, and the ledger of MAP labels, which ``commit`` appends to. They
    hold nothing per run-length hypothesis, so pruning needs no hook."""

    keep = None

    def __init__(self, cfg: DetectorConfig, table: ClassTable | None, n_classes: int = 0):
        self.cfg = cfg
        self.table = table
        self.counts = LabelCounts(n_classes)

    def commit(self, z_star: int) -> None:
        self.counts.record(z_star)

    def _emission_step(self, x: float, t: int, prior, candidate: bool) -> tuple[np.ndarray, int]:
        """One SGD-EM step over the class table, then the winner's rate
        decay; with ``candidate`` a fresh class is spawned into the last
        column first and kept only if the MAP assignment picks it. Returns
        the responsibilities and the 1-based MAP class. An observation that
        overflows the arithmetic raises ``InputError`` and leaves the table
        as it was."""
        cfg = self.cfg
        table = self.table
        k_prev = table.n
        if candidate:
            spawn_candidate(
                table, x, cfg.candidate, cfg.eta_init, born_at=t, var_floor=cfg.var_floor
            )
        try:
            resp, z_star = em_step(
                table, x, prior, var_floor=cfg.var_floor, log_space=cfg.log_var_update
            )
        except FloatingPointError:
            table.n = k_prev
            raise InputError(
                f"observation at t={t} overflows the emission model: {x!r}"
            ) from None
        if z_star <= k_prev:
            table.n = k_prev
        decay_rates(table, z_star, cfg.decay)
        resp.setflags(False)
        return resp, z_star


class InfiniteModel(_LatentModel):
    """``infinite``: classes under a CRP, and the CRP window predictive of
    the MAP labels; the reset predictive is 1. ``numerators`` is the window
    predictive's numerator table at alpha and ``denominators`` its table of
    r + alpha, read on dense run lengths; both are doubled whenever the
    largest live run length reaches their end."""

    def __init__(self, cfg: DetectorConfig):
        super().__init__(cfg, ClassTable())
        self._grow(64)

    def _grow(self, n: int) -> None:
        self.numerators = crp_numerators(self.cfg.alpha, n)
        self.denominators = np.arange(n, dtype=float) + self.cfg.alpha

    def predict(self, x: float, t: int, run_lengths: np.ndarray, dense: bool):
        counts, alpha = self.counts, self.cfg.alpha
        resp, z_star = self._emission_step(x, t, crp_prior(counts, alpha), candidate=True)
        if run_lengths[-1] >= self.numerators.size:
            self._grow(2 * self.numerators.size)
        den = self.denominators if dense else None
        log_psi = np.log(crp_run_predictive(counts, run_lengths, z_star, self.numerators, den))
        return log_psi, 0.0, z_star, self.table.n, resp


class FixedKModel(_LatentModel):
    """``fixed-k``: K classes under a symmetric Dirichlet prior, and the
    Dirichlet-categorical window predictive of the MAP labels; the reset
    predictive is 1/K. The table is built at the first observation."""

    def __init__(self, cfg: DetectorConfig):
        super().__init__(cfg, None, cfg.k_fixed)

    def predict(self, x: float, t: int, run_lengths: np.ndarray, dense: bool):
        cfg = self.cfg
        lc = self.counts
        kf, beta = cfg.k_fixed, cfg.dirichlet_beta
        if self.table is None:
            # Class means fan out around the first observation at normal
            # quantiles; deterministic, and breaks the symmetry that would
            # otherwise keep all K classes identical forever.
            var0 = max(cfg.var_floor, cfg.candidate.var_init)
            self.table = ClassTable(kf)
            for o in _fixed_k_offsets(kf):
                self.table.push(float(x + math.sqrt(var0) * o), var0, *cfg.eta_init, born_at=1)

        prior = (lc.m[:kf] + beta) / (lc.t + kf * beta)
        resp, z_star = self._emission_step(x, t, prior, candidate=False)

        w = lc.window_counts(z_star, run_lengths, dense)
        log_psi = np.log(fixed_k_run_predictive(w, run_lengths, z_star, kf, beta))
        return log_psi, math.log(1.0 / kf), z_star, kf, resp


class BaselineModel:
    """``baseline``: the Student-t predictive of each live hypothesis's NIG
    posterior, from the hypothesis table ``live`` (rows mu and B) and the
    run-length table ``consts`` (layout in the module docstring).
    ``predict`` builds the next hypothesis table and ``commit`` installs it;
    ``keep`` drops the columns of pruned hypotheses."""

    table = None

    def __init__(self, cfg: DetectorConfig):
        self.prior = p = cfg.baseline
        self.prior_col = np.array([p.mu, 2.0 * p.b * (p.kappa + 1.0) / p.kappa])
        if not math.isfinite(self.prior_col[1]):
            raise ConfigError(
                f"baseline prior scale 2 b0 (kappa0 + 1) / kappa0 overflows: {p!r}"
            )
        self.live = self.prior_col[:, None].copy()
        self.consts = _run_length_table(p, 64)
        self._grown = None

    def predict(self, x: float, t: int, run_lengths: np.ndarray, dense: bool):
        n = run_lengths.size
        if run_lengths[-1] < self.consts.shape[1]:
            rows = self.consts[:, :n] if dense else self.consts.take(run_lengths, axis=1)
        else:
            rows = self._rows(run_lengths)
        c, h, inv_k1, rho = rows[0], rows[1], rows[2], rows[3]
        live = self.live
        mu, big_b = live[0], live[1]
        grown = np.empty((2, n + 1))
        grown[:, 0] = self.prior_col
        mu1, big_b1 = grown[0, 1:], grown[1, 1:]
        # An observation whose squared distance to a column's mean overflows
        # (|x - mu| near 1.3e154) would leave an inf or NaN column behind; it
        # raises InputError instead and leaves the detector as it was.
        try:
            with np.errstate(over="raise", invalid="raise"):
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
        except FloatingPointError:
            raise InputError(
                f"observation at t={t} overflows the baseline model: {x!r}"
            ) from None
        self._grown = grown
        # Column 0 is the prior, so log_psi[0] is the empty-window (reset)
        # predictive.
        return log_psi, float(log_psi[0]), 1, 1, _ONE

    def _rows(self, run_lengths: np.ndarray) -> np.ndarray:
        """The run-length table's columns at ``run_lengths`` (ascending) once
        the largest outgrows the table: the table doubles, up to
        ``_TABLE_CAP`` rows, and the rows past it are computed."""
        n = self.consts.shape[1]
        if n < _TABLE_CAP:
            n = min(2 * n, _TABLE_CAP)
            self.consts = _run_length_table(self.prior, n)
        split = run_lengths.searchsorted(n)
        return np.concatenate(
            (
                self.consts.take(run_lengths[:split], axis=1),
                _run_length_rows_past_cap(self.prior, run_lengths[split:]),
            ),
            axis=1,
        )

    def commit(self, z_star: int) -> None:
        self.live = self._grown

    def keep(self, before: np.ndarray, kept: np.ndarray) -> None:
        self.live = self.live.take(before.searchsorted(kept), axis=1)


_MODELS = {"infinite": InfiniteModel, "fixed-k": FixedKModel, "baseline": BaselineModel}


class Detector:
    """Single-writer streaming detector; feed observations via :meth:`step`.

    ``model`` is the mode's predictive model (see the module docstring).
    Deterministic given (config, series): no step draws a random number,
    so ``DetectorConfig.seed`` does not change the outputs.
    """

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.model = _MODELS[cfg.mode](cfg)
        self.rl = RunLengthState.initial()
        self.t = 0
        self._prev_r_star: int | None = None

    @property
    def params(self) -> list[EmissionParams] | None:
        """The live classes' parameters (a fresh list of records), or None
        in baseline mode and before the first fixed-k step."""
        table = self.model.table
        return None if table is None else table.params()

    def step(self, x: float) -> StepOutput:
        """Consume one observation and return this step's outputs."""
        x = float(x)
        t = self.t + 1
        if not math.isfinite(x):
            raise InputError(f"observation at t={t} is not finite: {x!r}")
        cfg, model = self.cfg, self.model
        rl = self.rl
        log_psi, log_psi_reset, z_star, k_t, resp = model.predict(
            x, t, rl.run_lengths, rl.dense
        )

        rl = self.rl = recursion_step(rl, log_psi, cfg.hazard, log_psi_reset)
        runs = rl.run_lengths
        posterior = normalize_posterior(rl)
        r_star = int(runs[posterior.argmax()])
        # The readout's three forms are in the module docstring. Both arrays
        # are read-only, so a step that shows every entry hands out its own.
        # Run lengths ascend from 0, so runs[k-1] == k-1 says that the first
        # k are 0..k-1; count_nonzero is cheaper here than mask.all().
        # (setflags(False) makes an array read-only.)
        if posterior[rl.posterior_argmin] >= _POSTERIOR_KEEP:
            shown = SparsePosterior(runs, posterior)
        else:
            mask = posterior >= _POSTERIOR_KEEP
            k = np.count_nonzero(mask)
            if runs[k - 1] == k - 1 and np.count_nonzero(mask[:k]) == k:
                shown = SparsePosterior(runlength._dense_run_lengths(k), posterior[:k].copy())
            else:
                shown = SparsePosterior(runs[mask], posterior[mask])
                shown.runs.setflags(False)
            shown.probs.setflags(False)
        out = StepOutput(
            t=t,
            z_star=z_star,
            k_t=k_t,
            r_star=r_star,
            responsibilities=resp,
            rl_posterior=shown,
            cp_flag=cfg.cp_rule.fires(self._prev_r_star, r_star, runs, posterior),
        )
        model.commit(z_star)
        self._prev_r_star = r_star

        if cfg.prune.kind != "none":
            self.rl = prune(rl, cfg.prune)
            if model.keep is not None and self.rl.run_lengths.size < runs.size:
                model.keep(runs, self.rl.run_lengths)
        self.t = t
        return out


def run(series, cfg: DetectorConfig) -> RunResult:
    """Fold a detector over a whole series and collect the trace."""
    arr = np.asarray(series, dtype=float).ravel()
    if arr.size == 0:
        raise ContractViolation("series must be non-empty")
    det = Detector(cfg)
    steps = [det.step(v) for v in arr]
    change_points = [s.t for s in steps if s.cp_flag]
    return RunResult(
        steps=steps,
        change_points=change_points,
        final_k=steps[-1].k_t,
        params=list(det.params or []),
        config=cfg,
        series=arr,
    )
