"""End-to-end streaming detector.

Three modes share one trellis code path and differ only in the predictive
they feed it. The two latent modes also share one emission step, a single
SGD-EM pass over one :class:`ClassTable` (E-step, M-step and MAP assignment
from shared intermediates, committed only on success) plus the winner's rate
decay, and differ only in the class prior, whether a candidate column is
spawned, and the window predictive:

- ``infinite``: latent classes under a CRP; a candidate class is spawned
  every step and kept only if the MAP assignment picks it.
- ``fixed-k``: a fixed set of K classes with a symmetric Dirichlet prior on
  the class probabilities (posterior predictive with additive smoothing).
- ``baseline``: no latent layer; the trellis runs on raw observations with
  a Normal-Inverse-Gamma conjugate model (Student-t predictive).

The baseline keeps one column per live run-length hypothesis in a ``(5,
n)`` struct-of-arrays table, aligned with ``RunLengthState.run_lengths``:
rows ``mu, kappa, a, b`` hold the NIG posterior of each hypothesis's window
and row ``D = lgamma(a + 1/2) - lgamma(a)`` the normalizing-constant term of
its Student-t predictive, so every per-quantity operation runs over one
contiguous row. Column 0 is always the prior (run length 0, an empty
window), so its predictive is also the reset predictive. Conditioning a
column on one observation adds 1/2 to ``a``, and ``D`` follows by the exact
recurrence ``D(a + 1/2) = log(a) - D(a)``: one log per column and step,
seeded once with ``math.lgamma`` for the prior. That is also more accurate
than the difference of two large log gammas. The baseline feeds the trellis
its Student-t log densities as they are, with no exp/log round trip.

The runtime needs only numpy and the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .crp import CrpState, LabelCounts
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
from .errors import ConfigError, ContractViolation, DegenerateStateError, InputError
from .runlength import (
    ChangePointRule,
    HazardConfig,
    PrunePolicy,
    RunLengthState,
    normalize_posterior,
    prune,
    recursion_step,
)

# Posterior entries below this are dropped from StepOutput (memory plumbing
# only; keeps the stored slice summing to 1 within 1e-9 for runs well past
# 10^4 steps).
_POSTERIOR_KEEP = 1e-14


@dataclass(frozen=True)
class NigParams:
    """Normal-Inverse-Gamma parameters (used both as prior and posterior)."""

    mu: float = 0.0
    kappa: float = 1.0
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.kappa > 0 and self.a > 0 and self.b > 0):
            raise ConfigError("NIG kappa, a, b must all be positive")


def nig_update(p: NigParams, x: float) -> NigParams:
    """Conjugate update with one observation."""
    kappa = p.kappa + 1.0
    return NigParams(
        mu=(p.kappa * p.mu + x) / kappa,
        kappa=kappa,
        a=p.a + 0.5,
        b=p.b + p.kappa * (x - p.mu) ** 2 / (2.0 * kappa),
    )


def _nig_row(p: NigParams) -> np.ndarray:
    """The baseline table column of a NIG state: mu, kappa, a, b and
    D = lgamma(a + 1/2) - lgamma(a)."""
    return np.array([p.mu, p.kappa, p.a, p.b, math.lgamma(p.a + 0.5) - math.lgamma(p.a)])


def _student_t_logpdf(x: float, nig: np.ndarray) -> np.ndarray:
    """Posterior-predictive Student-t log density of x under every column of
    a baseline table (vectorized over columns)."""
    mu, kappa, a, b, d = nig
    df = 2.0 * a
    scale2 = b * (kappa + 1.0) / (a * kappa)
    logc = d - 0.5 * (np.log(df) + np.log(np.pi) + np.log(scale2))
    return logc - 0.5 * (df + 1.0) * np.log1p((x - mu) ** 2 / (df * scale2))


def _nig_grow(nig: np.ndarray, x: float, prior: np.ndarray) -> np.ndarray:
    """The baseline table after observing x: the prior column for the
    newborn run length 0, then every column conditioned on x (run length
    r -> r + 1): kappa' = kappa + 1, mu' = (kappa mu + x) / kappa', a' = a +
    1/2, b' = b + kappa (x - mu)^2 / (2 kappa') and D' = log(a) - D, each
    written in place into its row of the new table."""
    mu, kappa, a, b, d = nig
    out = np.empty((5, nig.shape[1] + 1))
    out[:, 0] = prior
    mu1, kappa1, a1, b1, d1 = out[:, 1:]
    np.add(kappa, 1.0, out=kappa1)
    np.multiply(kappa, mu, out=mu1)
    mu1 += x
    mu1 /= kappa1
    np.add(a, 0.5, out=a1)
    np.subtract(x, mu, out=b1)
    np.square(b1, out=b1)
    b1 *= kappa
    b1 /= 2.0 * kappa1
    b1 += b
    np.log(a, out=d1)
    d1 -= d
    return out


def baseline_predictive(x: float, p: NigParams) -> float:
    """Predictive density of x under a NIG state (prior or posterior).

    With an empty window this is the prior predictive: a Student-t with
    2*a degrees of freedom.
    """
    return float(np.exp(_student_t_logpdf(x, _nig_row(p)[:, None])[0]))


def _fixed_k_offsets(k_fixed: int) -> list[float]:
    """Standard normal quantiles at i / (k_fixed + 1), i = 1..k_fixed: where
    the fixed-k class means start, in prior standard deviations from the
    first observation."""
    std = NormalDist()
    return [std.inv_cdf(i / (k_fixed + 1.0)) for i in range(1, k_fixed + 1)]


def fixed_k_run_predictive(window_count, r, k, k_fixed: int, beta: float):
    """Dirichlet-categorical posterior predictive of class k over a window
    of length r in which k occurred ``window_count`` times:
    (w + beta) / (r + K * beta). Vectorized over window_count/r."""
    k_arr = np.asarray(k)
    if np.any(k_arr < 1) or np.any(k_arr > k_fixed):
        raise ContractViolation(f"class id {k} out of range 1..{k_fixed}")
    return (np.asarray(window_count, dtype=float) + beta) / (
        np.asarray(r, dtype=float) + k_fixed * beta
    )


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
        if self.mode not in ("infinite", "fixed-k", "baseline"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not (self.alpha > 0):
            raise ConfigError(f"alpha must be positive, got {self.alpha!r}")
        if self.k_fixed < 1:
            raise ConfigError(f"k_fixed must be >= 1, got {self.k_fixed!r}")
        if not (self.dirichlet_beta > 0):
            raise ConfigError(f"dirichlet beta must be positive, got {self.dirichlet_beta!r}")
        if not (self.eta_init[0] > 0 and self.eta_init[1] > 0):
            raise ConfigError("initial learning rates must be positive")
        if not (0.0 < self.decay < 1.0):
            raise ConfigError(f"decay must lie in (0, 1), got {self.decay!r}")
        if not (self.var_floor > 0):
            raise ConfigError(f"var_floor must be positive, got {self.var_floor!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


class SparsePosterior(NamedTuple):
    runs: np.ndarray
    probs: np.ndarray


@dataclass
class StepOutput:
    """Everything one step produced: label, class count, MAP run length,
    the E-step responsibilities, the (sparse) run-length posterior slice,
    and the change-point flag."""

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


class Detector:
    """Single-writer streaming detector; feed observations via :meth:`step`.

    Deterministic given (config, series): no step draws a random number,
    so ``DetectorConfig.seed`` does not change the outputs.
    """

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.rl = RunLengthState.initial()
        self.t = 0
        self._prev_r_star: int | None = None
        self._table: ClassTable | None = None
        self.crp: CrpState | None = None
        self.counts: LabelCounts | None = None
        self._nig: np.ndarray | None = None
        if cfg.mode == "infinite":
            self.crp = CrpState(cfg.alpha)
            self._table = ClassTable()
        elif cfg.mode == "fixed-k":
            self.counts = LabelCounts(cfg.k_fixed)
        else:
            self._prior = _nig_row(cfg.baseline)
            self._nig = self._prior[:, None].copy()

    @property
    def params(self) -> list[EmissionParams] | None:
        """The live classes' parameters (a fresh list of records), or None
        in baseline mode and before the first fixed-k step."""
        return None if self._table is None else self._table.params()

    # -- mode bodies --------------------------------------------------

    def _emission_step(self, x: float, prior, candidate: bool) -> tuple[np.ndarray, int]:
        """One SGD-EM step over the class table, then the winner's rate
        decay; with ``candidate`` a fresh class is spawned into the last
        column first and kept only if the MAP assignment picks it. Returns
        the responsibilities and the 1-based MAP class. An observation that
        overflows the arithmetic raises ``InputError`` and leaves the table
        as it was."""
        cfg = self.cfg
        table = self._table
        k_prev = table.n
        if candidate:
            spawn_candidate(
                table, x, cfg.candidate, cfg.eta_init, born_at=self.t + 1, var_floor=cfg.var_floor
            )
        try:
            resp, z_star = em_step(
                table, x, prior, var_floor=cfg.var_floor, log_space=cfg.log_var_update
            )
        except FloatingPointError:
            table.n = k_prev
            raise InputError(
                f"observation at t={self.t + 1} overflows the emission model: {x!r}"
            ) from None
        if z_star <= k_prev:
            table.n = k_prev
        decay_rates(table, z_star, cfg.decay)
        return resp, z_star

    def _step_infinite(self, x: float) -> StepOutput:
        crp = self.crp
        resp, z_star = self._emission_step(x, crp.global_predictive(), candidate=True)
        psi = crp.run_predictive_many(self.rl.run_lengths, z_star)
        out = self._finish(np.log(psi), 0.0, z_star, self._table.n, resp)
        crp.record_assignment(z_star)
        return out

    def _init_fixed_classes(self, x: float) -> ClassTable:
        # Class means fan out around the first observation at normal
        # quantiles; deterministic, and breaks the symmetry that would
        # otherwise keep all K classes identical forever.
        cfg = self.cfg
        var0 = max(cfg.var_floor, cfg.candidate.var_init)
        return ClassTable.from_params(
            EmissionParams(
                mu=float(x + math.sqrt(var0) * o),
                var=var0,
                eta_mu=cfg.eta_init[0],
                eta_var=cfg.eta_init[1],
                born_at=1,
            )
            for o in _fixed_k_offsets(cfg.k_fixed)
        )

    def _step_fixed_k(self, x: float) -> StepOutput:
        cfg = self.cfg
        lc = self.counts
        kf, beta = cfg.k_fixed, cfg.dirichlet_beta
        if self._table is None:
            self._table = self._init_fixed_classes(x)

        prior = (lc.totals(kf).astype(float) + beta) / (lc.t + kf * beta)
        resp, z_star = self._emission_step(x, prior, candidate=False)

        w = lc.window_counts(z_star, self.rl.run_lengths)
        psi = fixed_k_run_predictive(w, self.rl.run_lengths, z_star, kf, beta)
        out = self._finish(np.log(psi), math.log(1.0 / kf), z_star, kf, resp)
        lc.record(z_star)
        return out

    def _step_baseline(self, x: float) -> StepOutput:
        # An observation that overflows the NIG arithmetic (|x - mu| near
        # 1e154) would leave an inf or NaN column behind; it raises
        # DegenerateStateError instead and leaves the detector as it was.
        try:
            with np.errstate(over="raise", invalid="raise"):
                log_psi = _student_t_logpdf(x, self._nig)
                nig = _nig_grow(self._nig, x, self._prior)
        except FloatingPointError:
            raise DegenerateStateError(
                f"observation at t={self.t + 1} overflows the baseline model: {x!r}"
            ) from None
        # Column 0 is the prior, so log_psi[0] is the empty-window (reset)
        # predictive.
        out = self._finish(log_psi, float(log_psi[0]), 1, 1, np.ones(1))
        self._nig = nig
        return out

    # -- shared trellis tail -------------------------------------------

    def _finish(self, log_psi, log_psi_reset, z_star, k_t, resp) -> StepOutput:
        self.rl = recursion_step(self.rl, log_psi, self.cfg.hazard, log_psi_reset)
        posterior = normalize_posterior(self.rl)
        r_star = int(self.rl.run_lengths[posterior.argmax()])
        cp = self._cp_fired(r_star, posterior)
        keep = posterior >= _POSTERIOR_KEEP
        out = StepOutput(
            t=self.rl.t,
            z_star=z_star,
            k_t=k_t,
            r_star=r_star,
            responsibilities=resp,
            rl_posterior=SparsePosterior(self.rl.run_lengths[keep], posterior[keep]),
            cp_flag=cp,
        )
        self._prev_r_star = r_star
        return out

    def _cp_fired(self, r_star: int, posterior: np.ndarray) -> bool:
        rule = self.cfg.cp_rule
        if rule.mode == "map-drop":
            prev = self._prev_r_star
            return prev is not None and r_star < rule.drop_fraction * prev
        mass = float(posterior[self.rl.run_lengths <= rule.mass_window].sum())
        return mass >= rule.mass_threshold

    def step(self, x: float) -> StepOutput:
        """Consume one observation and return this step's outputs."""
        x = float(x)
        if not math.isfinite(x):
            raise InputError(f"observation at t={self.t + 1} is not finite: {x!r}")
        if self.cfg.mode == "infinite":
            out = self._step_infinite(x)
        elif self.cfg.mode == "fixed-k":
            out = self._step_fixed_k(x)
        else:
            out = self._step_baseline(x)

        if self.cfg.prune.kind != "none":
            before = self.rl.run_lengths
            self.rl = prune(self.rl, self.cfg.prune)
            kept = self.rl.run_lengths
            if self._nig is not None and kept.size < before.size:
                self._nig = self._nig.take(before.searchsorted(kept), axis=1)
        self.t += 1
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
