"""End-to-end streaming detector.

One run-length recursion, fed by a predictive model chosen once per mode
(the "underlying predictive model" of Adams & MacKay, 2007):

- ``infinite`` (:class:`InfiniteModel`): latent classes under a CRP; a
  candidate class is spawned every step and kept only if the MAP assignment
  picks it. Predictive: the CRP window predictive of the MAP labels.
- ``fixed-k`` (:class:`FixedKModel`): K fixed classes under a symmetric
  Dirichlet prior. Predictive: the Dirichlet-categorical window predictive.
- ``baseline`` (:class:`BaselineModel`): no latent layer. Predictive: the
  Normal-Inverse-Gamma Student-t on the raw observations (``nig.py``).

A model has one call per step, ``predict(x, state) -> (log_psi, z_star,
k_t, resp, columns)``: the log predictive of observation x at step
``state.t + 1`` under every hypothesis of the trellis state ``state``, and
the grown hypotheses' columns (the baseline's hypothesis table, or None).
Run length 0, never pruned, is entry 0 of every state, and its window is
empty, so ``log_psi[0]`` is also the reset predictive: 1 in ``infinite``,
beta / (K beta) in ``fixed-k``, the prior's Student-t in ``baseline``. The
hypothesis table rides in the trellis state (``RunLengthState.columns``),
so the prune that drops a hypothesis drops its column with it and a model
holds nothing per hypothesis. When the run lengths are dense, ``0..n-1``
(``RunLengthState.dense``), ``predict`` reads its per-run-length tables by
prefix slices instead of gathers. So :meth:`Detector.step` is one body for
every mode: predict; one ``recursion_step``, which grows, normalizes and
prunes the trellis and carries the columns, t and the MAP run length into
the new state; the readout of the grown posterior. Nothing waits for the
trellis step to succeed:

- ``predict`` alone can refuse an observation. On one that overflows its
  arithmetic it raises ``FloatingPointError``, which :meth:`Detector.step`
  turns into ``InputError`` naming the model's ``layer``, with the model
  as it was: the latent models record the step's label after everything
  that can raise.
- After a ``predict`` that returned, ``recursion_step`` cannot raise: the
  latent log predictives are logs of values in [0, 1], entry 0's in (0, 1],
  and the baseline's are finite, so the reset weight ``log h + log_psi[0]
  + evidence`` is finite and with it the step's total, and run length 0,
  never pruned, always has mass for the prune to fold the rest into. So
  the trellis's failure path, which raises ``ContractViolation``, is not
  an outcome of a step; ``tests/test_detector.py`` checks this in every
  mode at the ends of the hazard's range and of the model's rule.

The readout hands out the posterior entries at or above 1e-14 with their
run lengths, in one of three forms: the step's own arrays when nothing is
hidden; a copy of the first k probabilities with a view of the shared dense
table as run lengths when the shown entries are the first k and their run
lengths are ``0..k-1``; otherwise copies by two boolean gathers. A stored
slice that hides entries thus never keeps the step's full posterior, and
with it the hidden tail, alive.

A latent model is its two tables: a :class:`ClassTable`, which owns the
emission rule (see ``emission.py``), and a :class:`LabelCounts` ledger of
the MAP labels, which owns the seating rule ``num(w) / (n + c)`` (see
``crp.py``); it reads no config field once built. Both latent models run
one ``predict``: a single SGD-EM pass over the table (E-step, M-step and
MAP assignment from shared intermediates, committed only on success), the
winner's rate decay, and the ledger's two predictives, the class prior over
the whole history and the window predictive of the MAP label at every live
run length, read by slices on dense run lengths. It makes new classes in
one place, a ``_spawn`` hook inside the step's rollback, and records the
step's label last. So the two models differ only in the rule's constants
they give the ledger and in what the hook pushes (the infinite mode's
candidate, or the fixed-k fan-out at the first step).

The runtime needs only numpy and the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .crp import LabelCounts
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
from .errors import ContractViolation, InputError
from .nig import NigParams, RunLengthTable
# The readout reaches the shared dense table through the module: perfbench's
# tracer times every function imported into this namespace as a span of its
# own, which added about 10 us of traced time per step to a 0.2 us call.
from . import runlength
from .runlength import (
    ChangePointRule,
    HazardConfig,
    PrunePolicy,
    RunLengthState,
    recursion_step,
)
from .schema import check_fields, choice, flag, integer, nested, pair, real

# Posterior entries below this are dropped from StepOutput (memory plumbing
# only; keeps the stored slice summing to 1 within 1e-9 for runs well past
# 10^4 steps).
_POSTERIOR_KEEP = 1e-14

# The baseline's responsibilities: one class, shared by every step.
_ONE = np.ones(1)
_ONE.setflags(False)


def _fixed_k_offsets(k_fixed: int) -> list[float]:
    """Standard normal quantiles at i / (k_fixed + 1), i = 1..k_fixed: where
    the fixed-k class means start, in prior standard deviations from the
    first observation."""
    # Imported here, its only use: statistics also loads fractions and
    # decimal, several ms of every interpreter that imports the package.
    from statistics import NormalDist

    std = NormalDist()
    return [std.inv_cdf(i / (k_fixed + 1.0)) for i in range(1, k_fixed + 1)]


@dataclass(frozen=True)
class DetectorConfig:
    """Every setting of a detector, one field per manifest key. The bounds
    are the ranges the models need, so a config that passes its field
    checks builds a detector: K beta stays finite, and so does 2 var^2 in
    the emission gradients. Below a ``var_floor`` of about 2.6e-104, a
    fixed-k class fanned out around the first observation took a mean step
    of about 1/sqrt(var) that overflowed that gradient at the next step."""

    mode: str = choice("infinite", "fixed-k", "baseline")
    alpha: float = real("(0, inf)", 1.0)
    k_fixed: int = integer("[1, 1e6]", 10)
    dirichlet_beta: float = real("(0, 1e150]", 1.0)
    hazard: HazardConfig = nested(HazardConfig)
    candidate: CandidatePolicy = nested(CandidatePolicy)
    eta_init: tuple[float, float] = pair("(0, inf)", (1.0, 0.02))
    decay: float = real("(0, 1)", 0.02)
    var_floor: float = real("[1e-100, 1e150]", 1e-6)
    log_var_update: bool = flag(False)
    prune: PrunePolicy = nested(PrunePolicy)
    cp_rule: ChangePointRule = nested(ChangePointRule)
    baseline: NigParams = nested(NigParams)
    seed: int = integer("[0, inf)", 0)

    __post_init__ = check_fields


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


class _LatentModel:
    """What the two latent models share: the class table, which owns the
    emission rule (see ``emission.py``), the ledger of MAP labels, which
    owns the seating rule (see ``crp.py``), and one ``predict``, which
    appends the step's label to the ledger. A latent model is those two
    tables; it reads no config field once built and has no columns per
    run-length hypothesis.

    A subclass gives the constants of the ledger's seating rule ``num(w) /
    (n + c)``: ``num(w) = w + smoothing`` above ``num(0) = unseen``, and
    ``c``. The ledger answers the class prior and the window predictive
    from them; the latter's empty window, ``unseen / c``, is the reset
    predictive. A subclass also sets ``_spawn(x, t)``, which pushes the
    step's new classes onto the table inside ``predict``'s rollback."""

    layer = "emission"  # the layer an overflow names

    def __init__(self, cfg: DetectorConfig, smoothing: float, unseen: float, c: float):
        self.table = ClassTable(
            var_floor=cfg.var_floor, log_space=cfg.log_var_update,
            decay=cfg.decay, eta_init=cfg.eta_init, candidate=cfg.candidate,
        )
        self.counts = LabelCounts(smoothing=smoothing, unseen=unseen, c=c)

    def predict(self, x: float, state: RunLengthState):
        """One SGD-EM step over the class table under the class prior, then
        the winner's rate decay, the window predictive of the MAP label over
        the earlier labels, and the ledger's record of that label. The
        classes ``_spawn`` pushes take the last columns and are kept only if
        the MAP assignment picks one of them; the prior covers every column,
        seen or not. An observation that overflows the arithmetic raises
        ``FloatingPointError`` and leaves the model as it was."""
        table, counts = self.table, self.counts
        k_prev = table.n
        try:
            self._spawn(x, state.t + 1)
            resp, z_star = em_step(table, x, counts.class_prior(table.n))
        except FloatingPointError:
            table.n = k_prev
            raise
        if z_star <= k_prev:
            table.n = k_prev
        decay_rates(table, z_star)
        resp.setflags(False)

        psi = counts.window_predictive(z_star, state.run_lengths, state.dense)
        counts.record(z_star)
        return np.log(psi), z_star, table.n, resp, None


class InfiniteModel(_LatentModel):
    """``infinite``: classes under a CRP and a candidate spawned every step.
    The rule's constants are smoothing 0 and unseen = c = alpha: the class
    prior is ``m_k / (t + alpha)`` with the new-table mass alpha at the
    candidate, and the window predictive of the MAP labels is ``w / (r +
    alpha)`` with alpha at w = 0, so the empty window's is alpha / alpha =
    1."""

    def __init__(self, cfg: DetectorConfig):
        super().__init__(cfg, smoothing=0.0, unseen=cfg.alpha, c=cfg.alpha)

    def _spawn(self, x: float, t: int) -> None:
        spawn_candidate(self.table, x, born_at=t)


class FixedKModel(_LatentModel):
    """``fixed-k``: K classes under a symmetric Dirichlet prior. The rule's
    constants are smoothing = unseen = beta and c = K beta: the class prior
    is ``(m_k + beta) / (t + K beta)``, and the Dirichlet-categorical window
    predictive of the MAP labels ``(w + beta) / (r + K beta)``, so the empty
    window's is beta / (K beta). The table starts empty, and the first step
    fans its K classes out around its observation, so a refused first
    observation leaves it empty."""

    def __init__(self, cfg: DetectorConfig):
        kf, beta = cfg.k_fixed, cfg.dirichlet_beta
        super().__init__(cfg, smoothing=beta, unseen=beta, c=kf * beta)
        self.k_fixed = kf

    def _spawn(self, x: float, t: int) -> None:
        """At the first step, the K classes at the candidate's start: their
        means fan out around x at normal quantiles, which is deterministic
        and breaks the symmetry that would otherwise keep all K classes
        identical forever."""
        table = self.table
        if table.n:
            return
        var0 = table.var0
        for o in _fixed_k_offsets(self.k_fixed):
            table.push(float(x + math.sqrt(var0) * o), var0, *table.eta_init, born_at=t)


class BaselineModel:
    """``baseline``: the NIG Student-t predictive of each live hypothesis, by
    one pass of the run-length table ``nig`` (see ``nig.py``) over the
    hypothesis table the trellis state carries as its ``columns``; the
    grown table goes back for ``recursion_step`` to prune."""

    layer = "baseline"
    table = None

    def __init__(self, cfg: DetectorConfig):
        self.nig = RunLengthTable(cfg.baseline)

    def predict(self, x: float, state: RunLengthState):
        log_psi, grown = self.nig.log_predictive(x, state.run_lengths, state.dense, state.columns)
        return log_psi, 1, 1, _ONE, grown


_MODELS = {"infinite": InfiniteModel, "fixed-k": FixedKModel, "baseline": BaselineModel}


class Detector:
    """Single-writer streaming detector; feed observations via :meth:`step`.

    ``model`` is the mode's predictive model (see the module docstring),
    called once a step, and ``rl`` the trellis state, which also holds t,
    the last MAP run length and the model's per-hypothesis columns. So a
    fresh detector given a copy of a detector's ``model`` and its ``rl``
    (read-only, so it can be shared) goes on as that detector would.
    ``cfg`` is the config as given: a config stores its values as Python
    numbers (see ``schema.py``), so a numpy value gives the outputs of the
    same Python number. Deterministic given (config, series): no step draws
    a random number, so ``DetectorConfig.seed`` does not change the
    outputs.
    """

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.model = _MODELS[cfg.mode](cfg)
        self.rl = RunLengthState.initial()

    @property
    def params(self) -> list[EmissionParams] | None:
        """The live classes' parameters (a fresh list of records; empty
        before the first step), or None in baseline mode, which has no
        classes."""
        table = self.model.table
        return None if table is None else table.params()

    def step(self, x: float) -> StepOutput:
        """Consume one observation and return this step's outputs. An
        observation that is not a finite real number (one ``float()``
        refuses, or NaN, or an infinity), or that overflows the model's
        arithmetic, raises ``InputError`` naming its step and leaves the
        detector as it was."""
        rl = self.rl
        t = rl.t + 1
        try:
            x = float(x)
        except (TypeError, ValueError, OverflowError) as exc:
            # The message, not a repr of x: a repr of an int past 4300
            # digits raises ValueError.
            raise InputError(f"observation at t={t} is not a real number: {exc}") from None
        if not math.isfinite(x):
            raise InputError(f"observation at t={t} is not finite: {x!r}")
        cfg, model = self.cfg, self.model
        try:
            log_psi, z_star, k_t, resp, columns = model.predict(x, rl)
        except FloatingPointError:
            msg = f"observation at t={t} overflows the {model.layer} model: {x!r}"
            raise InputError(msg) from None

        # A change starts a run whose window is empty: run length 0's, which
        # is entry 0 of every state, so log_psi[0] is the reset predictive.
        new, runs, posterior, i_min = recursion_step(
            rl, log_psi, cfg.hazard, float(log_psi[0]), cfg.prune, columns
        )
        r_star = new.r_star
        # The readout's three forms are in the module docstring. Both arrays
        # are read-only, so a step that shows every entry hands out its own.
        # Run lengths ascend from 0, so runs[k-1] == k-1 says that the first
        # k are 0..k-1; count_nonzero is cheaper here than mask.all().
        # (setflags(False) makes an array read-only.)
        if posterior[i_min] >= _POSTERIOR_KEEP:
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
            cp_flag=cfg.cp_rule.fires(rl.r_star, r_star, runs, posterior),
        )
        self.rl = new
        return out


def run(series, cfg: DetectorConfig) -> RunResult:
    """Fold a detector over a whole series and collect the trace. The
    series is one axis of real numbers: a shape ``(T,)``, ``(T, 1)`` or
    ``(1, T)``. Values numpy cannot read as floats raise ``InputError``."""
    try:
        arr = np.asarray(series, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"series is not an array of real numbers: {exc}") from None
    if sum(d > 1 for d in arr.shape) > 1:
        raise ContractViolation(f"series must have one axis longer than 1, got shape {arr.shape}")
    arr = arr.ravel()
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
    )
