"""The exact references the runtime is checked against, none of which the
detector calls:

- :func:`brute_force_joint` and :func:`brute_force_joint_by_segments`, two
  enumerations of the trellis's joint over the final run length, computed
  independently of the recursion;
- :func:`sequence_probability`, the chain-rule CRP partition law;
- :func:`emission_loglik`, the scalar Gaussian log likelihood the emission
  table's arithmetic is checked against;
- :func:`nig_update`, the scalar NIG update the baseline's column table is
  checked against;
- :class:`BaselineReference` and :class:`LatentReference`, plain detectors
  every step of each mode is checked against;
- :func:`finite_difference`, central differences for gradient checks;
- :func:`nmi`, the normalized mutual information of two labelings;
- :func:`cusum_oracle`, CUSUM given the true regime means, the delay
  yardstick of the quality scorecard.

Tests import it as they import ``conftest``; it is not part of the package.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

from streamcpd import ContractViolation, DetectorConfig, EmissionParams, NigParams
from streamcpd.emission import ClassTable, decay_rates, em_step, spawn_candidate
from streamcpd.schema import field_spec

_MAX_ENUM_T = 12


def _check_enum_inputs(labels, T):
    if not (1 <= T <= _MAX_ENUM_T):
        raise ContractViolation(f"enumeration supports 1 <= T <= {_MAX_ENUM_T}, got {T}")
    if any(z < 1 for z in labels):
        raise ContractViolation("labels must be positive integers")


def brute_force_joint(z_star_labels, alpha, lam) -> np.ndarray:
    """Exact joint over the final run length for a given label sequence.

    Enumerates every reset/growth path through the trellis (2^T of them:
    each step is either a reset, paying hazard times the empty-window
    predictive 1, or a growth, paying (1-hazard) times the within-window
    predictive of that step's label). Path weights are accumulated in exact
    rational arithmetic and converted to float only at the end, so this is
    strictly more accurate than the recursion it validates.

    Returns a dense vector indexed by r_T in 0..T.
    """
    labels = list(z_star_labels)
    T = len(labels)
    _check_enum_inputs(labels, T)
    a = Fraction(alpha)
    h = 1 / Fraction(lam)
    if not (0 < h <= 1):
        raise ContractViolation(f"lam must give a hazard in (0, 1], got {lam!r}")

    out = [Fraction(0) for _ in range(T + 1)]
    for mask in range(1 << T):
        prob = Fraction(1)
        last_reset = 0
        for t in range(1, T + 1):
            if (mask >> (t - 1)) & 1:
                prob *= h
                last_reset = t
            else:
                window = labels[last_reset : t - 1]
                w = window.count(labels[t - 1])
                num = Fraction(w) if w > 0 else a
                prob *= (1 - h) * num / (len(window) + a)
        out[T - last_reset] += prob
    return np.array([float(p) for p in out])


def _block_chain_prob(sub, alpha: float) -> float:
    # Closed form for the sequential within-window product over one growth
    # stretch: depends only on the label multiplicities.
    n = len(sub)
    if n == 0:
        return 1.0
    sizes = Counter(sub).values()
    num = alpha ** len(sizes)
    for s in sizes:
        num *= math.factorial(s - 1)
    den = 1.0
    for i in range(n):
        den *= alpha + i
    return num / den


def brute_force_joint_by_segments(z_star_labels, alpha, lam) -> np.ndarray:
    """Second, independently structured enumeration of the same joint.

    Chooses reset positions with ``itertools.combinations``, scores each
    growth stretch with the closed-form partition probability instead of a
    step-by-step walk, and compensates the per-run-length sums with
    ``math.fsum``. Agreement with :func:`brute_force_joint` is a strong
    self-consistency check on both.
    """
    labels = list(z_star_labels)
    T = len(labels)
    _check_enum_inputs(labels, T)
    a = float(alpha)
    h = 1.0 / float(lam)

    buckets: list[list[float]] = [[] for _ in range(T + 1)]
    for m in range(T + 1):
        for resets in combinations(range(1, T + 1), m):
            bounds = (0,) + resets + (T + 1,)
            p = h**m * (1.0 - h) ** (T - m)
            for i in range(len(bounds) - 1):
                lo, hi = bounds[i], bounds[i + 1]
                p *= _block_chain_prob(labels[lo : min(hi, T + 1) - 1], a)
            r_final = T - (resets[-1] if resets else 0)
            buckets[r_final].append(p)
    return np.array([math.fsum(b) for b in buckets])


def emission_loglik(x: float, p: EmissionParams) -> float:
    """log N(x; mu, var), with ``math.log`` on Python floats."""
    return -0.5 * (math.log(2 * math.pi) + math.log(p.var)) - (x - p.mu) ** 2 / (2.0 * p.var)


def sequence_probability(labels, alpha: float) -> float:
    """Chain-rule probability of a canonical label sequence under the CRP.

    Canonical means classes are numbered by first appearance (1, then 2,
    ...). Intended for tests: exchangeability says the value depends only
    on the sizes of the induced blocks.
    """
    labels = list(labels)
    field_spec(DetectorConfig, "alpha").check("alpha", alpha)
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


def _nig_fold(mu, kappa, a, b, x):
    # nig_update's arithmetic on a tuple, which spares the reference
    # detector a NigParams and its field checks per hypothesis and step.
    kappa1 = kappa + 1.0
    return (kappa * mu + x) / kappa1, kappa1, a + 0.5, b + kappa * (x - mu) ** 2 / (2.0 * kappa1)


def nig_update(p: NigParams, x: float) -> NigParams:
    """Conjugate update of a NIG state with one observation."""
    return NigParams(*_nig_fold(p.mu, p.kappa, p.a, p.b, x))


def student_t_logpdf(x, mu, kappa, a, b) -> float:
    """Log predictive density of x under the NIG posterior (mu, kappa, a,
    b): a Student-t with 2a degrees of freedom, location mu and squared
    scale b (kappa + 1) / (a kappa), by ``math.lgamma``."""
    nu, s2 = 2.0 * a, b * (kappa + 1.0) / (a * kappa)
    return (
        math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0) - 0.5 * math.log(nu * math.pi * s2)
        - (nu + 1.0) / 2.0 * math.log1p((x - mu) ** 2 / (nu * s2))
    )


def _log_sum_exp(ws) -> float:
    m = max(ws)
    return m + math.log(math.fsum(math.exp(w - m) for w in ws))


class _ReferenceTrellis:
    """The trellis both reference detectors run on Python floats: per
    hypothesis its run length, log joint weight and the model's own
    record; a log-sum-exp over the grown hypotheses; the prune by mask,
    run length 0 kept and the dropped mass folded back into the survivors;
    and the change-point rule on the full posterior."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.hyps = [(0, 0.0, None)]
        self.evidence, self.r_star = 0.0, None

    def _grow(self, log_reset: float, log_psi, records):
        """One trellis step from the log predictive of the reset and of each
        live hypothesis, ``records`` taking the place of the old records
        (the reset's first). Returns ``(r_star, cp_flag, posterior,
        evidence_log)``, the posterior a dict from run length to
        probability."""
        cfg = self.cfg
        h = 1.0 / cfg.hazard.lam
        hyps = [(0, math.log(h) + log_reset + self.evidence, records[0])]
        for (r, w, _), lp, q in zip(self.hyps, log_psi, records[1:]):
            hyps.append((r + 1, w + (math.log1p(-h) + lp), q))
        ws = [w for _, w, _ in hyps]
        top = max(ws)
        # exp(w - max) below the smallest normal double reads 0, as the
        # trellis documents.
        e = [v if v >= sys.float_info.min else 0.0 for v in (math.exp(w - top) for w in ws)]
        mass = math.fsum(e)
        total = top + math.log(mass)
        post = [v / mass for v in e]
        runs = [r for r, _, _ in hyps]
        r_star = runs[post.index(max(post))]
        rule = cfg.cp_rule
        if rule.mode == "map-drop":
            cp = self.r_star is not None and r_star < rule.drop_fraction * self.r_star
        else:
            near = sum(p for r, p in zip(runs, post) if r <= rule.mass_window)
            cp = runs[-1] > rule.mass_window and near >= rule.mass_threshold
        eps, m = cfg.prune.epsilon, cfg.prune.max_live
        keep = [not eps or p >= eps for p in post]
        if m:
            best = set(sorted(range(len(post)), key=lambda i: -post[i])[:m])
            keep = [i in best for i in range(len(post))]
        keep[0] = True
        kept = [hyp for hyp, k in zip(hyps, keep) if k]
        shift = total - _log_sum_exp([w for _, w, _ in kept])
        self.hyps = [(r, w + shift, q) for r, w, q in kept]
        self.evidence, self.r_star = total, r_star
        return r_star, cp, dict(zip(runs, post)), total


class BaselineReference(_ReferenceTrellis):
    """A plain baseline detector: per hypothesis, the NIG posterior of its
    window, folded one observation at a time. :meth:`step` returns
    ``(r_star, cp_flag, posterior, evidence_log)``, the posterior a dict
    from run length to probability."""

    def __init__(self, cfg: DetectorConfig):
        super().__init__(cfg)
        p = cfg.baseline
        self.prior = (p.mu, p.kappa, p.a, p.b)
        self.hyps = [(0, 0.0, self.prior)]

    def step(self, x: float):
        prior, qs = self.prior, [q for _, _, q in self.hyps]
        log_psi = [student_t_logpdf(x, *q) for q in qs]
        records = [prior] + [_nig_fold(*q, x) for q in qs]
        return self._grow(student_t_logpdf(x, *prior), log_psi, records)


class LatentReference(_ReferenceTrellis):
    """A plain latent detector (``infinite`` or ``fixed-k``). It shares the
    emission step with the runtime, :class:`ClassTable` and the functions
    that act on it, and runs the rest itself: the candidate's push while
    fewer than ``cap`` classes exist (K in fixed-k, none in infinite), and
    its rollback; the class prior ``(m_k + s) / (t + c)`` from a
    ``Counter`` of the MAP labels, the candidate's slot times the K - n
    unused classes in fixed-k, in Python floats, which are the ledger's bit
    for bit; and each hypothesis's window predictive ``num(w) / (r + c)``,
    with w counted by scanning the label list. :meth:`step` returns
    ``(z_star, k_t, responsibilities, r_star, cp_flag, posterior,
    evidence_log)``."""

    def __init__(self, cfg: DetectorConfig):
        super().__init__(cfg)
        if cfg.mode == "infinite":
            self.rule, self.log_reset, self.cap = (0.0, cfg.alpha, cfg.alpha), 0.0, math.inf
        else:
            k, beta = cfg.k_fixed, cfg.dirichlet_beta
            self.rule, self.log_reset, self.cap = (beta, beta, k * beta), math.log(1.0 / k), k
        self.table = ClassTable(
            var_floor=cfg.var_floor, log_space=cfg.log_var_update, decay=cfg.decay,
            eta_init=cfg.eta_init, candidate=cfg.candidate,
        )
        self.labels, self.counts = [], Counter()

    def step(self, x: float):
        table, labels, counts = self.table, self.labels, self.counts
        s, unseen, c = self.rule
        t, k_prev, cap = len(labels), table.n, self.cap
        try:
            if k_prev < cap:
                spawn_candidate(table, x, born_at=t + 1)
            seen = max(counts, default=0)
            prior = [
                (counts[j] + s if j <= seen else unseen) / (t + c) for j in range(1, table.n + 1)
            ]
            if k_prev < cap < math.inf:
                prior[-1] *= cap - k_prev
            resp, z = em_step(table, x, prior)
        except FloatingPointError:
            table.n = k_prev
            raise
        if z <= k_prev:
            table.n = k_prev
        decay_rates(table, z)
        log_psi = []
        for r, _, _ in self.hyps:
            w = labels[t - r :].count(z)
            log_psi.append(math.log((w + s if w else unseen) / (r + c)))
        labels.append(z)
        counts[z] += 1
        out = self._grow(self.log_reset, log_psi, [None] * (len(self.hyps) + 1))
        return (z, table.n, resp.tolist()) + out


def finite_difference(f, point, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, per coordinate."""
    if not (step > 0):
        raise ContractViolation(f"step must be positive, got {step!r}")
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def nmi(a, b) -> float:
    """Normalized mutual information of two labelings of the same samples:
    I(a; b) over the mean of H(a) and H(b), in [0, 1]; 1 when both hold a
    single label."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    joint = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(joint, (ia, ib), 1.0 / ia.size)
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    mi = np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz]))
    h = -np.sum(pa * np.log(pa)) - np.sum(pb * np.log(pb))
    return max(0.0, float(2.0 * mi / h)) if h > 0 else 1.0


def cusum_oracle(series, means, h: float) -> list[int]:
    """The steps (1-based) at which one-sided CUSUM alarms on a unit-variance
    series whose mean alternates between the two known regime means
    ``means = (m0, m1)``, starting in m0 (Page 1954). Each step adds the log
    likelihood ratio of the other regime's mean against the current one's,
    ``(m1 - m0) (x - (m0 + m1) / 2)``, to a sum floored at 0; the sum reaching
    ``h`` is an alarm, after which the sum restarts at 0 and the two means
    swap. With the true pre- and post-change laws, CUSUM has the least
    worst-case delay for its false-alarm rate (Lorden 1971)."""
    if not (h > 0):
        raise ContractViolation(f"threshold must be positive, got {h!r}")
    now, other = (float(m) for m in means)
    s, alarms = 0.0, []
    for t, x in enumerate(series, 1):
        s = max(0.0, s + (other - now) * (float(x) - 0.5 * (now + other)))
        if s >= h:
            alarms.append(t)
            s, now, other = 0.0, other, now
    return alarms
