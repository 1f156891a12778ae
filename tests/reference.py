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
- :class:`BaselineReference`, a plain baseline detector the whole baseline
  step is checked against;
- :func:`finite_difference`, central differences for gradient checks.

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


class BaselineReference:
    """A plain baseline detector on Python floats: per hypothesis, its run
    length, log joint weight and the NIG posterior of its window, folded
    one observation at a time; a log-sum-exp trellis; the prune by mask,
    run length 0 kept and the dropped mass folded back into the survivors;
    and the change-point rule on the full posterior. :meth:`step` returns
    ``(r_star, cp_flag, posterior, evidence_log)``, the posterior a dict
    from run length to probability."""

    def __init__(self, cfg: DetectorConfig):
        p = cfg.baseline
        self.cfg, self.prior = cfg, (p.mu, p.kappa, p.a, p.b)
        self.hyps = [(0, 0.0, self.prior)]
        self.evidence, self.r_star = 0.0, None

    def step(self, x: float):
        cfg, prior = self.cfg, self.prior
        h = 1.0 / cfg.hazard.lam
        hyps = [(0, math.log(h) + student_t_logpdf(x, *prior) + self.evidence, prior)]
        for r, w, q in self.hyps:
            w += math.log1p(-h) + student_t_logpdf(x, *q)
            hyps.append((r + 1, w, _nig_fold(*q, x)))
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
