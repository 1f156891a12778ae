"""Test support: synthetic piecewise-stationary generators with ground
truth, brute-force enumerations that recompute what the recursions produce,
independently of them, and the scalar NIG update the baseline's column
table is checked against."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .detector import NigParams
from .errors import ConfigError, ContractViolation

_MAX_ENUM_T = 12


@dataclass(frozen=True)
class SegmentSpec:
    """One stationary stretch: Gaussian with the given mean and variance."""

    length: int
    mu: float
    var: float
    class_id: int = 1

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError(f"segment length must be >= 1, got {self.length!r}")
        if not (self.var > 0):
            raise ConfigError(f"segment variance must be positive, got {self.var!r}")


def gen_piecewise_gaussian(segments, rng):
    """Concatenated Gaussian segments.

    Returns ``(series, true_cps, true_labels)`` where ``true_cps`` holds the
    cumulative lengths at which the distribution switches (samples before
    position c belong to the old segment) and ``true_labels`` the per-sample
    ground-truth class id. ``rng`` is a seed or a numpy Generator.
    """
    segments = list(segments)
    if not segments:
        raise ContractViolation("need at least one segment")
    rng = np.random.default_rng(rng)
    parts = [rng.normal(s.mu, math.sqrt(s.var), s.length) for s in segments]
    series = np.concatenate(parts)
    cps = list(np.cumsum([s.length for s in segments])[:-1])
    labels = np.concatenate([np.full(s.length, s.class_id, dtype=np.int64) for s in segments])
    return series, [int(c) for c in cps], labels


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
    # Imported here, its only use: fractions also loads decimal, a few ms
    # of every interpreter that imports the package.
    from fractions import Fraction

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


def nig_update(p: NigParams, x: float) -> NigParams:
    """Conjugate update of a NIG state with one observation."""
    kappa = p.kappa + 1.0
    return NigParams(
        mu=(p.kappa * p.mu + x) / kappa,
        kappa=kappa,
        a=p.a + 0.5,
        b=p.b + p.kappa * (x - p.mu) ** 2 / (2.0 * kappa),
    )


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
