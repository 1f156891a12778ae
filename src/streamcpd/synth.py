"""Synthetic piecewise-stationary Gaussian series with ground truth: what
``streamcpd synth`` writes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .schema import check_fields, integer, real


@dataclass(frozen=True)
class SegmentSpec:
    """One stationary stretch: Gaussian with the given mean and variance."""

    length: int = integer("[1, inf)")
    mu: float = real("(-inf, inf)")
    var: float = real("(0, inf)")
    class_id: int = integer("[1, inf)", 1)

    __post_init__ = check_fields


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
