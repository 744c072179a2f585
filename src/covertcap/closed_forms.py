"""Closed-form covert capacities for the cases where the bounds are known to meet.

Three situations admit exact answers: a matched decoder (capacity
t * D(P1 || P0)); a binary output alphabet, where capacity is all-or-nothing
depending on the sign of log(q00 q11 / (q01 q10)) after orienting the labels;
and the erasures-only metric, which scores every channel-possible symbol 1 and
every impossible one xi, giving t * log(1 / P0(Y \\ D)) with D the symbols
only the idle input can produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    ZERO_TOL,
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    _valid_weight,
    innocent_only_set,
    kl_divergence,
)


def covert_capacity(inst: CovertInstance) -> float:
    """Covert capacity with the best (matched) decoder: t * D(P1 || P0)."""
    return _valid_weight(inst).t * kl_divergence(inst.p1, inst.p0)


class DichotomyCase(Enum):
    POSITIVE = "positive"
    ZERO = "zero"


@dataclass(frozen=True)
class DichotomyResult:
    """Binary-alphabet verdict: full matched capacity or none at all.

    ``relabeled`` records whether the two output columns were swapped to put
    the instance in the canonical orientation before the product test.
    """

    capacity: float
    case: DichotomyCase
    relabeled: bool


def _log_odds_ratio(qq: np.ndarray) -> float:
    # log(q00*q11 / (q01*q10)); the sign decides which input a metric favours
    return math.log(qq[0, 0]) + math.log(qq[1, 1]) - math.log(qq[0, 1]) - math.log(qq[1, 0])


def binary_dichotomy(inst: CovertInstance) -> DichotomyResult:
    """Capacity of a binary output alphabet under a fixed metric.

    Labels are first oriented so symbol 0 is the one favoured when idle
    (column swap when P0(0)+P1(1) < P0(1)+P1(0)).  If then
    q00 q11 > q01 q10 the metric ranks inputs the same way the channel does
    and the full matched capacity t * D(P1 || P0) survives; otherwise,
    boundary included, the capacity is zero.
    """
    _valid_weight(inst)
    if inst.wy.num_outputs != 2:
        raise DimensionError("binary dichotomy needs exactly two output symbols")

    w = inst.wy.w
    qq = inst.q.q
    relabeled = bool(w[0, 0] + w[1, 1] < w[0, 1] + w[1, 0])
    if relabeled:
        qq = qq[:, ::-1]
    log_rho = _log_odds_ratio(qq)
    if log_rho > 0.0:  # the matched capacity is label-invariant
        return DichotomyResult(capacity=covert_capacity(inst), case=DichotomyCase.POSITIVE, relabeled=relabeled)
    return DichotomyResult(capacity=0.0, case=DichotomyCase.ZERO, relabeled=relabeled)


def erasures_only_metric(wy: Bdmc, xi: float) -> DecodingMetric:
    """The metric scoring channel-possible symbols 1 and impossible ones xi in (0,1)."""
    if not (0.0 < xi < 1.0):
        raise DomainError(f"xi must lie strictly inside (0, 1), got {xi!r}")
    q = np.where(wy.w > ZERO_TOL, 1.0, xi)
    return DecodingMetric(q)


def erasures_only_capacity(inst: CovertInstance) -> float:
    """Capacity under any erasures-only metric: t * log(1 / P0(Y \\ D)).

    D = innocent_only_set(wy); the answer does not depend on xi, and the
    instance's metric field is not consulted.  Equals zero when no output
    symbol is exclusive to the idle input.
    """
    wp = _valid_weight(inst)
    d_set = innocent_only_set(inst.wy)
    mass_outside = 1.0 - float(inst.p0.probs[d_set].sum())
    # A3 guarantees P0 mass on supp(P1), so mass_outside > 0 for valid instances
    return wp.t * math.log(1.0 / mass_outside)
