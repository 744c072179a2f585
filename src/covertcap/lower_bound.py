"""Achievable covert rates for a fixed decoding metric.

The achievable rate is t * sup_{s >= 0} f(s), where

    f(s) = s * E_P1[rhat(Y)] - log E_P0[exp(s * rhat(Y))],
    rhat(y) = log q(1, y) / q(0, y),

t is the covertness weight, P0/P1 the receiver's output laws when idle and
when sending.  f is concave with f(0) = 0; its slope at infinity is
E_P1[rhat] - max_{P0 > 0} rhat, which is never positive, so the supremum is
either attained at a root of f' (located by doubling plus safeguarded Newton)
or approached in the limit s -> inf (erasure-like metrics).  Everything here is
log-domain; no exp of a positive quantity is ever taken unshifted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    ProbVector,
    ResourceLimitError,
    WeightParam,
    _valid_weight,
    kl_divergence,
)

AT_INFINITY = math.inf       # s_star marker when the sup is a limit, not a max
SLOPE_TOL = 1e-12            # |slope at infinity| below this is treated as zero
ARGMAX_TOL = 1e-9            # rhat values this close to the max share the limit mass
BRACKET_CAP = float(2**40)   # doubling beyond this means the slope test lied
STEP_TOL = 1e-10             # Newton stops once a step moves s by no more than this
NEWTON_CAP = 100             # Newton gives up after this many steps with none of at most its tol


@dataclass(frozen=True)
class TiltFunction:
    """Precomputed ingredients of f(s) for one (metric, P0, P1) triple.

    ``log_ratio`` is the metric's rhat per output symbol (DecodingMetric.log_ratio)
    and ``mean_under_p1`` is E_P1[rhat].  Derived on first use and kept: ``rmax``,
    the largest rhat on the support of P0; ``limit_mass``, the P0-mass of symbols
    within ``ARGMAX_TOL`` of it; and the shifted log-ratios rhat - rmax and the
    P0 masses on the support of P0, which every f_s call needs.
    """

    log_ratio: np.ndarray
    p0: ProbVector
    mean_under_p1: float

    @functools.cached_property
    def _supp(self) -> np.ndarray:
        return self.p0.probs > 0.0

    @functools.cached_property
    def rmax(self) -> float:
        return float(np.max(self.log_ratio[self._supp]))

    @functools.cached_property
    def limit_mass(self) -> float:
        near = self._supp & (self.log_ratio >= self.rmax - ARGMAX_TOL)
        return float(np.sum(self.p0.probs[near]))

    @functools.cached_property
    def _shifted(self) -> np.ndarray:
        return self.log_ratio[self._supp] - self.rmax

    @functools.cached_property
    def _p0_supp(self) -> np.ndarray:
        return self.p0.probs[self._supp]


def tilt_function(q: DecodingMetric, p0: ProbVector, p1: ProbVector) -> TiltFunction:
    """Build the TiltFunction for metric q and receiver laws (p0, p1)."""
    if q.num_outputs != len(p0) or len(p0) != len(p1):
        raise DimensionError("metric and output laws must share one alphabet")
    return TiltFunction(log_ratio=q.log_ratio, p0=p0, mean_under_p1=float(np.dot(p1.probs, q.log_ratio)))


def f_s(tf: TiltFunction, s: float) -> float:
    """Evaluate f(s).  Stable for any s >= 0, including very large values."""
    if s < 0.0:
        raise DomainError(f"f is only defined for s >= 0, got {s!r}")
    if s == 0.0:
        # exp(0) = 1 and p0 is a pmf, so f(0) = -log 1; skip the float noise
        return 0.0
    # shift by s*rmax so every exponent is <= 0
    z = np.exp(s * tf._shifted)
    return s * (tf.mean_under_p1 - tf.rmax) - float(np.log(np.dot(tf._p0_supp, z)))


def slope_at_infinity(tf: TiltFunction) -> tuple[float, float]:
    """Asymptotic slope of f and, when that slope is zero, lim_{s->inf} f(s).

    A vanishing slope (within SLOPE_TOL) means f climbs toward -log of the
    P0-mass of the rhat-argmax set, clamped at 0; a strictly negative slope
    means f eventually decreases, the limit is -inf, and the sup is interior.
    """
    slope = tf.mean_under_p1 - tf.rmax
    if abs(slope) <= SLOPE_TOL:
        return slope, max(0.0, -math.log(tf.limit_mass))
    return slope, -math.inf


@dataclass(frozen=True)
class LowerBoundResult:
    """Achievable rate t * sup f, with where and whether the sup is attained."""

    s_star: float
    f_at_s_star: float
    t_delta: float

    @property
    def value(self) -> float:
        return self.t_delta * self.f_at_s_star

    @property
    def attained(self) -> bool:
        """Whether the sup is a max at a finite s_star, not the limit s -> inf."""
        return self.s_star != AT_INFINITY


def _slope_curvature(tf: TiltFunction, s: float) -> tuple[float, float]:
    # (f'(s), f''(s)) from one exp: f' = E_P1[r] - m and f'' = -v, where m and v are
    # the P0-tilted mean and variance of r = rhat - rmax
    z = tf._p0_supp * np.exp(s * tf._shifted)
    total = float(z.sum())
    m = float(np.dot(z, tf._shifted)) / total
    d = tf._shifted - m
    return tf.mean_under_p1 - tf.rmax - m, -float(np.dot(z, d * d)) / total


def _newton_max(slope_curvature, lo: float, hi: float, tol: float) -> float:
    """Root in [lo, hi] of g, where ``slope_curvature(s) = (g(s), g'(s))`` and g(lo) > 0 >= g(hi),
    by Newton from the midpoint with a bisection step whenever Newton would leave the bracket
    or g' is not negative (rtsafe, Numerical Recipes, section 9.4); it ends once a step moves
    s by at most ``tol``, or raises ResourceLimitError after NEWTON_CAP steps.  g is the
    derivative of the concave function this maximizes."""
    s = 0.5 * (lo + hi)
    for _ in range(NEWTON_CAP):
        g, h = slope_curvature(s)
        lo, hi = (s, hi) if g > 0.0 else (lo, s)
        nxt = s - g / h if h < 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= tol:
            return nxt
        s = nxt
    raise ResourceLimitError(f"Newton exceeded {NEWTON_CAP} steps in [{lo!r}, {hi!r}] without a step of at most {tol!r}")


def lower_bound(inst: CovertInstance) -> LowerBoundResult:
    """Best achievable covert rate for the instance's metric, t * sup_{s>=0} f(s).

    It is 0 at s_star = 0 if rhat is flat (within ARGMAX_TOL) on P0's support.
    When the slope at infinity vanishes the sup is the limiting value and is
    reported with ``attained=False`` and ``s_star=AT_INFINITY``.  Otherwise it
    is 0 if f'(0) <= 0, or else at the root of f', bracketed by doubling from
    s=1 and pinned down by safeguarded Newton until a step moves s by <= STEP_TOL.
    """
    wp = _valid_weight(inst)
    tf = tilt_function(inst.q, inst.p0, inst.p1)
    slope, limit = slope_at_infinity(tf)

    if abs(slope) <= SLOPE_TOL:
        if np.all(tf._shifted >= -ARGMAX_TOL):
            # P1 << P0 makes f = 0 everywhere; only roundoff in its slope could grow it
            return LowerBoundResult(0.0, 0.0, wp.t)
        # A3 makes the slope at most 0, so the concave f never rises above its limit;
        # a slope that rounds a few ulps above 0 must not be credited s * slope
        return LowerBoundResult(AT_INFINITY, limit, wp.t)
    if _slope_curvature(tf, 0.0)[0] <= 0.0:
        # slope < 0 and f'(0) <= 0: concavity and f(0) = 0 make 0 the sup
        return LowerBoundResult(0.0, 0.0, wp.t)
    # double until f' turns nonpositive; the bracket is then [b/2, b], or [0, 1]
    lo, hi = 0.0, 1.0
    while _slope_curvature(tf, hi)[0] > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > BRACKET_CAP:
            raise ResourceLimitError("bracketing exceeded 2**40 with a negative slope at infinity")
    s_star = _newton_max(lambda s: _slope_curvature(tf, s), lo, hi, STEP_TOL)
    f_star = f_s(tf, s_star)
    if f_star <= 0.0:
        # roundoff below f(0) = 0, which concavity makes the sup
        s_star, f_star = 0.0, 0.0
    return LowerBoundResult(s_star, f_star, wp.t)


def key_rate_threshold(lb: LowerBoundResult, t: WeightParam, q0: ProbVector, q1: ProbVector) -> float:
    """Secret key needed per sqrt(n): max(0, t * D(q1 || q0) - achievable rate).

    Zero means the adversary's observation is no more informative than the
    receiver's decoded payload, so no pre-shared key is required.
    """
    return max(0.0, t.t * kl_divergence(q1, q0) - lb.value)
