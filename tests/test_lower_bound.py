"""Achievability side: the tilt function f, its supremum, and the binary helpers.

The oracle here is deliberately naive: f evaluated by its direct defining
formula (no log-sum-exp shift) and the supremum located by a dense 1-D grid.
Expected values quoted as literals were frozen from those oracles.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertcap import (
    AT_INFINITY,
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    ProbVector,
    ValidationError,
    WeightParam,
    erasures_only_capacity,
    erasures_only_metric,
    f_s,
    key_rate_threshold,
    kl_divergence,
    lower_bound,
    slope_at_infinity,
    tilt_function,
    weight_parameter,
)

from conftest import (
    WZ1,
    erasure_channel,
    example1,
    floored_simplex,
    matched_instance,
    random_binary_instance,
    random_instance,
    random_warden,
)
from oracles import binary_f_derivative, binary_s0

# the package re-exports the function lower_bound under the module's name
lower_bound_module = importlib.import_module("covertcap.lower_bound")


def tf_of(inst: CovertInstance):
    return tilt_function(inst.q, inst.p0, inst.p1)


def f_direct(inst: CovertInstance, s: float) -> float:
    """The defining formula, evaluated without any numerical safeguards."""
    rhat = np.log(inst.q.q[1]) - np.log(inst.q.q[0])
    p0, p1 = inst.wy.w[0], inst.wy.w[1]
    return s * float(p1 @ rhat) - math.log(float(p0 @ np.exp(s * rhat)))


def grid_sup(inst: CovertInstance, s_max: float = 40.0, resolution: float = 1e-4):
    """Dense grid over [0, s_max]; returns (best f, best s)."""
    grid = np.arange(0.0, s_max + resolution, resolution)
    rhat = np.log(inst.q.q[1]) - np.log(inst.q.q[0])
    p0, p1 = inst.wy.w[0], inst.wy.w[1]
    ex = grid[:, None] * rhat[None, :]
    shift = ex.max(axis=1, keepdims=True)
    vals = grid * float(p1 @ rhat) - (np.log(np.exp(ex - shift) @ p0) + shift[:, 0])
    k = int(np.argmax(vals))
    return float(vals[k]), float(grid[k])


class TestTiltFunction:
    def test_log_ratio_values(self):
        tf = tf_of(example1(3.0))
        np.testing.assert_allclose(tf.log_ratio, [math.log(1 / 3), 0.0, math.log(3)])

    def test_f_at_zero_is_exactly_zero(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            inst = random_instance(rng, ny=int(rng.integers(2, 5)))
            assert f_s(tf_of(inst), 0.0) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            inst = random_instance(rng)
            s = float(rng.uniform(0.0, 8.0))
            assert f_s(tf_of(inst), s) == pytest.approx(f_direct(inst, s), abs=1e-10)

    def test_example_value_at_one(self):
        # q matched at u=3 so f(1) = D(P1 || P0) = 0.4 ln 3
        assert f_s(tf_of(example1(3.0)), 1.0) == pytest.approx(
            0.4 * math.log(3), abs=1e-12
        )

    def test_negative_s_rejected(self):
        with pytest.raises(DomainError):
            f_s(tf_of(example1()), -0.1)

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            inst = random_instance(rng, ny=int(rng.integers(2, 5)))
            tf = tf_of(inst)
            s1 = float(rng.uniform(0.0, 10.0))
            s2 = s1 + float(rng.uniform(0.0, 10.0))
            mid = f_s(tf, 0.5 * (s1 + s2))
            assert mid >= 0.5 * (f_s(tf, s1) + f_s(tf, s2)) - 1e-10

    def test_row_rescaling_leaves_f_unchanged(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            inst = random_instance(rng)
            c = rng.uniform(0.2, 5.0, size=2)
            scaled = CovertInstance(
                wy=inst.wy, wz=inst.wz, q=DecodingMetric(c[:, None] * inst.q.q), delta=inst.delta
            )
            s = float(rng.uniform(0.0, 6.0))
            assert f_s(tf_of(inst), s) == pytest.approx(
                f_s(tf_of(scaled), s), abs=1e-10
            )


def reference_f_s(tf, s: float) -> float:
    """f_s as it was before the support arrays were precomputed in tilt_function."""
    if s < 0.0:
        raise DomainError(f"f is only defined for s >= 0, got {s!r}")
    if s == 0.0:
        return 0.0
    supp = tf.p0.probs > 0.0
    z = np.exp(s * (tf.log_ratio[supp] - tf.rmax))
    return s * (tf.mean_under_p1 - tf.rmax) - float(np.log(np.dot(tf.p0.probs[supp], z)))


class TestPrecomputedSupport:
    """f_s on the support arrays built once in tilt_function is bit-identical to the per-call masks."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(2, 16),
        zero_share=st.sampled_from([0.0, 0.3, 0.7]),
        s=st.one_of(
            st.just(0.0),
            st.floats(0.0, 1.0),
            st.floats(1.0, 1e3),
            st.floats(1e3, float(2**41)),
        ),
    )
    def test_equals_the_per_call_masks(self, seed, ny, zero_share, s):
        rng = np.random.default_rng(seed)
        p0 = rng.random(ny) * (rng.random(ny) >= zero_share)
        p0[rng.integers(ny)] += 0.1  # keep the support of P0 nonempty
        tf = tilt_function(
            DecodingMetric(np.exp(rng.uniform(-3.0, 3.0, size=(2, ny)))),
            ProbVector(p0 / p0.sum()),
            ProbVector(rng.dirichlet(np.ones(ny))),
        )
        assert f_s(tf, s).hex() == reference_f_s(tf, s).hex()

    def test_figure_sweep_rows_are_bit_equal(self):
        # the 200 rows of the CLI's default sweep of q(0, 0) on example1: the f and the
        # rate each row reports are f at its s_star on the per-call masks, bit for bit
        for u in np.linspace(0.05, 10.0, 200):
            inst = example1(float(u))
            res = lower_bound(inst)
            f = reference_f_s(tf_of(inst), res.s_star)
            assert (res.f_at_s_star.hex(), res.value.hex()) == (f.hex(), (res.t_delta * f).hex())


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a: float, b: float, width: float) -> tuple[float, float]:
    """Golden-section maximization of a concave function on [a, b]."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > width:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    s = 0.5 * (a + b)
    return s, f(s)


def golden_lower_bound(inst: CovertInstance, width: float = 1e-10) -> tuple[float, float, bool]:
    """(sup f, s_star, attained) by bracketing on f values plus golden section.

    The search lower_bound ran before its Newton step.  Its bracket never
    narrows below the float spacing at s, so it does not end for s_star
    beyond about 5e5; the instances it is run on stay below that.
    """
    tf = tf_of(inst)
    slope, limit = slope_at_infinity(tf)
    f = lambda s: f_s(tf, s)
    if abs(slope) <= 1e-12:
        grid = [0.0] + [2.0**k for k in range(-4, 21)]
        vals = [f(s) for s in grid]
        best = int(np.argmax(vals))
        if vals[best] > limit + 1e-12:
            lo = grid[best - 1] if best > 0 else 0.0
            hi = grid[best + 1] if best + 1 < len(grid) else grid[best] * 2.0
            s_star, f_star = golden_max(f, lo, hi, width)
            return f_star, s_star, True
        return limit, AT_INFINITY, False
    s = 1.0
    f_lo, f_hi = f(s), f(2.0 * s)
    while f_hi > f_lo:
        s *= 2.0
        f_lo, f_hi = f_hi, f(2.0 * s)
    s_star, f_star = golden_max(f, 0.0, 2.0 * s, width)
    if f_star <= 0.0:
        return 0.0, 0.0, True
    return f_star, s_star, True


def near_erasure_instance(rng: np.random.Generator, ny: int, a: float, eps: float) -> CovertInstance:
    """rhat = a on the last output and 0 elsewhere, with P1 putting 1 - eps there:
    the slope at infinity is -eps * a and s_star is about log(1/eps) / a."""
    p1 = np.append(eps * rng.dirichlet(np.ones(ny - 1)), 1.0 - eps)
    q = np.ones((2, ny))
    q[1, -1] = math.exp(a)
    return CovertInstance(
        wy=Bdmc(np.stack([floored_simplex(rng, ny), p1])),
        wz=random_warden(rng),
        q=DecodingMetric(q),
        delta=float(rng.uniform(0.05, 0.3)),
    )


def tilt_instance(kind: str, seed: int) -> CovertInstance:
    rng = np.random.default_rng(seed)
    ny = int(rng.integers(2, 9))
    if kind == "near_erasure":
        # a in [1e-4, 1] and eps in [1e-4, 0.1] keep s_star below about 1.2e5
        return near_erasure_instance(rng, ny, 10 ** rng.uniform(-4, 0), 10 ** rng.uniform(-4, -1))
    inst = random_instance(rng, ny=ny)
    if kind == "ties":
        # rhat on a grid of five values, so outputs share it exactly, the argmax included;
        # both ends are used, as a constant rhat is the degenerate case tested on its own
        q = np.ones((2, ny))
        q[1] = np.exp(0.5 * rng.permutation(np.append([-2, 2], rng.integers(-2, 3, size=ny - 2))))
        inst = CovertInstance(wy=inst.wy, wz=inst.wz, q=DecodingMetric(q), delta=inst.delta)
    if kind == "falling":
        # swapping the metric's rows negates rhat; keep the orientation with f'(0) <= 0
        p0, p1 = inst.wy.w
        rhat = np.log(inst.q.q[1]) - np.log(inst.q.q[0])
        if p1 @ rhat > p0 @ rhat:
            inst = CovertInstance(wy=inst.wy, wz=inst.wz, q=DecodingMetric(inst.q.q[::-1]), delta=inst.delta)
    return inst


class TestNewtonMaximizer:
    """Safeguarded Newton on f' against the golden-section search it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["random", "near_erasure", "falling", "ties"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_golden_section(self, kind, seed):
        inst = tilt_instance(kind, seed)
        res = lower_bound(inst)
        f_ref, s_ref, attained = golden_lower_bound(inst)
        assert res.attained == attained
        assert abs(res.f_at_s_star - f_ref) <= 1e-12
        assert res.value == res.t_delta * res.f_at_s_star
        if kind == "falling":
            # f'(0) <= 0 and concavity make s = 0 the maximizer
            assert (res.s_star, res.f_at_s_star) == (s_ref, f_ref) == (0.0, 0.0)

    @pytest.mark.parametrize("a", [1e-5, 1e-7])
    def test_large_maximizer_matches_closed_form(self, a):
        # s_star near 6.9 / a: the golden search never ended here, its bracket stuck
        # wider than its 1e-10 target at s of 7e5 and beyond
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.5, 0.5], [1e-3, 1.0 - 1e-3]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[1.0, 1.0], [1.0, math.exp(a)]])),
            delta=0.1,
        )
        res = lower_bound(inst)
        assert res.attained
        assert res.s_star == pytest.approx(binary_s0(inst), rel=1e-12)

    def test_constant_log_ratio_ends_near_zero(self):
        # rhat = 0.5 on every output carries no information, so f = 0 and the sup is 0 at
        # s = 0: roundoff in E_P1[rhat] - rmax must not let f creep up toward s = 2^21,
        # nor -log of a P0 mass summing just above 1 make the rate negative
        rng = np.random.default_rng(32)
        for _ in range(50):
            inst = random_instance(rng, ny=int(rng.integers(2, 9)))
            q = np.outer([1.0, math.exp(0.5)], np.ones(inst.wy.num_outputs))
            res = lower_bound(CovertInstance(wy=inst.wy, wz=inst.wz, q=DecodingMetric(q), delta=inst.delta))
            assert (res.value, res.s_star, res.f_at_s_star, res.attained) == (0.0, 0.0, 0.0, True)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["random", "near_erasure", "falling", "ties", "flat"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rate_is_never_negative(self, kind, seed):
        if kind == "flat":
            # rhat constant, or up to a spread within ARGMAX_TOL, on a P0 of full support
            inst = tilt_instance("random", seed)
            rng = np.random.default_rng(seed)
            ny = inst.wy.num_outputs
            spread = rng.choice([0.0, 1e-10]) * rng.random(ny)
            q = np.stack([np.ones(ny), math.exp(rng.uniform(-2, 2)) * (1.0 + spread)])
            inst = CovertInstance(wy=inst.wy, wz=inst.wz, q=DecodingMetric(q), delta=inst.delta)
        else:
            inst = tilt_instance(kind, seed)
        res = lower_bound(inst)
        assert res.value >= 0.0 and res.f_at_s_star >= 0.0

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lower_bound_module, "NEWTON_CAP", 2)
        with pytest.raises(RuntimeError, match="Newton"):
            lower_bound(example1(3.0))

    def test_bracket_cap_raises(self, monkeypatch):
        # s_star is near 690, beyond a bracket capped at 4
        inst = near_erasure_instance(np.random.default_rng(3), 2, 1e-2, 1e-3)
        monkeypatch.setattr(lower_bound_module, "BRACKET_CAP", 4.0)
        with pytest.raises(RuntimeError, match="bracketing"):
            lower_bound(inst)


class TestSlopeAtInfinity:
    def test_erasures_metric_slope_zero_with_limit(self):
        wy = Bdmc(np.array([[0.5, 0.2, 0.3], [0.4, 0.6, 0.0]]))
        inst = CovertInstance(
            wy=wy,
            wz=Bdmc(np.array([[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]])),
            q=erasures_only_metric(wy, 0.5),
            delta=0.1,
        )
        slope, limit = slope_at_infinity(tf_of(inst))
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert limit == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_matched_metric_has_negative_slope(self):
        slope, limit = slope_at_infinity(tf_of(example1(3.0)))
        assert slope < -1e-6
        assert limit == -math.inf

    def test_constant_metric(self):
        inst = example1()
        flat = CovertInstance(
            wy=inst.wy, wz=inst.wz, q=DecodingMetric(np.ones((2, 3))), delta=0.1
        )
        slope, limit = slope_at_infinity(tf_of(flat))
        assert slope == 0.0
        assert limit == pytest.approx(0.0, abs=1e-15)

    def test_slope_never_positive(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            inst = random_instance(rng, ny=int(rng.integers(2, 5)))
            slope, _ = slope_at_infinity(tf_of(inst))
            assert slope <= 1e-12


class TestLowerBound:
    def test_example_peak_value(self):
        # frozen from the dense-grid oracle; equals (2/7) * 0.4 ln 3
        res = lower_bound(example1(3.0))
        assert res.value == pytest.approx(0.125555690133, abs=1e-9)
        assert res.attained
        assert res.s_star == pytest.approx(1.0, abs=1e-6)
        assert res.value == pytest.approx(res.t_delta * res.f_at_s_star, abs=1e-10)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            inst = random_instance(rng)
            res = lower_bound(inst)
            oracle_val, oracle_s = grid_sup(inst)
            t = weight_parameter(inst.delta, inst.q0, inst.q1).t
            # the grid undershoots the true sup by at most O(resolution^2)
            assert res.value >= t * oracle_val - 1e-8
            if res.attained and res.s_star < 39.0:
                assert abs(res.s_star - oracle_s) < 1e-3
                assert res.value == pytest.approx(t * oracle_val, abs=1e-6)

    def test_matched_metric_closed_form(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            inst = matched_instance(rng)
            res = lower_bound(inst)
            t = weight_parameter(inst.delta, inst.q0, inst.q1).t
            assert res.value == pytest.approx(t * kl_divergence(inst.p1, inst.p0), abs=1e-9)
            assert res.s_star == pytest.approx(1.0, abs=1e-4)

    def test_constant_metric_gives_zero(self):
        inst = example1()
        flat = CovertInstance(
            wy=inst.wy, wz=inst.wz, q=DecodingMetric(2.0 * np.ones((2, 3))), delta=0.1
        )
        res = lower_bound(flat)
        assert res.value == 0.0

    def test_erasures_limit_not_attained(self):
        wy = Bdmc(np.array([[0.5, 0.2, 0.3], [0.4, 0.6, 0.0]]))
        inst = CovertInstance(
            wy=wy,
            wz=Bdmc(np.array([[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]])),
            q=erasures_only_metric(wy, 0.5),
            delta=0.1,
        )
        res = lower_bound(inst)
        t = weight_parameter(inst.delta, inst.q0, inst.q1).t
        assert not res.attained
        assert res.s_star is AT_INFINITY or res.s_star == math.inf
        assert res.value == pytest.approx(t * math.log(1 / 0.7), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(3, 6),
        scale=st.floats(0.2, 5.0),
    )
    @example(seed=2, ny=3, scale=2.0)  # its slope rounds above 0
    def test_rescaled_erasures_metric_gives_the_limit(self, seed, ny, scale):
        # scaling q(1, .) shifts every rhat by log c, so the slope at infinity is 0 up
        # to rounding, which can leave it a few ulps above 0; f never rises above its
        # limit, so no finite s may be credited s * slope
        rng = np.random.default_rng(seed)
        wy = erasure_channel(rng, ny, int(rng.integers(1, ny - 1)))
        q = erasures_only_metric(wy, 0.3).q.copy()
        q[1] *= scale
        inst = CovertInstance(wy=wy, wz=Bdmc(WZ1), q=DecodingMetric(q), delta=0.1)
        res = lower_bound(inst)
        assert res.attained is False
        assert res.value == pytest.approx(erasures_only_capacity(inst), rel=1e-12, abs=0.0)

    def test_value_never_negative(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            res = lower_bound(random_instance(rng, ny=int(rng.integers(2, 5))))
            assert res.value >= 0.0

    def test_local_optimality_when_attained(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            inst = random_instance(rng)
            res = lower_bound(inst)
            if not res.attained or res.s_star == 0.0:
                continue
            tf = tf_of(inst)
            h = 1e-5
            assert f_s(tf, res.s_star + h) <= res.f_at_s_star + 1e-9
            assert f_s(tf, max(0.0, res.s_star - h)) <= res.f_at_s_star + 1e-9

    def test_invalid_instance_rejected(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.6, 0.4], [0.3, 0.7]])),
            wz=Bdmc(np.array([[0.5, 0.5], [0.5, 0.5]])),
            q=DecodingMetric(np.ones((2, 2))),
            delta=0.1,
        )
        with pytest.raises(ValidationError):
            lower_bound(inst)


class TestKeyRateThreshold:
    def test_example_value(self):
        inst = example1(3.0)
        res = lower_bound(inst)
        t = weight_parameter(inst.delta, inst.q0, inst.q1)
        # frozen: (2/7) * D(Q1 || Q0) - lower = 0.119313959
        need = key_rate_threshold(res, t, inst.q0, inst.q1)
        assert need == pytest.approx(0.119313959, abs=1e-8)

    def test_clamped_at_zero(self):
        inst = example1(3.0)
        t = weight_parameter(inst.delta, inst.q0, inst.q1)
        res = lower_bound(inst)
        rich = WeightParam(delta=t.delta, chi2=t.chi2)
        fake = type(res)(s_star=1.0, f_at_s_star=10.0 / t.t, t_delta=t.t)
        assert key_rate_threshold(fake, rich, inst.q0, inst.q1) == 0.0

    def test_zero_lower_bound_needs_full_rate(self):
        inst = example1(3.0)
        t = weight_parameter(inst.delta, inst.q0, inst.q1)
        res = lower_bound(inst)
        fake = type(res)(s_star=0.0, f_at_s_star=0.0, t_delta=t.t)
        assert key_rate_threshold(fake, t, inst.q0, inst.q1) == pytest.approx(
            t.t * kl_divergence(inst.q1, inst.q0), abs=1e-12
        )


def central_difference(inst, s, h=1e-6):
    tf = tf_of(inst)
    lo = max(0.0, s - h)
    return (f_s(tf, s + h) - f_s(tf, lo)) / (s + h - lo)


class TestBinaryHelpers:
    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            inst = random_binary_instance(rng)
            s = float(rng.uniform(0.0, 5.0))
            assert binary_f_derivative(inst, s) == pytest.approx(
                central_difference(inst, s), abs=1e-6
            )

    def test_balanced_metric_derivative_zero(self):
        # q00 q11 = q01 q10 kills the derivative for every s
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.7, 0.3], [0.2, 0.8]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[2.0, 4.0], [3.0, 6.0]])),
            delta=0.1,
        )
        for s in (0.0, 0.7, 3.0):
            assert binary_f_derivative(inst, s) == 0.0

    def test_matched_bsc_derivative_zero_at_one(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.9, 0.1], [0.1, 0.9]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[0.9, 0.1], [0.1, 0.9]])),
            delta=0.1,
        )
        assert binary_f_derivative(inst, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_derivative_requires_binary_output(self):
        with pytest.raises(DimensionError):
            binary_f_derivative(example1(), 1.0)
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.9, 0.1], [0.1, 0.9]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[0.9, 0.1], [0.1, 0.9]])),
            delta=0.1,
        )
        with pytest.raises(DomainError):
            binary_f_derivative(inst, -1.0)

    def test_s0_matched_is_one(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.9, 0.1], [0.1, 0.9]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[0.9, 0.1], [0.1, 0.9]])),
            delta=0.1,
        )
        assert binary_s0(inst) == pytest.approx(1.0, abs=1e-12)

    def test_s0_squared_odds_bsc(self):
        # frozen from ln(0.81/0.01) / ln(0.6561/0.0361) on BSC(0.1)
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.9, 0.1], [0.1, 0.9]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[0.81, 0.19], [0.19, 0.81]])),
            delta=0.1,
        )
        s0 = binary_s0(inst)
        assert s0 == pytest.approx(1.515316660843067, abs=1e-12)
        # the stationary point of f sits exactly there
        assert binary_f_derivative(inst, s0) == pytest.approx(0.0, abs=1e-12)
        res = lower_bound(inst)
        assert res.s_star == pytest.approx(s0, abs=1e-6)

    def test_s0_rejects_balanced_product(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.7, 0.3], [0.2, 0.8]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[2.0, 4.0], [3.0, 6.0]])),
            delta=0.1,
        )
        with pytest.raises(DomainError):
            binary_s0(inst)

    def test_s0_rejects_unnormalized_orientation(self):
        # P0(0)+P1(1) < P0(1)+P1(0): caller must relabel first
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.1, 0.9], [0.9, 0.1]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[0.9, 0.1], [0.1, 0.9]])),
            delta=0.1,
        )
        with pytest.raises(DomainError):
            binary_s0(inst)

    def test_s_star_agrees_with_s0_on_random_instances(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            inst = random_binary_instance(rng)
            w, qq = inst.wy.w, inst.q.q
            if w[0, 0] + w[1, 1] < w[0, 1] + w[1, 0]:
                continue
            if qq[0, 0] * qq[1, 1] <= qq[0, 1] * qq[1, 0]:
                continue
            s0 = binary_s0(inst)
            if not math.isfinite(s0):
                continue
            assert lower_bound(inst).s_star == pytest.approx(s0, abs=1e-6)
            checked += 1
