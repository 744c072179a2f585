"""Converse side: maximal-set tables, the coupling polytope, and the KL minimizer.

Two independent oracles anchor this module.  For binary outputs the reachable
surrogate marginals form a product of intervals, so the minimum KL has a
closed form (facing endpoints, or zero on overlap).  For larger alphabets the
composition-lattice enumeration bounds the optimum from above at a known
resolution.  Frozen literals were produced by those oracles.
"""

import contextlib
import importlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from covertcap import (
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    JointConditional,
    ResourceLimitError,
    ValidationError,
    erasures_only_metric,
    kl_divergence,
    maximal_sets,
    upper_bound,
    upper_bound_grid_oracle,
    weight_parameter,
)
from covertcap.cli import main
from covertcap.converse import (
    _TINY,
    _distinct_rows,
    _drop_undominated,
    _lattice_marginals,
    _line_search,
    _lmo_targets,
    _marginal_kl,
)
from covertcap.lower_bound import _newton_max
from covertcap.core import _type_blocks

from conftest import (
    WZ1,
    example1,
    matched_instance,
    random_binary_instance,
    random_instance,
    random_metric,
    random_warden,
)
from oracles import diagonal_coupling, objective_kl, verify_maximal

T, F = True, False
lower_bound_module = importlib.import_module("covertcap.lower_bound")
converse_module = importlib.import_module("covertcap.converse")


def erasures_instance(xi: float) -> CovertInstance:
    wy = Bdmc(np.array([[0.5, 0.2, 0.3], [0.4, 0.6, 0.0]]))
    return CovertInstance(
        wy=wy, wz=Bdmc(WZ1), q=erasures_only_metric(wy, xi), delta=0.1
    )


def bern_kl(p: float, q: float) -> float:
    out = 0.0
    for u, v in ((p, q), (1.0 - p, 1.0 - q)):
        if u > 0.0:
            out += u * math.log(u / v)
    return out


def binary_min_kl(inst: CovertInstance) -> float:
    """Closed-form minimum of D(m1 || m0) over maximal couplings, |Y| = 2.

    Each m_x(0) independently sweeps an interval: cells whose allowed set is
    {0} contribute their full channel mass, cells allowing both anywhere in
    [0, w[x,y]].  D(Bern(p) || Bern(q)) is convex in each argument with its
    minimum on the diagonal, so over a product of intervals the minimum is 0
    on overlap and otherwise sits at the facing endpoints.
    """
    table = maximal_sets(inst.q)
    w = inst.wy.w
    bounds = []
    for x in range(2):
        lo = hi = 0.0
        for y in range(2):
            targets = np.flatnonzero(table[x, y])
            if 0 in targets:
                hi += w[x, y]
                if 1 not in targets:
                    lo += w[x, y]
        bounds.append((lo, hi))
    (lo0, hi0), (lo1, hi1) = bounds
    if lo1 <= hi0 and lo0 <= hi1:
        return 0.0
    if lo1 > hi0:
        return bern_kl(lo1, hi0)
    return bern_kl(hi1, lo0)


class TestMaximalSets:
    def test_example_table_is_triangular(self):
        # log-ratio strictly increasing in y, so input 1 may only move mass
        # toward higher indices and input 0 toward lower ones
        table = maximal_sets(example1(3.0).q)
        np.testing.assert_array_equal(
            table[1], [[T, T, T], [F, T, T], [F, F, T]]
        )
        np.testing.assert_array_equal(
            table[0], [[T, F, F], [T, T, F], [T, T, T]]
        )

    def test_erasures_table(self):
        q = erasures_instance(0.5).q
        table = maximal_sets(q)
        np.testing.assert_array_equal(
            table[1], [[T, T, F], [T, T, F], [T, T, T]]
        )
        np.testing.assert_array_equal(
            table[0], [[T, T, T], [T, T, T], [F, F, T]]
        )

    def test_diagonal_always_allowed(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            ny = int(rng.integers(2, 6))
            table = maximal_sets(random_metric(rng, ny))
            diag = table[:, np.arange(ny), np.arange(ny)]
            assert diag.all()

    def test_matches_ratio_comparison_rule(self):
        # for x in {0, 1} the argmax of q(x, yhat)/q(x, y) over x reduces to
        # comparing rhat(yhat) with rhat(y), rhat = log q(1,.) - log q(0,.)
        rng = np.random.default_rng(41)
        done = 0
        while done < 50:
            ny = int(rng.integers(2, 6))
            q = random_metric(rng, ny)
            rhat = np.log(q.q[1]) - np.log(q.q[0])
            gaps = np.abs(rhat[:, None] - rhat[None, :])
            if np.any((gaps > 0) & (gaps < 1e-9)):
                continue  # keep clear of the tie tolerance
            table = maximal_sets(q)
            np.testing.assert_array_equal(table[1], rhat[None, :] >= rhat[:, None])
            np.testing.assert_array_equal(table[0], rhat[None, :] <= rhat[:, None])
            done += 1

    def test_constant_metric_allows_everything(self):
        table = maximal_sets(DecodingMetric(2.0 * np.ones((2, 4))))
        assert table.all()

    def test_row_rescaling_leaves_table_unchanged(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ny = int(rng.integers(2, 6))
            q = random_metric(rng, ny)
            c = rng.uniform(0.2, 5.0, size=2)
            scaled = DecodingMetric(c[:, None] * q.q)
            np.testing.assert_array_equal(
                maximal_sets(q), maximal_sets(scaled)
            )


class TestCouplings:
    def test_diagonal_kl_is_channel_divergence(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            inst = random_instance(rng, ny=int(rng.integers(2, 5)))
            jc = diagonal_coupling(inst.wy, maximal_sets(inst.q))
            assert objective_kl(jc) == pytest.approx(
                kl_divergence(inst.p1, inst.p0), abs=1e-12
            )

    def test_marginals_of_diagonal_are_channel_rows(self):
        inst = example1(3.0)
        jc = diagonal_coupling(inst.wy, maximal_sets(inst.q))
        m0, m1 = np.einsum("xy,xyz->xz", jc.wy.w, jc.v)
        np.testing.assert_allclose(m0, inst.wy.w[0], atol=0)
        np.testing.assert_allclose(m1, inst.wy.w[1], atol=0)

    def test_rejects_wrong_shape(self):
        inst = example1(3.0)
        with pytest.raises(DimensionError):
            JointConditional(wy=inst.wy, table=maximal_sets(inst.q), v=np.zeros((2, 2, 2)))

    def test_rejects_non_stochastic_rows(self):
        inst = example1(3.0)
        table = maximal_sets(inst.q)
        v = diagonal_coupling(inst.wy, table).v.copy()
        v[0, 0, 0] = 0.5
        with pytest.raises(DomainError):
            JointConditional(wy=inst.wy, table=table, v=v)
        v = diagonal_coupling(inst.wy, table).v.copy()
        v[1, 0, :] = [1.5, -0.5, 0.0]
        with pytest.raises(DomainError):
            JointConditional(wy=inst.wy, table=table, v=v)

    def test_rejects_mass_outside_allowed_set(self):
        inst = example1(3.0)
        table = maximal_sets(inst.q)
        v = diagonal_coupling(inst.wy, table).v.copy()
        v[1, 1] = [0.5, 0.5, 0.0]  # y=1 -> yhat=0 is forbidden for input 1
        with pytest.raises(DomainError):
            JointConditional(wy=inst.wy, table=table, v=v)

    def test_verify_accepts_diagonal(self):
        inst = example1(3.0)
        table = maximal_sets(inst.q)
        assert verify_maximal(diagonal_coupling(inst.wy, table), table, inst.wy)

    def test_verify_rejects_wrong_channel(self):
        inst = example1(3.0)
        table = maximal_sets(inst.q)
        other = Bdmc(np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]]))
        assert not verify_maximal(diagonal_coupling(inst.wy, table), table, other)

    def test_verify_rejects_under_stricter_table(self):
        # a permissive (constant-metric) table admits moves the u=3 table forbids
        inst = example1(3.0)
        loose = maximal_sets(DecodingMetric(np.ones((2, 3))))
        v = np.zeros((2, 3, 3))
        v[0, np.arange(3), np.arange(3)] = 1.0
        v[1] = [[1, 0, 0], [0, 1, 0], [1, 0, 0]]  # y=2 -> yhat=0 under input 1
        jc = JointConditional(wy=inst.wy, table=loose, v=v)
        strict = maximal_sets(inst.q)
        assert verify_maximal(jc, loose, inst.wy)
        assert not verify_maximal(jc, strict, inst.wy)

    def test_erasures_face_coupling(self):
        # keep m1 on the live symbols and spread idle mass proportionally:
        # the divergence collapses to log(1 / P0(live)), the erasures answer
        inst = erasures_instance(0.5)
        table = maximal_sets(inst.q)
        v = np.zeros((2, 3, 3))
        v[1, np.arange(3), np.arange(3)] = 1.0
        v[0] = [[0.4, 0.6, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]]
        jc = JointConditional(wy=inst.wy, table=table, v=v)
        assert verify_maximal(jc, table, inst.wy)
        m0, m1 = np.einsum("xy,xyz->xz", jc.wy.w, jc.v)
        np.testing.assert_allclose(m0, [0.28, 0.42, 0.3], atol=1e-15)
        np.testing.assert_allclose(m1, [0.4, 0.6, 0.0], atol=0)
        assert objective_kl(jc) == pytest.approx(math.log(1 / 0.7), abs=1e-12)


def inf_buffer(ny: int = 3) -> np.ndarray:
    """The oracle's masked buffer as a solve starts it."""
    return np.full((2, ny, ny), np.inf)


class TestLinearOracle:
    def test_zero_gradient_takes_smallest_allowed_index(self):
        table = maximal_sets(example1(3.0).q)
        idx = _lmo_targets(np.zeros((2, 3, 3)), table, inf_buffer())
        np.testing.assert_array_equal(idx, [[0, 0, 0], [0, 1, 2]])

    def test_hand_built_gradient(self):
        table = maximal_sets(example1(3.0).q)
        grad = np.array(
            [
                [[1.0, 2.0, 3.0], [4.0, 0.0, 6.0], [-1.0, -2.0, -3.0]],
                [[5.0, 1.0, 2.0], [0.0, 0.0, 9.0], [7.0, 8.0, -1.0]],
            ]
        )
        np.testing.assert_array_equal(_lmo_targets(grad, table, inf_buffer()), [[0, 1, 2], [1, 1, 2]])

    def test_reused_buffer_matches_a_fresh_mask(self):
        # a solve keeps one masked buffer for its table; each call overwrites only
        # the allowed entries, so earlier gradients never leak into the argmin
        rng = np.random.default_rng(43)
        table = maximal_sets(random_instance(rng, ny=6).q)
        masked = inf_buffer(6)
        for _ in range(20):
            grad = rng.normal(size=(2, 6, 6))
            expected = np.argmin(np.where(table, grad, np.inf), axis=2)
            np.testing.assert_array_equal(_lmo_targets(grad, table, masked), expected)

    def test_vertex_minimizes_linear_objective(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            inst = random_instance(rng)
            table = maximal_sets(inst.q)
            grad = rng.normal(size=(2, 3, 3))
            idx = _lmo_targets(grad, table, inf_buffer())
            assert np.all(np.take_along_axis(table, idx[..., None], axis=2))
            val = float(np.take_along_axis(grad, idx[..., None], axis=2).sum())
            for _ in range(5):
                raw = np.where(table, rng.uniform(0.1, 1.0, size=(2, 3, 3)), 0.0)
                v = raw / raw.sum(axis=2, keepdims=True)
                feasible = JointConditional(wy=inst.wy, table=table, v=v)
                assert val <= float(np.sum(grad * feasible.v)) + 1e-12


class TestUpperBound:
    def test_example_matched_point(self):
        # at u=3 the metric ranks exactly like the channel, the diagonal is
        # optimal, and the bound meets the matched capacity
        res = upper_bound(example1(3.0))
        assert res.kl_value == pytest.approx(0.4 * math.log(3), abs=1e-10)
        assert res.value == pytest.approx(0.125555690133, abs=1e-9)
        assert res.fw_gap <= 1e-8
        assert res.value == res.t_delta * res.kl_value

    def test_example_mismatched_point(self):
        # frozen by the grid oracle at grid_g=24 (agreement to 3e-16)
        res = upper_bound(example1(0.5))
        assert res.kl_value == pytest.approx(0.38190850097688767, abs=1e-8)
        assert res.value == pytest.approx(0.10911671456482504, abs=1e-8)
        assert res.kl_value < 0.4 * math.log(3) - 0.05

    def test_diagonal_cap(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            inst = random_instance(rng, ny=int(rng.integers(2, 5)))
            res = upper_bound(inst)
            assert res.kl_value <= kl_divergence(inst.p1, inst.p0) + 1e-15
            assert res.kl_value >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=291)  # 2 outputs, zero minimum: the raw objective was -1.6e-16
    @example(seed=316)  # likewise -1.7e-16
    def test_divergence_is_never_negative(self, seed):
        rng = np.random.default_rng(seed)
        res = upper_bound(random_instance(rng, ny=int(rng.integers(2, 9))))
        assert res.kl_value >= 0.0
        assert res.value >= 0.0

    def test_matches_binary_interval_oracle(self):
        rng = np.random.default_rng(46)
        nonzero = 0
        for _ in range(60):
            inst = random_binary_instance(rng)
            oracle = binary_min_kl(inst)
            nonzero += oracle > 0.0
            assert upper_bound(inst).kl_value == pytest.approx(oracle, abs=1e-9)
        assert nonzero >= 10  # both branches of the dichotomy exercised

    def test_erasures_value_xi_independent(self):
        vals = []
        for xi in (0.5, 0.01):
            res = upper_bound(erasures_instance(xi))
            assert res.kl_value == pytest.approx(math.log(1 / 0.7), abs=1e-8)
            vals.append(res.kl_value)
        assert vals[0] == pytest.approx(vals[1], abs=1e-9)

    def test_matched_instances_hit_channel_divergence(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            inst = matched_instance(rng)
            res = upper_bound(inst)
            assert res.kl_value == pytest.approx(
                kl_divergence(inst.p1, inst.p0), abs=1e-8
            )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(48)
        perm = np.array([2, 0, 1])
        for _ in range(10):
            inst = random_instance(rng)
            shuffled = CovertInstance(
                wy=Bdmc(inst.wy.w[:, perm]),
                wz=inst.wz,
                q=DecodingMetric(inst.q.q[:, perm]),
                delta=inst.delta,
            )
            assert upper_bound(inst).value == pytest.approx(
                upper_bound(shuffled).value, abs=1e-8
            )

    def test_minimizer_is_a_valid_maximal_coupling(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            inst = random_instance(rng)
            res = upper_bound(inst)
            table = maximal_sets(inst.q)
            assert verify_maximal(res.minimizer, table, inst.wy)
            assert objective_kl(res.minimizer) == pytest.approx(res.kl_value, abs=1e-12)

    def test_converged_flag(self):
        assert upper_bound(example1(3.0)).converged
        with step_budget(1):
            res = upper_bound(random_instance(np.random.default_rng(0), ny=12))
        assert not res.converged
        assert res.fw_gap >= 1e-8

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError, match="tol must be a positive finite number"):
            upper_bound(example1(0.5), tol=tol)

    def test_invalid_instance_rejected(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.6, 0.4], [0.3, 0.7]])),
            wz=Bdmc(np.array([[0.5, 0.5], [0.5, 0.5]])),
            q=DecodingMetric(np.ones((2, 2))),
            delta=0.1,
        )
        with pytest.raises(ValidationError):
            upper_bound(inst)


def without_output(inst: CovertInstance, y: int) -> CovertInstance:
    """``inst`` with output y unreachable from both inputs, channel rows renormalized."""
    w = np.array(inst.wy.w)
    w[:, y] = 0.0
    wy = Bdmc(w / w.sum(axis=1, keepdims=True))
    return CovertInstance(wy=wy, wz=inst.wz, q=inst.q, delta=inst.delta)


def unused_output_instance() -> CovertInstance:
    """Four outputs; neither input produces output 3, which input 1 may reach."""
    return CovertInstance(
        wy=Bdmc(np.array([[0.07, 0.73, 0.20, 0.0], [0.14, 0.39, 0.47, 0.0]])),
        wz=Bdmc(np.array([[0.09, 0.71, 0.20], [0.22, 0.13, 0.65]])),
        q=DecodingMetric(np.array([[1.8, 1.45, 1.67, 0.43], [0.68, 0.44, 0.47, 4.0]])),
        delta=0.15,
    )


class TestUnusedOutput:
    """An output neither input produces, which input 1 may still reach under the metric."""

    def test_matches_the_instance_without_it(self):
        # the eps smoothing left 5e-8 of input-1 mass on output 3, where m0 = 0;
        # the raw D was infinite and the bound fell back to D(P1 || P0), 8.5x the oracle
        four = unused_output_instance()
        three = CovertInstance(
            wy=Bdmc(four.wy.w[:, :3]), wz=four.wz, q=DecodingMetric(four.q.q[:, :3]), delta=four.delta
        )
        res = upper_bound(four)
        assert res.kl_value == pytest.approx(upper_bound(three).kl_value, abs=1e-9)
        assert res.kl_value <= upper_bound_grid_oracle(four, 12)
        assert verify_maximal(res.minimizer, maximal_sets(four.q), four.wy)
        assert objective_kl(res.minimizer) == res.kl_value

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_never_above_the_lattice_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ny = int(rng.integers(3, 5))
        inst = without_output(random_instance(rng, ny=ny), int(rng.integers(ny)))
        try:
            with mock.patch.object(converse_module, "_MAX_POINTS", 3000):
                oracle = upper_bound_grid_oracle(inst, 8)
        except ResourceLimitError:
            assume(False)  # the lattice is too large to enumerate in a unit test
        # 1000 steps per stage keep the slowest draws under half a second; at that
        # budget 157 of 157 enumerable draws held, and 28 failed before the mend
        with step_budget(1000):
            assert upper_bound(inst).kl_value <= oracle + 1e-6


@pytest.fixture
def fresh_memo():
    """upper_bound's memo, cleared before and after the test.

    A test that patches a converse constant must use it: the memo's key holds
    the instance and the stopping rule, not module constants.
    """
    converse_module._solve.cache_clear()
    yield converse_module._solve
    converse_module._solve.cache_clear()


@contextlib.contextmanager
def step_budget(steps: int):
    """upper_bound at ``steps`` Frank-Wolfe steps per eps stage, its memo cleared
    on entry and exit: the memo's key does not hold the module's _MAX_ITERS."""
    converse_module._solve.cache_clear()
    try:
        with mock.patch.object(converse_module, "_MAX_ITERS", steps):
            yield
    finally:
        converse_module._solve.cache_clear()


def solve_afresh(inst: CovertInstance, **kwargs):
    converse_module._solve.cache_clear()
    return upper_bound(inst, **kwargs)


def result_bits(res) -> tuple:
    return (
        res.value.hex(), res.kl_value.hex(), res.fw_gap.hex(), res.converged, res.minimizer.v.tobytes()
    )


def hull_min_kl(inst: CovertInstance) -> float:
    """Exact minimum of D(m1 || m0) over maximal couplings, from a lower convex hull.

    With the outputs sorted by rhat (stable), row y of input 1's argmax table
    is a suffix from first[y] and row y of input 0's a prefix ending at last[y].
    By Gale's supply-demand theorem, m1 of the first k sorted outputs is at
    most H1(k) = W1{y : first[y] < k} and m0 of them at least
    H0(k) = W0{y : last[y] < k}.  The minimum is sum b1 log(b1 / b0) over
    consecutive vertices of the lower convex hull of the points (H0(k), H1(k)),
    b the difference of the two vertices.  A point whose H0 equals the last
    kept point's is skipped: H1 never falls, so the kept one is the lowest, and
    every b0 is positive even where rounding leaves H1 short of H0 near 1.
    """
    order = np.argsort(inst.q.log_ratio, kind="stable")
    table = maximal_sets(inst.q)[:, order][:, :, order]
    ny = order.size
    idx = np.arange(ny)
    first = table[1].argmax(axis=1)
    last = ny - 1 - table[0, :, ::-1].argmax(axis=1)
    assert np.array_equal(table[1], idx >= first[:, None])
    assert np.array_equal(table[0], idx <= last[:, None])
    w = inst.wy.w[:, order]
    h1 = np.concatenate([[0.0], np.cumsum(np.bincount(first, w[1], ny))])
    h0 = np.concatenate([[0.0], np.cumsum(np.bincount(last, w[0], ny))])
    hull = []  # monotone chain, lower half
    for p in zip(h0.tolist(), h1.tolist()):
        if hull and p[0] == hull[-1][0]:
            continue
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0.0:
                break
            hull.pop()
        hull.append(p)
    return sum((b1 - a1) * math.log((b1 - a1) / (b0 - a0)) for (a0, a1), (b0, b1) in zip(hull, hull[1:]) if b1 > a1)


def unused_output_draw(seed: int) -> CovertInstance:
    """A random instance at 3 to 8 outputs with one output neither input produces."""
    rng = np.random.default_rng([77, seed])
    ny = int(rng.integers(3, 9))
    return without_output(random_instance(rng, ny=ny), int(rng.integers(ny)))


class TestHullReference:
    """Frank-Wolfe against the converse's exact minimum, hull_min_kl."""

    def test_matches_frank_wolfe_on_full_support(self):
        # measured: Frank-Wolfe minus hull in [-2.4e-16, 8.8e-15] on these 60
        for s in range(60):
            rng = np.random.default_rng([5, s])
            inst = random_instance(rng, ny=int(rng.integers(2, 11)))
            assert abs(upper_bound(inst).kl_value - hull_min_kl(inst)) <= 1e-12

    def test_unused_output_never_above_frank_wolfe_or_the_oracle(self):
        # Frank-Wolfe may stall above the minimum at this budget, never below it
        for s in range(40):
            inst = unused_output_draw(s)
            hull = hull_min_kl(inst)
            with step_budget(1000):
                assert hull <= upper_bound(inst).kl_value + 1e-12
            try:
                with mock.patch.object(converse_module, "_MAX_POINTS", 3000):
                    oracle = upper_bound_grid_oracle(inst, 6)
            except ResourceLimitError:
                continue  # the lattice is too large to enumerate in a unit test
            assert hull <= oracle + 1e-12

    def test_rounding_trap(self):
        # H0 reaches exactly 1 one point before H1, which stands at 1 - 1.1e-16 there;
        # pinning both last sums to 1 made a vertical segment and returned inf
        inst = unused_output_draw(74)
        assert inst.wy.num_outputs == 8
        assert hull_min_kl(inst) == 0.014074690652489216


def tie_points(q: np.ndarray, cell: tuple[int, int]) -> list[float]:
    """Values of q[cell] at which the two inputs tie on some pair of outputs.

    With x, y = cell and o the other input, the pairs (y, z) and (z, y) tie at
    log q(x, y) = log q(x, z) - log q(o, z) + log q(o, y).
    """
    x, y = cell
    o = 1 - x
    return [float(q[x, z] * q[o, y] / q[o, z]) for z in range(q.shape[1]) if z != y]


class TestConverseMemo:
    """upper_bound memoizes its last solve on (W_Y, S_q, tol)."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), descending=st.booleans())
    def test_sweep_matches_fresh_solves(self, seed, descending):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, ny=int(rng.integers(2, 6)))
        cell = (int(rng.integers(2)), int(rng.integers(inst.q.num_outputs)))
        grid = sorted({*np.linspace(0.2, 5.0, 9).tolist(), *tie_points(inst.q.q, cell)}, reverse=descending)
        insts = []
        for u in grid:
            q = np.array(inst.q.q)
            q[cell] = u
            insts.append(CovertInstance(wy=inst.wy, wz=inst.wz, q=DecodingMetric(q), delta=inst.delta))
        converse_module._solve.cache_clear()
        swept = [result_bits(upper_bound(i)) for i in insts]
        assert converse_module._solve.cache_info().hits > 0
        assert swept == [result_bits(solve_afresh(i)) for i in insts]

    def test_figure_sweep_solves_four_tables(self, fresh_memo, tmp_path, capsys):
        spec = tmp_path / "example1_u3.json"
        spec.write_text(json.dumps({
            "wy": example1().wy.w.tolist(), "wz": example1().wz.w.tolist(),
            "q": example1().q.q.tolist(), "delta": example1().delta,
        }))
        assert main(["sweep", str(spec)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 201
        info = fresh_memo.cache_info()
        assert (info.misses, info.hits) == (4, 196)

    def test_hit_minimizer_is_feasible_for_its_own_call(self, fresh_memo):
        # a hit returns the coupling checked when it was solved, with that solve's
        # channel and table; it must hold for the hit's own table and channel too
        base = example1()
        for u in np.linspace(0.05, 10.0, 40):
            q = np.array(base.q.q)
            q[0, 0] = u
            inst = CovertInstance(wy=Bdmc(base.wy.w), wz=base.wz, q=DecodingMetric(q), delta=base.delta)
            res = upper_bound(inst)
            assert verify_maximal(res.minimizer, maximal_sets(inst.q), inst.wy)
            assert max(objective_kl(res.minimizer), 0.0) == res.kl_value
        assert fresh_memo.cache_info().hits > 30

    def test_key_is_complete(self, fresh_memo):
        inst = example1(0.5)
        base = upper_bound(inst)
        # the same channel and table: the solve is shared, t_delta is each call's own
        rescaled = CovertInstance(wy=inst.wy, wz=inst.wz, q=DecodingMetric(2.0 * inst.q.q), delta=inst.delta)
        other_delta = CovertInstance(wy=inst.wy, wz=inst.wz, q=inst.q, delta=0.2)
        other_warden = CovertInstance(
            wy=inst.wy, wz=random_warden(np.random.default_rng(7)), q=inst.q, delta=inst.delta
        )
        for other in (rescaled, other_delta, other_warden):
            misses = fresh_memo.cache_info().misses
            res = upper_bound(other)
            assert fresh_memo.cache_info().misses == misses
            assert res.t_delta == weight_parameter(other.delta, other.q0, other.q1).t
            assert result_bits(res) == result_bits(solve_afresh(other))
        assert result_bits(upper_bound(other_delta)) != result_bits(base)
        # another channel or tolerance is another solve
        swapped = CovertInstance(wy=Bdmc(inst.wy.w[::-1]), wz=inst.wz, q=inst.q, delta=inst.delta)
        for other, kwargs in ((swapped, {}), (inst, {"tol": 1e-6})):
            upper_bound(inst)
            misses = fresh_memo.cache_info().misses
            res = upper_bound(other, **kwargs)
            assert fresh_memo.cache_info().misses == misses + 1
            assert result_bits(res) == result_bits(solve_afresh(other, **kwargs))

    def test_patched_constants_need_a_cleared_memo(self, fresh_memo, monkeypatch):
        inst = example1(0.5)
        default = result_bits(upper_bound(inst))
        monkeypatch.setattr(converse_module, "_EPS_SCHEDULE", (1e-3,))
        assert result_bits(upper_bound(inst)) == default  # the key does not hold the schedule
        fresh_memo.cache_clear()
        assert upper_bound(inst).kl_value != float.fromhex(default[1])


def segment_slope(m1, d1, m0t, d0, eps, g):
    """phi'(g) on a FW segment, by the formula the bisection search used."""
    a1 = m1 + g * d1
    a0 = m0t + g * (1.0 - eps) * d0
    term1 = d1 * (np.log(np.maximum(a1, _TINY)) - np.log(a0) + 1.0)
    term2 = (1.0 - eps) * (a1 / a0) * d0
    return float(term1.sum() - term2.sum())


def segment_objective(m1, d1, m0t, d0, eps, g):
    """(phi(g), scale) on a FW segment: phi is exact up to a few units in the last
    place of the scale, which bounds what the rounding of a1, a0 and the logs moves."""
    a1 = m1 + g * d1
    a0 = m0t + g * (1.0 - eps) * d0
    live = a1 > 0.0
    log1, log0 = np.log(np.where(live, a1, 1.0)), np.log(a0)
    phi = np.where(live, a1 * (log1 - log0), 0.0)
    spread1, spread0 = np.abs(m1) + g * np.abs(d1), np.abs(m0t) + g * np.abs(d0)
    scale = np.where(live, spread1 * (1.0 + np.abs(log1) + np.abs(log0)) + a1 * spread0 / a0, 0.0)
    return float(phi.sum()), float(scale.sum())


def sequential_line_search(m1, d1, m0t, d0, eps, gmax):
    """Reference: one derivative evaluation per bisection step, 30 steps."""
    args = (m1, d1, m0t, d0, eps)
    if segment_slope(*args, 0.0) >= 0.0:
        return 0.0
    if segment_slope(*args, gmax) <= 0.0:
        return gmax
    lo, hi = 0.0, gmax
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if segment_slope(*args, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def newton_line_search(m1, d1, m0t, d0, eps, gmax):
    """_line_search, given phi'(0) as upper_bound does."""
    return _line_search(m1, d1, m0t, d0, eps, gmax, segment_slope(m1, d1, m0t, d0, eps, 0.0))


def no_worse(args, gamma, reference):
    """phi(gamma) <= phi(reference) up to the rounding of the two sums."""
    (mine, scale), (ref, ref_scale) = (segment_objective(*args[:5], g) for g in (gamma, reference))
    return mine <= ref + 1e-14 * max(scale, ref_scale)


def segment(seed, ny, gmax, eps, zeros):
    """A segment on which m1 moves from p1 toward r1 and m0 from p0 toward r0.

    With ``zeros`` some entries of the pmfs are exactly zero, as on faces of
    the coupling polytope.
    """
    rng = np.random.default_rng(seed)
    pmfs = rng.dirichlet(np.ones(ny), size=4)
    if zeros:
        pmfs[rng.random((4, ny)) < 0.3] = 0.0
        pmfs[:, 0] += 1e-3
        pmfs /= pmfs.sum(axis=1, keepdims=True)
    p1, r1, p0, r0 = pmfs
    m0t = (1.0 - eps) * p0 + eps / ny
    return p1, r1 - p1, m0t, r0 - p0, eps, gmax


class TestLineSearch:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(2, 16),
        gmax=st.one_of(st.just(1.0), st.floats(1e-9, 1.0)),
        eps=st.sampled_from([1e-3, 1e-5, 1e-7]),
        zeros=st.booleans(),
    )
    def test_no_worse_than_sequential_bisection(self, seed, ny, gmax, eps, zeros):
        args = segment(seed, ny, gmax, eps, zeros)
        gamma = newton_line_search(*args)
        reference = sequential_line_search(*args)
        assert 0.0 <= gamma <= gmax
        assert (gamma == 0.0) == (reference == 0.0)
        assert no_worse(args, gamma, reference)

    @pytest.mark.parametrize(
        "p1, r1, p0, r0, gmax, expected",
        [
            # moving m1 away from m0 = m1: the derivative at 0 is 0
            ([0.5, 0.5], [0.9, 0.1], [0.5, 0.5], [0.5, 0.5], 1.0, "zero"),
            # moving m1 onto m0 with the segment cut short: still descending at gmax
            ([0.5, 0.5], [0.9, 0.1], [0.9, 0.1], [0.9, 0.1], 0.5, "gmax"),
            # m1 and m0 crossing over: the minimum lies strictly inside
            ([0.5, 0.5], [0.2, 0.8], [0.9, 0.1], [0.1, 0.9], 1.0, "inside"),
        ],
    )
    def test_endpoint_exits_and_interior(self, p1, r1, p0, r0, gmax, expected):
        eps = 1e-3
        p1, r1, p0, r0 = (np.array(a) for a in (p1, r1, p0, r0))
        args = (p1, r1 - p1, (1.0 - eps) * p0 + eps / 2, r0 - p0, eps, gmax)
        gamma = newton_line_search(*args)
        reference = sequential_line_search(*args)
        if expected == "inside":
            assert 0.0 < gamma < gmax and no_worse(args, gamma, reference)
        else:
            assert gamma == reference == {"zero": 0.0, "gmax": gmax}[expected]

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        moves=st.lists(st.sampled_from(["both", "m1 fixed", "m0 fixed", "neither"]), min_size=2, max_size=16),
        gmax=st.one_of(st.just(1.0), st.floats(1e-9, 1.0)),
        eps=st.sampled_from([1e-3, 1e-5, 1e-7]),
        zeros=st.booleans(),
        zero=st.sampled_from([0.0, -0.0]),
    )
    def test_fixed_outputs_give_the_reference_bits(self, seed, moves, gmax, eps, zeros, zero):
        # the forms that skip the log where d1 == 0 and the a0 update where d0 == 0
        assume("m1 fixed" in moves and "m0 fixed" in moves)
        m1, d1, m0t, d0, eps, gmax = segment(seed, len(moves), gmax, eps, zeros)
        moves = np.array(moves)
        d1[np.isin(moves, ["m1 fixed", "neither"])] = zero
        d0[np.isin(moves, ["m0 fixed", "neither"])] = zero
        args = (m1, d1, m0t, d0, eps, gmax, segment_slope(m1, d1, m0t, d0, eps, 0.0))
        assert _line_search(*args) == head_line_search(*args)

    def test_step_cap_raises(self, monkeypatch):
        eps = 1e-3
        p1, r1, p0, r0 = np.array([0.5, 0.5]), np.array([0.2, 0.8]), np.array([0.9, 0.1]), np.array([0.1, 0.9])
        args = (p1, r1 - p1, (1.0 - eps) * p0 + eps / 2, r0 - p0, eps, 1.0)
        monkeypatch.setattr(lower_bound_module, "NEWTON_CAP", 1)
        with pytest.raises(RuntimeError, match="Newton"):
            newton_line_search(*args)


def bisection_min_kl(inst: CovertInstance, tol: float = 1e-8, max_iters: int = 20000) -> float:
    """kl_value of the pairwise Frank-Wolfe upper_bound ran before its Newton line search.

    That search batched the 30 midpoints of sequential_line_search into six rounds
    and returned its result bit for bit, so the reference search stands in for it.
    """
    table = maximal_sets(inst.q)
    w = inst.wy.w
    ny = inst.wy.num_outputs
    cell_base = np.arange(2 * ny) * ny
    diag_row = cell_base + np.tile(np.arange(ny), 2)
    v = np.zeros(2 * ny * ny)
    v[diag_row] = 1.0
    v = v.reshape(2, ny, ny)
    active = diag_row[None, :]
    wts = np.ones(1)
    for eps in (1e-3, 1e-5, 1e-7):
        for _ in range(max_iters):
            m = np.einsum("xy,xyz->xz", w, v)
            m0, m1 = m[0], m[1]
            m0t = (1.0 - eps) * m0 + eps * (1.0 / ny)
            logterm = np.log(np.maximum(m1, _TINY)) - np.log(m0t)
            g1 = w[1][:, None] * (logterm + 1.0)[None, :]
            g0 = -(1.0 - eps) * w[0][:, None] * (m1 / m0t)[None, :]
            grad = np.stack([g0, g1])
            to_row = cell_base + head_lmo_targets(grad, table).ravel()
            if float(np.sum(grad * v) - grad.ravel()[to_row].sum()) < tol:
                break
            away = int(np.argmax(grad.ravel()[active].sum(axis=1)))
            gmax = float(wts[away])
            direction = np.zeros(2 * ny * ny)
            direction[to_row] = 1.0
            direction[active[away]] -= 1.0
            direction = direction.reshape(2, ny, ny)
            dm = np.einsum("xy,xyz->xz", w, direction)
            gamma = sequential_line_search(m1, dm[1], m0t, dm[0], eps, gmax)
            if gamma <= 0.0:
                break
            v = v + gamma * direction
            hit = np.flatnonzero((active == to_row).all(axis=1))
            if hit.size:
                wts[hit[0]] += gamma
            else:
                active = np.vstack([active, to_row])
                wts = np.append(wts, gamma)
            if gmax - gamma <= 1e-15:
                active = np.delete(active, away, axis=0)
                wts = np.delete(wts, away)
                np.maximum(v, 0.0, out=v)
            else:
                wts[away] = gmax - gamma
    v = v / v.sum(axis=2, keepdims=True)
    kl_iter = objective_kl(JointConditional(wy=inst.wy, table=table, v=v))
    return min(kl_iter, objective_kl(diagonal_coupling(inst.wy, table)))


def converse_instance(kind: str, seed: int, ny: int) -> CovertInstance:
    rng = np.random.default_rng(seed)
    if kind == "binary":
        return random_binary_instance(rng)
    if kind == "matched":
        return matched_instance(rng, ny=ny)
    inst = random_instance(rng, ny=ny)
    if kind == "ties":
        # metric entries on a grid of five values, so maximal sets tie within TIE_TOL
        q = np.exp(0.5 * rng.integers(-2, 3, size=(2, ny)))
        inst = CovertInstance(wy=inst.wy, wz=inst.wz, q=DecodingMetric(q), delta=inst.delta)
    return inst


class TestNewtonFrankWolfe:
    """upper_bound against the Frank-Wolfe with bisection line search it replaced."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["random", "binary", "matched", "ties"]),
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(2, 16),
    )
    def test_agrees_with_bisection_frank_wolfe(self, kind, seed, ny):
        inst = converse_instance(kind, seed, ny)
        assert abs(upper_bound(inst).kl_value - bisection_min_kl(inst)) <= 1e-10


# the converse's constants, frozen for the reference Frank-Wolfe below
_EPS_SCHEDULE = (1e-3, 1e-5, 1e-7)
_GAMMA_TOL = 2.0**-44


def head_lmo_targets(grad: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    # the linear oracle as the reference Frank-Wolfe below calls it
    return np.argmin(np.where(allowed, grad, np.inf), axis=2)


def head_line_search(m1, d1, m0t, d0, eps: float, gmax: float, slope0: float) -> float:
    """``converse._line_search`` before its scalar loop was tuned: a verbatim copy."""
    if slope0 >= 0.0:
        return 0.0
    moved = np.flatnonzero((d1 != 0.0) | (d0 != 0.0))
    e0s = (1.0 - eps) * d0[moved]
    terms = list(zip(m1[moved].tolist(), d1[moved].tolist(), m0t[moved].tolist(), e0s.tolist()))

    def falling(g: float) -> tuple[float, float]:
        # (-phi'(g), -phi''(g)): the slope and curvature of the concave -phi
        slope = curv = 0.0
        for p1, e1, p0, e0 in terms:
            a1 = max(p1 + g * e1, _TINY)
            rho = a1 / (p0 + g * e0)
            u = e1 - rho * e0
            slope += rho * e0 - e1 * (math.log(rho) + 1.0)
            curv -= u * u / a1
        return slope, curv

    if falling(gmax)[0] >= 0.0:
        return gmax
    return _newton_max(falling, 0.0, gmax, _GAMMA_TOL * gmax)


def head_solve(w_bytes: bytes, shape: tuple[int, int], allowed_bytes: bytes, tol: float, max_iters: int):
    """``converse._solve`` before its steps reused their arrays: a verbatim copy, unmemoized.

    It allocates every step's gradient, oracle mask and direction afresh and
    keeps the decomposition in arrays rebuilt by vstack, append and delete.
    This is the reference the converse must match bit for bit.
    """
    w = np.frombuffer(w_bytes).reshape(shape)
    ny = shape[1]
    allowed = np.frombuffer(allowed_bytes, dtype=bool).reshape(2, ny, ny)
    uniform = 1.0 / ny
    cell_base = np.arange(2 * ny) * ny  # flat index of v[x, y, 0], cells in (x, y) order

    # current point and its convex decomposition over one-hot vertices
    diag_row = cell_base + np.tile(np.arange(ny), 2)
    v = np.zeros(2 * ny * ny)
    v[diag_row] = 1.0
    v = v.reshape(2, ny, ny)
    active = diag_row[None, :]
    wts = np.ones(1)

    gap = math.inf
    converged = True
    for eps in _EPS_SCHEDULE:
        for _ in range(max_iters):
            m = np.einsum("xy,xyz->xz", w, v)
            m0, m1 = m[0], m[1]
            m0t = (1.0 - eps) * m0 + eps * uniform
            logterm = np.log(np.maximum(m1, _TINY)) - np.log(m0t)
            g1 = w[1][:, None] * (logterm + 1.0)[None, :]
            g0 = -(1.0 - eps) * w[0][:, None] * (m1 / m0t)[None, :]
            grad = np.stack([g0, g1])
            to_row = cell_base + head_lmo_targets(grad, allowed).ravel()
            to_sum = grad.ravel()[to_row].sum()
            gap = float(np.sum(grad * v) - to_sum)
            if gap < tol:
                break
            # away vertex: the active one the gradient most wants to leave
            away_sums = grad.ravel()[active].sum(axis=1)
            away = int(np.argmax(away_sums))
            gmax = float(wts[away])
            direction = np.zeros(2 * ny * ny)
            direction[to_row] = 1.0
            direction[active[away]] -= 1.0
            direction = direction.reshape(2, ny, ny)
            dm = np.einsum("xy,xyz->xz", w, direction)
            gamma = head_line_search(m1, dm[1], m0t, dm[0], eps, gmax, float(to_sum - away_sums[away]))
            if gamma <= 0.0:
                converged = False
                break
            v = v + gamma * direction
            hit = np.flatnonzero((active == to_row).all(axis=1))
            if hit.size:
                wts[hit[0]] += gamma
            else:
                active = np.vstack([active, to_row])
                wts = np.append(wts, gamma)
            left = gmax - gamma
            if left <= 1e-15:
                active = np.delete(active, away, axis=0)
                wts = np.delete(wts, away)
                np.maximum(v, 0.0, out=v)  # scrub the dropped vertex's float dust
            else:
                wts[away] = left
        else:
            converged = False

    # exact renormalization before wrapping; off-allowed entries are exact zeros
    v = v / v.sum(axis=2, keepdims=True)
    kl_iter = _marginal_kl(w, v)
    if kl_iter == math.inf:
        v = _drop_undominated(w, v)
        kl_iter = _marginal_kl(w, v)

    diag = np.broadcast_to(np.eye(ny), (2, ny, ny))
    kl_diag = _marginal_kl(w, diag)  # = D(P1 || P0), always finite under A3
    if kl_iter > kl_diag:
        v, kl_iter = diag, kl_diag
    return JointConditional(wy=Bdmc(w), table=allowed, v=v), max(kl_iter, 0.0), gap, converged


def head_bits(inst: CovertInstance, tol: float = 1e-8, max_iters: int = 20000) -> tuple:
    """``result_bits`` of upper_bound as the reference Frank-Wolfe computes it."""
    w = inst.wy.w
    allowed = maximal_sets(inst.q)
    jc, kl_value, gap, converged = head_solve(w.tobytes(), w.shape, allowed.tobytes(), tol, max_iters)
    t = weight_parameter(inst.delta, inst.q0, inst.q1).t
    return ((t * kl_value).hex(), kl_value.hex(), gap.hex(), converged, jc.v.tobytes())


class TestSameBitsAsReference:
    """upper_bound returns head_solve's value, kl_value, fw_gap, flag and coupling bytes.

    Both run on the machine under test: the gradient's np.log rounds by CPU,
    so no hex is pinned here.
    """

    @pytest.mark.parametrize("ny, seed", [(3, 0), (3, 1), (8, 0), (8, 1), (12, 0), (16, 0)])
    def test_random_instances(self, ny, seed):
        inst = random_instance(np.random.default_rng([23, ny, seed]), ny=ny)
        assert result_bits(solve_afresh(inst)) == head_bits(inst)

    @pytest.mark.parametrize("u", [0.3, 0.5])
    def test_example(self, u):
        inst = example1(u)
        bits = result_bits(solve_afresh(inst))
        assert bits == head_bits(inst)
        assert (float.fromhex(bits[1]) < 1e-14) == (u == 0.3)  # u = 0.3: a zero minimum, met to float dust

    def test_unused_output_at_a_step_budget(self):
        inst = unused_output_instance()
        with step_budget(1000):
            bits = result_bits(upper_bound(inst))
        assert bits == head_bits(inst, max_iters=1000)

    def test_panel_zero_minimum(self):
        # the recipe perfbench copies, at bounds_wide's ny12/i5 (before the spec
        # loader renormalizes its rows): a zero minimum whose active set peaks at
        # 293 rows with 11 drops, past the first buffer and through the row shifts
        inst = random_instance(np.random.default_rng([2021, 12, 5]), 12, floor=0.5 / 12)
        assert result_bits(solve_afresh(inst)) == head_bits(inst)

    def test_a_drop_keeps_the_row_order(self):
        # the away vertex is the first of tied rows: here, moving the last row into
        # a dropped row's place instead of shifting the later rows down moves the bits
        inst = random_instance(np.random.default_rng(202), ny=6)
        assert result_bits(solve_afresh(inst)) == head_bits(inst)


class TestUpperBoundPinned:
    # float.hex of kl_value recorded with the dictionary-based pairwise Frank-Wolfe
    # and bisection line search; the Newton line search stops at other iterates, so
    # the values are compared at 1e-12 and the gap only against the stopping tolerance
    PINNED = [
        (3, 0, "0x1.178bedb1ad909p+0"),
        (3, 4, "0x1.9ebd56d000000p-51"),
        (8, 0, "0x1.30505619c4167p-4"),
        (8, 4, "0x1.290b5d47395a1p-6"),
        (12, 1, "0x1.e1e1b3d7956dcp-6"),
        (12, 3, "0x1.2410cbfe316eap-8"),
    ]

    @pytest.mark.parametrize("ny, seed, kl_hex", PINNED)
    def test_kl_matches_recorded_values(self, ny, seed, kl_hex):
        res = upper_bound(random_instance(np.random.default_rng([ny, seed]), ny=ny))
        assert abs(res.kl_value - float.fromhex(kl_hex)) <= 1e-12
        assert res.converged
        assert res.fw_gap < 1e-8


class TestGridOracle:
    def test_example_matched_point(self):
        # the diagonal coupling lies on every lattice, so the oracle is exact here
        val = upper_bound_grid_oracle(example1(3.0), 20)
        assert val == pytest.approx(0.4 * math.log(3), abs=1e-12)

    def test_example_mismatched_point(self):
        val = upper_bound_grid_oracle(example1(0.5), 24)
        assert val == pytest.approx(0.38190850097688744, abs=1e-10)

    def test_binary_zero_case_exact_on_lattice(self):
        # marginal intervals overlap at a 1/16 multiple, so the lattice
        # contains an exact zero of the objective
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.75, 0.25], [0.5, 0.5]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.array([[1.0, 2.0], [1.0, 1.0]])),
            delta=0.1,
        )
        assert upper_bound_grid_oracle(inst, 16) == 0.0
        assert upper_bound(inst).kl_value == pytest.approx(0.0, abs=1e-12)

    def test_never_below_optimizer(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            inst = random_instance(rng)
            fw = upper_bound(inst).kl_value
            oracle = upper_bound_grid_oracle(inst, 12)
            assert fw <= oracle + 1e-9
            assert oracle <= fw + 5e-4  # lattice resolution at grid_g=12

    def test_diagonal_caps_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            inst = random_instance(rng)
            assert upper_bound_grid_oracle(inst, 6) <= (
                kl_divergence(inst.p1, inst.p0) + 1e-12
            )

    def test_grid_must_be_positive(self):
        with pytest.raises(DomainError):
            upper_bound_grid_oracle(example1(3.0), 0)

    def test_lattice_size_guard(self):
        inst = example1(3.0)
        loose = CovertInstance(
            wy=inst.wy, wz=inst.wz, q=DecodingMetric(np.ones((2, 3))), delta=0.1
        )
        with pytest.raises(ResourceLimitError):
            upper_bound_grid_oracle(loose, 200)


def raw_lattice_marginals(w_row, allowed_x, grid_g: int, max_points: int) -> np.ndarray:
    """Every raw lattice point of one marginal family, duplicates included."""
    ny = w_row.size
    m = np.zeros((1, ny))
    count = 1
    for y in range(ny):
        if w_row[y] == 0.0:
            continue
        targets = np.flatnonzero(allowed_x[y])
        comps = np.concatenate(list(_type_blocks(targets.size, grid_g, max_points + 1))) / grid_g
        count *= comps.shape[0]
        if count > max_points:
            raise ResourceLimitError("lattice too large")
        cell = np.zeros((comps.shape[0], ny))
        cell[:, targets] = w_row[y] * comps
        m = (m[:, None, :] + cell[None, :, :]).reshape(-1, ny)
    return m


def full_enumeration_oracle(inst: CovertInstance, grid_g: int, max_points: int) -> float:
    """The lattice oracle as it was before deduplication, kept as the reference.

    Every raw lattice point of both marginal families is enumerated, the
    cross terms come in blocks of about 5M entries and the minimum is taken
    over the full difference matrix.
    """
    table = maximal_sets(inst.q)
    m0s, m1s = (
        raw_lattice_marginals(inst.wy.w[x], table[x], grid_g, max_points) for x in range(2)
    )
    log_m0 = np.where(m0s > 0.0, np.log(np.maximum(m0s, _TINY)), -1e18)
    self_term = np.sum(np.where(m1s > 0.0, m1s * np.log(np.maximum(m1s, _TINY)), 0.0), axis=1)
    best = math.inf
    chunk = max(1, int(5_000_000 // max(1, m0s.shape[0])))
    for start in range(0, m1s.shape[0], chunk):
        d = self_term[start : start + chunk, None] - m1s[start : start + chunk] @ log_m0.T
        best = min(best, float(d.min()))
    return max(best, 0.0)


def dot_product_tolerance(ny: int, log_bound: float, expected: float) -> float:
    """How far two lattice minima may differ when only BLAS summation order separates them.

    Each value is fl(s - c) with s = sum m1 log m1 computed identically on
    both sides and c = <m1, log m0> a length-ny dot product.  Summed in any
    order, |fl(c) - c| <= gamma_ny * sum |m1| |log m0| <= gamma_ny * L, where
    gamma_n = n u / (1 - n u), u is the unit roundoff, L bounds |log m0| on
    the positive entries and m1 sums to one (Higham, Accuracy and Stability
    of Numerical Algorithms, section 3.1); a clamped log(0) meets an exact
    zero of m1 at any finite pair.  The final subtraction adds at most
    u |value| per side, and a minimum moves no further than its terms do.
    """
    u = np.finfo(float).eps / 2
    gamma = ny * u / (1 - ny * u)
    return 2 * gamma * log_bound + 2 * u * abs(expected)


LATTICE_WARDEN = Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]]))
MAX_GRID = {2: 24, 3: 12, 4: 6}


def lattice_instance(counts0, counts1, q) -> CovertInstance:
    """Channel rows proportional to small integer counts, so entries repeat or are commensurate."""
    wy = np.array([counts0, counts1], dtype=float)
    return CovertInstance(
        wy=Bdmc(wy / wy.sum(axis=1, keepdims=True)),
        wz=LATTICE_WARDEN,
        q=DecodingMetric(np.reshape(np.asarray(q, dtype=float), (2, -1))),
        delta=0.1,
    )


@st.composite
def lattice_cases(draw):
    ny = draw(st.integers(2, 4))
    counts = st.lists(st.integers(0, 4), min_size=ny, max_size=ny)
    counts0 = draw(counts.filter(any))
    # A3: the sending row may put mass only where the idle row has some
    counts1 = draw(counts.map(lambda c: [b if a else 0 for a, b in zip(counts0, c)]).filter(any))
    # few metric values, so ties widen the maximal sets
    q = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=2 * ny, max_size=2 * ny))
    grid_g = draw(st.integers(1, MAX_GRID[ny]))
    return lattice_instance(counts0, counts1, q), grid_g


# Recorded at the last commit that enumerated every raw lattice point: the
# figure's u = 0.5 check at G = 24, and criterion 5's first three instances
# at G = 20.
EXAMPLE1_ORACLE_HEX = "0x1.871305a70a5bcp-2"
CRITERION5_ORACLE_HEX = ["0x1.9b0db29e44528p-3", "0x1.83d0bb135eb80p-7", "0x1.21ec77a5a8d16p-1"]


class TestGridOracleDistinctMarginals:
    """The deduplicated, blocked oracle scores exactly the full enumeration's marginals.

    The marginal families and the refusals match exactly.  The minima match
    to the dot-product rounding bound: BLAS may sum a pair's cross term in a
    different order inside differently shaped products.
    """

    @settings(max_examples=150, deadline=None)
    @given(lattice_cases())
    # the binary instance whose marginal intervals meet at a 1/16 multiple
    @example((lattice_instance([3, 1], [2, 2], [1.0, 2.0, 1.0, 1.0]), 16))
    # a flat metric allows every move, so both families contain each vertex
    @example((lattice_instance([1, 2, 0, 1], [0, 1, 0, 3], [1.0] * 8), 4))
    # OpenBLAS sums the minimizing pair's cross term to -0.8056142094837069
    # in the 35 x 525 raw product and to -0.805614209483707 in the 35 x 145
    # distinct one, so the minima differ in the last bit
    @example((lattice_instance([1, 1, 0, 0], [4, 1, 0, 0], [0.5] * 4 + [1, 0.5, 0.5, 0.5]), 4))
    def test_matches_full_enumeration(self, case):
        inst, grid_g = case
        table = maximal_sets(inst.q)
        try:
            raw = [
                raw_lattice_marginals(inst.wy.w[x], table[x], grid_g, max_points=3000)
                for x in range(2)
            ]
            expected = full_enumeration_oracle(inst, grid_g, max_points=3000)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError), mock.patch.object(converse_module, "_MAX_POINTS", 3000):
                upper_bound_grid_oracle(inst, grid_g)
            return
        for x in range(2):
            distinct = _lattice_marginals(inst.wy.w[x], table[x], grid_g)
            assert np.array_equal(distinct, np.unique(raw[x], axis=0))
        log_bound = float(np.max(np.abs(np.log(raw[0][raw[0] > 0.0]))))
        tol = dot_product_tolerance(inst.wy.num_outputs, log_bound, expected)
        with mock.patch.object(converse_module, "_MAX_POINTS", 3000):
            assert abs(upper_bound_grid_oracle(inst, grid_g) - expected) <= tol

    def test_flat_metric_lattice_has_an_exact_zero(self):
        inst = lattice_instance([1, 2, 0, 1], [0, 1, 0, 3], [1.0] * 8)
        assert upper_bound_grid_oracle(inst, 4) == 0.0

    def test_bits_match_recorded_values(self):
        assert upper_bound_grid_oracle(example1(0.5), 24).hex() == EXAMPLE1_ORACLE_HEX
        rng = np.random.default_rng(505)  # the draw order of acceptance criterion 5
        values = [upper_bound_grid_oracle(random_instance(rng), 20).hex() for _ in range(3)]
        assert values == CRITERION5_ORACLE_HEX

    def test_families_hold_only_distinct_points(self):
        inst = example1(0.5)
        table = maximal_sets(inst.q)
        sizes = []
        for x in range(2):
            m = _lattice_marginals(inst.wy.w[x], table[x], 24)
            assert np.unique(m, axis=0).shape == m.shape
            sizes.append(m.shape[0])
        assert sizes == [4993, 1733]  # of 8125 raw points each

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 60), st.integers(1, 4)).flatmap(
            # zeros, subnormals, neighbouring floats and repeats, never a negative entry
            lambda shape: arrays(np.float64, shape, elements=st.sampled_from(
                [0.0, 5e-324, 1e-300, 0.1, 0.2, 0.30000000000000004, 0.3, 1.0, 1e300]
            ))
        )
    )
    def test_distinct_rows_match_numpy_unique(self, a):
        distinct = _distinct_rows(a)
        expected = np.unique(a, axis=0)
        assert distinct.shape == expected.shape
        assert distinct.tobytes() == expected.tobytes()

    def test_peak_memory(self):
        inst = example1(0.5)
        tracemalloc.start()
        try:
            upper_bound_grid_oracle(inst, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_oversize_lattice_refused_before_allocating(self):
        # eight outputs; the idle input's first cell alone has C(45, 5) points at G = 40
        inst = random_instance(np.random.default_rng(3), ny=8)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="exceeds 1000 points"):
                with mock.patch.object(converse_module, "_MAX_POINTS", 1000):
                    upper_bound_grid_oracle(inst, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_refusal_follows_the_raw_count(self):
        # example1(0.5) has 8125 raw points per input and fewer distinct ones
        with mock.patch.object(converse_module, "_MAX_POINTS", 8125):
            assert upper_bound_grid_oracle(example1(0.5), 24) > 0.0
        with mock.patch.object(converse_module, "_MAX_POINTS", 8124), pytest.raises(ResourceLimitError):
            upper_bound_grid_oracle(example1(0.5), 24)

    def test_oversize_pair_count_refused_before_allocating(self):
        # one output carries all mass and the metric is flat: each input has
        # C(1002, 2) = 501,501 raw points at G = 1000, within _MAX_POINTS, but
        # about 2.5e11 pairs
        inst = CovertInstance(
            wy=Bdmc(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])),
            wz=Bdmc(WZ1),
            q=DecodingMetric(np.ones((2, 3))),
            delta=0.1,
        )
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="501501 x 501501"):
                upper_bound_grid_oracle(inst, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
