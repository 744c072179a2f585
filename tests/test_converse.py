"""Converse side: maximal-set tables, the coupling polytope, and the KL minimizer.

Two independent oracles anchor this module.  For binary outputs the reachable
surrogate marginals form a product of intervals, so the minimum KL has a
closed form (facing endpoints, or zero on overlap).  For larger alphabets the
composition-lattice enumeration bounds the optimum from above at a known
resolution.  Frozen literals were produced by those oracles.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertcap import (
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    JointConditional,
    ResourceLimitError,
    ValidationError,
    diagonal_coupling,
    erasures_only_metric,
    kl_divergence,
    maximal_sets,
    objective_kl,
    upper_bound,
    upper_bound_grid_oracle,
    verify_maximal,
)
from covertcap.converse import _TINY, _compositions, _lattice_marginals, _line_search, _lmo_targets

from conftest import (
    WZ1,
    example1,
    matched_instance,
    random_binary_instance,
    random_instance,
    random_metric,
)

T, F = True, False


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
            targets = table.allowed_targets(x, y)
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
            table.allowed[1], [[T, T, T], [F, T, T], [F, F, T]]
        )
        np.testing.assert_array_equal(
            table.allowed[0], [[T, F, F], [T, T, F], [T, T, T]]
        )

    def test_erasures_table(self):
        q = erasures_instance(0.5).q
        table = maximal_sets(q)
        np.testing.assert_array_equal(
            table.allowed[1], [[T, T, F], [T, T, F], [T, T, T]]
        )
        np.testing.assert_array_equal(
            table.allowed[0], [[T, T, T], [T, T, T], [F, F, T]]
        )

    def test_diagonal_always_allowed(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            ny = int(rng.integers(2, 6))
            table = maximal_sets(random_metric(rng, ny))
            diag = table.allowed[:, np.arange(ny), np.arange(ny)]
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
            np.testing.assert_array_equal(table.allowed[1], rhat[None, :] >= rhat[:, None])
            np.testing.assert_array_equal(table.allowed[0], rhat[None, :] <= rhat[:, None])
            done += 1

    def test_constant_metric_allows_everything(self):
        table = maximal_sets(DecodingMetric(2.0 * np.ones((2, 4))))
        assert table.allowed.all()

    def test_row_rescaling_leaves_table_unchanged(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ny = int(rng.integers(2, 6))
            q = random_metric(rng, ny)
            c = rng.uniform(0.2, 5.0, size=2)
            scaled = DecodingMetric(c[:, None] * q.q)
            np.testing.assert_array_equal(
                maximal_sets(q).allowed, maximal_sets(scaled).allowed
            )

    def test_allowed_targets_matches_table(self):
        table = maximal_sets(example1(3.0).q)
        assert list(table.allowed_targets(1, 1)) == [1, 2]
        assert list(table.allowed_targets(0, 1)) == [0, 1]
        for x in range(2):
            for y in range(3):
                np.testing.assert_array_equal(
                    table.allowed_targets(x, y), np.flatnonzero(table.allowed[x, y])
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
        m0, m1 = diagonal_coupling(inst.wy, maximal_sets(inst.q)).marginals()
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
        m0, m1 = jc.marginals()
        np.testing.assert_allclose(m0, [0.28, 0.42, 0.3], atol=1e-15)
        np.testing.assert_allclose(m1, [0.4, 0.6, 0.0], atol=0)
        assert objective_kl(jc) == pytest.approx(math.log(1 / 0.7), abs=1e-12)


class TestLinearOracle:
    def test_zero_gradient_takes_smallest_allowed_index(self):
        table = maximal_sets(example1(3.0).q)
        idx = _lmo_targets(np.zeros((2, 3, 3)), table.allowed)
        np.testing.assert_array_equal(idx, [[0, 0, 0], [0, 1, 2]])

    def test_hand_built_gradient(self):
        table = maximal_sets(example1(3.0).q)
        grad = np.array(
            [
                [[1.0, 2.0, 3.0], [4.0, 0.0, 6.0], [-1.0, -2.0, -3.0]],
                [[5.0, 1.0, 2.0], [0.0, 0.0, 9.0], [7.0, 8.0, -1.0]],
            ]
        )
        np.testing.assert_array_equal(_lmo_targets(grad, table.allowed), [[0, 1, 2], [1, 1, 2]])

    def test_vertex_minimizes_linear_objective(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            inst = random_instance(rng)
            table = maximal_sets(inst.q)
            grad = rng.normal(size=(2, 3, 3))
            idx = _lmo_targets(grad, table.allowed)
            assert np.all(np.take_along_axis(table.allowed, idx[..., None], axis=2))
            val = float(np.take_along_axis(grad, idx[..., None], axis=2).sum())
            for _ in range(5):
                raw = np.where(table.allowed, rng.uniform(0.1, 1.0, size=(2, 3, 3)), 0.0)
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
        res = upper_bound(random_instance(np.random.default_rng(0), ny=12), max_iters=1)
        assert not res.converged
        assert res.fw_gap >= 1e-8

    def test_invalid_instance_rejected(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.6, 0.4], [0.3, 0.7]])),
            wz=Bdmc(np.array([[0.5, 0.5], [0.5, 0.5]])),
            q=DecodingMetric(np.ones((2, 2))),
            delta=0.1,
        )
        with pytest.raises(ValidationError):
            upper_bound(inst)


def sequential_line_search(m1, d1, m0t, d0, eps, gmax):
    """Reference: one derivative evaluation per bisection step, 30 steps."""

    def dphi(g):
        a1 = m1 + g * d1
        a0 = m0t + g * (1.0 - eps) * d0
        term1 = d1 * (np.log(np.maximum(a1, _TINY)) - np.log(a0) + 1.0)
        term2 = (1.0 - eps) * (a1 / a0) * d0
        return float(term1.sum() - term2.sum())

    if dphi(0.0) >= 0.0:
        return 0.0
    if dphi(gmax) <= 0.0:
        return gmax
    lo, hi = 0.0, gmax
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if dphi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    def test_matches_sequential_bisection(self, seed, ny, gmax, eps, zeros):
        args = segment(seed, ny, gmax, eps, zeros)
        assert _line_search(*args) == sequential_line_search(*args)

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
        gamma = _line_search(*args)
        assert gamma == sequential_line_search(*args)
        assert {"zero": gamma == 0.0, "gmax": gamma == gmax, "inside": 0.0 < gamma < gmax}[expected]


class TestUpperBoundPinned:
    # float.hex of (kl_value, fw_gap) recorded with the dictionary-based
    # pairwise Frank-Wolfe; the array active set and batched bisection visit
    # the same iterates, so the bits must not move
    PINNED = [
        (3, 0, "0x1.178bedb1ad909p+0", "0x1.15e9c00000000p-33"),
        (3, 4, "0x1.9ebd56d000000p-51", "0x1.7329644000000p-28"),
        (8, 0, "0x1.30505619c4167p-4", "0x1.cfd4cbc000000p-28"),
        (8, 4, "0x1.290b5d47395a1p-6", "0x1.4a8a0b9c00000p-27"),
        (12, 1, "0x1.e1e1b3d7956dcp-6", "0x1.a845080000000p-29"),
        (12, 3, "0x1.2410cbfe316eap-8", "0x1.b694778000000p-28"),
    ]

    @pytest.mark.parametrize("ny, seed, kl_hex, gap_hex", PINNED)
    def test_bits_match_recorded_values(self, ny, seed, kl_hex, gap_hex):
        res = upper_bound(random_instance(np.random.default_rng([ny, seed]), ny=ny))
        assert res.kl_value.hex() == kl_hex
        assert res.fw_gap.hex() == gap_hex
        assert res.converged


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
        comps = np.array(_compositions(grid_g, targets.size), dtype=float) / grid_g
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
        raw_lattice_marginals(inst.wy.w[x], table.allowed[x], grid_g, max_points) for x in range(2)
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
                raw_lattice_marginals(inst.wy.w[x], table.allowed[x], grid_g, max_points=3000)
                for x in range(2)
            ]
            expected = full_enumeration_oracle(inst, grid_g, max_points=3000)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                upper_bound_grid_oracle(inst, grid_g, max_points=3000)
            return
        for x in range(2):
            distinct = _lattice_marginals(inst.wy.w[x], table.allowed[x], grid_g)
            assert np.array_equal(distinct, np.unique(raw[x], axis=0))
        log_bound = float(np.max(np.abs(np.log(raw[0][raw[0] > 0.0]))))
        tol = dot_product_tolerance(inst.wy.num_outputs, log_bound, expected)
        assert abs(upper_bound_grid_oracle(inst, grid_g, max_points=3000) - expected) <= tol

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
            m = _lattice_marginals(inst.wy.w[x], table.allowed[x], 24)
            assert np.unique(m, axis=0).shape == m.shape
            sizes.append(m.shape[0])
        assert sizes == [4993, 1733]  # of 8125 raw points each

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
                upper_bound_grid_oracle(inst, 40, max_points=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_refusal_follows_the_raw_count(self):
        # example1(0.5) has 8125 raw points per input and fewer distinct ones
        assert upper_bound_grid_oracle(example1(0.5), 24, max_points=8125) > 0.0
        with pytest.raises(ResourceLimitError):
            upper_bound_grid_oracle(example1(0.5), 24, max_points=8124)

    def test_oversize_pair_count_refused_before_allocating(self):
        # one output carries all mass and the metric is flat: each input has
        # C(1002, 2) = 501,501 raw points at G = 1000, within max_points, but
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
