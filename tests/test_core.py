"""Core data model, divergences, validation, and the channel-spec reader."""

import io
import json
import math

import numpy as np
import pytest

from covertcap import (
    Bdmc,
    ChannelSpecError,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    ProbVector,
    ValidationError,
    chi2_divergence,
    innocent_only_set,
    kl_divergence,
    load_channel_spec,
    require_valid,
    validate_instance,
    weight_parameter,
)

from conftest import example1, random_instance


class TestProbVector:
    def test_accepts_simplex_point(self):
        p = ProbVector(np.array([0.2, 0.3, 0.5]))
        assert len(p) == 3
        assert p.probs.sum() == pytest.approx(1.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            ProbVector(np.array([0.5, 0.6]))

    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError):
            ProbVector(np.array([1.2, -0.2]))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            ProbVector(np.array([np.nan, 1.0]))

    def test_support_skips_exact_zeros(self):
        p = ProbVector(np.array([0.5, 0.0, 0.5]))
        assert p.support().tolist() == [0, 2]

    def test_immutable(self):
        p = ProbVector(np.array([0.4, 0.6]))
        with pytest.raises(ValueError):
            p.probs[0] = 1.0


class TestBdmc:
    def test_rows_and_size(self):
        ch = Bdmc(np.array([[0.6, 0.4], [0.1, 0.9]]))
        assert ch.num_outputs == 2
        assert ch.row(1).probs.tolist() == [0.1, 0.9]

    def test_needs_two_rows(self):
        with pytest.raises(DimensionError):
            Bdmc(np.array([[0.5, 0.5]]))

    def test_needs_two_outputs(self):
        with pytest.raises(DimensionError):
            Bdmc(np.array([[1.0], [1.0]]))

    def test_rows_must_be_pmfs(self):
        with pytest.raises(DomainError):
            Bdmc(np.array([[0.6, 0.6], [0.5, 0.5]]))


class TestDecodingMetric:
    def test_rejects_zero_entry(self):
        with pytest.raises(DomainError):
            DecodingMetric(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_negative_and_infinite(self):
        with pytest.raises(DomainError):
            DecodingMetric(np.array([[1.0, -1.0], [1.0, 1.0]]))
        with pytest.raises(DomainError):
            DecodingMetric(np.array([[1.0, np.inf], [1.0, 1.0]]))

    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            DecodingMetric(np.array([1.0, 2.0]))


class TestCovertInstance:
    def test_row_properties(self):
        inst = example1()
        assert inst.p0.probs.tolist() == [0.6, 0.2, 0.2]
        assert inst.p1.probs.tolist() == [0.2, 0.2, 0.6]
        assert inst.q0.probs.tolist() == [0.8, 0.1, 0.1]
        assert inst.q1.probs.tolist() == [0.2, 0.3, 0.5]

    def test_rows_are_validated_once(self, monkeypatch):
        # each channel keeps the two rows it validated; reading them builds no new ProbVector
        inst = example1()
        built = []
        check = ProbVector.__post_init__
        monkeypatch.setattr(ProbVector, "__post_init__", lambda self: built.append(check(self)))
        for _ in range(3):
            assert inst.p0 is inst.wy.row(0) and inst.p1 is inst.wy.row(1)
            assert inst.q0 is inst.wz.row(0) and inst.q1 is inst.wz.row(1)
        assert inst.p0 is inst.p0
        assert built == []
        Bdmc(np.array([[0.6, 0.4], [0.1, 0.9]]))
        assert len(built) == 2  # the counter does see construction

    def test_metric_must_match_receiver_alphabet(self):
        with pytest.raises(DimensionError):
            CovertInstance(
                wy=Bdmc(np.array([[0.5, 0.5], [0.4, 0.6]])),
                wz=Bdmc(np.array([[0.5, 0.5], [0.4, 0.6]])),
                q=DecodingMetric(np.ones((2, 3))),
                delta=0.1,
            )

    def test_delta_must_be_positive(self):
        base = example1()
        with pytest.raises(DomainError):
            CovertInstance(wy=base.wy, wz=base.wz, q=base.q, delta=0.0)


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = ProbVector(np.array([0.5, 0.5]))
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        p = ProbVector(np.array([1.0, 0.0]))
        r = ProbVector(np.array([0.5, 0.5]))
        assert kl_divergence(p, r) == pytest.approx(math.log(2), abs=1e-15)

    def test_example_channel_rows(self):
        # 0.2 ln(1/3) + 0.2 ln 1 + 0.6 ln 3 = 0.4 ln 3
        p = ProbVector(np.array([0.2, 0.2, 0.6]))
        r = ProbVector(np.array([0.6, 0.2, 0.2]))
        assert kl_divergence(p, r) == pytest.approx(0.4 * math.log(3), abs=1e-14)

    def test_undominated_is_infinite(self):
        p = ProbVector(np.array([0.5, 0.5]))
        r = ProbVector(np.array([1.0, 0.0]))
        assert kl_divergence(p, r) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence(ProbVector(np.array([1.0])), ProbVector(np.array([0.5, 0.5])))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ny = int(rng.integers(2, 6))
            p = ProbVector(rng.dirichlet(np.ones(ny)))
            r = ProbVector(rng.dirichlet(np.ones(ny)))
            assert kl_divergence(p, r) >= 0.0
            assert chi2_divergence(p, r) >= 0.0


class TestChi2Divergence:
    def test_identical_is_zero(self):
        p = ProbVector(np.array([0.3, 0.7]))
        assert chi2_divergence(p, p) == 0.0

    def test_example_warden_value(self):
        # 0.36/0.8 + 0.04/0.1 + 0.16/0.1 = 2.45
        p = ProbVector(np.array([0.2, 0.3, 0.5]))
        r = ProbVector(np.array([0.8, 0.1, 0.1]))
        assert chi2_divergence(p, r) == pytest.approx(2.45, abs=1e-14)

    def test_disjoint_support_is_infinite(self):
        p = ProbVector(np.array([1.0, 0.0]))
        r = ProbVector(np.array([0.0, 1.0]))
        assert chi2_divergence(p, r) == math.inf


class TestWeightParameter:
    def test_unit_weight_identity(self):
        # 2 delta = chi2 makes t exactly 1
        q0 = ProbVector(np.array([0.8, 0.1, 0.1]))
        q1 = ProbVector(np.array([0.2, 0.3, 0.5]))
        wp = weight_parameter(2.45 / 2.0, q0, q1)
        assert wp.t == pytest.approx(1.0, abs=1e-12)

    def test_example_weight(self):
        inst = example1()
        wp = weight_parameter(0.1, inst.q0, inst.q1)
        assert wp.t == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert wp.chi2 == pytest.approx(2.45, abs=1e-12)

    def test_sqrt_delta_scaling(self):
        inst = example1()
        assert weight_parameter(0.4, inst.q0, inst.q1).t == pytest.approx(4.0 / 7.0, abs=1e-12)

    def test_squares_back(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            inst = random_instance(rng)
            wp = weight_parameter(inst.delta, inst.q0, inst.q1)
            assert wp.t**2 * wp.chi2 == pytest.approx(2.0 * inst.delta, abs=1e-10)

    def test_degenerate_warden_rejected(self):
        q = ProbVector(np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            weight_parameter(0.1, q, q)


class TestValidateInstance:
    def test_example_passes(self):
        report = validate_instance(example1())
        assert report.ok
        assert report.failures == ()

    def test_a1_equal_warden_rows(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.6, 0.4], [0.3, 0.7]])),
            wz=Bdmc(np.array([[0.5, 0.5], [0.5, 0.5]])),
            q=DecodingMetric(np.ones((2, 2))),
            delta=0.1,
        )
        report = validate_instance(inst)
        assert not report.a1_warden_laws_differ
        assert not report.ok

    def test_a2_warden_domination(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.6, 0.4], [0.3, 0.7]])),
            wz=Bdmc(np.array([[1.0, 0.0], [0.5, 0.5]])),
            q=DecodingMetric(np.ones((2, 2))),
            delta=0.1,
        )
        assert not validate_instance(inst).a2_q1_dominated_by_q0

    def test_a3_receiver_domination(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[1.0, 0.0], [0.0, 1.0]])),
            wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
            q=DecodingMetric(np.ones((2, 2))),
            delta=0.1,
        )
        report = validate_instance(inst)
        assert not report.a3_p1_dominated_by_p0
        assert any("A3" in line for line in report.failures)

    def test_require_valid_raises_with_reasons(self):
        inst = CovertInstance(
            wy=Bdmc(np.array([[0.6, 0.4], [0.3, 0.7]])),
            wz=Bdmc(np.array([[0.5, 0.5], [0.5, 0.5]])),
            q=DecodingMetric(np.ones((2, 2))),
            delta=0.1,
        )
        with pytest.raises(ValidationError, match="A1"):
            require_valid(inst)


class TestInnocentOnlySet:
    def test_definition_applied(self):
        ch = Bdmc(np.array([[0.5, 0.2, 0.3], [0.4, 0.6, 0.0]]))
        assert innocent_only_set(ch).tolist() == [2]

    def test_full_support_sending_row(self):
        ch = Bdmc(np.array([[0.5, 0.5], [0.4, 0.6]]))
        assert innocent_only_set(ch).size == 0

    def test_example_channel_empty(self):
        assert innocent_only_set(example1().wy).size == 0

    def test_disjoint_from_sending_support(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ny = int(rng.integers(2, 6))
            w = np.stack([rng.dirichlet(np.ones(ny)), rng.dirichlet(np.ones(ny))])
            w[1, rng.integers(0, ny)] = 0.0
            w[1] /= w[1].sum()
            ch = Bdmc(w)
            d = set(innocent_only_set(ch).tolist())
            assert d.isdisjoint(set(np.flatnonzero(w[1] > 0.0).tolist()))


def spec_payload(**overrides):
    body = {
        "wy": WY1_LIST,
        "wz": WZ1_LIST,
        "q": [[3.0, 1.0, 1.0], [1.0, 1.0, 3.0]],
        "delta": 0.1,
    }
    body.update(overrides)
    return body


WY1_LIST = [[0.6, 0.2, 0.2], [0.2, 0.2, 0.6]]
WZ1_LIST = [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]]


class TestLoadChannelSpec:
    def test_round_trip_from_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_payload()), encoding="utf-8")
        inst = load_channel_spec(str(path))
        assert inst.delta == 0.1
        np.testing.assert_allclose(inst.wy.w, WY1_LIST)
        np.testing.assert_allclose(inst.q.q, [[3.0, 1.0, 1.0], [1.0, 1.0, 3.0]])

    def test_reads_open_stream(self):
        inst = load_channel_spec(io.StringIO(json.dumps(spec_payload())))
        assert inst.wz.num_outputs == 3

    def test_syntax_error_reports_position(self):
        with pytest.raises(ChannelSpecError) as err:
            load_channel_spec(io.StringIO('{"wy": [[0.5,'))
        assert err.value.lineno == 1
        assert err.value.colno is not None

    def test_rejects_nan_constant(self):
        with pytest.raises(ChannelSpecError, match="NaN"):
            load_channel_spec(io.StringIO('{"wy": [[NaN, 1.0], [0.5, 0.5]]}'))

    def test_missing_keys_named(self):
        with pytest.raises(ChannelSpecError, match="delta"):
            load_channel_spec(io.StringIO('{"wy": [[0.5, 0.5], [0.4, 0.6]]}'))

    def test_small_row_drift_renormalized(self):
        body = spec_payload(wy=[[0.6 + 4e-10, 0.2, 0.2], [0.2, 0.2, 0.6]])
        inst = load_channel_spec(io.StringIO(json.dumps(body)))
        assert inst.wy.w[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_row_drift_rejected(self):
        body = spec_payload(wy=[[0.7, 0.2, 0.2], [0.2, 0.2, 0.6]])
        with pytest.raises(ChannelSpecError, match="simplex"):
            load_channel_spec(io.StringIO(json.dumps(body)))

    def test_nonpositive_metric_rejected(self):
        body = spec_payload(q=[[0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        with pytest.raises(ChannelSpecError, match="positive"):
            load_channel_spec(io.StringIO(json.dumps(body)))

    def test_negative_entry_rejected(self):
        body = spec_payload(wz=[[0.9, 0.2, -0.1], [0.2, 0.3, 0.5]])
        with pytest.raises(ChannelSpecError, match="negative"):
            load_channel_spec(io.StringIO(json.dumps(body)))
