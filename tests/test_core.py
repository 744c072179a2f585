"""Core data model, divergences, validation, and the channel-spec reader."""

import functools
import io
import json
import math
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    covert_capacity,
    innocent_only_set,
    kl_divergence,
    load_channel_spec,
    lower_bound,
    require_valid,
    upper_bound,
    upper_bound_grid_oracle,
    validate_instance,
    weight_parameter,
)
from covertcap import core as core_module
from covertcap.cli import main

from conftest import WY1, WZ1, example1, random_instance


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

    def test_log_ratio_is_one_read_only_array(self):
        q = np.array([[0.3, 1.7, 2.0e-9], [1.1, 0.2, 5.0]])
        metric = DecodingMetric(q)
        rhat = metric.log_ratio
        assert rhat.tobytes() == (np.log(q[1]) - np.log(q[0])).tobytes()
        assert metric.log_ratio is rhat
        with pytest.raises(ValueError):
            rhat[0] = 0.0


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


A1 = "A1: adversary output laws coincide"
A2 = "A2: Q1 puts mass where Q0 has none"
A3 = "A3: P1 puts mass where P0 has none"

# (receiver rows, warden rows, the ValidationError message every rate computation raises)
FAILING = {
    "A1": (WY1, [[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]], A1),
    "A2": (WY1, [[0.9, 0.1, 0.0], [0.2, 0.3, 0.5]], A2),
    "A3": ([[0.6, 0.4, 0.0], [0.2, 0.2, 0.6]], WZ1, A3),
    "A1+A3": ([[0.6, 0.4, 0.0], [0.2, 0.2, 0.6]], [[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]], f"{A1}; {A3}"),
    # Q1's 1e-16 where Q0 is 0, below ZERO_TOL but enough to make chi2 infinite
    "chi2": (WY1, [[0.8, 0.2, 0.0], [0.2, 0.8, 1e-16]], A2),
}


def failing_instance(case: str) -> CovertInstance:
    wy, wz, _ = FAILING[case]
    return CovertInstance(wy=Bdmc(np.array(wy)), wz=Bdmc(np.array(wz)), q=example1().q, delta=0.1)


def write_spec(tmp_path, inst: CovertInstance) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"wy": inst.wy.w.tolist(), "wz": inst.wz.w.tolist(), "q": inst.q.q.tolist(), "delta": inst.delta}
    ))
    return str(path)


class TestValidateOnce:
    """Each channel computes its A1-A3 facts and chi2 once; every message is kept."""

    def test_sweep_computes_each_fact_once_per_channel(self, tmp_path, capsys, monkeypatch):
        calls = Counter()
        chi2 = core_module.chi2_divergence

        def spy_chi2(p, r):
            calls["chi2_divergence"] += 1
            return chi2(p, r)

        monkeypatch.setattr(core_module, "chi2_divergence", spy_chi2)
        for name in ("rows_differ", "row1_dominated", "chi2"):
            def counted(self, fact=Bdmc.__dict__[name].func, name=name):
                calls[name] += 1
                return fact(self)

            prop = functools.cached_property(counted)
            prop.__set_name__(Bdmc, name)
            monkeypatch.setattr(Bdmc, name, prop)
        assert main(["sweep", write_spec(tmp_path, example1())]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 201
        # one warden and one receiver channel: A1 and chi2 on the warden, dominance on both
        assert calls == {"chi2_divergence": 1, "chi2": 1, "rows_differ": 1, "row1_dominated": 2}

    def test_facts_match_the_definitions(self):
        rng = np.random.default_rng(8)
        for case in FAILING:
            inst = failing_instance(case)
            for ch in (inst.wy, inst.wz):
                assert ch.chi2 == chi2_divergence(ch.row(1), ch.row(0))
        for _ in range(20):
            inst = random_instance(rng)
            assert inst.wz.chi2 == weight_parameter(inst.delta, inst.q0, inst.q1).chi2
            assert validate_instance(inst).ok

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_library_messages(self, case):
        inst = failing_instance(case)
        message = FAILING[case][2]
        for compute in (lower_bound, upper_bound, covert_capacity, lambda i: upper_bound_grid_oracle(i, 4)):
            with pytest.raises(ValidationError) as err:
                compute(inst)
            assert str(err.value) == message

    @pytest.mark.parametrize("case", sorted(FAILING))
    @pytest.mark.parametrize("command", [["bounds"], ["bounds", "--grid-check", "4"], ["sweep", "--steps", "3"]])
    def test_cli_messages_exit_2(self, tmp_path, capsys, case, command):
        path = write_spec(tmp_path, failing_instance(case))
        assert main([command[0], path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {FAILING[case][2]}\n"
        assert captured.out == ""

    def test_capacity_prints_its_four_check_lines(self, tmp_path, capsys):
        checks = ["A1 adversary laws differ: {}", "A2 Q1 dominated by Q0:    {}",
                  "A3 P1 dominated by P0:    {}", "metric strictly positive: {}"]
        assert main(["capacity", write_spec(tmp_path, example1())]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "t_delta = 0.285714286", "covert_capacity = 0.12555569 nats/sqrt(n)",
            *(line.format("pass") for line in checks),
        ]
        assert main(["capacity", write_spec(tmp_path, failing_instance("A1+A3"))]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            checks[0].format("FAIL"), checks[1].format("pass"), checks[2].format("FAIL"), checks[3].format("pass"),
        ]
        assert captured.err == f"failure: {A1}\nfailure: {A3}\n"
        assert main(["capacity", write_spec(tmp_path, failing_instance("chi2"))]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            checks[0].format("pass"), checks[1].format("FAIL"), checks[2].format("pass"), checks[3].format("pass"),
        ]
        assert captured.err == f"failure: {A2}\n"


class TestTinyUndominatedMass:
    """Row-1 mass in (0, ZERO_TOL] where row 0 is 0 makes chi2(Q1 || Q0) or D(P1 || P0)
    infinite, so A2 or A3 refuses it: no command prints an infinite bound or simulates."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(2, 6),
        tiny=st.floats(5e-324, 1e-15),
        on_warden=st.booleans(),
    )
    def test_every_command_exits_2_naming_the_assumption(self, tmp_path_factory, seed, ny, tiny, on_warden):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, ny=ny, nz=max(ny, 3))  # a binary warden would lose A1 with its column
        rows = {"wy": inst.wy.w.copy(), "wz": inst.wz.w.copy()}
        w = rows["wz" if on_warden else "wy"]
        c = int(rng.integers(w.shape[1]))
        w /= 1.0 - w[:, c:c + 1]  # both rows lose output c, then row 1 gets a trace of it back
        w[:, c] = 0.0, tiny
        spec = tmp_path_factory.mktemp("spec") / "spec.json"
        spec.write_text(json.dumps({key: a.tolist() for key, a in rows.items()} | {"q": inst.q.q.tolist(), "delta": 0.1}))
        loaded = load_channel_spec(str(spec))
        assert (loaded.wz if on_warden else loaded.wy).w[1, c] > 0.0
        failure = A2 if on_warden else A3
        sim = spec.parent / "sim.json"
        sim.write_text(json.dumps({"n": 200, "num_messages": 4, "num_keys": 1, "trials_per_pair": 10, "covertness_samples": 200}))
        out_dir = spec.parent / "out"
        for argv, out_lines, err in (
            (["capacity"], 4, f"failure: {failure}\n"),
            (["bounds"], 0, f"error: {failure}\n"),
            (["bounds", "--grid-check", "4"], 0, f"error: {failure}\n"),
            (["sweep", "--steps", "3"], 0, f"error: {failure}\n"),
            (["simulate", str(sim), "--out-dir", str(out_dir)], 0, f"error: {failure}\n"),
        ):
            out, errs = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(errs):
                assert main([argv[0], str(spec), *argv[1:]]) == 2
            assert len(out.getvalue().splitlines()) == out_lines
            assert errs.getvalue() == err
        assert not out_dir.exists()  # simulate refuses before it writes anything


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


def spec_file(tmp_path, text):
    """The path of a file under ``tmp_path`` holding ``text``."""
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


WY1_LIST = [[0.6, 0.2, 0.2], [0.2, 0.2, 0.6]]
WZ1_LIST = [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]]


class TestLoadChannelSpec:
    def test_round_trip_from_path(self, tmp_path):
        inst = load_channel_spec(spec_file(tmp_path, json.dumps(spec_payload())))
        assert inst.delta == 0.1
        np.testing.assert_allclose(inst.wy.w, WY1_LIST)
        np.testing.assert_allclose(inst.q.q, [[3.0, 1.0, 1.0], [1.0, 1.0, 3.0]])

    def test_syntax_error_reports_position(self, tmp_path):
        with pytest.raises(ChannelSpecError) as err:
            load_channel_spec(spec_file(tmp_path, '{"wy": [[0.5,'))
        assert err.value.lineno == 1
        assert err.value.colno is not None

    def test_rejects_nan_constant(self, tmp_path):
        with pytest.raises(ChannelSpecError, match="NaN"):
            load_channel_spec(spec_file(tmp_path, '{"wy": [[NaN, 1.0], [0.5, 0.5]]}'))

    def test_missing_keys_named(self, tmp_path):
        with pytest.raises(ChannelSpecError, match="delta"):
            load_channel_spec(spec_file(tmp_path, '{"wy": [[0.5, 0.5], [0.4, 0.6]]}'))

    def test_small_row_drift_renormalized(self, tmp_path):
        body = spec_payload(wy=[[0.6 + 4e-10, 0.2, 0.2], [0.2, 0.2, 0.6]])
        inst = load_channel_spec(spec_file(tmp_path, json.dumps(body)))
        assert inst.wy.w[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_row_drift_rejected(self, tmp_path):
        body = spec_payload(wy=[[0.7, 0.2, 0.2], [0.2, 0.2, 0.6]])
        with pytest.raises(ChannelSpecError, match="simplex"):
            load_channel_spec(spec_file(tmp_path, json.dumps(body)))

    def test_nonpositive_metric_rejected(self, tmp_path):
        body = spec_payload(q=[[0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        with pytest.raises(ChannelSpecError, match="positive"):
            load_channel_spec(spec_file(tmp_path, json.dumps(body)))

    def test_negative_entry_rejected(self, tmp_path):
        body = spec_payload(wz=[[0.9, 0.2, -0.1], [0.2, 0.3, 0.5]])
        with pytest.raises(ChannelSpecError, match="negative"):
            load_channel_spec(spec_file(tmp_path, json.dumps(body)))
