"""Command-line behavior: output shapes, exit codes, and file side effects.

Every test drives ``main(argv)`` in-process; nothing shells out.  Exit-code
contract: 0 success, 1 parse/IO, 2 validation/domain, 3 resource limits.
"""

import argparse
import ast
import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import covertcap
from covertcap import CovertnessReport, upper_bound_grid_oracle, weight_parameter
from covertcap.cli import _build_parser, main

from conftest import example1, random_instance

lower_bound_module = importlib.import_module("covertcap.lower_bound")

EXAMPLE_SPEC = {
    "wy": [[0.6, 0.2, 0.2], [0.2, 0.2, 0.6]],
    "wz": [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]],
    "q": [[3.0, 1.0, 1.0], [1.0, 1.0, 3.0]],
    "delta": 0.1,
}

# binary everywhere so the simulator's exact covertness path is cheap
SIM_SPEC = {
    "wy": [[0.7, 0.3], [0.4, 0.6]],
    "wz": [[0.7, 0.3], [0.4, 0.6]],
    "q": [[0.9, 0.1], [0.1, 0.9]],
    "delta": 0.3,
}

SIM_CONFIG = {
    "n": 12,
    "num_messages": 3,
    "num_keys": 2,
    "trials_per_pair": 50,
    "covertness_samples": 200,
    "seed": 123,
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    return write_json(tmp_path, "spec.json", EXAMPLE_SPEC)


class TestCapacity:
    def test_valid_spec(self, spec_file, capsys):
        assert main(["capacity", spec_file]) == 0
        out = capsys.readouterr().out
        assert "t_delta = 0.285714286" in out
        assert "covert_capacity = 0.12555569 nats/sqrt(n)" in out
        assert out.count("pass") == 4
        assert "FAIL" not in out

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = dict(EXAMPLE_SPEC, wz=[[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]])
        path = write_json(tmp_path, "bad.json", bad)
        assert main(["capacity", path]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "failure:" in captured.err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["capacity", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"wy": [[0.5,', encoding="utf-8")
        assert main(["capacity", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_duplicated_key_exits_1_naming_it(self, tmp_path, capsys):
        # json keeps the last of two equal keys: this spec ran at delta = 0.3
        text = json.dumps(EXAMPLE_SPEC)[:-1] + ', "delta": 0.3}'
        path = tmp_path / "twice.json"
        path.write_text(text, encoding="utf-8")
        assert main(["capacity", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: key 'delta' appears twice in a channel spec"]


class TestBounds:
    def test_row_matches_library(self, spec_file, capsys):
        assert main(["bounds", spec_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lower,upper,covert_capacity,s_star,fw_gap"
        lower, upper, cap, s_star, fw_gap = map(float, lines[1].split(","))
        target = (2 / 7) * 0.4 * math.log(3)
        assert lower == pytest.approx(target, abs=1e-6)
        assert upper == pytest.approx(target, abs=1e-6)
        assert cap == pytest.approx(target, abs=1e-8)
        assert s_star == pytest.approx(1.0, abs=1e-6)
        assert fw_gap <= 1e-8

    def test_grid_check_appends_rate_units(self, spec_file, capsys):
        assert main(["bounds", spec_file, "--grid-check", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith(",oracle_value")
        fields = lines[1].split(",")
        assert len(fields) == 6
        inst = example1(3.0)
        t = weight_parameter(inst.delta, inst.q0, inst.q1).t
        expected = t * upper_bound_grid_oracle(inst, 12)
        assert float(fields[5]) == pytest.approx(expected, abs=1e-9)

    def test_oversize_grid_check_exits_3(self, tmp_path, capsys):
        # eight outputs: at G = 40 the idle input's raw lattice is far over 5,000,000 points
        inst = random_instance(np.random.default_rng(3), ny=8)
        spec = {"wy": inst.wy.w.tolist(), "wz": inst.wz.w.tolist(), "q": inst.q.q.tolist(),
                "delta": inst.delta}
        path = write_json(tmp_path, "wide.json", spec)
        assert main(["bounds", path, "--grid-check", "40"]) == 3
        assert "grid oracle lattice exceeds" in capsys.readouterr().err

    def test_oversize_grid_pair_count_exits_3(self, tmp_path, capsys):
        # all mass on one output under a flat metric: 501,501 raw points per
        # input at G = 1000, within the per-input cap, but about 2.5e11 pairs
        spec = {"wy": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "wz": EXAMPLE_SPEC["wz"],
                "q": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], "delta": 0.1}
        path = write_json(tmp_path, "flat.json", spec)
        assert main(["bounds", path, "--grid-check", "1000"]) == 3
        assert "grid oracle lattice pairs" in capsys.readouterr().err


class TestSolverCaps:
    """A solver cap is a resource limit: exit 3 with one error line, no traceback."""

    @pytest.mark.parametrize("cap, value, u, words", [
        ("NEWTON_CAP", 2, 3.0, "Newton exceeded 2 steps"),
        # s_star is near 1.6 at q(0,0) = 0.5, beyond a bracket capped at 1
        ("BRACKET_CAP", 1.0, 0.5, "bracketing exceeded"),
    ])
    def test_cap_exits_3(self, tmp_path, capsys, monkeypatch, cap, value, u, words):
        path = write_json(tmp_path, "spec.json", dict(EXAMPLE_SPEC, q=[[u, 1.0, 1.0], [1.0, 1.0, 3.0]]))
        monkeypatch.setattr(lower_bound_module, cap, value)
        assert main(["bounds", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and words in captured.err


class TestSweep:
    def test_table_shape_and_ordering(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--from", "0.5", "--to", "3.0", "--steps", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "u,lower,upper,covert_capacity"
        assert len(lines) == 6
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(rows[:, 0], np.linspace(0.5, 3.0, 5), atol=1e-9)
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-8)   # lower <= upper
        assert np.all(rows[:, 2] <= rows[:, 3] + 1e-8)   # upper <= capacity
        assert np.unique(rows[:, 3]).size == 1           # capacity is metric-free

    def test_peak_sits_at_the_matched_entry(self, spec_file, capsys):
        # row 0 is swept through u=3 where the metric becomes matched
        assert main(["sweep", spec_file, "--from", "1.0", "--to", "5.0", "--steps", "9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        best = int(np.argmax(rows[:, 1]))
        assert rows[best, 0] == pytest.approx(3.0, abs=1e-9)
        assert rows[best, 1] == pytest.approx(rows[best, 3], abs=1e-6)

    def test_bad_cell_syntax_exits_2(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--cell", "zero,zero"]) == 2
        assert main(["sweep", spec_file, "--cell", "0,9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_value_exits_2(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--from", "-1.0", "--steps", "3"]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("end, value", [("--to", "inf"), ("--from", "-inf"), ("--from", "nan")])
    def test_nonfinite_endpoint_exits_2_naming_it(self, spec_file, capsys, end, value):
        ends = {"--from": "1", "--to": "2", end: value}
        assert main(["sweep", spec_file, *(f"{k}={v}" for k, v in ends.items()), "--steps", "3"]) == 2
        captured = capsys.readouterr()
        assert f"{end} must be finite" in captured.err
        assert captured.out == ""

    def test_zero_steps_exits_2(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--steps", "0"]) == 2
        capsys.readouterr()

    def test_oversize_steps_exits_3_before_the_values(self, spec_file, capsys, monkeypatch):
        monkeypatch.setattr("covertcap.cli.np.linspace", lambda *args: pytest.fail("values built"))
        assert main(["sweep", spec_file, "--steps", str(10**15)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "cap" in captured.err
        assert captured.out == ""


class TestSimulate:
    @pytest.fixture
    def sim_files(self, tmp_path):
        spec = write_json(tmp_path, "sim_spec.json", SIM_SPEC)
        config = write_json(tmp_path, "sim_config.json", SIM_CONFIG)
        return spec, config

    def test_writes_reports_with_exact_covertness(self, sim_files, tmp_path, capsys):
        spec, config = sim_files
        out_dir = tmp_path / "out"
        assert main(["simulate", spec, config, "--out-dir", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "schedule: n=12 l=2 w=6 r=0" in stdout
        covertness = stdout.splitlines()[2:4]
        assert covertness == [
            "covertness [EXACT]: 0.133551311 nats over 4096 samples",
            "covertness vs delta = 0.3: within (estimate +- 2 stderr)",
        ]

        err_lines = (out_dir / "errors.csv").read_text().splitlines()
        assert err_lines[0] == "key,message,trials,errors,p_hat,ci95"
        assert len(err_lines) == 1 + 2 * 3
        for line in err_lines[1:]:
            k, m, trials, errors, p_hat, ci = line.split(",")
            assert int(trials) == 50
            assert 0 <= int(errors) <= 50
            assert float(p_hat) == pytest.approx(int(errors) / 50.0, abs=1e-9)

        cov_lines = (out_dir / "covertness.csv").read_text().splitlines()
        assert cov_lines[0] == "method,estimate,stderr,samples"
        method, estimate, stderr, samples = cov_lines[1].split(",")
        assert method == "EXACT"
        assert stderr == ""
        assert int(samples) == 2**12
        assert float(estimate) >= 0.0

    def test_byte_identical_across_runs_and_workers(self, sim_files, tmp_path):
        spec, config = sim_files
        blobs = []
        for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
            out_dir = tmp_path / tag
            assert main(
                ["simulate", spec, config, "--out-dir", str(out_dir), "--workers", workers]
            ) == 0
            blobs.append(
                ((out_dir / "errors.csv").read_bytes(), (out_dir / "covertness.csv").read_bytes())
            )
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("n, method", [(24, "EXACT"), (25, "MONTE_CARLO")])
    def test_covertness_method_follows_the_state_count(self, sim_files, tmp_path, capsys, n, method):
        # exact while |Z|^n = 2^n is at most MAX_EXACT_STATES = 2^24, Monte Carlo above it
        spec, _ = sim_files
        config = write_json(tmp_path, "config_n.json", dict(SIM_CONFIG, n=n))
        out_dir = tmp_path / "out"
        assert main(["simulate", spec, config, "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        got, estimate, stderr, samples = (out_dir / "covertness.csv").read_text().splitlines()[1].split(",")
        assert got == method
        if method == "EXACT":
            assert (stderr, int(samples)) == ("", 2**24)
        else:
            assert float(stderr) > 0.0 and int(samples) == 200

    def test_expurgation_shrinks_the_book(self, sim_files, tmp_path, capsys):
        spec, _ = sim_files
        config = write_json(
            tmp_path, "config_exp.json", dict(SIM_CONFIG, expurgate_fraction=0.3)
        )
        out_dir = tmp_path / "exp"
        assert main(["simulate", spec, config, "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        err_lines = (out_dir / "errors.csv").read_text().splitlines()
        assert len(err_lines) == 1 + 2 * 2  # one of three messages dropped per key
        kept = {line.split(",")[1] for line in err_lines[1:]}
        assert kept <= {"0", "1", "2"}

    @pytest.mark.parametrize(
        "estimate, stderr, verdict",
        [
            (0.3, None, "within"),  # exact, on the budget
            (0.3000001, None, "over"),
            (math.inf, None, "over"),
            (0.1, 0.05, "within"),  # 0.2 <= 0.3
            (0.25, 0.05, "undecided"),  # 0.15 <= 0.3 < 0.35
            (0.45, 0.05, "over"),  # 0.35 > 0.3
        ],
    )
    def test_covertness_is_judged_against_delta(self, sim_files, tmp_path, capsys, monkeypatch, estimate, stderr, verdict):
        # within when estimate + 2 stderr <= delta, over when estimate - 2 stderr > delta
        spec, config = sim_files
        monkeypatch.setattr("covertcap.cli.covertness_exact", lambda *args, **kw: CovertnessReport("EXACT", estimate, stderr, 1))
        assert main(["simulate", spec, config, "--out-dir", str(tmp_path / "out")]) == 0
        assert f"covertness vs delta = 0.3: {verdict} (estimate +- 2 stderr)" in capsys.readouterr().out.splitlines()

    def test_missing_config_key_exits_1(self, sim_files, tmp_path, capsys):
        spec, _ = sim_files
        broken = {k: v for k, v in SIM_CONFIG.items() if k != "n"}
        config = write_json(tmp_path, "broken.json", broken)
        assert main(["simulate", spec, config]) == 1
        assert "missing 'n'" in capsys.readouterr().err

    def test_nonpositive_config_value_exits_1(self, sim_files, tmp_path, capsys):
        spec, _ = sim_files
        config = write_json(tmp_path, "zero.json", dict(SIM_CONFIG, trials_per_pair=0))
        assert main(["simulate", spec, config]) == 1
        assert "positive" in capsys.readouterr().err

    def test_duplicated_config_key_exits_1_before_the_book(self, sim_files, tmp_path, capsys, monkeypatch):
        spec, _ = sim_files
        text = json.dumps(SIM_CONFIG)[:-1] + ', "trials_per_pair": 5}'
        config = tmp_path / "twice.json"
        config.write_text(text, encoding="utf-8")
        monkeypatch.setattr("covertcap.cli.generate_codebook", lambda *args: pytest.fail("book built"))
        assert main(["simulate", spec, str(config), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: key 'trials_per_pair' appears twice in a simulation config"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("expurgate_fraction", -0.5),
            ("expurgate_fraction", math.nan),
            ("expurgate_fraction", math.inf),
            ("expurgate_fraction", 1.0),
            ("seed", -1),
            ("seed", 2**64),
        ],
    )
    def test_out_of_range_config_exits_1_before_the_book(self, sim_files, tmp_path, capsys, monkeypatch, key, value):
        # refused before any work: a fraction outside [0, 1) has no meaning, and a
        # seed outside [0, 2^64) would name the same streams as one inside it; a
        # non-finite constant is refused as the file is read, as in a channel spec
        spec, _ = sim_files
        config = write_json(tmp_path, "bad.json", dict(SIM_CONFIG, **{key: value}))
        monkeypatch.setattr("covertcap.cli.generate_codebook", lambda *args: pytest.fail("book built"))
        assert main(["simulate", spec, config, "--out-dir", str(tmp_path / "out")]) == 1
        assert (repr(key) if math.isfinite(value) else "non-finite constant") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", "0"), ("--workers", "-3")],
    )
    def test_nonpositive_flag_exits_2_before_the_book(self, sim_files, tmp_path, capsys, monkeypatch, flag, value):
        # no worker count below one has a meaning: it once ran serially without a word
        spec, config = sim_files
        monkeypatch.setattr("covertcap.cli.generate_codebook", lambda *args: pytest.fail("book built"))
        assert main(["simulate", spec, config, "--out-dir", str(tmp_path / "out"), flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversize_covertness_samples_exit_3_before_the_book(self, sim_files, tmp_path, capsys, monkeypatch):
        # 2^25 output states, above MAX_EXACT_STATES, take the Monte-Carlo path, which refuses 10^15 samples
        spec, _ = sim_files
        config = write_json(tmp_path, "huge.json", dict(SIM_CONFIG, n=25, covertness_samples=10**15))
        monkeypatch.setattr("covertcap.cli.generate_codebook", lambda *args: pytest.fail("book built"))
        assert main(["simulate", spec, config, "--out-dir", str(tmp_path / "out")]) == 3
        assert "cap" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_inadmissible_blocklength_exits_2(self, sim_files, tmp_path, capsys):
        spec, _ = sim_files
        config = write_json(tmp_path, "tiny.json", dict(SIM_CONFIG, n=5))
        assert main(["simulate", spec, config]) == 2
        assert "error:" in capsys.readouterr().err

    def test_oversize_codebook_exits_3_without_allocating(self, sim_files, tmp_path, capsys):
        spec, _ = sim_files
        config = write_json(tmp_path, "huge.json", dict(SIM_CONFIG, num_messages=2**30))
        tracemalloc.start()
        try:
            code = main(["simulate", spec, config, "--out-dir", str(tmp_path / "huge")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "cap" in capsys.readouterr().err
        assert peak < 4 * 2**20
        assert not (tmp_path / "huge").exists()


# Recorded when the streams were keyed per sub-code (a declared stream change:
# a sub-code's words are one draw from the PCG64 stream keyed by
# SeedSequence(seed, spawn_key=(tag, k, 0)), and its pairs' trial streams are
# seeded by the state of one SeedSequence keyed (tag, k, M)); a new digest means
# the random streams moved again, which must be declared as a stream change.
PINNED_MC_CONFIG = {
    "n": 2000,
    "num_messages": 16,
    "num_keys": 2,
    "trials_per_pair": 25,
    "covertness_samples": 200,
    "expurgate_fraction": 0.125,
    "seed": 2021,
}
# the configs of the benchmark's simulate_dense and simulate_exact workloads
# (perfbench/run.py), at seed 1: speed work on the simulator must keep these bytes
BENCH_DENSE_CONFIG = {
    "n": 10_000,
    "num_messages": 64,
    "num_keys": 2,
    "trials_per_pair": 25,
    "covertness_samples": 500,
    "expurgate_fraction": 1 / 16,
    "seed": 1,
}
BENCH_EXACT_CONFIG = {
    "n": 20,
    "num_messages": 16,
    "num_keys": 4,
    "trials_per_pair": 4000,
    "covertness_samples": 2000,
    "expurgate_fraction": 1 / 4,
    "seed": 1,
}


@pytest.mark.parametrize(
    "spec, config, errors_sha, covertness_sha",
    [
        (
            EXAMPLE_SPEC,
            PINNED_MC_CONFIG,
            "7e85f769a1e90733f2b782f95b729888f4c77dcb94a0d241e678f3584b27e7a6",
            "619a4b8f8fde7d94fd71de9e147959f9d9edb4440d96814a4b3ae760b599e673",
        ),
        (
            SIM_SPEC,
            SIM_CONFIG,
            "46a128fd3cb56c8292170fa0f3599a1980a8b8254b33a086684a6748c3ab7e10",
            "a21064e653089f10e11560e068ce6a342f41086c0ca9dd2e2523378391bd0554",
        ),
        (
            EXAMPLE_SPEC,
            BENCH_DENSE_CONFIG,
            "fe802684732f2ac43214a525a3c151e67adff34a92bc5dff6cf155c230d6a82d",
            "6293c0c86fe48899b7911176a3aa0d4e2be5b6fa02822af175aaa712d7ddff65",
        ),
        (
            SIM_SPEC,
            BENCH_EXACT_CONFIG,
            "98a219700d8cce338b6107d4ea64ed636df54f6e68b858dbaf9aafd6cae9628e",
            "ba10176fd82238a5507d98e510bfd09f7489ad6d36cda3641ffbfb1c9e7a6b82",
        ),
    ],
    ids=["monte_carlo", "exact", "simulate_dense", "simulate_exact"],
)
def test_simulate_streams_are_pinned(tmp_path, capsys, spec, config, errors_sha, covertness_sha):
    spec_path = write_json(tmp_path, "spec.json", spec)
    config_path = write_json(tmp_path, "config.json", config)
    assert main(["simulate", spec_path, config_path, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (digest("errors.csv"), digest("covertness.csv")) == (errors_sha, covertness_sha)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random costs 9-17 ms of every command's start-up: only a simulation's
    # first generator loads it
    src = os.path.dirname(os.path.dirname(covertcap.__file__))
    code = "import sys, covertcap.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), timeout=60).returncode == 0


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["1e-6", "inf", "nan", "-1", "0"])
@pytest.mark.parametrize("argv", [["bounds"], ["sweep", "--steps", "2"]], ids=["bounds", "sweep"])
def test_bad_tol_exits_2_with_one_error_line(spec_file, capsys, argv, tol):
    # the converse stops at its own gap tolerance: --tol is a usage error at any value
    with pytest.raises(SystemExit) as exc:
        main([*argv, spec_file, f"--tol={tol}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert [line for line in err.splitlines() if "error:" in line] == [f"covertcap: error: unrecognized arguments: --tol={tol}"]
    assert out == ""


@pytest.mark.parametrize("command", ["capacity", "simulate"])
def test_tol_is_refused_where_no_converse_runs(tmp_path, capsys, command):
    argv = [command, write_json(tmp_path, "spec.json", SIM_SPEC)]
    if command == "simulate":
        argv += [write_json(tmp_path, "config.json", SIM_CONFIG), "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-6"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_capacity_refuses_seed(spec_file, capsys):
    # capacity draws nothing at random
    with pytest.raises(SystemExit) as exc:
        main(["capacity", spec_file, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bounds", "sweep", "simulate"])
def test_seed_must_fit_u64(spec_file, capsys, command):
    # refused before the command runs, so simulate's config is never read
    argv = [command, spec_file] + (["absent.json"] if command == "simulate" else [])
    assert main([*argv, "--seed", "-1"]) == 2
    assert main([*argv, "--seed", str(2**64)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --seed must fit in an unsigned 64-bit integer"] * 2


# options that no command reads yet: the benchmark harness passes them
PENDING = {
    ("bounds", "seed"),  # ROADMAP item 12
    ("sweep", "seed"),  # ROADMAP item 12
}


def test_every_option_is_read_by_its_command():
    """Each subcommand's ``cmd_*`` function reads ``args.<dest>`` of every option it takes."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = set()
    for name, parser in sub.choices.items():
        func = parser.get_default("func")
        read = {
            node.attr
            for node in ast.walk(ast.parse(inspect.getsource(func)))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        unread |= {
            (name, action.dest)
            for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction) and action.dest not in read
        }
    assert sorted(unread - PENDING) == [], "options no command reads"
    assert sorted(PENDING - unread) == [], "pending options now read or gone: drop them from PENDING"
