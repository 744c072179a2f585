"""Command-line behavior: output shapes, exit codes, and file side effects.

Every test drives ``main(argv)`` in-process; nothing shells out.  Exit-code
contract: 0 success, 1 parse/IO, 2 validation/domain, 3 resource limits.
"""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from covertcap import upper_bound_grid_oracle, weight_parameter
from covertcap.cli import main

from conftest import example1, random_instance

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

    def test_seed_must_fit_u64(self, spec_file, capsys):
        assert main(["capacity", spec_file, "--seed", "-1"]) == 2
        assert main(["capacity", spec_file, "--seed", str(2**64)]) == 2
        assert "64-bit" in capsys.readouterr().err


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

    def test_low_cap_falls_back_to_monte_carlo(self, sim_files, tmp_path, capsys):
        spec, config = sim_files
        out_dir = tmp_path / "mc"
        assert main(
            ["simulate", spec, config, "--out-dir", str(out_dir), "--covertness-cap", "100"]
        ) == 0
        capsys.readouterr()
        method, estimate, stderr, samples = (
            (out_dir / "covertness.csv").read_text().splitlines()[1].split(",")
        )
        assert method == "MONTE_CARLO"
        assert float(stderr) > 0.0
        assert int(samples) == 200

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


# Recorded when uniforms began to be drawn only at pulse columns (a declared
# stream change); a new digest means the random streams moved again, which
# must be declared as a stream change.
PINNED_MC_CONFIG = {
    "n": 2000,
    "num_messages": 16,
    "num_keys": 2,
    "trials_per_pair": 25,
    "covertness_samples": 200,
    "expurgate_fraction": 0.125,
    "seed": 2021,
}


@pytest.mark.parametrize(
    "spec, config, errors_sha, covertness_sha",
    [
        (
            EXAMPLE_SPEC,
            PINNED_MC_CONFIG,
            "969f34663f293c6b20a79f42484552967c30a614cf1792102f0873ad20ed11e1",
            "852a58993261a3aab03d8492c67ad3ab332b208e18bde40cebf4b9b28de45012",
        ),
        (
            SIM_SPEC,
            SIM_CONFIG,
            "7a7b7c322e20afc182fb6f488fcdee42e17acadf2dca282d4bc3f1e25ca507d7",
            "5260b34d6bf44500c0b75d305d2d825812a8e282d8de8f250235a8483ee40d55",
        ),
    ],
    ids=["monte_carlo", "exact"],
)
def test_simulate_streams_are_pinned(tmp_path, capsys, spec, config, errors_sha, covertness_sha):
    spec_path = write_json(tmp_path, "spec.json", spec)
    config_path = write_json(tmp_path, "config.json", config)
    assert main(["simulate", spec_path, config_path, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (digest("errors.csv"), digest("covertness.csv")) == (errors_sha, covertness_sha)


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["bounds"], ["sweep", "--steps", "2"]], ids=["bounds", "sweep"])
def test_tol_is_accepted_where_the_converse_runs(spec_file, capsys, argv):
    assert main([*argv, spec_file, "--tol", "1e-6"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["capacity", "simulate"])
def test_tol_is_refused_where_no_converse_runs(tmp_path, capsys, command):
    argv = [command, write_json(tmp_path, "spec.json", SIM_SPEC)]
    if command == "simulate":
        argv += [write_json(tmp_path, "config.json", SIM_CONFIG), "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-6"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
