"""Smoke tests of the benchmark: every workload at a tiny size, and its output checks.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

import json
import os

import pytest

import run
from checks import REFERENCE_TOL, check_bounds, reference_failures

with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_manifest_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    record = run.run_benchmark(workload, seed=7, seconds=0.2, trace=bool(trace), tiny=True)
    run.print_report(record, "result.json")
    lines = capsys.readouterr().out.strip().splitlines()

    result = json.loads(lines[-1])
    assert result == record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines), name
    assert any(ln.startswith("failed_frac = 0.0 ratio") for ln in lines)
    manifest = json.loads(next(ln for ln in lines if ln.startswith("manifest: "))[len("manifest: "):])
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads", "seed", "workers"):
        assert key in manifest

    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert accounted == pytest.approx(values["trace.wall_s"], rel=1e-9, abs=1e-12)
        assert values["core.load_spec.calls"] >= 1


def _swap_lower_upper(text: str) -> str:
    rows = [ln.split(",") for ln in text.strip().splitlines()]
    header = rows[0]
    lo, up = header.index("lower"), header.index("upper")
    for row in rows[1:]:
        row[lo], row[up] = row[up], row[lo]
    return "\n".join(",".join(r) for r in rows) + "\n"


def test_swapped_bounds_columns_are_counted_as_failed(tmp_path):
    cli, _ = run.load_covertcap()
    calls = run.build_figure(str(tmp_path), 0, True, None)
    assert run.run_pass(cli, calls).failed == 0
    for call in calls:
        call.check = lambda out, check=call.check: check(_swap_lower_upper(out))
    corrupted = run.run_pass(cli, calls)
    # at u = 0.5 the lower bound is far below the upper one
    assert 1 <= corrupted.failed <= corrupted.attempted
    assert any(note.startswith("bounds_u05") for note in corrupted.failures)


def test_figure_margin_and_oracle_checks():
    row = "lower,upper,covert_capacity,s_star,fw_gap,oracle_value\n{},{},0.12555569,1,0,{}\n"
    assert check_bounds(row.format(0.0342804143, 0.109116715, 0.109116716), None, figure=True) == [True]
    # oracle below the converse value by more than 1e-9
    assert check_bounds(row.format(0.0342804143, 0.109116715, 0.1091167), None, figure=True) == [False]
    # the mismatch gap closed: upper within the golden margin of C*
    assert check_bounds(row.format(0.0342804143, 0.12, 0.12), None, figure=True) == [False]


def test_reference_mismatch_fails_only_that_item():
    ref = {"lower_bound.lower_bound": [0.1, 0.2], "converse.upper_bound": [0.3, 0.4]}
    captured = {"lower_bound.lower_bound": [0.1, 0.2], "converse.upper_bound": [0.3, 0.4 + 3 * REFERENCE_TOL]}
    assert reference_failures(captured, ref) == {1}
    assert reference_failures({"lower_bound.lower_bound": [0.1]}, ref) == {0, 1}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "figure", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_calibration_scales_by_the_groups_around_a_timing():
    cal = run.Calibration()
    cal.blocks = [0.9, 0.06, 0.06, 0.02, 0.015, 0.9]
    cal.groups = [0, 1, 3, 5]
    # group 1 and the group after it hold 0.06, 0.06, 0.02 and 0.015
    assert cal.scale(1) == pytest.approx(run.REFERENCE_BLOCK_S / 0.04)
    # the last group runs to the end of the blocks
    assert cal.scale(2) == pytest.approx(run.REFERENCE_BLOCK_S / 0.02)
    assert cal.keep_up() == 4 and len(cal.blocks) == 7
