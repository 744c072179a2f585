"""End-to-end acceptance gate: ten numbered criteria, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each criterion states its tolerance and (where applicable) its wall
clock budget; golden literals are documented where they are defined.
"""

import json
import math
import time

import numpy as np
import pytest

from covertcap import (
    Bdmc,
    CovertInstance,
    DecodingMetric,
    PpmCodebook,
    PpmParams,
    ProbVector,
    binary_dichotomy,
    chunk_statistic_mean,
    covert_capacity,
    covertness_exact,
    covertness_mc,
    erasures_only_capacity,
    erasures_only_metric,
    estimate_error,
    f_s,
    generate_codebook,
    lower_bound,
    ppm_params,
    tilt_function,
    upper_bound,
    upper_bound_grid_oracle,
    validate_instance,
    weight_parameter,
)
from covertcap.cli import main as cli_main

from conftest import (
    WZ1,
    erasure_channel,
    example1,
    matched_instance,
    random_binary_instance,
    random_instance,
    random_warden,
)
from oracles import binary_f_derivative, sample_codeword

# C at the matched sweep point; every figure criterion is phrased around it
C_STAR = (2 / 7) * 0.4 * math.log(3)

# Golden margin for the u=0.5 mismatch gap.  The lattice oracle at resolution
# 1/24 puts the minimum divergence at 0.38190850097688744 nats, a rate gap of
# 0.01643897556867 below C_STAR; frozen with a haircut so optimizer noise at
# the 1e-8 duality-gap tolerance can never flip the comparison.
GOLDEN_MISMATCH_MARGIN = 0.0164


def announce(num: int, text: str, t0: float) -> None:
    print(f"criterion {num:2d} PASS: {text} ({time.monotonic() - t0:.1f}s)")


def test_criterion_01_figure_sweep():
    t0 = time.monotonic()
    grid = np.linspace(0.05, 10.0, 200)
    lowers = np.empty(200)
    uppers = np.empty(200)
    for i, u in enumerate(grid):
        inst = example1(float(u))
        lowers[i] = lower_bound(inst).value
        uppers[i] = upper_bound(inst).value

    # (a) ordering on every row
    assert np.all(lowers <= uppers + 1e-8)
    assert np.all(uppers <= C_STAR + 1e-8)

    # (b) the lower bound peaks at the grid point nearest u=3, at C_STAR
    peak = int(np.argmax(lowers))
    assert peak == int(np.argmin(np.abs(grid - 3.0)))
    assert abs(lowers[peak] - C_STAR) <= 1e-4

    # (c) at u=0.5 the upper bound sits below C_STAR by the golden margin
    u05 = upper_bound(example1(0.5)).value
    assert u05 < C_STAR - GOLDEN_MISMATCH_MARGIN

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    announce(1, "200-step metric sweep ordered, peaked at u=3, mismatch gap held", t0)


def test_criterion_02_binary_dichotomy():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 200:
        inst = random_binary_instance(rng)
        if not validate_instance(inst).ok:
            continue
        cap = binary_dichotomy(inst).capacity
        assert abs(lower_bound(inst).value - cap) <= 1e-6
        assert abs(upper_bound(inst).value - cap) <= 1e-6
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(2, "200 binary instances: both bounds equal the dichotomy to 1e-6", t0)


def test_criterion_03_erasures_only():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(100):
        ny = int(rng.integers(3, 6))
        wy = erasure_channel(rng, ny, n_dead=int(rng.integers(1, ny - 1)))
        wz = random_warden(rng)
        delta = float(rng.uniform(0.05, 0.3))
        values = {}
        for xi in (0.5, 0.01):
            inst = CovertInstance(wy=wy, wz=wz, q=erasures_only_metric(wy, xi), delta=delta)
            closed = erasures_only_capacity(inst)
            lb = lower_bound(inst).value
            ub = upper_bound(inst).value
            assert abs(lb - closed) <= 1e-6
            assert abs(ub - closed) <= 1e-6
            values[xi] = (lb, ub)
        assert abs(values[0.5][0] - values[0.01][0]) <= 1e-9
        assert abs(values[0.5][1] - values[0.01][1]) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(3, "100 erasure channels: bounds meet the closed form, xi-independent", t0)


def test_criterion_04_matched_sandwich():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    for _ in range(100):
        inst = matched_instance(rng)
        cap = covert_capacity(inst)
        res = lower_bound(inst)
        assert abs(res.value - cap) <= 1e-6
        assert abs(res.s_star - 1.0) <= 1e-4
        assert abs(upper_bound(inst).value - cap) <= 1e-6
    announce(4, "100 matched metrics: bounds pinch the capacity, s_star = 1", t0)


def test_criterion_05_converse_vs_lattice_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    for _ in range(50):
        inst = random_instance(rng)  # three output symbols
        kl = upper_bound(inst).kl_value
        oracle = upper_bound_grid_oracle(inst, 20)
        assert kl <= oracle + 1e-9
        assert oracle <= kl + 0.01
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    announce(5, "50 three-symbol instances: optimizer within lattice-oracle brackets", t0)


def test_criterion_06_concavity_and_derivative():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    for _ in range(200):
        inst = random_instance(rng, ny=int(rng.integers(2, 5)))
        tf = tilt_function(inst.q, inst.p0, inst.p1)
        s1 = float(rng.uniform(0.0, 10.0))
        s2 = s1 + float(rng.uniform(0.0, 10.0))
        mid = f_s(tf, 0.5 * (s1 + s2))
        assert mid >= 0.5 * (f_s(tf, s1) + f_s(tf, s2)) - 1e-10

    h = 1e-6
    for _ in range(50):
        inst = random_binary_instance(rng)
        tf = tilt_function(inst.q, inst.p0, inst.p1)
        s = float(rng.uniform(0.0, 5.0))
        lo = max(0.0, s - h)
        fd = (f_s(tf, s + h) - f_s(tf, lo)) / (s + h - lo)
        assert abs(binary_f_derivative(inst, s) - fd) <= 1e-6
    announce(6, "midpoint concavity at 1e-10 and binary derivative at 1e-6", t0)


def _exhaustive_error(inst, codebook, k, j):
    """Exact failure probability of pair (k, j) by full output enumeration.

    Decoding is re-implemented from the full product rule (every position,
    both metric rows) rather than the library's active-positions shortcut.
    The success mass is summed and the failure returned as its complement,
    floored at 0, so it lies in [0, 1]: summing the failure weights instead
    can round above 1 when every state fails.
    """
    wy = inst.wy.w
    logq = np.log(inst.q.q)
    words = codebook.codewords[k]
    x = words[j]
    n = codebook.params.n
    success = 0.0
    for state in range(inst.wy.num_outputs**n):
        y = np.empty(n, dtype=np.int64)
        s = state
        for i in range(n):
            y[i] = s % inst.wy.num_outputs
            s //= inst.wy.num_outputs
        weight = float(np.prod(wy[x, y]))
        scores = logq[words, y].sum(axis=1)
        top = scores.max()
        winners = np.flatnonzero(scores >= top - 1e-12)
        if winners.size == 1 and winners[0] == j:
            success += weight
    return max(0.0, 1.0 - success)


def micro_instance():
    """Criterion 7's binary instance: the warden sees the main channel."""
    return CovertInstance(
        wy=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
        wz=Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]])),
        q=DecodingMetric(np.array([[0.9, 0.1], [0.1, 0.9]])),
        delta=0.3,
    )


def test_exhaustive_error_of_a_certain_failure_is_one():
    # messages 0 and 1 share one word, so every output ties them and both fail
    # with probability exactly 1; summed failure weights gave 1.000000000000001
    inst = micro_instance()
    positions = [[[0, 4], [0, 4], [1, 5]]]
    book = PpmCodebook(PpmParams(8, 2), positions, np.arange(3)[None])
    assert _exhaustive_error(inst, book, 0, 0) == _exhaustive_error(inst, book, 0, 1) == 1.0
    assert 0.0 < _exhaustive_error(inst, book, 0, 2) < 1.0


def test_criterion_07_micro_scale_exactness():
    t0 = time.monotonic()
    inst = micro_instance()

    # n=8: Monte-Carlo error rates vs full enumeration of the 256 outputs
    book8 = generate_codebook(PpmParams(8, 2), num_messages=3, num_keys=2, seed=7001)
    trials = 2000
    report = estimate_error(inst, book8, trials_per_pair=trials, seed=7002)
    for k in range(2):
        for j in range(3):
            exact = _exhaustive_error(inst, book8, k, j)
            ci = 1.96 * math.sqrt(exact * (1.0 - exact) / trials)
            assert abs(report.p_hat[k, j] - exact) <= 3 * ci + 1e-12

    # n=6, binary adversary alphabet: sampled divergence vs exact enumeration
    book6 = generate_codebook(PpmParams(6, 2), num_messages=2, num_keys=2, seed=7003)
    exact = covertness_exact(book6, inst.wz)
    mc = covertness_mc(book6, inst.wz, samples=50_000, seed=7004)
    # 4 stderr, as every other Monte-Carlo-versus-exact check: 3 fails on about 0.3% of seeds
    assert abs(mc.kl_estimate - exact.kl_estimate) <= 4 * mc.stderr

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    announce(7, "micro-scale simulator agrees with exhaustive enumeration", t0)


def test_criterion_08_chunk_statistic_convergence():
    # the exact E[S_w] by types: its gap to f(1) halves from about 1.1e-2 to
    # 1.3e-3 over these w, with no sampling error to order it through
    t0 = time.monotonic()
    inst = example1(3.0)
    target = 0.4 * math.log(3)
    gaps = [abs(target - chunk_statistic_mean(inst.q, inst.p0, inst.p1, w, 1.0)) for w in (50, 100, 200, 400)]
    assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    assert gaps[-1] < 0.002
    announce(8, "chunk statistic mean converges onto f(1)", t0)


def test_criterion_09_codeword_structure():
    t0 = time.monotonic()
    params = ppm_params(10_000, 0.1, ProbVector(WZ1[0]), ProbVector(WZ1[1]))
    assert (params.l, params.w, params.r) == (25, 400, 0)

    rng = np.random.default_rng(9001)
    tail_start = params.l * params.w
    for _ in range(10_000):
        word = sample_codeword(params, rng)
        assert word.sum() == 25
        assert np.all(word[:tail_start].reshape(25, 400).sum(axis=1) == 1)
        assert word[tail_start:].sum() == 0

    book = generate_codebook(params, num_messages=5, num_keys=2, seed=9002)
    flat = book.codewords.reshape(-1, params.n)
    assert np.all(flat.sum(axis=1) == 25)
    assert np.all(flat[:, :tail_start].reshape(-1, 25, 400).sum(axis=2) == 1)
    announce(9, "10^4 sampled words all carry one pulse per 400-wide chunk", t0)


def test_criterion_10_simulation_determinism(tmp_path):
    t0 = time.monotonic()
    spec = {
        "wy": [[0.7, 0.3], [0.4, 0.6]],
        "wz": [[0.7, 0.3], [0.4, 0.6]],
        "q": [[0.9, 0.1], [0.1, 0.9]],
        "delta": 0.3,
    }
    config = {
        "n": 12,
        "num_messages": 4,
        "num_keys": 3,
        "trials_per_pair": 400,
        "covertness_samples": 500,
        "expurgate_fraction": 0.25,
        "seed": 1010,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    blobs = []
    for tag, workers in (("run1_w1", 1), ("run2_w1", 1), ("run3_w4", 4), ("run4_w4", 4)):
        out = tmp_path / tag
        code = cli_main(
            [
                "simulate",
                str(spec_path),
                str(config_path),
                "--out-dir",
                str(out),
                "--workers",
                str(workers),
            ]
        )
        assert code == 0
        blobs.append(
            ((out / "errors.csv").read_bytes(), (out / "covertness.csv").read_bytes())
        )
    assert all(b == blobs[0] for b in blobs[1:])
    announce(10, "simulation CSVs byte-identical across reruns and worker counts", t0)
