"""Benchmark of the covertcap command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figure --seed 1 --seconds 30 --trace 0

The benchmark imports ``covertcap`` from ``src/`` of the checkout and drives
``covertcap.cli.main(argv)`` in-process, one workload per process, in a closed
loop: the next CLI call starts when the previous one returns.  All inputs are
generated from ``--seed`` and handed to the program as JSON files.  Every
output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` passes alternate between untraced and traced, and the metrics
are the per-layer ones from the traced passes.  Calibration blocks of fixed
reference work run between the calls, and the end-to-end timings are scaled
to the reference machine speed they imply (see ``Calibration``).  A result
file with the run manifest goes to ``perfbench/results/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import (
    REFERENCE_LAYERS,
    check_bounds,
    check_simulate,
    check_sweep,
    reference_failures,
)
from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 5

# On the shared 2-vCPU Intel Xeon VM the benchmark was defined on, the host's
# speed drifted by 15-35% within minutes, and the workloads slowed with it.
# Each run therefore times a group of fixed reference blocks before every call
# and every set-up, and scales each call's or set-up's time by
# REFERENCE_BLOCK_S / (median block time of the groups just before and just
# after it).  The end-to-end timings thus read as seconds on a machine that
# runs the block in REFERENCE_BLOCK_S, a round figure near the medians measured
# on that VM.  The block runs no covertcap code, so a change to the program
# moves the workload's time and not the block's.
REFERENCE_BLOCK_S = 0.030
# extra blocks keep the block time at this share of the call time
CALIBRATION_SHARE = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_mid_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "lower_bound.f_evals": "count",
    "converse.unconverged": "count",
    "ppm.codebook_bytes": "bytes",
    "ppm.trials_per_s": "1/s",
    "ppm.mc_samples_per_s": "1/s",
    "ppm.states_per_s": "1/s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "machine.block_ms": "ms",
}

# ---------------------------------------------------------------- inputs

# the paper's worked example; q(0, 0) = u is the swept metric entry
WY1 = [[0.6, 0.2, 0.2], [0.2, 0.2, 0.6]]
WZ1 = [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]]
# binary everywhere, so the adversary's output states can be enumerated
BINARY_SPEC = {"wy": [[0.7, 0.3], [0.4, 0.6]], "wz": [[0.7, 0.3], [0.4, 0.6]], "q": [[0.9, 0.1], [0.1, 0.9]], "delta": 0.3}

# bounds_wide runs one fixed panel drawn from this seed: per-instance times
# span two orders of magnitude, so a panel redrawn per run seed would make
# wall_s vary far more than any regression bound.  The run seed sets the order.
PANEL_SEED = 2021
PANEL_SIZES = (8, 12, 16)
PANEL_PER_SIZE = 8

# a quarter of the trials and samples of a 12 s call, so that a run holds
# several passes; covertness still draws one full 419-sample block, so the
# peak memory and each layer's share of the time stay as at the full size
DENSE_CONFIG = {"n": 10_000, "num_messages": 64, "num_keys": 2, "trials_per_pair": 25,
                "covertness_samples": 500, "expurgate_fraction": 1 / 16}
EXACT_CONFIG = {"n": 20, "num_messages": 16, "num_keys": 4, "trials_per_pair": 4000,
                "covertness_samples": 2000, "expurgate_fraction": 1 / 4}
# tiny sizes: the warm-up call of every setup, and the smoke tests
DENSE_TINY = {"n": 1000, "num_messages": 8, "num_keys": 2, "trials_per_pair": 10,
              "covertness_samples": 200, "expurgate_fraction": 1 / 8}
EXACT_TINY = {"n": 12, "num_messages": 4, "num_keys": 2, "trials_per_pair": 100,
              "covertness_samples": 200, "expurgate_fraction": 1 / 4}


def example1_spec(u: float) -> dict:
    return {"wy": WY1, "wz": WZ1, "q": [[u, 1.0, 1.0], [1.0, 1.0, 3.0]], "delta": 0.1}


def random_instance_spec(rng, ny: int, floor: float) -> dict:
    """The ``tests/conftest.random_instance`` recipe (3 adversary outputs), as a channel-spec dict."""

    def floored_simplex(size):
        return (1.0 - size * floor) * rng.dirichlet(np.ones(size)) + floor

    wy = np.stack([floored_simplex(ny), floored_simplex(ny)])
    while True:
        wz = np.stack([floored_simplex(3), floored_simplex(3)])
        if np.max(np.abs(wz[0] - wz[1])) > 0.01:
            break
    q = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=(2, ny)))
    delta = float(rng.uniform(0.05, 0.3))
    return {"wy": wy.tolist(), "wz": wz.tolist(), "q": q.tolist(), "delta": delta}


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


@dataclass
class Call:
    """One CLI call of a pass: ``check(stdout)`` gives per-item flags and the sha256 of files written."""

    key: str
    argv: list[str]
    items: int
    check: Callable[[str], tuple[list[bool], dict]]


def build_figure(work: str, seed: int, tiny: bool, ref: dict | None) -> list[Call]:
    """The paper's figure: the 200-row sweep of q(0, 0), then the u = 0.5 lattice check."""
    ex3 = _write_json(os.path.join(work, "example1_u3.json"), example1_spec(3.0))
    ex05 = _write_json(os.path.join(work, "example1_u05.json"), example1_spec(0.5))
    rows = 5 if tiny else 200
    sweep_range = ["--from", "1", "--to", "5", "--steps", "5"] if tiny else []
    sweep_ref = ref and ref["sweep"]
    bounds_ref = ref and ref["bounds_u05"]
    return [
        Call("sweep", ["sweep", ex3, "--seed", str(seed), *sweep_range], rows,
             lambda out: (check_sweep(out, rows, sweep_ref), {})),
        Call("bounds_u05", ["bounds", ex05, "--grid-check", "6" if tiny else "24", "--seed", str(seed)], 1,
             lambda out: (check_bounds(out, bounds_ref, figure=True), {})),
    ]


def build_bounds_wide(work: str, seed: int, tiny: bool, ref: dict | None) -> list[Call]:
    """One ``bounds`` call per panel instance at 8, 12 and 16 outputs, in seeded order."""
    sizes, per_size = ((4,), 2) if tiny else (PANEL_SIZES, PANEL_PER_SIZE)
    calls = []
    for ny in sizes:
        for i in range(per_size):
            key = f"ny{ny:02d}/i{i}"
            spec = random_instance_spec(np.random.default_rng([PANEL_SEED, ny, i]), ny, floor=0.5 / ny)
            path = _write_json(os.path.join(work, f"ny{ny:02d}_i{i}.json"), spec)
            item_ref = ref and ref[key]
            calls.append(Call(key, ["bounds", path, "--seed", str(seed)], 1,
                              lambda out, r=item_ref: (check_bounds(out, r), {})))
    order = np.random.default_rng(seed).permutation(len(calls))
    return [calls[i] for i in order]


def simulate_builder(spec: dict, config: dict, tiny_config: dict, method: str):
    def build(work: str, seed: int, tiny: bool, ref: dict | None) -> list[Call]:
        cfg = dict(tiny_config if tiny else config, seed=seed)
        spec_path = _write_json(os.path.join(work, "spec.json"), spec)
        cfg_path = _write_json(os.path.join(work, "sim.json"), cfg)
        out_dir = os.path.join(work, "out")
        keep = cfg["num_messages"] - math.ceil(cfg["expurgate_fraction"] * cfg["num_messages"])
        rows = cfg["num_keys"] * keep

        def check(stdout: str) -> tuple[list[bool], dict]:
            flags, digests = check_simulate(out_dir, rows, method)
            # a later call that writes nothing must not pass on these files
            shutil.rmtree(out_dir, ignore_errors=True)
            return flags, digests

        argv = ["simulate", spec_path, cfg_path, "--out-dir", out_dir, "--workers", "1", "--seed", str(seed)]
        return [Call("simulate", argv, 1, check)]

    return build


WORKLOADS = {
    "figure": build_figure,
    "bounds_wide": build_bounds_wide,
    "simulate_dense": simulate_builder(example1_spec(3.0), DENSE_CONFIG, DENSE_TINY, "MONTE_CARLO"),
    "simulate_exact": simulate_builder(BINARY_SPEC, EXACT_CONFIG, EXACT_TINY, "EXACT"),
}

# ---------------------------------------------------------------- running


def load_covertcap():
    """Import covertcap from the checkout's ``src/``; returns (cli, lower_bound module)."""
    if not os.path.isfile(os.path.join(SRC, "covertcap", "__init__.py")):
        raise ImportError(f"no covertcap package under {SRC}")
    sys.path.insert(0, SRC)
    cli = importlib.import_module("covertcap.cli")
    # the package re-exports the function lower_bound, which hides the module
    lb_module = importlib.import_module("covertcap.lower_bound")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"covertcap was imported from {cli.__file__}, not {SRC}")
    return cli, lb_module


def time_fresh_import() -> float:
    """Seconds for a new interpreter to start and import ``covertcap.cli``, as each CLI invocation does."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import covertcap.cli"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


class Calibration:
    """A fixed reference block of work, timed between the workload's calls.

    A block is 48 passes of ``exp`` over a 4 MB array into a second one, the
    kind of vectorised numpy work covertcap spends its time in.  Both arrays
    live as long as the run: made afresh, their page faults would time the
    allocator's state, which the workload's own frees change.  Blocks of
    interpreter loops and of numpy calls on small arrays were tried as well;
    their times swung twice as far as the workloads' between runs, so they
    over-corrected.  ``work`` is the call time measured so far.
    """

    def __init__(self):
        self._large = np.linspace(0.0, 1.0, 1 << 19)
        self._out = np.empty_like(self._large)
        self.blocks: list[float] = []
        self.groups: list[int] = []
        self.work = 0.0

    def block(self) -> None:
        start = time.perf_counter()
        for _ in range(48):
            np.exp(self._large, out=self._out)
        self.blocks.append(time.perf_counter() - start)

    def keep_up(self) -> int:
        """A group of one block, and more while blocks take under CALIBRATION_SHARE of the call time.

        Returns the group's number, which a timing made next gets.
        """
        self.groups.append(len(self.blocks))
        self.block()
        while sum(self.blocks) < CALIBRATION_SHARE * self.work:
            self.block()
        return len(self.groups) - 1

    def scale(self, group: int) -> float:
        """Factor to reference speed for a timing made between group ``group`` and the next one."""
        ends = self.groups + [len(self.blocks)]
        return REFERENCE_BLOCK_S / statistics.median(self.blocks[ends[group]:ends[group + 2]])


@dataclass
class Pass:
    wall: float = 0.0
    call_seconds: list[float] = field(default_factory=list)
    call_groups: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)


@dataclass
class Tally:
    """Work counted from the return values seen by a tracer."""

    unconverged: int = 0
    trials: int = 0
    mc_samples: int = 0
    states: int = 0
    codebook_bytes: int = 0

    def add(self, results) -> None:
        for layer, result, kwargs in results:
            if layer == "converse.upper_bound":
                self.unconverged += result.fw_gap >= kwargs.get("tol", 1e-8)
            elif layer == "ppm.estimate_error":
                self.trials += int(result.errors.size) * int(result.trials_per_pair)
            elif layer == "ppm.covertness_mc":
                self.mc_samples += int(result.samples)
            elif layer == "ppm.covertness_exact":
                self.states += int(result.samples)
            elif layer == "ppm.codebook":
                # computed from array sizes, whatever arrays the codebook holds
                nbytes = sum(v.nbytes for v in vars(result).values() if hasattr(v, "nbytes"))
                self.codebook_bytes = max(self.codebook_bytes, nbytes)


def captured_values(results) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for layer, result, _ in results:
        if layer in REFERENCE_LAYERS:
            values.setdefault(layer, []).append(float(getattr(result, "value", result)))
    return values


def run_call(cli, call: Call, tracer: Tracer | None = None) -> tuple[float, list[bool], dict, str]:
    """Time one ``main(argv)``; returns seconds, item flags, file digests and a failure note."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tracer.span("cli", cli.main, call.argv) if tracer else cli.main(call.argv)
        except (Exception, SystemExit):
            code, err = -1, io.StringIO(traceback.format_exc())
        seconds = time.perf_counter() - start
    if code != 0:
        return seconds, [False] * call.items, {}, f"{call.key}: exit {code}: {err.getvalue()[-500:]}"
    flags, digests = call.check(out.getvalue())
    note = "" if all(flags) else f"{call.key}: failed output check on {flags.count(False)} item(s)"
    return seconds, flags, digests, note


def run_pass(cli, calls: list[Call], tracer: Tracer | None = None, ref: dict | None = None,
             tally: Tally | None = None, calibration: Calibration | None = None) -> Pass:
    """Every call once, in order; with a calibration, its blocks run before each call.

    A traced pass also checks full-precision values against ``ref``.
    """
    p = Pass()
    for call in calls:
        if calibration:
            p.call_groups.append(calibration.keep_up())
        if tracer:
            tracer.results.clear()
        seconds, flags, digests, note = run_call(cli, call, tracer)
        if calibration:
            calibration.work += seconds
        if tracer:
            if ref is not None and call.key in ref:
                for i in reference_failures(captured_values(tracer.results), ref[call.key]):
                    flags[i] = False
                    note = note or f"{call.key}: differs from the reference by more than 1e-10"
            if tally is not None:
                tally.add(tracer.results)
        p.wall += seconds
        p.call_seconds.append(seconds)
        p.attempted += call.items
        p.failed += flags.count(False)
        if digests:
            p.digests[call.key] = digests
        if note:
            p.failures.append(note)
    return p


def midmean(values: list[float]) -> float:
    """Mean of the middle half of the values (of all of them when there are three or fewer).

    The median of the heterogeneous bounds_wide calls rests on two calls and
    moved 16-34% between runs; the mean of the twelve calls between the
    quartiles moves with the machine, not with one call.
    """
    s = sorted(values)
    k = len(s) // 4
    return statistics.fmean(s[k:len(s) - k])


def tail(values: list[float]) -> float:
    """Mean of the ten largest values, or of all of them when there are ten or fewer.

    These are the samples beyond the highest percentile that has ten samples
    beyond it.  Their mean, unlike the single order statistic at that
    percentile, does not follow the noise of one call from run to run.
    """
    return statistics.fmean(sorted(values)[-10:])


def _num(x: float):
    return int(x) if float(x).is_integer() else x


def machine_manifest() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count when it is loaded, else what the environment requests."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return None


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    cli, lb_module = load_covertcap()
    ref = None
    if not tiny and name in ("figure", "bounds_wide"):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            ref = json.load(fh)[name]
    work = os.path.join(RESULTS, f"work-{name}-{os.getpid()}")
    build = WORKLOADS[name]
    try:
        calibration = Calibration()
        setups, setup_groups, warmups = [], [], []
        for _ in range(SETUP_REPEATS):
            setup_groups.append(calibration.keep_up())
            start = time.perf_counter()
            time_fresh_import()
            shutil.rmtree(work, ignore_errors=True)
            for sub in ("measured", "warmup"):
                os.makedirs(os.path.join(work, sub))
            calls = build(os.path.join(work, "measured"), seed, tiny, ref)
            warmups.append(run_pass(cli, build(os.path.join(work, "warmup"), seed, True, None)))
            setups.append(time.perf_counter() - start)
        # the first full-size call faults in the large arrays the allocator
        # reuses afterwards; it runs once, untimed, before the measured passes
        warmups.append(run_pass(cli, calls[:1], calibration=calibration))

        tracer = Tracer(cli, lb_module) if trace else None
        tally = Tally()
        plain: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        while True:
            if tracer is not None and len(traced) < len(plain):
                with tracer:
                    traced.append(run_pass(cli, calls, tracer, ref, tally, calibration))
            else:
                plain.append(run_pass(cli, calls, calibration=calibration))
            typical = (1.0 + CALIBRATION_SHARE) * statistics.median(p.wall for p in plain + traced)
            if time.perf_counter() - start + typical > seconds and (tracer is None or traced):
                break
        calibration.keep_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = warmups + plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests: dict[str, dict[str, str]] = {}
    for p in plain + traced:  # simulate outputs must be byte-identical on every pass
        for key, d in p.digests.items():
            if digests.setdefault(key, d) != d:
                failed += 1
                p.failures.append(f"{key}: CSV digests differ between passes")

    def timings(setup_seconds: list[float], call_seconds: list[list[float]]) -> dict[str, float]:
        # one latency per call of the pass: its median over the untraced passes
        items = [statistics.median(c) for c in zip(*call_seconds)]
        return {
            "setup_s": statistics.median(setup_seconds),
            "wall_s": statistics.median(sum(c) for c in call_seconds),
            "item_mid_ms": 1000.0 * midmean(items),
            "item_tail_ms": 1000.0 * tail(items),
            "item_p50_ms": 1000.0 * statistics.median(items),
        }

    scaled_calls = [[t * calibration.scale(i) for t, i in zip(p.call_seconds, p.call_groups)] for p in plain]
    raw = timings(setups, [p.call_seconds for p in plain])
    scaled = timings([t * calibration.scale(i) for t, i in zip(setups, setup_groups)], scaled_calls)
    if tracer is None:
        metrics = dict(scaled)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    else:
        metrics = layer_metrics(tracer, tally, plain, len(traced))
        metrics["machine.block_ms"] = 1000.0 * statistics.median(calibration.blocks)
        units = PER_LAYER_UNITS
    return {
        "manifest": {**machine_manifest(), "workload": name, "seed": seed, "seconds": seconds,
                     "trace": int(trace), "workers": 1, "tiny": tiny},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": _num(metrics[k]), "unit": u} for k, u in units.items()},
        },
        "failed_frac": failed / attempted,
        "unscaled": raw,
        "calibration": {"blocks": len(calibration.blocks),
                        "block_median_s": statistics.median(calibration.blocks),
                        "block_s": calibration.blocks, "groups": calibration.groups,
                        "call_groups": [p.call_groups for p in plain]},
        "item_samples": len(calls),
        "item_p50_ms": scaled["item_p50_ms"],
        "item_seconds": {c.key: statistics.median(t) for c, t in zip(calls, zip(*scaled_calls))},
        "passes": {"untraced": [p.wall for p in plain], "traced": [p.wall for p in traced]},
        "sha256": digests,
        "failures": [note for p in passes for note in p.failures][:20],
        "spans": tracer.spans if tracer else [],
    }


def layer_metrics(tracer: Tracer, tally: Tally, plain: list[Pass], n: int) -> dict[str, float]:
    """Per-layer figures per traced pass; layer self times plus cli.self_s sum to trace.wall_s."""
    self_s, calls = tracer.self_times()
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
        metrics[f"{layer}.calls"] = calls.get(layer, 0) / n

    def rate(work: int, layer: str) -> float:
        return work / self_s[layer] if self_s.get(layer, 0.0) > 0.0 else 0.0

    traced_wall = sum(end - start for name, start, end, _ in tracer.spans if name == "cli") / n
    metrics.update({
        "lower_bound.f_evals": tracer.f_evals / n,
        "converse.unconverged": tally.unconverged / n,
        "ppm.codebook_bytes": tally.codebook_bytes,
        "ppm.trials_per_s": rate(tally.trials, "ppm.estimate_error"),
        "ppm.mc_samples_per_s": rate(tally.mc_samples, "ppm.covertness_mc"),
        "ppm.states_per_s": rate(tally.states, "ppm.covertness_exact"),
        "cli.self_s": self_s.get("cli", 0.0) / n,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.fmean(p.wall for p in plain),
    })
    return metrics


def write_result(record: dict) -> str:
    m = record["manifest"]
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{m['workload']}-seed{m['seed']}-trace{m['trace']}")
    spans = record.pop("spans")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
    return stem + ".json"


def print_report(record: dict, path: str) -> None:
    """Human-readable lines, then the result as one JSON object on the last line."""
    result = record["result"]
    print("manifest: " + json.dumps(record["manifest"], sort_keys=True))
    for key, digest in sorted(record["sha256"].items()):
        print(f"sha256 {key}: {json.dumps(digest, sort_keys=True)}")
    for note in record["failures"]:
        print(f"failure: {note}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"failed_frac = {record['failed_frac']} ratio ({result['failed']} of {result['attempted']} items)")
    n = record["item_samples"]
    print(f"item_p50_ms = {record['item_p50_ms']} ms (median call; {n} calls per pass; "
          f"item_mid_ms is the mean of the middle {n - 2 * (n // 4)}, item_tail_ms of the slowest {min(n, 10)})")
    cal = record["calibration"]
    print(f"calibration: reference block {REFERENCE_BLOCK_S} s, median block {cal['block_median_s']} s "
          f"over {cal['blocks']} blocks; end-to-end timings unscaled: {json.dumps(record['unscaled'])}")
    print(f"result file: {os.path.relpath(path)}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(record, write_result(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
