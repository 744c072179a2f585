"""Command-line front end: capacities, bounds, metric sweeps, and simulations.

Four subcommands share one channel-spec JSON format (see core):

  capacity  print the weight parameter, the covert capacity, and validation
  bounds    one CSV row with the lower/upper bounds around the capacity
  sweep     CSV table of both bounds while one metric entry varies
  simulate  run a seeded end-to-end code simulation, writing CSV reports

Every rate is printed in nats per sqrt(n) with 9 significant digits; CSV uses
decimal points and LF line endings regardless of locale.  Exit codes: 0 on
success, 1 on parse errors, 2 on validation/domain errors, 3 on resource
limits, solver caps among them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .closed_forms import covert_capacity
from .converse import upper_bound, upper_bound_grid_oracle
from .core import (
    ChannelSpecError,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    ResourceLimitError,
    ValidationError,
    _read_json_object,
    load_channel_spec,
    require_valid,
    validate_instance,
    weight_parameter,
)
from .lower_bound import lower_bound
from .ppm import (
    MAX_EXACT_STATES,
    _check_samples,
    _states_exceed,
    covertness_exact,
    covertness_mc,
    estimate_error,
    expurgate,
    generate_codebook,
    ppm_params,
)

# most rows a sweep takes: about 3 minutes at the figure's pace; a larger --steps is
# refused with exit 3 before its values are built
MAX_SWEEP_STEPS = 10**6


def _fmt(x: float) -> str:
    """Locale-independent 9-significant-digit rendering."""
    return format(float(x), ".9g")


def cmd_capacity(args: argparse.Namespace) -> int:
    inst = load_channel_spec(args.spec_file)
    report = validate_instance(inst)
    marks = {True: "pass", False: "FAIL"}
    if report.ok:
        print(f"t_delta = {_fmt(weight_parameter(inst.delta, inst.q0, inst.q1).t)}")
        print(f"covert_capacity = {_fmt(covert_capacity(inst))} nats/sqrt(n)")
    print(f"A1 adversary laws differ: {marks[report.a1_warden_laws_differ]}")
    print(f"A2 Q1 dominated by Q0:    {marks[report.a2_q1_dominated_by_q0]}")
    print(f"A3 P1 dominated by P0:    {marks[report.a3_p1_dominated_by_p0]}")
    print(f"metric strictly positive: {marks[report.metric_positive]}")
    if not report.ok:
        for line in report.failures:
            print(f"failure: {line}", file=sys.stderr)
        return 2
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    inst = load_channel_spec(args.spec_file)
    lb = lower_bound(inst)
    ub = upper_bound(inst, tol=args.tol)
    cap = covert_capacity(inst)
    header = "lower,upper,covert_capacity,s_star,fw_gap"
    row = [_fmt(lb.value), _fmt(ub.value), _fmt(cap), _fmt(lb.s_star), _fmt(ub.fw_gap)]
    if args.grid_check is not None:
        oracle = upper_bound_grid_oracle(inst, args.grid_check)
        header += ",oracle_value"
        row.append(_fmt(ub.t_delta * oracle))
    print(header)
    print(",".join(row))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    inst = load_channel_spec(args.spec_file)
    try:
        x_str, y_str = args.cell.split(",")
        cell = (int(x_str), int(y_str))
    except ValueError:
        raise DomainError(f"--cell expects 'x,y' with integers, got {args.cell!r}") from None
    if args.steps < 1:
        raise DomainError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > MAX_SWEEP_STEPS:
        raise ResourceLimitError(f"--steps {args.steps} is above the cap of {MAX_SWEEP_STEPS} rows")
    x, y = cell
    if not (0 <= x < 2 and 0 <= y < inst.q.num_outputs):
        raise DimensionError(f"cell {cell} is outside the metric's shape")
    for name, end in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(end):
            raise DomainError(f"{name} must be finite, got {end!r}")
    values = [float(u) for u in np.linspace(args.start, args.stop, args.steps)]
    for i, u in enumerate(values):
        if not (u > 0.0 and math.isfinite(u)):
            raise DomainError(f"swept value {u!r} at step {i} is not strictly positive")

    cap = covert_capacity(inst)  # metric-independent, same on every row
    for i, u in enumerate(values):
        q = np.array(inst.q.q)
        q[cell] = u
        inst_u = CovertInstance(wy=inst.wy, wz=inst.wz, q=DecodingMetric(q), delta=inst.delta)
        lb = lower_bound(inst_u)
        ub = upper_bound(inst_u, tol=args.tol)
        if i == 0:  # after row 0's checks, so a refused spec or --tol prints nothing
            print("u,lower,upper,covert_capacity")
        print(f"{_fmt(u)},{_fmt(lb.value)},{_fmt(ub.value)},{_fmt(cap)}")
    return 0


def _require_key(config: dict, key: str, kind):
    if key not in config:
        raise ChannelSpecError(f"simulation config is missing {key!r}")
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ChannelSpecError(f"simulation config {key!r} must be {kind.__name__}, got {value!r}")
    if value <= 0:
        raise ChannelSpecError(f"simulation config {key!r} must be positive, got {value!r}")
    return value


def _write_csv(path: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise DomainError(f"--workers must be at least 1, got {args.workers}")
    inst = load_channel_spec(args.spec_file)
    require_valid(inst)
    config = _read_json_object(args.sim_config, "simulation config")

    n = _require_key(config, "n", int)
    num_messages = _require_key(config, "num_messages", int)
    num_keys = _require_key(config, "num_keys", int)
    trials = _require_key(config, "trials_per_pair", int)
    cov_samples = _require_key(config, "covertness_samples", int)
    fraction = config.get("expurgate_fraction", 0.0)
    if isinstance(fraction, bool) or not isinstance(fraction, (int, float)) or not 0.0 <= fraction < 1.0:
        raise ChannelSpecError(f"'expurgate_fraction' must be a number in [0, 1), got {fraction!r}")
    seed = config.get("seed", args.seed)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ChannelSpecError(f"'seed' must be an integer in [0, 2^64), got {seed!r}")

    params = ppm_params(n, inst.delta, inst.q0, inst.q1)
    exact = not _states_exceed(inst.wz.num_outputs, params.n, MAX_EXACT_STATES)
    if not exact:
        _check_samples(cov_samples)  # before the book is built and the decode trials run
    book = generate_codebook(params, num_messages, num_keys, seed)
    report = estimate_error(inst, book, trials, seed, workers=args.workers)
    if fraction > 0.0:
        book = expurgate(report, book, fraction)
        report = estimate_error(inst, book, trials, seed, workers=args.workers)

    if exact:
        cov = covertness_exact(book, inst.wz)
    else:
        cov = covertness_mc(book, inst.wz, cov_samples, seed)

    os.makedirs(args.out_dir, exist_ok=True)
    err_rows = []
    for k in range(book.num_keys):
        for j in range(book.num_messages):
            err_rows.append(
                f"{k},{int(book.message_ids[k, j])},{report.trials_per_pair},"
                f"{int(report.errors[k, j])},{_fmt(report.p_hat[k, j])},{_fmt(report.ci95[k, j])}"
            )
    errors_path = os.path.join(args.out_dir, "errors.csv")
    _write_csv(errors_path, "key,message,trials,errors,p_hat,ci95", err_rows)

    stderr_text = "" if cov.stderr is None else _fmt(cov.stderr)
    cov_path = os.path.join(args.out_dir, "covertness.csv")
    _write_csv(
        cov_path,
        "method,estimate,stderr,samples",
        [f"{cov.method},{_fmt(cov.kl_estimate)},{stderr_text},{cov.samples}"],
    )

    print(f"schedule: n={params.n} l={params.l} w={params.w} r={params.r}")
    print(f"max error: {_fmt(report.max_overall)} (ci95 {_fmt(report.ci95_halfwidth)})")
    print(f"covertness [{cov.method}]: {_fmt(cov.kl_estimate)} nats over {cov.samples} samples")
    spread = 2.0 * (cov.stderr or 0.0)  # 0 for an exact figure
    verdict = "within" if cov.kl_estimate + spread <= inst.delta else "over" if cov.kl_estimate - spread > inst.delta else "undecided"
    print(f"covertness vs delta = {_fmt(inst.delta)}: {verdict} (estimate +- 2 stderr)")
    print(f"wrote {errors_path}")
    print(f"wrote {cov_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, metavar="U64",
        help="master seed for all randomized work (default 0)",
    )
    converse = argparse.ArgumentParser(add_help=False)
    converse.add_argument(
        "--tol", type=float, default=1e-8, metavar="FLOAT",
        help="duality-gap tolerance of the upper-bound optimizer (default 1e-8)",
    )

    parser = argparse.ArgumentParser(
        prog="covertcap",
        description="Covert-communication rate bounds and simulations for a fixed decoding metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", parents=[common], help="print t_delta, covert capacity, and validation")
    p.add_argument("spec_file", help="channel-spec JSON file")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("bounds", parents=[common, converse], help="print a CSV row with lower/upper bounds")
    p.add_argument("spec_file", help="channel-spec JSON file")
    p.add_argument(
        "--grid-check", type=int, default=None, metavar="G",
        help="also run the lattice oracle at resolution 1/G and append its rate",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", parents=[common, converse], help="CSV table of bounds as one metric entry varies")
    p.add_argument("spec_file", help="channel-spec JSON file")
    p.add_argument(
        "--cell", default="0,0", metavar="X,Y",
        help="metric entry to sweep as 'x,y' (default 0,0)",
    )
    p.add_argument(
        "--from", dest="start", type=float, default=0.05, metavar="A",
        help="first swept value (default 0.05; must be positive)",
    )
    p.add_argument(
        "--to", dest="stop", type=float, default=10.0, metavar="B",
        help="last swept value (default 10)",
    )
    p.add_argument("--steps", type=int, default=200, metavar="K", help="number of rows (default 200)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[common], help="run a seeded code simulation, write CSV reports")
    p.add_argument("spec_file", help="channel-spec JSON file")
    p.add_argument("sim_config", help="simulation-config JSON file")
    p.add_argument("--out-dir", default=".", help="directory for errors.csv and covertness.csv")
    p.add_argument(
        "--workers", type=int, default=1,
        help="thread count for error trials, at least 1; results do not depend on it",
    )
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not (0 <= args.seed < 2**64):
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ChannelSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ValidationError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
