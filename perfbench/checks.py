"""Output checks of the benchmark.

Every check returns one pass/fail flag per item, where an item is one CSV
row of a sweep, one ``bounds`` call, or one ``simulate`` call.  Failed items
are what the benchmark reports as ``failed`` and in ``failed_frac``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

# C at the matched sweep point u = 3 of the paper's figure
C_STAR = (2.0 / 7.0) * 0.4 * math.log(3.0)
# the u = 0.5 mismatch gap below C_STAR, as frozen in tests/test_acceptance.py
GOLDEN_MISMATCH_MARGIN = 0.0164
ORDER_TOL = 1e-8
ORACLE_TOL = 1e-9
PEAK_TOL = 1e-8
# the CLI prints 9 significant digits, so a printed value is within
# 5e-9 relative of the full-precision one
PRINTED_RTOL = 6e-9
# full-precision bounds must agree with the recorded reference to this
REFERENCE_TOL = 1e-10

# layers whose return values are compared with the reference in traced runs
REFERENCE_LAYERS = ("lower_bound.lower_bound", "converse.upper_bound", "converse.grid_oracle")


def csv_rows(text: str) -> list[dict[str, float]]:
    """Rows of a CSV text as floats keyed by header; raises ValueError if malformed."""
    rows = list(csv.DictReader(text.strip().splitlines()))
    parsed = []
    for row in rows:
        if None in row or None in row.values():
            raise ValueError("row width differs from the header")
        parsed.append({k: float(v) for k, v in row.items()})
    return parsed


def _ordered(row: dict[str, float]) -> bool:
    """lower <= upper + tol <= capacity + tol, with every value finite."""
    values = (row["lower"], row["upper"], row["covert_capacity"])
    return (
        all(math.isfinite(v) for v in values)
        and row["lower"] <= row["upper"] + ORDER_TOL
        and row["upper"] <= row["covert_capacity"] + ORDER_TOL
    )


def _printed_close(printed: float, ref: float) -> bool:
    return abs(printed - ref) <= PRINTED_RTOL * abs(ref) + 1e-15


def _matches(row: dict[str, float], ref: dict[str, list[float]] | None, i: int) -> bool:
    if ref is None:
        return True
    return _printed_close(row["lower"], ref["lower_bound.lower_bound"][i]) and _printed_close(
        row["upper"], ref["converse.upper_bound"][i]
    )


def check_sweep(text: str, expected_rows: int, ref: dict | None) -> list[bool]:
    """Per-row flags for the figure sweep.

    Every row must be ordered and match the reference; the lower bound must
    peak at the row nearest u = 3, within PEAK_TOL of C_STAR, or that row fails.
    """
    try:
        rows = csv_rows(text)
        ok = [_ordered(r) and _matches(r, ref, i) for i, r in enumerate(rows[:expected_rows])]
    except (ValueError, KeyError, IndexError):
        return [False] * expected_rows
    ok += [False] * (expected_rows - len(ok))
    if rows:
        lowers = [r["lower"] for r in rows]
        near = min(range(len(rows)), key=lambda i: abs(rows[i]["u"] - 3.0))
        peak = max(range(len(rows)), key=lambda i: lowers[i])
        if near < expected_rows and (peak != near or abs(lowers[near] - C_STAR) > PEAK_TOL):
            ok[near] = False
    return ok


def check_bounds(text: str, ref: dict | None, figure: bool = False) -> list[bool]:
    """One flag for a ``bounds`` call.

    The figure's u = 0.5 call must also have ``oracle_value >= upper - 1e-9``
    and sit below C_STAR by the golden margin.
    """
    try:
        rows = csv_rows(text)
        (row,) = rows
        ok = _ordered(row) and _matches(row, ref, 0)
        if figure:
            ok = (
                ok
                and row["oracle_value"] >= row["upper"] - ORACLE_TOL
                and row["upper"] <= C_STAR - GOLDEN_MISMATCH_MARGIN
            )
    except (ValueError, KeyError, IndexError):
        return [False]
    return [ok]


def check_simulate(out_dir: str, expected_rows: int, method: str) -> tuple[list[bool], dict[str, str]]:
    """One flag for a ``simulate`` call, and the sha256 of each CSV it wrote.

    errors.csv must hold ``expected_rows`` rows with every p_hat in [0, 1];
    covertness.csv must report ``method`` with a finite estimate >= 0.
    """
    digests = {}
    try:
        texts = {}
        for name in ("errors.csv", "covertness.csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                blob = fh.read()
            digests[name] = hashlib.sha256(blob).hexdigest()
            texts[name] = blob.decode("utf-8")
        errors = csv_rows(texts["errors.csv"])
        cov_lines = texts["covertness.csv"].strip().splitlines()
        cov = next(csv.DictReader(cov_lines))
        estimate = float(cov["estimate"])
        ok = (
            len(errors) == expected_rows
            and all(0.0 <= r["p_hat"] <= 1.0 and 0 <= r["errors"] <= r["trials"] for r in errors)
            and len(cov_lines) == 2
            and cov["method"] == method
            and math.isfinite(estimate)
            and estimate >= 0.0
        )
    except (OSError, ValueError, KeyError, StopIteration, UnicodeDecodeError):
        ok = False
    return [ok], digests


def reference_failures(captured: dict[str, list[float]], ref: dict[str, list[float]]) -> set[int]:
    """Item indices whose full-precision values differ from the reference by more than REFERENCE_TOL.

    A layer whose value count differs from the reference fails every item.
    """
    items = max(len(v) for v in ref.values())
    bad: set[int] = set()
    for layer in REFERENCE_LAYERS:
        want = ref.get(layer, [])
        got = captured.get(layer, [])
        if len(got) != len(want):
            return set(range(items))
        bad.update(i for i, (a, b) in enumerate(zip(got, want)) if not abs(a - b) <= REFERENCE_TOL)
    return bad
