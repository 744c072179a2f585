"""Core types and divergences for covert communication over binary-input DMCs.

A transmitter either stays idle (input 0) or sends (input 1).  The legitimate
receiver sees the channel ``wy`` and decodes with a fixed metric ``q`` that may
be mismatched to ``wy``; an adversary observes the channel ``wz`` and must be
kept nearly blind, which pins the fraction of 1-inputs to ``t / sqrt(n)``.
This module holds the value types shared by every other module, the two
divergences everything is built from, and the JSON reader for channel specs
and simulation configs.

All divergences use natural logarithms; every rate downstream is in nats per
sqrt(n).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

SUM_TOL = 1e-12      # simplex membership: |sum - 1| must not exceed this
ZERO_TOL = 1e-15     # "is this probability zero" in absolute-continuity tests
TIE_TOL = 1e-12      # log-domain tolerance for score and argmax ties
SPEC_ROW_TOL = 1e-9  # channel-spec rows further than this from the simplex are rejected


class DimensionError(ValueError):
    """Shapes or lengths of inputs are inconsistent."""


class DomainError(ValueError):
    """A scalar argument lies outside its admissible range."""


class ValidationError(ValueError):
    """An instance fails the standing assumptions (A1, A2, A3)."""


class ResourceLimitError(RuntimeError):
    """An exact enumeration would exceed the configured budget, or a solver hit its step cap."""


class ChannelSpecError(ValueError):
    """A channel-spec or simulation-config file is malformed (syntax, schema, or entries)."""

    def __init__(self, message: str, lineno: int | None = None, colno: int | None = None):
        if lineno is not None:
            message = f"{message} (line {lineno}, column {colno})"
        super().__init__(message)
        self.lineno = lineno
        self.colno = colno


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ProbVector:
    """A probability mass function on a finite alphabet.

    Entries must be nonnegative and sum to 1 within ``SUM_TOL``.  The array is
    stored read-only; exact zeros are meaningful (they define supports).
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DimensionError("probability vector must be 1-D and nonempty")
        if np.any(np.isnan(p)) or np.any(np.isinf(p)):
            raise DomainError("probability vector contains NaN or infinity")
        if np.any(p < 0.0):
            raise DomainError("probability vector contains a negative entry")
        if abs(float(p.sum()) - 1.0) > SUM_TOL:
            raise DomainError(f"probabilities sum to {p.sum()!r}, not 1 within {SUM_TOL}")
        object.__setattr__(self, "probs", _readonly(p))

    def __len__(self) -> int:
        return self.probs.size

    def support(self) -> np.ndarray:
        """Indices carrying strictly positive mass."""
        return np.flatnonzero(self.probs > 0.0)


@dataclass(frozen=True)
class Bdmc:
    """A binary-input DMC given by its two conditional rows.

    ``w[x, y]`` is the probability of output ``y`` on input ``x``.  Row 0 is
    the idle (no transmission) distribution, row 1 the active one.  The facts
    the standing assumptions read are computed on first use and kept.
    """

    w: np.ndarray
    _rows: tuple[ProbVector, ProbVector] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != 2 or w.shape[1] < 2:
            raise DimensionError("channel matrix must have shape (2, num_outputs) with num_outputs >= 2")
        # row-wise simplex check, kept so every row(x) returns the validated row
        object.__setattr__(self, "_rows", (ProbVector(w[0]), ProbVector(w[1])))
        object.__setattr__(self, "w", _readonly(w))

    @property
    def num_outputs(self) -> int:
        return self.w.shape[1]

    def row(self, x: int) -> ProbVector:
        return self._rows[x]

    @functools.cached_property
    def rows_differ(self) -> bool:
        """Whether the rows differ somewhere by more than SUM_TOL (A1 for the warden)."""
        return bool(np.max(np.abs(self.w[0] - self.w[1])) > SUM_TOL)

    @functools.cached_property
    def row1_dominated(self) -> bool:
        """Whether row 1 has no mass where row 0 has at most ZERO_TOL (A2, A3); any
        positive row-1 mass counts, as in chi2 and KL, which it makes infinite where row 0 is 0."""
        return not bool(np.any((self.w[1] > 0.0) & (self.w[0] <= ZERO_TOL)))

    @functools.cached_property
    def chi2(self) -> float:
        """chi2(row 1 || row 0), +inf if row 1 has mass where row 0 is exactly zero."""
        return chi2_divergence(self._rows[1], self._rows[0])


@dataclass(frozen=True)
class DecodingMetric:
    """A decoding metric ``q[x, y] > 0`` scored multiplicatively over symbols.

    Only ratios across x matter to the decoder, so any row- or column-positive
    rescaling leaves decisions unchanged; values must be finite and positive.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != 2 or q.shape[1] < 2:
            raise DimensionError("metric matrix must have shape (2, num_outputs) with num_outputs >= 2")
        if np.any(~np.isfinite(q)) or np.any(q <= 0.0):
            raise DomainError("metric entries must be finite and strictly positive")
        object.__setattr__(self, "q", _readonly(q))

    @property
    def num_outputs(self) -> int:
        return self.q.shape[1]

    @functools.cached_property
    def log_ratio(self) -> np.ndarray:
        """rhat(y) = log q(1, y) - log q(0, y), read-only: all that the decoder's decisions read of q."""
        return _readonly(np.log(self.q[1]) - np.log(self.q[0]))


@dataclass(frozen=True)
class CovertInstance:
    """A full problem instance: receiver channel, adversary channel, metric, delta.

    ``delta`` is the adversary's divergence budget.  Construction checks shapes
    and ranges only; the statistical assumptions A1 to A3 are checked by
    :func:`validate_instance`, and rate computations refuse instances that fail
    it.  This keeps invalid instances representable so they can be reported on.
    """

    wy: Bdmc
    wz: Bdmc
    q: DecodingMetric
    delta: float

    def __post_init__(self):
        if self.q.num_outputs != self.wy.num_outputs:
            raise DimensionError(
                f"metric has {self.q.num_outputs} outputs, receiver channel has {self.wy.num_outputs}"
            )
        d = float(self.delta)
        if not np.isfinite(d) or d <= 0.0:
            raise DomainError(f"delta must be a positive real, got {self.delta!r}")
        object.__setattr__(self, "delta", d)

    @property
    def p0(self) -> ProbVector:
        """Receiver output law when idle."""
        return self.wy.row(0)

    @property
    def p1(self) -> ProbVector:
        """Receiver output law when sending."""
        return self.wy.row(1)

    @property
    def q0(self) -> ProbVector:
        """Adversary output law when idle."""
        return self.wz.row(0)

    @property
    def q1(self) -> ProbVector:
        """Adversary output law when sending."""
        return self.wz.row(1)


@dataclass(frozen=True)
class WeightParam:
    """The covertness weight t = sqrt(2 delta / chi2), derived from its ingredients."""

    delta: float
    chi2: float

    @property
    def t(self) -> float:
        return float(np.sqrt(2.0 * self.delta / self.chi2))


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail record for the standing assumptions on an instance."""

    a1_warden_laws_differ: bool
    a2_q1_dominated_by_q0: bool
    a3_p1_dominated_by_p0: bool
    metric_positive = True  # always: DecodingMetric refuses a nonpositive entry

    @property
    def failures(self) -> tuple[str, ...]:
        """One line per failed assumption, in the order A1, A2, A3."""
        facts = (self.a1_warden_laws_differ, self.a2_q1_dominated_by_q0, self.a3_p1_dominated_by_p0)
        lines = ("A1: adversary output laws coincide", "A2: Q1 puts mass where Q0 has none",
                 "A3: P1 puts mass where P0 has none")
        return tuple(ln for ok, ln in zip(facts, lines) if not ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def kl_divergence(p: ProbVector, r: ProbVector) -> float:
    """KL divergence D(p || r) in nats.

    Terms with p(x) = 0 contribute zero; returns +inf when p puts mass where
    r has none.
    """
    if len(p) != len(r):
        raise DimensionError("KL divergence needs equal-length distributions")
    return _kl(p.probs, r.probs)


def _kl(p: np.ndarray, r: np.ndarray) -> float:
    """kl_divergence on the arrays themselves."""
    mask = p > 0.0
    if np.any(r[mask] <= 0.0):
        return float("inf")
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(r[mask]))))


def chi2_divergence(p: ProbVector, r: ProbVector) -> float:
    """Chi-squared divergence sum_x (p(x)-r(x))^2 / r(x), +inf if p is not dominated."""
    if len(p) != len(r):
        raise DimensionError("chi-squared divergence needs equal-length distributions")
    pp, rr = p.probs, r.probs
    if np.any((rr <= 0.0) & (pp > 0.0)):
        return float("inf")
    mask = rr > 0.0
    return float(np.sum((pp[mask] - rr[mask]) ** 2 / rr[mask]))


def weight_parameter(delta: float, q0: ProbVector, q1: ProbVector) -> WeightParam:
    """The weight t = sqrt(2 delta / chi2(q1 || q0)) governing covert input mass."""
    if not np.isfinite(delta) or delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta!r}")
    return _weight(delta, chi2_divergence(q1, q0))


def _weight(delta: float, c2: float) -> WeightParam:
    if c2 == 0.0:
        raise ValidationError("adversary marginals coincide (chi2 = 0); no covert signalling")
    if not np.isfinite(c2):
        raise ValidationError("q1 not dominated by q0 (chi2 infinite); covertness unachievable")
    return WeightParam(delta=float(delta), chi2=c2)


def validate_instance(inst: CovertInstance) -> ValidationReport:
    """Check A1 (warden laws differ), A2 (Q1 << Q0) and A3 (P1 << P0) from the channels' cached facts.

    Returns a report rather than raising, so invalid instances can be described
    to the caller; rate computations reject instances whose report is not ok.
    """
    return ValidationReport(inst.wz.rows_differ, inst.wz.row1_dominated, inst.wy.row1_dominated)


def require_valid(inst: CovertInstance) -> ValidationReport:
    """Raise ValidationError unless the instance passes all standing assumptions."""
    report = validate_instance(inst)
    if not report.ok:
        raise ValidationError("; ".join(report.failures))
    return report


def _valid_weight(inst: CovertInstance) -> WeightParam:
    """require_valid, then weight_parameter's result (bits and errors) from the warden's cached chi2."""
    require_valid(inst)
    return _weight(inst.delta, inst.wz.chi2)


def innocent_only_set(wy: Bdmc) -> np.ndarray:
    """Output symbols possible when idle but impossible when sending.

    Returns the sorted indices {y : P0(y) > 0, P1(y) = 0}; zero is judged at
    ``ZERO_TOL``.  Seeing any other symbol does not rule out either input.
    """
    p0, p1 = wy.w[0], wy.w[1]
    return np.flatnonzero((p0 > ZERO_TOL) & (p1 <= ZERO_TOL))


def _type_blocks(a: int, w: int, most: int):
    """Every count vector of ``a`` symbols summing to ``w``, in (t, a) blocks of t <= ``most`` rows.

    Pending rows (leading counts, count left) are completed at once when a bound on
    their completions fits in ``most``; else they are halved, or a lone row gains a symbol.
    """
    pending = [(np.zeros((1, 0), dtype=np.int64), np.array([w]))]
    while pending:
        head, rem = pending.pop()
        free = a - head.shape[1]
        if head.shape[0] * (int(rem.max()) + 1) ** (free - 1) <= most:
            for _ in range(free - 1):
                reps = rem + 1
                k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
                head, rem = np.column_stack([np.repeat(head, reps, axis=0), k]), np.repeat(rem, reps) - k
            yield np.column_stack([head, rem])
        elif head.shape[0] > 1:
            half = head.shape[0] // 2
            pending += [(head[half:], rem[half:]), (head[:half], rem[:half])]
        else:
            k = np.arange(rem[0] + 1)
            pending.append((np.column_stack([np.repeat(head, k.size, axis=0), k]), rem[0] - k))


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at ``path``, a ``what`` (named in the errors).

    Raises ChannelSpecError on a syntax error (with its line and column), on
    a non-finite constant (NaN, Infinity), on a key that appears twice in one
    object (json keeps the last, silently), and on a top level that is not an
    object.
    """

    def reject(token: str) -> float:
        raise ChannelSpecError(f"non-finite constant {token!r} is not allowed in a {what}")

    def unique(pairs: list) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ChannelSpecError(f"key {key!r} appears twice in a {what}")
            data[key] = value
        return data

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=reject, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ChannelSpecError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise ChannelSpecError(f"{what} must be a JSON object")
    return data


def _as_rows(obj: Any, key: str, renormalize: bool) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChannelSpecError(f"{key!r} is not a numeric matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != 2 or arr.shape[1] < 2:
        raise ChannelSpecError(f"{key!r} must be a 2-row matrix with at least 2 columns, got shape {arr.shape}")
    if np.any(~np.isfinite(arr)):
        raise ChannelSpecError(f"{key!r} contains a non-finite entry")
    if np.any(arr < 0.0):
        raise ChannelSpecError(f"{key!r} contains a negative entry")
    if renormalize:
        sums = arr.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > SPEC_ROW_TOL):
            x = int(np.argmax(off))
            raise ChannelSpecError(
                f"{key!r} row {x} sums to {sums[x]!r}, off the simplex by more than {SPEC_ROW_TOL}"
            )
        arr = arr / sums[:, None]  # small drift is absorbed here
    return arr


def load_channel_spec(path: str) -> CovertInstance:
    """Read the channel-spec JSON object in the file at ``path`` into a CovertInstance.

    The object must carry "wy" and "wz" (2-row stochastic matrices), "q"
    (2-row positive matrix), and "delta" (positive number).  NaN and negative
    entries are rejected; rows off the simplex by more than ``SPEC_ROW_TOL``
    are rejected, smaller drift is renormalized.
    """
    data = _read_json_object(path, "channel spec")
    missing = [k for k in ("wy", "wz", "q", "delta") if k not in data]
    if missing:
        raise ChannelSpecError(f"channel spec is missing keys: {', '.join(missing)}")

    wy = _as_rows(data["wy"], "wy", renormalize=True)
    wz = _as_rows(data["wz"], "wz", renormalize=True)
    qm = _as_rows(data["q"], "q", renormalize=False)
    if np.any(qm <= 0.0):
        raise ChannelSpecError("'q' entries must be strictly positive")
    delta = data["delta"]
    if not isinstance(delta, (int, float)) or isinstance(delta, bool):
        raise ChannelSpecError(f"'delta' must be a number, got {type(delta).__name__}")

    return CovertInstance(wy=Bdmc(wy), wz=Bdmc(wz), q=DecodingMetric(qm), delta=float(delta))
