"""Reference implementations the tests check the library against.

Each is a direct, unoptimized form of something the library computes another
way: a one-block decoder for the slot scorer, a sub-code's draw for the
codebook streams, PCG64's seeding for the decode-trial streams, the mean
chunk statistic by stars and bars for its sum over _type_blocks, the
binary-alphabet tilt derivative and its root for the lower bound, and the
coupling checks for the converse.  The library itself never calls them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from covertcap import (
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    JointConditional,
    PpmCodebook,
    PpmParams,
)
from covertcap.closed_forms import _log_odds_ratio
from covertcap.converse import _marginal_kl
from covertcap.core import TIE_TOL
from covertcap.ppm import _pulse_slots, _slot_scores

TIE = -1  # decoder verdict when the top metric score is shared


def sample_codeword(params: PpmParams, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """One chunk-structured word: a uniform active position per chunk, idle tail.  With
    ``count``, the (count, n) words of a sub-code as generate_codebook draws them: all
    count * l chunk offsets from one call, word by word."""
    offsets = rng.integers(0, params.w, size=(1 if count is None else count, params.l))
    words = np.zeros((len(offsets), params.n), dtype=np.uint8)
    for word, row in zip(words, offsets):
        for chunk, offset in enumerate(row):
            word[chunk * params.w + offset] = 1
    return words[0] if count is None else words


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_seeded_state(words) -> dict:
    """The state of a PCG64 seeded by four uint64 ``words``, as numpy's PCG64 seeds itself from
    a SeedSequence's generate_state(4, uint64): words 0-1 the 128-bit initial state, 2-3 the
    stream, and two LCG steps around adding the state (O'Neill 2014, pcg_setseq_128_srandom_r)."""
    mask = (1 << 128) - 1
    w0, w1, w2, w3 = map(int, words)
    inc = ((w2 << 64 | w3) << 1 | 1) & mask
    state = (inc + (w0 << 64 | w1)) & mask  # the first step from state 0 gives inc
    return {"state": (state * PCG64_MULTIPLIER + inc) & mask, "inc": inc}


def q_decode(codebook: PpmCodebook, k: int, y: np.ndarray, metric: DecodingMetric) -> int:
    """Decode one output block within sub-code k; returns a message id or TIE.

    The winning word maximizes sum_i log q(x_i, y_i); because all words share
    the term sum_i log q(0, y_i), only the active positions' log-ratios are
    scored, by _slot_scores.  A top score shared within TIE_TOL is a TIE
    (counted as an error by callers).  A sub-code index outside [0, K) and
    symbols outside the metric's alphabet raise DomainError.
    """
    if not 0 <= k < codebook.num_keys:
        raise DomainError(f"sub-code index must lie in [0, {codebook.num_keys}), got {k!r}")
    y = np.asarray(y)
    if y.shape != (codebook.params.n,):
        raise DimensionError(f"output block must have length {codebook.params.n}")
    if y.min(initial=0) < 0 or y.max(initial=0) >= metric.num_outputs:
        raise DomainError(f"output symbols must lie in [0, {metric.num_outputs})")
    cols, slots = _pulse_slots(codebook.positions[k])
    scores = _slot_scores(metric.log_ratio, y[None, cols], slots)[:, 0]
    top = float(scores.max())
    winners = np.flatnonzero(scores >= top - TIE_TOL)
    if winners.size > 1:
        return TIE
    return int(codebook.message_ids[k, winners[0]])


def exact_chunk_statistic_mean(q, p0, p1, w, s):
    """E[S_w] as a sum over the active output y and the type N of the w-1 idle outputs.

    E[S_w] = sum_y p1(y) sum_N Mult(w-1; p0)(N) [log w - log(1 + sum_a N_a e^{s (r_a - r_y)})]
    with r = log q(1, .) - log q(0, .); the types are enumerated by stars and bars.
    """
    r = np.log(q.q[1]) - np.log(q.q[0])
    supp = np.flatnonzero(p0.probs > 0.0)
    a, m = supp.size, w - 1
    bars = np.array(list(itertools.combinations(range(m + a - 1), a - 1)), dtype=np.int64).reshape(-1, a - 1)
    ends = np.full((bars.shape[0], 1), -1), np.full((bars.shape[0], 1), m + a - 1)
    counts = np.diff(np.hstack([ends[0], bars, ends[1]]), axis=1) - 1
    log_fact = np.array([math.lgamma(k + 1) for k in range(m + 1)])
    mass = np.exp(log_fact[m] - log_fact[counts].sum(axis=1) + counts @ np.log(p0.probs[supp]))
    return sum(
        p1.probs[y] * float(mass @ (math.log(w) - np.log1p(counts @ np.exp(s * (r[supp] - r[y])))))
        for y in np.flatnonzero(p1.probs > 0.0)
    )


def binary_f_derivative(inst: CovertInstance, s: float) -> float:
    """Exact df/ds for a binary output alphabet.

    Equals log(rho) * (g(s) - P1(0)) with rho = q00*q11 / (q01*q10) and g(s)
    the tilted idle probability of symbol 0; agrees with the generic f_s by
    direct differentiation.
    """
    if inst.wy.num_outputs != 2:
        raise DimensionError("binary_f_derivative needs exactly two output symbols")
    if s < 0.0:
        raise DomainError(f"tilt argument must be >= 0, got {s!r}")
    pp0 = inst.p0.probs
    pp1 = inst.p1.probs
    log_rho = _log_odds_ratio(inst.q.q)
    # g(s) = tilted P0 mass on symbol 0, written as a logistic so large
    # s*log_rho cannot overflow
    if pp0[0] <= 0.0:
        g = 0.0
    elif pp0[1] <= 0.0:
        g = 1.0
    else:
        a = math.log(pp0[1] / pp0[0]) + s * log_rho
        g = 1.0 / (1.0 + math.exp(a)) if a <= 0.0 else math.exp(-a) / (1.0 + math.exp(-a))
    return log_rho * (g - pp1[0])


def binary_s0(inst: CovertInstance) -> float:
    """Stationary point of f for a binary alphabet (the maximizing s).

    Requires q00*q11 > q01*q10 and the orientation P0(0)+P1(1) >= P0(1)+P1(0)
    (relabel the two outputs first if needed); both are checked, not fixed up,
    so the returned root is always >= 0.  Returns +inf when P0(1)*P1(0) = 0
    (the maximizer escapes to infinity).
    """
    if inst.wy.num_outputs != 2:
        raise DimensionError("binary_s0 needs exactly two output symbols")
    pp0 = inst.p0.probs
    pp1 = inst.p1.probs
    if pp0[0] + pp1[1] < pp0[1] + pp1[0]:
        raise DomainError("binary_s0 needs the orientation P0(0)+P1(1) >= P0(1)+P1(0)")
    log_rho = _log_odds_ratio(inst.q.q)
    if log_rho <= 0.0:
        raise DomainError("binary_s0 needs q00*q11 > q01*q10")
    if pp0[1] * pp1[0] <= 0.0:
        return math.inf
    num = math.log(pp0[0]) + math.log(pp1[1]) - math.log(pp0[1]) - math.log(pp1[0])
    return num / log_rho


def verify_maximal(jc: JointConditional, table: np.ndarray, wy: Bdmc) -> bool:
    """Check a coupling against an externally supplied argmax table and channel.

    True iff the implied joint W(y|x) * v[x, y](yhat) is zero outside
    the argmax table ``table`` and its Y-marginal equals ``wy`` within 1e-10.
    The table argument matters: a coupling built against a permissive table
    can place mass a stricter metric forbids.
    """
    v = jc.v
    if v.shape != (2, wy.num_outputs, wy.num_outputs):
        return False
    joint = jc.wy.w[:, :, None] * v
    if np.any(joint[~table] != 0.0):
        return False
    y_marginal = jc.wy.w * v.sum(axis=2)
    return bool(np.all(np.abs(y_marginal - wy.w) <= 1e-10))


def diagonal_coupling(wy: Bdmc, table: np.ndarray) -> JointConditional:
    """The identity coupling yhat = y; always feasible."""
    ny = wy.num_outputs
    v = np.zeros((2, ny, ny))
    v[:, np.arange(ny), np.arange(ny)] = 1.0
    return JointConditional(wy=wy, table=table, v=v)


def objective_kl(jc: JointConditional) -> float:
    """D(m1 || m0) between the coupling's surrogate marginals; +inf if undominated."""
    return _marginal_kl(jc.wy.w, jc.v)
