"""Position-modulated covert codes: construction, decoding, and diagnostics.

A length-n codeword is split into l chunks of w symbols (w = n // l, tail of
r = n - w*l symbols always idle); each chunk carries exactly one active symbol
whose position is the payload.  With l ~ t*sqrt(n) active symbols the code
meets the adversary's divergence budget while carrying Theta(sqrt(n)) nats.

Randomness is counter-based (Philox), keyed by (master seed, purpose tag).
Each codeword sits on the substream at counter (key k, message m); each
(key, message) pair's decode trials are read in order from the one substream
at counter (pair index), so regenerating any codeword or any pair's count is
bit-identical no matter the iteration order or thread schedule.  Each
Monte-Carlo estimator (covertness_mc, sample_s_statistic) reads the single
stream keyed by (seed, tag).  Every Monte-Carlo loop takes its block sizes
from one rule, _blocks, so a block's memory does not grow with n.

Decode trials and covertness samples draw uniforms, and so channel outputs,
only at pulse positions, the columns where some word of the book (or sub-code)
is active.  Neither the metric score nor the warden's mixture likelihood
depends on an output where every word is idle, and with l ~ sqrt(n) pulses
per word those columns are a shrinking share of the block: idle columns cost
no draws.  Every sampler inverts a channel row's cumulative law by counting
the thresholds at or below each uniform (_sample_symbols), which for these
few-output alphabets is faster than a binary search and returns the same
index.  Decode trials are scored word-major: a block's scores form an (M, t)
matrix whose verdict reductions (top score, tie count, own-word test) run
over the words of each trial.

covertness_exact keeps only the pulse columns, splits them into two halves,
and gets the mixture's likelihood ratio on every output state from one matrix
product of the two halves' score tables (_mixture_kl).  ppm_output_kl sums
the one-pulse chunk law over types, not states: its ratio depends on a chunk
only through the count of each output symbol.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    TIE_TOL,
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    ProbVector,
    ResourceLimitError,
    chi2_divergence,
)

TIE = -1  # decoder verdict when the top metric score is shared

# purpose tags keep Philox substreams for different jobs disjoint
_TAG_CODEBOOK = 1
_TAG_ERROR = 2
_TAG_COVERT = 3
_TAG_SSTAT = 4

_MASK64 = (1 << 64) - 1

MAX_CODEBOOK_BYTES = 2**30  # largest (K, M, n) uint8 book generate_codebook builds
# uniforms per block of any Monte-Carlo loop; every one is sampled and
# scored, so a block's temporaries take a few times 8 MiB
_PULSE_BLOCK = 1 << 20


def _stream(seed: int, tag: int, c1: int = 0, c2: int = 0) -> np.random.Generator:
    """Generator on the Philox substream keyed by (seed, tag) at counter (0, c1, c2, 0)."""
    key = np.array([seed & _MASK64, tag], dtype=np.uint64)
    counter = np.array([0, c1 & _MASK64, c2 & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _blocks(total: int, width: int, most: int | None = None):
    """(start, size) of consecutive blocks covering ``total`` draws of ``width`` uniforms each:
    at most ``most`` draws and about _PULSE_BLOCK uniforms per block, at least one draw."""
    step = max(1, min(most or total, _PULSE_BLOCK // max(1, width)))
    return ((start, min(step, total - start)) for start in range(0, total, step))


def _sample_symbols(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF samples of the law with cumsum ``cum`` at uniforms ``u``.

    Counts the thresholds cum[:-1] at or below each u (sequential-search
    inversion; Devroye 1986, section III.2).  cum is a cumsum with cum[-1]
    pinned to 1 > u, so the thresholds at or below u form a prefix and the
    count is searchsorted(cum, u, side="right").  Its cost is linear in the
    alphabet, but for the few outputs of the channels here it beats a binary
    search (they tie near 128 outputs), helped by an index of the narrowest
    unsigned type that holds cum.size (uint8 below 256 outputs).
    """
    y = np.zeros(u.shape, dtype=np.min_scalar_type(cum.size))
    for c in cum[:-1]:
        y += u >= c
    return y


def _cumulative(p: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p)
    cum[-1] = 1.0
    return cum


def _pulse_columns(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(columns where some word is active, the words on those columns as floats)."""
    cols = np.flatnonzero(words.any(axis=0))
    return cols, words[:, cols].astype(np.float64)


def _sample_at_pulses(gen, t, cols, at, cum0, cum1) -> np.ndarray:
    """Outputs at columns ``cols`` of t channel blocks, one uniform per entry.

    The stream advances by t*|cols| uniforms, row by row, so idle columns
    draw nothing.  Every entry is inverse-CDF sampled from cum0, then the
    pulse entries, selected by the index expression ``at`` into the
    (t, |cols|) block, are sampled again from cum1 and overwrite theirs.
    """
    u = gen.random((t, cols.size))
    y = _sample_symbols(cum0, u)
    y[at] = _sample_symbols(cum1, u[at])
    return y


@dataclass(frozen=True)
class PpmParams:
    """Chunk schedule (n, l, w, r): l chunks of width w, idle tail of length r."""

    n: int
    l: int
    w: int
    r: int

    def __post_init__(self):
        n, l, w, r = self.n, self.l, self.w, self.r
        if min(n, l, w) < 1 or r < 0:
            raise DomainError(f"need n, l, w >= 1 and r >= 0, got {(n, l, w, r)}")
        if w != n // l or r != n - w * l:
            raise DimensionError(f"inconsistent schedule: n={n}, l={l} imply w={n // l}, r={n - (n // l) * l}")


def _slack(n: int, delta: float) -> float:
    return 2.0 * delta - n ** (-1.0 / 3.0)


def _min_n_positive_slack(delta: float) -> int:
    # smallest n with 2*delta > n^(-1/3); float-safe integer scan near (2 delta)^-3
    n = max(1, int((2.0 * delta) ** (-3.0)) - 2)
    while _slack(n, delta) <= 0.0:
        n += 1
    return n


def _min_n_for_one_chunk(delta: float, c2: float) -> int:
    # smallest admissible n with floor(sqrt(slack*n/chi2)) >= 1, by doubling + bisection
    lo = _min_n_positive_slack(delta)
    ok = lambda n: _slack(n, delta) > 0.0 and _slack(n, delta) * n / c2 >= 1.0
    hi = lo
    while not ok(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def ppm_params(n: int, delta: float, q0: ProbVector, q1: ProbVector) -> PpmParams:
    """Chunk schedule meeting the divergence budget delta against warden (q0, q1).

    l = floor(sqrt((2 delta - n^(-1/3)) n / chi2(q1 || q0))), w = n // l,
    r = n - w l.  Raises DomainError, naming the smallest workable n, when the
    budget leaves no slack at this blocklength or when it admits no chunk.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be a positive real, got {delta!r}")
    c2 = chi2_divergence(q1, q0)
    if c2 == 0.0 or not math.isfinite(c2):
        raise DomainError("warden marginals must differ and q1 must be dominated by q0")
    slack = _slack(n, delta)
    if slack <= 0.0:
        raise DomainError(
            f"n={n} is too small for delta={delta}: need 2*delta > n^(-1/3), "
            f"i.e. n >= {_min_n_positive_slack(delta)}"
        )
    l = int(math.floor(math.sqrt(slack * n / c2)))
    if l < 1:
        raise DomainError(
            f"n={n} admits no chunk at delta={delta} (chi2={c2:.6g}); "
            f"smallest workable n is {_min_n_for_one_chunk(delta, c2)}"
        )
    w = n // l
    if w < 1:
        raise DomainError(
            f"schedule degenerate at n={n}, delta={delta}: more chunks than symbols (l={l})"
        )
    return PpmParams(n=n, l=l, w=w, r=n - w * l)


@dataclass(frozen=True)
class PpmCodebook:
    """Codewords for every (key, message) pair, with their original message ids.

    ``codewords[k, j]`` is the length-n binary word for the j-th retained
    message of sub-code k, whose public identity is ``message_ids[k, j]``.
    Expurgation produces books whose retained sets differ per key.  Words are
    not forced to the chunk structure here so that degenerate books (hand-built
    or weight-0) remain expressible in tests; ``generate_codebook`` guarantees
    the structure for the books it makes.
    """

    params: PpmParams
    num_messages: int
    num_keys: int
    seed: int
    codewords: np.ndarray
    message_ids: np.ndarray

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=np.uint8)
        ids = np.asarray(self.message_ids, dtype=np.int64)
        shape = (self.num_keys, self.num_messages, self.params.n)
        if cw.shape != shape:
            raise DimensionError(f"codewords must have shape {shape}, got {cw.shape}")
        if ids.shape != shape[:2]:
            raise DimensionError(f"message_ids must have shape {shape[:2]}, got {ids.shape}")
        if cw.max(initial=0) > 1:  # the binary check on uint8, without book-sized temporaries
            raise DomainError("codewords must be binary")
        cw.setflags(write=False)
        ids.setflags(write=False)
        object.__setattr__(self, "codewords", cw)
        object.__setattr__(self, "message_ids", ids)

    def flat_words(self) -> np.ndarray:
        """All retained codewords as one (num_keys * num_messages, n) matrix."""
        return self.codewords.reshape(-1, self.params.n)


def sample_codeword(params: PpmParams, rng: np.random.Generator) -> np.ndarray:
    """One chunk-structured word: a uniform active position per chunk, idle tail."""
    pos = rng.integers(0, params.w, size=params.l)
    word = np.zeros(params.n, dtype=np.uint8)
    word[np.arange(params.l) * params.w + pos] = 1
    return word


def generate_codebook(params: PpmParams, num_messages: int, num_keys: int, seed: int) -> PpmCodebook:
    """Independent uniform chunk positions for every (key, message) pair.

    Word (m, k) is a pure function of (seed, m, k): regeneration is
    bit-identical no matter the order pairs are visited in.  Raises
    ResourceLimitError, before allocating, when the book would take more than
    MAX_CODEBOOK_BYTES.
    """
    if num_messages < 1 or num_keys < 1:
        raise DomainError("need at least one message and one key")
    size = num_keys * num_messages * params.n
    if size > MAX_CODEBOOK_BYTES:
        raise ResourceLimitError(
            f"codebook of {num_keys} keys x {num_messages} messages x n={params.n} "
            f"needs {size} bytes, above the cap {MAX_CODEBOOK_BYTES}"
        )
    cw = np.empty((num_keys, num_messages, params.n), dtype=np.uint8)
    for k in range(num_keys):
        for m in range(num_messages):
            cw[k, m] = sample_codeword(params, _stream(seed, _TAG_CODEBOOK, c1=k, c2=m))
    ids = np.tile(np.arange(num_messages, dtype=np.int64), (num_keys, 1))
    return PpmCodebook(
        params=params,
        num_messages=num_messages,
        num_keys=num_keys,
        seed=seed,
        codewords=cw,
        message_ids=ids,
    )


def _log_ratio(metric: DecodingMetric) -> np.ndarray:
    return np.log(metric.q[1]) - np.log(metric.q[0])


def q_decode(codebook: PpmCodebook, k: int, y: np.ndarray, metric: DecodingMetric) -> int:
    """Decode one output block within sub-code k; returns a message id or TIE.

    The winning word maximizes sum_i log q(x_i, y_i); because all words share
    the term sum_i log q(0, y_i), only the active positions' log-ratios are
    scored, on the sub-code's pulse columns as in estimate_error.  A top score
    shared within TIE_TOL is a TIE (counted as an error by callers).
    """
    y = np.asarray(y)
    if y.shape != (codebook.params.n,):
        raise DimensionError(f"output block must have length {codebook.params.n}")
    cols, words = _pulse_columns(codebook.codewords[k])
    scores = words @ _log_ratio(metric)[y[cols]]
    top = float(scores.max())
    winners = np.flatnonzero(scores >= top - TIE_TOL)
    if winners.size > 1:
        return TIE
    return int(codebook.message_ids[k, winners[0]])


@dataclass(frozen=True)
class ErrorReport:
    """Per-pair decoding-error estimates with binomial 95% half-widths.

    ``p_hat[k, j]`` estimates the error of the j-th retained message of
    sub-code k (public id ``message_ids[k, j]``); ``ci95`` holds the matching
    per-pair half-widths and ``ci95_halfwidth`` the one at the worst pair.
    """

    trials_per_pair: int
    errors: np.ndarray
    p_hat: np.ndarray
    ci95: np.ndarray
    message_ids: np.ndarray
    avg_per_key: np.ndarray
    max_per_key: np.ndarray
    max_overall: float
    ci95_halfwidth: float


def _pair_errors(codebook, k, j, trials, seed, cum0, cum1, rhat, pulses, chunk=1024):
    """Error count for pair (k, j) over its Philox substream; chunking is stream-neutral.

    ``pulses`` is ``_pulse_columns`` of sub-code k.  Every trial draws
    uniforms, samples and scores only at the sub-code's pulse columns: a
    column where all its words are idle adds the same log q(0, y) to every
    score, so it cannot change the verdict.  Word j's pulses sit on the same
    columns in every trial, so they are overwritten as whole columns.  Blocks
    come from _blocks, at most ``chunk`` trials each.

    Scores are word-major, ``words @ rhat(y).T`` of shape (M, t): the top
    score, the count of words within TIE_TOL of it and the own-word test then
    reduce down the M rows together, which takes a fraction of the time of
    reducing the short M-entry rows of a (t, M) block one trial at a time.
    The gather is np.take, which on short blocks beats fancy indexing with
    the narrow sampler index (2.4x on 1024 trials x 17 columns), though it
    copies the index to intp first.  Only BLAS rounding separates these
    scores from the trial-major ones, and TIE_TOL absorbs it.
    """
    cols, words = pulses
    at = (slice(None), np.flatnonzero(words[j]))
    pair = k * codebook.num_messages + j
    gen = _stream(seed, _TAG_ERROR, c1=pair)
    failures = 0
    for _, t in _blocks(trials, cols.size, chunk):
        y = _sample_at_pulses(gen, t, cols, at, cum0, cum1)
        scores = words @ np.take(rhat, y).T
        hits = scores >= scores.max(axis=0) - TIE_TOL
        ok = (hits.sum(axis=0) == 1) & hits[j]
        failures += t - np.count_nonzero(ok)
    return failures


def estimate_error(
    inst: CovertInstance,
    codebook: PpmCodebook,
    trials_per_pair: int,
    seed: int,
    workers: int = 1,
) -> ErrorReport:
    """Monte-Carlo decoding-error probability for every (key, message) pair.

    Each pair's trials are read in order from the one Philox substream keyed
    by (seed, tag) at counter (pair index), so the report is identical for
    any ``workers`` count and any execution order.  ci95 is the
    normal-approximation half-width 1.96 sqrt(p(1-p)/trials).
    """
    if trials_per_pair < 1:
        raise DomainError("trials_per_pair must be >= 1")
    cum0 = _cumulative(inst.wy.w[0])
    cum1 = _cumulative(inst.wy.w[1])
    rhat = _log_ratio(inst.q)
    K, M = codebook.num_keys, codebook.num_messages
    pairs = [(k, j) for k in range(K) for j in range(M)]
    pulses = [_pulse_columns(codebook.codewords[k]) for k in range(K)]

    def run(p):
        k, j = p
        return _pair_errors(codebook, k, j, trials_per_pair, seed, cum0, cum1, rhat, pulses[k])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run, pairs))
    else:
        counts = [run(p) for p in pairs]

    errors = np.array(counts, dtype=np.int64).reshape(K, M)
    p_hat = errors / float(trials_per_pair)
    ci95 = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / trials_per_pair)
    worst = np.unravel_index(int(np.argmax(p_hat)), p_hat.shape)
    return ErrorReport(
        trials_per_pair=trials_per_pair,
        errors=errors,
        p_hat=p_hat,
        ci95=ci95,
        message_ids=codebook.message_ids.copy(),
        avg_per_key=p_hat.mean(axis=1),
        max_per_key=p_hat.max(axis=1),
        max_overall=float(p_hat[worst]),
        ci95_halfwidth=float(ci95[worst]),
    )


def expurgate(report: ErrorReport, codebook: PpmCodebook, fraction: float = 1.0 / 16.0) -> PpmCodebook:
    """Drop the ceil(fraction * |M|) worst messages of every sub-code.

    Worst means highest estimated error; exact ties are broken toward the
    smaller message id, so the result is deterministic.  Sub-codes keep equal
    sizes.  Any prior error report refers to the old book and must be redone.
    """
    if not (0.0 <= fraction < 1.0):
        raise DomainError(f"fraction must lie in [0, 1), got {fraction!r}")
    if report.p_hat.shape != (codebook.num_keys, codebook.num_messages):
        raise DimensionError("error report does not match the codebook's shape")
    drop = math.ceil(fraction * codebook.num_messages)
    keep = codebook.num_messages - drop
    if keep < 1:
        raise DomainError(f"expurgating {drop} of {codebook.num_messages} messages leaves nothing")
    if drop == 0:
        return codebook

    new_words = np.empty((codebook.num_keys, keep, codebook.params.n), dtype=np.uint8)
    new_ids = np.empty((codebook.num_keys, keep), dtype=np.int64)
    for k in range(codebook.num_keys):
        # sort worst-first: high p_hat, then low id; drop the head
        order = sorted(range(codebook.num_messages), key=lambda j: (-report.p_hat[k, j], codebook.message_ids[k, j]))
        kept = sorted(order[drop:])
        # kept indexes range(num_messages), so clipping moves nothing; unlike
        # the default mode="raise", "clip" writes into out without buffering
        # a (keep, n) copy of the words
        np.take(codebook.codewords[k], kept, axis=0, out=new_words[k], mode="clip")
        new_ids[k] = codebook.message_ids[k, kept]
    return PpmCodebook(
        params=codebook.params,
        num_messages=keep,
        num_keys=codebook.num_keys,
        seed=codebook.seed,
        codewords=new_words,
        message_ids=new_ids,
    )


METHOD_EXACT = "EXACT"
METHOD_MC = "MONTE_CARLO"


@dataclass(frozen=True)
class CovertnessReport:
    """An adversary-divergence figure D(Qhat || Q0^n), exact or estimated.

    ``stderr`` is None for exact enumerations; ``samples`` counts Monte-Carlo
    draws, or the states (chunk types for ppm_output_kl) an exact method sums.
    """

    method: str
    kl_estimate: float
    stderr: float | None
    samples: int


def _warden_deltas(wz: Bdmc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(active symbol set, base log-probs, active-vs-idle log ratios with q1 floored at 1e-300)."""
    qz0, qz1 = wz.w[0], wz.w[1]
    active = np.flatnonzero(qz0 > 0.0)
    base_logs = np.log(qz0[active])
    return active, base_logs, np.log(np.maximum(qz1[active], 1e-300)) - base_logs


_PRODUCT_BLOCK = 1 << 18  # entries of one ratio block in _mixture_kl
_REPAIR_BELOW = 1e-250  # ratio sums below this are recomputed in the log domain


def _half_states(wcols: np.ndarray, base_logs: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scores, base log-probs) of every output state on the k columns of ``wcols`` (C, k).

    State i spells its symbols as the k base-a digits of i (a = d.size), most
    significant first; scores[i, c] = sum_t d[z_t] wcols[c, t] and
    base[i] = sum_t base_logs[z_t].
    """
    a, k = d.size, wcols.shape[1]
    idx = np.arange(a**k, dtype=np.int64)
    z = (idx[:, None] // a ** np.arange(k - 1, -1, -1, dtype=np.int64)) % a
    return d[z] @ wcols.T, base_logs[z].sum(axis=1)


def _mixture_kl(words: np.ndarray, base_logs: np.ndarray, d: np.ndarray) -> float:
    """D(Qhat || Q0^n) of the uniform mixture of the binary ``words`` (C, n), unclamped.

    Outputs range over the active alphabet, with log Q0 = ``base_logs`` and
    active-vs-idle log ratios ``d`` (finite).  Only the pulse columns U count:
    where every word is idle, Qhat and Q0^n share the factor Q0(z_t), which
    cancels from the ratio R = Qhat / Q0^n and sums out of the divergence.
    R factorises over columns, R(z) = (1/C) sum_c exp(S_A[z_A, c] + S_B[z_B, c])
    for any split of U into halves A and B, so the a^|U| ratios are products of
    one (a^|A|, C) and one (C, a^|B|) matrix.  Shifting the factors by
    beta_c = max S_B[:, c] and alpha_i = max_c (S_A[i, c] + beta_c) keeps every
    entry of both in (0, 1]; a ratio block whose product falls below
    _REPAIR_BELOW, where underflow in the factors could matter, is recomputed
    from a log-sum-exp over the words.  Blocks hold at most _PRODUCT_BLOCK
    ratios, whatever n and C are.
    """
    _, wmat = _pulse_columns(words)
    num_words = wmat.shape[0]
    half = wmat.shape[1] // 2
    s_a, b_a = _half_states(wmat[:, :half], base_logs, d)
    s_b, b_b = _half_states(wmat[:, half:], base_logs, d)
    beta = s_b.max(axis=0)
    alpha = (s_a + beta).max(axis=1)
    e_a = np.exp(s_a + beta - alpha[:, None])
    e_b = np.exp(s_b - beta).T
    log_c = np.log(np.float64(num_words))  # the ufunc of log(m) below: m == C gives log R == 0 exactly
    n_a, n_b = s_a.shape[0], s_b.shape[0]
    cols_blk = min(n_b, _PRODUCT_BLOCK)
    rows_blk = max(1, _PRODUCT_BLOCK // cols_blk)
    repair_blk = max(1, _PRODUCT_BLOCK // num_words)
    kl = 0.0
    for i0 in range(0, n_a, rows_blk):
        rows = slice(i0, min(i0 + rows_blk, n_a))
        for j0 in range(0, n_b, cols_blk):
            cols = slice(j0, min(j0 + cols_blk, n_b))
            m = e_a[rows] @ e_b[:, cols]
            with np.errstate(divide="ignore"):
                log_r = np.log(m) + (alpha[rows] - log_c)[:, None]
            if m.min() < _REPAIR_BELOW:
                low_i, low_j = np.nonzero(m < _REPAIR_BELOW)
                for k0 in range(0, low_i.size, repair_blk):
                    ii, jj = low_i[k0 : k0 + repair_blk], low_j[k0 : k0 + repair_blk]
                    log_r[ii, jj] = _logsumexp_rows(s_a[rows][ii] + s_b[cols][jj]) - log_c
            log_q = log_r + b_a[rows, None] + b_b[None, cols]
            kl += float(np.sum(np.exp(log_q) * log_r))
    return kl


def covertness_exact(codebook: PpmCodebook, wz: Bdmc, max_states: int = 2**24) -> CovertnessReport:
    """Exact D(Qhat || Q0^n) of the code's output mixture by full enumeration.

    Qhat is the uniform mixture over all retained (key, message) words pushed
    through the adversary channel.  Raises ResourceLimitError when |Z|^n
    exceeds ``max_states``; below the cap, only supp(Q0)^n counts (the rest
    carries no Qhat mass, or makes the divergence infinite, which is detected
    up front), and ``samples`` reports those a^n states.  Returns +inf when an
    active word can emit a symbol Q0 never emits.  The sum runs over the pulse
    columns only and is split into two column halves, so it costs about
    a^|U| ratio entries from one matrix product instead of a^n word scores
    (see _mixture_kl).
    """
    n = codebook.params.n
    if wz.num_outputs**n > max_states:
        raise ResourceLimitError(
            f"exact covertness needs {wz.num_outputs}^{n} = {wz.num_outputs**n} states, "
            f"above the cap {max_states}; use covertness_mc"
        )
    qz0, qz1 = wz.w[0], wz.w[1]
    words = codebook.flat_words()
    if np.any((qz1 > 0.0) & (qz0 <= 0.0)) and np.any(words.sum(axis=1) > 0):
        return CovertnessReport(METHOD_EXACT, float("inf"), None, 0)
    active, base_logs, d = _warden_deltas(wz)
    kl = _mixture_kl(words, base_logs, d)
    return CovertnessReport(METHOD_EXACT, max(kl, 0.0), None, int(active.size**n))


def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    top = m.max(axis=1)
    return top + np.log(np.exp(m - top[:, None]).sum(axis=1))


def covertness_mc(codebook: PpmCodebook, wz: Bdmc, samples: int, seed: int) -> CovertnessReport:
    """Unbiased Monte-Carlo estimate of D(Qhat || Q0^n).

    Draws (key, message) uniformly, pushes the word through the adversary
    channel, and averages log Qhat(z) - log Q0^n(z); the mixture likelihood is
    evaluated exactly over all retained words, so the estimator's only error
    is sampling noise (stderr is reported).  Each sample draws uniforms,
    samples and scores only at the book's pulse columns U: where every word is
    idle, Qhat and Q0^n share the factor Q0(z_i), which cancels in the ratio.
    A block of _blocks draws t word choices, then t*|U| uniforms, so the block
    size is part of the random stream.  The outputs gather their log ratios by
    fancy indexing: np.take would first copy the uint8 sampler index to an
    intp array, eight bytes per entry, which adds about 8 MiB to a full block.
    """
    if samples < 100:
        raise DomainError(f"need at least 100 samples, got {samples!r}")
    qz0, qz1 = wz.w[0], wz.w[1]
    words = codebook.flat_words()
    if np.any((qz1 > 0.0) & (qz0 <= 0.0)) and np.any(words.sum(axis=1) > 0):
        return CovertnessReport(METHOD_MC, float("inf"), None, samples)
    cols, wmat = _pulse_columns(words)
    log_c = math.log(wmat.shape[0])
    d_full = np.where(qz0 > 0.0, np.log(np.maximum(qz1, 1e-300)) - np.log(np.maximum(qz0, 1e-300)), 0.0)
    cum0 = _cumulative(qz0)
    cum1 = _cumulative(qz1)
    gen = _stream(seed, _TAG_COVERT)
    vals = np.empty(samples)
    for done, t in _blocks(samples, cols.size):
        choice = gen.integers(0, wmat.shape[0], size=t)
        z = _sample_at_pulses(gen, t, cols, wmat[choice] == 1.0, cum0, cum1)
        scores = d_full[z] @ wmat.T
        vals[done : done + t] = _logsumexp_rows(scores) - log_c
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return CovertnessReport(METHOD_MC, est, stderr, samples)


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


def ppm_output_kl(params: PpmParams, q0: ProbVector, q1: ProbVector, max_states: int = 2**24) -> CovertnessReport:
    """Exact divergence of the ensemble-average PPM output law from Q0^n.

    The ensemble law factorizes over chunks, so the divergence is l times
    D(P_chunk || Q0^w).  P_chunk mixes the w one-pulse words uniformly, so
    R = P_chunk / Q0^w = (1/w) sum_a N_a e^{d_a} (d as in _warden_deltas)
    depends on a chunk only through its type N, and D = sum_N Mult(w; q0)(N)
    R(N) log R(N) sums over C(w + a - 1, a - 1) types (Csiszar, "The Method of
    Types", 1998), log R shifted by the largest d_a in N so no term underflows.
    ``samples`` is the number of types; above ``max_states`` of them this raises
    ResourceLimitError.  covertness_mc on the w x w identity book samples it.
    """
    w, l = params.w, params.l
    if np.any((q1.probs > 0.0) & (q0.probs <= 0.0)):
        return CovertnessReport(METHOD_EXACT, float("inf"), None, 0)
    _, base_logs, d = _warden_deltas(Bdmc(np.stack([q0.probs, q1.probs])))
    a = d.size
    types = math.comb(w + a - 1, a - 1)
    if types > max_states:
        raise ResourceLimitError(
            f"exact chunk law needs C({w + a - 1}, {a - 1}) = {types} types, above the cap "
            f"{max_states}; covertness_mc on the {w} x {w} identity book estimates it"
        )
    log_fact = np.fromiter(map(math.lgamma, range(1, w + 2)), dtype=np.float64, count=w + 1)
    kl = 0.0
    for counts in _type_blocks(a, w, _PRODUCT_BLOCK):
        log_mass = log_fact[w] - log_fact[counts].sum(axis=1) + counts @ base_logs
        top = np.where(counts > 0, d, -np.inf).max(axis=1)  # absent d above it are clamped: no inf * 0
        log_r = top + np.log((counts * np.exp(np.minimum(d - top[:, None], 0.0))).sum(axis=1) / w)
        kl += float(np.sum(np.exp(log_mass + log_r) * log_r))
    return CovertnessReport(METHOD_EXACT, max(kl, 0.0) * l, None, types)


@dataclass(frozen=True)
class SStatReport:
    """Sampled chunk statistic with its analytic support bounds."""

    mean: float
    stderr: float
    sample_min: float
    sample_max: float
    bound_low: float
    bound_high: float


def sample_s_statistic(
    q: DecodingMetric,
    p0: ProbVector,
    p1: ProbVector,
    w: int,
    s: float,
    samples: int,
    seed: int,
) -> SStatReport:
    """Draw the per-chunk decoding exponent S and report mean, spread, and bounds.

    One chunk has its active output Y1 ~ p1 and w-1 idle outputs ~ p0;
    S = -log[(1/w) sum_j exp(s (rhat(Yj) - rhat(Y1)))] with the j=1 term equal
    to 1.  Every sample lies in the closed interval [bound_low, bound_high]
    determined by the extreme metric ratios over the supports of p1 and p0;
    the mean approaches the tilt value f(s) as w grows.  Chunks are drawn by
    _sample_at_pulses, active output in column 0.
    """
    if w < 2:
        raise DomainError(f"w must be at least 2, got {w!r}")
    if s < 0.0:
        raise DomainError(f"s must be nonnegative, got {s!r}")
    if samples < 2:
        raise DomainError("need at least 2 samples for a standard error")
    if q.num_outputs != len(p0) or len(p0) != len(p1):
        raise DimensionError("metric and output laws must share one alphabet")
    rhat = _log_ratio(q)
    supp0, supp1 = p0.support(), p1.support()
    if supp1.size == 0 or supp0.size == 0:
        raise DomainError("both output laws need nonempty support")
    # Sharp support interval: the j=1 term of the average is always exp(0)=1,
    # the other w-1 exponents range over s*(rhat(idle) - rhat(active)).
    a = s * (float(rhat[supp1].max()) - float(rhat[supp0].min()))
    b = s * (float(rhat[supp0].max()) - float(rhat[supp1].min()))
    log_w1 = math.log(w - 1)
    bound_high = math.log(w) - float(np.logaddexp(0.0, log_w1 - a))
    bound_low = math.log(w) - float(np.logaddexp(0.0, log_w1 + b))

    gen = _stream(seed, _TAG_SSTAT)
    cum0 = _cumulative(p0.probs)
    cum1 = _cumulative(p1.probs)
    cols = np.arange(w)
    vals = np.empty(samples)
    for done, t in _blocks(samples, w):
        r_all = rhat[_sample_at_pulses(gen, t, cols, (slice(None), 0), cum0, cum1)]
        vals[done : done + t] = math.log(w) - _logsumexp_rows(s * (r_all - r_all[:, :1]))
    return SStatReport(
        mean=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / math.sqrt(samples)),
        sample_min=float(vals.min()),
        sample_max=float(vals.max()),
        bound_low=bound_low,
        bound_high=bound_high,
    )


def prescribed_log_sizes(rate: float, t: float, kl_warden: float, n: int, eta1: float = 0.05, eta2: float = 0.05) -> tuple[float, float]:
    """Reference (log |M|, log |K|) for blocklength n at achievable rate ``rate``.

    The payload carries sqrt(n) (rate - eta1) nats; the key tops the total up
    to sqrt(n) (t * kl_warden + eta2) when the adversary's channel is the more
    informative one.  Purely advisory for sizing simulations.
    """
    root = math.sqrt(n)
    log_m = max(0.0, root * (rate - eta1))
    log_mk = max(log_m, root * (t * kl_warden + eta2))
    return log_m, log_mk - log_m
