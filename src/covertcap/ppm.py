"""Position-modulated covert codes: construction, decoding, and diagnostics.

A length-n codeword is split into l chunks of w symbols (w = n // l, tail of
r = n - w*l symbols always idle); each chunk carries exactly one active symbol
whose position is the payload.  With l ~ t*sqrt(n) active symbols the code
meets the adversary's divergence budget while carrying Theta(sqrt(n)) nats.

Randomness comes from keyed streams, one per sub-code and job: _stream seeds
PCG64 with SeedSequence(seed, spawn_key=(purpose tag, c1, c2)).  Sub-code k's
words are one draw of its (M, l) chunk offsets from the stream at (c1, c2) =
(k, 0), so a book's first m messages do not depend on M.  Its decode trials
take their seeds from one SeedSequence keyed (error tag, k, M): four words
of its state per pair, which PCG64 reads as it would from its own
SeedSequence (_pair_seeds, _seeded_stream), and each pair's trials are read
in order from its stream.  So any book or report regenerates bit-identically
whatever the iteration order or thread schedule, and the re-estimate of an
expurgated book (fewer messages per sub-code) reads none of the streams of
the first pass.  covertness_mc reads the one stream keyed by (seed, its tag);
every Monte-Carlo loop takes its block sizes from one rule, _blocks, so a
block's memory does not grow with n.
A block of about _PULSE_BLOCK uniforms is drawn a few rows at a time, about
_SAMPLE_CHUNK uniforms per draw, and each chunk is sampled straight into the
block's uint8 outputs (_sample_at_pulses): the uniforms, 32-bit halves of
PCG64 outputs, take 256 KiB (or one row, where a row holds more) and the
outputs 1 MiB.  The stream is read in the same row order whatever the chunk
size.

A book stores each word as its pulse positions, all words of one weight L,
not as n bytes, and every array built from it spans only its pulse columns,
the columns where some word of the book (or sub-code) is active.  Decode
trials and covertness samples draw uniforms, and so channel outputs, only
there.  Neither the metric score nor the warden's mixture likelihood depends
on an output where every word is idle, and with l ~ sqrt(n) pulses per word
those columns are a shrinking share of the block: idle columns cost no draws.
Every sampler inverts a channel row's cumulative law by counting the integer
thresholds floor(cum_k 2^32) at or below each uniform (_sample_symbols), which
for these few-output alphabets is faster than a binary search and returns the
same index, with each symbol's probability within 2^-32 of its mass.

The decoder's metric score and the warden's mixture likelihood are one
operation, a sum of a table at each word's pulse slots, and one scorer does it
for decode trials and covertness samples: _slot_scores, which gives a block's
scores as an (M, t) matrix.  A trial is decoded correctly when every
rival's score is below its own word's by more than TIE_TOL.  A narrow sub-code,
one with at most _SLOT_SCORING_RATIO pulse columns per pulse of a word, is
decoded instead by one small matrix product of its words with the outputs' log
ratios, the cheaper scorer where the words share most of a few columns (see
_pair_errors).

covertness_exact keeps only the pulse columns, splits them into two halves,
and gets the mixture's likelihood ratio on every output state from one matrix
product of the two halves' score tables (_mixture_kl).  ppm_output_kl sums
the one-pulse chunk law over types, not states: its ratio depends on a chunk
only through the count of each output symbol, as chunk_statistic_mean's does.
"""

from __future__ import annotations

import functools
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
    _type_blocks,
    chi2_divergence,
)

# purpose tags keep the keyed streams of different jobs disjoint
_TAG_CODEBOOK = 1
_TAG_ERROR = 2
_TAG_COVERT = 3

_MASK64 = (1 << 64) - 1

# a sub-code with more pulse columns than this many times its pulses per word is
# decoded at its words' own slots, a narrower one by a matrix product with its
# (M, |U|) word matrix.  The break-even of the two scorers: slot time over product
# time of _pair_errors on example1 books at n = 10^4, 25 trials per pair, was
# 1.08-1.15 at |U|/l = 8, 1.03-1.17 at 15.8, 0.81-1.00 at 31 and 0.43-0.50 at 60;
# at 10^4 trials it was 0.7-1.2 throughout (2-vCPU Xeon, numpy 2.4.6)
_SLOT_SCORING_RATIO = 16
# largest arrays built from a book: its K*M*l positions and one narrow sub-code's
# float64 word matrix, M x |U| with |U| <= min(n, 16*l, M*l), or its dense view;
# also a Monte-Carlo estimator's float64 values, one per sample (_check_samples).
# Monte-Carlo blocks are bounded apart from the book, by _PULSE_BLOCK
MAX_CODEBOOK_BYTES = 2**30
# entries of one slot gather of _slot_scores, a cache-sized share of the (l*M, t)
# gather: as one piece it scored decode trials 2.8-3.6x slower at 40 to 655 trials
# of a 64-word sub-code at n = 10^4, and 3.2x at 18 trials at n = 10^7
_SLOT_GATHER = 1 << 15
# uniforms per block of any Monte-Carlo loop, sampled into 1 MiB of uint8 outputs;
# only a draw's uint32 uniforms are built beside them, so sampling takes 1.25 MiB
# (scoring may still build floats of up to 8 MiB: covertness_mc's scores of a
# book of many words, or a narrow sub-code's looked-up outputs)
_PULSE_BLOCK = 1 << 20
# uniforms per draw of _sample_at_pulses, a few rows of a block at a time: one
# draw's uint32 uniforms take 256 KiB, or one row where a row holds more
_SAMPLE_CHUNK = 1 << 16
# most decode trials per block of _pair_errors; the count does not depend on it
_TRIAL_BLOCK = 1024
# largest count an exact covertness sum enumerates: output states of covertness_exact,
# which simulate runs up to this count and covertness_mc above it, or chunk types (_chunk_types)
MAX_EXACT_STATES = 2**24


def _check_samples(samples: int) -> None:
    """Raise ResourceLimitError, before anything is drawn, when ``samples`` float64 values exceed MAX_CODEBOOK_BYTES."""
    if 8 * samples > MAX_CODEBOOK_BYTES:
        raise ResourceLimitError(f"{samples} samples need {8 * samples} bytes of values, above the cap {MAX_CODEBOOK_BYTES}")


def _stream(seed: int, tag: int, c1: int = 0, c2: int = 0) -> np.random.Generator:
    """PCG64 generator keyed by SeedSequence(seed mod 2^64, spawn_key=(tag, c1, c2)):
    the seed is padded to the pool size before the spawn key is mixed in, so the
    fields never run into each other as in one flat list of 32-bit words."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed & _MASK64, spawn_key=(tag, c1, c2))))


def _pair_seeds(seed: int, k: int, num_messages: int) -> np.ndarray:
    """(num_messages, 4) uint64 seed words of sub-code k's decode-trial streams, one row per
    pair, all from one SeedSequence(seed mod 2^64, spawn_key=(error tag, k, num_messages)).
    Its first row is the one PCG64 reads from that SeedSequence, so pair 0's stream is
    _stream(seed, _TAG_ERROR, k, num_messages)."""
    state = np.random.SeedSequence(seed & _MASK64, spawn_key=(_TAG_ERROR, k, num_messages)).generate_state(4 * num_messages, np.uint64)
    return state.reshape(num_messages, 4)


def _seeded_stream(words: np.ndarray) -> np.random.Generator:
    """PCG64 generator seeded by the four uint64 ``words`` (a row of _pair_seeds), as PCG64
    seeds itself from a SeedSequence whose generate_state(4, uint64) gives those words:
    about 1 us, against about 14 us for a keyed SeedSequence."""
    return np.random.Generator(np.random.PCG64(_seed_words()(words)))


@functools.cache
def _seed_words() -> type:
    """A numpy ISeedSequence that hands PCG64 fixed seed words.  Built on first use: importing
    numpy.random, which ``import covertcap`` otherwise leaves alone, costs 9-17 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its four uint64 words, no other call is made

    return SeedWords


def _blocks(total: int, width: int, most: int | None = None):
    """(start, size) of consecutive blocks covering ``total`` draws of ``width`` uniforms each:
    at most ``most`` draws and about _PULSE_BLOCK uniforms per block, at least one draw."""
    step = max(1, min(most or total, _PULSE_BLOCK // max(1, width)))
    return ((start, min(step, total - start)) for start in range(0, total, step))


def _sample_symbols(thresholds: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse-CDF samples at uint32 uniforms ``u`` of the law with ``thresholds`` (_thresholds), written into ``out`` if given.

    Counts the thresholds at or below each u (sequential-search inversion;
    Devroye 1986, section III.2).  They are nondecreasing, so those at or
    below u form a prefix and the count is searchsorted(thresholds, u,
    side="right").  Its cost is linear in the alphabet, but for the few
    outputs of the channels here it beats a binary search (they tie near 128
    outputs), helped by an index of the narrowest unsigned type that holds
    the count (uint8 below 256 outputs).
    """
    if out is None:
        out = np.empty(u.shape, dtype=np.min_scalar_type(thresholds.size))
    first = thresholds[0] if thresholds.size else np.uint64(2**32)  # no threshold: above every u
    np.greater_equal(u, first, out=out)  # the first count is written, not added to zeros
    for c in thresholds[1:]:
        out += u >= c
    return out


def _thresholds(p: np.ndarray) -> np.ndarray:
    """The uint32 thresholds floor(cum_k 2^32) of the law ``p`` for cum_k < 1 before its last
    symbol of positive mass: a prefix, none clamped to 2^32 - 1, so each symbol is drawn
    with probability within 2^-32 of its mass and a zero-mass one never, even where cum
    falls short of 1 by rounding before trailing zeros."""
    cum = np.cumsum(p[: np.flatnonzero(p).max(initial=0)])
    return (cum[cum < 1.0] * 2.0**32).astype(np.uint32)  # the scaling is exact, so the cast floors


def _states_exceed(a: int, n: int, cap: int) -> bool:
    """Whether a^n > cap, exactly, without forming a^n: for a >= 2, a^b > cap once b reaches cap's bit length."""
    return a ** min(n, cap.bit_length()) > cap


def _pulse_slots(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(columns U where some word is active, each word's (L,) slots: its positions' indices in U)."""
    cols, inverse = np.unique(positions, return_inverse=True)
    return cols, inverse.reshape(math.prod(positions.shape[:-1]), positions.shape[-1])


def _word_matrix(slots: np.ndarray, width: int) -> np.ndarray:
    """The words with ``slots`` on ``width`` pulse columns as floats; column-major, the layout
    the narrow decode product ``words @ x.T`` was tuned on (7% slower row-major on 16 x 18 words)."""
    words = np.zeros((len(slots), width), order="F")
    words[np.arange(len(slots))[:, None], slots] = 1.0
    return words


def _sub_code_pulses(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(pulse columns U, slots, word matrix) of one sub-code's (M, L) positions; the
    matrix only for a narrow sub-code, |U| <= _SLOT_SCORING_RATIO * L, else None."""
    cols, slots = _pulse_slots(positions)
    if cols.size > _SLOT_SCORING_RATIO * slots.shape[1]:
        return cols, slots, None
    return cols, slots, _word_matrix(slots, cols.size)


def _slot_scores(table: np.ndarray, y: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(M, t) sums of ``table`` at each word's pulse slots: entry [m, i] sums table[y[i, u]]
    over the slots u of word m, for t blocks of outputs ``y`` (t, |U|) on the pulse columns U.

    The outputs are transposed to a contiguous (|U|, t) array.  Its rows are
    gathered at the slot-major slot table (entry i*M + m is slot i of word m) a
    few whole slots at a time, about _SLOT_GATHER entries but at least one slot
    of all M words, and each piece is summed over its slots: however large l
    is, the temporaries stay in cache on short blocks and within M*t entries on
    long ones.  The gathers are np.take, which on short blocks beats fancy
    indexing with the uint8 sampler index (2.4x on 1024 trials x 17 columns),
    though it copies each piece's index to intp first: 8 bytes per entry, as
    many as the piece's looked-up floats.
    """
    M, t = len(slots), len(y)
    yt = np.ascontiguousarray(y.T)
    flat = slots.T.ravel()
    step = M * max(1, _SLOT_GATHER // (M * t))  # whole slots of all M words per gather
    scores = np.zeros((M, t))
    for lo in range(0, flat.size, step):
        scores += np.take(table, np.take(yt, flat[lo : lo + step], axis=0)).reshape(-1, M, t).sum(axis=0)
    return scores


def _sample_at_pulses(gen, t, cols, pulses, thr0, thr1) -> np.ndarray:
    """Outputs at columns ``cols`` of t channel blocks, one uniform per entry.

    A row of |cols| entries reads ceil(|cols|/2) PCG64 outputs and takes the
    first |cols| of their 32-bit halves, low half first on any host, so idle
    columns draw nothing.  Rows are drawn a few at a time, about _SAMPLE_CHUNK
    uniforms per draw and at least one row, and each chunk is sampled straight
    into the (t, |cols|) outputs: every entry is inverse-CDF sampled at
    thresholds thr0, then the chunk's pulse entries are sampled again at thr1
    and overwrite theirs.  ``pulses`` holds the pulse entries' column indices:
    for the same columns in every row, a 1-d array (a word of the decode
    trials) or one index, or a (t, L) array of each row's own
    (covertness_mc).  The outputs, and where the stream is left, are the same
    for any chunk size.
    """
    y = np.empty((t, cols.size), dtype=np.min_scalar_type(max(thr0.size, thr1.size)))
    step = max(1, _SAMPLE_CHUNK // max(1, cols.size))
    shared = np.ndim(pulses) < 2
    for lo in range(0, t, step):
        hi = min(lo + step, t)
        u = gen.bit_generator.random_raw((hi - lo, (cols.size + 1) // 2)).astype("<u8", copy=False).view("<u4")[:, : cols.size]
        at = (slice(None), pulses) if shared else (np.arange(hi - lo)[:, None], pulses[lo:hi])
        _sample_symbols(thr0, u, y[lo:hi])
        y[lo:hi][at] = _sample_symbols(thr1, u[at])
    return y


@dataclass(frozen=True)
class PpmParams:
    """Chunk schedule of n symbols in l chunks: width w = n // l, idle tail of length r = n % l."""

    n: int
    l: int

    def __post_init__(self):
        if not 1 <= self.l <= self.n:
            raise DomainError(f"need 1 <= l <= n, got n={self.n}, l={self.l}")

    @property
    def w(self) -> int:
        return self.n // self.l

    @property
    def r(self) -> int:
        return self.n % self.l


def _slack(n: int, delta: float) -> float:
    return 2.0 * delta - n ** (-1.0 / 3.0)


def _chunks(n: int, delta: float, c2: float) -> int:
    """The schedule's l at blocklength n, or 0 where the budget leaves no slack."""
    slack = _slack(n, delta)
    return int(math.floor(math.sqrt(slack * n / c2))) if slack > 0.0 else 0


def _smallest_n(ok) -> int:
    """Smallest n >= 1 passing ``ok``, a test that holds for every n past its first pass, by doubling then bisection."""
    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _workable_from(delta: float, c2: float) -> int:
    """Smallest n from which every larger n has a schedule, 1 <= l <= n.

    l >= 1, once met, holds for every larger n, but l <= n does not: it fails
    where slack(n) n / (n + 1)^2 >= chi2, and that ratio rises until the
    first n where 2 delta (1 - n) + (4/3) n^(2/3) - (2/3) n^(-1/3), the sign
    of its slope, is <= 0, then falls.  So l <= m holds for every m >= n iff
    it holds at the larger of n and each of the two integers around that turn.
    """
    turn = _smallest_n(lambda m: 2.0 * delta * (1 - m) + (4.0 / 3.0) * m ** (2.0 / 3.0) - (2.0 / 3.0) * m ** (-1.0 / 3.0) <= 0.0)
    return _smallest_n(
        lambda n: _chunks(n, delta, c2) >= 1 and all(_chunks(m, delta, c2) <= m for m in (max(n, turn - 1), max(n, turn)))
    )


def ppm_params(n: int, delta: float, q0: ProbVector, q1: ProbVector) -> PpmParams:
    """Chunk schedule meeting the divergence budget delta against warden (q0, q1).

    l = floor(sqrt((2 delta - n^(-1/3)) n / chi2(q1 || q0))), w = n // l,
    r = n - w l.  Raises DomainError when the budget leaves no slack at this
    blocklength, admits no chunk, or makes more chunks than symbols; each
    message names the n from which every larger blocklength is workable.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be a positive real, got {delta!r}")
    c2 = chi2_divergence(q1, q0)
    if c2 == 0.0 or not math.isfinite(c2):
        raise DomainError("warden marginals must differ and q1 must be dominated by q0")
    l = _chunks(n, delta, c2)
    if 1 <= l <= n:
        return PpmParams(n, l)
    if _slack(n, delta) <= 0.0:
        why = f"n={n} is too small for delta={delta}: need 2*delta > n^(-1/3), i.e. n >= {_smallest_n(lambda m: _slack(m, delta) > 0.0)}"
    elif l < 1:
        why = f"n={n} admits no chunk at delta={delta} (chi2={c2:.6g})"
    else:
        why = f"schedule degenerate at n={n}, delta={delta}: more chunks than symbols (l={l})"
    raise DomainError(f"{why}; every n >= {_workable_from(delta, c2)} is workable")


@dataclass(frozen=True)
class PpmCodebook:
    """Codewords for every (key, message) pair, with their original message ids.

    ``positions[k, j]`` lists the active symbols of the j-th retained message
    of sub-code k, whose public identity is ``message_ids[k, j]``: strictly
    increasing positions in [0, n).  Every word of a book has one weight L
    (L = l for generated books), so the book takes K*M*L integers instead of
    K*M*n bytes; L = 0 is an all-idle book.  Expurgation produces books whose
    retained sets differ per key.  Words are not forced to the chunk structure
    here so that degenerate books (hand-built, all-idle or dense) remain
    expressible in tests; ``generate_codebook`` guarantees the structure for
    the books it makes.
    """

    params: PpmParams
    positions: np.ndarray
    message_ids: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64)
        ids = np.asarray(self.message_ids, dtype=np.int64)
        if pos.ndim != 3:
            raise DimensionError(f"positions must have shape (K, M, L), got {pos.shape}")
        if ids.shape != pos.shape[:2]:
            raise DimensionError(f"message_ids must have shape {pos.shape[:2]}, got {ids.shape}")
        if pos.min(initial=0) < 0 or pos.max(initial=0) >= self.params.n or _misplaced(pos):
            raise DomainError(f"positions must increase within [0, {self.params.n})")
        pos.setflags(write=False)
        ids.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "message_ids", ids)

    @property
    def num_keys(self) -> int:
        return self.positions.shape[0]

    @property
    def num_messages(self) -> int:
        return self.positions.shape[1]

    @property
    def codewords(self) -> np.ndarray:
        """The (num_keys, num_messages, n) binary words, built on each access; refused above MAX_CODEBOOK_BYTES."""
        size = self.num_keys * self.num_messages * self.params.n
        if size > MAX_CODEBOOK_BYTES:
            raise ResourceLimitError(f"dense view of the book needs {size} bytes, above the cap {MAX_CODEBOOK_BYTES}")
        words = np.zeros((self.num_keys, self.num_messages, self.params.n), dtype=np.uint8)
        np.put_along_axis(words, self.positions, 1, axis=2)
        return words


def _misplaced(pos: np.ndarray) -> bool:
    """Whether a pulse does not exceed its predecessor.

    Rows are checked in blocks of about 2^16 positions, so the masks stay
    small however large the book is.
    """
    rows = pos.reshape(pos.shape[0] * pos.shape[1], pos.shape[2])
    step = max(1, (1 << 16) // max(1, pos.shape[-1]))
    for lo in range(0, len(rows), step):
        prev, nxt = rows[lo : lo + step, :-1], rows[lo : lo + step, 1:]
        if np.any(prev >= nxt):
            return True
    return False


def generate_codebook(params: PpmParams, num_messages: int, num_keys: int, seed: int) -> PpmCodebook:
    """Independent uniform chunk positions for every (key, message) pair.

    Sub-code k is one stream's draw: its (M, l) chunk offsets are one
    ``integers`` call on the stream keyed (seed, codebook tag, k), row-major,
    so word (k, m) is a pure function of (seed, k, m) for any M > m: a book's
    first m messages do not depend on M, nor on the order sub-codes are visited
    in.  Raises ResourceLimitError, before allocating, when the largest arrays
    built from the book would take more than MAX_CODEBOOK_BYTES: its positions,
    and the word matrix of one sub-code narrow enough for estimate_error to
    decode by a product, M x |U| floats with |U| at most min(n, 16 l, M l).
    """
    if num_messages < 1 or num_keys < 1:
        raise DomainError("need at least one message and one key")
    narrow = min(params.n, _SLOT_SCORING_RATIO * params.l, num_messages * params.l)
    size = 8 * num_messages * (num_keys * params.l + narrow)
    if size > MAX_CODEBOOK_BYTES:
        raise ResourceLimitError(
            f"codebook of {num_keys} keys x {num_messages} messages x {params.l} pulses (n={params.n}) "
            f"needs {size} bytes of positions and decode matrix, above the cap {MAX_CODEBOOK_BYTES}"
        )
    pos = np.empty((num_keys, num_messages, params.l), dtype=np.int64)
    starts = np.arange(params.l) * params.w
    for k in range(num_keys):
        np.add(starts, _stream(seed, _TAG_CODEBOOK, c1=k).integers(0, params.w, size=(num_messages, params.l)), out=pos[k])
    ids = np.tile(np.arange(num_messages, dtype=np.int64), (num_keys, 1))
    return PpmCodebook(params, pos, ids)


@dataclass(frozen=True)
class ErrorReport:
    """Per-pair decoding-error counts, with the estimates derived from them.

    ``errors[k, j]`` counts the failed trials of the j-th retained message of
    sub-code k (public id ``message_ids[k, j]`` of the book it was estimated
    on); ``p_hat`` is the error rate and ``ci95`` the matching
    normal-approximation half-width 1.96 sqrt(p(1-p)/trials).  ``max_overall`` is the worst pair's p_hat and
    ``ci95_halfwidth`` the half-width at the first such pair.
    """

    trials_per_pair: int
    errors: np.ndarray

    @functools.cached_property
    def p_hat(self) -> np.ndarray:
        return self.errors / float(self.trials_per_pair)

    @functools.cached_property
    def ci95(self) -> np.ndarray:
        return 1.96 * np.sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials_per_pair)

    @property
    def max_overall(self) -> float:
        return float(self.p_hat.max())

    @property
    def ci95_halfwidth(self) -> float:
        return float(self.ci95.flat[np.argmax(self.p_hat)])


def _pair_errors(gen, j, trials, thr0, thr1, rhat, pulses):
    """Error count of word j of a sub-code over ``trials`` trials read in order from ``gen``,
    the pair's own stream (_seeded_stream of its _pair_seeds row); chunking is stream-neutral.

    ``pulses`` is ``_sub_code_pulses`` of the sub-code, and ``rhat`` the
    metric's log ratios.  Every trial draws uniforms, samples and scores only
    at the sub-code's pulse columns U: a column where all its words are idle
    adds the same log q(0, y) to every score, so it cannot change the verdict.
    Word j's pulses sit on the same columns in every trial, so they are
    overwritten as whole columns.  Blocks come from _blocks, at most
    _TRIAL_BLOCK trials each.

    Scores are word-major, (M, t), by one of two scorers chosen by shape:
    - a wide sub-code (no word matrix) sums rhat at each word's l slots,
      M*l additions per trial (_slot_scores);
    - a narrow one, whose few columns most words share, scores
      ``words @ rhat(y).T``, M*|U| multiply-adds in one small BLAS product,
      which there beats the slot scorer's transpose and gathers.
    The two differ from trial-major scores only in the order of the sums, a
    rounding error that TIE_TOL absorbs.

    The verdict: trial i is decoded when max over rivals of s[., i] is below
    own = fl(s[j, i] - TIE_TOL), which is word j being the one word within
    TIE_TOL of the top score.  If j is that word, s_j is the top, so every
    rival lies below fl(top - TIE_TOL) = own.  Conversely, rivals below
    own <= s_j make s_j the strict top, so own = fl(top - TIE_TOL) and no
    rival is within TIE_TOL of it.  Exact ties therefore count as errors.
    """
    cols, slots, words = pulses
    failures = 0
    for _, t in _blocks(trials, cols.size, _TRIAL_BLOCK):
        y = _sample_at_pulses(gen, t, cols, slots[j], thr0, thr1)
        scores = _slot_scores(rhat, y, slots) if words is None else words @ np.take(rhat, y).T
        own = scores[j] - TIE_TOL
        scores[j] = -np.inf
        failures += t - np.count_nonzero(scores.max(axis=0) < own)
    return failures


def estimate_error(
    inst: CovertInstance,
    codebook: PpmCodebook,
    trials_per_pair: int,
    seed: int,
    workers: int = 1,
) -> ErrorReport:
    """Monte-Carlo decoding-error probability for every (key, message) pair.

    Pair (k, j)'s trials are read in order from its own stream, seeded by
    row j of _pair_seeds(seed, k, M): one SeedSequence per sub-code, keyed by
    (seed, error tag, k, M), gives the seeds of its M pairs, and a pair's
    generator is made only while it runs.  So the report is identical for any
    ``workers`` count and any execution order, and re-estimating an
    expurgated book, whose sub-codes hold fewer messages, reads no stream of
    the first pass.  ``workers`` threads map over one sub-code's pairs at a
    time.  A sub-code with more than _SLOT_SCORING_RATIO pulse columns per
    pulse of a word is scored at its words' slots and builds no (M, |U|)
    matrix; a narrower one is scored by a product with its word matrix, which
    lives only while its M pairs run (_pair_errors).
    """
    if trials_per_pair < 1:
        raise DomainError("trials_per_pair must be >= 1")
    thr0, thr1 = map(_thresholds, inst.wy.w)
    K, M = codebook.num_keys, codebook.num_messages

    def sub_code(mapper, k):
        pulses = _sub_code_pulses(codebook.positions[k])
        seeds = _pair_seeds(seed, k, M)
        run = lambda j: _pair_errors(_seeded_stream(seeds[j]), j, trials_per_pair, thr0, thr1, inst.q.log_ratio, pulses)
        return list(mapper(run, range(M)))

    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:  # starts no thread unless mapped on
        counts = [sub_code(pool.map if workers > 1 else map, k) for k in range(K)]

    return ErrorReport(trials_per_pair, np.array(counts, dtype=np.int64))


def expurgate(report: ErrorReport, codebook: PpmCodebook, fraction: float) -> PpmCodebook:
    """Drop the ceil(fraction * |M|) worst messages of every sub-code.

    Worst means highest estimated error; exact ties are broken toward the
    smaller message id, so the result is deterministic.  Sub-codes keep equal
    sizes.  Any prior error report refers to the old book and must be redone.
    """
    if not (0.0 <= fraction < 1.0):
        raise DomainError(f"fraction must lie in [0, 1), got {fraction!r}")
    if report.errors.shape != (codebook.num_keys, codebook.num_messages):
        raise DimensionError("error report does not match the codebook's shape")
    drop = math.ceil(fraction * codebook.num_messages)
    keep = codebook.num_messages - drop
    if keep < 1:
        raise DomainError(f"expurgating {drop} of {codebook.num_messages} messages leaves nothing")
    if drop == 0:
        return codebook

    # each sub-code's words worst first: high p_hat, then low id; drop the head
    order = np.lexsort((codebook.message_ids, -report.p_hat), axis=-1)
    kept = np.sort(order[:, drop:], axis=-1)
    rows = np.arange(codebook.num_keys)[:, None]
    return PpmCodebook(codebook.params, codebook.positions[rows, kept], codebook.message_ids[rows, kept])


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


def _mixture_kl(positions: np.ndarray, base_logs: np.ndarray, d: np.ndarray) -> float:
    """D(Qhat || Q0^n) of the uniform mixture of the words with pulse ``positions`` (..., L), unclamped.

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
    ratios, whatever n and C are, and each is evaluated in place: the log is
    taken in the product's buffer, and one log-Q buffer is exponentiated and
    multiplied by it, so a block takes two float arrays of at most 2 MiB.
    """
    cols, slots = _pulse_slots(positions)
    wmat = _word_matrix(slots, cols.size)
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
            log_r = e_a[rows] @ e_b[:, cols]  # the ratios, then their logs in place
            low_i, low_j = np.nonzero(log_r < _REPAIR_BELOW) if log_r.min() < _REPAIR_BELOW else ((), ())
            with np.errstate(divide="ignore"):
                np.log(log_r, out=log_r)
            log_r += (alpha[rows] - log_c)[:, None]
            for k0 in range(0, len(low_i), repair_blk):
                ii, jj = low_i[k0 : k0 + repair_blk], low_j[k0 : k0 + repair_blk]
                log_r[ii, jj] = _logsumexp_rows(s_a[rows][ii] + s_b[cols][jj]) - log_c
            q_log_r = np.add(log_r, b_a[rows, None])  # log Q, then Q log R in place
            q_log_r += b_b[None, cols]
            np.exp(q_log_r, out=q_log_r)
            q_log_r *= log_r
            kl += float(np.sum(q_log_r))
    return kl


def covertness_exact(codebook: PpmCodebook, wz: Bdmc) -> CovertnessReport:
    """Exact D(Qhat || Q0^n) of the code's output mixture by full enumeration.

    Qhat is the uniform mixture over all retained (key, message) words pushed
    through the adversary channel.  Raises ResourceLimitError when |Z|^n
    exceeds MAX_EXACT_STATES; below the cap, only supp(Q0)^n counts (the rest
    carries no Qhat mass, or makes the divergence infinite, which is detected
    up front), and ``samples`` reports those a^n states.  Returns +inf when an
    active word can emit a symbol Q0 never emits.  The sum runs over the pulse
    columns only and is split into two column halves, so it costs about
    a^|U| ratio entries from one matrix product instead of a^n word scores
    (see _mixture_kl).
    """
    n = codebook.params.n
    if _states_exceed(wz.num_outputs, n, MAX_EXACT_STATES):
        raise ResourceLimitError(
            f"exact covertness needs {wz.num_outputs}^{n} states, above the cap {MAX_EXACT_STATES}; use covertness_mc"
        )
    if np.any((wz.w[1] > 0.0) & (wz.w[0] <= 0.0)) and codebook.positions.size > 0:
        return CovertnessReport(METHOD_EXACT, float("inf"), None, 0)
    active, base_logs, d = _warden_deltas(wz)
    kl = _mixture_kl(codebook.positions, base_logs, d)
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
    size is part of the random stream.  Each word's log likelihood ratio sums
    the outputs' log Q1/Q0 (_warden_deltas, as for covertness_exact) at its
    slots (_slot_scores), in row chunks of _blocks that leave the draws alone:
    a chunk holds at most _PULSE_BLOCK rows x words, so its scores and each
    temporary of the scorer take at most 8 MiB.
    """
    if samples < 100:
        raise DomainError(f"need at least 100 samples, got {samples!r}")
    _check_samples(samples)
    if np.any((wz.w[1] > 0.0) & (wz.w[0] <= 0.0)) and codebook.positions.size > 0:
        return CovertnessReport(METHOD_MC, float("inf"), None, samples)
    cols, slots = _pulse_slots(codebook.positions)
    active, _, d = _warden_deltas(wz)
    d_full = np.zeros(wz.num_outputs)  # log Q1/Q0 on supp(Q0), 0 elsewhere
    d_full[active] = d
    thr0, thr1 = map(_thresholds, wz.w)
    gen = _stream(seed, _TAG_COVERT)
    vals = np.empty(samples)
    for done, t in _blocks(samples, cols.size):
        picked = slots[gen.integers(0, len(slots), size=t)]
        z = _sample_at_pulses(gen, t, cols, picked, thr0, thr1)
        for lo, r in _blocks(t, len(slots)):  # unnamed, a chunk's scores are freed before the next is built
            vals[done + lo : done + lo + r] = _logsumexp_rows(_slot_scores(d_full, z[lo : lo + r], slots).T) - math.log(len(slots))
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return CovertnessReport(METHOD_MC, est, stderr, samples)


def _chunk_types(log_p: np.ndarray, w: int, hint: str = ""):
    """(number of types, their blocks) of w draws from the law with log-probs ``log_p``: (counts,
    log multinomial mass) pairs in blocks of _type_blocks, at most _PRODUCT_BLOCK rows each.  Refuses
    more than MAX_EXACT_STATES types before it enumerates any; ``hint`` ends the message."""
    a = log_p.size
    types = math.comb(w + a - 1, a - 1)
    if types > MAX_EXACT_STATES:
        raise ResourceLimitError(
            f"exact chunk law needs C({w + a - 1}, {a - 1}) = {types} types, above the cap {MAX_EXACT_STATES}{hint}"
        )
    log_fact = np.fromiter(map(math.lgamma, range(1, w + 2)), dtype=np.float64, count=w + 1)
    return types, ((c, log_fact[w] - log_fact[c].sum(axis=1) + c @ log_p) for c in _type_blocks(a, w, _PRODUCT_BLOCK))


def ppm_output_kl(params: PpmParams, q0: ProbVector, q1: ProbVector) -> CovertnessReport:
    """Exact divergence of the ensemble-average PPM output law from Q0^n.

    The ensemble law factorizes over chunks, so the divergence is l times
    D(P_chunk || Q0^w).  P_chunk mixes the w one-pulse words uniformly, so
    R = P_chunk / Q0^w = (1/w) sum_a N_a e^{d_a} (d as in _warden_deltas)
    depends on a chunk only through its type N, and D = sum_N Mult(w; q0)(N)
    R(N) log R(N) sums over C(w + a - 1, a - 1) types (Csiszar, "The Method of
    Types", 1998), log R shifted by the largest d_a in N so no term underflows.
    ``samples`` is the number of types; above MAX_EXACT_STATES of them this raises
    ResourceLimitError.  covertness_mc on the w x w identity book samples it.
    """
    if len(q0) != len(q1):
        raise DimensionError("warden laws must share one alphabet")
    w, l = params.w, params.l
    if np.any((q1.probs > 0.0) & (q0.probs <= 0.0)):
        return CovertnessReport(METHOD_EXACT, float("inf"), None, 0)
    _, base_logs, d = _warden_deltas(Bdmc(np.stack([q0.probs, q1.probs])))
    types, blocks = _chunk_types(base_logs, w, f"; covertness_mc on the {w} x {w} identity book estimates it")
    kl = 0.0
    for counts, log_mass in blocks:
        top = np.where(counts > 0, d, -np.inf).max(axis=1)  # absent d above it are clamped: no inf * 0
        log_r = top + np.log((counts * np.exp(np.minimum(d - top[:, None], 0.0))).sum(axis=1) / w)
        kl += float(np.sum(np.exp(log_mass + log_r) * log_r))
    return CovertnessReport(METHOD_EXACT, max(kl, 0.0) * l, None, types)


def chunk_statistic_mean(q: DecodingMetric, p0: ProbVector, p1: ProbVector, w: int, s: float) -> float:
    """Exact mean of the per-chunk decoding exponent S_w = log w - log(1 + sum_a N_a e^{s (r_a - r_y)}),
    r = q.log_ratio, of an active output y ~ p1 beside w-1 idle outputs ~ p0 of type N: a sum over y
    and N (_chunk_types).  It approaches the tilt value f(s) as w grows."""
    if w < 1 or not s >= 0.0:
        raise DomainError(f"need w >= 1 and s >= 0, got w={w!r}, s={s!r}")
    if q.num_outputs != len(p0) or len(p0) != len(p1):
        raise DimensionError("metric and output laws must share one alphabet")
    sr, supp0, supp1 = s * q.log_ratio, p0.support(), p1.support()
    _, blocks = _chunk_types(np.log(p0.probs[supp0]), w - 1)
    mean = 0.0
    for counts, log_mass in blocks:
        # 1 + sum_a N_a e^{sr_a - sr_y} = 1 + e^x A with x = top - sr_y, A = sum_a N_a e^{sr_a - top} and top
        # the largest sr_a present, else the least sr_y: A >= 1 or x <= 0, so e^{-max(x, 0)} (1 + e^x A) is in [1, w]
        top = np.where(counts > 0, sr[supp0], sr[supp1].min()).max(axis=1)
        big_a = (counts * np.exp(np.minimum(sr[supp0] - top[:, None], 0.0))).sum(axis=1)  # absent sr_a clamped: no inf * 0
        mass = np.exp(log_mass)
        for p, x in zip(p1.probs[supp1], top - sr[supp1, None]):
            m = np.maximum(x, 0.0)
            mean += p * float(mass @ (-m - np.log((np.exp(-m) + np.exp(x - m) * big_a) / w)))
    return mean


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
