"""Position-modulated codes: schedules, books, decoding, and the divergence meters.

Micro instances keep every oracle exact: outputs small enough to enumerate,
product laws whose divergences factor by hand, and channels where the decoder
provably never errs (or always does).
"""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertcap import (
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    ErrorReport,
    METHOD_EXACT,
    METHOD_MC,
    PpmCodebook,
    PpmParams,
    ProbVector,
    ResourceLimitError,
    chi2_divergence,
    chunk_statistic_mean,
    covertness_exact,
    covertness_mc,
    estimate_error,
    expurgate,
    generate_codebook,
    kl_divergence,
    ppm_output_kl,
    ppm_params,
    prescribed_log_sizes,
)
from covertcap import ppm
from covertcap.core import TIE_TOL, _type_blocks
from covertcap.ppm import (
    _SLOT_SCORING_RATIO,
    _TAG_CODEBOOK,
    _TAG_COVERT,
    _TAG_ERROR,
    MAX_CODEBOOK_BYTES,
    _pair_errors,
    _pair_seeds,
    _PULSE_BLOCK,
    _pulse_slots,
    _sample_at_pulses,
    _sample_symbols,
    _seeded_stream,
    _slot_scores,
    _states_exceed,
    _stream,
    _sub_code_pulses,
    _thresholds,
    _word_matrix,
)

from conftest import WZ1, example1
from oracles import TIE, exact_chunk_statistic_mean, pcg64_seeded_state, q_decode, sample_codeword

Q0 = ProbVector(WZ1[0])
Q1 = ProbVector(WZ1[1])
WZ_BIN = Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]]))


def book(params: PpmParams, words, ids=None) -> PpmCodebook:
    """Hand-built codebook from (K, M, n) binary words of one weight, stored as their pulse positions.

    The one dense-to-positions conversion of the tests: each word's active
    columns in increasing order.
    """
    cw = np.array(words, dtype=np.uint8)
    assert cw.ndim == 3 and cw.shape[2] == params.n and cw.max(initial=0) <= 1
    weights = cw.sum(axis=2)
    assert np.all(weights == weights.max(initial=0)), "a book's words share one weight"
    pos = np.nonzero(cw)[2].reshape(cw.shape[:2] + (int(weights.max(initial=0)),))
    if ids is None:
        ids = np.tile(np.arange(cw.shape[1]), (cw.shape[0], 1))
    return PpmCodebook(params, pos, np.array(ids))


def one_weight_words(rng, shape, n, weight):
    """Binary words of shape ``shape`` + (n,), each active on ``weight`` columns drawn at random."""
    words = np.zeros(shape + (n,), dtype=np.uint8)
    for idx in np.ndindex(*shape):
        words[idx][rng.choice(n, size=weight, replace=False)] = 1
    return words


class TestPpmParams:
    def test_reference_schedule(self):
        p = ppm_params(10_000, 0.1, Q0, Q1)
        assert (p.l, p.w, p.r) == (25, 400, 0)
        assert p.n == 10_000

    def test_schedule_matches_defining_formula(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            n = int(rng.integers(500, 50_000))
            delta = float(rng.uniform(0.05, 0.4))
            chi2 = 0.45 + 0.4 + 1.6  # of the reference warden
            p = ppm_params(n, delta, Q0, Q1)
            budget = (2 * delta - n ** (-1 / 3)) * n / chi2
            assert p.l == math.floor(math.sqrt(budget))
            assert p.w == n // p.l
            assert p.r == n - p.w * p.l
            assert 0 <= p.r < p.l

    def test_too_small_n_names_the_threshold(self):
        with pytest.raises(DomainError, match="126"):
            ppm_params(100, 0.1, Q0, Q1)

    def test_no_chunk_message_names_a_workable_n(self):
        with pytest.raises(DomainError, match="admits no chunk") as exc:
            ppm_params(126, 0.1, Q0, Q1)
        n_ok = int(re.search(r"every n >= (\d+) is workable", str(exc.value)).group(1))
        assert ppm_params(n_ok, 0.1, Q0, Q1).l >= 1
        with pytest.raises(DomainError):
            ppm_params(n_ok - 1, 0.1, Q0, Q1)

    @settings(max_examples=300, deadline=None)
    @given(delta=st.floats(1e-4, 0.49), c2=st.floats(1e-3, 1e3))
    @example(delta=1e-5, c2=1.0)
    @example(delta=1e-6, c2=1e3)
    def test_hints_match_the_two_searches_they_merge(self, delta, c2):
        # the hint is the later of the two parent searches' n and the first n past
        # the run of degenerate schedules, which those searches did not see
        q0, q1 = binary_warden(c2)
        c2 = chi2_divergence(q1, q0)
        n_pos = min_n_positive_slack_reference(delta)
        n_one = min_n_for_one_chunk_reference(delta, c2)
        hint = max(n_pos, n_one, last_degenerate_reference(delta, c2) + 1)
        with pytest.raises(DomainError, match=rf"i\.e\. n >= {n_pos}; every n >= {hint} is workable$"):
            ppm_params(1, delta, q0, q1)
        if n_one > n_pos:  # else n_pos admits a chunk and no hint is given
            with pytest.raises(DomainError, match=rf"admits no chunk .*; every n >= {hint} is workable$"):
                ppm_params(n_pos, delta, q0, q1)

    @pytest.mark.parametrize(
        "delta, accepted_below, first",
        [
            (0.375, [], 62),  # the hint said n >= 3, and n = 3 to 61 were refused
            (0.3, [5, 6], 37),  # accepted at 5 and 6, refused from 7 to 36
        ],
    )
    def test_every_refusal_names_where_the_workable_tail_starts(self, delta, accepted_below, first):
        q0, q1 = binary_warden(0.0078125)
        for n in range(1, first):
            if n in accepted_below:
                assert ppm_params(n, delta, q0, q1).w >= 1
                continue
            with pytest.raises(DomainError, match=rf"; every n >= {first} is workable$"):
                ppm_params(n, delta, q0, q1)
        for n in range(first, 4 * first):
            assert ppm_params(n, delta, q0, q1).w >= 1

    def test_input_validation(self):
        for bad_n in (0, -5):
            with pytest.raises(DomainError):
                ppm_params(bad_n, 0.1, Q0, Q1)
        for bad_delta in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(DomainError):
                ppm_params(1000, bad_delta, Q0, Q1)

    def test_identical_warden_rejected(self):
        with pytest.raises(DomainError):
            ppm_params(1000, 0.1, Q0, Q0)

    def test_params_consistency_guard(self):
        p = PpmParams(10, 3)  # fine: w and r follow from n and l
        assert (p.w, p.r) == (3, 1)
        with pytest.raises(DomainError):
            PpmParams(0, 1)
        with pytest.raises(DomainError):
            PpmParams(3, 4)


def binary_warden(c2):
    """(q0, q1) on two symbols with chi2(q1 || q0) = c2 up to rounding."""
    a = 1.0 / (1.0 + c2)
    return ProbVector([a, 1.0 - a]), ProbVector([1.0, 0.0])  # chi2(q1 || q0) = (1 - a) / a


def last_degenerate_reference(delta, c2):
    """Largest n whose schedule has more chunks than symbols, 0 if none, by scanning every n
    below 2 delta / chi2, past which slack * n / chi2 < n^2 and so l <= n."""
    for n in range(int(2.0 * delta / c2) + 1, 0, -1):
        slack = 2.0 * delta - n ** (-1.0 / 3.0)
        if slack > 0.0 and math.floor(math.sqrt(slack * n / c2)) > n:
            return n
    return 0


def min_n_positive_slack_reference(delta):
    """Smallest n with 2 delta > n^(-1/3), by the integer scan near (2 delta)^-3 that ppm_params once used."""
    n = max(1, int((2.0 * delta) ** (-3.0)) - 2)
    while 2.0 * delta - n ** (-1.0 / 3.0) <= 0.0:
        n += 1
    return n


def min_n_for_one_chunk_reference(delta, c2):
    """Smallest n with positive slack and slack * n / c2 >= 1, by the doubling and bisection from the
    positive-slack n that ppm_params once used."""
    slack = lambda n: 2.0 * delta - n ** (-1.0 / 3.0)
    ok = lambda n: slack(n) > 0.0 and slack(n) * n / c2 >= 1.0
    lo = hi = min_n_positive_slack_reference(delta)
    while not ok(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestCodewordSampling:
    def test_chunk_structure(self):
        params = PpmParams(10, 3)
        rng = np.random.default_rng(71)
        for _ in range(100):
            word = sample_codeword(params, rng)
            assert word.dtype == np.uint8
            assert word.shape == (10,)
            for c in range(3):
                assert word[3 * c : 3 * (c + 1)].sum() == 1
            assert word[9] == 0

    def test_width_one_forces_all_active(self):
        params = PpmParams(4, 4)
        word = sample_codeword(params, np.random.default_rng(72))
        np.testing.assert_array_equal(word, [1, 1, 1, 1])

    def test_positions_are_uniform(self):
        params = PpmParams(4, 1)
        rng = np.random.default_rng(73)
        trials = 4000
        counts = np.zeros(4)
        for _ in range(trials):
            counts += sample_codeword(params, rng)
        sigma = math.sqrt(trials * 0.25 * 0.75)
        assert np.all(np.abs(counts - trials / 4) <= 4 * sigma)


class TestGenerateCodebook:
    PARAMS = PpmParams(8, 2)

    def test_shape_ids_and_structure(self):
        cb = generate_codebook(self.PARAMS, num_messages=5, num_keys=3, seed=11)
        assert cb.positions.shape == (3, 5, 2)
        assert cb.codewords.shape == (3, 5, 8)
        np.testing.assert_array_equal(cb.message_ids, np.tile(np.arange(5), (3, 1)))
        flat = cb.codewords.reshape(-1, 8)
        assert flat.shape == (15, 8)
        assert np.all(flat[:, :4].sum(axis=1) == 1)
        assert np.all(flat[:, 4:].sum(axis=1) == 1)

    def test_positions_are_the_drawn_words(self):
        # sub-code k is sample_codeword's M words on the one stream keyed (seed, codebook tag, k)
        cb = generate_codebook(PpmParams(10, 3), num_messages=4, num_keys=2, seed=16)
        for k in range(2):
            words = sample_codeword(cb.params, _stream(16, _TAG_CODEBOOK, c1=k), count=4)
            np.testing.assert_array_equal(cb.codewords[k], words)

    def test_regeneration_is_bit_identical(self):
        a = generate_codebook(self.PARAMS, 6, 4, seed=12)
        b = generate_codebook(self.PARAMS, 6, 4, seed=12)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_first_messages_do_not_depend_on_the_book_size(self):
        # a book's first m messages of its first keys are the same words whatever M
        # and K are, so they do not depend on the order the sub-codes are drawn in;
        # at l = 2, an odd l = 3 (offsets are drawn as 32-bit halves) and w = 1 (no draw)
        for params in (self.PARAMS, PpmParams(11, 3), PpmParams(5, 5)):
            big = generate_codebook(params, 7, 5, seed=13)
            for m, keys in ((1, 1), (3, 2), (6, 5)):
                np.testing.assert_array_equal(generate_codebook(params, m, keys, seed=13).positions, big.positions[:keys, :m])

    def test_seeds_decorrelate(self):
        a = generate_codebook(self.PARAMS, 6, 4, seed=14)
        b = generate_codebook(self.PARAMS, 6, 4, seed=15)
        assert np.any(a.positions != b.positions)

    def test_oversize_book_refused_before_allocation(self):
        # the cap bounds the book's K*M*l int64 positions plus one narrow sub-code's
        # float64 decode matrix, M x min(n, 16 l, M l): 4 sub-codes of 256 words of
        # 512 pulses take 8*256*(4*512 + 8192) = 20,971,520 bytes; at that cap 256
        # messages fit and 257 do not
        params = PpmParams(1 << 18, 1 << 9)
        size = 8 * 256 * (4 * 512 + min(params.n, _SLOT_SCORING_RATIO * 512, 256 * 512))
        with mock.patch.object(ppm, "MAX_CODEBOOK_BYTES", size):
            assert generate_codebook(params, num_messages=256, num_keys=4, seed=0).positions.shape == (4, 256, 512)
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match="cap"):
                    generate_codebook(params, num_messages=257, num_keys=4, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**16

    def test_large_wide_book_fits_the_cap(self):
        # K = 2, M = 512 at n = 10^6 (l = 278): 2.3 MB of positions, and every sub-code
        # is wide, so no decode matrix; a cap on (M, min(n, M l)) matrices refused it
        # at 8*2*512*142,336 = 1.17 GB
        params = ppm_params(10**6, 0.1, Q0, Q1)
        assert params.l == 278
        assert 8 * 2 * 512 * min(params.n, 512 * params.l) > MAX_CODEBOOK_BYTES
        cb = generate_codebook(params, num_messages=512, num_keys=2, seed=0)
        assert cb.positions.nbytes == 2 * 512 * 278 * 8
        assert _sub_code_pulses(cb.positions[0])[2] is None

    def test_long_blocks_take_memory_in_pulses_not_symbols(self):
        # n = 10^7 at the reference warden: 2 x 64 words of l = 892 pulses, 0.9 MB
        # of positions, where a dense (K, M, n) book took 1.28 GB
        params = ppm_params(10**7, 0.1, Q0, Q1)
        assert params.l == 892
        tracemalloc.start()
        try:
            cb = generate_codebook(params, num_messages=64, num_keys=2, seed=17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cb.positions.nbytes == 2 * 64 * 892 * 8
        assert peak < 4 * 2**20

    def test_binary_check_makes_no_book_sized_temporaries(self):
        # validating a prebuilt 32 MiB position book keeps its masks to small row blocks
        params = PpmParams(1 << 20, 1 << 16)
        positions = np.empty((2, 32, params.l), dtype=np.int64)
        positions[:] = np.arange(params.l) * params.w
        ids = np.tile(np.arange(32), (2, 1))
        tracemalloc.start()
        try:
            PpmCodebook(params, positions, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_needs_messages_and_keys(self):
        with pytest.raises(DomainError):
            generate_codebook(self.PARAMS, 0, 3, seed=0)
        with pytest.raises(DomainError):
            generate_codebook(self.PARAMS, 3, 0, seed=0)

    def test_book_validation(self):
        ids = np.zeros((1, 1))
        make = lambda positions: PpmCodebook(self.PARAMS, positions, ids)
        for positions in ([[[0, 4]]], [[[3]]], np.zeros((1, 1, 0))):  # L = 0 is an all-idle book
            np.testing.assert_array_equal(make(positions).positions, positions)
        np.testing.assert_array_equal(make([[[3, 7]]]).codewords, [[[0, 0, 0, 1, 0, 0, 0, 1]]])
        # out of range, negative, repeated, decreasing, and padding with -1, first, last or alone
        for row in ([0, 8], [-2, 4], [1, 1], [4, 1], [-1, 2], [3, -1], [-1]):
            with pytest.raises(DomainError, match="increase"):
                make([[row]])
        for shape in ([[0, 4]], [[[0], [4]]], [[[[0]]]]):  # 2-d, two messages, 4-d
            with pytest.raises(DimensionError):
                make(shape)
        with pytest.raises(DimensionError):
            PpmCodebook(self.PARAMS, [[[0]]], np.zeros((1, 2)))

    def test_oversize_dense_view_refused_before_allocation(self):
        # one word at n = 2^40 is 8 bytes of positions; its dense view would take 1 TiB
        cb = PpmCodebook(PpmParams(2**40, 1), [[[5]]], [[0]])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="cap"):
                cb.codewords
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_book_is_read_only(self):
        cb = generate_codebook(self.PARAMS, 2, 1, seed=18)
        with pytest.raises(ValueError):
            cb.positions[0, 0, 0] = 1
        with pytest.raises(AttributeError):
            cb.codewords = np.zeros((1, 2, 8))


class TestQDecode:
    PARAMS = PpmParams(4, 2)
    METRIC = DecodingMetric(np.array([[0.9, 0.1], [0.2, 0.8]]))
    WORDS = [[[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0]]]

    def brute_force(self, cb: PpmCodebook, y: np.ndarray) -> int:
        qmat = self.METRIC.q
        scores = [
            sum(math.log(qmat[int(b), int(sym)]) for b, sym in zip(word, y))
            for word in cb.codewords[0]
        ]
        top = max(scores)
        winners = [j for j, v in enumerate(scores) if v >= top - 1e-12]
        return TIE if len(winners) > 1 else int(cb.message_ids[0, winners[0]])

    def test_agrees_with_product_rule_everywhere(self):
        cb = book(self.PARAMS, self.WORDS)
        for idx in range(16):
            y = np.array([(idx >> i) & 1 for i in range(4)])
            assert q_decode(cb, 0, y, self.METRIC) == self.brute_force(cb, y)

    def test_clean_receptions_decode(self):
        cb = book(self.PARAMS, self.WORDS)
        for j, word in enumerate(self.WORDS[0]):
            assert q_decode(cb, 0, np.array(word), self.METRIC) == j

    def test_identical_words_always_tie(self):
        cb = book(self.PARAMS, [[[1, 0, 1, 0], [1, 0, 1, 0]]])
        for y in ([0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]):
            assert q_decode(cb, 0, np.array(y), self.METRIC) == TIE

    def test_single_message_wins_by_default(self):
        cb = book(self.PARAMS, [[[1, 0, 1, 0]]])
        assert q_decode(cb, 0, np.array([0, 1, 0, 1]), self.METRIC) == 0

    def test_returns_public_ids(self):
        cb = book(self.PARAMS, self.WORDS, ids=[[7, 3, 5]])
        assert q_decode(cb, 0, np.array([1, 0, 0, 1]), self.METRIC) == 3

    def test_words_agree_for_any_integer_block_type(self):
        # the scorer gathers the block's own symbols, so a bool block indexes the
        # table as it is, with no copy to a wider type
        cb = book(self.PARAMS, [[[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1]]])
        for idx in range(16):
            y = np.array([(idx >> i) & 1 for i in range(4)])
            for dtype in (bool, np.uint8, np.int64):
                assert q_decode(cb, 0, y.astype(dtype), self.METRIC) == self.brute_force(cb, y)

    def test_sub_code_index_checked(self):
        # a negative index once decoded in the last sub-code, and k = K raised a bare IndexError
        cb = book(self.PARAMS, self.WORDS + self.WORDS)
        for k in (-1, 2, 5):
            with pytest.raises(DomainError, match="sub-code"):
                q_decode(cb, k, np.array([1, 0, 1, 0]), self.METRIC)
        assert q_decode(cb, 1, np.array([1, 0, 1, 0]), self.METRIC) == 0

    def test_block_length_checked(self):
        cb = book(self.PARAMS, self.WORDS)
        with pytest.raises(DimensionError):
            q_decode(cb, 0, np.array([0, 1]), self.METRIC)

    def test_symbols_outside_the_alphabet_refused(self):
        cb = book(self.PARAMS, self.WORDS)
        for y in ([0, 2, 0, 0], [0, -1, 0, 0]):
            with pytest.raises(DomainError):
                q_decode(cb, 0, np.array(y), self.METRIC)


def make_instance(wy_rows, q_rows) -> CovertInstance:
    return CovertInstance(
        wy=Bdmc(np.array(wy_rows, dtype=float)),
        wz=Bdmc(WZ1),
        q=DecodingMetric(np.array(q_rows, dtype=float)),
        delta=0.1,
    )


def pair_stream(seed, k, j, num_messages):
    """The stream estimate_error reads pair (k, j)'s trials from, in a book of ``num_messages`` words per sub-code."""
    return _seeded_stream(_pair_seeds(seed, k, num_messages)[j])


def pair_errors(cb, k, j, trials, seed, thr0, thr1, rhat, pulses):
    """_pair_errors of pair (k, j) of ``cb`` on the stream estimate_error gives it."""
    return _pair_errors(pair_stream(seed, k, j, cb.num_messages), j, trials, thr0, thr1, rhat, pulses)


class TestEstimateError:
    def test_noiseless_channel_never_errs(self):
        inst = make_instance([[1.0, 0.0], [0.0, 1.0]], [[0.9, 0.1], [0.1, 0.9]])
        params = PpmParams(4, 2)
        cb = book(params, [[[1, 0, 1, 0], [0, 1, 0, 1]], [[1, 0, 0, 1], [0, 1, 1, 0]]])
        rep = estimate_error(inst, cb, trials_per_pair=64, seed=5)
        assert rep.errors.sum() == 0
        assert np.all(rep.p_hat == 0.0)
        assert np.all(rep.ci95 == 0.0)
        assert rep.max_overall == 0.0

    def test_identical_words_always_err(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        params = PpmParams(4, 2)
        cb = book(params, [[[1, 0, 1, 0], [1, 0, 1, 0]]])
        rep = estimate_error(inst, cb, trials_per_pair=32, seed=6)
        assert np.all(rep.p_hat == 1.0)
        assert rep.max_overall == 1.0

    def test_worker_count_does_not_change_counts(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(6, 2), num_messages=3, num_keys=2, seed=7)
        serial = estimate_error(inst, cb, trials_per_pair=300, seed=8, workers=1)
        threaded = estimate_error(inst, cb, trials_per_pair=300, seed=8, workers=4)
        np.testing.assert_array_equal(serial.errors, threaded.errors)
        assert 0 < serial.errors.sum() < serial.errors.size * 300  # nondegenerate

    @pytest.mark.parametrize("workers", [1, 2])
    def test_holds_one_sub_code_matrix_at_a_time(self, workers):
        # a narrow sub-code's decode matrix, M x |U| floats on its pulse columns
        # U, is built when its pairs run and dropped before the next sub-code's; built
        # for all K = 4 sub-codes up front they peaked above four matrices.  Chunks of
        # 16 symbols keep |U| <= n = 16 l, so all four sub-codes are narrow
        cb = generate_codebook(PpmParams(4096, 256), num_messages=64, num_keys=4, seed=3)
        assert all(_sub_code_pulses(cb.positions[k])[2] is not None for k in range(4))
        largest = max(8 * 64 * _pulse_slots(cb.positions[k])[0].size for k in range(4))
        tracemalloc.start()
        try:
            estimate_error(example1(), cb, trials_per_pair=1, seed=5, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * largest

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_sub_codes_build_no_decode_matrix(self, workers):
        # 64 words of l = 85 pulses on about 5300 columns per sub-code are wide, so
        # they are scored at their slots: the traced peak stays far below one
        # M x |U| float matrix (2.7 MB here), which a product scorer builds
        cb = generate_codebook(ppm_params(10**5, 0.1, Q0, Q1), num_messages=64, num_keys=4, seed=3)
        assert all(_sub_code_pulses(cb.positions[k])[2] is None for k in range(4))
        smallest = min(8 * 64 * _pulse_slots(cb.positions[k])[0].size for k in range(4))
        tracemalloc.start()
        try:
            estimate_error(example1(), cb, trials_per_pair=1, seed=5, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < smallest / 4

    def test_trial_block_size_does_not_change_counts(self):
        # blocks cut one keyed stream at different points; the draws, and
        # so the counts, are the same for any block size and either scorer
        # (a ratio of 0 sends these narrow sub-codes to the slot scorer)
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(6, 2), num_messages=3, num_keys=2, seed=7)
        default = estimate_error(inst, cb, trials_per_pair=300, seed=8).errors
        thr0, thr1 = _thresholds(inst.wy.w[0]), _thresholds(inst.wy.w[1])
        rhat = np.append(inst.q.log_ratio, 0.0)
        for ratio in (_SLOT_SCORING_RATIO, 0):
            for block in (1, 7, 64, 299, 300):
                with mock.patch.object(ppm, "_SLOT_SCORING_RATIO", ratio), mock.patch.object(ppm, "_TRIAL_BLOCK", block):
                    counts = [
                        [pair_errors(cb, k, j, 300, 8, thr0, thr1, rhat, _sub_code_pulses(cb.positions[k])) for j in range(3)]
                        for k in range(2)
                    ]
                np.testing.assert_array_equal(counts, default)

    def test_seed_sensitivity_and_reproducibility(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(6, 2), num_messages=3, num_keys=2, seed=7)
        again = estimate_error(inst, cb, trials_per_pair=300, seed=8)
        other = estimate_error(inst, cb, trials_per_pair=300, seed=9)
        np.testing.assert_array_equal(
            estimate_error(inst, cb, trials_per_pair=300, seed=8).errors, again.errors
        )
        assert np.any(other.errors != again.errors)

    def test_aggregates_are_consistent(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(6, 2), num_messages=4, num_keys=3, seed=10)
        rep = estimate_error(inst, cb, trials_per_pair=250, seed=11)
        assert rep.max_overall == rep.p_hat.max()
        np.testing.assert_allclose(rep.p_hat, rep.errors / 250.0, atol=0)
        np.testing.assert_allclose(
            rep.ci95, 1.96 * np.sqrt(rep.p_hat * (1 - rep.p_hat) / 250.0), atol=1e-15
        )

    def test_trials_must_be_positive(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(4, 2), 2, 1, seed=0)
        with pytest.raises(DomainError):
            estimate_error(inst, cb, trials_per_pair=0, seed=0)


def threshold_oracle(p) -> np.ndarray:
    """floor(cum_k 2^32) in Python integers, for the running sums cum_k < 1 before the last symbol of positive mass."""
    last = max((i for i, x in enumerate(p) if x > 0.0), default=0)
    return np.array([math.floor(c * 2**32) for c in itertools.accumulate(p[:last]) if c < 1.0], dtype=np.uint32)


def draw_probabilities(p) -> list[Fraction]:
    """Each symbol's exact probability under _sample_symbols at a uniform u in [0, 2^32)."""
    edges = [0, *map(int, _thresholds(np.asarray(p))), 2**32]
    probs = [Fraction(hi - lo, 2**32) for lo, hi in zip(edges, edges[1:])]
    return probs + [Fraction(0)] * (len(p) - len(probs))


def random_law(rng, ny, zero_share, scale):
    """A law on ny symbols with about ``zero_share`` zero entries, its sum scaled by ``scale`` (one symbol if all are zero)."""
    p = rng.random(ny) * (rng.random(ny) >= zero_share)
    return p / p.sum() * scale if p.sum() > 0 else np.eye(ny)[int(rng.integers(ny))]


LAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    ny=st.integers(1, 300),
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    scale=st.sampled_from([1.0, 0.999, 1.001, 1.5]),
)


class TestSampleSymbols:
    """Samples at 32-bit uniforms count the thresholds floor(cum_k 2^32) at or below u: searchsorted(T, u, "right")."""

    @settings(max_examples=200, deadline=None)
    @given(**LAWS)
    @example(seed=0, ny=1, zero_share=0.0, scale=1.0)
    @example(seed=1, ny=255, zero_share=0.3, scale=1.0)
    @example(seed=2, ny=256, zero_share=0.3, scale=1.0)
    @example(seed=3, ny=257, zero_share=0.3, scale=1.5)
    def test_equals_searchsorted(self, seed, ny, zero_share, scale):
        # zero entries repeat cum values; scale != 1 leaves the cumsum short of
        # 1.0 or reaching it (and beyond) before the last entry
        rng = np.random.default_rng(seed)
        p = random_law(rng, ny, zero_share, scale)
        thr = _thresholds(p)
        np.testing.assert_array_equal(thr, threshold_oracle(p))
        near = thr.astype(np.int64)[:, None] + np.array([-1, 0, 1])
        edges = np.concatenate([[0, 2**32 - 1], near.ravel(), rng.integers(0, 2**32, size=500)])
        u = edges[(edges >= 0) & (edges < 2**32)].astype(np.uint32)
        y = _sample_symbols(thr, u)
        np.testing.assert_array_equal(y, np.searchsorted(thr, u, side="right"))
        assert np.iinfo(y.dtype).max >= thr.size
        blocks = u[: 2 * (u.size // 2)].reshape(2, -1)
        np.testing.assert_array_equal(_sample_symbols(thr, blocks), np.searchsorted(thr, blocks, side="right"))

    @settings(max_examples=200, deadline=None)
    @given(**LAWS)
    @example(seed=0, ny=2, zero_share=0.9, scale=1.0)
    @example(seed=4, ny=40, zero_share=0.9, scale=0.999)
    def test_each_probability_is_within_2_pow_minus_32_of_its_mass(self, seed, ny, zero_share, scale):
        # the mass is the cumulative law's step, cum capped at 1 and set to 1 from the
        # last symbol of positive mass on; a symbol of zero mass is never drawn
        p = random_law(np.random.default_rng(seed), ny, zero_share, scale)
        last = int(np.flatnonzero(p).max())
        cum = [min(Fraction(c), Fraction(1)) if k < last else Fraction(1) for k, c in enumerate(np.cumsum(p))]
        mass = [hi - lo for lo, hi in zip([Fraction(0), *cum], cum)]
        probs = draw_probabilities(p)
        assert sum(probs) == 1
        assert all(abs(q - m) < Fraction(1, 2**32) for q, m in zip(probs, mass))
        assert all(q == 0 for q, x in zip(probs, p) if x == 0.0)

    @pytest.mark.parametrize(
        "p, probs",
        [
            ([1.0, 0.0], [1, 0]),  # no threshold: clamped to 2^32 - 1, it would draw symbol 1 at u = 2^32 - 1
            ([0.0, 1.0], [0, 1]),
            ([0.5, 0.5, 0.0, 0.0], [Fraction(1, 2), Fraction(1, 2), 0, 0]),
            ([0.25, 0.0, 0.75], [Fraction(1, 4), 0, Fraction(3, 4)]),
        ],
    )
    def test_exact_laws(self, p, probs):
        assert draw_probabilities(p) == probs
        top = _sample_symbols(_thresholds(np.array(p)), np.array([0, 2**32 - 1], dtype=np.uint32))
        assert p[top[0]] > 0.0 and p[top[1]] > 0.0

    def test_a_cumsum_short_of_one_gives_the_trailing_zero_nothing(self):
        # ten 0.1s sum to 1 - 2^-53: a threshold at that sum would be floor((1 - 2^-53) 2^32)
        # = 2^32 - 1, and u = 2^32 - 1 would draw the zero-mass symbol after them
        p = np.array([0.1] * 10 + [0.0])
        assert np.cumsum(p)[9] < 1.0
        assert _sample_symbols(_thresholds(p), np.array([2**32 - 1], dtype=np.uint32))[0] == 9
        assert draw_probabilities(p)[10] == 0


def u32_uniforms(gen, rows, width) -> np.ndarray:
    """(rows, width) uniforms as the simulator draws them: each row the first ``width``
    32-bit halves, low half first, of ceil(width / 2) PCG64 outputs."""
    words = gen.bit_generator.random_raw(rows * ((width + 1) // 2))
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(rows, -1)
    return halves[:, :width].astype(np.uint32)


def one_shot_sample(gen, t, cols, pulses, thr0, thr1):
    """Outputs of one (t, |cols|) draw of uniforms and two inverse-CDF passes, as before draws were chunked."""
    u = u32_uniforms(gen, t, cols.size)
    y = np.searchsorted(thr0, u, side="right")
    at = (slice(None), pulses) if pulses.ndim == 1 else (np.arange(t)[:, None], pulses)
    y[at] = np.searchsorted(thr1, u[at], side="right")
    return y


def sampler_case(rng, t, width, ny, kind):
    """(cols, pulses, thr0, thr1) for t rows on ``width`` columns: pulses shared by every row, per row, or one shared column."""
    thr0, thr1 = (_thresholds(p) for p in rng.dirichlet(np.ones(ny), size=2))
    cols = np.sort(rng.choice(3 * width + 1, size=width, replace=False))
    weight = int(rng.integers(0, width + 1))
    pulses = {
        "shared": lambda: np.sort(rng.choice(width, size=weight, replace=False)),
        "per_row": lambda: np.array([np.sort(rng.choice(width, size=weight, replace=False)) for _ in range(t)]).reshape(t, weight),
        "single": lambda: rng.integers(0, width, size=1),
    }[kind]()
    return cols, pulses, thr0, thr1


class TestChunkedSampling:
    """Drawing a block a few rows at a time gives the one-shot draw's outputs and leaves the stream where it did."""

    def check(self, seed, t, cols, pulses, thr0, thr1):
        chunked, one_shot = _stream(seed, _TAG_ERROR), _stream(seed, _TAG_ERROR)
        y = _sample_at_pulses(chunked, t, cols, pulses, thr0, thr1)
        assert y.dtype == np.uint8 and y.shape == (t, cols.size)
        np.testing.assert_array_equal(y, one_shot_sample(one_shot, t, cols, pulses, thr0, thr1))
        # both read t * ceil(|cols| / 2) outputs
        assert chunked.bit_generator.random_raw() == one_shot.bit_generator.random_raw()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(1, 40),
        width=st.integers(1, 30),
        ny=st.integers(1, 5),
        kind=st.sampled_from(["shared", "per_row", "single"]),
        chunk=st.one_of(st.just(ppm._SAMPLE_CHUNK), st.integers(1, 100)),
    )
    @example(seed=0, t=7, width=5, ny=3, kind="per_row", chunk=1)  # a draw of less than one row
    @example(seed=1, t=9, width=1, ny=2, kind="single", chunk=4)  # one half of each output unused
    @example(seed=2, t=11, width=7, ny=3, kind="shared", chunk=10)  # odd rows of one and several per draw
    def test_any_chunk_size_equals_one_draw(self, seed, t, width, ny, kind, chunk):
        case = sampler_case(np.random.default_rng(seed), t, width, ny, kind)
        with mock.patch.object(ppm, "_SAMPLE_CHUNK", chunk):
            self.check(seed, t, *case)

    # 131 rows per draw; one row per draw; each with an even and an odd width
    @pytest.mark.parametrize("t, width", [(300, 500), (300, 501), (3, 70_000), (3, 70_001)])
    @pytest.mark.parametrize("kind", ["shared", "per_row"])
    def test_blocks_of_several_chunks(self, t, width, kind):
        assert t * width > 2 * ppm._SAMPLE_CHUNK
        self.check(9, t, *sampler_case(np.random.default_rng(t), t, width, 3, kind))

    def test_empty_columns_draw_nothing(self):
        thr = _thresholds(np.array([0.5, 0.5]))
        gen = _stream(1, _TAG_ERROR)
        assert _sample_at_pulses(gen, 5, np.arange(0), np.arange(0), thr, thr).shape == (5, 0)
        assert gen.bit_generator.random_raw() == _stream(1, _TAG_ERROR).bit_generator.random_raw()


def stream_draws(key, count=8):
    return _stream(*key).integers(0, 2**64, size=count, dtype=np.uint64)


class TestStreamKeying:
    """Each (seed, tag, c1, c2) key names one stream, and distinct keys name distinct streams."""

    KEYS = [
        (0, 1, 0, 0),
        (0, 2, 0, 0),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (1, 1, 0, 1),
        (0, 1, 1, 1),
        (5, 1, 2, 3),
        (5 + 2**32, 2, 3, 0),
        (5 + 2**32, 2, 3, 4),
        (5, 1, 2, 3 + 4 * 2**32),
        (2**32, 1, 0, 0),
        (2**63, 1, 0, 0),
        (-5, 1, 0, 0),
        (5, 1, 0, 0),
        (-1, 1, 0, 0),
        (2**32 - 1, 1, 0, 0),
    ]

    def test_same_key_gives_the_same_draws(self):
        for key in self.KEYS:
            np.testing.assert_array_equal(stream_draws(key), stream_draws(key))

    def test_distinct_keys_give_distinct_draws(self):
        draws = {tuple(stream_draws(key)) for key in self.KEYS}
        assert len(draws) == len(self.KEYS)

    def test_keys_a_flat_entropy_list_would_merge_stay_apart(self):
        # as one flat list the two keys concatenate to the same 32-bit words
        # [5, 1, 2, 3, 4]; the seed and the spawn key are mixed in separately
        merged, apart = (5 + 2**32, 2, 3, 4), (5, 1, 2, 3 + 4 * 2**32)
        flat = lambda key: np.random.SeedSequence(list(key)).generate_state(4)
        np.testing.assert_array_equal(flat(merged), flat(apart))
        assert not np.array_equal(stream_draws(merged), stream_draws(apart))

    def test_seed_is_taken_mod_2_to_the_64(self):
        np.testing.assert_array_equal(stream_draws((-1, 3, 0, 0)), stream_draws((2**64 - 1, 3, 0, 0)))
        np.testing.assert_array_equal(stream_draws((2**64 + 7, 3, 0, 0)), stream_draws((7, 3, 0, 0)))


class TestPairStreams:
    """Sub-code k's M pair streams are seeded by the state of one SeedSequence keyed (seed, error tag, k, M)."""

    CASES = [(0, 0, 1), (7, 3, 5), (2**64 - 1, 1, 64)]

    def test_each_pair_is_a_pcg64_seeded_by_its_four_words(self):
        for seed, k, m in self.CASES:
            seeds = _pair_seeds(seed, k, m)
            state = np.random.SeedSequence(seed, spawn_key=(_TAG_ERROR, k, m)).generate_state(4 * m, np.uint64)
            np.testing.assert_array_equal(seeds, state.reshape(m, 4))
            for j in range(m):
                assert pair_stream(seed, k, j, m).bit_generator.state["state"] == pcg64_seeded_state(seeds[j])

    def test_the_seeding_reference_is_how_pcg64_seeds_from_a_seed_sequence(self):
        for entropy in (0, 1, 2**64 - 1, [3, 4, 5]):
            seq = np.random.SeedSequence(entropy)
            assert np.random.PCG64(seq).state["state"] == pcg64_seeded_state(seq.generate_state(4, np.uint64))

    def test_pair_zero_reads_the_keyed_stream(self):
        # a SeedSequence's state words are a prefix of any longer request
        for seed, k, m in self.CASES:
            np.testing.assert_array_equal(
                pair_stream(seed, k, 0, m).bit_generator.random_raw(4), _stream(seed, _TAG_ERROR, k, m).bit_generator.random_raw(4)
            )

    def test_streams_differ_across_pairs_sub_codes_and_sizes(self):
        firsts = [
            tuple(pair_stream(seed, k, j, m).bit_generator.random_raw(2))
            for seed in (0, 1)
            for k in range(3)
            for m in range(1, 6)
            for j in range(m)
        ]
        assert len(set(firsts)) == len(firsts) == 2 * 3 * 15

    def test_the_re_estimate_after_expurgation_replays_no_first_pass_stream(self):
        # as simulate runs them: when a pair's stream was keyed by k * M + j alone, every
        # pair of the expurgated book (M' = 12 of 16) read a first-pass stream, and some
        # their own word's first-pass trials, the randomness that kept that word
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(20, 4), num_messages=16, num_keys=4, seed=1)
        starts = []

        def recording(gen, *args):
            state = gen.bit_generator.state["state"]
            starts[-1].add((state["state"], state["inc"]))
            return sample(gen, *args)

        sample = ppm._sample_at_pulses
        with mock.patch.object(ppm, "_sample_at_pulses", recording):
            starts.append(set())
            report = estimate_error(inst, cb, trials_per_pair=50, seed=1)
            starts.append(set())
            estimate_error(inst, expurgate(report, cb, 1 / 4), trials_per_pair=50, seed=1)
        assert (len(starts[0]), len(starts[1])) == (64, 48)
        assert not starts[0] & starts[1]


def dense_sample(thr0, thr1, pulses, u):
    return np.where(pulses, np.searchsorted(thr1, u, side="right"), np.searchsorted(thr0, u, side="right"))


def dense_uniforms(gen, t, n, cols):
    """(t, n) uniforms drawn at ``cols`` only, as the simulator draws them; idle columns hold 2^31."""
    u = np.full((t, n), 2**31, dtype=np.uint32)
    u[:, cols] = u32_uniforms(gen, t, cols.size)
    return u


def dense_pair_errors(cb, k, j, trials, seed, thr0, thr1, rhat):
    """Error count of pair (k, j) from all n outputs, as before pulse-column scoring."""
    words = cb.codewords[k].astype(np.float64)
    gen = pair_stream(seed, k, j, cb.num_messages)
    u = dense_uniforms(gen, trials, cb.params.n, np.flatnonzero(cb.codewords[k].any(axis=0)))
    scores = rhat[dense_sample(thr0, thr1, cb.codewords[k, j] == 1, u)] @ words.T
    top = scores.max(axis=1)
    ok = ((scores >= top[:, None] - TIE_TOL).sum(axis=1) == 1) & (scores[:, j] >= top - TIE_TOL)
    return int(trials - ok.sum())


def dense_covertness_mc(cb, wz, samples, seed):
    """Monte-Carlo D(Qhat || Q0^n) from all n outputs, as before pulse-column scoring."""
    words = cb.codewords.reshape(-1, cb.params.n)
    qz0, qz1 = wz.w
    d_full = np.where(qz0 > 0.0, np.log(np.maximum(qz1, 1e-300)) - np.log(np.maximum(qz0, 1e-300)), 0.0)
    gen = _stream(seed, _TAG_COVERT)
    choice = gen.integers(0, words.shape[0], size=samples)
    u = dense_uniforms(gen, samples, cb.params.n, np.flatnonzero(words.any(axis=0)))
    scores = d_full[dense_sample(_thresholds(qz0), _thresholds(qz1), words[choice] == 1, u)] @ words.T.astype(np.float64)
    top = scores.max(axis=1)
    return float(np.mean(top + np.log(np.exp(scores - top[:, None]).sum(axis=1)) - math.log(words.shape[0])))


class TestPulseColumnsMatchDense:
    """Sampling and scoring only the pulse columns gives the dense loops' results."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 64),
        num_keys=st.integers(1, 3),
        num_messages=st.integers(1, 5),
        ny=st.integers(2, 4),
        kind=st.sampled_from(["sparse", "dense", "all_idle", "every_position"]),
    )
    def test_error_counts_and_covertness_equal_dense(self, seed, n, num_keys, num_messages, ny, kind):
        rng = np.random.default_rng(seed)
        if kind == "every_position":  # w = 1: every word is active everywhere, L = n
            params = PpmParams(n, n)
            words = generate_codebook(params, num_messages, num_keys, seed).codewords
        else:
            l = int(rng.integers(1, n + 1))
            params = PpmParams(n, l)
            weight = {"sparse": min(n, int(rng.integers(0, 3))), "dense": int(rng.integers(0, n + 1)), "all_idle": 0}[kind]
            words = one_weight_words(rng, (num_keys, num_messages), n, weight)
        cb = book(params, words)
        inst = CovertInstance(
            wy=Bdmc(rng.dirichlet(np.ones(ny), size=2)),
            wz=Bdmc(rng.dirichlet(np.ones(3), size=2)),
            q=DecodingMetric(rng.uniform(0.1, 1.0, size=(2, ny))),
            delta=0.1,
        )
        trials = int(rng.integers(1, 200))
        thr0, thr1, rhat = _thresholds(inst.wy.w[0]), _thresholds(inst.wy.w[1]), inst.q.log_ratio
        dense = [
            [dense_pair_errors(cb, k, j, trials, seed, thr0, thr1, rhat) for j in range(num_messages)]
            for k in range(num_keys)
        ]
        assert estimate_error(inst, cb, trials, seed).errors.tolist() == dense
        samples = int(rng.integers(100, 400))
        mc = covertness_mc(cb, inst.wz, samples, seed).kl_estimate
        assert mc == pytest.approx(dense_covertness_mc(cb, inst.wz, samples, seed), rel=1e-12, abs=0.0)


def row_major_pair_errors(cb, k, j, trials, seed, thr0, thr1, rhat, chunk=1024):
    """Error count of pair (k, j) from trial-major (t, M) scores, as before word-major scoring."""
    cols, slots = _pulse_slots(cb.positions[k])
    words = _word_matrix(slots, cols.size)
    pulses = np.flatnonzero(words[j])
    gen = pair_stream(seed, k, j, cb.num_messages)
    chunk = min(chunk, max(1, _PULSE_BLOCK // max(1, cols.size)))
    failures = 0
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        y = _sample_at_pulses(gen, t, cols, pulses, thr0, thr1)
        scores = rhat[y] @ words.T
        top = scores.max(axis=1)
        at_top = (scores >= top[:, None] - TIE_TOL).sum(axis=1)
        ok = (at_top == 1) & (scores[:, j] >= top - TIE_TOL)
        failures += int(t - ok.sum())
        done += t
    return failures


def tie_prone_counts(seed, n, num_keys, num_messages, ny, density, trials):
    """(estimate_error counts, row_major_pair_errors counts) on a book and metric built to tie.

    Metric entries from {1, 3, 9}: every rhat is 0, +-log 3 or +-log 9, so
    scores of different words tie exactly or up to rounding (log 9 against
    log 3 + log 3).  The book's one weight L is a binomial(n, density) draw;
    duplicate words, and every word of an L = 0 book, force TIE verdicts.
    """
    rng = np.random.default_rng(seed)
    words = one_weight_words(rng, (num_keys, num_messages), n, int(rng.binomial(n, density)))
    for k in range(num_keys):
        j, i = rng.integers(num_messages, size=2)
        words[k, j] = words[k, i]
    cb = book(PpmParams(n, 1), words)
    inst = CovertInstance(
        wy=Bdmc(rng.dirichlet(np.ones(ny), size=2)),
        wz=WZ_BIN,
        q=DecodingMetric(rng.choice([1.0, 3.0, 9.0], size=(2, ny))),
        delta=0.1,
    )
    thr0, thr1, rhat = _thresholds(inst.wy.w[0]), _thresholds(inst.wy.w[1]), inst.q.log_ratio
    reference = [
        [row_major_pair_errors(cb, k, j, trials, seed, thr0, thr1, rhat) for j in range(num_messages)]
        for k in range(num_keys)
    ]
    return estimate_error(inst, cb, trials, seed).errors.tolist(), reference


TIE_PRONE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    num_keys=st.integers(1, 3),
    num_messages=st.integers(1, 6),
    ny=st.integers(2, 4),
    density=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),  # 0 and 1 give L = 0 and L = n
    trials=st.sampled_from([1, 37, 1500]),
)


class TestWordMajorScoring:
    """Scoring trials word-major, (M, t), gives the trial-major kernel's verdicts, exact ties included."""

    @settings(max_examples=150, deadline=None)
    @given(**TIE_PRONE_CASES)
    def test_counts_equal_the_trial_major_kernel(self, **case):
        counts, reference = tie_prone_counts(**case)
        assert counts == reference


class TestSlotScoring:
    """Wide sub-codes are scored at each word's own slots, with the product scorer's verdicts."""

    @settings(max_examples=150, deadline=None)
    @given(**TIE_PRONE_CASES)
    def test_slot_counts_equal_the_trial_major_kernel(self, **case):
        # a ratio of 0 makes every sub-code with a pulse wide, so small hand-built
        # books go through the slot scorer
        with mock.patch.object(ppm, "_SLOT_SCORING_RATIO", 0):
            counts, reference = tie_prone_counts(**case)
        assert counts == reference

    def test_threshold_splits_by_columns_per_pulse(self):
        # one pulse per word: 16 columns are still narrow, 17 are wide
        for width, wide in ((16, False), (17, True)):
            positions = np.arange(width)[:, None]
            cols, slots, words = _sub_code_pulses(positions)
            assert (cols.size, slots.shape, words is None) == (width, (width, 1), wide)

    def test_gathers_in_pieces_give_the_product_counts(self):
        # the slot gather is cut into pieces of about _SLOT_GATHER entries: a block of
        # 701 trials of 64 words gathers one slot at a time, its 98-trial tail five
        inst = example1()
        cb = generate_codebook(ppm_params(10**4, 0.1, Q0, Q1), num_messages=64, num_keys=1, seed=2)
        cols, slots, words = pulses = _sub_code_pulses(cb.positions[0])
        assert words is None and 64 * 1024 > ppm._SLOT_GATHER
        thr0, thr1 = _thresholds(inst.wy.w[0]), _thresholds(inst.wy.w[1])
        rhat = np.append(inst.q.log_ratio, 0.0)
        narrow = (cols, slots, _word_matrix(slots, cols.size))
        for j in (0, 63):
            slot = pair_errors(cb, 0, j, 1500, 4, thr0, thr1, rhat, pulses)
            assert slot == pair_errors(cb, 0, j, 1500, 4, thr0, thr1, rhat, narrow)


class TestSlotScores:
    """The one slot scorer sums a table at each word's pulse slots, as the word matrix's product does."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_words=st.integers(1, 9),
        width=st.integers(1, 30),
        pulses=st.integers(0, 6),
        t=st.integers(1, 40),
        ny=st.integers(2, 5),
        gather=st.one_of(st.just(ppm._SLOT_GATHER), st.integers(1, 100)),
    )
    @example(seed=1, num_words=4, width=12, pulses=5, t=1, ny=3, gather=ppm._SLOT_GATHER)  # t = 1
    @example(seed=2, num_words=4, width=12, pulses=5, t=3, ny=3, gather=1)  # one slot per piece
    @example(seed=3, num_words=4, width=12, pulses=5, t=3, ny=3, gather=24)  # 2-slot pieces and a tail of 1
    def test_equals_the_word_matrix_product(self, seed, num_words, width, pulses, t, ny, gather):
        rng = np.random.default_rng(seed)
        weight = min(pulses, width)  # each word: increasing slots, one weight for all
        slots = np.array([np.sort(rng.choice(width, size=weight, replace=False)) for _ in range(num_words)])
        slots = slots.reshape(num_words, weight)
        table = rng.normal(size=ny)
        y = rng.integers(0, ny, size=(t, width)).astype(np.uint8)
        with mock.patch.object(ppm, "_SLOT_GATHER", gather):
            scores = _slot_scores(table, y, slots)
        np.testing.assert_allclose(scores, _word_matrix(slots, width) @ table[y].T, rtol=0.0, atol=1e-12)


class TestIdleColumnsDrawNothing:
    """Uniforms are drawn only at pulse columns, so idle columns cost neither draws nor memory."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        extra=st.integers(0, 3000),
        num_keys=st.integers(1, 3),
        num_messages=st.integers(1, 5),
        ny=st.integers(2, 4),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),  # 0 and 1 give L = 0 and L = n
    )
    def test_inserted_idle_columns_change_nothing(self, seed, n, extra, num_keys, num_messages, ny, density):
        rng = np.random.default_rng(seed)
        words = one_weight_words(rng, (num_keys, num_messages), n, int(rng.binomial(n, density)))
        wide = np.zeros((num_keys, num_messages, n + extra), dtype=np.uint8)
        wide[:, :, np.sort(rng.choice(n + extra, size=n, replace=False))] = words
        narrow_cb = book(PpmParams(n, 1), words)
        wide_cb = book(PpmParams(n + extra, 1), wide)
        inst = CovertInstance(
            wy=Bdmc(rng.dirichlet(np.ones(ny), size=2)),
            wz=Bdmc(rng.dirichlet(np.ones(3), size=2)),
            q=DecodingMetric(rng.uniform(0.1, 1.0, size=(2, ny))),
            delta=0.1,
        )
        trials = int(rng.integers(1, 200))
        assert np.array_equal(
            estimate_error(inst, wide_cb, trials, seed).errors,
            estimate_error(inst, narrow_cb, trials, seed).errors,
        )
        samples = int(rng.integers(100, 400))
        wide_mc = covertness_mc(wide_cb, inst.wz, samples, seed)
        narrow_mc = covertness_mc(narrow_cb, inst.wz, samples, seed)
        assert (wide_mc.kl_estimate, wide_mc.stderr) == (narrow_mc.kl_estimate, narrow_mc.stderr)

    def test_covertness_block_memory_does_not_grow_with_n(self):
        # a full (t, n) float64 uniform block takes 8 MB per sample at n = 10^6; with
        # draws and scores at the three pulse columns only, every block array holds
        # at most 1000 x 4 entries, and the peak stays well under 1 MiB
        n = 10**6
        words = np.zeros((2, 2, n), dtype=np.uint8)
        words[:, :, [10, 500_000, n - 1]] = [[[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [1, 1, 0]]]
        cb = book(PpmParams(n, 1), words)
        tracemalloc.start()
        try:
            report = covertness_mc(cb, WZ_BIN, 1000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(report.kl_estimate)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "n, num_keys, num_messages, samples",
        [
            (10**7, 2, 64, 200),  # l = 892: 113,496 pulse columns, where the book's word matrix took 111 MiB
            (200, 1, 4096, 6000),  # l = 1: draw blocks of 5242 samples, 4096 scores each
        ],
    )
    def test_covertness_memory_stays_within_blocks(self, n, num_keys, num_messages, samples):
        # every array covertness_mc builds holds about _PULSE_BLOCK entries, however
        # many words or columns the book has
        cb = generate_codebook(ppm_params(n, 0.1, Q0, Q1), num_messages, num_keys, seed=17)
        tracemalloc.start()
        try:
            report = covertness_mc(cb, Bdmc(WZ1), samples, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(report.kl_estimate)
        assert peak < 32 * 2**20


def simulated_book(inst, n, num_messages, num_keys, trials, fraction, seed):
    """The expurgated book ``simulate`` builds on ``inst`` from these config values."""
    cb = generate_codebook(ppm_params(n, inst.delta, inst.q0, inst.q1), num_messages, num_keys, seed)
    return expurgate(estimate_error(inst, cb, trials, seed), cb, fraction)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSamplingChunkMemory:
    """A block's uniforms are drawn a chunk at a time, and exact ratio blocks are evaluated in place."""

    def test_covertness_mc_on_the_dense_benchmark_book(self):
        # the simulate_dense book (n = 10^4, 2 x 60 kept words) draws blocks of 402
        # samples on 2606 pulse columns: their uint8 outputs and the scorer's
        # transposed copy take 1 MiB each, one draw's uniforms 256 KiB; the block's
        # float64 uniforms alone took 8 MiB (traced peak 10.1 MiB)
        cb = simulated_book(example1(), 10**4, 64, 2, 25, 1 / 16, seed=1)
        assert traced_peak(lambda: covertness_mc(cb, Bdmc(WZ1), 500, seed=1)) < 4 * 2**20

    def test_covertness_exact_on_the_exact_benchmark_book(self):
        # the simulate_exact book (n = 20, 4 x 12 kept words): a ratio block of
        # _PRODUCT_BLOCK floats (2 MiB) and its log-Q buffer, where the ratios, their
        # logs and the temporaries of Q log R took a block each (traced peak 8.8 MiB)
        inst = CovertInstance(wy=WZ_BIN, wz=WZ_BIN, q=DecodingMetric(np.array([[0.9, 0.1], [0.1, 0.9]])), delta=0.3)
        cb = simulated_book(inst, 20, 16, 4, 4000, 1 / 4, seed=1)
        assert traced_peak(lambda: covertness_exact(cb, WZ_BIN)) < 3 * 8 * ppm._PRODUCT_BLOCK

    def test_estimate_error_on_blocks_of_several_chunks(self):
        # 24 wide words of 85 pulses on 2026 columns at n = 10^5: trial blocks of 517
        # rows are drawn in 17 chunks of 32, so the block's float64 uniforms (8 MiB,
        # traced peak 10.0 MiB) are never built at once
        cb = generate_codebook(ppm_params(10**5, 0.1, Q0, Q1), num_messages=24, num_keys=1, seed=3)
        cols, _, words = _sub_code_pulses(cb.positions[0])
        assert words is None and 2 * ppm._SAMPLE_CHUNK < 517 * cols.size <= _PULSE_BLOCK
        assert traced_peak(lambda: estimate_error(example1(), cb, trials_per_pair=520, seed=5)) < 4 * 2**20


def report_for(p_hat: np.ndarray, trials: int = 100) -> ErrorReport:
    """The report of ``trials`` trials per pair whose error counts give these rates."""
    errors = np.round(np.asarray(p_hat) * trials).astype(np.int64)
    return ErrorReport(trials, errors)


def exact_pair_errors(cb, k, inst, block=1 << 14):
    """Exact decode-error probability of every word of sub-code k, over all outputs on its pulse columns.

    Binary outputs only: state i spells output bit u as bit u of i.  A word's
    verdict is estimate_error's: decoded when the best rival, the top score or
    the runner-up taken by np.partition, lies below its own score less TIE_TOL.
    """
    cols, slots = _pulse_slots(cb.positions[k])
    M, U = len(slots), cols.size
    words = _word_matrix(slots, U)
    log0, log1 = np.log(inst.wy.w[0]), np.log(inst.wy.w[1])
    p_err = np.zeros(M)
    for lo in range(0, 2**U, block):
        y = (np.arange(lo, min(lo + block, 2**U))[:, None] >> np.arange(U)) & 1
        scores = inst.q.log_ratio[y] @ words.T
        second, top = np.partition(scores, M - 2, axis=1)[:, -2:].T
        rival = np.where(scores >= top[:, None], second[:, None], top[:, None])
        log_p = log0[y].sum(axis=1)[:, None] + (log1 - log0)[y] @ words.T
        p_err += (np.exp(log_p) * ~(rival < scores - TIE_TOL)).sum(axis=0)
    return np.clip(p_err, 0.0, 1.0)


@pytest.mark.parametrize("ratio", [_SLOT_SCORING_RATIO, 0], ids=["narrow_product", "slot_scorer"])
def test_error_counts_match_the_exact_error_probabilities(ratio):
    # the binary simulate benchmark's book at seed 1: n = 20, l = 3, 18 pulse columns in sub-code 0
    inst = CovertInstance(Bdmc(WZ_BIN.w), WZ_BIN, DecodingMetric([[0.9, 0.1], [0.1, 0.9]]), 0.3)
    cb = generate_codebook(ppm_params(20, 0.3, inst.q0, inst.q1), 16, 4, seed=1)
    assert _pulse_slots(cb.positions[0])[0].size == 18
    trials = 4000
    with mock.patch.object(ppm, "_SLOT_SCORING_RATIO", ratio):
        p_hat = estimate_error(inst, cb, trials, seed=7).p_hat[0]
    p = exact_pair_errors(cb, 0, inst)
    assert np.all(np.abs(p_hat - p) <= 4 * np.sqrt(p * (1 - p) / trials) + 1e-9)


class TestExpurgate:
    PARAMS = PpmParams(4, 2)

    def full_book(self):
        return generate_codebook(self.PARAMS, num_messages=4, num_keys=1, seed=20)

    def test_drops_the_worst_half(self):
        cb = self.full_book()
        new = expurgate(report_for(np.array([[0.9, 0.1, 0.2, 0.8]])), cb, fraction=0.5)
        np.testing.assert_array_equal(new.message_ids, [[1, 2]])
        np.testing.assert_array_equal(new.codewords[0, 0], cb.codewords[0, 1])
        np.testing.assert_array_equal(new.codewords[0, 1], cb.codewords[0, 2])
        assert new.num_messages == 2

    def test_ceil_and_tie_toward_small_id(self):
        cb = self.full_book()
        new = expurgate(report_for(np.array([[0.5, 0.5, 0.1, 0.5]])), cb, fraction=0.25)
        np.testing.assert_array_equal(new.message_ids, [[1, 2, 3]])

    def test_keys_expurgated_independently(self):
        cb = generate_codebook(self.PARAMS, num_messages=4, num_keys=2, seed=21)
        new = expurgate(
            report_for(np.array([[0.9, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.9]])),
            cb,
            fraction=0.25,
        )
        np.testing.assert_array_equal(new.message_ids, [[1, 2, 3], [0, 1, 2]])

    def test_one_sort_keeps_what_a_sort_per_sub_code_kept(self):
        # the reference is the rule expurgate ran before its one lexsort: a Python sort
        # of each sub-code's words by (-p_hat, id), then a sort of the kept indices;
        # few trials and permuted ids make ties on p_hat that only the ids break
        rng = np.random.default_rng(40)
        for _ in range(2000):
            K, M, trials = (int(v) for v in rng.integers(1, [5, 9, 5]))
            fraction = rng.uniform(0.0, (M - 1) / M)
            ids = np.array([rng.choice(3 * M, M, replace=False) for _ in range(K)])
            cb = PpmCodebook(PpmParams(16, 2), np.tile(np.arange(M)[:, None], (K, 1, 1)), ids)
            rep = ErrorReport(trials, rng.integers(0, trials + 1, (K, M)))
            drop = math.ceil(fraction * M)
            kept = [sorted(sorted(range(M), key=lambda j: (-rep.p_hat[k, j], ids[k, j]))[drop:]) for k in range(K)]
            new = expurgate(rep, cb, fraction)
            np.testing.assert_array_equal(new.positions[..., 0], kept)
            np.testing.assert_array_equal(new.message_ids, np.take_along_axis(ids, np.array(kept), axis=1))

    def test_zero_fraction_is_identity(self):
        cb = self.full_book()
        assert expurgate(report_for(np.array([[0.9, 0.1, 0.2, 0.8]])), cb, fraction=0.0) is cb

    def test_fraction_domain(self):
        cb = self.full_book()
        rep = report_for(np.array([[0.9, 0.1, 0.2, 0.8]]))
        for bad in (1.0, -0.1, 2.0):
            with pytest.raises(DomainError):
                expurgate(rep, cb, fraction=bad)

    def test_cannot_drop_everything(self):
        cb = generate_codebook(self.PARAMS, num_messages=2, num_keys=1, seed=22)
        with pytest.raises(DomainError):
            expurgate(report_for(np.array([[0.5, 0.6]])), cb, fraction=0.6)

    def test_report_shape_must_match(self):
        cb = self.full_book()
        with pytest.raises(DimensionError):
            expurgate(report_for(np.array([[0.5, 0.6]])), cb, fraction=0.25)

    def test_kept_words_are_copied_without_a_temporary(self):
        # n = 10^7: the kept words' 0.6 MB of positions, their validation's
        # one-byte-per-position masks, and nothing of size n (a dense (keep, n)
        # copy of one sub-code would take 450 MB)
        cb = generate_codebook(ppm_params(10**7, 0.1, Q0, Q1), num_messages=48, num_keys=2, seed=23)
        rep = report_for(np.random.default_rng(23).random((2, 48)))
        tracemalloc.start()
        try:
            new = expurgate(rep, cb, fraction=1 / 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert new.positions.shape == (2, 45, 892)
        assert peak < 2 * new.positions.nbytes
        for k in range(2):
            np.testing.assert_array_equal(new.positions[k], cb.positions[k, new.message_ids[k]])


class TestCovertness:
    PARAMS = PpmParams(4, 2)

    def test_idle_book_has_zero_divergence(self):
        two_idle_words = PpmCodebook(self.PARAMS, np.zeros((1, 2, 0)), [[0, 1]])
        for cb in (book(self.PARAMS, [[[0, 0, 0, 0]]]), two_idle_words):
            rep = covertness_exact(cb, WZ_BIN)
            assert rep.method == METHOD_EXACT
            assert rep.kl_estimate == 0.0
            assert rep.stderr is None
            assert rep.samples == 16
            mc = covertness_mc(cb, WZ_BIN, samples=100, seed=0)
            assert (mc.kl_estimate, mc.stderr) == (0.0, 0.0)

    def test_single_word_is_a_product_law(self):
        cb = book(self.PARAMS, [[[1, 0, 1, 0]]])
        rep = covertness_exact(cb, WZ_BIN)
        per_use = kl_divergence(ProbVector(WZ_BIN.w[1]), ProbVector(WZ_BIN.w[0]))
        assert rep.kl_estimate == pytest.approx(2 * per_use, abs=1e-12)

    def test_mixture_no_worse_than_single_word(self):
        cb2 = generate_codebook(self.PARAMS, num_messages=4, num_keys=2, seed=30)
        single = book(self.PARAMS, [[[1, 0, 1, 0]]])
        assert (
            covertness_exact(cb2, WZ_BIN).kl_estimate
            <= covertness_exact(single, WZ_BIN).kl_estimate + 1e-12
        )

    def test_state_cap_suggests_sampling(self):
        cb = generate_codebook(PpmParams(30, 3), 2, 1, seed=31)
        with pytest.raises(ResourceLimitError, match="covertness_mc"):
            covertness_exact(cb, WZ_BIN)

    def test_state_cap_names_the_count_without_its_value(self):
        # 3^10000 has 4772 digits, beyond Python's 4300-digit int-to-str limit
        cb = generate_codebook(ppm_params(10_000, 0.1, Q0, Q1), 2, 1, seed=37)
        with pytest.raises(ResourceLimitError, match=r"3\^10000 states"):
            covertness_exact(cb, Bdmc(WZ1))

    @pytest.mark.parametrize("a", [1, 2, 3, 7])
    def test_state_count_check_is_exact(self, a):
        for n in range(0, 70):
            for cap in (-1, 0, 1, 2, 3, 2**24 - 1, 2**24, 2**24 + 1, 3**20, 7**9, 2**62):
                assert _states_exceed(a, n, cap) == (a**n > cap)

    def test_undominated_symbol_is_infinite(self):
        wz = Bdmc(np.array([[1.0, 0.0], [0.5, 0.5]]))
        active = book(self.PARAMS, [[[1, 0, 1, 0]]])
        idle = book(self.PARAMS, [[[0, 0, 0, 0]]])
        assert covertness_exact(active, wz).kl_estimate == math.inf
        assert covertness_exact(idle, wz).kl_estimate == 0.0

    def test_mc_brackets_exact(self):
        cb = generate_codebook(self.PARAMS, num_messages=4, num_keys=2, seed=32)
        exact = covertness_exact(cb, WZ_BIN)
        mc = covertness_mc(cb, WZ_BIN, samples=20_000, seed=33)
        assert mc.method == METHOD_MC
        assert mc.stderr is not None and mc.stderr > 0.0
        assert abs(mc.kl_estimate - exact.kl_estimate) <= 4 * mc.stderr

    def test_mc_is_deterministic_per_seed(self):
        cb = generate_codebook(self.PARAMS, num_messages=2, num_keys=1, seed=34)
        a = covertness_mc(cb, WZ_BIN, samples=500, seed=35)
        b = covertness_mc(cb, WZ_BIN, samples=500, seed=35)
        c = covertness_mc(cb, WZ_BIN, samples=500, seed=36)
        assert a.kl_estimate == b.kl_estimate
        assert a.kl_estimate != c.kl_estimate

    def test_mc_sample_floor(self):
        cb = generate_codebook(self.PARAMS, num_messages=2, num_keys=1, seed=34)
        with pytest.raises(DomainError):
            covertness_mc(cb, WZ_BIN, samples=99, seed=0)

    def test_mc_refuses_oversize_samples_before_allocating(self):
        cb = generate_codebook(self.PARAMS, num_messages=2, num_keys=1, seed=34)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="cap"):
                covertness_mc(cb, WZ_BIN, samples=MAX_CODEBOOK_BYTES // 8 + 1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_mc_reads_the_warden_log_ratios_of_the_exact_sum(self):
        # Q0 puts 1e-305 on a symbol Q1 gives 0.3: a Q0 clamped at 1e-300 in the
        # Monte-Carlo log ratios once put the estimate 5.4 stderr below the exact value
        cb = generate_codebook(PpmParams(6, 2), 4, 1, seed=3)
        wz = Bdmc(np.array([[0.7, 0.3, 1e-305], [0.4, 0.3, 0.3]]))
        exact = covertness_exact(cb, wz)
        mc = covertness_mc(cb, wz, samples=100_000, seed=5)
        assert exact.kl_estimate == pytest.approx(419.6159, abs=1e-4)
        assert abs(mc.kl_estimate - exact.kl_estimate) <= 4 * mc.stderr


def reference_covertness_exact(cb, wz):
    """D(Qhat || Q0^n) by the block loop over all a^n output states, as before the column-half product."""
    n = cb.params.n
    qz0, qz1 = wz.w
    active = np.flatnonzero(qz0 > 0.0)
    base_logs = np.log(qz0[active])
    d = np.log(qz1[active]) - base_logs
    a = active.size
    wmat = cb.codewords.reshape(-1, n).astype(np.float64)
    log_c = math.log(wmat.shape[0])
    digits_pow = a ** np.arange(n - 1, -1, -1, dtype=np.int64)
    kl = 0.0
    block = 1 << 14
    for start in range(0, a**n, block):
        idx = np.arange(start, min(start + block, a**n), dtype=np.int64)
        z = (idx[:, None] // digits_pow[None, :]) % a
        base = base_logs[z].sum(axis=1)
        scores = d[z] @ wmat.T
        top = scores.max(axis=1)
        log_qhat = base + top + np.log(np.exp(scores - top[:, None]).sum(axis=1)) - log_c
        kl += float(np.sum(np.exp(log_qhat) * (log_qhat - base)))
    return max(kl, 0.0)


def reference_chunk_kl(w, q0, q1):
    """Single-chunk D(P_chunk || Q0^w) by the old base-a digit loop of ppm_output_kl."""
    active = np.flatnonzero(q0.probs > 0.0)
    base_logs = np.log(q0.probs[active])
    d = np.log(np.maximum(q1.probs[active], 1e-300)) - base_logs
    a = active.size
    z = (np.arange(a**w, dtype=np.int64)[:, None] // a ** np.arange(w - 1, -1, -1, dtype=np.int64)) % a
    ratio = np.log(np.exp(d[z]).sum(axis=1)) - math.log(w)
    return max(float(np.sum(np.exp(base_logs[z].sum(axis=1) + ratio) * ratio)), 0.0)


# a warden whose idle law puts 1e-60 on the symbol the active law favours
WZ_EXTREME = Bdmc(np.array([[1.0 - 1e-60, 1e-60], [0.5, 0.5]]))


class TestCovertnessExactKernel:
    """The column-half product gives the values of the full state loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.sampled_from([2, 3]),
        num_words=st.integers(1, 8),
        kind=st.sampled_from(["half_dense", "sparse", "all_idle", "all_active", "ppm"]),
        tiny_exp=st.sampled_from([0, 20, 40, 56, 60]),
    )
    @example(seed=1, ny=2, num_words=8, kind="half_dense", tiny_exp=60)
    def test_matches_the_state_loop(self, seed, ny, num_words, kind, tiny_exp):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, (14 if ny == 2 else 9) + 1))
        if kind == "ppm":
            l = int(rng.integers(1, n + 1))
            cb = generate_codebook(PpmParams(n, l), num_words, 1, seed)
        else:
            density = {"half_dense": 0.5, "sparse": 2.0 / (n + 1), "all_idle": 0.0, "all_active": 1.0}[kind]
            cb = book(PpmParams(n, n), one_weight_words(rng, (1, num_words), n, int(rng.binomial(n, density))))
        q = rng.dirichlet(np.ones(ny), size=2)
        if tiny_exp:  # one idle-law entry near 10^-tiny_exp sends some ratio blocks to the log-domain path
            q[0, rng.integers(ny)] = 10.0**-tiny_exp
            q[0] /= q[0].sum()
        wz = Bdmc(q)
        got = covertness_exact(cb, wz)
        assert got.samples == ny**n
        assert got.kl_estimate == pytest.approx(reference_covertness_exact(cb, wz), rel=1e-10, abs=1e-13)

    def test_underflowing_ratio_blocks_are_repaired(self):
        # word 1 pulses on the first half, word 2 on the second: the ratios of the
        # likely states with the rare symbol on one half underflow in the shifted
        # product and must come from the log-domain path
        cb = book(PpmParams(12, 12), [[[1] * 6 + [0] * 6, [0] * 6 + [1] * 6]])
        with mock.patch.object(ppm, "_logsumexp_rows", wraps=ppm._logsumexp_rows) as repair:
            exact = covertness_exact(cb, WZ_EXTREME).kl_estimate
        assert repair.called
        assert math.isfinite(exact)
        assert exact == pytest.approx(reference_covertness_exact(cb, WZ_EXTREME), rel=1e-10, abs=1e-13)

    # books drawn from PCG64 streams keyed by SeedSequence(seed, spawn_key=(tag, k, 0)), one
    # per sub-code; re-recorded when the streams were keyed per sub-code, not per word
    # (a declared stream change)
    @pytest.mark.parametrize(
        "params, num_messages, num_keys, seed, wz, value",
        [
            (PpmParams(16, 4), 6, 2, 11, WZ_BIN, "0x1.20bd6f0c2138ap-2"),
            (PpmParams(10, 3), 5, 2, 12, Bdmc(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])), "0x1.6646dafa03390p-2"),
        ],
    )
    def test_pinned_values_of_seeded_books(self, params, num_messages, num_keys, seed, wz, value):
        cb = generate_codebook(params, num_messages, num_keys, seed)
        assert covertness_exact(cb, wz).kl_estimate == pytest.approx(float.fromhex(value), rel=1e-12, abs=0.0)

    def test_block_size_does_not_change_the_value(self, monkeypatch):
        cb = generate_codebook(PpmParams(12, 3), 6, 2, seed=13)
        for wz in (WZ_BIN, WZ_EXTREME):
            whole = covertness_exact(cb, wz).kl_estimate
            monkeypatch.setattr("covertcap.ppm._PRODUCT_BLOCK", 16)  # 1 x 16 ratio blocks, one-row repairs
            assert covertness_exact(cb, wz).kl_estimate == pytest.approx(whole, rel=1e-12, abs=1e-15)
            monkeypatch.undo()

    def test_zero_active_probability_stays_finite(self):
        # q1 = 0 on a symbol q0 emits: the log ratio is floored, as in covertness_mc
        wz = Bdmc(np.array([[0.5, 0.3, 0.2], [0.6, 0.4, 0.0]]))
        cb = book(PpmParams(6, 2), [[[1, 0, 0, 0, 1, 0], [0, 1, 0, 1, 0, 0]]])
        exact = covertness_exact(cb, wz)
        mc = covertness_mc(cb, wz, samples=20_000, seed=14)
        assert math.isfinite(exact.kl_estimate)
        assert abs(mc.kl_estimate - exact.kl_estimate) <= 4 * mc.stderr

    def test_peak_memory_within_the_state_loop(self):
        params = ppm_params(20, 0.3, ProbVector(WZ_BIN.w[0]), ProbVector(WZ_BIN.w[1]))
        cb = generate_codebook(params, num_messages=12, num_keys=4, seed=1)  # 2^20 states, 48 words
        peaks = []
        for run in (lambda: reference_covertness_exact(cb, WZ_BIN), lambda: covertness_exact(cb, WZ_BIN)):
            tracemalloc.start()
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("w", [1, 2, 5, 9])
    @pytest.mark.parametrize("floor", [1.0, 1e-60])
    def test_chunk_kl_matches_the_digit_loop(self, w, floor):
        q0 = ProbVector(np.array([0.5, 0.3 * floor, 0.2]) / (0.7 + 0.3 * floor))
        rep = ppm_output_kl(PpmParams(2 * w, 2), q0, Q1)
        assert rep.samples == math.comb(w + 2, 2)
        assert rep.kl_estimate == pytest.approx(2 * reference_chunk_kl(w, q0, Q1), rel=1e-10, abs=1e-13)


class TestPpmOutputKl:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(2, 4),
        w=st.integers(1, 9),
        tiny_exp=st.sampled_from([0, 20, 60]),
    )
    def test_type_sum_matches_the_digit_loop(self, seed, ny, w, tiny_exp):
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(ny), size=2)
        if tiny_exp:  # one idle-law entry near 10^-tiny_exp
            q[0, rng.integers(ny)] = 10.0**-tiny_exp
        q[0] = np.maximum(q[0], 1e-60)
        q0, q1 = ProbVector(q[0] / q[0].sum()), ProbVector(q[1])
        rep = ppm_output_kl(PpmParams(w, 1), q0, q1)
        assert rep.samples == math.comb(w + ny - 1, ny - 1)
        assert rep.kl_estimate == pytest.approx(reference_chunk_kl(w, q0, q1), rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("a, w, most", [(1, 5, 1), (2, 20, 3), (3, 7, 4), (4, 6, 5), (3, 30, 1000)])
    def test_type_blocks_cover_every_type_once(self, a, w, most):
        blocks = list(_type_blocks(a, w, most))
        rows = np.concatenate(blocks)
        assert max(b.shape[0] for b in blocks) <= most
        assert np.all(rows >= 0) and np.all(rows.sum(axis=1) == w)
        assert len({tuple(r) for r in rows}) == rows.shape[0] == math.comb(w + a - 1, a - 1)

    def test_rare_idle_symbol_the_active_law_always_emits(self):
        # d spans about -690.8 (q1 = 0, floored at 1e-300) to +138.2: a ratio
        # shifted by the largest d of the alphabet underflows to 0 on the
        # all-idle type, and 0 * log 0 is nan
        rep = ppm_output_kl(PpmParams(5, 1), ProbVector([1.0 - 1e-60, 1e-60]), ProbVector([0.0, 1.0]))
        assert math.isfinite(rep.kl_estimate)
        assert rep.kl_estimate == pytest.approx(136.5456676672102, rel=1e-12)

    def test_identical_warden_laws_give_zero(self):
        rep = ppm_output_kl(PpmParams(8, 2), Q0, Q0)
        assert rep.kl_estimate == 0.0

    def test_width_one_chunks_give_l_times_divergence(self):
        rep = ppm_output_kl(PpmParams(3, 3), Q0, Q1)
        assert rep.kl_estimate == pytest.approx(3 * kl_divergence(Q1, Q0), abs=1e-12)

    def test_divergence_scales_with_chunk_count(self):
        one = ppm_output_kl(PpmParams(3, 1), Q0, Q1)
        two = ppm_output_kl(PpmParams(6, 2), Q0, Q1)
        assert two.kl_estimate == pytest.approx(2 * one.kl_estimate, abs=1e-15)

    def test_mc_brackets_exact(self):
        # the chunk law is the uniform mixture of the w x w identity book's words
        w = 50
        exact = ppm_output_kl(PpmParams(w, 1), Q0, Q1)
        mc = covertness_mc(book(PpmParams(w, 1), [np.eye(w)]), Bdmc(WZ1), samples=20_000, seed=40)
        assert abs(mc.kl_estimate - exact.kl_estimate) <= 4 * mc.stderr

    def test_method_and_caps(self):
        params = PpmParams(40, 2)  # C(22, 2) = 231 types of 3 symbols
        with mock.patch.object(ppm, "MAX_EXACT_STATES", 231):
            assert ppm_output_kl(params, Q0, Q1).samples == 231
        with mock.patch.object(ppm, "MAX_EXACT_STATES", 230), pytest.raises(ResourceLimitError, match="covertness_mc"):
            ppm_output_kl(params, Q0, Q1)

    def test_undominated_symbol_is_infinite(self):
        rep = ppm_output_kl(
            PpmParams(4, 2), ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5])
        )
        assert rep.kl_estimate == math.inf

    @pytest.mark.parametrize(
        "q0, q1", [([0.5, 0.5], [0.2, 0.3, 0.5]), ([0.2, 0.3, 0.5], [0.5, 0.5])], ids=["shorter_q0", "shorter_q1"]
    )
    def test_laws_of_different_lengths_are_refused(self, q0, q1):
        # the same error kl_divergence, chi2_divergence and ppm_params raise, not numpy's broadcast failure
        with pytest.raises(DimensionError, match="one alphabet"):
            ppm_output_kl(PpmParams(4, 2), ProbVector(q0), ProbVector(q1))


def chunk_instance(seed: int, ny: int, hole: int | None):
    """A metric with ratios in [1/25, 25] and output laws with every entry at least 0.1/ny, but
    one zero entry in p0 (hole 0) or p1 (hole 1) if asked."""
    rng = np.random.default_rng(seed)
    q = DecodingMetric(np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=(2, ny))))
    p = 0.9 * rng.dirichlet(np.ones(ny), size=2) + 0.1 / ny
    if hole is not None:
        p[hole, rng.integers(ny)] = 0.0
        p[hole] /= p[hole].sum()
    return q, ProbVector(p[0]), ProbVector(p[1])


def analytic_bounds(q: DecodingMetric, p0: ProbVector, p1: ProbVector, w: int, s: float) -> tuple[float, float]:
    """The sharp support interval [low, high] of S_w for w >= 2: of the average's w terms the active
    one is 1, and the w-1 exponents of the others range over s (rhat(idle) - rhat(active))."""
    r0, r1 = q.log_ratio[p0.support()], q.log_ratio[p1.support()]
    log_w1 = math.log(w - 1)
    low = math.log(w) - float(np.logaddexp(0.0, log_w1 + s * (r0.max() - r1.min())))
    high = math.log(w) - float(np.logaddexp(0.0, log_w1 - s * (r1.max() - r0.min())))
    return low, high


chunk_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    ny=st.integers(2, 4),
    w=st.integers(1, 30),
    s=st.floats(0.0, 4.0),
    hole=st.sampled_from([None, 0, 1]),
)


class TestSStatistic:
    """The chunk statistic's exact mean, chunk_statistic_mean."""

    @pytest.mark.parametrize("w", [50, 100, 200, 400])
    def test_matches_the_stars_and_bars_oracle(self, w):
        inst = example1(3.0)
        got = chunk_statistic_mean(inst.q, inst.p0, inst.p1, w, 1.0)
        assert got == pytest.approx(exact_chunk_statistic_mean(inst.q, inst.p0, inst.p1, w, 1.0), rel=0, abs=1e-12)

    def test_constant_metric_collapses_to_zero(self):
        inst = example1()
        assert chunk_statistic_mean(DecodingMetric(np.ones((2, 3))), inst.p0, inst.p1, w=8, s=2.0) == 0.0

    def test_disjoint_supports_pin_the_statistic_to_both_bounds(self):
        # active output always symbol 0, idle always symbol 1: the law has one
        # atom, and the support interval collapses onto it
        q = DecodingMetric(np.array([[0.9, 0.4], [0.3, 0.8]]))
        p0, p1 = ProbVector([0.0, 1.0]), ProbVector([1.0, 0.0])
        mean = chunk_statistic_mean(q, p0, p1, w=5, s=1.3)
        atom = math.log(5) - math.log(1 + 4 * math.exp(1.3 * (q.log_ratio[1] - q.log_ratio[0])))
        assert mean == pytest.approx(atom, rel=0, abs=1e-15)
        low, high = analytic_bounds(q, p0, p1, 5, 1.3)
        assert low == pytest.approx(atom, rel=0, abs=1e-15) and high == pytest.approx(atom, rel=0, abs=1e-15)

    def test_mean_is_near_the_tilt_value_for_wide_chunks(self):
        inst = example1(3.0)
        assert abs(chunk_statistic_mean(inst.q, inst.p0, inst.p1, w=400, s=1.0) - 0.4 * math.log(3)) < 0.002

    @settings(max_examples=100, deadline=None)
    @given(**chunk_cases)
    def test_every_sample_inside_the_analytic_bounds(self, seed, ny, w, s, hole):
        # every value S_w takes, one per active output y and idle type N, and so the mean
        q, p0, p1 = chunk_instance(seed, ny, hole)
        w = max(w, 2)
        low, high = analytic_bounds(q, p0, p1, w, s)
        r, supp0 = q.log_ratio, p0.support()
        counts = np.concatenate(list(_type_blocks(supp0.size, w - 1, 1 << 16)))
        atoms = math.log(w) - np.log1p(counts @ np.exp(s * (r[supp0, None] - r[p1.support()])))
        assert low - 1e-12 <= atoms.min() and atoms.max() <= high + 1e-12
        assert low - 1e-12 <= chunk_statistic_mean(q, p0, p1, w, s) <= high + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(**chunk_cases)
    def test_permuting_the_outputs_keeps_the_mean(self, seed, ny, w, s, hole):
        q, p0, p1 = chunk_instance(seed, ny, hole)
        perm = np.random.default_rng(seed).permutation(ny)
        moved = chunk_statistic_mean(DecodingMetric(q.q[:, perm]), ProbVector(p0.probs[perm]), ProbVector(p1.probs[perm]), w, s)
        assert moved == pytest.approx(chunk_statistic_mean(q, p0, p1, w, s), rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(**chunk_cases, row=st.integers(0, 1), scale=st.floats(1e-3, 1e3))
    def test_rescaling_a_metric_row_keeps_the_mean(self, seed, ny, w, s, hole, row, scale):
        # S reads rhat only through its differences, which a row's scale leaves alone
        q, p0, p1 = chunk_instance(seed, ny, hole)
        scaled = q.q.copy()
        scaled[row] *= scale
        moved = chunk_statistic_mean(DecodingMetric(scaled), p0, p1, w, s)
        assert moved == pytest.approx(chunk_statistic_mean(q, p0, p1, w, s), rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(**chunk_cases)
    def test_zero_without_tilt_or_idle_outputs(self, seed, ny, w, s, hole):
        q, p0, p1 = chunk_instance(seed, ny, hole)
        assert chunk_statistic_mean(q, p0, p1, w, 0.0) == 0.0
        assert chunk_statistic_mean(q, p0, p1, 1, s) == 0.0

    def test_validation(self):
        inst = example1(3.0)
        with pytest.raises(DomainError):
            chunk_statistic_mean(inst.q, inst.p0, inst.p1, w=0, s=1.0)
        with pytest.raises(DomainError):
            chunk_statistic_mean(inst.q, inst.p0, inst.p1, w=4, s=-0.5)
        with pytest.raises(DimensionError):
            chunk_statistic_mean(inst.q, ProbVector([0.5, 0.5]), ProbVector([0.4, 0.6]), w=4, s=1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="cap"):
                chunk_statistic_mean(inst.q, inst.p0, inst.p1, w=10**6, s=1.0)  # C(10^6 + 1, 2) types
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPrescribedLogSizes:
    def test_reference_split(self):
        log_m, log_k = prescribed_log_sizes(rate=0.3, t=2 / 7, kl_warden=0.857, n=10_000)
        assert log_m == pytest.approx(100 * 0.25, abs=1e-12)
        total = 100 * ((2 / 7) * 0.857 + 0.05)
        assert log_k == pytest.approx(total - 25.0, abs=1e-12)

    def test_tiny_rate_clamps_message_size(self):
        log_m, log_k = prescribed_log_sizes(rate=0.01, t=2 / 7, kl_warden=0.857, n=400)
        assert log_m == 0.0
        assert log_k == pytest.approx(20 * ((2 / 7) * 0.857 + 0.05), abs=1e-12)

    def test_key_rate_never_negative(self):
        log_m, log_k = prescribed_log_sizes(rate=5.0, t=0.1, kl_warden=0.1, n=100)
        assert log_k >= 0.0
