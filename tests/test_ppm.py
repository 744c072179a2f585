"""Position-modulated codes: schedules, books, decoding, and the divergence meters.

Micro instances keep every oracle exact: outputs small enough to enumerate,
product laws whose divergences factor by hand, and channels where the decoder
provably never errs (or always does).
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertcap import (
    TIE,
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
    covertness_exact,
    covertness_mc,
    estimate_error,
    expurgate,
    generate_codebook,
    kl_divergence,
    ppm_output_kl,
    ppm_params,
    prescribed_log_sizes,
    q_decode,
    sample_codeword,
    sample_s_statistic,
)
from covertcap.core import TIE_TOL
from covertcap.ppm import (
    _TAG_COVERT,
    _TAG_ERROR,
    MAX_CODEBOOK_BYTES,
    _cumulative,
    _log_ratio,
    _pair_errors,
    _PULSE_BLOCK,
    _pulse_columns,
    _sample_at_pulses,
    _sample_symbols,
    _stream,
    _type_blocks,
)

from conftest import WZ1, example1

Q0 = ProbVector(WZ1[0])
Q1 = ProbVector(WZ1[1])
WZ_BIN = Bdmc(np.array([[0.7, 0.3], [0.4, 0.6]]))


def book(params: PpmParams, words, ids=None, num_keys=None, seed=0) -> PpmCodebook:
    """Hand-built codebook; words is a (K, M, n) nested list."""
    cw = np.array(words, dtype=np.uint8)
    if ids is None:
        ids = np.tile(np.arange(cw.shape[1]), (cw.shape[0], 1))
    return PpmCodebook(
        params=params,
        num_messages=cw.shape[1],
        num_keys=num_keys if num_keys is not None else cw.shape[0],
        seed=seed,
        codewords=cw,
        message_ids=np.array(ids),
    )


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
        with pytest.raises(DomainError, match="smallest workable n") as exc:
            ppm_params(126, 0.1, Q0, Q1)
        n_ok = int(re.search(r"smallest workable n is (\d+)", str(exc.value)).group(1))
        assert ppm_params(n_ok, 0.1, Q0, Q1).l >= 1
        with pytest.raises(DomainError):
            ppm_params(n_ok - 1, 0.1, Q0, Q1)

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
        PpmParams(8, 2, 4, 0)  # fine
        with pytest.raises(DimensionError):
            PpmParams(8, 2, 3, 2)
        with pytest.raises(DomainError):
            PpmParams(0, 1, 1, 0)
        with pytest.raises(DomainError):
            PpmParams(8, 2, 4, -1)


class TestCodewordSampling:
    def test_chunk_structure(self):
        params = PpmParams(10, 3, 3, 1)
        rng = np.random.default_rng(71)
        for _ in range(100):
            word = sample_codeword(params, rng)
            assert word.dtype == np.uint8
            assert word.shape == (10,)
            for c in range(3):
                assert word[3 * c : 3 * (c + 1)].sum() == 1
            assert word[9] == 0

    def test_width_one_forces_all_active(self):
        params = PpmParams(4, 4, 1, 0)
        word = sample_codeword(params, np.random.default_rng(72))
        np.testing.assert_array_equal(word, [1, 1, 1, 1])

    def test_positions_are_uniform(self):
        params = PpmParams(4, 1, 4, 0)
        rng = np.random.default_rng(73)
        trials = 4000
        counts = np.zeros(4)
        for _ in range(trials):
            counts += sample_codeword(params, rng)
        sigma = math.sqrt(trials * 0.25 * 0.75)
        assert np.all(np.abs(counts - trials / 4) <= 4 * sigma)


class TestGenerateCodebook:
    PARAMS = PpmParams(8, 2, 4, 0)

    def test_shape_ids_and_structure(self):
        cb = generate_codebook(self.PARAMS, num_messages=5, num_keys=3, seed=11)
        assert cb.codewords.shape == (3, 5, 8)
        np.testing.assert_array_equal(cb.message_ids, np.tile(np.arange(5), (3, 1)))
        flat = cb.flat_words()
        assert flat.shape == (15, 8)
        assert np.all(flat[:, :4].sum(axis=1) == 1)
        assert np.all(flat[:, 4:].sum(axis=1) == 1)

    def test_regeneration_is_bit_identical(self):
        a = generate_codebook(self.PARAMS, 6, 4, seed=12)
        b = generate_codebook(self.PARAMS, 6, 4, seed=12)
        np.testing.assert_array_equal(a.codewords, b.codewords)

    def test_each_pair_owns_a_substream(self):
        # the (k, m) word does not depend on how many other pairs exist
        small = generate_codebook(self.PARAMS, 3, 2, seed=13)
        big = generate_codebook(self.PARAMS, 7, 5, seed=13)
        np.testing.assert_array_equal(small.codewords[1, 2], big.codewords[1, 2])

    def test_seeds_decorrelate(self):
        a = generate_codebook(self.PARAMS, 6, 4, seed=14)
        b = generate_codebook(self.PARAMS, 6, 4, seed=15)
        assert np.any(a.codewords != b.codewords)

    def test_oversize_book_refused_before_allocation(self):
        params = PpmParams(1 << 20, 1, 1 << 20, 0)
        with pytest.raises(ResourceLimitError, match="cap"):
            generate_codebook(params, num_messages=MAX_CODEBOOK_BYTES >> 20, num_keys=2, seed=0)

    def test_needs_messages_and_keys(self):
        with pytest.raises(DomainError):
            generate_codebook(self.PARAMS, 0, 3, seed=0)
        with pytest.raises(DomainError):
            generate_codebook(self.PARAMS, 3, 0, seed=0)

    def test_book_validation(self):
        with pytest.raises(DimensionError):
            book(self.PARAMS, [[[1, 0, 0, 0, 1, 0]]])  # n mismatch
        with pytest.raises(DomainError):
            book(self.PARAMS, [[[2, 0, 0, 0, 1, 0, 0, 0]]])  # non-binary

    def test_binary_check_makes_no_book_sized_temporaries(self):
        words = np.zeros((2, 32, 1 << 20), dtype=np.uint8)  # 64 MiB
        words[:, :, 0] = 1
        ids = np.tile(np.arange(32), (2, 1))
        tracemalloc.start()
        try:
            PpmCodebook(PpmParams(1 << 20, 1, 1 << 20, 0), 32, 2, 0, words, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestQDecode:
    PARAMS = PpmParams(4, 2, 2, 0)
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

    def test_block_length_checked(self):
        cb = book(self.PARAMS, self.WORDS)
        with pytest.raises(DimensionError):
            q_decode(cb, 0, np.array([0, 1]), self.METRIC)


def make_instance(wy_rows, q_rows) -> CovertInstance:
    return CovertInstance(
        wy=Bdmc(np.array(wy_rows, dtype=float)),
        wz=Bdmc(WZ1),
        q=DecodingMetric(np.array(q_rows, dtype=float)),
        delta=0.1,
    )


class TestEstimateError:
    def test_noiseless_channel_never_errs(self):
        inst = make_instance([[1.0, 0.0], [0.0, 1.0]], [[0.9, 0.1], [0.1, 0.9]])
        params = PpmParams(4, 2, 2, 0)
        cb = book(params, [[[1, 0, 1, 0], [0, 1, 0, 1]], [[1, 0, 0, 1], [0, 1, 1, 0]]])
        rep = estimate_error(inst, cb, trials_per_pair=64, seed=5)
        assert rep.errors.sum() == 0
        assert np.all(rep.p_hat == 0.0)
        assert np.all(rep.ci95 == 0.0)
        assert rep.max_overall == 0.0

    def test_identical_words_always_err(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        params = PpmParams(4, 2, 2, 0)
        cb = book(params, [[[1, 0, 1, 0], [1, 0, 1, 0]]])
        rep = estimate_error(inst, cb, trials_per_pair=32, seed=6)
        assert np.all(rep.p_hat == 1.0)
        assert rep.max_overall == 1.0

    def test_worker_count_does_not_change_counts(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(6, 2, 3, 0), num_messages=3, num_keys=2, seed=7)
        serial = estimate_error(inst, cb, trials_per_pair=300, seed=8, workers=1)
        threaded = estimate_error(inst, cb, trials_per_pair=300, seed=8, workers=4)
        np.testing.assert_array_equal(serial.errors, threaded.errors)
        assert 0 < serial.errors.sum() < serial.errors.size * 300  # nondegenerate

    def test_trial_block_size_does_not_change_counts(self):
        # blocks cut one Philox substream at different points; the draws, and
        # so the counts, are the same for any block size
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(6, 2, 3, 0), num_messages=3, num_keys=2, seed=7)
        default = estimate_error(inst, cb, trials_per_pair=300, seed=8).errors
        cum0, cum1 = _cumulative(inst.wy.w[0]), _cumulative(inst.wy.w[1])
        rhat = _log_ratio(inst.q)
        for chunk in (1, 7):
            counts = [
                [
                    _pair_errors(cb, k, j, 300, 8, cum0, cum1, rhat, pulses=_pulse_columns(cb.codewords[k]), chunk=chunk)
                    for j in range(3)
                ]
                for k in range(2)
            ]
            np.testing.assert_array_equal(counts, default)

    def test_seed_sensitivity_and_reproducibility(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(6, 2, 3, 0), num_messages=3, num_keys=2, seed=7)
        again = estimate_error(inst, cb, trials_per_pair=300, seed=8)
        other = estimate_error(inst, cb, trials_per_pair=300, seed=9)
        np.testing.assert_array_equal(
            estimate_error(inst, cb, trials_per_pair=300, seed=8).errors, again.errors
        )
        assert np.any(other.errors != again.errors)

    def test_aggregates_are_consistent(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(6, 2, 3, 0), num_messages=4, num_keys=3, seed=10)
        rep = estimate_error(inst, cb, trials_per_pair=250, seed=11)
        np.testing.assert_allclose(rep.avg_per_key, rep.p_hat.mean(axis=1), atol=0)
        np.testing.assert_allclose(rep.max_per_key, rep.p_hat.max(axis=1), atol=0)
        assert rep.max_overall == rep.p_hat.max()
        np.testing.assert_allclose(rep.p_hat, rep.errors / 250.0, atol=0)
        np.testing.assert_allclose(
            rep.ci95, 1.96 * np.sqrt(rep.p_hat * (1 - rep.p_hat) / 250.0), atol=1e-15
        )

    def test_trials_must_be_positive(self):
        inst = make_instance([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.1, 0.9]])
        cb = generate_codebook(PpmParams(4, 2, 2, 0), 2, 1, seed=0)
        with pytest.raises(DomainError):
            estimate_error(inst, cb, trials_per_pair=0, seed=0)


class TestSampleSymbols:
    """Counting thresholds at or below u is the binary search searchsorted(side="right")."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(1, 300),
        zero_share=st.sampled_from([0.0, 0.3, 0.9]),
        scale=st.sampled_from([1.0, 0.999, 1.001, 1.5]),
    )
    @example(seed=0, ny=1, zero_share=0.0, scale=1.0)
    @example(seed=1, ny=255, zero_share=0.3, scale=1.0)
    @example(seed=2, ny=256, zero_share=0.3, scale=1.0)
    @example(seed=3, ny=257, zero_share=0.3, scale=1.5)
    def test_equals_searchsorted(self, seed, ny, zero_share, scale):
        # zero entries repeat cum values; scale != 1 leaves the cumsum short of
        # 1.0 or reaching it (and beyond) before the pinned last entry
        rng = np.random.default_rng(seed)
        p = rng.random(ny) * (rng.random(ny) >= zero_share)
        p = p / p.sum() * scale if p.sum() > 0 else np.eye(ny)[0]
        cum = _cumulative(p)
        edges = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), rng.random(500)])
        u = edges[(edges >= 0.0) & (edges < 1.0)]
        y = _sample_symbols(cum, u)
        np.testing.assert_array_equal(y, np.searchsorted(cum, u, side="right"))
        assert np.iinfo(y.dtype).max >= cum.size - 1
        blocks = u[: 2 * (u.size // 2)].reshape(2, -1)
        np.testing.assert_array_equal(_sample_symbols(cum, blocks), np.searchsorted(cum, blocks, side="right"))


def dense_sample(cum0, cum1, pulses, u):
    return np.where(pulses, np.searchsorted(cum1, u, side="right"), np.searchsorted(cum0, u, side="right"))


def dense_uniforms(gen, t, n, cols):
    """(t, n) uniforms drawn at ``cols`` only, as the simulator draws them; idle columns hold 0.5."""
    u = np.full((t, n), 0.5)
    u[:, cols] = gen.random((t, cols.size))
    return u


def dense_pair_errors(cb, k, j, trials, seed, cum0, cum1, rhat):
    """Error count of pair (k, j) from all n outputs, as before pulse-column scoring."""
    words = cb.codewords[k].astype(np.float64)
    gen = _stream(seed, _TAG_ERROR, c1=k * cb.num_messages + j)
    u = dense_uniforms(gen, trials, cb.params.n, np.flatnonzero(cb.codewords[k].any(axis=0)))
    scores = rhat[dense_sample(cum0, cum1, cb.codewords[k, j] == 1, u)] @ words.T
    top = scores.max(axis=1)
    ok = ((scores >= top[:, None] - TIE_TOL).sum(axis=1) == 1) & (scores[:, j] >= top - TIE_TOL)
    return int(trials - ok.sum())


def dense_covertness_mc(cb, wz, samples, seed):
    """Monte-Carlo D(Qhat || Q0^n) from all n outputs, as before pulse-column scoring."""
    words = cb.flat_words()
    qz0, qz1 = wz.w
    d_full = np.where(qz0 > 0.0, np.log(np.maximum(qz1, 1e-300)) - np.log(np.maximum(qz0, 1e-300)), 0.0)
    gen = _stream(seed, _TAG_COVERT)
    choice = gen.integers(0, words.shape[0], size=samples)
    u = dense_uniforms(gen, samples, cb.params.n, np.flatnonzero(words.any(axis=0)))
    scores = d_full[dense_sample(_cumulative(qz0), _cumulative(qz1), words[choice] == 1, u)] @ words.T.astype(np.float64)
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
        kind=st.sampled_from(["sparse", "dense", "idle_subcode", "every_position"]),
    )
    def test_error_counts_and_covertness_equal_dense(self, seed, n, num_keys, num_messages, ny, kind):
        rng = np.random.default_rng(seed)
        if kind == "every_position":  # w = 1: every word is active everywhere
            params = PpmParams(n, n, 1, 0)
            words = generate_codebook(params, num_messages, num_keys, seed).codewords
        else:
            l = int(rng.integers(1, n + 1))
            params = PpmParams(n, l, n // l, n - (n // l) * l)
            density = 0.5 if kind == "dense" else 2.0 / (n + 1)  # sparse books hold weight-0 words
            words = (rng.random((num_keys, num_messages, n)) < density).astype(np.uint8)
            if kind == "idle_subcode":
                words[0] = 0
        cb = book(params, words)
        inst = CovertInstance(
            wy=Bdmc(rng.dirichlet(np.ones(ny), size=2)),
            wz=Bdmc(rng.dirichlet(np.ones(3), size=2)),
            q=DecodingMetric(rng.uniform(0.1, 1.0, size=(2, ny))),
            delta=0.1,
        )
        trials = int(rng.integers(1, 200))
        cum0, cum1, rhat = _cumulative(inst.wy.w[0]), _cumulative(inst.wy.w[1]), _log_ratio(inst.q)
        dense = [
            [dense_pair_errors(cb, k, j, trials, seed, cum0, cum1, rhat) for j in range(num_messages)]
            for k in range(num_keys)
        ]
        assert estimate_error(inst, cb, trials, seed).errors.tolist() == dense
        samples = int(rng.integers(100, 400))
        mc = covertness_mc(cb, inst.wz, samples, seed).kl_estimate
        assert mc == pytest.approx(dense_covertness_mc(cb, inst.wz, samples, seed), rel=1e-12, abs=0.0)


def row_major_pair_errors(cb, k, j, trials, seed, cum0, cum1, rhat, chunk=1024):
    """Error count of pair (k, j) from trial-major (t, M) scores, as before word-major scoring."""
    cols, words = _pulse_columns(cb.codewords[k])
    at = (slice(None), np.flatnonzero(words[j]))
    gen = _stream(seed, _TAG_ERROR, c1=k * cb.num_messages + j)
    chunk = min(chunk, max(1, _PULSE_BLOCK // max(1, cols.size)))
    failures = 0
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        y = _sample_at_pulses(gen, t, cols, at, cum0, cum1)
        scores = rhat[y] @ words.T
        top = scores.max(axis=1)
        at_top = (scores >= top[:, None] - TIE_TOL).sum(axis=1)
        ok = (at_top == 1) & (scores[:, j] >= top - TIE_TOL)
        failures += int(t - ok.sum())
        done += t
    return failures


class TestWordMajorScoring:
    """Scoring trials word-major, (M, t), gives the trial-major kernel's verdicts, exact ties included."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        num_keys=st.integers(1, 3),
        num_messages=st.integers(1, 6),
        ny=st.integers(2, 4),
        density=st.sampled_from([0.1, 0.3, 0.6]),
        trials=st.sampled_from([1, 37, 1500]),
    )
    def test_counts_equal_the_trial_major_kernel(self, seed, n, num_keys, num_messages, ny, density, trials):
        # metric entries from {1, 3, 9}: every rhat is 0, +-log 3 or +-log 9, so
        # scores of different words tie exactly or up to rounding (log 9 against
        # log 3 + log 3); duplicate and weight-0 words force TIE verdicts
        rng = np.random.default_rng(seed)
        words = (rng.random((num_keys, num_messages, n)) < density).astype(np.uint8)
        for k in range(num_keys):
            j, i = rng.integers(num_messages, size=2)
            words[k, j] = words[k, i]
            words[k, rng.integers(num_messages)] = 0
        cb = book(PpmParams(n, 1, n, 0), words)
        inst = CovertInstance(
            wy=Bdmc(rng.dirichlet(np.ones(ny), size=2)),
            wz=WZ_BIN,
            q=DecodingMetric(rng.choice([1.0, 3.0, 9.0], size=(2, ny))),
            delta=0.1,
        )
        cum0, cum1, rhat = _cumulative(inst.wy.w[0]), _cumulative(inst.wy.w[1]), _log_ratio(inst.q)
        reference = [
            [row_major_pair_errors(cb, k, j, trials, seed, cum0, cum1, rhat) for j in range(num_messages)]
            for k in range(num_keys)
        ]
        assert estimate_error(inst, cb, trials, seed).errors.tolist() == reference


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
        density=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    )
    def test_inserted_idle_columns_change_nothing(self, seed, n, extra, num_keys, num_messages, ny, density):
        rng = np.random.default_rng(seed)
        words = (rng.random((num_keys, num_messages, n)) < density).astype(np.uint8)
        wide = np.zeros((num_keys, num_messages, n + extra), dtype=np.uint8)
        wide[:, :, np.sort(rng.choice(n + extra, size=n, replace=False))] = words
        narrow_cb = book(PpmParams(n, 1, n, 0), words)
        wide_cb = book(PpmParams(n + extra, 1, n + extra, 0), wide)
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
        # a full (t, n) float64 uniform block takes 8 MB per sample at n = 10^6;
        # with draws at the three pulse columns only, the 1 MB column scan dominates
        n = 10**6
        words = np.zeros((2, 2, n), dtype=np.uint8)
        words[:, :, [10, 500_000, n - 1]] = [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 1, 0]]]
        cb = book(PpmParams(n, 1, n, 0), words)
        tracemalloc.start()
        try:
            report = covertness_mc(cb, WZ_BIN, 1000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(report.kl_estimate)
        assert peak < 4 * 2**20


def report_for(p_hat: np.ndarray, trials: int = 100) -> ErrorReport:
    p_hat = np.asarray(p_hat, dtype=float)
    errors = np.round(p_hat * trials).astype(np.int64)
    ci = 1.96 * np.sqrt(p_hat * (1 - p_hat) / trials)
    worst = np.unravel_index(int(np.argmax(p_hat)), p_hat.shape)
    return ErrorReport(
        trials_per_pair=trials,
        errors=errors,
        p_hat=p_hat,
        ci95=ci,
        message_ids=np.tile(np.arange(p_hat.shape[1]), (p_hat.shape[0], 1)),
        avg_per_key=p_hat.mean(axis=1),
        max_per_key=p_hat.max(axis=1),
        max_overall=float(p_hat[worst]),
        ci95_halfwidth=float(ci[worst]),
    )


class TestExpurgate:
    PARAMS = PpmParams(4, 2, 2, 0)

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
        # a 24 MiB book: beyond its 22.5 MiB output, the copy of the kept words
        # allocates nothing of their size (a (keep, n) gather would add 11 MiB)
        n = 1 << 18
        words = np.zeros((2, 48, n), dtype=np.uint8)
        words[:, :, ::7] = np.arange(48)[None, :, None] % 2
        cb = book(PpmParams(n, 1, n, 0), words)
        rep = report_for(np.random.default_rng(23).random((2, 48)))
        tracemalloc.start()
        try:
            new = expurgate(rep, cb, fraction=1 / 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - new.codewords.nbytes < 2**20
        for k in range(2):
            np.testing.assert_array_equal(new.codewords[k], cb.codewords[k, new.message_ids[k]])


class TestCovertness:
    PARAMS = PpmParams(4, 2, 2, 0)

    def test_idle_book_has_zero_divergence(self):
        cb = book(self.PARAMS, [[[0, 0, 0, 0]]])
        rep = covertness_exact(cb, WZ_BIN)
        assert rep.method == METHOD_EXACT
        assert rep.kl_estimate == 0.0
        assert rep.stderr is None
        assert rep.samples == 16

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
        cb = generate_codebook(PpmParams(30, 3, 10, 0), 2, 1, seed=31)
        with pytest.raises(ResourceLimitError, match="covertness_mc"):
            covertness_exact(cb, WZ_BIN)

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


def reference_covertness_exact(cb, wz):
    """D(Qhat || Q0^n) by the block loop over all a^n output states, as before the column-half product."""
    n = cb.params.n
    qz0, qz1 = wz.w
    active = np.flatnonzero(qz0 > 0.0)
    base_logs = np.log(qz0[active])
    d = np.log(qz1[active]) - base_logs
    a = active.size
    wmat = cb.flat_words().astype(np.float64)
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
        kind=st.sampled_from(["half_dense", "sparse", "all_idle", "ppm"]),
        tiny_exp=st.sampled_from([0, 20, 40, 56, 60]),
    )
    @example(seed=1, ny=2, num_words=8, kind="half_dense", tiny_exp=60)
    def test_matches_the_state_loop(self, seed, ny, num_words, kind, tiny_exp):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, (14 if ny == 2 else 9) + 1))
        if kind == "ppm":
            l = int(rng.integers(1, n + 1))
            cb = generate_codebook(PpmParams(n, l, n // l, n - (n // l) * l), num_words, 1, seed)
        else:
            density = {"half_dense": 0.5, "sparse": 2.0 / (n + 1), "all_idle": 0.0}[kind]
            cb = book(PpmParams(n, n, 1, 0), [(rng.random((num_words, n)) < density).astype(np.uint8)])
        q = rng.dirichlet(np.ones(ny), size=2)
        if tiny_exp:  # one idle-law entry near 10^-tiny_exp sends some ratio blocks to the log-domain path
            q[0, rng.integers(ny)] = 10.0**-tiny_exp
            q[0] /= q[0].sum()
        wz = Bdmc(q)
        got = covertness_exact(cb, wz)
        assert got.samples == ny**n
        assert got.kl_estimate == pytest.approx(reference_covertness_exact(cb, wz), rel=1e-10, abs=1e-13)

    def test_underflowing_ratio_blocks_are_repaired(self):
        # word 1 pulses on the first half only, word 2 everywhere: the ratios of
        # the likely states with the rare symbol on the first half underflow in
        # the shifted product and must come from the log-domain path
        cb = book(PpmParams(12, 12, 1, 0), [[[1] * 6 + [0] * 6, [1] * 12]])
        exact = covertness_exact(cb, WZ_EXTREME).kl_estimate
        assert math.isfinite(exact)
        assert exact == pytest.approx(reference_covertness_exact(cb, WZ_EXTREME), rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize(
        "params, num_messages, num_keys, seed, wz, value",
        [
            (PpmParams(16, 4, 4, 0), 6, 2, 11, WZ_BIN, "0x1.1a7676d4431c3p-2"),
            (PpmParams(10, 3, 3, 1), 5, 2, 12, Bdmc(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])), "0x1.7003bc35e5d6cp-2"),
        ],
    )
    def test_pinned_values_of_seeded_books(self, params, num_messages, num_keys, seed, wz, value):
        cb = generate_codebook(params, num_messages, num_keys, seed)
        assert covertness_exact(cb, wz).kl_estimate == pytest.approx(float.fromhex(value), rel=1e-12, abs=0.0)

    def test_block_size_does_not_change_the_value(self, monkeypatch):
        cb = generate_codebook(PpmParams(12, 3, 4, 0), 6, 2, seed=13)
        for wz in (WZ_BIN, WZ_EXTREME):
            whole = covertness_exact(cb, wz).kl_estimate
            monkeypatch.setattr("covertcap.ppm._PRODUCT_BLOCK", 16)  # 1 x 16 ratio blocks, one-row repairs
            assert covertness_exact(cb, wz).kl_estimate == pytest.approx(whole, rel=1e-12, abs=1e-15)
            monkeypatch.undo()

    def test_zero_active_probability_stays_finite(self):
        # q1 = 0 on a symbol q0 emits: the log ratio is floored, as in covertness_mc
        wz = Bdmc(np.array([[0.5, 0.3, 0.2], [0.6, 0.4, 0.0]]))
        cb = book(PpmParams(6, 2, 3, 0), [[[1, 0, 0, 0, 1, 0], [0, 1, 0, 1, 0, 0]]])
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
        rep = ppm_output_kl(PpmParams(2 * w, 2, w, 0), q0, Q1)
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
        rep = ppm_output_kl(PpmParams(w, 1, w, 0), q0, q1)
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
        rep = ppm_output_kl(PpmParams(5, 1, 5, 0), ProbVector([1.0 - 1e-60, 1e-60]), ProbVector([0.0, 1.0]))
        assert math.isfinite(rep.kl_estimate)
        assert rep.kl_estimate == pytest.approx(136.5456676672102, rel=1e-12)

    def test_identical_warden_laws_give_zero(self):
        rep = ppm_output_kl(PpmParams(8, 2, 4, 0), Q0, Q0)
        assert rep.kl_estimate == 0.0

    def test_width_one_chunks_give_l_times_divergence(self):
        rep = ppm_output_kl(PpmParams(3, 3, 1, 0), Q0, Q1)
        assert rep.kl_estimate == pytest.approx(3 * kl_divergence(Q1, Q0), abs=1e-12)

    def test_divergence_scales_with_chunk_count(self):
        one = ppm_output_kl(PpmParams(3, 1, 3, 0), Q0, Q1)
        two = ppm_output_kl(PpmParams(6, 2, 3, 0), Q0, Q1)
        assert two.kl_estimate == pytest.approx(2 * one.kl_estimate, abs=1e-15)

    def test_mc_brackets_exact(self):
        # the chunk law is the uniform mixture of the w x w identity book's words
        w = 50
        exact = ppm_output_kl(PpmParams(w, 1, w, 0), Q0, Q1)
        mc = covertness_mc(book(PpmParams(w, 1, w, 0), [np.eye(w)]), Bdmc(WZ1), samples=20_000, seed=40)
        assert abs(mc.kl_estimate - exact.kl_estimate) <= 4 * mc.stderr

    def test_method_and_caps(self):
        params = PpmParams(40, 2, 20, 0)  # C(22, 2) = 231 types of 3 symbols
        assert ppm_output_kl(params, Q0, Q1, max_states=231).samples == 231
        with pytest.raises(ResourceLimitError, match="covertness_mc"):
            ppm_output_kl(params, Q0, Q1, max_states=230)

    def test_undominated_symbol_is_infinite(self):
        rep = ppm_output_kl(
            PpmParams(4, 2, 2, 0), ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5])
        )
        assert rep.kl_estimate == math.inf


class TestSStatistic:
    def test_constant_metric_collapses_to_zero(self):
        inst = example1()
        rep = sample_s_statistic(
            DecodingMetric(np.ones((2, 3))), inst.p0, inst.p1, w=8, s=2.0, samples=200, seed=50
        )
        assert rep.mean == 0.0
        assert rep.stderr == 0.0
        assert rep.sample_min == rep.sample_max == 0.0
        assert rep.bound_low == rep.bound_high == 0.0

    def test_every_sample_inside_the_analytic_bounds(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            ny = int(rng.integers(2, 5))
            q = DecodingMetric(np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=(2, ny))))
            p0 = ProbVector((0.9 * rng.dirichlet(np.ones(ny)) + 0.1 / ny))
            p1 = ProbVector((0.9 * rng.dirichlet(np.ones(ny)) + 0.1 / ny))
            rep = sample_s_statistic(
                q, p0, p1,
                w=int(rng.integers(2, 30)),
                s=float(rng.uniform(0.0, 4.0)),
                samples=400,
                seed=int(rng.integers(1 << 31)),
            )
            assert rep.bound_low <= rep.sample_min + 1e-12
            assert rep.sample_max <= rep.bound_high + 1e-12
            assert rep.sample_min <= rep.mean <= rep.sample_max

    def test_disjoint_supports_pin_the_statistic_to_both_bounds(self):
        # active output always symbol 0, idle always symbol 1: one possible
        # sample value, and the support interval collapses onto it
        q = DecodingMetric(np.array([[0.9, 0.4], [0.3, 0.8]]))
        rep = sample_s_statistic(
            q, ProbVector([0.0, 1.0]), ProbVector([1.0, 0.0]), w=5, s=1.3, samples=64, seed=52
        )
        assert rep.bound_low == pytest.approx(rep.bound_high, abs=1e-15)
        assert rep.sample_min == pytest.approx(rep.bound_low, abs=1e-12)
        assert rep.sample_max == pytest.approx(rep.bound_high, abs=1e-12)
        assert rep.stderr == pytest.approx(0.0, abs=1e-15)

    def test_mean_is_near_the_tilt_value_for_wide_chunks(self):
        inst = example1(3.0)
        rep = sample_s_statistic(
            inst.q, inst.p0, inst.p1, w=400, s=1.0, samples=20_000, seed=53
        )
        assert abs(rep.mean - 0.4 * math.log(3)) < 0.05

    def test_determinism(self):
        inst = example1(3.0)
        kw = dict(w=16, s=1.0, samples=500)
        a = sample_s_statistic(inst.q, inst.p0, inst.p1, seed=54, **kw)
        b = sample_s_statistic(inst.q, inst.p0, inst.p1, seed=54, **kw)
        c = sample_s_statistic(inst.q, inst.p0, inst.p1, seed=55, **kw)
        assert a.mean == b.mean
        assert a.mean != c.mean

    def test_validation(self):
        inst = example1(3.0)
        with pytest.raises(DomainError):
            sample_s_statistic(inst.q, inst.p0, inst.p1, w=1, s=1.0, samples=100, seed=0)
        with pytest.raises(DomainError):
            sample_s_statistic(inst.q, inst.p0, inst.p1, w=4, s=-0.5, samples=100, seed=0)
        with pytest.raises(DomainError):
            sample_s_statistic(inst.q, inst.p0, inst.p1, w=4, s=1.0, samples=1, seed=0)
        with pytest.raises(DimensionError):
            sample_s_statistic(
                inst.q, ProbVector([0.5, 0.5]), ProbVector([0.4, 0.6]), w=4, s=1.0,
                samples=100, seed=0,
            )


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
