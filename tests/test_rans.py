"""Entropy coder unit tests.

The transition oracle values are worked out by hand from the update rule
state' = (state // f) << precision | (state % f) + cdf[s], starting from the
fresh state 2**32.
"""

import math

import numpy as np
import pytest

from conftest import coder_payload
from drr.errors import DataCorruptionError, ExhaustedStreamError, InvalidInputError
from drr.rans import (
    MAX_PRECISION,
    MIN_PRECISION,
    RANS_L,
    AnsCoder,
    LaneCoder,
    PmfTable,
    code_lengths,
    pmf_quantize,
    quantize_rows,
)


class TestPmfQuantize:
    def test_uniform_pair_splits_evenly(self):
        pmf = pmf_quantize([0.5, 0.5], precision=12)
        assert pmf.freqs.tolist() == [2048, 2048]
        assert pmf.cdf.tolist() == [0, 2048, 4096]

    def test_point_mass_keeps_minimum_frequency(self):
        pmf = pmf_quantize([1.0, 0.0], precision=12)
        assert pmf.freqs.tolist() == [4095, 1]

    def test_ties_go_to_lowest_symbol(self):
        # 3 equal probabilities at precision 4: 16/3 = 5.33..., so two
        # symbols get 5 and one gets 6; the extra unit lands on symbol 0.
        pmf = pmf_quantize([1.0, 1.0, 1.0], precision=4)
        assert pmf.freqs.tolist() == [6, 5, 5]

    def test_rejects_oversized_alphabet(self):
        with pytest.raises(InvalidInputError):
            pmf_quantize(np.ones(17), precision=4)

    def test_rejects_bad_mass(self):
        with pytest.raises(InvalidInputError):
            pmf_quantize([0.0, 0.0])
        with pytest.raises(InvalidInputError):
            pmf_quantize([0.3, -0.1])

    def test_fuzz_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(1, 200))
            precision = int(rng.integers(8, 17))
            probs = rng.random(n) ** 3  # skewed, with near-zero entries
            pmf = pmf_quantize(probs, precision=precision)
            assert pmf.freqs.min() >= 1
            assert pmf.freqs.sum() == 1 << precision
            assert np.all(np.diff(pmf.cdf) >= 1)
            assert pmf.cdf[0] == 0 and pmf.cdf[-1] == 1 << precision

    def test_dyadic_probs_sum_to_one_exactly(self):
        pmf = pmf_quantize(np.random.default_rng(0).random(37))
        assert (pmf.freqs / float(1 << pmf.precision)).sum() == 1.0


class TestQuantizeRows:
    """The row routine against the scalar reference in conftest.py."""

    @staticmethod
    def assert_matches(table, precision, reference):
        table = np.asarray(table, dtype=np.float64)
        freqs, cdf = quantize_rows(table, precision)
        assert freqs.shape == table.shape and cdf.shape == (len(table), table.shape[1] + 1)
        for row, f, c in zip(table, freqs, cdf):
            assert np.array_equal(f, reference(row, precision))
            assert c[0] == 0 and np.array_equal(np.diff(c), f)

    def test_clamp_overshoot_near_full_alphabet(self, reference_quantize):
        # A few heavy symbols over a crowd of near-zero ones: the min-1 clamp
        # overshoots by almost the whole alphabet.
        rng = np.random.default_rng(0)
        for precision, n in [(8, 250), (10, 1000), (12, 4090)]:
            table = np.full((4, n), 1e-12)
            table[0, rng.integers(0, n)] = 1.0
            table[1, :3] = [0.3, 0.3, 0.4]
            table[2] = rng.dirichlet(np.full(n, 0.01))
            table[3, rng.integers(0, n, 5)] = rng.random(5)
            self.assert_matches(table, precision, reference_quantize)

    def test_remainder_ties(self, reference_quantize):
        self.assert_matches([[1.0, 1.0, 1.0]], 4, reference_quantize)
        self.assert_matches([[1.0] * 5 + [0.0] * 2, [2.0, 1.0, 1.0, 2.0, 0.0, 0.0, 1.0]],
                            3, reference_quantize)
        # equal heavy symbols and equal clamped ones tie on both branches
        self.assert_matches([[0.25] * 4 + [1e-9] * 60, [1.0] * 7 + [0.0] * 57],
                            6, reference_quantize)
        rng = np.random.default_rng(1)
        self.assert_matches(rng.integers(0, 4, size=(20, 37)) + np.eye(20, 37), 9,
                            reference_quantize)

    def test_shortfall_as_long_as_the_alphabet(self, reference_quantize):
        # p * (2**precision / p) rounds to just below 2**precision here, so
        # the one symbol's floor falls a whole unit short.
        for precision in (4, 12):
            self.assert_matches([[0.9350724237877682]], precision, reference_quantize)

    def test_precision_two_and_sixteen(self, reference_quantize):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            self.assert_matches(rng.dirichlet(np.full(n, 0.2), size=6), 2, reference_quantize)
        self.assert_matches([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], 2, reference_quantize)
        for alpha in (0.01, 0.1, 1.0):
            self.assert_matches(rng.dirichlet(np.full(300, alpha), size=5), 16,
                                reference_quantize)
        self.assert_matches(np.where(rng.random((3, 500)) < 0.95, 1e-15, 1.0), 16,
                            reference_quantize)

    def test_alphabet_equal_to_two_to_the_precision(self, reference_quantize):
        rng = np.random.default_rng(3)
        for precision in (2, 5, 8):
            n = 1 << precision
            table = np.vstack([np.ones(n), np.eye(n)[0], rng.dirichlet(np.full(n, 0.05))])
            self.assert_matches(table, precision, reference_quantize)
            assert np.all(quantize_rows(table, precision)[0] == 1)

    def test_dirichlet_fuzz(self, reference_quantize):
        rng = np.random.default_rng(4)
        for _ in range(60):
            precision = int(rng.integers(2, 17))
            n = int(rng.integers(1, min(1 << precision, 600) + 1))
            alpha = float(rng.choice([0.01, 0.1, 0.3, 1.0]))
            self.assert_matches(rng.dirichlet(np.full(n, alpha), size=int(rng.integers(1, 6))),
                                precision, reference_quantize)

    def test_rows_match_pmf_quantize(self):
        table = np.random.default_rng(5).random((7, 13)) ** 4
        freqs, cdf = quantize_rows(table, 10)
        for row, f, c in zip(table, freqs, cdf):
            pmf = pmf_quantize(row, precision=10)
            assert np.array_equal(pmf.freqs, f) and np.array_equal(pmf.cdf, c)

    def test_rejects_bad_rows_and_shapes(self):
        good = np.full((3, 4), 0.25)
        for bad_value in (-0.1, np.nan, np.inf):
            table = good.copy()
            table[1, 2] = bad_value
            with pytest.raises(InvalidInputError):
                quantize_rows(table)
        table = good.copy()
        table[2] = 0.0
        with pytest.raises(InvalidInputError):
            quantize_rows(table)
        with pytest.raises(InvalidInputError):
            quantize_rows(np.ones((2, 17)), precision=4)
        with pytest.raises(InvalidInputError):
            quantize_rows(good, precision=1)
        with pytest.raises(InvalidInputError):
            quantize_rows(np.ones(4))
        with pytest.raises(InvalidInputError):
            quantize_rows(np.ones((0, 4)))
        with pytest.raises(InvalidInputError):
            pmf_quantize(good)


class TestCoderTransitions:
    def test_single_push_matches_hand_computed_state(self):
        # f=2048, c=0, precision 12, from state 2**32:
        # (2**32 // 2048) << 12 == 2**33, remainder and cdf both 0.
        coder = AnsCoder()
        coder.push(0, pmf_quantize([0.5, 0.5]))
        assert coder.state == 2**33
        assert len(coder.stack) == 0

    def test_two_pushes_match_hand_computed_state(self):
        # push 1: 2**21 * 4096 + 0 + 2048 = 2**33 + 2048
        # push 0: ((2**33 + 2048) // 2048) << 12 = (2**22 + 1) * 4096
        coder = AnsCoder()
        pmf = pmf_quantize([0.5, 0.5])
        coder.push(1, pmf)
        assert coder.state == 2**33 + 2048
        coder.push(0, pmf)
        assert coder.state == 2**34 + 4096

    def test_renormalization_emits_low_bytes(self):
        coder = AnsCoder()
        pmf = pmf_quantize([0.5, 0.5])
        # Each push adds ~1 bit; from 2**32 the state hits the 2**39 ceiling
        # after 7 pushes, so the 8th must spill a byte.
        for _ in range(8):
            coder.push(0, pmf)
        assert len(coder.stack) == 1
        assert RANS_L <= coder.state < RANS_L << 8

    def test_state_stays_in_normalized_interval(self):
        rng = np.random.default_rng(3)
        coder = AnsCoder()
        pmf = pmf_quantize(rng.random(11), precision=9)
        for s in rng.integers(0, 11, size=2000):
            coder.push(int(s), pmf)
            assert RANS_L <= coder.state < RANS_L << 8


class TestRoundTrip:
    def test_push_pop_restores_coder_exactly(self):
        coder = AnsCoder.with_random_bits(256, seed=0)
        before = coder_payload(coder)
        pmf = pmf_quantize([0.2, 0.5, 0.3])
        coder.push(2, pmf)
        assert coder.pop(pmf) == 2
        assert coder_payload(coder) == before

    def test_lifo_order(self):
        pmf = pmf_quantize([0.1, 0.6, 0.3])
        coder = AnsCoder()
        for s in [0, 1, 2, 1]:
            coder.push(s, pmf)
        assert [coder.pop(pmf) for _ in range(4)] == [1, 2, 1, 0]

    def test_fuzz_sequences_with_mixed_pmfs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n_sym = int(rng.integers(2, 40))
            pmf = pmf_quantize(rng.random(n_sym) + 1e-3, precision=int(rng.integers(8, 15)))
            seq = rng.integers(0, n_sym, size=int(rng.integers(1, 60))).tolist()
            coder = AnsCoder()
            start = coder_payload(coder)
            for s in seq:
                coder.push(s, pmf)
            out = [coder.pop(pmf) for _ in seq]
            assert out == seq[::-1]
            assert coder_payload(coder) == start

    def test_pop_from_random_bits_is_decodable_and_invertible(self):
        pmf = pmf_quantize([0.25, 0.25, 0.25, 0.25])
        coder = AnsCoder.with_random_bits(64, seed=5)
        before = coder_payload(coder)
        s = coder.pop(pmf)
        assert 0 <= s < 4
        coder.push(s, pmf)
        assert coder_payload(coder) == before

    def test_point_mass_pop_consumes_almost_nothing(self):
        pmf = pmf_quantize([1.0, 0.0], precision=12)
        coder = AnsCoder.with_random_bits(64, seed=1)
        before = coder_payload(coder)
        s = coder.pop(pmf)  # overwhelmingly symbol 0 at freq 4095
        assert s == 0
        assert code_lengths(12)[pmf.freqs[0]] < 0.001
        coder.push(s, pmf)
        assert coder_payload(coder) == before

    def test_exhausted_stack_raises(self):
        coder = AnsCoder()  # minimum state, empty stack
        with pytest.raises(ExhaustedStreamError):
            coder.pop(pmf_quantize([0.5, 0.5]))


class TestRate:
    def test_compression_close_to_entropy(self):
        rng = np.random.default_rng(21)
        n = 20_000
        pmf = pmf_quantize(rng.random(16) + 0.05)
        probs = pmf.freqs / float(1 << pmf.precision)
        symbols = rng.choice(16, size=n, p=probs)
        coder = AnsCoder()
        for s in symbols:
            coder.push(int(s), pmf)
        bits_per_symbol = coder.bit_length / n
        h = float(-(probs * np.log2(probs)).sum())
        assert bits_per_symbol <= h + 0.1 + 64 / n


class TestSeeding:
    @pytest.mark.parametrize("n_bits", [0, 8, 24, 64, 256, 1024])
    def test_seeded_bytes_are_the_generator_draw(self, n_bits):
        # PCG64's raw words, little-endian and cut to length, are the bytes
        # the generator's uint8 draw gives
        seeds = [0, 7, 2**40 + 3, [3], [5, 0], [1, 2, 3]]
        lanes = LaneCoder.with_random_bits(n_bits, seeds)
        assert lanes.state.tolist() == [RANS_L] * len(seeds)
        assert lanes.height.tolist() == [n_bits // 8] * len(seeds)
        for lane, seed in enumerate(seeds):
            expected = np.random.default_rng(seed).integers(0, 256, n_bits // 8, np.uint8)
            assert lanes.stack[lane, :n_bits // 8].tobytes() == expected.tobytes()
            assert AnsCoder.with_random_bits(n_bits, seed) == AnsCoder(stack=expected.tobytes())

    @pytest.mark.parametrize("n_bits,seed", [(-8, 0), (12, 0), (64, -1), (64, [3, -1])])
    def test_bad_arguments_rejected(self, n_bits, seed):
        with pytest.raises(InvalidInputError):
            AnsCoder.with_random_bits(n_bits, seed)
        with pytest.raises(InvalidInputError):
            LaneCoder.with_random_bits(n_bits, [0, seed])


class TestSerialization:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(13)
        pmf = pmf_quantize(rng.random(9))
        coder = AnsCoder.with_random_bits(128, seed=2)
        for s in rng.integers(0, 9, size=100):
            coder.push(int(s), pmf)
        blob = coder_payload(coder)
        back = AnsCoder.deserialize(blob)
        assert back == coder
        assert coder_payload(back) == blob

    def test_truncation_rejected(self):
        # A payload has no length field (the file holding it has one), so
        # only a payload too short for k and the state is detectable here.
        blob = coder_payload(AnsCoder.with_random_bits(64, seed=0))
        for length in range(7):
            with pytest.raises(DataCorruptionError, match="shorter"):
                AnsCoder.deserialize(blob[:length])

    def test_state_is_stored_in_five_bytes(self):
        # k = 0, then the state's low five bytes (its top three are zero in
        # [2**32, 2**40)), then the stack; no header
        coder = AnsCoder((1 << 40) - 2, b"\x01\x02")
        blob = b"\x00\x00" + ((1 << 40) - 2).to_bytes(5, "little") + b"\x01\x02"
        assert coder_payload(coder) == blob
        assert coder.bit_length == 8 * (5 + 2)
        assert AnsCoder.deserialize(blob) == coder
        assert LaneCoder.deserialize([blob]).serialize() == [blob]

    @pytest.mark.parametrize("state", [0, RANS_L - 1, RANS_L << 8])
    def test_state_outside_the_interval_rejected(self, state):
        with pytest.raises(InvalidInputError):
            LaneCoder([state], [b""]).serialize()
        if state < RANS_L:  # a 5-byte field can hold it, but no coder leaves it
            blob = bytearray(coder_payload(AnsCoder()))
            blob[2:7] = state.to_bytes(5, "little")
            with pytest.raises(DataCorruptionError, match="below"):
                AnsCoder.deserialize(bytes(blob))


class TestCostAccounting:
    def test_cost_matches_negative_log2(self):
        pmf = pmf_quantize([0.7, 0.2, 0.1], precision=10)
        table = PmfTable.from_freqs(pmf.freqs[None, :], 10)
        costs = table.cost(np.zeros(3, dtype=np.int64), np.arange(3))
        for s in range(3):
            assert costs[s] == pytest.approx(-math.log2(pmf.freqs[s] / 1024), abs=1e-12)

    def test_pushes_add_their_cost_to_the_information_held(self):
        # 8 bits per stack byte plus log2(state) grows by the summed cost,
        # up to rANS rounding
        table = PmfTable.from_freqs(quantize_rows([[0.9, 0.1], [0.3, 0.7]])[0], 12)
        lanes = LaneCoder.with_random_bits(64, [0, 1])
        before = lanes.potential()
        total = np.zeros(2)
        for symbols in ([0, 1], [1, 1], [0, 0], [0, 1]):
            symbols, rows = np.array(symbols), np.array([0, 1])
            lanes.push(symbols, rows, table)
            total += table.cost(rows, symbols)
        assert lanes.potential() - before == pytest.approx(total, abs=1e-6)


class TestCodeLengths:
    def test_every_frequency_at_every_precision(self):
        for precision in range(MIN_PRECISION, MAX_PRECISION + 1):
            top = 1 << precision
            table = code_lengths(precision)
            assert table.dtype == np.float64 and table.shape == (top + 1,)
            assert table[0] == np.inf
            assert table[1:].tolist() == [precision - math.log2(f) for f in range(1, top + 1)]

    def test_built_once_and_read_only(self):
        assert code_lengths(12) is code_lengths(12)
        with pytest.raises(ValueError):
            code_lengths(12)[1] = 0.0

    @pytest.mark.parametrize("precision", [MIN_PRECISION - 1, MAX_PRECISION + 1])
    def test_rejects_precision_outside_range(self, precision):
        with pytest.raises(InvalidInputError):
            code_lengths(precision)

    def test_pmf_table_reads_the_table(self):
        freqs = quantize_rows([[0.6, 0.3, 0.1], [0.9, 0.05, 0.05]], 12)[0]
        table = PmfTable.from_freqs(freqs, 12)
        assert table.costs.tolist() == code_lengths(12)[freqs.ravel()].tolist()
