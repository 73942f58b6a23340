"""Latent-chain model, exact bound, and bits-back coding tests.

The bound is checked against explicit enumeration over all latent
assignments, and against the exact log-evidence when the inference tables
are the true posteriors.  Coding tests check perfect inversion, the
accounting identity against the coder's own tally, and the auxiliary-bit
dominance of the interleaved schedule.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from drr.bits_back import (
    FitConfig,
    bb_decode_block,
    bb_encode_block,
    bitswap_decode_block,
    bitswap_encode_block,
    build_coding_tables,
    chunk_symbols,
    decode_block,
    decode_blocks,
    decode_stream,
    decode_streams,
    deserialize_models,
    deserialize_stream,
    elbo,
    elbo_per_block,
    encode_block,
    encode_blocks,
    encode_stream,
    encode_streams,
    finetune,
    fit,
    mean_elbo,
    net_length_report,
    random_model,
    sample_blocks,
    serialize_models,
    serialize_stream,
)
from drr.errors import (
    DataCorruptionError,
    DrrError,
    InsufficientInitialBitsError,
    InvalidInputError,
)
from drr.rans import AnsCoder, QuantizedPmf

LN2 = math.log(2.0)


def brute_force_elbo(block, model):
    """Sum over every joint latent assignment; independent of the module's
    level-by-level recursion."""
    block = np.asarray(block)
    total = 0.0
    for assignment in np.ndindex(*model.alphabets):
        z = list(assignment)
        logq = math.log(model.q_obs[block[0], z[0]])
        for i in range(model.levels - 1):
            logq += math.log(model.q_link[i][z[i], z[i + 1]])
        logp = math.log(model.p_top[z[-1]])
        for i in range(model.levels - 1):
            logp += math.log(model.p_link[i][z[i + 1], z[i]])
        for s in block:
            logp += math.log(model.p_obs[z[0], s])
        total += math.exp(logq) * (logp - logq)
    return total / LN2


def brute_force_evidence_bits(block, model):
    block = np.asarray(block)
    total = 0.0
    for assignment in np.ndindex(*model.alphabets):
        z = list(assignment)
        p = model.p_top[z[-1]]
        for i in range(model.levels - 1):
            p *= model.p_link[i][z[i + 1], z[i]]
        for s in block:
            p *= model.p_obs[z[0], s]
        total += p
    return math.log2(total)


def posterior_model(model):
    """Replace the inference tables with exact posteriors (valid as the
    block posterior only when blocks have a single symbol)."""
    m = model.copy()
    marg = model.p_top.copy()
    margs = [None] * model.levels
    margs[-1] = marg
    for i in reversed(range(model.levels - 1)):
        marg = model.p_link[i].T @ marg
        margs[i] = marg
    joint_obs = model.p_obs * margs[0][:, None]  # (A0, K)
    m.q_obs = (joint_obs / joint_obs.sum(axis=0, keepdims=True)).T
    for i in range(model.levels - 1):
        joint = model.p_link[i] * margs[i + 1][:, None]  # (A_{i+1}, A_i)
        m.q_link[i] = (joint / joint.sum(axis=0, keepdims=True)).T
    m.validate()
    return m


class TestModel:
    def test_random_model_validates(self):
        model = random_model(16, (8, 4, 3), block_len=6, seed=1)
        model.validate()
        assert model.levels == 3
        assert model.p_obs.shape == (8, 16)
        assert model.p_link[1].shape == (3, 4)
        assert model.q_link[0].shape == (8, 4)

    def test_same_seed_same_model(self):
        a = random_model(5, (3, 2), seed=9)
        b = random_model(5, (3, 2), seed=9)
        assert np.array_equal(a.p_obs, b.p_obs)
        assert np.array_equal(a.q_link[0], b.q_link[0])

    def test_bad_row_sum_rejected(self):
        model = random_model(4, (3,), seed=0)
        model.p_obs[0, 0] += 0.1
        with pytest.raises(InvalidInputError):
            model.validate()

    def test_bad_shape_rejected(self):
        model = random_model(4, (3, 2), seed=0)
        model.q_link[0] = model.q_link[0].T.copy()
        with pytest.raises(InvalidInputError):
            model.validate()

    def test_negative_entry_rejected(self):
        model = random_model(4, (3,), seed=0)
        model.p_top = model.p_top.copy()
        model.p_top[0], model.p_top[1] = -0.1, model.p_top[1] + model.p_top[0] + 0.1
        with pytest.raises(InvalidInputError):
            model.validate()

    def test_sample_blocks_shapes_and_range(self):
        model = random_model(6, (4, 3), block_len=5, seed=3)
        blocks = sample_blocks(model, 40, np.random.default_rng(0))
        assert len(blocks) == 40
        assert all(b.shape == (5,) for b in blocks)
        assert all(0 <= b.min() and b.max() < 6 for b in blocks)

    def test_sample_blocks_match_marginal(self):
        # a one-level chain with a near-deterministic emission
        model = random_model(2, (2,), block_len=1, seed=0)
        model.p_top = np.array([0.9, 0.1])
        model.p_obs = np.array([[0.99, 0.01], [0.01, 0.99]])
        model.validate()
        blocks = sample_blocks(model, 20000, np.random.default_rng(1))
        freq1 = np.mean([b[0] for b in blocks])
        want = 0.9 * 0.01 + 0.1 * 0.99
        assert abs(freq1 - want) < 0.01


class TestChunking:
    def test_even_chunks(self):
        blocks = chunk_symbols(np.arange(12), 4)
        assert [len(b) for b in blocks] == [4, 4, 4]
        assert np.array_equal(np.concatenate(blocks), np.arange(12))

    def test_partial_tail(self):
        blocks = chunk_symbols(np.arange(10), 4)
        assert [len(b) for b in blocks] == [4, 4, 2]

    def test_empty_input(self):
        assert chunk_symbols(np.array([], dtype=int), 4) == []

    def test_bad_block_len(self):
        with pytest.raises(InvalidInputError):
            chunk_symbols(np.arange(4), 0)


class TestElbo:
    def test_matches_brute_force_enumeration(self):
        for seed in range(4):
            model = random_model(5, (3, 2), block_len=3, seed=seed)
            rng = np.random.default_rng(seed)
            for block in sample_blocks(model, 5, rng):
                want = brute_force_elbo(block, model)
                assert elbo(block, model) == pytest.approx(want, abs=1e-10)

    def test_three_level_brute_force(self):
        model = random_model(4, (3, 2, 2), block_len=2, seed=7)
        block = np.array([1, 3])
        assert elbo(block, model) == pytest.approx(brute_force_elbo(block, model), abs=1e-10)

    def test_never_exceeds_evidence(self):
        model = random_model(6, (4, 3), block_len=4, seed=2)
        rng = np.random.default_rng(5)
        for block in sample_blocks(model, 10, rng):
            assert elbo(block, model) <= brute_force_evidence_bits(block, model) + 1e-9

    def test_exact_posterior_attains_evidence(self):
        # with single-symbol blocks the first-symbol posterior is the full
        # posterior, so the bound must be tight
        base = random_model(5, (4, 3), block_len=1, seed=11)
        tight = posterior_model(base)
        for k in range(5):
            block = np.array([k])
            assert elbo(block, tight) == pytest.approx(
                brute_force_evidence_bits(block, base), abs=1e-10)

    def test_batched_equals_scalar(self):
        model = random_model(7, (4, 2), block_len=3, seed=4)
        blocks = sample_blocks(model, 9, np.random.default_rng(2))
        per = elbo_per_block(blocks, model)
        for b, v in zip(blocks, per):
            assert elbo(b, model) == pytest.approx(float(v), abs=1e-12)
        assert mean_elbo(blocks, model) == pytest.approx(float(per.mean()), abs=1e-12)

    def test_zero_mass_symbol_is_minus_inf(self):
        model = random_model(3, (2,), block_len=2, seed=0)
        model.p_obs = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        model.validate()
        model.q_obs = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        assert elbo(np.array([0, 2]), model) == -np.inf

    def test_rejects_out_of_range(self):
        model = random_model(3, (2,), block_len=2, seed=0)
        with pytest.raises(InvalidInputError):
            elbo(np.array([0, 3]), model)
        with pytest.raises(InvalidInputError):
            elbo_per_block([], model)


class TestCodingTables:
    def test_dyadic_rows_sum_to_one_exactly(self):
        model = random_model(9, (5, 3), block_len=4, seed=6)
        tables = build_coding_tables(model, precision=12)
        tables.dyadic.validate(atol=0.0)
        for _, table in tables.dyadic.tables():
            assert np.all(np.atleast_2d(table).sum(axis=1) == 1.0)

    def test_row_pmf_shapes(self):
        model = random_model(9, (5, 3), block_len=4, seed=6)
        tables = build_coding_tables(model)
        assert len(tables.q_obs_rows) == 9
        assert len(tables.p_obs_rows) == 5
        assert len(tables.p_link_rows[0]) == 3
        assert len(tables.q_link_rows[0]) == 5
        assert tables.model_version == model.version

    @staticmethod
    def reference_tables(model, precision, quantize):
        """Tables assembled row by row from the scalar reference quantiser."""
        def rows(table):
            out = []
            for row in table:
                freqs = quantize(row, precision)
                cdf = np.concatenate([[0], np.cumsum(freqs)])
                out.append(QuantizedPmf(precision=precision, freqs=freqs, cdf=cdf))
            return out

        return replace(build_coding_tables(model, precision),
                       q_obs_rows=rows(model.q_obs),
                       q_link_rows=[rows(t) for t in model.q_link],
                       p_obs_rows=rows(model.p_obs),
                       p_link_rows=[rows(t) for t in model.p_link],
                       p_top_pmf=rows(model.p_top[None, :])[0])

    @staticmethod
    def all_rows(tables):
        return (tables.q_obs_rows + [r for rows in tables.q_link_rows for r in rows]
                + tables.p_obs_rows + [r for rows in tables.p_link_rows for r in rows]
                + [tables.p_top_pmf])

    @pytest.mark.parametrize("method", ["bitswap", "bb"])
    def test_streams_match_reference_tables_bytewise(self, method, reference_quantize):
        # Peaked rows over a wide alphabet make the min-1 clamp overshoot,
        # the branch the row routine computes in closed form.
        truth = random_model(200, (16, 6), block_len=8, seed=8, concentration=0.05)
        blocks = sample_blocks(truth, 60, np.random.default_rng(9))
        model = fit(random_model(200, (16, 6), block_len=8, seed=10), blocks,
                    FitConfig(iterations=5))
        for precision in (10, 12, 16):
            tables = build_coding_tables(model, precision)
            reference = self.reference_tables(model, precision, reference_quantize)
            clamped = np.maximum(np.floor(model.p_obs * (1 << precision)), 1).sum(axis=1)
            assert np.any(clamped > 1 << precision)
            for row, ref in zip(self.all_rows(tables), self.all_rows(reference)):
                assert np.array_equal(row.freqs, ref.freqs)
                assert np.array_equal(row.cdf, ref.cdf)
            a = encode_stream([(blocks, tables)], initial_bits=1024, seed=3, method=method)
            b = encode_stream([(blocks, reference)], initial_bits=1024, seed=3, method=method)
            assert a.payload == b.payload
            assert a.net_bits == b.net_bits


def fresh_pair(n_bits=2048, seed=77):
    return (AnsCoder.with_random_bits(n_bits, seed=seed),
            AnsCoder.with_random_bits(n_bits, seed=seed))


class TestBlockCoding:
    @pytest.mark.parametrize("method,enc,dec", [
        ("bb", bb_encode_block, bb_decode_block),
        ("bitswap", bitswap_encode_block, bitswap_decode_block),
    ])
    def test_block_round_trip_restores_coder(self, method, enc, dec):
        model = random_model(8, (4, 3), block_len=5, seed=1)
        tables = build_coding_tables(model)
        coder = AnsCoder.with_random_bits(1024, seed=3)
        before = coder.serialize()
        block = np.array([3, 1, 7, 0, 2])
        trace = enc(coder, block, tables)
        assert trace.net == pytest.approx(trace.pushed - trace.popped)
        assert dec(coder, len(block), tables).tolist() == block.tolist()
        assert coder.serialize() == before

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            levels = int(rng.integers(1, 4))
            alphabets = tuple(int(rng.integers(2, 6)) for _ in range(levels))
            k = int(rng.integers(2, 9))
            model = random_model(k, alphabets, block_len=4, seed=trial)
            tables = build_coding_tables(model, precision=int(rng.integers(8, 14)))
            blocks = sample_blocks(model, int(rng.integers(1, 8)), rng)
            method = "bb" if trial % 2 else "bitswap"
            coder = AnsCoder.with_random_bits(4096, seed=trial)
            before = coder.serialize()
            encode_blocks(coder, blocks, tables, method=method)
            out = decode_blocks(coder, [len(b) for b in blocks], tables, method=method)
            assert all(np.array_equal(a, b) for a, b in zip(out, blocks))
            assert coder.serialize() == before

    def test_single_level_schedules_are_byte_identical(self):
        model = random_model(6, (5,), block_len=4, seed=2)
        tables = build_coding_tables(model)
        block = np.array([1, 5, 0, 3])
        a, b = fresh_pair()
        ta = bb_encode_block(a, block, tables)
        tb = bitswap_encode_block(b, block, tables)
        assert a.serialize() == b.serialize()
        assert ta == tb

    def test_net_matches_coder_tally(self):
        model = random_model(10, (6, 4), block_len=6, seed=5)
        tables = build_coding_tables(model)
        coder = AnsCoder.with_random_bits(2048, seed=9)
        blocks = sample_blocks(model, 25, np.random.default_rng(4))
        stats = encode_blocks(coder, blocks, tables, method="bitswap")
        assert coder.ideal_bits == pytest.approx(stats.net_bits, abs=1e-9)
        assert len(stats.block_nets) == 25
        assert sum(stats.block_nets) == pytest.approx(stats.net_bits, abs=1e-9)

    def test_interleaved_demand_never_larger(self):
        # the two schedules draw different latents, so nets differ block by
        # block; the auxiliary peak must be dominated on every instance
        rng = np.random.default_rng(8)
        for seed in range(3):
            model = random_model(8, (5, 4, 3), block_len=6, seed=seed)
            tables = build_coding_tables(model)
            for block in sample_blocks(model, 60, rng):
                a, b = fresh_pair(seed=seed)
                plain = bb_encode_block(a, block, tables)
                swapped = bitswap_encode_block(b, block, tables)
                assert swapped.peak_demand <= plain.peak_demand + 1e-9

    def test_demand_strictly_smaller_somewhere(self):
        model = random_model(8, (5, 4, 3), block_len=6, seed=0)
        tables = build_coding_tables(model)
        rng = np.random.default_rng(3)
        gaps = []
        for block in sample_blocks(model, 40, rng):
            a, b = fresh_pair()
            gaps.append(bb_encode_block(a, block, tables).peak_demand
                        - bitswap_encode_block(b, block, tables).peak_demand)
        assert max(gaps) > 1.0

    def test_empty_auxiliary_raises(self):
        model = random_model(8, (6, 6, 6), block_len=4, seed=1)
        tables = build_coding_tables(model)
        coder = AnsCoder.with_random_bits(0, seed=0)
        with pytest.raises(InsufficientInitialBitsError):
            for block in sample_blocks(model, 50, np.random.default_rng(0)):
                bb_encode_block(coder, block, tables)

    def test_rejects_bad_block(self):
        model = random_model(4, (3,), block_len=2, seed=0)
        tables = build_coding_tables(model)
        coder = AnsCoder.with_random_bits(512, seed=0)
        with pytest.raises(InvalidInputError):
            bitswap_encode_block(coder, np.array([0, 9]), tables)
        with pytest.raises(InvalidInputError):
            bitswap_encode_block(coder, np.array([], dtype=int), tables)


class TestStreams:
    def make_fitted(self, seed=0):
        truth = random_model(12, (6, 4), block_len=5, seed=seed)
        blocks = sample_blocks(truth, 1500, np.random.default_rng(seed + 1))
        model = fit(random_model(12, (6, 4), block_len=5, seed=seed + 50),
                    blocks, FitConfig(iterations=20))
        return model, blocks

    def test_stream_round_trip_and_report(self):
        model, blocks = self.make_fitted()
        tables = build_coding_tables(model)
        stream = encode_stream([(blocks, tables)], initial_bits=256, seed=4)
        report = net_length_report(stream)
        assert report["symbol_count"] == 1500 * 5
        assert report["net_bits"] == pytest.approx(stream.gross_bits - stream.returned_bits)
        assert 0 < report["bits_per_code"] < math.log2(12)
        out = decode_stream(stream, [([len(b) for b in blocks], tables)])
        assert all(np.array_equal(a, b) for a, b in zip(out[0], blocks))

    def test_net_matches_quantized_bound(self):
        # average coding cost must track the bound computed from the same
        # quantized tables; the latents the coder draws are the only noise
        model, blocks = self.make_fitted(seed=2)
        tables = build_coding_tables(model)
        stream = encode_stream([(blocks, tables)], initial_bits=256, seed=0)
        per_block_net = stream.net_bits / len(blocks)
        bound = -mean_elbo(blocks, tables.dyadic)
        assert per_block_net == pytest.approx(bound, abs=0.02)

    def test_multi_section_stream(self):
        model_a, _ = self.make_fitted(seed=5)
        model_b = random_model(7, (4,), block_len=3, seed=6)
        model_b.version = model_a.version
        ta = build_coding_tables(model_a)
        tb = build_coding_tables(model_b)
        rng = np.random.default_rng(9)
        blocks_a = sample_blocks(model_a, 20, rng)
        blocks_b = sample_blocks(model_b, 11, rng)
        stream = encode_stream([(blocks_a, ta), (blocks_b, tb)], initial_bits=512, seed=1)
        assert stream.symbol_count == 20 * 5 + 11 * 3
        out = decode_stream(stream, [([len(b) for b in blocks_a], ta),
                                     ([len(b) for b in blocks_b], tb)])
        assert all(np.array_equal(x, y) for x, y in zip(out[0], blocks_a))
        assert all(np.array_equal(x, y) for x, y in zip(out[1], blocks_b))

    def test_version_mismatch_rejected(self):
        model, blocks = self.make_fitted(seed=1)
        tables = build_coding_tables(model)
        stream = encode_stream([(blocks[:5], tables)])
        other = model.copy()
        other.version = model.version + 3
        with pytest.raises(DataCorruptionError):
            decode_stream(stream, [([len(b) for b in blocks[:5]], build_coding_tables(other))])

    def test_mixed_versions_in_one_stream_rejected(self):
        model, blocks = self.make_fitted(seed=1)
        ta = build_coding_tables(model)
        bumped = model.copy()
        bumped.version += 1
        tb = build_coding_tables(bumped)
        with pytest.raises(InvalidInputError):
            encode_stream([(blocks[:2], ta), (blocks[2:4], tb)])

    def test_stream_serialization_round_trip(self):
        model, blocks = self.make_fitted(seed=3)
        tables = build_coding_tables(model)
        stream = encode_stream([(blocks[:40], tables)], initial_bits=256, seed=2)
        data = serialize_stream(stream)
        back = deserialize_stream(data)
        assert back.payload == stream.payload
        assert back.symbol_count == stream.symbol_count
        assert back.model_version == stream.model_version
        out = decode_stream(back, [([len(b) for b in blocks[:40]], tables)])
        assert all(np.array_equal(x, y) for x, y in zip(out[0], blocks[:40]))

    def test_deserialized_stream_has_no_accounting(self):
        model, blocks = self.make_fitted(seed=3)
        tables = build_coding_tables(model)
        back = deserialize_stream(serialize_stream(encode_stream([(blocks[:4], tables)])))
        with pytest.raises(InvalidInputError):
            net_length_report(back)

    def test_corrupt_stream_rejected(self):
        model, blocks = self.make_fitted(seed=3)
        tables = build_coding_tables(model)
        data = bytearray(serialize_stream(encode_stream([(blocks[:4], tables)])))
        data[:4] = b"XXXX"
        with pytest.raises(DataCorruptionError):
            deserialize_stream(bytes(data))
        with pytest.raises(DataCorruptionError):
            deserialize_stream(b"DRRS\x00")

    def test_tampered_symbol_count_detected(self):
        model, blocks = self.make_fitted(seed=3)
        tables = build_coding_tables(model)
        stream = encode_stream([(blocks[:4], tables)])
        stream.symbol_count += 1
        with pytest.raises(DataCorruptionError):
            decode_stream(stream, [([len(b) for b in blocks[:4]], tables)])

    def test_empty_sections_rejected(self):
        with pytest.raises(InvalidInputError):
            encode_stream([])

    def test_unwind_check_catches_silent_payload_flips(self):
        # A flipped payload bit often decodes to wrong blocks with no error
        # along the way; the unwind check must turn every one of those
        # seen here into DataCorruptionError.
        model, blocks = self.make_fitted(seed=3)
        tables = build_coding_tables(model)
        blocks = blocks[:12]
        lens = [len(b) for b in blocks]
        stream = encode_stream([(blocks, tables)], initial_bits=256, seed=5)
        silent = 0
        for byte in range(14, len(stream.payload)):  # past the coder header
            for bit in range(8):
                data = bytearray(stream.payload)
                data[byte] ^= 1 << bit
                try:
                    out = decode_blocks(AnsCoder.deserialize(bytes(data)), lens, tables)
                except DrrError:
                    continue
                if all(np.array_equal(x, y) for x, y in zip(out, blocks)):
                    continue
                silent += 1
                with pytest.raises(DataCorruptionError):
                    decode_stream(replace(stream, payload=bytes(data)), [(lens, tables)])
        assert silent > 100

    def test_unwind_checks_seeded_prefix_length(self):
        model, blocks = self.make_fitted(seed=3)
        tables = build_coding_tables(model)
        lens = [len(b) for b in blocks[:6]]
        stream = encode_stream([(blocks[:6], tables)], initial_bits=256, seed=5)
        with pytest.raises(DataCorruptionError):
            decode_stream(replace(stream, initial_bits=512), [(lens, tables)])
        # a stream read back from bytes does not know its prefix length
        back = deserialize_stream(serialize_stream(stream))
        assert back.initial_bits is None
        out = decode_stream(back, [(lens, tables)])
        assert all(np.array_equal(x, y) for x, y in zip(out[0], blocks[:6]))


class TestFit:
    def test_bound_never_decreases(self):
        truth = random_model(10, (5, 3), block_len=4, seed=0)
        blocks = sample_blocks(truth, 400, np.random.default_rng(1))
        model = random_model(10, (5, 3), block_len=4, seed=42)
        prev = mean_elbo(blocks, model)
        for _ in range(15):
            model = fit(model, blocks, FitConfig(iterations=1))
            cur = mean_elbo(blocks, model)
            assert cur >= prev - 1e-9
            prev = cur

    def test_fit_improves_on_random_init(self):
        truth = random_model(10, (5, 3), block_len=4, seed=0)
        blocks = sample_blocks(truth, 600, np.random.default_rng(2))
        init = random_model(10, (5, 3), block_len=4, seed=7)
        fitted = fit(init, blocks, FitConfig(iterations=25))
        assert mean_elbo(blocks, fitted) > mean_elbo(blocks, init) + 0.5

    def test_recovers_generator_rate(self):
        # a structured source: sharp emissions, sticky links
        truth = random_model(8, (4, 3), block_len=6, seed=3, concentration=0.3)
        blocks = sample_blocks(truth, 4000, np.random.default_rng(3))
        fitted = fit(random_model(8, (4, 3), block_len=6, seed=19),
                     blocks, FitConfig(iterations=40))
        truth_rate = -mean_elbo(blocks, posterior_model(truth))
        fitted_rate = -mean_elbo(blocks, fitted)
        assert fitted_rate <= truth_rate + 0.1

    def test_zero_iterations_is_identity(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        blocks = sample_blocks(model, 10, np.random.default_rng(0))
        out = fit(model, blocks, FitConfig(iterations=0))
        assert np.array_equal(out.p_obs, model.p_obs)
        assert out is not model

    def test_fit_is_deterministic(self):
        truth = random_model(6, (3, 2), block_len=3, seed=4)
        blocks = sample_blocks(truth, 200, np.random.default_rng(5))
        a = fit(random_model(6, (3, 2), block_len=3, seed=8), blocks, FitConfig(iterations=5))
        b = fit(random_model(6, (3, 2), block_len=3, seed=8), blocks, FitConfig(iterations=5))
        assert np.array_equal(a.p_obs, b.p_obs)
        assert np.array_equal(a.q_obs, b.q_obs)

    def test_fit_rejects_empty_and_out_of_range(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        with pytest.raises(InvalidInputError):
            fit(model, [], FitConfig(iterations=1))
        with pytest.raises(InvalidInputError):
            fit(model, [np.array([0, 6])], FitConfig(iterations=1))

    def test_finetune_bumps_version(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        blocks = sample_blocks(model, 50, np.random.default_rng(1))
        tuned = finetune(model, blocks[:30], FitConfig(iterations=3), buffered_blocks=blocks[30:])
        assert tuned.version == model.version + 1
        frozen = finetune(model, [], FitConfig(iterations=0))
        assert frozen.version == model.version + 1
        assert np.array_equal(frozen.p_obs, model.p_obs)

    def test_finetune_empty_union_with_iterations_rejected(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        with pytest.raises(InvalidInputError):
            finetune(model, [], FitConfig(iterations=2))


class TestModelSnapshots:
    def test_round_trip_bitwise(self):
        models = [random_model(9, (5, 3), block_len=4, seed=1, version=7),
                  random_model(9, (5, 3), block_len=4, seed=2, version=7)]
        back = deserialize_models(serialize_models(models))
        assert len(back) == 2
        for a, b in zip(models, back):
            assert b.version == a.version
            assert b.alphabets == a.alphabets
            assert b.block_len == a.block_len
            for (_, ta), (_, tb) in zip(a.tables(), b.tables()):
                assert np.array_equal(ta, tb)

    def test_single_record(self):
        model = random_model(4, (3,), block_len=2, seed=0, version=1)
        back = deserialize_models(serialize_models([model]))
        assert len(back) == 1
        assert np.array_equal(back[0].p_top, model.p_top)

    def test_bad_magic_rejected(self):
        model = random_model(4, (3,), block_len=2, seed=0)
        data = bytearray(serialize_models([model]))
        data[0] = 0
        with pytest.raises(DataCorruptionError):
            deserialize_models(bytes(data))

    def test_truncation_rejected(self):
        model = random_model(4, (3,), block_len=2, seed=0)
        data = serialize_models([model])
        with pytest.raises(DataCorruptionError):
            deserialize_models(data[:len(data) // 2])

    def test_trailing_bytes_rejected(self):
        model = random_model(4, (3,), block_len=2, seed=0)
        with pytest.raises(DataCorruptionError):
            deserialize_models(serialize_models([model]) + b"\x00")

    def test_empty_snapshot_rejected(self):
        with pytest.raises(InvalidInputError):
            serialize_models([])


def pinned_block_coding(method, precision):
    """sha256 of the coder after `encode_blocks` of fixed blocks, with the
    accounting floats by repr; the last block is short."""
    tables = build_coding_tables(random_model(12, (5, 4, 3), block_len=6, seed=5), precision)
    blocks = chunk_symbols(np.random.default_rng(4).integers(0, 12, 100), 6)
    coder = AnsCoder.with_random_bits(512, seed=9)
    stats = encode_blocks(coder, blocks, tables, method=method)
    return (hashlib.sha256(coder.serialize()).hexdigest(), repr(stats.gross_bits),
            repr(stats.returned_bits), repr(stats.peak_demand_bits), repr(stats.net_bits))


class TestScalarReference:
    @pytest.mark.parametrize("method,precision,pinned", [
        ("bitswap", 12, ("768327b1c9325ac6604dd95846081403f087c866d4dd96be6bba30e51c4ffefb",
                         "494.96263977927487", "98.29180036046607", "3.870716979131771",
                         "396.6708394188088")),
        ("bitswap", 16, ("69b45524b1fa57fa26cf55874da791ab087801fac79dd1be49dff56d419785dc",
                         "502.648867505594", "80.37065883418774", "3.081882398602488",
                         "422.2782086714063")),
        ("bb", 12, ("b899eefe6cc09bb319369ef1344e14f496204086af17b94e3fb358e59a97ad4a",
                    "491.3050780178623", "93.64732578168423", "7.657901380468957",
                    "397.65775223617806")),
        ("bb", 16, ("48768cea2ec19027da005f9f5eb20ceba07fddd35f4f6748dc390c519e0f48fc",
                    "492.75715461508895", "96.76993628124339", "7.008106260575005",
                    "395.9872183338456")),
    ])
    def test_block_coding_is_pinned(self, method, precision, pinned):
        # The scalar coder's bytes and accounting floats at fixed seeds: the
        # lane coder is checked against this reference, so it must not move.
        assert pinned_block_coding(method, precision) == pinned

    def test_unknown_method_rejected_everywhere(self):
        tables = build_coding_tables(random_model(8, (4, 3), block_len=4, seed=1))
        block = np.array([1, 2, 3, 4])
        coder = AnsCoder.with_random_bits(512, seed=0)
        calls = [
            lambda: encode_block(coder, block, tables, "zip"),
            lambda: decode_block(coder, 4, tables, "zip"),
            lambda: encode_blocks(coder, [block], tables, method="zip"),
            lambda: decode_blocks(coder, [4], tables, method="zip"),
            lambda: encode_stream([([block], tables)], method="zip"),
            lambda: encode_streams([([block[None]], tables)], [0], method="zip"),
        ]
        stream = encode_stream([([block], tables)])
        calls += [
            lambda: decode_stream(stream, [([4], tables)], method="zip"),
            lambda: decode_streams([stream], [([4], tables)], method="zip"),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="unknown coding method"):
                call()
        assert coder.serialize() == AnsCoder.with_random_bits(512, seed=0).serialize()

    def test_zero_iteration_fit_still_checks_blocks(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        with pytest.raises(InvalidInputError):
            fit(model, [np.array([0, 6])], FitConfig(iterations=0))
