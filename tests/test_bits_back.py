"""Latent-chain model, exact bound, and bits-back coding tests.

The bound is checked against explicit enumeration over all latent
assignments, and against the exact log-evidence when the inference tables
are the true posteriors.  Coding tests check perfect inversion, the
accounting against the information the coder holds, and the auxiliary-bit
dominance of the interleaved schedule.
"""

import hashlib
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import coder_payload, format_3, plain_body, repacked, resealed
from test_lanes import row, scalar_decode_blocks

from drr.bits_back import (
    METHODS,
    STREAM_FORMAT_VERSION,
    STREAM_MAGIC,
    CompressedStream,
    FitConfig,
    LatentChainModel,
    build_coding_tables,
    chunk_symbols,
    decode_blocks,
    decode_stream,
    deserialize_models,
    deserialize_stream,
    elbo,
    elbo_per_block,
    encode_blocks,
    encode_stream,
    finetune,
    fit,
    mean_elbo,
    random_model,
    sample_blocks,
    serialize_models,
    serialize_stream,
)
from drr.cli import EXIT_CORRUPT, main
from drr.container import read_uvarint, seal, uvarint
from drr.errors import (
    DataCorruptionError,
    DrrError,
    InsufficientInitialBitsError,
    InvalidInputError,
)
from drr.rans import RANS_L, AnsCoder, PmfTable, QuantizedPmf, quantize_rows, read_payload
from drr.replay_store import LatentModelPair

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
        assert len(tables.q_obs.row_keys) == 9
        assert len(tables.p_obs.row_keys) == 5
        assert len(tables.p_link[0].row_keys) == 3
        assert len(tables.q_link[0].row_keys) == 5
        assert tables.model_version == model.version

    @staticmethod
    def reference_tables(model, precision, quantize):
        """Tables assembled row by row from the scalar reference quantiser."""
        def rows(table):
            return PmfTable.from_freqs([quantize(row, precision) for row in table], precision)

        return replace(build_coding_tables(model, precision),
                       q_obs=rows(model.q_obs),
                       q_link=[rows(t) for t in model.q_link],
                       p_obs=rows(model.p_obs),
                       p_link=[rows(t) for t in model.p_link],
                       p_top=rows(model.p_top[None, :]))

    @staticmethod
    def all_rows(tables):
        return [row(table, r) for table in lane_tables(tables)
                for r in range(len(table.row_keys))]

    def test_builds_no_row_objects(self, monkeypatch):
        built = []
        real = QuantizedPmf.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(QuantizedPmf, "__init__", counting)
        build_coding_tables(random_model(9, (5, 3), block_len=4, seed=6))
        assert built == []

    @pytest.mark.parametrize("precision", [2, 12, 16])
    def test_tables_hold_the_quantized_rows_read_only(self, precision):
        model = random_model(4, (3, 2, 4), block_len=3, seed=3) if precision == 2 \
            else clamp_model()
        tables = build_coding_tables(model, precision)
        coded = {"p_obs": tables.p_obs, "p_top": tables.p_top, "q_obs": tables.q_obs}
        coded.update((f"p_link[{i}]", t) for i, t in enumerate(tables.p_link))
        coded.update((f"q_link[{i}]", t) for i, t in enumerate(tables.q_link))
        for name, probs in model.tables():
            freqs, cdf = quantize_rows(np.atleast_2d(probs), precision)
            table = coded[name]
            assert len(table.row_keys) == len(freqs)
            assert table.precision == precision and table.cdf.dtype == np.int64
            assert np.array_equal(table.freqs.reshape(freqs.shape), freqs)
            assert np.array_equal(table.cdf, cdf)
            assert not table.freqs.flags.writeable and not table.cdf.flags.writeable

    @staticmethod
    def peaked_model():
        """A fitted model and its blocks.  Peaked rows over a wide alphabet
        make the min-1 clamp overshoot, the branch the row routine computes
        in closed form."""
        truth = random_model(200, (16, 6), block_len=8, seed=8, concentration=0.05)
        blocks = sample_blocks(truth, 60, np.random.default_rng(9))
        model = fit(random_model(200, (16, 6), block_len=8, seed=10), blocks,
                    FitConfig(iterations=5))
        return model, blocks

    def test_streams_match_reference_tables_bytewise(self, reference_quantize):
        model, blocks = self.peaked_model()
        for precision in (10, 12, 16):
            tables = build_coding_tables(model, precision)
            reference = self.reference_tables(model, precision, reference_quantize)
            clamped = np.maximum(np.floor(model.p_obs * (1 << precision)), 1).sum(axis=1)
            assert np.any(clamped > 1 << precision)
            for got, ref in zip(self.all_rows(tables), self.all_rows(reference)):
                assert np.array_equal(got.freqs, ref.freqs)
                assert np.array_equal(got.cdf, np.concatenate([[0], np.cumsum(ref.freqs)]))
            a = encode_stream([(blocks, tables)], initial_bits=1024, seed=3)
            b = encode_stream([(blocks, reference)], initial_bits=1024, seed=3)
            assert a.payload == b.payload
            assert a.net_bits == b.net_bits

    @pytest.mark.parametrize("method", METHODS)
    def test_block_chains_match_reference_tables_bytewise(self, method, reference_quantize):
        # Block chains under each schedule; streams code Bit-Swap only.
        model, blocks = self.peaked_model()
        for precision in (10, 12, 16):
            tables = build_coding_tables(model, precision)
            reference = self.reference_tables(model, precision, reference_quantize)
            a, b = (AnsCoder.with_random_bits(1024, seed=3) for _ in range(2))
            stats_a = encode_blocks(a, blocks, tables, method=method)
            stats_b = encode_blocks(b, blocks, reference, method=method)
            assert coder_payload(a) == coder_payload(b)
            assert ((stats_a.gross_bits, stats_a.returned_bits)
                    == (stats_b.gross_bits, stats_b.returned_bits))


def fresh_pair(n_bits=2048, seed=77):
    return (AnsCoder.with_random_bits(n_bits, seed=seed),
            AnsCoder.with_random_bits(n_bits, seed=seed))


class TestBlockCoding:
    @pytest.mark.parametrize("method", METHODS)
    def test_block_round_trip_restores_coder(self, method):
        model = random_model(8, (4, 3), block_len=5, seed=1)
        tables = build_coding_tables(model)
        coder = AnsCoder.with_random_bits(1024, seed=3)
        before = coder_payload(coder)
        block = np.array([3, 1, 7, 0, 2])
        encode_blocks(coder, [block], tables, method=method)
        [back] = decode_blocks(coder, [len(block)], tables, method=method)
        assert back.tolist() == block.tolist()
        assert coder_payload(coder) == before

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
            before = coder_payload(coder)
            encode_blocks(coder, blocks, tables, method=method)
            out = decode_blocks(coder, [len(b) for b in blocks], tables, method=method)
            assert all(np.array_equal(a, b) for a, b in zip(out, blocks))
            assert coder_payload(coder) == before

    def test_single_level_schedules_are_byte_identical(self):
        model = random_model(6, (5,), block_len=4, seed=2)
        tables = build_coding_tables(model)
        block = np.array([1, 5, 0, 3])
        a, b = fresh_pair()
        ta = encode_blocks(a, [block], tables, method="bb")
        tb = encode_blocks(b, [block], tables, method="bitswap")
        assert coder_payload(a) == coder_payload(b)
        assert ta == tb

    @pytest.mark.parametrize("method", METHODS)
    def test_net_matches_information_held(self, method):
        # The coder's information level, 8 bits per stack byte plus
        # log2(state), grows by what the blocks pushed less what they
        # popped; rANS rounding moves it by far less than 1e-4 bits here.
        model = random_model(10, (6, 4), block_len=6, seed=5)
        tables = build_coding_tables(model)
        coder = AnsCoder.with_random_bits(2048, seed=9)
        blocks = sample_blocks(model, 25, np.random.default_rng(4))

        def held():
            return 8.0 * len(coder.stack) + math.log2(coder.state)

        before = held()
        stats = encode_blocks(coder, blocks, tables, method=method)
        net = stats.gross_bits - stats.returned_bits
        assert held() - before == pytest.approx(net, abs=1e-4)
        assert net > 25 * 6

    def test_interleaved_demand_never_larger(self):
        # the two schedules draw different latents, so nets differ block by
        # block; the auxiliary peak must be dominated on every instance
        rng = np.random.default_rng(8)
        for seed in range(3):
            model = random_model(8, (5, 4, 3), block_len=6, seed=seed)
            tables = build_coding_tables(model)
            for block in sample_blocks(model, 60, rng):
                a, b = fresh_pair(seed=seed)
                plain = encode_blocks(a, [block], tables, method="bb")
                swapped = encode_blocks(b, [block], tables, method="bitswap")
                assert swapped.peak_demand_bits <= plain.peak_demand_bits + 1e-9

    def test_demand_strictly_smaller_somewhere(self):
        model = random_model(8, (5, 4, 3), block_len=6, seed=0)
        tables = build_coding_tables(model)
        rng = np.random.default_rng(3)
        gaps = []
        for block in sample_blocks(model, 40, rng):
            a, b = fresh_pair()
            gaps.append(encode_blocks(a, [block], tables, method="bb").peak_demand_bits
                        - encode_blocks(b, [block], tables, method="bitswap").peak_demand_bits)
        assert max(gaps) > 1.0

    def test_empty_auxiliary_raises(self):
        model = random_model(8, (6, 6, 6), block_len=4, seed=1)
        tables = build_coding_tables(model)
        coder = AnsCoder.with_random_bits(0, seed=0)
        with pytest.raises(InsufficientInitialBitsError):
            encode_blocks(coder, sample_blocks(model, 50, np.random.default_rng(0)), tables,
                          method="bb")

    def test_rejects_bad_block(self):
        model = random_model(4, (3,), block_len=2, seed=0)
        tables = build_coding_tables(model)
        coder = AnsCoder.with_random_bits(512, seed=0)
        with pytest.raises(InvalidInputError):
            encode_blocks(coder, [np.array([0, 9])], tables)
        with pytest.raises(InvalidInputError):
            encode_blocks(coder, [np.array([], dtype=int)], tables)


class TestStreams:
    def make_fitted(self, seed=0):
        truth = random_model(12, (6, 4), block_len=5, seed=seed)
        blocks = sample_blocks(truth, 1500, np.random.default_rng(seed + 1))
        model = fit(random_model(12, (6, 4), block_len=5, seed=seed + 50),
                    blocks, FitConfig(iterations=20))
        return model, blocks

    def test_stream_round_trip_and_accounting(self):
        model, blocks = self.make_fitted()
        tables = build_coding_tables(model)
        stream = encode_stream([(blocks, tables)], initial_bits=256, seed=4)
        assert stream.symbol_count == 1500 * 5
        assert stream.net_bits == pytest.approx(stream.gross_bits - stream.returned_bits)
        assert 0 < stream.net_bits / stream.symbol_count < math.log2(12)
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
        assert back.net_bits is None

    def test_net_bits_follows_gross_and_returned(self):
        model, blocks = self.make_fitted(seed=3)
        stream = encode_stream([(blocks[:4], build_coding_tables(model))])
        assert "net_bits" not in {f.name for f in fields(stream)}
        assert stream.net_bits == stream.gross_bits - stream.returned_bits
        moved = replace(stream, gross_bits=stream.gross_bits + 8.0)
        assert moved.net_bits == moved.gross_bits - stream.returned_bits

    def test_corrupt_stream_rejected(self, tmp_path, capsys):
        model, blocks = self.make_fitted(seed=3)
        tables = build_coding_tables(model)
        good = serialize_stream(encode_stream([(blocks[:4], tables)]))
        data = bytearray(good)
        data[:4] = b"XXXX"
        with pytest.raises(DataCorruptionError, match="magic"):
            deserialize_stream(bytes(data))
        with pytest.raises(DataCorruptionError, match="shorter than its header"):
            deserialize_stream(b"DRRS\x00")
        # Past a valid checksum, the stream's own checks: a body cut inside
        # the record (here two one-byte varints), a payload too short for
        # its k and state, and a state no coder leaves.  The payload is
        # parsed where it is read: by the decoder and by `drr inspect`, not
        # on load.
        def cut(body, length):
            del body[length:]

        assert good[10:12] == bytes([0, 20])  # model version 0, 20 symbols
        for length, what in ((0, "model version"), (1, "symbol count")):
            with pytest.raises(DataCorruptionError, match=f"{what} varint cut short"):
                deserialize_stream(resealed(good, lambda body: cut(body, length)))

        def low_state(body):
            body[4:9] = (RANS_L - 1).to_bytes(5, "little")

        lens = [len(block) for block in blocks[:4]]
        path = tmp_path / "bad.drrs"
        for bad, match in ((resealed(good, lambda body: cut(body, 8)), "shorter than its 7-byte"),
                           (resealed(good, low_state), "below")):
            stream = deserialize_stream(bad)
            with pytest.raises(DataCorruptionError, match=match):
                decode_stream(stream, [(lens, tables)])
            path.write_bytes(bad)
            assert main(["inspect", "--file", str(path)]) == EXIT_CORRUPT
            assert match in capsys.readouterr().err

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
        for byte in range(len(stream.payload)):
            for bit in range(8):
                data = bytearray(stream.payload)
                data[byte] ^= 1 << bit
                try:
                    out = scalar_decode_blocks(AnsCoder.deserialize(bytes(data)), lens, tables,
                                               "bitswap")
                except DrrError:
                    continue
                if all(np.array_equal(x, y) for x, y in zip(out, blocks)):
                    continue
                silent += 1
                with pytest.raises(DataCorruptionError):
                    decode_stream(replace(stream, payload=bytes(data)), [(lens, tables)])
        assert silent > 100

    def test_unwind_checks_seeded_prefix_length(self):
        # The payload stores k, the seeded bytes its decoder restores: the
        # coder must unwind to exactly k bytes, and k cannot exceed the
        # stream's initial bits when those are known.
        model, blocks = self.make_fitted(seed=3)
        tables = build_coding_tables(model)
        lens = [len(b) for b in blocks[:6]]
        stream = encode_stream([(blocks[:6], tables)], initial_bits=256, seed=5)
        _, restored, _ = read_payload(stream.payload)
        assert 1 <= restored <= 32
        with pytest.raises(DataCorruptionError, match="restores"):
            decode_stream(replace(stream, initial_bits=8 * (restored - 1)), [(lens, tables)])
        # a stream read back from bytes does not know its initial bits, but
        # its k is checked all the same
        back = deserialize_stream(serialize_stream(stream))
        assert back.initial_bits is None
        out = decode_stream(back, [(lens, tables)])
        assert all(np.array_equal(x, y) for x, y in zip(out[0], blocks[:6]))
        for wrong in (restored - 1, restored + 1):
            payload = bytearray(back.payload)
            payload[0:2] = wrong.to_bytes(2, "little")  # k leads the payload
            with pytest.raises(DataCorruptionError, match="unwound"):
                decode_stream(replace(back, payload=bytes(payload)), [(lens, tables)])


def record_file(record, payload=b"\x00" * 7):
    """A sealed stream file whose body is `record` then `payload`."""
    return seal(STREAM_MAGIC, STREAM_FORMAT_VERSION, bytes(record) + payload)


class TestStreamRecord:
    """The stream record: two varints, model version (u32) then symbol
    count (u64), each in its one shortest form."""

    @pytest.mark.parametrize("value,encoded", [
        (0, b"\x00"), (1, b"\x01"), (127, b"\x7f"), (128, b"\x80\x01"), (300, b"\xac\x02"),
        (16383, b"\xff\x7f"), (16384, b"\x80\x80\x01"),
        (2**32 - 1, b"\xff\xff\xff\xff\x0f")])
    def test_varint_bytes(self, value, encoded):
        assert uvarint(value, 32, "v") == encoded
        assert read_uvarint(b"\xaa" + encoded + b"\xbb", 1, 32, "v") == (value, 1 + len(encoded))

    def test_widest_values_round_trip(self):
        for value, bits, size in ((2**32 - 1, 32, 5), (2**64 - 1, 64, 10), (2**63, 64, 10)):
            data = uvarint(value, bits, "v")
            assert len(data) == size
            assert read_uvarint(data, 0, bits, "v") == (value, size)

    @pytest.mark.parametrize("value,bits", [
        (-1, 32), (2**32, 32), (2**64, 64), (-1, 64), (1.0, 32), ("1", 32)])
    def test_writer_rejects_values_outside_the_field(self, value, bits):
        with pytest.raises(InvalidInputError, match="symbol count"):
            uvarint(value, bits, "symbol count")

    @pytest.mark.parametrize("version,count", [(2**32, 20), (-1, 20), (0, 2**64), (0, -1)])
    def test_serialize_rejects_values_outside_the_record(self, version, count):
        stream = CompressedStream(payload=b"", symbol_count=count, model_version=version)
        with pytest.raises(InvalidInputError):
            serialize_stream(stream)

    def test_numpy_integers_are_written_as_ints(self):
        stream = CompressedStream(payload=b"\x01", symbol_count=np.int64(300),
                                  model_version=np.uint32(5))
        back = deserialize_stream(serialize_stream(stream))
        assert (back.model_version, back.symbol_count) == (5, 300)

    @pytest.mark.parametrize("version,count,record", [
        (0, 0, 2), (127, 127, 2), (128, 127, 3), (3, 300, 3), (2**32 - 1, 2**64 - 1, 15)])
    def test_size_rule(self, version, count, record):
        # The container's 10 bytes, one byte per varint below 128, then the
        # payload; and reading the file back gives the same stream.
        stream = CompressedStream(payload=b"payload", symbol_count=count, model_version=version)
        data = serialize_stream(stream)
        assert len(data) == 10 + record + len(stream.payload)
        back = deserialize_stream(data)
        assert (back.model_version, back.symbol_count, back.payload) == (version, count, b"payload")
        assert serialize_stream(back) == data

    @pytest.mark.parametrize("record,match", [
        (b"", "model version varint cut short"),
        (b"\x80", "model version varint cut short"),
        (b"\xff\xff\xff\xff", "model version varint cut short"),
        (b"\x05", "symbol count varint cut short"),
        (b"\x05\xac", "symbol count varint cut short"),
        (b"\x05" + b"\xff" * 9, "symbol count varint cut short"),
    ])
    def test_truncated_varint_rejected(self, record, match):
        with pytest.raises(DataCorruptionError, match=match):
            deserialize_stream(record_file(record, payload=b""))

    @pytest.mark.parametrize("record,what", [
        (b"\x80\x00\x14", "model version"), (b"\x85\x00\x14", "model version"),
        (b"\x05\x80\x00", "symbol count"), (b"\x05\x94\x80\x00", "symbol count"),
    ])
    def test_overlong_varint_rejected(self, record, what):
        # 0x80 0x00 is a second spelling of 0, and 0x85 0x00 of 5: every
        # value has one byte form, so each is corrupt.
        with pytest.raises(DataCorruptionError, match=f"{what} varint is not in its shortest"):
            deserialize_stream(record_file(record))

    @pytest.mark.parametrize("record,match", [
        (uvarint(2**32, 64, "v") + b"\x14", "model version 4294967296 does not fit its 32-bit"),
        (b"\xff" * 4 + b"\x7f\x14", "model version .* does not fit its 32-bit"),
        (b"\x05" + uvarint(2**64, 65, "v"), "symbol count 18446744073709551616 does not fit"),
        (b"\xff" * 5 + b"\x01\x14", "model version varint longer than its 32-bit field"),
        (b"\x05" + b"\x80" * 10 + b"\x01", "symbol count varint longer than its 64-bit"),
    ])
    def test_value_wider_than_its_field_rejected(self, record, match):
        with pytest.raises(DataCorruptionError, match=match):
            deserialize_stream(record_file(record))


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

    def test_negative_iterations_rejected(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        blocks = sample_blocks(model, 10, np.random.default_rng(0))
        for call in (fit, finetune):
            with pytest.raises(InvalidInputError, match="iterations"):
                call(model, blocks, FitConfig(iterations=-5))

    def test_finetune_bumps_version(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        blocks = sample_blocks(model, 50, np.random.default_rng(1))
        tuned = finetune(model, blocks, FitConfig(iterations=3))
        assert tuned.version == model.version + 1
        frozen = finetune(model, blocks, FitConfig(iterations=0))
        assert frozen.version == model.version + 1
        assert np.array_equal(frozen.p_obs, model.p_obs)
        with pytest.raises(InvalidInputError):
            finetune(model, [np.array([0, 6])], FitConfig(iterations=0))

    def test_finetune_empty_union_with_iterations_rejected(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        with pytest.raises(InvalidInputError):
            finetune(model, [], FitConfig(iterations=2))


def snapshot(*models, precision=12):
    """The model file of `models`' coding tables at `precision`."""
    return serialize_models([build_coding_tables(m, precision) for m in models])


def assert_same_tables(a, b):
    """Coding tables `a` and `b` agree array for array, the dyadic model's
    memory layout included."""
    assert a.precision == b.precision
    for name in ("q_obs", "q_link", "p_obs", "p_link", "p_top"):
        xs, ys = getattr(a, name), getattr(b, name)
        assert isinstance(xs, list) == isinstance(ys, list)
        for x, y in zip(*((t if isinstance(t, list) else [t]) for t in (xs, ys))):
            for field in fields(PmfTable):
                assert np.array_equal(getattr(x, field.name), getattr(y, field.name))
    ma, mb = a.dyadic, b.dyadic
    assert (ma.obs_alphabet, ma.alphabets, ma.block_len, ma.version) == (
        mb.obs_alphabet, mb.alphabets, mb.block_len, mb.version)
    for (_, x), (_, y) in zip(ma.tables(), mb.tables()):
        assert x.dtype == y.dtype and x.shape == y.shape and x.strides == y.strides
        assert x.flags.c_contiguous and not x.flags.writeable and not y.flags.writeable
        assert x.tobytes() == y.tobytes()


class TestModelSnapshots:
    @pytest.mark.parametrize("precision", [9, 12, 16])
    def test_round_trip_bitwise(self, precision):
        tables = [build_coding_tables(random_model(9, (5, 3), block_len=4, seed=s, version=7),
                                      precision) for s in (1, 2)]
        back = deserialize_models(serialize_models(tables))
        assert len(back) == 2
        for a, b in zip(tables, back):
            assert_same_tables(a, b)

    def test_single_record(self):
        model = random_model(4, (3,), block_len=2, seed=0, version=1)
        back = deserialize_models(snapshot(model))
        assert len(back) == 1
        assert np.array_equal(back[0].dyadic.p_top, build_coding_tables(model).dyadic.p_top)

    def test_file_holds_frequencies_minus_one(self):
        # One 4-symbol model of one 3-latent level: p_obs (3x4), p_top (3),
        # q_obs (4x3) after the count, precision, record and alphabet.
        model = random_model(4, (3,), block_len=2, seed=0, version=1)
        tables = build_coding_tables(model, 10)
        body = plain_body(snapshot(model, precision=10))
        assert body[:2] == bytes([1, 10]) and len(body) == 2 + 12 + 4 + 2 * (12 + 3 + 12)
        stored = np.frombuffer(body, dtype="<u2", offset=18)
        assert stored.tolist() == [int(f) - 1 for t in (tables.p_obs, tables.p_top, tables.q_obs)
                                   for f in t.freqs]

    def test_a_dyadic_model_quantizes_to_its_own_frequencies(self):
        # The loaded pair is the dyadic one; rebuilding its tables at the
        # stored precision must give the stored rows back.
        for precision in (4, 12, 16):
            tables = build_coding_tables(three_level_model(), precision)
            assert_same_tables(build_coding_tables(tables.dyadic, precision), tables)

    def test_models_of_one_file_share_a_precision(self):
        model = random_model(4, (3,), block_len=2, seed=0)
        with pytest.raises(InvalidInputError, match="share a precision"):
            serialize_models([build_coding_tables(model, 10), build_coding_tables(model, 12)])

    def test_bad_magic_rejected(self):
        data = bytearray(snapshot(random_model(4, (3,), block_len=2, seed=0)))
        data[0] = 0
        with pytest.raises(DataCorruptionError):
            deserialize_models(bytes(data))

    def test_truncation_rejected(self):
        data = snapshot(random_model(4, (3,), block_len=2, seed=0))
        with pytest.raises(DataCorruptionError, match="checksum"):
            deserialize_models(data[:len(data) // 2])

        def halve(body):
            del body[len(body) // 2:]

        def in_record(body):
            del body[10:]

        with pytest.raises(DataCorruptionError, match="deflate stream cut short"):
            deserialize_models(resealed(data, halve))
        with pytest.raises(DataCorruptionError, match="^model snapshot tables inflate to 52 "
                                                      "bytes, not the 54 their header implies$"):
            deserialize_models(repacked(data, lambda body: body.__delitem__(slice(-2, None))))
        for edit in (in_record, bytearray.clear):
            with pytest.raises(DataCorruptionError, match="truncated or inconsistent"):
                deserialize_models(resealed(data, edit))

    def test_trailing_bytes_rejected(self):
        data = snapshot(random_model(4, (3,), block_len=2, seed=0))
        with pytest.raises(DataCorruptionError, match="checksum"):
            deserialize_models(data + b"\x00")
        with pytest.raises(DataCorruptionError, match="trailing bytes after the deflate stream"):
            deserialize_models(resealed(data, lambda body: body.append(0)))

    def test_empty_snapshot_rejected(self):
        with pytest.raises(InvalidInputError):
            serialize_models([])

        def no_models(body):  # the record count and the precision only
            body[:] = bytes([0]) + body[1:2]

        with pytest.raises(DataCorruptionError, match="holds no models"):
            deserialize_models(resealed(snapshot(random_model(4, (3,), seed=0)), no_models))


def pinned_block_coding(method, precision):
    """sha256 of the coder after `encode_blocks` of fixed blocks, with the
    accounting floats by repr; the last block is short."""
    tables = build_coding_tables(random_model(12, (5, 4, 3), block_len=6, seed=5), precision)
    blocks = chunk_symbols(np.random.default_rng(4).integers(0, 12, 100), 6)
    coder = AnsCoder.with_random_bits(512, seed=9)
    stats = encode_blocks(coder, blocks, tables, method=method)
    return (hashlib.sha256(coder_payload(coder)).hexdigest(), repr(stats.gross_bits),
            repr(stats.returned_bits), repr(stats.peak_demand_bits),
            repr(stats.gross_bits - stats.returned_bits))


class TestScalarReference:
    @pytest.mark.parametrize("method,precision,pinned", [
        ("bitswap", 12, ("ec91543c0d3d96195e0fce5dddb910a31e3dede0f2a7ba0600f7dfe43614fb4f",
                         "494.96263977927487", "98.29180036046607", "3.870716979131771",
                         "396.6708394188088")),
        ("bitswap", 16, ("f135f0b515529ea205e40d602c65bfe7f3efc23a7288c5688d4f2ff148926a67",
                         "502.648867505594", "80.37065883418774", "3.081882398602488",
                         "422.2782086714063")),
        ("bb", 12, ("552642f2738dcfb8fed3bbd2b1c9ecdd5a45f77eb05c10a8c82b1a2a56d0675a",
                    "491.3050780178623", "93.64732578168423", "7.657901380468957",
                    "397.65775223617806")),
        ("bb", 16, ("a420c31bc35288ba4783111a279e6d674aefbb823b275c4f9a3bd9a04488142b",
                    "492.75715461508895", "96.76993628124339", "7.008106260575005",
                    "395.9872183338456")),
    ])
    def test_block_coding_is_pinned(self, method, precision, pinned):
        # The coder's bytes and accounting floats at fixed seeds, written
        # when a scalar block coder ran `encode_blocks`; they must not move.
        # The digests are of the headerless payload (k, state, stack): with
        # the format-1 header put back the same coders give the digests the
        # scalar block coder wrote.
        assert pinned_block_coding(method, precision) == pinned

    def test_unknown_method_rejected_everywhere(self):
        tables = build_coding_tables(random_model(8, (4, 3), block_len=4, seed=1))
        block = np.array([1, 2, 3, 4])
        coder = AnsCoder.with_random_bits(512, seed=0)
        calls = [
            lambda: encode_blocks(coder, [block], tables, method="zip"),
            lambda: decode_blocks(coder, [4], tables, method="zip"),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="unknown coding method"):
                call()
        assert coder_payload(coder) == coder_payload(AnsCoder.with_random_bits(512, seed=0))

    def test_zero_iteration_fit_still_checks_blocks(self):
        model = random_model(6, (3,), block_len=2, seed=1)
        with pytest.raises(InvalidInputError):
            fit(model, [np.array([0, 6])], FitConfig(iterations=0))


def reference_block_stats(blocks, obs_alphabet):
    """`_block_stats` as it was with one `np.bincount` per block, kept
    verbatim as the reference the single-bincount histogram must match."""
    from drr.bits_back import _check_block
    blocks = [_check_block(b, obs_alphabet) for b in blocks]
    if not blocks:
        raise InvalidInputError("no blocks given")
    x0 = np.array([int(b[0]) for b in blocks])
    hist = np.stack([np.bincount(b, minlength=obs_alphabet) for b in blocks]).astype(np.float64)
    return x0, hist


def reference_obs_loglik(hist, p_obs):
    """`_obs_loglik` as it was with the boolean zero-mass product, verbatim."""
    with np.errstate(divide="ignore"):
        log_p_obs = np.log(p_obs)
    ll = hist @ np.where(np.isfinite(log_p_obs), log_p_obs, 0.0).T
    ll[(hist > 0) @ (p_obs.T == 0)] = -np.inf
    return ll


def model_digest(model):
    """sha256 of every table's bytes and the version."""
    data = b"".join(t.tobytes() for _, t in model.tables()) + str(model.version).encode()
    return hashlib.sha256(data).hexdigest()


def zero_mass_case():
    """Blocks over 5 of 12 codes, so the first refit gives p_obs zero columns.
    Blocks opening with 0-2 never reach latent 0, and those opening with 3
    or 4 hold only 3 and 4, so latent 0 gives codes 0-2 zero mass and their
    blocks score -inf under it on every iteration.  The last block is short."""
    model = random_model(12, (4, 3), block_len=6, seed=21)
    model.q_obs[:3, 0] = 0.0
    model.q_obs /= model.q_obs.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(22)
    mixed = rng.integers(0, 5, size=(20, 6))
    mixed[:, 0] = rng.integers(0, 3, size=20)
    narrow = rng.integers(3, 5, size=(10, 6))
    blocks = [b for pair in zip(mixed[:10], narrow) for b in pair] + list(mixed[10:])
    blocks.append(np.array([2, 0, 1, 4]))
    return model, blocks


def negative_entry_case():
    """No block reaches latent 3, so every refit keeps its p_obs row, which
    holds a -1e-10 entry (allowed by `validate`): its log is NaN.  One
    level, so the unreachable latent has no link row to refit."""
    model = random_model(12, (4,), block_len=6, seed=23)
    model.q_obs[:, 3] = 0.0
    model.q_obs /= model.q_obs.sum(axis=1, keepdims=True)
    model.p_obs[3, 5] += model.p_obs[3, 2] + 1e-10
    model.p_obs[3, 2] = -1e-10
    model.validate()
    symbols = np.random.default_rng(24).integers(0, 12, size=6 * 25 + 3)
    return model, chunk_symbols(symbols, 6)


class TestFitStatistics:
    # Taken when `fit` built its histogram per block, masked zero mass with
    # a boolean product and summed with `np.add.at`.
    @pytest.mark.parametrize("case, pinned_fit, pinned_finetune", [
        (zero_mass_case,
         "5a5674a3960c34549a08c2a5768a4e2ba7799eab71776a2f5b0bc2b4902a6694",
         "7220f73561d5790dd676f7a937a6a9760a26ea5db7fb349439af639090a76f6c"),
        (negative_entry_case,
         "7d1835d1e3b953e0d460944227c3a3d4bbd739301cc8d33b409caaeb65cb09d6",
         "6557f78a26db88e0479fb5c7b9d7032ae5b35a32ce2f1aa2e4c5f71d2b073150"),
    ])
    def test_fit_and_finetune_are_pinned(self, case, pinned_fit, pinned_finetune):
        model, blocks = case()
        with np.errstate(invalid="ignore"):  # the log of the negative entry
            fitted = fit(model, blocks, FitConfig(iterations=4))
            tuned = finetune(model, blocks, FitConfig(iterations=3))
        for out in (fitted, tuned):
            assert all(np.all(np.isfinite(t)) for _, t in out.tables())
        assert model_digest(fitted) == pinned_fit
        assert model_digest(tuned) == pinned_finetune

    def test_zero_mass_case_reaches_minus_inf(self):
        from drr.bits_back import _block_stats, _obs_loglik
        model, blocks = zero_mass_case()
        _, hist = _block_stats(blocks, model.obs_alphabet)
        refit = fit(model, blocks, FitConfig(iterations=1))
        assert np.isneginf(_obs_loglik(hist, refit.p_obs)).any()

    def test_block_stats_match_reference(self):
        from drr.bits_back import _block_stats
        rng = np.random.default_rng(30)
        for k, block_len, n in [(12, 6, 31), (512, 16, 97), (3, 1, 5), (7, 5, 1)]:
            symbols = rng.integers(0, k, size=block_len * n - block_len // 2)
            blocks = chunk_symbols(symbols, block_len)
            got = _block_stats(blocks, k)
            want = reference_block_stats(blocks, k)
            assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("blocks", [[], [np.array([0, 1]), np.array([], dtype=int)],
                                        [np.array([0, 12])], [np.array([-1, 3])]])
    def test_block_stats_rejects_what_the_reference_rejects(self, blocks):
        from drr.bits_back import _block_stats
        for stats in (_block_stats, reference_block_stats):
            with pytest.raises(InvalidInputError):
                stats(blocks, 12)

    def test_obs_loglik_matches_reference(self):
        from drr.bits_back import _block_stats, _obs_loglik
        rng = np.random.default_rng(31)
        symbols = rng.integers(0, 9, size=6 * 40 - 2)
        _, hist = _block_stats(chunk_symbols(symbols, 6), 12)
        p_obs = rng.dirichlet(np.ones(12), size=5)
        p_obs[:, 9:] = 0.0            # unused codes: zero columns
        p_obs[1, [2, 4]] = 0.0        # used codes with zero mass: -inf
        p_obs[3, 6] = -1e-10          # allowed negative entry: NaN log
        with np.errstate(invalid="ignore"):
            got = _obs_loglik(hist, p_obs)
            want = reference_obs_loglik(hist, p_obs)
        assert np.isneginf(got).any() and np.isfinite(got).any()
        assert np.array_equal(got, want)


# -- table building ----------------------------------------------------------------

def lane_tables(tables):
    return [tables.q_obs] + tables.q_link + [tables.p_obs] + tables.p_link + [tables.p_top]


def tables_digest(tables):
    """sha256 of every array `build_coding_tables` returns, each with its
    dtype and shape: every row's freqs and cdf, every lane table field
    (costs included), and the dyadic model's tables."""
    h = hashlib.sha256()

    def add(array):
        array = np.asarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())

    for row in TestCodingTables.all_rows(tables):
        h.update(str(row.precision).encode())
        add(row.freqs)
        add(row.cdf)
    for table in lane_tables(tables):
        h.update(f"{table.precision},{table.alphabet}".encode())
        for name in ("freqs", "starts", "keys", "row_keys", "costs"):
            add(getattr(table, name))
    dyadic = tables.dyadic
    for _, table in dyadic.tables():
        add(table)
    h.update(repr((tables.precision, tables.model_version, tables.levels, dyadic.block_len,
                   dyadic.obs_alphabet, dyadic.alphabets, dyadic.block_len,
                   dyadic.version)).encode())
    return h.hexdigest()


def fitted_pair(k, alphabets, block_len, seed, n_blocks=120, iterations=8):
    """A seeded pair, each model fitted on blocks sampled from a peaked
    generator, as a buffer's refit leaves it."""
    pair = LatentModelPair.seeded(k, alphabets, block_len, seed)
    models = []
    for i, model in enumerate((pair.top, pair.bottom)):
        truth = random_model(k, alphabets, block_len=block_len, seed=100 + 2 * seed + i,
                             concentration=0.1)
        blocks = sample_blocks(truth, n_blocks, np.random.default_rng(200 + 2 * seed + i))
        models.append(fit(model, blocks, FitConfig(iterations=iterations)))
    return models


def paper_models():
    """K=512, eight levels of alphabet 8, block 16: the paper-shaped pair."""
    return fitted_pair(512, (8,) * 8, 16, seed=0)


def toy_models():
    """K=32, alphabets 6 and 4, block 8: the acceptance-13 pair."""
    return fitted_pair(32, (6, 4), 8, seed=3)


def clamp_model():
    """Peaked rows over a wide alphabet: the min-1 clamp overshoots."""
    truth = random_model(200, (16, 6), block_len=8, seed=8, concentration=0.05)
    blocks = sample_blocks(truth, 60, np.random.default_rng(9))
    return fit(random_model(200, (16, 6), block_len=8, seed=10), blocks,
               FitConfig(iterations=5))


class TestTableBytes:
    # Taken when every table was quantized on its own, its rows re-stacked
    # for the lane coder and its costs found through `np.unique`.
    @pytest.mark.parametrize("case, precision, pinned", [
        ("paper", 12, ["47ff91c1d8603733cc4dfe54ab0d51c6ccdd7a1e2ccd401734673d81963a2ed7",
                       "5c23ecb6123cdfb267e10b6c652c5ea3558e15b4f8a15cd122a057debb5bbe4f"]),
        ("paper", 16, ["1d7c4adfa40cf20e2acc911051ddf0044e65749aac0ef429ae0a934b5b12ea99",
                       "537ec2af45b67bf9b66f3e17a44414bd029d1cd329a15221313c72e8c1eb9b6c"]),
        ("clamp", 12, ["85d9be5762753983471aa2b87740dfbefeffc5df6cec17ff070dba84826f46d3"]),
        ("toy", 12, ["127461d2ec0b58e23ffbad4f777578c57628c67e9c0a9c47418e4687850082c8",
                     "b92dd3b976a3530599e08da18dc5df4c34b8bee1f951354e6fcffbb3fe77c028"]),
        ("tiny", 2, ["e4c92a5993079f05a312329a6e2d5beac23e2addc599f48b99e6314e99b97c9f"]),
    ])
    def test_tables_are_pinned(self, case, precision, pinned):
        models = {
            "paper": paper_models,
            "clamp": lambda: [clamp_model()],
            "toy": toy_models,
            "tiny": lambda: [random_model(4, (3, 2, 4), block_len=3, seed=3)],
        }[case]()
        if case == "clamp":
            clamped = np.maximum(np.floor(models[0].p_obs * (1 << precision)), 1).sum(axis=1)
            assert np.any(clamped > 1 << precision)
        assert [tables_digest(build_coding_tables(m, precision)) for m in models] == pinned


class TestGroupedQuantization:
    def test_one_quantize_call_per_alphabet(self, monkeypatch):
        import drr.bits_back as bits_back
        widths = []
        real = bits_back.quantize_rows

        def counting(probs, precision):
            widths.append(np.shape(probs)[1])
            return real(probs, precision)

        monkeypatch.setattr(bits_back, "quantize_rows", counting)
        for models, want in [(paper_models(), [512, 8]), (toy_models(), [32, 6, 4])]:
            for model in models:
                widths.clear()
                build_coding_tables(model)
                assert widths == want


MODEL_NAMES = ["p_obs", "p_link[0]", "p_link[1]", "p_top", "q_obs", "q_link[0]", "q_link[1]"]


def three_level_model():
    model = random_model(6, (4, 3, 2), block_len=3, seed=5)
    assert [name for name, _ in model.tables()] == MODEL_NAMES
    return model


def first_row(model, name):
    """A writable view of row 0 of table `name` (model tables are contiguous)."""
    table = dict(model.tables())[name]
    return table.reshape(-1, table.shape[-1])[0]


def corrupted(model, name, kind):
    """A copy of `model` whose table `name` fails in one way: a negative
    entry in a row that still sums to 1, a NaN, an infinity, or a row that
    sums to 1.1."""
    model = model.copy()
    row = first_row(model, name)
    if kind == "negative":
        row[1] += row[0] + 0.5
        row[0] = -0.5
    elif kind == "sum":
        row[0] += 0.1
    else:
        row[0] = {"nan": np.nan, "inf": np.inf}[kind]
    return model


class TestValidate:
    # The messages are the ones each table's failure always raised.
    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("kind, message", [
        ("negative", "{} has negative or non-finite entries"),
        ("nan", "{} has negative or non-finite entries"),
        ("inf", "{} has negative or non-finite entries"),
        ("sum", "{} rows must sum to 1"),
    ])
    def test_each_failure_names_its_table(self, name, kind, message):
        model = corrupted(three_level_model(), name, kind)
        with pytest.raises(InvalidInputError) as info:
            model.validate()
        assert str(info.value) == message.format(name)

    def test_first_failing_table_is_named(self):
        model = corrupted(corrupted(three_level_model(), "q_link[0]", "nan"), "p_top", "sum")
        with pytest.raises(InvalidInputError, match=r"^p_top rows must sum to 1$"):
            model.validate()

    def test_entries_are_checked_before_row_sums(self):
        model = three_level_model()
        model.q_obs[0, 0] += 0.1
        model.q_obs[1, 1] = -np.inf
        with pytest.raises(InvalidInputError, match=r"^q_obs has negative or non-finite"):
            model.validate()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_tolerance_edge(self, name):
        # allclose: |sum - 1| <= atol + 1e-5, so 1 + 9e-6 passes, 1 + 2e-5 not.
        model = three_level_model()
        first_row(model, name)[0] += 9e-6
        model.validate()
        first_row(model, name)[0] += 1.1e-5
        with pytest.raises(InvalidInputError, match=r"rows must sum to 1$"):
            model.validate()

    def test_negative_entry_within_atol_is_accepted(self):
        model = three_level_model()
        row = first_row(model, "q_link[1]")
        row[1] += row[0] + 1e-10
        row[0] = -1e-10
        model.validate()
        with pytest.raises(InvalidInputError, match="negative or non-finite"):
            model.validate(atol=1e-11)

    # A stored row is integers, so a float table's failures cannot occur in
    # a model file; a row of another sum, or a precision that is out of
    # range or too small for an alphabet, is what can.
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_snapshot_row_off_its_sum_rejected(self, delta):
        data = snapshot(three_level_model())

        def last_entry(body):  # the file ends with the last entry of its last table
            body[-2:] = (int.from_bytes(body[-2:], "little") + delta).to_bytes(2, "little")

        with pytest.raises(DataCorruptionError,
                           match=rf"^model snapshot: q_link\[1\] row 2 sums to "
                                 rf"{4096 + delta}, not 2\*\*12$"):
            deserialize_models(repacked(data, last_entry))

    @pytest.mark.parametrize("precision, message", [
        (1, "precision 1 outside [2, 16]"),
        (17, "precision 17 outside [2, 16]"),
        (2, "precision 2 cannot code the models' alphabet of 6 symbols (at most 2**2)"),
    ])
    def test_snapshot_precision_is_checked(self, precision, message):
        def precision_byte(body):
            body[1] = precision

        bad = resealed(snapshot(three_level_model()), precision_byte)
        with pytest.raises(DataCorruptionError) as info:
            deserialize_models(bad)
        assert str(info.value) == message


def unreachable_latent_case():
    """Two levels, and no block's first symbol gives latent 3 of the first
    level any mass: the link refit leaves p_link[0] an all-zero column 3,
    so row 3 of q_link[0] scores -inf everywhere."""
    model = random_model(12, (4, 3), block_len=6, seed=23)
    model.q_obs[:, 3] = 0.0
    model.q_obs /= model.q_obs.sum(axis=1, keepdims=True)
    blocks = list(np.random.default_rng(24).integers(0, 12, size=(25, 6)))
    return model, blocks


class TestUnreachableLatent:
    # Taken before `fit` kept the rows of unreachable latents.  The link
    # tables `fit` makes are column-major, so a softmax that changed their
    # layout would change the order of later row sums and move these bits.
    @pytest.mark.parametrize("models, pinned", [
        (paper_models, ["a3b9dc05614b5dcdb8ff30956f92b59a2b2da4e4095a4d385560c4d327805059",
                        "b45394fef4fc3228fbea7d9d27b5e3ea718c0ca6f9a098c66bbac8eb9854de4e"]),
        (toy_models, ["d0e8e4f94527cf38e7361702a3a97695cacfa9716f631bd31ea3fbc09efb5450",
                      "ca0264bdd143219a6fcf6e65637c220b80c95dbe8932c11366f0d1d037c7681c"]),
    ])
    def test_reachable_fits_are_pinned(self, models, pinned):
        assert [model_digest(m) for m in models()] == pinned

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_softmax_keeps_the_layout_of_its_scores(self, order):
        from drr.bits_back import _softmax_rows
        scores = np.asarray(np.random.default_rng(3).normal(size=(5, 4)), order=order)
        scores[2] = -np.inf
        previous = np.full((5, 4), 0.25)
        q = _softmax_rows(scores, previous)
        assert q.flags.c_contiguous == (order == "C") and q.flags.f_contiguous == (order == "F")
        assert np.array_equal(q[2], previous[2])
        assert np.allclose(q.sum(axis=1), 1.0)

    def test_fit_keeps_the_rows_it_cannot_score(self):
        model, blocks = unreachable_latent_case()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = fit(model, blocks, FitConfig(iterations=2))
        assert all(np.all(np.isfinite(t)) for _, t in fitted.tables())
        assert not fitted.p_link[0][:, 3].any()
        assert np.array_equal(fitted.q_link[0][3], model.q_link[0][3])
        fitted.validate()

    def test_fitted_model_codes(self):
        model, blocks = unreachable_latent_case()
        fitted = fit(model, blocks, FitConfig(iterations=2))
        tables = build_coding_tables(fitted)
        assert all(np.all(np.isfinite(t)) for _, t in tables.dyadic.tables())
        stream = encode_stream([(blocks, tables)], initial_bits=512, seed=1)
        out = decode_stream(stream, [([len(b) for b in blocks], tables)])
        assert all(np.array_equal(a, b) for a, b in zip(out[0], blocks))
        assert np.isfinite(stream.net_bits)


def with_table(model, name, table):
    """Set the table `name` of `model`, such as p_link[1], to `table`."""
    field, _, index = name.partition("[")
    if index:
        getattr(model, field)[int(index[:-1])] = table
    else:
        setattr(model, field, table)


class TestShapeChecks:
    @pytest.mark.parametrize("alphabets, name", [((3,), name) for name in ("p_obs", "p_top", "q_obs")]
                             + [((4, 3, 2), name) for name in MODEL_NAMES])
    def test_each_wrong_shape_names_its_table(self, alphabets, name):
        model = random_model(6, alphabets, block_len=3, seed=5)
        want = dict(model.tables())[name].shape
        with_table(model, name, np.full(tuple(n + 1 for n in want), 0.5))
        with pytest.raises(InvalidInputError) as info:
            model.validate()
        assert str(info.value) == f"{name} must have shape {want}"


class TestTableLayout:
    def test_table_shapes_in_serialization_order(self):
        from drr.bits_back import table_shapes
        layout = table_shapes(6, (4, 3, 2))
        assert layout == {"p_obs": (4, 6), "p_link": [(3, 4), (2, 3)], "p_top": (2,),
                          "q_obs": (6, 4), "q_link": [(4, 3), (3, 2)]}
        model = random_model(6, (4, 3, 2), block_len=3, seed=5)
        assert [(name, t.shape) for name, t in model.tables()] == list(zip(
            MODEL_NAMES, [(4, 6), (3, 4), (2, 3), (2,), (6, 4), (4, 3), (3, 2)]))

    def test_from_tables_inverts_tables(self):
        model = random_model(6, (4, 3, 2), block_len=3, seed=5, version=4)
        back = LatentChainModel.from_tables(6, [4, 3, 2], 3, [t for _, t in model.tables()], 4)
        assert back.alphabets == (4, 3, 2)
        assert snapshot(back) == snapshot(model)

    def test_from_tables_rejects_a_wrong_count(self):
        tables = [t for _, t in random_model(6, (4, 3), seed=5).tables()]
        with pytest.raises(InvalidInputError, match="^expected 5 tables, got 4$"):
            LatentChainModel.from_tables(6, (4, 3), 3, tables[:-1])

    def test_copy_keeps_the_link_lists_it_was_given(self):
        model = random_model(6, (4, 3), seed=5)
        model.p_link.append(model.p_link[0])
        model.q_link.clear()
        out = model.copy()
        assert len(out.p_link) == 2 and not out.q_link
        assert out.p_link[1] is not model.p_link[1]
        with pytest.raises(InvalidInputError, match="expected 1 link tables per direction"):
            out.validate()


class TestSnapshotPins:
    # Taken before the table layout was declared once, in `table_shapes`: a
    # reordered draw or table moves these bytes.  Re-taken for model format
    # 2, the checked container, and for model format 3, the coder's
    # frequencies at precision 12: with the format-2 header and float64
    # tables put back, the same models give the earlier digests.  Held
    # through format 4: the digests are of the file in format 3
    # (`conftest.format_3`).
    @pytest.mark.parametrize("obs, alphabets, block_len, seed, pinned", [
        (16, (5,), 4, 3, "731829d6c18c9772ab982551718214796c9ede456992b162e4201e924c68b413"),
        (32, (6, 4), 8, 7, "1728b396babb259d6f148c069e8ccce06fadd3e42aba98e6c06424038c00b1b0"),
        (512, (8,) * 8, 16, 1, "c71b1e460c85e00b5252012964f63a94e17a899f685f8297e72515b82fbbd535"),
    ])
    def test_random_model_snapshot_is_pinned(self, obs, alphabets, block_len, seed, pinned):
        data = snapshot(random_model(obs, alphabets, block_len=block_len, seed=seed, version=2))
        assert hashlib.sha256(format_3(data)).hexdigest() == pinned
        assert serialize_models(deserialize_models(data)) == data
