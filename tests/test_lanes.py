"""Lane coder tests: every lane must be bit for bit the scalar coder.

`AnsCoder` and the scalar block functions are the reference.  Lanes are
compared with them operation by operation, stream by stream (payload bytes
and accounting floats), and on adversarial payloads, where a lane must
raise DataCorruptionError or decode exactly what the scalar coder decodes.
"""

import hashlib

import numpy as np
import pytest

from drr import replay_store
from drr.bits_back import (
    DEFAULT_INITIAL_BITS,
    CompressedStream,
    FitConfig,
    build_coding_tables,
    decode_blocks,
    decode_stream,
    decode_streams,
    encode_block,
    encode_blocks,
    encode_stream,
    encode_streams,
    random_model,
    sample_blocks,
    serialize_stream,
)
from drr.errors import (
    DataCorruptionError,
    ExhaustedStreamError,
    InsufficientInitialBitsError,
    InvalidInputError,
)
from drr.learner import make_toy_dataset
from drr.rans import RANS_L, AnsCoder, LaneCoder, PmfTable, QuantizedPmf, quantize_rows
from drr.replay_store import LatentModelPair, ReplayBuffer, compress_grid
from drr.vq_codec import CodecConfig, CodeGrid, freeze, train_codec


def scalar_encode_stream(sections, initial_bits, seed, method="bitswap"):
    """The scalar `encode_stream`, kept as the reference the lanes must match;
    under "bb" it is the plain bits-back reference, which no lane runs."""
    coder = AnsCoder.with_random_bits(initial_bits, seed=seed)
    start = coder.potential()
    low = start
    gross = returned = 0.0
    count = 0
    for blocks, tables in sections:
        for block in blocks:
            before = coder.potential()
            trace = encode_block(coder, block, tables, method)
            gross += trace.pushed
            returned += trace.popped
            low = min(low, before - trace.peak_demand)
            count += len(np.atleast_1d(block))
    return CompressedStream(payload=coder.serialize(), symbol_count=count,
                            model_version=sections[0][1].model_version,
                            initial_bits=initial_bits, gross_bits=gross,
                            returned_bits=returned, peak_demand_bits=start - low)


def scalar_decode_stream(stream, sections, method="bitswap"):
    """The scalar `decode_stream`, with its unwind checks, as the reference."""
    coder = AnsCoder.deserialize(stream.payload)
    try:
        out = [decode_blocks(coder, lens, tables, method=method)
               for lens, tables in reversed(sections)]
    except ExhaustedStreamError as exc:
        raise DataCorruptionError("stream ended mid-decode") from exc
    out.reverse()
    if sum(sum(lens) for lens, _ in sections) != stream.symbol_count:
        raise DataCorruptionError("symbol count")
    if coder.state != RANS_L:
        raise DataCorruptionError("state")
    if stream.initial_bits is not None and len(coder.stack) != stream.initial_bits // 8:
        raise DataCorruptionError("stack")
    return out


def outcome(decode):
    """Decoded blocks as lists, or the string "corrupt"."""
    try:
        return [[block.tolist() for block in blocks] for blocks in decode()]
    except DataCorruptionError:
        return "corrupt"


def lane_sections(per_lane):
    """Sections of (N, len) blocks from per-lane sections of 1-D blocks."""
    return [([np.stack(blocks) for blocks in zip(*(lane[s][0] for lane in per_lane))],
             per_lane[0][s][1]) for s in range(len(per_lane[0]))]


def same_stream(a, b):
    return (a.payload == b.payload and a.symbol_count == b.symbol_count
            and a.model_version == b.model_version and a.initial_bits == b.initial_bits
            and a.gross_bits == b.gross_bits and a.returned_bits == b.returned_bits
            and a.net_bits == b.net_bits and a.peak_demand_bits == b.peak_demand_bits)


def blocks_of(symbols, block_len):
    return [symbols[i:i + block_len] for i in range(0, len(symbols), block_len)]


class TestLaneCoder:
    @pytest.mark.parametrize("precision", range(2, 17))
    def test_matches_scalar_coder_op_by_op(self, precision):
        rng = np.random.default_rng(precision)
        alphabet = min(1 << precision, 9)
        freqs, cdf = quantize_rows(rng.dirichlet(np.full(alphabet, 0.3), size=6), precision)
        table = PmfTable.from_freqs(freqs, precision)
        rows = [QuantizedPmf(precision, f, c) for f, c in zip(freqs, cdf)]
        seeds = range(5)
        lanes = LaneCoder.with_random_bits(128, seeds)
        coders = [AnsCoder.with_random_bits(128, seed) for seed in seeds]
        for _ in range(200):
            which = rng.integers(0, len(rows), lanes.lanes)
            if rng.random() < 0.6:
                symbols = rng.integers(0, alphabet, lanes.lanes)
                lanes.push(symbols, which, table)
                for coder, s, r in zip(coders, symbols, which):
                    coder.push(int(s), rows[r])
            else:
                got = lanes.pop(which, table)
                assert got.tolist() == [coder.pop(rows[r]) for coder, r in zip(coders, which)]
            assert lanes.serialize() == [coder.serialize() for coder in coders]
            assert lanes.potential().tolist() == [coder.potential() for coder in coders]

    def test_stack_grows_past_its_first_capacity(self):
        table = PmfTable.from_freqs(quantize_rows([[0.999, 0.001]], 16)[0], 16)
        lanes = LaneCoder.with_random_bits(0, [0, 1])
        coders = [AnsCoder(), AnsCoder()]
        for _ in range(400):
            lanes.push(np.array([1, 0]), np.zeros(2, dtype=np.int64), table)
            coders[0].push(1, QuantizedPmf(16, table.freqs, np.append(table.starts, 1 << 16)))
        assert lanes.coders()[0].stack == coders[0].stack
        assert len(coders[0].stack) > 64
        for _ in range(400):
            assert lanes.pop(np.zeros(2, dtype=np.int64), table).tolist() == [1, 0]
        assert lanes.serialize() == [AnsCoder().serialize()] * 2

    def test_underflow_raises(self):
        table = PmfTable.from_freqs([[1, 3]], 2)
        lanes = LaneCoder.deserialize([AnsCoder().serialize(), AnsCoder(state=0).serialize()])
        with pytest.raises(ExhaustedStreamError):
            lanes.pop(np.zeros(2, dtype=np.int64), table)

    def test_needs_a_lane(self):
        with pytest.raises(InvalidInputError):
            LaneCoder.with_random_bits(64, [])


def ragged_payloads():
    """Payloads of different stack heights, one of them empty, with states
    moved off RANS_L by a few pushes."""
    table = PmfTable.from_freqs(quantize_rows([[0.7, 0.2, 0.1]], 12)[0], 12)
    coders = [AnsCoder.with_random_bits(bits, seed) for seed, bits in
              enumerate([64, 0, 1024, 8, 256])]
    rng = np.random.default_rng(4)
    for coder, pushes in zip(coders, [3, 0, 50, 1, 7]):
        for symbol in rng.integers(0, 3, pushes):
            coder.push(int(symbol), table.row(0))
    return [coder.serialize() for coder in coders]


def corrupted(payload, part):
    """`payload` with one header field broken."""
    if part == "magic":
        return b"DRRX" + payload[4:]
    if part == "version":
        return payload[:4] + bytes([payload[4] + 1]) + payload[5:]
    if part == "short":
        return payload[:-1]
    if part == "long":
        return payload + b"\0"
    return payload[:10]  # "header": too short to hold its own header


class TestLaneDeserialize:
    def test_each_lane_is_the_scalar_parse(self):
        payloads = ragged_payloads()
        lanes = LaneCoder.deserialize(iter(payloads))
        scalar = [AnsCoder.deserialize(p) for p in payloads]
        assert lanes.height.tolist() == [len(c.stack) for c in scalar]
        assert 0 in lanes.height.tolist()
        assert lanes.coders() == scalar
        assert [int(s) for s in lanes.state] == [c.state for c in scalar]
        assert lanes.serialize() == payloads

    @pytest.mark.parametrize("part", ["magic", "version", "short", "long", "header"])
    @pytest.mark.parametrize("lane", [0, 1, 4])
    def test_bad_lane_fails_as_the_scalar_parse(self, part, lane):
        payloads = ragged_payloads()
        payloads[lane] = corrupted(payloads[lane], part)
        with pytest.raises(DataCorruptionError) as scalar:
            AnsCoder.deserialize(payloads[lane])
        with pytest.raises(DataCorruptionError) as lanes:
            LaneCoder.deserialize(payloads)
        assert str(lanes.value) == str(scalar.value)

    def test_needs_a_payload(self):
        with pytest.raises(InvalidInputError):
            LaneCoder.deserialize([])

    @pytest.mark.parametrize("precision", [2, 12, 16])
    def test_costs_match_cost_bits_for_every_frequency(self, precision):
        top = 1 << precision
        f = np.arange(1, top)
        table = PmfTable.from_freqs(np.stack([f, top - f], axis=1), precision)
        expected = [QuantizedPmf(precision, np.array([a, top - a]), None).cost_bits(s)
                    for a in f.tolist() for s in (0, 1)]
        assert table.costs.tolist() == expected


def stream_cases():
    """(name, K, latent alphabets, block length, precision): every
    precision, 1-symbol latent alphabets, and K = 512."""
    cases = []
    for precision in range(2, 17):
        k = min(1 << precision, 11)
        alphabets = (min(1 << precision, 4), 1, min(1 << precision, 3))
        cases.append((f"p{precision}", k, alphabets, 5, precision))
    cases += [
        ("single-symbol-latents", 9, (1,), 4, 12),
        ("single-symbol-chain", 9, (1, 1), 3, 10),
        ("k512-p12", 512, (8, 8, 8), 16, 12),
        ("k512-p16", 512, (16, 4), 16, 16),
    ]
    return cases


def case_tables(name, k, alphabets, block_len, precision):
    """The coding tables of a stream case's two sections."""
    model = random_model(k, alphabets, block_len=block_len, seed=len(name),
                         concentration=0.5)
    other = random_model(k, alphabets[::-1], block_len=block_len + 1, seed=7)
    return build_coding_tables(model, precision), build_coding_tables(other, precision)


@pytest.mark.parametrize("name,k,alphabets,block_len,precision", stream_cases())
def test_streams_match_scalar_reference(name, k, alphabets, block_len, precision):
    tables, other_tables = case_tables(name, k, alphabets, block_len, precision)
    rng = np.random.default_rng(precision)
    n_first = 4 * block_len - 1  # a short last block in each section
    n_second = 2 * (block_len + 1) + 1
    for n_lanes in (1, 2, 7):
        seeds = [[precision, lane] for lane in range(n_lanes)]
        per_lane = [[(blocks_of(rng.integers(0, k, n_first), block_len), tables),
                     (blocks_of(rng.integers(0, k, n_second), block_len + 1), other_tables)]
                    for _ in range(n_lanes)]
        lanes = encode_streams(lane_sections(per_lane), seeds, initial_bits=512)
        for stream, sections, seed in zip(lanes, per_lane, seeds):
            reference = scalar_encode_stream(sections, 512, seed)
            assert same_stream(stream, reference)
            assert same_stream(encode_stream(sections, initial_bits=512, seed=seed), reference)
        # one section: the accounting of encode_blocks on the scalar coder
        for lane, sections in enumerate(per_lane):
            coder = AnsCoder.with_random_bits(512, seed=seeds[lane])
            stats = encode_blocks(coder, sections[0][0], tables, method="bitswap")
            alone = encode_stream(sections[:1], initial_bits=512, seed=seeds[lane])
            assert alone.payload == coder.serialize()
            assert (alone.gross_bits, alone.returned_bits, alone.net_bits) == \
                (stats.gross_bits, stats.returned_bits, stats.net_bits)

        lens = [([len(b) for b in per_lane[0][0][0]], tables),
                ([len(b) for b in per_lane[0][1][0]], other_tables)]
        decoded = decode_streams(lanes, lens)
        for lane, sections in enumerate(per_lane):
            for s, (blocks, _) in enumerate(sections):
                assert [block[lane].tolist() for block in decoded[s]] == \
                    [b.tolist() for b in blocks]


@pytest.mark.parametrize("name,k,alphabets,block_len,precision", stream_cases())
def test_plain_bits_back_reference(name, k, alphabets, block_len, precision):
    # No lane runs plain bits-back; its scalar reference is checked on the
    # lanes' cases.  It unwinds to exactly the initial bits, its stream
    # accounting is that of encode_blocks, it never needs fewer initial bits
    # for a block than the Bit-Swap order, and on single-level chains it is
    # the Bit-Swap order.
    tables, other_tables = case_tables(name, k, alphabets, block_len, precision)
    rng = np.random.default_rng(precision)
    for lane in range(3):
        seed = [precision, lane]
        sections = [(blocks_of(rng.integers(0, k, 4 * block_len - 1), block_len), tables),
                    (blocks_of(rng.integers(0, k, 2 * (block_len + 1) + 1), block_len + 1),
                     other_tables)]
        stream = scalar_encode_stream(sections, 512, seed, "bb")
        lens = [([len(b) for b in blocks], t) for blocks, t in sections]
        assert outcome(lambda: scalar_decode_stream(stream, lens, "bb")) == \
            [[b.tolist() for b in blocks] for blocks, _ in sections]
        if len(alphabets) == 1:
            assert same_stream(stream, scalar_encode_stream(sections, 512, seed))

        coder = AnsCoder.with_random_bits(512, seed=seed)
        stats = encode_blocks(coder, sections[0][0], tables, method="bb")
        alone = scalar_encode_stream(sections[:1], 512, seed, "bb")
        assert alone.payload == coder.serialize()
        assert (alone.gross_bits, alone.returned_bits, alone.net_bits) == \
            (stats.gross_bits, stats.returned_bits, stats.net_bits)

        first = AnsCoder.with_random_bits(512, seed=seed)
        plain = encode_block(first.copy(), sections[0][0][0], tables, "bb")
        swap = encode_block(first, sections[0][0][0], tables, "bitswap")
        assert swap.peak_demand <= plain.peak_demand + 1e-9


class TestAdversarialPayloads:
    @staticmethod
    def setup_streams(n=4):
        model = random_model(12, (5, 3), block_len=5, seed=4, concentration=0.5)
        tables = build_coding_tables(model)
        rng = np.random.default_rng(1)
        per_lane = [[(blocks_of(rng.integers(0, 12, 23), 5), tables)] for _ in range(n)]
        streams = encode_streams(lane_sections(per_lane), list(range(n)), initial_bits=64)
        return streams, [([5, 5, 5, 5, 3], tables)]

    @staticmethod
    def variants(stream):
        coder = AnsCoder.deserialize(stream.payload)
        state, stack = coder.state, bytes(coder.stack)
        raw = [(0, stack), ((1 << 64) - 1, stack), (1 << 32, stack), (state + 1, stack),
               (state, stack[:-1]), (state, stack[1:]), (state, stack[:8]), (state, b""),
               (state, stack + b"\x00"), (state, b"\x00" + stack), (state, stack + stack),
               (state >> 8, stack + bytes([state & 0xFF]))]
        rng = np.random.default_rng(0)
        for _ in range(40):
            flipped = bytearray(stack)
            flipped[rng.integers(len(flipped))] ^= 1 << int(rng.integers(8))
            raw.append((state ^ int(rng.integers(2)) << int(rng.integers(40)), bytes(flipped)))
        out = []
        for s, st in raw:
            payload = AnsCoder(s, st).serialize()
            for initial_bits in (stream.initial_bits, None):
                out.append(CompressedStream(payload=payload, symbol_count=stream.symbol_count,
                                            model_version=stream.model_version,
                                            initial_bits=initial_bits))
        return out

    def test_lanes_decode_or_raise_as_the_scalar_coder(self):
        streams, sections = self.setup_streams()
        seen = set()
        for bad in self.variants(streams[1]):
            expected = outcome(lambda: scalar_decode_stream(bad, sections))
            seen.add(expected == "corrupt")
            assert outcome(lambda: decode_stream(bad, sections)) == expected
            batch = [streams[0], bad, streams[2], streams[3]]
            got = outcome(lambda: [[block[1] for block in blocks] for blocks in
                                   decode_streams(batch, sections)])
            assert got == expected
        assert seen == {True, False}  # some variants decode, some are caught

    def test_plain_bits_back_reference_decodes_or_raises(self):
        # No lane runs plain bits-back; its scalar decoder must decode a bad
        # payload or raise DataCorruptionError, never fail otherwise.
        tables = build_coding_tables(random_model(12, (5, 3), block_len=5, seed=4,
                                                  concentration=0.5))
        blocks = blocks_of(np.random.default_rng(1).integers(0, 12, 23), 5)
        stream = scalar_encode_stream([(blocks, tables)], 64, 1, "bb")
        sections = [([5, 5, 5, 5, 3], tables)]
        assert outcome(lambda: scalar_decode_stream(stream, sections, "bb")) == \
            [[b.tolist() for b in blocks]]
        seen = {outcome(lambda: scalar_decode_stream(bad, sections, "bb")) == "corrupt"
                for bad in self.variants(stream)}
        assert seen == {True, False}

    def test_one_bad_stream_fails_the_batch(self):
        streams, sections = self.setup_streams()
        bad = CompressedStream(payload=AnsCoder(0, b"").serialize(),
                               symbol_count=streams[0].symbol_count,
                               model_version=streams[0].model_version)
        with pytest.raises(DataCorruptionError):
            decode_streams([streams[0], bad], sections)
        with pytest.raises(DataCorruptionError):
            decode_streams([streams[0], CompressedStream(payload=b"DRRB", symbol_count=23,
                                                         model_version=0)], sections)


class TestBatchContracts:
    def test_zero_lanes_rejected(self):
        tables = build_coding_tables(random_model(4, (2,), block_len=2, seed=0))
        with pytest.raises(InvalidInputError):
            encode_streams([([np.zeros((0, 2), dtype=np.int64)], tables)], [])
        with pytest.raises(InvalidInputError):
            decode_streams([], [([2], tables)])

    def test_block_rows_must_match_lanes(self):
        tables = build_coding_tables(random_model(4, (2,), block_len=2, seed=0))
        with pytest.raises(InvalidInputError):
            encode_streams([([np.zeros((3, 2), dtype=np.int64)], tables)], [0, 1])
        with pytest.raises(InvalidInputError):
            encode_streams([([np.array([[0, 4], [0, 1]])], tables)], [0, 1])

    def test_exhausted_auxiliary_bits(self):
        model = random_model(8, (6, 6, 6), block_len=4, seed=1)
        tables = build_coding_tables(model)
        blocks = sample_blocks(model, 50, np.random.default_rng(0))
        with pytest.raises(InsufficientInitialBitsError):
            encode_streams([([np.stack([b, b]) for b in blocks], tables)], [0, 1],
                           initial_bits=0)


def pinned_streams(precision, method="bitswap"):
    """sha256 over the serialized streams of fixed grids under a seeded,
    unfitted model pair, coded by `compress_grid`, or under "bb" by the
    scalar plain bits-back reference from the same blocks."""
    pair = LatentModelPair(random_model(64, (6, 1, 4), block_len=8, seed=3),
                           random_model(64, (5, 3), block_len=7, seed=4))
    rng = np.random.default_rng(12)
    h = hashlib.sha256()
    for i in range(6):
        grid = CodeGrid(top=rng.integers(0, 64, (3, 5)).astype(np.int32),
                        bottom=rng.integers(0, 64, (6, 10)).astype(np.int32))
        if method == "bitswap":
            stream = compress_grid(grid, pair, precision=precision, seed=[5, i])
        else:
            stream = scalar_encode_stream(list(zip(pair.blocks([grid]), pair.tables(precision))),
                                          DEFAULT_INITIAL_BITS, [5, i], method)
        h.update(serialize_stream(stream))
    return h.hexdigest()


@pytest.mark.parametrize("precision,digest", [
    (12, "0c41327ea46a79f79b425162b7db0f62a8d3b46480210497ddeb6b850da633e9"),
    (16, "a51c31d31e53fbe8660d88de0dd78583ae88604900895526026b2d64b0a9352f"),
])
def test_stream_bytes_are_pinned(precision, digest):
    # Digests of the streams the scalar coder wrote; a coder change that
    # moves a single byte of a stream fails here.
    assert pinned_streams(precision) == digest


@pytest.mark.parametrize("precision,digest", [
    (12, "c58cddf45501a0b570cf5b71f6ee1ebd6a186556547767252b055e52a32e6e6b"),
    (16, "169fc26b2b62f056a5a9ddb1c5b5534cce686f2e04c18cf3a4d23ee75290c43c"),
])
def test_plain_bits_back_bytes_are_pinned(precision, digest):
    # The plain bits-back digests the grid path wrote when it ran both
    # schedules; the scalar reference must still write the same bytes.
    assert pinned_streams(precision, "bb") == digest


class TestBufferBatches:
    @pytest.fixture(scope="class")
    def images(self):
        images, labels = make_toy_dataset(6, 8, side=16, seed=2)
        return {c: images[labels == c] for c in range(6)}

    @pytest.fixture(scope="class")
    def codec(self, images):
        return freeze(train_codec(np.concatenate([images[0], images[1]]), CodecConfig(
            codebook_size=16, embed_dim=6, epochs=20, lr=0.005, seed=1)))

    @staticmethod
    def new_buffer(codec, images):
        pair = LatentModelPair(random_model(16, (5, 3), block_len=6, seed=1),
                               random_model(16, (5, 3), block_len=6, seed=2))
        buffer = ReplayBuffer(codec, pair, exemplars_per_class=4, seed=3)
        buffer.ingest_phase({0: images[0], 1: images[1]}, FitConfig(iterations=1))
        return buffer

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"encode_streams": 0, "decode_streams": 0}
        for name in calls:
            real = getattr(replay_store, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(replay_store, name, counting)

        def scalar(*args, **kwargs):
            raise AssertionError("the buffer must not use the scalar coder")

        monkeypatch.setattr(AnsCoder, "push", scalar)
        monkeypatch.setattr(AnsCoder, "pop", scalar)
        return calls

    def test_one_batch_per_ingest_and_read_pass(self, codec, images, monkeypatch):
        buffer = self.new_buffer(codec, images)
        calls = self.count_calls(monkeypatch)
        buffer.ingest_phase({4: images[4], 5: images[5]}, FitConfig(iterations=1))
        assert calls == {"encode_streams": 1, "decode_streams": 1}
        recon = buffer.reconstruct_all()
        assert calls == {"encode_streams": 1, "decode_streams": 2}
        assert sorted(recon) == [0, 1, 4, 5]
        assert all(np.array_equal(recon[label], buffer.reconstruct_class(label))
                   for label in recon)

    def test_batched_buffer_matches_per_stream_coding(self, codec, images):
        buffer = self.new_buffer(codec, images)
        buffer.ingest_phase({2: images[2]}, FitConfig(iterations=1))
        for label in buffer.class_labels:
            shelf = buffer._shelves[label]
            for i, stream in enumerate(shelf.streams):
                grid = replay_store.decompress_grid(stream, buffer.pair, shelf.top_shape,
                                                    shelf.bottom_shape)
                again = compress_grid(grid, buffer.pair, initial_bits=buffer.initial_bits,
                                      seed=buffer._stream_seed(label, i))
                assert same_stream(again, stream)


def test_grids_of_mixed_geometry():
    pair = LatentModelPair(random_model(20, (4, 3), block_len=5, seed=1),
                           random_model(20, (4, 3), block_len=6, seed=2))
    rng = np.random.default_rng(3)
    shapes = [((2, 3), (4, 6)), ((3, 3), (6, 6)), ((2, 3), (4, 6)), ((1, 1), (2, 2))]
    grids = [CodeGrid(top=rng.integers(0, 20, t).astype(np.int32),
                      bottom=rng.integers(0, 20, b).astype(np.int32)) for t, b in shapes]
    seeds = [[9, i] for i in range(len(grids))]
    streams = replay_store.compress_grids(grids, pair, seeds)
    for grid, seed, stream in zip(grids, seeds, streams):
        assert same_stream(stream, compress_grid(grid, pair, seed=seed))
    assert replay_store.decompress_grids(streams, pair, shapes) == grids
    assert replay_store.compress_grids([], pair, []) == []

