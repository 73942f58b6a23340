"""Lane coder tests: every lane must be bit for bit the scalar coder.

`AnsCoder` and the scalar block coder below are the reference.  drr codes
every block with one lane routine, under either schedule; it is compared
with the scalar coder operation by operation, block chain by block chain
and stream by stream (payload bytes and accounting floats), and on
adversarial payloads, where a lane must raise DataCorruptionError or decode
exactly what the scalar coder decodes.  The scalar stream coder tracks its
own low-water mark and writes its payload bytes itself, so the payload
layout is checked against a second writer.
"""

import hashlib
import math
from collections import namedtuple

import numpy as np
import pytest

from conftest import coder_payload
from drr import replay_store
from drr.bits_back import (
    DEFAULT_INITIAL_BITS,
    METHODS,
    CompressedStream,
    FitConfig,
    build_coding_tables,
    decode_blocks,
    decode_stream,
    decode_streams,
    deserialize_stream,
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
from drr.rans import (
    RANS_L,
    AnsCoder,
    LaneCoder,
    PmfTable,
    QuantizedPmf,
    code_lengths,
    quantize_rows,
    read_payload,
)
from drr.replay_store import (
    LatentModelPair,
    ReplayBuffer,
    compress_shelves,
    decompress_grid,
    decompress_shelves,
)
from drr.vq_codec import CodecConfig, CodeGrid, code_shapes, freeze, train_codec


def row(table, r):
    """Row r of a `PmfTable` as a read-only `QuantizedPmf` view, for the
    scalar coder."""
    start = r * table.alphabet
    return QuantizedPmf(table.precision, table.freqs[start:start + table.alphabet].view(np.int64),
                        table.cdf[r])


def potential(coder):
    """Information a scalar coder holds, in bits: stack plus log2(state)."""
    return 8.0 * len(coder.stack) + math.log2(coder.state)


def payload_bytes(state, restored, stack):
    """A coder payload as its layout reads, for any 5-byte state: k (u16),
    the state's five low bytes, then the stack; all little-endian."""
    return restored.to_bytes(2, "little") + state.to_bytes(5, "little") + bytes(stack)


class ScalarCoder(AnsCoder):
    """The scalar stream coder: an `AnsCoder` that notes the lowest height
    its stack is popped to, its floor.  Its payload holds the stack from
    the floor up and k = start - floor, the seeded bytes that pops read."""

    __slots__ = ("start", "floor")

    def __init__(self, state=RANS_L, stack=b""):
        super().__init__(state, stack)
        self.start = self.floor = len(self.stack)

    def pop(self, pmf):
        symbol = super().pop(pmf)
        self.floor = min(self.floor, len(self.stack))
        return symbol

    def payload(self):
        return payload_bytes(self.state, self.start - self.floor, self.stack[self.floor:])


def lane_coder(lanes, lane):
    """Lane `lane` of a `LaneCoder` as a scalar coder: its state and its
    whole stack."""
    return AnsCoder(int(lanes.state[lane]), lanes.stack[lane, :lanes.height[lane]].tobytes())


def cost_bits(pmf, symbol):
    """Ideal code length of `symbol` in bits: precision - log2(freq)."""
    return float(code_lengths(pmf.precision)[pmf.freqs[symbol]])


BlockTrace = namedtuple("BlockTrace", "pushed popped peak_demand")


def scalar_encode_block(coder, x, tables, method):
    """The scalar block coder: one block on an `AnsCoder` under either
    schedule, one symbol at a time.  It is the reference the lane routine
    must match under both schedules, bytes and accounting floats.

    Plain bits-back ("bb") pops the whole latent chain, then pushes the
    block and every latent.  The interleaved schedule ("bitswap") pushes
    each level before popping the next.  The information level is noted
    after every pop, after the block's pushes, after each interleaved link
    push and at the end; the peak demand is its largest drop.
    """
    interleaved = method == "bitswap"
    x = np.asarray(x, dtype=np.int64).reshape(-1)
    start = low = potential(coder)
    pushed = popped = 0.0

    def note():
        nonlocal low
        low = min(low, potential(coder))

    def pop(pmf):
        nonlocal popped
        symbol = coder.pop(pmf)
        popped += cost_bits(pmf, symbol)
        note()
        return symbol

    def push(symbol, pmf):
        nonlocal pushed
        coder.push(symbol, pmf)
        pushed += cost_bits(pmf, symbol)

    z = [pop(row(tables.q_obs, x[0]))]
    if not interleaved:
        for i in range(tables.levels - 1):
            z.append(pop(row(tables.q_link[i], z[i])))
    p_obs = row(tables.p_obs, z[0])
    for s in x[::-1]:
        push(int(s), p_obs)
    note()
    for i in range(tables.levels - 1):
        if interleaved:
            z.append(pop(row(tables.q_link[i], z[i])))
        push(z[i], row(tables.p_link[i], z[i + 1]))
        if interleaved:
            note()
    push(z[-1], row(tables.p_top, 0))
    note()
    return BlockTrace(pushed=pushed, popped=popped, peak_demand=start - low)


def scalar_decode_block(coder, block_len, tables, method):
    """Exact inverse of `scalar_encode_block`; restores the popped bits."""
    interleaved = method == "bitswap"
    z = [0] * tables.levels
    z[-1] = coder.pop(row(tables.p_top, 0))
    for i in reversed(range(tables.levels - 1)):
        z[i] = coder.pop(row(tables.p_link[i], z[i + 1]))
        if interleaved:
            coder.push(z[i + 1], row(tables.q_link[i], z[i]))
    p_obs = row(tables.p_obs, z[0])
    x = np.array([coder.pop(p_obs) for _ in range(block_len)], dtype=np.int64)
    if not interleaved:
        for i in reversed(range(tables.levels - 1)):
            coder.push(z[i + 1], row(tables.q_link[i], z[i]))
    coder.push(z[0], row(tables.q_obs, x[0]))
    return x


def scalar_encode_blocks(coder, blocks, tables, method):
    """The scalar `encode_blocks`: (gross, returned, peak demand, net) bits,
    the peak being the largest of any one block."""
    gross = returned = peak = 0.0
    for block in blocks:
        trace = scalar_encode_block(coder, block, tables, method)
        gross += trace.pushed
        returned += trace.popped
        peak = max(peak, trace.peak_demand)
    return gross, returned, peak, gross - returned


def scalar_decode_blocks(coder, block_lens, tables, method):
    out = [scalar_decode_block(coder, n, tables, method) for n in reversed(list(block_lens))]
    out.reverse()
    return out


def scalar_encode_stream(sections, initial_bits, seed, method="bitswap"):
    """The scalar `encode_stream`, kept as the reference the lanes must match;
    under "bb" it is the plain bits-back reference, which no stream runs."""
    coder = ScalarCoder.with_random_bits(initial_bits, seed=seed)
    start = potential(coder)
    low = start
    gross = returned = 0.0
    count = 0
    for blocks, tables in sections:
        for block in blocks:
            before = potential(coder)
            trace = scalar_encode_block(coder, block, tables, method)
            gross += trace.pushed
            returned += trace.popped
            low = min(low, before - trace.peak_demand)
            count += len(np.atleast_1d(block))
    return CompressedStream(payload=coder.payload(), symbol_count=count,
                            model_version=sections[0][1].model_version,
                            initial_bits=initial_bits, gross_bits=gross,
                            returned_bits=returned, peak_demand_bits=start - low)


def scalar_decode_stream(stream, sections, method="bitswap"):
    """The scalar `decode_stream`, with its unwind checks, as the reference."""
    state, restored, stack = read_payload(stream.payload)
    if stream.initial_bits is not None and restored > stream.initial_bits // 8:
        raise DataCorruptionError("restored")
    coder = AnsCoder(state, stack)
    try:
        out = [scalar_decode_blocks(coder, lens, tables, method)
               for lens, tables in reversed(sections)]
    except ExhaustedStreamError as exc:
        raise DataCorruptionError("stream ended mid-decode") from exc
    out.reverse()
    if sum(sum(lens) for lens, _ in sections) != stream.symbol_count:
        raise DataCorruptionError("symbol count")
    if coder.state != RANS_L:
        raise DataCorruptionError("state")
    if len(coder.stack) != restored:
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
        coders = [ScalarCoder.with_random_bits(128, seed) for seed in seeds]
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
            assert [lane_coder(lanes, i) for i in range(lanes.lanes)] == coders
            assert lanes.serialize() == [coder.payload() for coder in coders]
            assert lanes.potential().tolist() == [potential(coder) for coder in coders]

    def test_stack_grows_past_its_first_capacity(self):
        table = PmfTable.from_freqs(quantize_rows([[0.999, 0.001]], 16)[0], 16)
        lanes = LaneCoder.with_random_bits(0, [0, 1])
        coders = [AnsCoder(), AnsCoder()]
        for _ in range(400):
            lanes.push(np.array([1, 0]), np.zeros(2, dtype=np.int64), table)
            coders[0].push(1, QuantizedPmf(16, table.freqs, np.append(table.starts, 1 << 16)))
        assert lane_coder(lanes, 0).stack == coders[0].stack
        assert len(coders[0].stack) > 64
        for _ in range(400):
            assert lanes.pop(np.zeros(2, dtype=np.int64), table).tolist() == [1, 0]
        assert lanes.serialize() == [coder_payload(AnsCoder())] * 2

    def test_underflow_raises(self):
        table = PmfTable.from_freqs([[1, 3]], 2)
        lanes = LaneCoder.deserialize([coder_payload(AnsCoder()), coder_payload(AnsCoder(RANS_L + 1))])
        with pytest.raises(ExhaustedStreamError):
            lanes.pop(np.zeros(2, dtype=np.int64), table)

    def test_needs_a_lane(self):
        with pytest.raises(InvalidInputError):
            LaneCoder.with_random_bits(64, [])


RAGGED_RESTORED = [0, 0, 5, 1, 2]  # k of each ragged payload


def ragged_payloads():
    """Payloads of different stack heights, one of them empty, with states
    moved off RANS_L by a few pushes and three that restore seeded bytes."""
    table = PmfTable.from_freqs(quantize_rows([[0.7, 0.2, 0.1]], 12)[0], 12)
    coders = [AnsCoder.with_random_bits(bits, seed) for seed, bits in
              enumerate([64, 0, 1024, 8, 256])]
    rng = np.random.default_rng(4)
    for coder, pushes in zip(coders, [3, 0, 50, 1, 7]):
        for symbol in rng.integers(0, 3, pushes):
            coder.push(int(symbol), row(table, 0))
    return [payload_bytes(coder.state, k, coder.stack)
            for coder, k in zip(coders, RAGGED_RESTORED)]


def corrupted(payload, part):
    """`payload` with its k and state broken."""
    if part == "state":  # below RANS_L
        return payload[:2] + bytes(5) + payload[7:]
    return payload[:6]  # "header": too short to hold its k and state


class TestLaneDeserialize:
    def test_each_lane_is_the_scalar_parse(self):
        payloads = ragged_payloads()
        lanes = LaneCoder.deserialize(iter(payloads))
        scalar = [AnsCoder.deserialize(p) for p in payloads]
        assert lanes.height.tolist() == [len(c.stack) for c in scalar]
        assert 0 in lanes.height.tolist()
        assert [lane_coder(lanes, i) for i in range(lanes.lanes)] == scalar
        assert [int(s) for s in lanes.state] == [c.state for c in scalar]
        assert lanes.start.tolist() == RAGGED_RESTORED == [read_payload(p)[1] for p in payloads]
        assert lanes.floor.tolist() == [0] * 5
        assert lanes.serialize() == payloads

    @pytest.mark.parametrize("part", ["state", "header"])
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
    def test_costs_are_code_lengths_for_every_frequency(self, precision):
        top = 1 << precision
        f = np.arange(1, top)
        table = PmfTable.from_freqs(np.stack([f, top - f], axis=1), precision)
        expected = [precision - math.log2(freq) for a in f.tolist() for freq in (a, top - a)]
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
        # one section: encode_blocks on an AnsCoder leaves the stream's state
        # and stack on top of the seeded bytes no pop read, and adds up its
        # accounting
        for lane, sections in enumerate(per_lane):
            seeded = AnsCoder.with_random_bits(512, seed=seeds[lane])
            coder = seeded.copy()
            stats = encode_blocks(coder, sections[0][0], tables, method="bitswap")
            alone = encode_stream(sections[:1], initial_bits=512, seed=seeds[lane])
            state, restored, stack = read_payload(alone.payload)
            assert coder == AnsCoder(state, seeded.stack[:64 - restored] + stack)
            assert (alone.gross_bits, alone.returned_bits, alone.net_bits) == \
                (stats.gross_bits, stats.returned_bits, stats.gross_bits - stats.returned_bits)

        lens = [([len(b) for b in per_lane[0][0][0]], tables),
                ([len(b) for b in per_lane[0][1][0]], other_tables)]
        decoded = decode_streams(lanes, lens)
        for lane, sections in enumerate(per_lane):
            for s, (blocks, _) in enumerate(sections):
                assert [block[lane].tolist() for block in decoded[s]] == \
                    [b.tolist() for b in blocks]


@pytest.mark.parametrize("name,k,alphabets,block_len,precision", stream_cases())
def test_plain_bits_back_reference(name, k, alphabets, block_len, precision):
    # No stream runs plain bits-back; its scalar stream reference is checked
    # on the lanes' cases.  It unwinds to exactly the initial bits, it never
    # needs fewer initial bits for a block than the Bit-Swap order, and on
    # single-level chains it is the Bit-Swap order.
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

        first = AnsCoder.with_random_bits(512, seed=seed)
        plain = scalar_encode_block(first.copy(), sections[0][0][0], tables, "bb")
        swap = scalar_encode_block(first, sections[0][0][0], tables, "bitswap")
        assert swap.peak_demand <= plain.peak_demand + 1e-9


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name,k,alphabets,block_len,precision", stream_cases())
def test_block_chains_match_scalar_oracle(method, name, k, alphabets, block_len, precision):
    # `encode_blocks`/`decode_blocks` run the lane routine on one lane under
    # the named schedule; the scalar block coder must write the same bytes
    # and add up the same floats, and both must unwind to the seeded coder.
    tables, _ = case_tables(name, k, alphabets, block_len, precision)
    rng = np.random.default_rng([precision, len(method)])
    for lane in range(3):
        blocks = blocks_of(rng.integers(0, k, 4 * block_len - 1), block_len)
        lens = [len(b) for b in blocks]
        fresh = AnsCoder.with_random_bits(512, seed=[precision, lane])
        coder, scalar = fresh.copy(), fresh.copy()
        stats = encode_blocks(coder, blocks, tables, method=method)
        assert (stats.gross_bits, stats.returned_bits, stats.peak_demand_bits,
                stats.gross_bits - stats.returned_bits) \
            == scalar_encode_blocks(scalar, blocks, tables, method)
        assert coder == scalar and coder_payload(coder) == coder_payload(scalar)
        out = decode_blocks(coder, lens, tables, method=method)
        assert [b.tolist() for b in out] == [b.tolist() for b in blocks] == \
            [b.tolist() for b in scalar_decode_blocks(scalar, lens, tables, method)]
        assert coder == scalar == fresh


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
        state, k, stack = read_payload(stream.payload)
        stack = bytes(stack)
        raw = [(0, k, stack), ((1 << 40) - 1, k, stack), (1 << 32, k, stack),
               (state + 1, k, stack), (state, k, stack[:-1]), (state, k, stack[1:]),
               (state, k, stack[:8]), (state, k, b""), (state, k, stack + b"\x00"),
               (state, k, b"\x00" + stack), (state, k, stack + stack),
               (state >> 8, k, stack + bytes([state & 0xFF])),
               (state, k + 1, stack), (state, max(k - 1, 0), stack), (state, 0, stack),
               (state, 0xFFFF, stack)]
        rng = np.random.default_rng(0)
        for _ in range(40):
            flipped = bytearray(stack)
            flipped[rng.integers(len(flipped))] ^= 1 << int(rng.integers(8))
            raw.append((state ^ int(rng.integers(2)) << int(rng.integers(40)), k,
                        bytes(flipped)))
        out = []
        for s, restored, st in raw:
            payload = payload_bytes(s, restored, st)
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
        # No stream runs plain bits-back; its scalar decoder must decode a bad
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
        bad = CompressedStream(payload=payload_bytes(0, 0, b""),
                               symbol_count=streams[0].symbol_count,
                               model_version=streams[0].model_version)
        with pytest.raises(DataCorruptionError):
            decode_streams([streams[0], bad], sections)
        with pytest.raises(DataCorruptionError):
            decode_streams([streams[0], CompressedStream(payload=b"\0" * 6, symbol_count=23,
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
    unfitted model pair, coded one one-grid shelf per `compress_shelves`
    call, or under "bb" by the scalar plain bits-back reference from the
    same blocks."""
    pair = LatentModelPair(random_model(64, (6, 1, 4), block_len=8, seed=3),
                           random_model(64, (5, 3), block_len=7, seed=4)).quantized(precision)
    rng = np.random.default_rng(12)
    h = hashlib.sha256()
    for i in range(6):
        shelf = (rng.integers(0, 64, (1, 3, 5)).astype(np.int32),
                 rng.integers(0, 64, (1, 6, 10)).astype(np.int32))
        if method == "bitswap":
            [[stream]] = compress_shelves([shelf], pair, [[[5, i]]])
        else:
            stream = scalar_encode_stream(list(zip(pair.blocks([shelf]), pair.tables())),
                                          DEFAULT_INITIAL_BITS, [5, i], method)
        h.update(serialize_stream(stream))
    return h.hexdigest()


@pytest.mark.parametrize("precision,digest", [
    (12, "fda65e4fd6a6040cdc8f22033b0498c240573aaa009bfaecb98c475863e7fb01"),
    (16, "8364634afa50dd3ab1d811f839def3a9d96f7a65d4fc83fa107e109aef4c6f5d"),
])
def test_stream_bytes_are_pinned(precision, digest):
    # Digests of the streams the scalar coder wrote; a coder change that
    # moves a single byte of a stream fails here.  Re-taken for payload
    # format 2, for stream format 3 (the checked container, no coder
    # header) and for stream format 4 (a varint record): each stream
    # rewritten in the layout before the change gives the earlier digest
    # (for format 2, with the seeded bytes below its low-water mark put
    # back).
    assert pinned_streams(precision) == digest


@pytest.mark.parametrize("precision,digest", [
    (12, "6f7bb2a738e03cefb69bd7b754bbf0ae52e2eac3263915d98525e4cc6ff1b5e3"),
    (16, "0eb12512bfa93c24e8535f943dd3afd56752861c92a2e5b158f962f3f80b172c"),
])
def test_plain_bits_back_bytes_are_pinned(precision, digest):
    # The plain bits-back digests the grid path wrote when it ran both
    # schedules; the scalar reference must still write the same bytes.
    # Re-taken for stream formats 2, 3 and 4, as the Bit-Swap digests were.
    assert pinned_streams(precision, "bb") == digest


def test_stream_flips_decode_identically_or_raise():
    # Bit 0 or bit 7 flipped in any byte of a serialized toy stream raises
    # DataCorruptionError when the file is read: the container's CRC32
    # catches every single-bit error, even in the bottom k stack bytes,
    # which the decoder reads last and puts back as the seeded bytes, so
    # decoding alone could not check their values.
    pair = LatentModelPair.seeded(32, (6, 4), 8, 0).quantized(12)
    rng = np.random.default_rng(21)
    shelves = [(rng.integers(0, 32, (1, 2, 2)).astype(np.int32),
                rng.integers(0, 32, (1, 4, 4)).astype(np.int32)) for _ in range(4)]
    streams = compress_shelves(shelves, pair, [[[5, i]] for i in range(len(shelves))])
    for (top, bottom), [stream] in zip(shelves, streams):
        data = serialize_stream(stream)
        grid = decompress_grid(deserialize_stream(data), pair, (2, 2), (4, 4))
        assert grid == CodeGrid(top=top[0], bottom=bottom[0])
        for offset in range(len(data)):
            for bit in (0, 7):
                flipped = bytearray(data)
                flipped[offset] ^= 1 << bit
                with pytest.raises(DataCorruptionError):
                    deserialize_stream(bytes(flipped))


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
        # The shelves hold their index arrays, so an ingest re-encodes them
        # in one batch without decoding, and a read pass decodes no stream.
        buffer = self.new_buffer(codec, images)
        calls = self.count_calls(monkeypatch)
        buffer.ingest_phase({4: images[4], 5: images[5]}, FitConfig(iterations=1))
        assert calls == {"encode_streams": 1, "decode_streams": 0}
        recon = buffer.reconstruct_all()
        assert calls == {"encode_streams": 1, "decode_streams": 0}
        assert sorted(recon) == [0, 1, 4, 5]
        assert all(np.array_equal(recon[label], buffer.reconstruct_class(label))
                   for label in recon)

    def test_batched_buffer_matches_per_stream_coding(self, codec, images):
        buffer = self.new_buffer(codec, images)
        buffer.ingest_phase({2: images[2]}, FitConfig(iterations=1))
        for label in buffer.class_labels:
            shelf = buffer._shelves[label]
            shapes = code_shapes(shelf.image_shape, buffer.codec)
            for i, stream in enumerate(shelf.streams):
                grid = decompress_grid(stream, buffer.pair, *shapes)
                assert grid == CodeGrid(top=shelf.indices[0][i], bottom=shelf.indices[1][i])
                [[again]] = compress_shelves([(grid.top[None], grid.bottom[None])], buffer.pair,
                                             [[buffer._stream_seed(label, i)]],
                                             initial_bits=buffer.initial_bits)
                assert same_stream(again, stream)


def test_grids_of_mixed_geometry():
    pair = LatentModelPair(random_model(20, (4, 3), block_len=5, seed=1),
                           random_model(20, (4, 3), block_len=6, seed=2)).quantized(12)
    rng = np.random.default_rng(3)
    shapes = [((2, 3), (4, 6)), ((3, 3), (6, 6)), ((2, 3), (4, 6)), ((1, 1), (2, 2))]
    shelves = [(rng.integers(0, 20, (1, *t)).astype(np.int32),
                rng.integers(0, 20, (1, *b)).astype(np.int32)) for t, b in shapes]
    seeds = [[[9, i]] for i in range(len(shelves))]
    streams = compress_shelves(shelves, pair, seeds)
    for (top, bottom), seed, [stream], shape in zip(shelves, seeds, streams, shapes):
        assert same_stream(stream, compress_shelves([(top, bottom)], pair, [seed])[0][0])
        assert decompress_grid(stream, pair, *shape) == CodeGrid(top=top[0], bottom=bottom[0])
    assert compress_shelves([], pair, []) == []
    assert decompress_shelves([], [], pair) == []


def test_shelves_split_back_by_count():
    """Shelves of 3, 1 and 2 grids over two interleaved geometries: every
    grid's stream is its one-grid call's, and each shelf decodes to exactly
    its own arrays."""
    pair = LatentModelPair(random_model(20, (4, 3), block_len=5, seed=1),
                           random_model(20, (4, 3), block_len=6, seed=2)).quantized(12)
    rng = np.random.default_rng(4)
    shapes = [((2, 3), (4, 6)), ((3, 3), (6, 6)), ((2, 3), (4, 6))]
    shelves = [(rng.integers(0, 20, (n, *t)).astype(np.int32),
                rng.integers(0, 20, (n, *b)).astype(np.int32))
               for n, (t, b) in zip((3, 1, 2), shapes)]
    seeds = [[[7, s, j] for j in range(len(top))] for s, (top, _) in enumerate(shelves)]
    streams = compress_shelves(shelves, pair, seeds)
    assert [len(shelf) for shelf in streams] == [3, 1, 2]
    for (top, bottom), shelf_seeds, shelf_streams in zip(shelves, seeds, streams):
        for j, (seed, stream) in enumerate(zip(shelf_seeds, shelf_streams)):
            [[alone]] = compress_shelves([(top[j:j + 1], bottom[j:j + 1])], pair, [[seed]])
            assert same_stream(stream, alone)
    decoded = decompress_shelves(streams, shapes, pair)
    assert len(decoded) == len(shelves)
    for (top, bottom), (got_top, got_bottom) in zip(shelves, decoded):
        assert got_top.dtype == got_bottom.dtype == np.int32
        assert np.array_equal(got_top, top) and got_top.shape == top.shape
        assert np.array_equal(got_bottom, bottom) and got_bottom.shape == bottom.shape
    # Lists that do not line up with the shelves are rejected, not cut
    # short or padded with None.
    for bad_seeds in (seeds[:2], seeds + [[[7, 3, 0]]],
                      [[[7, 0, 0], [7, 0, 1]], [[7, 1, 0], [7, 1, 1]], seeds[2]]):
        with pytest.raises(InvalidInputError):
            compress_shelves(shelves, pair, bad_seeds)
    with pytest.raises(InvalidInputError):
        decompress_shelves(streams, shapes[:2], pair)
    with pytest.raises(InvalidInputError):
        decompress_shelves(streams[:2], shapes, pair)
