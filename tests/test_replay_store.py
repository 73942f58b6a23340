"""Replay buffer, raw baseline, and memory accounting tests."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from conftest import resealed
from drr import bits_back, rans, replay_store
from drr.bits_back import FitConfig, build_coding_tables, random_model
from drr.errors import DataCorruptionError, InvalidInputError, StateError
from drr.replay_store import (
    DEFAULT_EXEMPLARS_PER_CLASS,
    LatentModelPair,
    MemoryReport,
    RawExemplarStore,
    ReplayBuffer,
    compress_shelves,
    decompress_grid,
    decompress_shelves,
    format_megabytes,
    raw_store_bytes,
    select_exemplars,
)
from drr.vq_codec import (
    CodecConfig,
    code_shapes,
    decode_indices,
    encode_image,
    encode_indices,
    freeze,
    init_codec_params,
    serialize_codec,
    train_codec,
)


def toy_images(n, side=16, channels=3, seed=0):
    """Smooth class-like blobs; enough structure for codes to repeat."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side] / side
    out = np.empty((n, side, side, channels))
    for i in range(n):
        fx, fy = rng.uniform(0.5, 2.0, size=2)
        phase = rng.uniform(0, 2 * np.pi, size=channels)
        for c in range(channels):
            out[i, :, :, c] = 0.5 + 0.5 * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase[c])
    return np.clip(out, 0.0, 1.0)


@pytest.fixture(scope="module")
def frozen_codec():
    config = CodecConfig(patch=4, pool=2, channels=3, codebook_size=32,
                         embed_dim=8, epochs=30, lr=0.002, seed=5)
    return freeze(train_codec(toy_images(24, seed=1), config))


def flipped(data, offset, mask):
    """`data`, a bytearray, with the bits of `mask` flipped at `offset`."""
    data[offset] ^= mask
    return data


def make_pair(codebook_size=32, seed=0, version=0):
    return LatentModelPair(
        random_model(codebook_size, (6, 4), block_len=4, seed=seed, version=version),
        random_model(codebook_size, (6, 4), block_len=4, seed=seed + 1, version=version))


class TestArithmetic:
    def test_raw_bytes_is_one_byte_per_channel_value(self):
        assert raw_store_bytes(1, (32, 32, 3)) == 3072
        assert raw_store_bytes(50000, (32, 32, 3)) == 153_600_000

    def test_megabytes_formatting(self):
        assert format_megabytes(raw_store_bytes(50000, (32, 32, 3))) == "146.48"
        assert format_megabytes(1 << 20) == "1.00"
        assert format_megabytes(0) == "0.00"

    def test_report_totals(self):
        report = MemoryReport(label="compressed", exemplar_count=3, raw_bytes=9000,
                              stream_bytes=500, model_bytes=300, codec_bytes=200)
        assert report.total_bytes == 1000
        assert any("raw equivalent" in line for line in report.summary())


class TestSelection:
    def test_without_replacement(self):
        images = toy_images(30)
        chosen = select_exemplars(images, 30, np.random.default_rng(0))
        assert len(np.unique(chosen, axis=0)) == 30

    def test_deterministic_for_seed(self):
        images = toy_images(25)
        a = select_exemplars(images, 10, np.random.default_rng(4))
        b = select_exemplars(images, 10, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_too_few_images_rejected(self):
        with pytest.raises(InvalidInputError):
            select_exemplars(toy_images(5), 6, np.random.default_rng(0))

    def test_bad_batch_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            select_exemplars(np.zeros((4, 4, 3)), 2, np.random.default_rng(0))


class TestRawStore:
    def test_round_trip_quantized_to_byte(self):
        store = RawExemplarStore(exemplars_per_class=8, seed=1)
        images = toy_images(20, seed=2)
        store.add_class(0, images)
        back = store.get(0)
        assert back.shape == (8, 16, 16, 3)
        assert np.abs(back * 255 - np.round(back * 255)).max() == 0
        assert store.account().raw_bytes == 8 * 16 * 16 * 3

    def test_duplicate_class_rejected(self):
        store = RawExemplarStore(exemplars_per_class=4)
        store.add_class(1, toy_images(10))
        with pytest.raises(InvalidInputError):
            store.add_class(1, toy_images(10))

    def test_missing_class_rejected(self):
        store = RawExemplarStore(exemplars_per_class=4)
        with pytest.raises(InvalidInputError):
            store.get(3)

    def test_negative_label_rejected(self):
        store = RawExemplarStore(exemplars_per_class=4)
        with pytest.raises(InvalidInputError, match="class label must be a nonnegative integer"):
            store.add_class(-1, toy_images(10))
        assert store.account().exemplar_count == 0

    @pytest.mark.parametrize("label", [-0.5, 2.7, "5"])
    def test_label_is_checked_before_coercion(self, label):
        # int(-0.5) is 0, so a coercion before the check would store class 0
        store = RawExemplarStore(exemplars_per_class=4)
        with pytest.raises(InvalidInputError, match="class label must be a nonnegative integer"):
            store.add_class(label, toy_images(10))
        assert store.account().exemplar_count == 0
        store.add_class(np.int64(3), toy_images(10))
        assert store.get(3).shape == (4, 16, 16, 3)

    def test_holds_exactly_the_added_classes(self):
        store = RawExemplarStore(exemplars_per_class=4, seed=0)
        store.add_class(2, toy_images(10, seed=1))
        store.add_class(0, toy_images(10, seed=2))
        assert [len(store.get(label)) for label in (0, 2)] == [4, 4]
        with pytest.raises(InvalidInputError):
            store.get(1)
        assert store.account().exemplar_count == 8

    def test_default_exemplar_count(self):
        assert RawExemplarStore().exemplars_per_class == DEFAULT_EXEMPLARS_PER_CLASS


class TestPair:
    def test_version_lockstep_enforced(self):
        top = random_model(8, (3,), seed=0, version=1)
        bottom = random_model(8, (3,), seed=1, version=2)
        with pytest.raises(InvalidInputError):
            LatentModelPair(top, bottom)

    def test_serialization_round_trip(self):
        pair = make_pair(seed=3, version=4)
        back = LatentModelPair.deserialize(pair.serialize())
        assert back.version == 4
        assert np.array_equal(back.top.p_obs, pair.top.p_obs)
        assert np.array_equal(back.bottom.q_obs, pair.bottom.q_obs)

    def test_stored_levels_of_different_versions_rejected(self):
        # The constructor's InvalidInputError is for in-memory misuse; a
        # stored pair that disagrees is corrupt data.
        def flip(body):
            body[1] ^= 1  # bit 0 of the top level's version, after the record count

        data = resealed(make_pair(seed=3, version=0).serialize(), flip)
        with pytest.raises(DataCorruptionError, match="versions 1 and 0"):
            LatentModelPair.deserialize(data)

    def test_wrong_record_count_rejected(self):
        from drr.bits_back import serialize_models
        single = serialize_models([random_model(4, (3,), seed=0)])
        with pytest.raises(DataCorruptionError):
            LatentModelPair.deserialize(single)

    def test_pair_is_frozen(self):
        pair = make_pair()
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.top = pair.bottom

    def test_tables_built_once_per_precision(self):
        pair = make_pair()
        tables = pair.tables()
        assert pair.tables() is tables
        assert pair.tables(10) is not tables
        assert pair.tables(10)[0].precision == 10
        assert pair.copy().tables() is not tables
        with pytest.raises(ValueError):  # shared, so nobody may write to them
            tables[0].p_obs.freqs[0] += 1
        with pytest.raises(ValueError):
            tables[1].dyadic.q_obs[0, 0] = 0.5

    def test_equal_versions_never_share_tables(self):
        a = make_pair(seed=0, version=3)
        b = make_pair(seed=5, version=3)
        ta, tb = a.tables(), b.tables()
        assert ta[0].model_version == tb[0].model_version
        assert not np.array_equal(ta[0].dyadic.p_obs, tb[0].dyadic.p_obs)
        for pair, tables in ((a, ta), (b, tb)):
            for model, cached in zip((pair.top, pair.bottom), tables):
                fresh = build_coding_tables(model)
                for (_, x), (_, y) in zip(cached.dyadic.tables(), fresh.dyadic.tables()):
                    assert np.array_equal(x, y)


class TestPairHelpers:
    def test_seeded_matches_explicit_random_models(self):
        for seed in (0, 3):
            pair = LatentModelPair.seeded(32, (6, 4), 8, seed)
            explicit = LatentModelPair(
                random_model(32, (6, 4), block_len=8, seed=2 * seed + 1),
                random_model(32, (6, 4), block_len=8, seed=2 * seed + 2))
            assert pair.version == 0
            for got, want in zip(pair.tables(), explicit.tables()):
                for a, b in zip(got.dyadic.tables(), want.dyadic.tables()):
                    assert a[0] == b[0] and np.array_equal(a[1], b[1])
            assert pair.serialize() == explicit.serialize()

    def test_blocks_concatenate_grid_blocks(self, frozen_codec):
        pair = LatentModelPair.seeded(32, (6, 4), 3, 1)  # 3 leaves short last blocks
        images = toy_images(4, seed=6)
        shelves = [encode_indices(images[:3], frozen_codec),
                   encode_indices(images[3:], frozen_codec)]
        top, bottom = pair.blocks(iter(shelves))
        want_top, want_bottom = [], []
        for image in images:
            t, b = pair.blocks([encode_indices([image], frozen_codec)])
            want_top += t
            want_bottom += b
        assert len(top) == len(want_top) and len(bottom) == len(want_bottom)
        assert all(np.array_equal(a, b) for a, b in zip(top, want_top))
        assert all(np.array_equal(a, b) for a, b in zip(bottom, want_bottom))
        assert pair.blocks([]) == ([], [])


def one_grid_shelf(grid):
    """A grid as a shelf of one: its stacked (top, bottom) index arrays."""
    return grid.top[None], grid.bottom[None]


class TestGridCoding:
    def test_grid_round_trip(self, frozen_codec):
        pair = make_pair()
        grid = encode_image(toy_images(1, seed=9)[0], frozen_codec)
        [[stream]] = compress_shelves([one_grid_shelf(grid)], pair, [[3]])
        back = decompress_grid(stream, pair, grid.top.shape, grid.bottom.shape)
        assert back == grid

    def test_grid_blocks_cover_all_codes(self, frozen_codec):
        pair = make_pair()
        grid = encode_image(toy_images(1, seed=9)[0], frozen_codec)
        top, bottom = pair.blocks([one_grid_shelf(grid)])
        assert sum(len(b) for b in top) == grid.top.size
        assert sum(len(b) for b in bottom) == grid.bottom.size
        assert np.array_equal(np.concatenate(top), grid.top.ravel())

    def test_stream_seed_changes_payload_not_content(self, frozen_codec):
        pair = make_pair()
        grid = encode_image(toy_images(1, seed=9)[0], frozen_codec)
        [[a]] = compress_shelves([one_grid_shelf(grid)], pair, [[1]])
        [[b]] = compress_shelves([one_grid_shelf(grid)], pair, [[2]])
        assert a.payload != b.payload
        assert decompress_grid(a, pair, grid.top.shape, grid.bottom.shape) == \
               decompress_grid(b, pair, grid.top.shape, grid.bottom.shape)


def filled_buffer(frozen_codec, n_classes=2, exemplars=5, fit_iterations=4, seed=11):
    buffer = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=exemplars,
                          seed=seed)
    reports = [buffer.ingest_phase({label: toy_images(12, seed=30 + label)},
                                   FitConfig(iterations=fit_iterations))[label]
               for label in range(n_classes)]
    return buffer, reports


class TestReplayBuffer:
    def test_requires_frozen_codec(self, frozen_codec):
        config = CodecConfig(patch=4, pool=2, channels=3, codebook_size=32,
                             embed_dim=8, epochs=0, seed=5)
        thawed = train_codec(toy_images(8), config)
        buffer = ReplayBuffer(thawed, make_pair())
        with pytest.raises(StateError):
            buffer.ingest_phase({0: toy_images(12)})

    def test_negative_label_rejected(self, frozen_codec):
        buffer = ReplayBuffer(frozen_codec, make_pair(), exemplars_per_class=4)
        with pytest.raises(InvalidInputError, match="class label must be a nonnegative integer"):
            buffer.ingest_phase({-1: toy_images(12)})
        assert buffer.class_labels == [] and buffer.pair.version == 0

    def test_labels_are_checked_before_coercion(self, frozen_codec):
        # int(2.7) and int("5") are 2 and 5, so a coercion before the check
        # would store both classes
        buffer = ReplayBuffer(frozen_codec, make_pair(), exemplars_per_class=4)
        with pytest.raises(InvalidInputError, match="class label must be a nonnegative integer"):
            buffer.ingest_phase({2.7: toy_images(12), "5": toy_images(12, seed=1)})
        assert buffer.class_labels == [] and buffer.pair.version == 0

    @pytest.mark.parametrize("top,bottom", [(16, 16), (64, 64), (32, 16), (16, 32)])
    def test_models_must_fit_the_codec(self, frozen_codec, top, bottom):
        pair = LatentModelPair(random_model(top, (6, 4), block_len=4, seed=0),
                               random_model(bottom, (6, 4), block_len=4, seed=1))
        with pytest.raises(InvalidInputError, match="do not fit the codec"):
            ReplayBuffer(frozen_codec, pair)

    @pytest.mark.parametrize("precision", [2, 4])
    def test_precision_must_cover_every_alphabet(self, frozen_codec, precision):
        # 32 codes need at least 2**5
        with pytest.raises(InvalidInputError, match="cannot code the models' alphabet of 32"):
            ReplayBuffer(frozen_codec, make_pair(), precision=precision)
        assert ReplayBuffer(frozen_codec, make_pair(), precision=5).precision == 5

    def test_ingest_reconstruct_exact_codes(self, frozen_codec):
        buffer, reports = filled_buffer(frozen_codec)
        assert buffer.class_labels == [0, 1]
        assert buffer.exemplar_count == 10
        assert reports[1].model_version == 2
        recon = buffer.reconstruct_all()
        # codes round trip losslessly, so rebuilding exemplars directly from
        # re-encoded grids must match the buffer's reconstruction bitwise
        rng = np.random.default_rng([11, 1])
        chosen = select_exemplars(toy_images(12, seed=31), 5, rng)
        from drr.vq_codec import decode_codes
        want = np.stack([decode_codes(encode_image(img, frozen_codec), frozen_codec)
                         for img in chosen])
        assert np.array_equal(recon[1], want)

    def test_all_streams_share_current_version(self, frozen_codec):
        buffer, _ = filled_buffer(frozen_codec, n_classes=3)
        for label in buffer.class_labels:
            for stream in buffer._shelves[label].streams:
                assert stream.model_version == buffer.pair.version
        assert buffer.pair.version == 3

    def test_duplicate_class_rejected(self, frozen_codec):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1)
        with pytest.raises(InvalidInputError):
            buffer.ingest_phase({0: toy_images(12)})

    def test_multi_class_phase_bumps_version_once(self, frozen_codec):
        buffer = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=4, seed=3)
        reports = buffer.ingest_phase({1: toy_images(10, seed=1), 0: toy_images(10, seed=2)},
                                      FitConfig(iterations=2))
        assert sorted(reports) == [0, 1]
        assert buffer.pair.version == 1
        assert buffer.class_labels == [0, 1]
        assert buffer.exemplar_count == 8

    def test_empty_phase_rejected(self, frozen_codec):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1)
        with pytest.raises(InvalidInputError):
            buffer.ingest_phase({})

    def test_version_mismatch_detected(self, frozen_codec, tmp_path):
        # Streams saved after phase 1 next to the models of phase 2: every
        # stream is decoded in `load`, and its model version is checked there.
        buffer, _ = filled_buffer(frozen_codec, n_classes=1)
        buffer.save(str(tmp_path))
        buffer.ingest_phase({1: toy_images(12, seed=31)}, FitConfig(iterations=4))
        (tmp_path / "models.drrm").write_bytes(buffer.pair.serialize())
        with pytest.raises(DataCorruptionError, match="model version 1, got tables for version 2"):
            ReplayBuffer.load(str(tmp_path))

    def test_ingest_report_accounting(self, frozen_codec):
        buffer, reports = filled_buffer(frozen_codec, n_classes=1)
        report = reports[0]
        assert report.exemplar_count == 5
        assert report.symbol_count == 5 * (4 * 4 + 2 * 2)
        assert report.net_bits == pytest.approx(report.gross_bits - report.returned_bits)
        assert 0 < report.bits_per_code < 16
        assert report.peak_demand_bits > 0

    def test_compression_beats_raw_pixels(self, frozen_codec):
        buffer, _ = filled_buffer(frozen_codec, n_classes=2, fit_iterations=8)
        report = buffer.account()
        assert report.stream_bytes < report.raw_bytes
        assert report.exemplar_count == 10

    def test_fit_tightens_future_streams(self, frozen_codec):
        # same images, same seeds; the only difference is refitting
        _, fitted = filled_buffer(frozen_codec, n_classes=1, fit_iterations=12)
        _, unfitted = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        assert fitted[0].net_bits < unfitted[0].net_bits

    def test_deterministic_rebuild(self, frozen_codec):
        a, _ = filled_buffer(frozen_codec, n_classes=2)
        b, _ = filled_buffer(frozen_codec, n_classes=2)
        for label in a.class_labels:
            for sa, sb in zip(a._shelves[label].streams, b._shelves[label].streams):
                assert sa.payload == sb.payload


class TestTableBuilds:
    @staticmethod
    def count_builds(monkeypatch):
        built = []
        real = replay_store.build_coding_tables

        def counting(model, precision):
            built.append(model.version)
            return real(model, precision)

        monkeypatch.setattr(replay_store, "build_coding_tables", counting)
        return built

    def test_ingest_builds_two_per_phase(self, frozen_codec, monkeypatch):
        built = self.count_builds(monkeypatch)
        buffer = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=3, seed=1)
        for phase in range(3):
            buffer.ingest_phase({phase: toy_images(8, seed=50 + phase)}, FitConfig(iterations=1))
            buffer.reconstruct_all()
            assert built == [v for v in range(1, phase + 2) for _ in range(2)]

    def test_read_pass_builds_two(self, frozen_codec, monkeypatch, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=3)
        buffer.save(str(tmp_path))
        built = self.count_builds(monkeypatch)
        loaded = ReplayBuffer.load(str(tmp_path))
        loaded.reconstruct_all()
        assert len(built) == 2
        loaded.reconstruct_all()
        assert len(built) == 2


class TestPayloadParses:
    def test_read_pass_parses_each_payload_once(self, frozen_codec, monkeypatch, tmp_path):
        # `load` hands each stream's coder payload to the decoder, which
        # parses it once: one `read_payload` call per stream in all, and
        # none in the read pass, which decodes the indices the shelves hold.
        buffer, _ = filled_buffer(frozen_codec, n_classes=2, exemplars=4, fit_iterations=0)
        buffer.save(str(tmp_path))
        parsed = []
        real = rans.read_payload

        def counting(data):
            parsed.append(len(data))
            return real(data)

        for module in (rans, bits_back, replay_store):
            if hasattr(module, "read_payload"):
                monkeypatch.setattr(module, "read_payload", counting)
        loaded = ReplayBuffer.load(str(tmp_path))
        assert loaded.exemplar_count == 8 and len(parsed) == 8
        loaded.reconstruct_all()
        assert len(parsed) == 8


class TestPersistence:
    def test_save_load_round_trip(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=2)
        buffer.save(str(tmp_path))
        loaded = ReplayBuffer.load(str(tmp_path))
        assert loaded.class_labels == buffer.class_labels
        assert loaded.pair.version == buffer.pair.version
        assert loaded.account().total_bytes == buffer.account().total_bytes
        before = buffer.reconstruct_all()
        after = loaded.reconstruct_all()
        for label in before:
            assert np.array_equal(before[label], after[label])

    def test_loaded_shelves_hold_the_same_indices(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=3)
        buffer.save(str(tmp_path))
        loaded = ReplayBuffer.load(str(tmp_path))
        for label in buffer.class_labels:
            for ours, theirs in zip(loaded._shelves[label].indices,
                                    buffer._shelves[label].indices):
                assert ours.dtype == theirs.dtype == np.int32
                assert ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()

    def test_loaded_buffer_can_ingest(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1)
        buffer.save(str(tmp_path))
        loaded = ReplayBuffer.load(str(tmp_path))
        loaded.ingest_phase({7: toy_images(12, seed=40)}, FitConfig(iterations=2))
        assert loaded.class_labels == [0, 7]
        recon = loaded.reconstruct_all()
        assert recon[0].shape == (5, 16, 16, 3)

    def test_bad_header_rejected(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        index.write_text("nonsense\n" + index.read_text().split("\n", 1)[1])
        with pytest.raises(DataCorruptionError):
            ReplayBuffer.load(str(tmp_path))

    @pytest.mark.parametrize("name,edit,match", [
        # byte 3 of the index stops being UTF-8
        pytest.param("index.txt", lambda data: flipped(data, 3, 0x80), "not UTF-8",
                     id="index.txt-3-128"),
        # the first byte of the model file's body breaks its checksum
        pytest.param("models.drrm", lambda data: flipped(data, 10, 0x01), "checksum",
                     id="models.drrm-10-1"),
        # under a valid checksum, the top level's version drops from 1 to 0
        # and the bottom's stays 1
        pytest.param("models.drrm",
                     lambda data: resealed(data, lambda body: flipped(body, 1, 0x01)),
                     "versions 0 and 1", id="models.drrm-body-1-1"),
        # under a valid checksum, stream 0 loses its last stack byte: `load`
        # decodes every stream, so the read fails there
        pytest.param("streams/0_0.drrs",
                     lambda data: resealed(data, lambda body: body.pop()),
                     "stream ended mid-decode", id="streams-0_0-cut-1"),
    ])
    def test_flipped_byte_rejected(self, frozen_codec, tmp_path, name, edit, match):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        (tmp_path / name).write_bytes(bytes(edit(bytearray((tmp_path / name).read_bytes()))))
        with pytest.raises(DataCorruptionError, match=match):
            ReplayBuffer.load(str(tmp_path))

    def test_missing_stream_file_rejected(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1)
        buffer.save(str(tmp_path))
        (tmp_path / "streams" / "0_0.drrs").unlink()
        with pytest.raises(DataCorruptionError):
            ReplayBuffer.load(str(tmp_path))

    def test_loaded_streams_carry_initial_bits(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1)
        buffer.save(str(tmp_path))
        loaded = ReplayBuffer.load(str(tmp_path))
        assert all(s.initial_bits == buffer.initial_bits for s in loaded._shelves[0].streams)

    @pytest.mark.parametrize("options, match", [
        ("seed=11 precision=12 initial_bits=256 exemplars_per_class=5 classes=1",
         "missing method"),
        ("seed=11 precision=12 initial_bits=256 exemplars_per_class=5 method=bitswap",
         "missing classes"),
        ("seed=11 precision=12 initial_bits=256 exemplars_per_class=5 method=zip classes=1",
         "coded with 'zip'"),
        ("seed=11 precision=12 initial_bits=256 exemplars_per_class=5 method=bitswap classes=1 "
         "loose", "malformed field 'loose'"),
        ("seed=eleven precision=12 initial_bits=256 exemplars_per_class=5 method=bitswap "
         "classes=1", "corrupt buffer options"),
        ("seed=11 precision=40 initial_bits=256 exemplars_per_class=5 method=bitswap classes=1",
         "precision 40 outside"),
        ("seed=11 precision=2 initial_bits=256 exemplars_per_class=5 method=bitswap classes=1",
         "cannot code"),
        (None, "no options line"),
        ("seed=11 precision=12 initial_bits=256 exemplars_per_class=5 method=bb classes=1",
         "coded with 'bb'"),
        ("seed=11 precision=12 initial_bits=256 exemplars_per_class=5 method=bitswap classes=x",
         "corrupt buffer options"),
        ("seed=11 precision=12 initial_bits=256 exemplars_per_class=5 method=bitswap classes=0",
         "lists 1 classes, its options line says 0"),
        ("seed=11 precision=12 initial_bits=256 exemplars_per_class=5 method=bitswap classes=2",
         "lists 1 classes, its options line says 2"),
    ])
    def test_malformed_options_line_rejected(self, frozen_codec, tmp_path, options, match):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = index.read_text().splitlines()
        assert lines[:2] == ["drr-replay-buffer 2", "seed=11 precision=12 initial_bits=256 "
                             "exemplars_per_class=5 method=bitswap classes=1"]
        lines = lines[:1] if options is None else [lines[0], options] + lines[2:]
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match=match):
            ReplayBuffer.load(str(tmp_path))

    def test_index_cut_after_a_class_rejected(self, frozen_codec, tmp_path):
        # Each class block ends on a line boundary, so only the class count
        # tells a whole index from one cut after a class's last stream.
        buffer, _ = filled_buffer(frozen_codec, n_classes=3, exemplars=2, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = index.read_text().splitlines()
        assert len(lines) == 2 + 3 * 3 and lines[-1].startswith("stream label=2 index=1 ")
        for keep in (5, 8):
            index.write_text("\n".join(lines[:keep]) + "\n")
            with pytest.raises(DataCorruptionError, match="options line says 3"):
                ReplayBuffer.load(str(tmp_path))

    @pytest.mark.parametrize("edit", [
        lambda line: line.replace("label=", "label"),
        lambda line: line.replace("class ", "klass "),
        lambda line: line.replace(" count=5", ""),
        lambda line: line.replace("top=", "top=-"),
    ])
    def test_malformed_class_line_rejected(self, frozen_codec, tmp_path, edit):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = index.read_text().splitlines()
        lines[2] = edit(lines[2])
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError):
            ReplayBuffer.load(str(tmp_path))

    @pytest.mark.parametrize("count", [0, -1])
    def test_class_without_streams_rejected(self, frozen_codec, tmp_path, count):
        # A shelf with no streams would reach the coder as a zero-lane batch.
        buffer, _ = filled_buffer(frozen_codec, n_classes=2, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = [line for line in index.read_text().splitlines()
                 if not line.startswith("stream label=0 ")]
        lines[2] = lines[2].replace(" count=5", f" count={count}")
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError):
            ReplayBuffer.load(str(tmp_path))

    @pytest.mark.parametrize("per_class", [4, 6])
    def test_exemplar_count_must_match_the_options_line(self, frozen_codec, tmp_path,
                                                          per_class):
        # `ingest_phase` stores exactly exemplars_per_class streams a class,
        # so a class line's count= must equal the options line's, which
        # later ingests read.  An options line changed on its own is caught.
        buffer, _ = filled_buffer(frozen_codec, n_classes=2, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        text = index.read_text()
        assert "exemplars_per_class=5" in text
        index.write_text(text.replace("exemplars_per_class=5",
                                      f"exemplars_per_class={per_class}"))
        with pytest.raises(DataCorruptionError,
                           match=f"holds 5 streams, its options line says "
                                 f"exemplars_per_class={per_class}"):
            ReplayBuffer.load(str(tmp_path))

    def test_class_short_of_its_exemplars_rejected(self, frozen_codec, tmp_path):
        # A class line and its stream lines cut back together still differ
        # from the options line.
        buffer, _ = filled_buffer(frozen_codec, n_classes=2, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = [line for line in index.read_text().splitlines()
                 if not line.startswith("stream label=0 index=4 ")]
        lines[2] = lines[2].replace(" count=5", " count=4")
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match="class 0 holds 4 streams"):
            ReplayBuffer.load(str(tmp_path))

    @pytest.mark.parametrize("value", [float("nan"), -1.0, 2.0])
    def test_corrupt_model_table_rejected(self, frozen_codec, tmp_path, value):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        models = tmp_path / "models.drrm"

        def last_entry(body):  # the last entry of the bottom model's last table
            body[-8:] = struct.pack("<d", value)

        models.write_bytes(resealed(models.read_bytes(), last_entry))
        with pytest.raises(DataCorruptionError,
                           match=r"^model snapshot truncated or inconsistent$") as info:
            ReplayBuffer.load(str(tmp_path))
        assert isinstance(info.value.__cause__, InvalidInputError)
        assert str(info.value.__cause__).startswith("q_link[0] ")

    @staticmethod
    def load_with_class_field(frozen_codec, tmp_path, key, value):
        """Load a saved one-class 16x16x3 buffer whose class line has
        `key`=`value`."""
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = index.read_text().splitlines()
        lines[2] = " ".join(f"{key}={value}" if word.startswith(f"{key}=") else word
                            for word in lines[2].split())
        index.write_text("\n".join(lines) + "\n")
        return ReplayBuffer.load(str(tmp_path))

    @pytest.mark.parametrize("image", ["16,16,3,1", "9,9,3", "16,16,1", "16,12,3", "32,16,3"])
    def test_class_image_shape_must_fit_the_codec(self, frozen_codec, tmp_path, image):
        with pytest.raises(DataCorruptionError, match="do not fit the codec"):
            self.load_with_class_field(frozen_codec, tmp_path, "image", image)

    @pytest.mark.parametrize("top", ["4,1", "1,4,4", "2,2,1", "4,4"])
    def test_class_top_shape_must_fit_the_image(self, frozen_codec, tmp_path, top):
        with pytest.raises(DataCorruptionError, match="do not fit the codec"):
            self.load_with_class_field(frozen_codec, tmp_path, "top", top)

    @pytest.mark.parametrize("bottom", ["2,8", "4,4,1", "2,2", "8,8"])
    def test_class_bottom_shape_must_fit_the_image(self, frozen_codec, tmp_path, bottom):
        with pytest.raises(DataCorruptionError, match="do not fit the codec"):
            self.load_with_class_field(frozen_codec, tmp_path, "bottom", bottom)

    def test_codec_of_another_codebook_size_rejected(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        smaller = init_codec_params(CodecConfig(patch=4, pool=2, channels=3, codebook_size=16,
                                                embed_dim=8))
        (tmp_path / "codec.drrc").write_bytes(serialize_codec(freeze(smaller)))
        with pytest.raises(DataCorruptionError, match="do not fit the codec"):
            ReplayBuffer.load(str(tmp_path))

    def test_tampered_model_version_rejected(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1)
        buffer.save(str(tmp_path))
        stale = make_pair(seed=21, version=99)
        (tmp_path / "models.drrm").write_bytes(stale.serialize())
        with pytest.raises(DataCorruptionError):
            ReplayBuffer.load(str(tmp_path))


def wide_images(n, seed):
    """16x32 images: two square toy images side by side."""
    return np.concatenate([toy_images(n, seed=seed), toy_images(n, seed=seed + 100)], axis=2)


class TestArrayReadPath:
    @pytest.fixture(scope="class")
    def mixed_buffer(self, frozen_codec):
        """Classes of two image geometries, 16x16 and 16x32, interleaved by
        label, so the last refit decodes classes 0 and 2 in one batch and 1
        and 3 in another."""
        buffer = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=4, seed=3)
        for phase in ({0: toy_images(12, seed=60), 1: wide_images(12, seed=61)},
                      {2: toy_images(12, seed=62), 3: wide_images(12, seed=63)},
                      {4: toy_images(12, seed=64)}):
            buffer.ingest_phase(phase, FitConfig(iterations=2))
        return buffer

    @staticmethod
    def per_class(buffer, label):
        """The class decoded through the grid path: its streams' grids, one
        at a time, then `decode_indices` of the stacked grids."""
        shelf = buffer._shelves[label]
        shapes = code_shapes(shelf.image_shape, buffer.codec)
        grids = [decompress_grid(stream, buffer.pair, *shapes, precision=buffer.precision)
                 for stream in shelf.streams]
        return decode_indices(np.stack([g.top for g in grids]),
                              np.stack([g.bottom for g in grids]), buffer.codec)

    def test_reconstruct_all_is_the_grid_path(self, mixed_buffer):
        recon = mixed_buffer.reconstruct_all()
        assert list(recon) == [0, 1, 2, 3, 4]
        assert [recon[label].shape[1:] for label in recon] == [(16, 16, 3), (16, 32, 3)] * 2 + [
            (16, 16, 3)]
        for label, images in recon.items():
            assert np.array_equal(images, self.per_class(mixed_buffer, label))

    def test_reconstruct_class_is_the_grid_path(self, mixed_buffer):
        for label in mixed_buffer.class_labels:
            assert np.array_equal(mixed_buffer.reconstruct_class(label),
                                  self.per_class(mixed_buffer, label))

    def test_loaded_buffer_reads_the_same(self, mixed_buffer, tmp_path):
        # The loaded codec builds its own patch tables from the file's
        # weights; they give the in-memory codec's bits.
        mixed_buffer.save(str(tmp_path))
        buffer = ReplayBuffer.load(str(tmp_path))
        loaded = buffer.reconstruct_all()
        recon = mixed_buffer.reconstruct_all()
        assert list(loaded) == list(recon)
        assert all(np.array_equal(loaded[label], recon[label]) for label in recon)
        ours, theirs = vars(buffer.codec)["_tables"], vars(mixed_buffer.codec)["_tables"]
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(ours, theirs))

    def test_mixed_buffer_is_pinned(self, mixed_buffer, tmp_path):
        # The refit reads the decoded buffer in shelf order, not grouped by
        # geometry: that order is part of the fitted bits.  Re-taken for
        # payload format 2, then for the checked container (codec 2, models 2,
        # streams 3), then for buffer index 2 (a class count, no stream
        # versions), then for stream format 4 (a varint record): with every
        # file rewritten in the layout before each change the directory
        # gives the earlier digest.  The reconstruction digest was re-taken
        # when decoding moved to the patch tables, a few ulps per value;
        # the directory digest did not move.
        mixed_buffer.save(str(tmp_path))
        assert directory_digest(tmp_path) == (
            "fa01102737fe281cc0bf933949493a2351d762a4ab9f3b81eaf712ae2c753659")
        recon = ReplayBuffer.load(str(tmp_path)).reconstruct_all()
        assert hashlib.sha256(b"".join(recon[label].tobytes() for label in recon)).hexdigest() == (
            "fb52da56d824941517b9a8a454b55ebcd0dff68c7d483b569719648b5bad4eb4")

    def test_decompress_shelves_is_the_grid_path(self, mixed_buffer):
        shelves = [mixed_buffer._shelves[label] for label in (3, 0, 1)]
        indices = decompress_shelves([shelf.streams for shelf in shelves],
                                     [code_shapes(shelf.image_shape, mixed_buffer.codec)
                                      for shelf in shelves],
                                     mixed_buffer.pair)
        assert len(indices) == len(shelves)
        for shelf, (top, bottom) in zip(shelves, indices):
            assert all(np.array_equal(held, got) for held, got in zip(shelf.indices, (top, bottom)))
            assert np.array_equal(decode_indices(top, bottom, mixed_buffer.codec),
                                  self.per_class(mixed_buffer, shelf.label))

    def test_decoding_never_writes_the_codec(self, mixed_buffer):
        codec = mixed_buffer.codec
        before = serialize_codec(codec)
        mixed_buffer.reconstruct_all()
        mixed_buffer.reconstruct_class(1)
        decode_indices(*encode_indices(toy_images(3, seed=70), codec), codec)
        assert serialize_codec(codec) == before


def directory_digest(directory):
    """sha256 over every file under `directory`: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class TestSavedBufferPin:
    def test_two_phase_buffer_is_pinned(self, frozen_codec, tmp_path):
        # Phase 2 refits on its new classes and the decoded phase-1 buffer,
        # so a change in the refit's block order moves the models and every
        # stream.  Taken when the refit joined two block lists, new classes
        # first; the codec's float64 weights depend on BLAS rounding, so
        # another BLAS build may need a new digest.  Re-taken for payload
        # format 2, for the checked container, for buffer index 2 and for
        # stream format 4, as the mixed buffer's was.
        buffer = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=4, seed=11)
        for phase in ((0, 1), (2, 3)):
            buffer.ingest_phase({label: toy_images(10, seed=30 + label) for label in phase},
                                FitConfig(iterations=3))
        buffer.save(str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "codec.drrc", "index.txt", "models.drrm", "streams"]
        assert directory_digest(tmp_path) == (
            "6a06754bbae8d3ed0d9e6a07bc275b3f53e82e06348eec8a9a0cbd2c019f6c38")


class TestIndexPaths:
    @pytest.mark.parametrize("name", ["../outside.drrs", "streams/../../outside.drrs",
                                      "{root}/outside.drrs", "streams/", "streams/..",
                                      "other/0_0.drrs", "0_0.drrs"])
    def test_stream_file_outside_the_stream_dir_rejected(self, frozen_codec, tmp_path, name):
        # The stream really is at the named place: only the check stops it.
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        directory = tmp_path / "buf"
        buffer.save(str(directory))
        blob = (directory / "streams" / "0_0.drrs").read_bytes()
        (tmp_path / "outside.drrs").write_bytes(blob)
        (directory / "other").mkdir()
        (directory / "other" / "0_0.drrs").write_bytes(blob)
        (directory / "0_0.drrs").write_bytes(blob)
        index = directory / "index.txt"
        index.write_text(index.read_text().replace(
            "file=streams/0_0.drrs", "file=" + name.format(root=tmp_path)))
        with pytest.raises(DataCorruptionError, match="stream file"):
            ReplayBuffer.load(str(directory))

    @pytest.mark.parametrize("edit", [
        lambda first: first,
        lambda first: first.replace("index=0", "index=1"),
        lambda first: first.replace("index=0 file=streams/0_0", "index=1 file=streams/renamed"),
    ])
    def test_only_saved_stream_lines_load(self, frozen_codec, tmp_path, edit):
        # Each stream file exists: only the line check stops the load.
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        (tmp_path / "streams" / "renamed.drrs").write_bytes(
            (tmp_path / "streams" / "0_1.drrs").read_bytes())
        index = tmp_path / "index.txt"
        lines = index.read_text().splitlines()
        lines[4] = edit(lines[3])
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match="stream file"):
            ReplayBuffer.load(str(tmp_path))

    def test_repeated_class_block_rejected(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = index.read_text().splitlines()
        index.write_text("\n".join(lines + lines[2:]) + "\n")
        with pytest.raises(DataCorruptionError, match="class 0 is listed twice"):
            ReplayBuffer.load(str(tmp_path))

    def test_negative_class_label_rejected(self, frozen_codec, tmp_path):
        # The stream files are renamed to match: only the label check stops it.
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        for path in (tmp_path / "streams").iterdir():
            path.rename(path.with_name(path.name.replace("0_", "-2_", 1)))
        index = tmp_path / "index.txt"
        index.write_text(index.read_text().replace("label=0 ", "label=-2 ")
                         .replace("streams/0_", "streams/-2_"))
        with pytest.raises(DataCorruptionError, match="class label -2 is negative"):
            ReplayBuffer.load(str(tmp_path))

    def test_negative_seed_in_options_rejected(self, frozen_codec, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        index.write_text(index.read_text().replace("seed=11 ", "seed=-1 "))
        with pytest.raises(DataCorruptionError):
            ReplayBuffer.load(str(tmp_path))
