"""Replay buffer, raw baseline, and memory accounting tests."""

import dataclasses
import hashlib

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
from test_bits_back import assert_same_tables
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
        back = LatentModelPair.deserialize(pair.quantized(12).serialize())
        assert back.version == 4 and back.precision == 12 and pair.precision is None
        assert np.array_equal(back.top.p_obs, pair.quantized(12).tables()[0].dyadic.p_obs)
        assert np.array_equal(back.bottom.q_obs, pair.quantized(12).tables()[1].dyadic.q_obs)

    @pytest.mark.parametrize("precision", [6, 12, 16])
    def test_loaded_pair_is_the_held_pair_at_its_precision(self, precision):
        # The loaded pair holds the stored tables: the held pair's, array
        # for array and in the same memory layout, with no table built.
        pair = make_pair(seed=3, version=4).quantized(precision)
        back = LatentModelPair.deserialize(pair.serialize())
        assert back.precision == precision
        for held, loaded in zip(pair.tables(), back.tables()):
            assert_same_tables(held, loaded)
        assert (back.top, back.bottom) == (back.tables()[0].dyadic, back.tables()[1].dyadic)
        assert back.serialize() == pair.serialize()

    def test_from_tables_levels_share_a_precision(self):
        pair = make_pair()
        with pytest.raises(InvalidInputError, match="share a precision"):
            LatentModelPair.from_tables(pair.quantized(10).tables()[0],
                                        pair.quantized(12).tables()[1])

    def test_stored_levels_of_different_versions_rejected(self):
        # The constructor's InvalidInputError is for in-memory misuse; a
        # stored pair that disagrees is corrupt data.
        def flip(body):
            body[2] ^= 1  # bit 0 of the top level's version, after the count and precision

        data = resealed(make_pair(seed=3, version=0).quantized(12).serialize(), flip)
        with pytest.raises(DataCorruptionError, match="versions 1 and 0"):
            LatentModelPair.deserialize(data)

    def test_wrong_record_count_rejected(self):
        from drr.bits_back import serialize_models
        single = serialize_models([build_coding_tables(random_model(4, (3,), seed=0))])
        with pytest.raises(DataCorruptionError):
            LatentModelPair.deserialize(single)

    def test_pair_is_frozen(self):
        pair = make_pair()
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.top = pair.bottom

    def test_tables_built_once_a_float_pair_has_none(self):
        floats = make_pair()
        with pytest.raises(StateError, match="quantize it first"):
            floats.tables()
        pair = floats.quantized(12)
        tables = pair.tables()
        assert pair.tables() is tables and pair.quantized(12).tables() is tables
        assert floats.quantized(10).tables()[0].precision == 10
        with pytest.raises(ValueError):  # shared, so nobody may write to them
            tables[0].p_obs.freqs[0] += 1
        with pytest.raises(ValueError):
            tables[1].dyadic.q_obs[0, 0] = 0.5

    def test_a_pair_codes_only_at_its_own_precision(self):
        # quantized(p) of a pair that codes at p is that pair, so a load
        # builds no tables; any other precision is refused, not requantized.
        loaded = LatentModelPair.deserialize(make_pair(seed=3).quantized(12).serialize())
        assert loaded.quantized(12) is loaded
        with pytest.raises(InvalidInputError, match="stored at precision 12, not 16"):
            loaded.quantized(16)
        with pytest.raises(InvalidInputError, match="precision 17 outside"):
            make_pair().quantized(17)

    def test_a_float_pair_codes_nothing(self, frozen_codec):
        floats = make_pair()
        shelf = encode_indices(toy_images(1, seed=9), frozen_codec)
        [[stream]] = compress_shelves([shelf], floats.quantized(12), [[3]])
        shapes = [(shelf[0].shape[1:], shelf[1].shape[1:])]
        for call in (floats.tables, floats.serialize,
                     lambda: floats.refit([shelf], FitConfig(1)),
                     lambda: compress_shelves([shelf], floats, [[3]]),
                     lambda: decompress_shelves([[stream]], shapes, floats)):
            with pytest.raises(StateError, match="quantize it first"):
                call()

    def test_equal_versions_never_share_tables(self):
        a = make_pair(seed=0, version=3).quantized(12)
        b = make_pair(seed=5, version=3).quantized(12)
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
            for got, want in zip(pair.quantized(12).tables(), explicit.quantized(12).tables()):
                for a, b in zip(got.dyadic.tables(), want.dyadic.tables()):
                    assert a[0] == b[0] and np.array_equal(a[1], b[1])
            assert pair.quantized(12).serialize() == explicit.quantized(12).serialize()

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
        pair = make_pair().quantized(12)
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
        pair = make_pair().quantized(12)
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

    def test_pair_of_a_non_pmf_table_rejected_at_construction(self, frozen_codec):
        # The buffer quantizes its pair when it is built, not at its first
        # ingest, so a table that is no PMF fails there.
        pair = make_pair()
        pair.bottom.p_obs[0] *= 2
        with pytest.raises(InvalidInputError, match="p_obs"):
            ReplayBuffer(frozen_codec, pair)

    def test_held_pair_is_the_stored_one_from_construction(self, frozen_codec):
        pair = make_pair()
        buffer = ReplayBuffer(frozen_codec, pair, precision=10)
        assert buffer.precision == buffer.pair.precision == 10
        for held, built in zip(buffer.pair.tables(), pair.quantized(10).tables()):
            assert_same_tables(held, built)
        loaded = LatentModelPair.deserialize(buffer.pair.serialize())
        for stored, held in zip(loaded.tables(), buffer.pair.tables()):
            assert_same_tables(stored, held)

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
        # Two at construction, for the pair the buffer holds from the start.
        built = self.count_builds(monkeypatch)
        buffer = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=3, seed=1)
        assert built == [0, 0]
        for phase in range(3):
            buffer.ingest_phase({phase: toy_images(8, seed=50 + phase)}, FitConfig(iterations=1))
            buffer.reconstruct_all()
            assert built == [v for v in range(0, phase + 2) for _ in range(2)]

    def test_read_pass_builds_none(self, frozen_codec, monkeypatch, tmp_path):
        # The model file holds the coding tables: a load quantizes nothing.
        buffer, _ = filled_buffer(frozen_codec, n_classes=3)
        buffer.save(str(tmp_path))
        built = self.count_builds(monkeypatch)
        quantized = []
        real = bits_back.quantize_rows
        monkeypatch.setattr(bits_back, "quantize_rows",
                            lambda *args: quantized.append(1) or real(*args))
        loaded = ReplayBuffer.load(str(tmp_path))
        loaded.reconstruct_all()
        loaded.account()
        loaded.save(str(tmp_path / "again"))
        assert built == [] and quantized == []

    def test_save_and_account_build_no_tables(self, frozen_codec, monkeypatch, tmp_path):
        buffer, _ = filled_buffer(frozen_codec, n_classes=2)
        built = self.count_builds(monkeypatch)
        buffer.account()
        buffer.save(str(tmp_path))
        assert built == []


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


def row_sum_minus_one(body):
    """The last stored frequency of the bottom model's last table, q_link[0],
    one lower."""
    body[-2:] = (int.from_bytes(body[-2:], "little") - 1).to_bytes(2, "little")


def row_sum_plus_one(body):
    body[-2:] = (int.from_bytes(body[-2:], "little") + 1).to_bytes(2, "little")


def precision_byte_1(body):
    body[1] = 1


def precision_byte_17(body):
    body[1] = 17


def precision_too_small(body):  # 32 codes need at least 2**5
    body[1] = 4


# Model-file edits under a valid checksum, each with the error `load` must
# give for a toy buffer's models (32 codes, chain 6,4, precision 12).
MODEL_FILE_EDITS = [
    (row_sum_minus_one, "model snapshot: q_link[0] row 5 sums to 4095, not 2**12"),
    (row_sum_plus_one, "model snapshot: q_link[0] row 5 sums to 4097, not 2**12"),
    (precision_byte_1, "precision 1 outside [2, 16]"),
    (precision_byte_17, "precision 17 outside [2, 16]"),
    (precision_too_small,
     "precision 4 cannot code the models' alphabet of 32 symbols (at most 2**4)"),
]


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

    def test_round_trip_keeps_the_next_refit_of_out_of_order_classes(self, frozen_codec,
                                                                      tmp_path):
        # Classes arrive out of label order; `load` rebuilds the shelves in
        # label order, so the refit must read the stored ones in label order
        # too, or a save/load before phase 3 changes its models and streams.
        phases = ({4: toy_images(8, seed=80), 5: toy_images(8, seed=81)},
                  {0: toy_images(8, seed=82), 1: toy_images(8, seed=83)},
                  {2: toy_images(8, seed=84), 3: toy_images(8, seed=85)})
        kept = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=3, seed=7)
        for phase in phases:
            kept.ingest_phase(phase, FitConfig(iterations=2))
        reread = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=3, seed=7)
        for phase in phases[:2]:
            reread.ingest_phase(phase, FitConfig(iterations=2))
        reread.save(str(tmp_path / "before"))
        reread = ReplayBuffer.load(str(tmp_path / "before"))
        reread.ingest_phase(phases[2], FitConfig(iterations=2))
        kept.save(str(tmp_path / "kept"))
        reread.save(str(tmp_path / "reread"))
        assert directory_digest(tmp_path / "kept") == directory_digest(tmp_path / "reread")

    @pytest.mark.parametrize("saved_after, precision", [(0, 12), (1, 12), (2, 12), (1, 10)])
    def test_save_load_at_any_phase_keeps_every_later_file(self, frozen_codec, tmp_path,
                                                          saved_after, precision):
        # The held pair is the stored one from construction on, so a load
        # changes no later refit, the first one included.
        phases = [{label: toy_images(8, seed=90 + label)} for label in range(3)]
        kept = ReplayBuffer(frozen_codec, make_pair(seed=4), exemplars_per_class=3,
                            precision=precision, seed=2)
        for phase in phases:
            kept.ingest_phase(phase, FitConfig(iterations=2))
        reread = ReplayBuffer(frozen_codec, make_pair(seed=4), exemplars_per_class=3,
                              precision=precision, seed=2)
        for phase in phases[:saved_after]:
            reread.ingest_phase(phase, FitConfig(iterations=2))
        reread.save(str(tmp_path / "between"))
        reread = ReplayBuffer.load(str(tmp_path / "between"))
        for phase in phases[saved_after:]:
            reread.ingest_phase(phase, FitConfig(iterations=2))
        kept.save(str(tmp_path / "kept"))
        reread.save(str(tmp_path / "reread"))
        assert directory_digest(tmp_path / "kept") == directory_digest(tmp_path / "reread")

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
                     lambda data: resealed(data, lambda body: flipped(body, 2, 0x01)),
                     "versions 0 and 1", id="models.drrm-body-2-1"),
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
        ("seed=11 initial_bits=256 classes=1", "missing exemplars_per_class"),
        ("seed=11 initial_bits=256 exemplars_per_class=5", "missing classes"),
        ("seed=11 initial_bits=256 exemplars_per_class=5 classes=1 loose",
         "malformed field 'loose'"),
        ("seed=eleven initial_bits=256 exemplars_per_class=5 classes=1",
         "corrupt buffer options"),
        (None, "no options line"),
        ("seed=11 initial_bits=256 exemplars_per_class=5 classes=x", "corrupt buffer options"),
        ("seed=11 initial_bits=256 exemplars_per_class=5 classes=0",
         "lists 1 classes, its options line says 0"),
        ("seed=11 initial_bits=256 exemplars_per_class=5 classes=2",
         "lists 1 classes, its options line says 2"),
    ])
    def test_malformed_options_line_rejected(self, frozen_codec, tmp_path, options, match):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = index.read_text().splitlines()
        assert lines[:3] == ["drr-replay-buffer 3",
                             "seed=11 initial_bits=256 exemplars_per_class=5 classes=1",
                             "class label=0 image=16,16,3 top=2,2 bottom=4,4"]
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

    @pytest.mark.parametrize("edit, match", [
        (lambda text: text.replace("exemplars_per_class=5", "exemplars_per_class=0"),
         "corrupt buffer options"),
        (lambda text: "\n".join(line for line in text.splitlines()
                                if not line.startswith("stream label=0 ")) + "\n",
         "should read 'stream label=0 index=0 "),
    ], ids=["none_per_class", "stream_lines_dropped"])
    def test_class_without_streams_rejected(self, frozen_codec, tmp_path, edit, match):
        # A shelf with no streams would reach the coder as a zero-lane batch.
        buffer, _ = filled_buffer(frozen_codec, n_classes=2, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        index.write_text(edit(index.read_text()))
        with pytest.raises(DataCorruptionError, match=match):
            ReplayBuffer.load(str(tmp_path))

    @pytest.mark.parametrize("per_class, match", [
        (4, "expected a class line, got: stream label=0 index=4 "),
        (6, "should read 'stream label=0 index=5 "),
    ])
    def test_exemplar_count_must_match_the_options_line(self, frozen_codec, tmp_path,
                                                          per_class, match):
        # `ingest_phase` stores exactly exemplars_per_class streams a class,
        # and `load` reads exactly that many stream lines a class, so an
        # options line changed on its own is caught.
        buffer, _ = filled_buffer(frozen_codec, n_classes=2, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        text = index.read_text()
        assert "exemplars_per_class=5" in text
        index.write_text(text.replace("exemplars_per_class=5",
                                      f"exemplars_per_class={per_class}"))
        with pytest.raises(DataCorruptionError, match=match):
            ReplayBuffer.load(str(tmp_path))

    def test_class_short_of_its_exemplars_rejected(self, frozen_codec, tmp_path):
        # A class whose last stream line is cut differs from the options line.
        buffer, _ = filled_buffer(frozen_codec, n_classes=2, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = [line for line in index.read_text().splitlines()
                 if not line.startswith("stream label=0 index=4 ")]
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match="should read 'stream label=0 index=4 "):
            ReplayBuffer.load(str(tmp_path))

    def test_index_of_format_2_rejected(self, frozen_codec, tmp_path):
        # The same buffer in the layout of index format 2: precision= and
        # method= on the options line, count= on each class line.
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        index = tmp_path / "index.txt"
        lines = index.read_text().splitlines()
        lines[:3] = ["drr-replay-buffer 2",
                     "seed=11 precision=12 initial_bits=256 exemplars_per_class=5 "
                     "method=bitswap classes=1",
                     lines[2] + " count=5"]
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match="bad index header"):
            ReplayBuffer.load(str(tmp_path))

    @pytest.mark.parametrize("edit, message", MODEL_FILE_EDITS,
                             ids=[edit.__name__ for edit, _ in MODEL_FILE_EDITS])
    def test_corrupt_model_file_rejected(self, frozen_codec, tmp_path, edit, message):
        buffer, _ = filled_buffer(frozen_codec, n_classes=1, fit_iterations=0)
        buffer.save(str(tmp_path))
        models = tmp_path / "models.drrm"
        models.write_bytes(resealed(models.read_bytes(), edit))
        with pytest.raises(DataCorruptionError) as info:
            ReplayBuffer.load(str(tmp_path))
        assert str(info.value) == message

    def test_precision_is_read_from_the_model_file(self, frozen_codec, tmp_path):
        buffer = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=3,
                              precision=10, seed=1)
        buffer.ingest_phase({0: toy_images(8, seed=50)}, FitConfig(iterations=1))
        buffer.save(str(tmp_path))
        assert "precision" not in (tmp_path / "index.txt").read_text()
        assert (tmp_path / "models.drrm").read_bytes()[11] == 10
        assert ReplayBuffer.load(str(tmp_path)).precision == 10

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
        (tmp_path / "models.drrm").write_bytes(stale.quantized(12).serialize())
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
        grids = [decompress_grid(stream, buffer.pair, *shapes)
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
        # the directory digest did not move.  Both were re-taken for codec
        # format 3, whose frozen codec holds float32-rounded weights: only
        # codec.drrc moved, and the reconstructions with the weights.  The
        # directory digest was re-taken for model format 3: models.drrm
        # holds the coder's frequencies, and the refits of phases 2 and 3
        # start from the dyadic models, so their streams moved; the codec,
        # the index and the reconstructions did not.  The directory digest was
        # re-taken for buffer index 3 (no precision=, method= or count=), with
        # the buffer holding the dyadic pair from construction: the first
        # refit starts from the quantized seeded pair, so every model and
        # stream moved; the codec and the reconstructions did not.
        mixed_buffer.save(str(tmp_path))
        assert directory_digest(tmp_path) == (
            "fe01a330ca597e239db5dff56a4f63a48306045b9eb054ce57e06ba282466418")
        recon = ReplayBuffer.load(str(tmp_path)).reconstruct_all()
        assert hashlib.sha256(b"".join(recon[label].tobytes() for label in recon)).hexdigest() == (
            "490968f5961a11c0f268d62d4c1b3dcfff508941c6e32e4b084fb75443604e02")

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
        # format 2, for the checked container, for buffer index 2, for
        # stream format 4, for codec format 3 and for model format 3, as
        # the mixed buffer's was: after phase 1 only models.drrm moved.
        # Re-taken for buffer index 3 with the pair quantized at
        # construction, as the mixed buffer's was.
        buffer = ReplayBuffer(frozen_codec, make_pair(seed=21), exemplars_per_class=4, seed=11)
        for phase in ((0, 1), (2, 3)):
            buffer.ingest_phase({label: toy_images(10, seed=30 + label) for label in phase},
                                FitConfig(iterations=3))
        buffer.save(str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "codec.drrc", "index.txt", "models.drrm", "streams"]
        assert directory_digest(tmp_path) == (
            "40fbd3415ffa1c597dba455c18289069a0774d133bac9cc2a46be8e08501b764")


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
