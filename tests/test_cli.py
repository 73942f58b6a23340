import inspect
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    edited_stream_set,
    plain_body,
    repacked,
    resealed,
    stream_set_body,
    stream_set_fields,
)
from drr import cli, replay_store
from drr.bits_back import (
    DEFAULT_INITIAL_BITS,
    deserialize_stream,
    encode_stream,
    encode_streams,
)
from drr.cli import (
    BAD_ALPHABETS,
    CONFIG_DEFAULTS,
    EXIT_CORRUPT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    read_image,
    write_image,
)
from drr.container import read_uvarint, seal, uvarint
from drr.errors import DataCorruptionError, InvalidInputError
from drr.learner import DEFAULT_IB_WEIGHT, LatentSpec, TrainConfig
from drr.replay_store import (
    LatentModelPair,
    ReplayBuffer,
    compress_shelves,
    parse_positive_ints,
)
from test_replay_store import (
    precision_byte_1,
    precision_byte_17,
    row_sum_minus_one,
    row_sum_plus_one,
)
from drr.vq_codec import (
    CODEC_FORMAT_VERSION,
    CODEC_MAGIC,
    CodecConfig,
    decode_codes,
    deserialize_codec,
    encode_image,
    encode_indices,
    init_codec_params,
    serialize_codec,
)


def toy_images(n, side=16, seed=0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side] / side
    imgs = []
    for _ in range(n):
        fx, fy = rng.uniform(0.5, 2.5, size=2)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        img = 0.5 + 0.4 * np.sin(2 * np.pi * (fx * xx + fy * yy)[..., None] + phase)
        imgs.append(np.clip(img + rng.normal(0, 0.03, img.shape), 0, 1))
    return np.stack(imgs)


def write_image_dir(directory, images):
    os.makedirs(directory, exist_ok=True)
    for i, img in enumerate(images):
        write_image(os.path.join(directory, f"img_{i:03d}.img"), img)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared pipeline artifacts: images -> codec -> streams -> images."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    write_image_dir(data, toy_images(10, seed=3))
    codec_path = str(root / "codec.drrc")
    code = main(["pretrain-codec", "--data", data, "--out", codec_path,
                 "--epochs", "40", "--lr", "0.002", "--seed", "5",
                 "--codebook-size", "16", "--embed-dim", "6"])
    assert code == EXIT_OK
    return {"root": root, "data": data, "codec": codec_path}


class TestImageFiles:
    def test_round_trip_is_exact_at_byte_resolution(self, tmp_path):
        img = np.random.default_rng(0).uniform(0, 1, (5, 7, 3))
        path = str(tmp_path / "a.img")
        write_image(path, img)
        back = read_image(path)
        assert back.shape == (5, 7, 3)
        assert np.max(np.abs(back - img)) <= 0.5 / 255

        write_image(path, back)
        assert np.array_equal(read_image(path), back)

    def test_header_matches_payload(self, tmp_path):
        path = str(tmp_path / "bad.img")
        with open(path, "wb") as f:
            f.write(struct.pack("<III", 4, 4, 3) + b"\x00" * 5)
        with pytest.raises(DataCorruptionError):
            read_image(path)


def test_initial_bits_defaults_read_one_constant():
    calls = (encode_stream, encode_streams, compress_shelves, ReplayBuffer)
    assert [inspect.signature(f).parameters["initial_bits"].default for f in calls] \
        == [DEFAULT_INITIAL_BITS] * len(calls)
    assert LatentSpec().initial_bits == CONFIG_DEFAULTS["initial_bits"] == DEFAULT_INITIAL_BITS
    args = build_parser().parse_args(["compress", "--codec", "c", "--model", "m",
                                      "--in", "i", "--out", "o"])
    assert args.initial_bits == DEFAULT_INITIAL_BITS
    flags = ("epochs", "lr", "beta", "seed", "patch", "pool", "codebook_size", "embed_dim")
    args = build_parser().parse_args(["pretrain-codec", "--data", "d", "--out", "o"])
    assert [getattr(args, f) for f in flags] == [getattr(CodecConfig(), f) for f in flags]
    keys = ("mode", "ib_weight", "epochs", "lr", "batch_size", "hidden_dim")
    assert [CONFIG_DEFAULTS[k] for k in keys] == [getattr(TrainConfig(), k) for k in keys]
    assert CONFIG_DEFAULTS["ib_weight"] == TrainConfig().ib_weight == DEFAULT_IB_WEIGHT


@pytest.mark.parametrize("text", ["a,b", "16,x", "0,4", "4,-1", ""])
def test_one_parser_keeps_the_shape_and_alphabet_messages(text):
    assert parse_positive_ints("16,8") == parse_positive_ints("16,8", InvalidInputError,
                                                              BAD_ALPHABETS) == (16, 8)
    with pytest.raises(DataCorruptionError) as info:
        parse_positive_ints(text)
    assert str(info.value) == f"bad shape {text!r}"
    with pytest.raises(InvalidInputError) as info:
        parse_positive_ints(text, InvalidInputError, BAD_ALPHABETS)
    assert str(info.value) == f"bad alphabets {text!r}; expected positive integers such as 16,8"


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_missing_flag_is_usage(self, capsys):
        assert main(["pretrain-codec", "--data", "x"]) == EXIT_USAGE

    def test_missing_input_dir_is_io(self, tmp_path, capsys):
        code = main(["pretrain-codec", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "c.drrc")])
        assert code == EXIT_IO

    def test_corrupt_artifact_is_corrupt(self, tmp_path, capsys):
        path = str(tmp_path / "c.drrc")
        with open(path, "wb") as f:
            f.write(b"DRRC" + b"\x00" * 3)
        assert main(["inspect", "--file", path]) == EXIT_CORRUPT

    def test_console_entry_propagates_exit_code(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "drr.cli", "report",
             "--results", str(tmp_path / "missing.txt")],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_IO


class TestPretrainCodec:
    def test_writes_frozen_codec_and_reports_mse(self, workspace, capsys):
        with open(workspace["codec"], "rb") as f:
            codec = deserialize_codec(f.read())
        assert codec.frozen
        assert codec.codebook_bottom.shape == (16, 6)

    def test_rerun_is_byte_identical(self, workspace, tmp_path, capsys):
        again = str(tmp_path / "again.drrc")
        code = main(["pretrain-codec", "--data", workspace["data"], "--out", again,
                     "--epochs", "40", "--lr", "0.002", "--seed", "5",
                     "--codebook-size", "16", "--embed-dim", "6"])
        assert code == EXIT_OK
        with open(workspace["codec"], "rb") as f1, open(again, "rb") as f2:
            assert f1.read() == f2.read()

    def test_does_not_mutate_inputs(self, workspace, tmp_path, capsys):
        before = {}
        for name in sorted(os.listdir(workspace["data"])):
            with open(os.path.join(workspace["data"], name), "rb") as f:
                before[name] = f.read()
        main(["pretrain-codec", "--data", workspace["data"],
              "--out", str(tmp_path / "c2.drrc"), "--epochs", "2",
              "--codebook-size", "16", "--embed-dim", "6"])
        for name, blob in before.items():
            with open(os.path.join(workspace["data"], name), "rb") as f:
                assert f.read() == blob

    @pytest.mark.parametrize("epochs", [0, 40])
    def test_reports_codec_health(self, workspace, tmp_path, capsys, epochs):
        out = str(tmp_path / "c.drrc")
        assert main(["pretrain-codec", "--data", workspace["data"], "--out", out,
                     "--epochs", str(epochs), "--lr", "0.002", "--seed", "5",
                     "--codebook-size", "16", "--embed-dim", "6"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        mse = float(re.fullmatch(r"trained codec on 10 images; reconstruction mse (\S+)",
                                 lines[0]).group(1))
        found = re.fullmatch(r"codec health: codes used top (\d+)/16, bottom (\d+)/16; "
                             r"mse / pixel variance (\d+\.\d{4})", lines[1])
        assert found, lines[1]
        used_top, used_bottom, ratio = int(found[1]), int(found[2]), float(found[3])
        images = [read_image(os.path.join(workspace["data"], name))
                  for name in sorted(os.listdir(workspace["data"]))]
        with open(out, "rb") as f:
            codec = deserialize_codec(f.read())
        top, bottom = encode_indices(images, codec)
        assert 1 <= used_top <= 16 and 1 <= used_bottom <= 16
        assert (used_top, used_bottom) == (np.unique(top).size, np.unique(bottom).size)
        assert ratio > 0
        assert abs(ratio - mse / np.var(np.stack(images))) <= 1e-4 + 1e-6 / np.var(images)


@pytest.fixture(scope="module")
def compressed(workspace):
    out = str(workspace["root"] / "set.drrz")
    model = str(workspace["root"] / "model.drrm")
    code = main(["compress", "--codec", workspace["codec"], "--model", model,
                 "--in", workspace["data"], "--out", out,
                 "--alphabets", "5,4", "--block-len", "4",
                 "--fit-iterations", "5", "--seed", "9"])
    assert code == EXIT_OK
    return {"out": out, "model": model}


def set_field(key, value):
    """An edit of a stream set's options: `key` set to `value`."""
    return lambda fields: fields.update({key: value})


def entry_field(**values):
    """An edit of a stream set's first entry: each key set to its value."""
    return lambda fields: fields["entries"][0].update(values)


def bad_set(compressed, path, edit):
    """`path`, written as the compressed set with `edit` applied and resealed."""
    with open(compressed["out"], "rb") as f:
        path.write_bytes(edited_stream_set(f.read(), edit))
    return str(path)


# Stream sets, each resealed after one edit, that `drr decompress` must
# reject with exit 3, and a part of the message it prints.  The workspace
# images are 16x16 under patch 4, pool 2: each bottom grid is 4 x 4.
BAD_SETS = {
    "precision 17": (set_field("precision", 17), "precision 17 outside"),
    "precision 3": (set_field("precision", 3), "precision 3 cannot code"),
    # k, the seeded bytes a stream restores, may not exceed the set's
    "no seeded bytes": (set_field("seeded", 0), "more than the 0 it was seeded with"),
    # the image count must be the number of entries the body holds
    "count 9": (set_field("count", 9), "stream set holds more than its 9 images"),
    "count 11": (set_field("count", 11), "source name length varint cut short"),
    "a name listed twice": (entry_field(name=b"img_001.img"), "'img_001.img' is listed twice"),
    "a name not UTF-8": (entry_field(name=b"img_\xff.img"), "source name is not UTF-8"),
    "height 0": (entry_field(height=0), "a bottom grid of 0 x 4 does not fit"),
    "width 0": (entry_field(width=0), "a bottom grid of 4 x 0 does not fit"),
    "height 3": (entry_field(height=3), "a bottom grid of 3 x 4 does not fit"),
    # grids that fit the codec but not the stream, down to one no memory holds
    "grid 8 x 4": (entry_field(height=8, width=4), "symbol count is not its grids' 40 codes"),
    "grid 2**31 x 2**31": (entry_field(height=1 << 31, width=1 << 31),
                           "symbol count is not its grids' 5764607523034234880 codes"),
}


def precision_3(body):  # 16 codes need at least 2**4
    body[1] = 3


# Model-file edits of the plain body (`conftest.repacked`) under a valid
# checksum with the error `drr decompress` gives for the workspace models (16 codes, chain 5,4, precision 12): the
# bottom model's last table is q_link[0], 5 rows.
CLI_MODEL_EDITS = [
    (row_sum_minus_one, "model snapshot: q_link[0] row 4 sums to 4095, not 2**12"),
    (row_sum_plus_one, "model snapshot: q_link[0] row 4 sums to 4097, not 2**12"),
    (precision_byte_1, "precision 1 outside [2, 16]"),
    (precision_byte_17, "precision 17 outside [2, 16]"),
    (precision_3, "precision 3 cannot code the models' alphabet of 16 symbols (at most 2**3)"),
]


class TestCompressDecompress:
    def test_writes_one_stream_set_file(self, workspace, compressed):
        with open(compressed["out"], "rb") as f:
            data = f.read()
        assert data[:6] == b"DRRZ" + (2).to_bytes(2, "little")
        fields = stream_set_fields(data)
        assert (fields["precision"], fields["seeded"]) == (12, DEFAULT_INITIAL_BITS // 8)
        assert fields["count"] == len(fields["entries"]) == 10
        assert ([entry["name"].decode() for entry in fields["entries"]]
                == sorted(os.listdir(workspace["data"])))
        for i, entry in enumerate(fields["entries"]):
            assert (entry["height"], entry["width"]) == (4, 4)
            assert deserialize_stream(entry["stream"]).symbol_count == 4 + 16, i
        assert seal(b"DRRZ", 2, stream_set_body(fields)) == data

    def test_reports_bits_per_code_below_sixteen(self, workspace, compressed,
                                                 tmp_path, capsys):
        code = main(["compress", "--codec", workspace["codec"],
                     "--model", compressed["model"],
                     "--in", workspace["data"], "--out", str(tmp_path / "s2"),
                     "--seed", "9"])
        assert code == EXIT_OK
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if "bits/code" in ln][0]
        assert float(line.split()[2]) < 16.0

    def test_widest_block_length_compresses(self, workspace, tmp_path, capsys):
        # The model record's block length is a u16: 65535 fits, and every
        # grid is one block.
        model = str(tmp_path / "m.drrm")
        argv = ["--codec", workspace["codec"], "--model", model]
        assert main(["compress", *argv, "--in", workspace["data"], "--out", str(tmp_path / "s"),
                     "--alphabets", "5,4", "--block-len", "65535",
                     "--fit-iterations", "1"]) == EXIT_OK
        with open(model, "rb") as f:
            pair = LatentModelPair.deserialize(f.read())
        assert pair.top.block_len == pair.bottom.block_len == 65535
        assert main(["decompress", *argv, "--in", str(tmp_path / "s"),
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        assert sorted(os.listdir(tmp_path / "r")) == sorted(os.listdir(workspace["data"]))

    def test_decompress_matches_codec_round_trip(self, workspace, compressed,
                                                 tmp_path, capsys):
        recon_dir = str(tmp_path / "recon")
        code = main(["decompress", "--codec", workspace["codec"],
                     "--model", compressed["model"],
                     "--in", compressed["out"], "--out", recon_dir])
        assert code == EXIT_OK
        with open(workspace["codec"], "rb") as f:
            codec = deserialize_codec(f.read())
        for name in sorted(os.listdir(workspace["data"])):
            original = read_image(os.path.join(workspace["data"], name))
            expected = decode_codes(encode_image(original, codec), codec)
            restored = read_image(os.path.join(recon_dir, name))
            assert np.max(np.abs(restored - expected)) <= 0.5 / 255
        assert sorted(os.listdir(recon_dir)) == sorted(os.listdir(workspace["data"]))

    def test_precision_is_read_from_the_set(self, workspace, compressed, tmp_path, capsys):
        # A set compressed at precision 16 decompresses with no precision
        # flag to what the codec gives: the set says how it was coded.
        streams, recon = str(tmp_path / "s16.drrz"), str(tmp_path / "recon")
        model = str(tmp_path / "m16.drrm")
        assert main(["compress", "--codec", workspace["codec"], "--model", model,
                     "--in", workspace["data"], "--out", streams, "--precision", "16",
                     "--alphabets", "5,4", "--block-len", "4", "--fit-iterations", "5",
                     "--seed", "9"]) == EXIT_OK
        with open(streams, "rb") as f:
            assert stream_set_fields(f.read())["precision"] == 16
        decompress = ["decompress", "--codec", workspace["codec"], "--model", model,
                      "--in", streams, "--out", recon]
        assert main(decompress) == EXIT_OK
        with open(workspace["codec"], "rb") as f:
            codec = deserialize_codec(f.read())
        for name in sorted(os.listdir(workspace["data"])):
            original = read_image(os.path.join(workspace["data"], name))
            expected = decode_codes(encode_image(original, codec), codec)
            assert np.max(np.abs(read_image(os.path.join(recon, name)) - expected)) <= 0.5 / 255
        assert main(decompress + ["--precision", "12"]) == EXIT_USAGE

    @pytest.mark.parametrize("case", sorted(BAD_SETS))
    def test_bad_set_field_is_corrupt(self, workspace, compressed, tmp_path, capsys, case):
        edit, message = BAD_SETS[case]
        path = bad_set(compressed, tmp_path / "bad.drrz", edit)
        assert main(["decompress", "--codec", workspace["codec"], "--model", compressed["model"],
                     "--in", path, "--out", str(tmp_path / "r")]) == EXIT_CORRUPT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_tampered_stream_is_corrupt(self, workspace, compressed, tmp_path, capsys):
        with open(compressed["out"], "rb") as f:
            stream = stream_set_fields(f.read())["entries"][0]["stream"]
        path = bad_set(compressed, tmp_path / "bad.drrz",
                       entry_field(stream=resealed(stream, version_999)))
        code = main(["decompress", "--codec", workspace["codec"],
                     "--model", compressed["model"], "--in", path, "--out", str(tmp_path / "r")])
        assert code == EXIT_CORRUPT
        assert "model version 999" in capsys.readouterr().err

    def test_decompress_reads_one_file_beside_codec_and_model(self, workspace, compressed,
                                                              tmp_path, monkeypatch):
        opened = []

        def recording(name, call):
            def record(path, *args):
                opened.append((str(path), name))
                return call(path, *args)
            return record

        for name in ("read_file", "write_file"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        assert main(["decompress", "--codec", workspace["codec"], "--model", compressed["model"],
                     "--in", compressed["out"], "--out", str(tmp_path / "r")]) == EXIT_OK
        assert [(path, name) for path, name in opened if name == "read_file"] == [
            (workspace["codec"], "read_file"), (compressed["model"], "read_file"),
            (compressed["out"], "read_file")]
        assert len(opened) == 3 + len(os.listdir(workspace["data"]))

    def test_file_name_not_utf8_is_usage(self, workspace, tmp_path, capsys):
        # A set stores names as UTF-8, so compress refuses one it could not
        # store, before it fits a model, rather than fail with a traceback.
        images = tmp_path / "images"
        images.mkdir()
        write_image(os.path.join(os.fsencode(images), b"img_\xff.img"), toy_images(1)[0])
        code = main(["compress", "--codec", workspace["codec"], "--model", str(tmp_path / "m"),
                     "--in", str(images), "--out", str(tmp_path / "s.drrz")])
        assert code == EXIT_USAGE
        assert "an image file name is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "s.drrz").exists() and not (tmp_path / "m").exists()

    @pytest.mark.parametrize("flag, value", [("--initial-bits", "12"), ("--precision", "17")])
    def test_unstorable_coder_setting_is_usage(self, workspace, compressed, tmp_path, capsys,
                                               flag, value):
        # The set stores seeded bytes, not bits, and a precision the coder
        # takes: compress writes no set it could not read back.
        code = main(["compress", "--codec", workspace["codec"], "--model", compressed["model"],
                     "--in", workspace["data"], "--out", str(tmp_path / "s.drrz"), flag, value])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "s.drrz").exists()

    def test_set_directory_of_the_text_index_layout_is_rejected(self, workspace, compressed,
                                                                 tmp_path):
        # The earlier layout, a directory of index.txt and one stream file per
        # image, is no stream set: decompress exits 2 on it, and inspect
        # calls its index unrecognized.
        old = tmp_path / "streams"
        old.mkdir()
        (old / "index.txt").write_text("drr-stream-set 3\n"
                                       "precision=12 initial_bits=256 count=1\n"
                                       "stream source=img_000.img top=2,2 bottom=4,4\n")
        with open(compressed["out"], "rb") as f:
            (old / "stream_0000.drrs").write_bytes(
                stream_set_fields(f.read())["entries"][0]["stream"])
        for argv, code in (
                (["decompress", "--codec", workspace["codec"], "--model", compressed["model"],
                  "--in", str(old), "--out", str(tmp_path / "r")], EXIT_IO),
                (["inspect", "--file", str(old / "index.txt")], EXIT_USAGE)):
            proc = subprocess.run([sys.executable, "-m", "drr.cli", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == code, proc.stderr
            assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r").exists()

    def test_model_of_another_precision_is_usage(self, workspace, compressed, tmp_path,
                                                 capsys):
        # The model file stores its tables at precision 12: compressing at
        # 16 with it is a usage error and writes nothing.
        with open(compressed["model"], "rb") as f:
            before = f.read()
        code = main(["compress", "--codec", workspace["codec"], "--model", compressed["model"],
                     "--in", workspace["data"], "--out", str(tmp_path / "s"),
                     "--precision", "16"])
        assert code == EXIT_USAGE
        assert "stored at precision 12, not 16" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
        with open(compressed["model"], "rb") as f:
            assert f.read() == before

    def test_set_of_another_precision_than_its_model_is_corrupt(self, workspace, compressed,
                                                                tmp_path, capsys):
        model = str(tmp_path / "m16.drrm")
        with open(compressed["model"], "rb") as f:
            pair = LatentModelPair.deserialize(f.read())
        with open(model, "wb") as f:  # its models as floats, quantized at 16
            f.write(LatentModelPair(pair.top, pair.bottom).quantized(16).serialize())
        assert main(["decompress", "--codec", workspace["codec"], "--model", model,
                     "--in", compressed["out"], "--out", str(tmp_path / "r")]) == EXIT_CORRUPT
        assert "stored at precision 16, not 12" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("edit, message", CLI_MODEL_EDITS,
                             ids=[edit.__name__ for edit, _ in CLI_MODEL_EDITS])
    def test_corrupt_model_file_is_corrupt(self, workspace, compressed, tmp_path, capsys,
                                           edit, message):
        model = tmp_path / "bad.drrm"
        with open(compressed["model"], "rb") as f:
            model.write_bytes(repacked(f.read(), edit))
        assert main(["decompress", "--codec", workspace["codec"], "--model", str(model),
                     "--in", compressed["out"], "--out", str(tmp_path / "r")]) == EXIT_CORRUPT
        assert capsys.readouterr().err == f"corrupt data: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_failed_compress_writes_no_model(self, workspace, tmp_path, capsys):
        # The streams fail after the fit: neither the fitted model nor the
        # set may stay behind for a rerun to pick up.
        model, out = tmp_path / "new.drrm", tmp_path / "s.drrz"
        assert main(["compress", "--codec", workspace["codec"], "--model", str(model),
                     "--in", workspace["data"], "--out", str(out), "--alphabets", "5,4",
                     "--initial-bits", "12"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "multiple of 8" in captured.err and "wrote" not in captured.out
        assert not model.exists() and not out.exists()

    def test_model_of_another_codebook_size_is_usage(self, workspace, tmp_path, capsys):
        model = wrong_size_model(tmp_path)
        with open(model, "rb") as f:
            before = f.read()
        code = main(["compress", "--codec", workspace["codec"], "--model", model,
                     "--in", workspace["data"], "--out", str(tmp_path / "s")])
        assert code == EXIT_USAGE
        assert "do not fit the codec" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
        with open(model, "rb") as f:
            assert f.read() == before

    def test_codec_of_another_codebook_size_is_corrupt(self, workspace, compressed,
                                                       tmp_path, capsys):
        code = main(["decompress", "--codec", wrong_size_codec(tmp_path),
                     "--model", compressed["model"], "--in", compressed["out"],
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_CORRUPT
        assert "do not fit the codec" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def wrong_size_model(root):
    """A model pair file over 64 codes, where the workspace codec has 16."""
    path = str(root / "k64.drrm")
    with open(path, "wb") as f:
        f.write(LatentModelPair.seeded(64, (5, 4), 4, 0).quantized(12).serialize())
    return path


def wrong_size_codec(root):
    """A codec file of the workspace codec's geometry with 4 codes, not 16."""
    path = str(root / "k4.drrc")
    with open(path, "wb") as f:
        f.write(serialize_codec(init_codec_params(CodecConfig(codebook_size=4, embed_dim=6))))
    return path


RUN_PHASES_CONFIG = """
# tiny phased run for tests
mode = drr
seed = 0
total_classes = 4
initial_classes = 2
n_phases = 1
classes_per_phase = 2
train_per_class = 6
test_per_class = 4
side = 8
data_seed = 11
codebook_size = 16
embed_dim = 6
codec_epochs = 30
epochs = 25
alphabets = 4,3
block_len = 4
fit_iterations = 2
exemplars_per_class = 4
"""


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    root = tmp_path_factory.mktemp("phases")
    config = str(root / "run.conf")
    with open(config, "w") as f:
        f.write(RUN_PHASES_CONFIG)
    out = str(root / "results.txt")
    assert main(["run-phases", "--config", config, "--out", out]) == EXIT_OK
    return {"config": config, "out": out, "root": root}


class TestRunPhases:
    def test_results_file_shape(self, results):
        with open(results["out"]) as f:
            lines = f.read().splitlines()
        assert lines[0] == "drr-results 1"
        assert lines[1].startswith("config ")
        phases = [ln for ln in lines if ln.startswith("phase ")]
        assert len(phases) == 2
        assert "model_version=1" in phases[0] and "model_version=2" in phases[1]
        assert lines[-1].startswith("summary phases=1 average=")

    def test_rerun_is_byte_identical(self, results, capsys):
        again = str(results["root"] / "again.txt")
        assert main(["run-phases", "--config", results["config"],
                     "--out", again]) == EXIT_OK
        with open(results["out"], "rb") as f1, open(again, "rb") as f2:
            assert f1.read() == f2.read()

    def test_default_run_decodes_no_stream(self, tmp_path, monkeypatch):
        # The buffer holds each class's code indices: every phase refits on
        # them and replays them, and re-encodes the buffer in one batch; no
        # phase decodes a stream.
        calls = {"encode_streams": 0, "decode_streams": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(replay_store, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(replay_store, name, counting)
        config = tmp_path / "default.conf"
        config.write_text("")
        assert main(["run-phases", "--config", str(config),
                     "--out", str(tmp_path / "r.txt")]) == EXIT_OK
        assert calls == {"encode_streams": 3, "decode_streams": 0}

    def test_unknown_config_key_is_usage(self, tmp_path, capsys):
        config = str(tmp_path / "bad.conf")
        with open(config, "w") as f:
            f.write("modee = drr\n")
        assert main(["run-phases", "--config", config,
                     "--out", str(tmp_path / "r.txt")]) == EXIT_USAGE

    def test_report_totals_match_recomputation(self, results, capsys):
        assert main(["report", "--results", results["out"]]) == EXIT_OK
        out = capsys.readouterr().out
        with open(results["out"]) as f:
            accs = [float(p.split("accuracy=")[1].split()[0])
                    for p in f.read().splitlines() if p.startswith("phase ")]
        assert f"average (phases 1..N): {np.mean(accs[1:]):.4f}" in out
        assert f"last phase: {accs[-1]:.4f}" in out

    def test_report_rejects_tampered_summary(self, results, tmp_path, capsys):
        with open(results["out"]) as f:
            text = f.read()
        head, _, summary = text.rstrip("\n").rpartition("\n")
        key, _, _ = summary.rpartition("=")
        tampered = str(tmp_path / "tampered.txt")
        with open(tampered, "w") as f:
            f.write(head + "\n" + key + "=0.999\n")
        assert main(["report", "--results", tampered]) == EXIT_CORRUPT

    @pytest.mark.parametrize("kind,values", [
        ("summary", {"average": "nan", "last": "nan"}),
        ("summary", {"average": "nan"}),
        ("summary", {"last": "nan"}),
        ("phase", {"accuracy": "nan"}),
        ("phase", {"accuracy": "1.7"}),
        ("phase", {"accuracy": "-0.25"}),
        ("phase", {"total_bytes": "-3"}),
        ("phase", {"raw_equiv_bytes": "-3"}),
    ], ids=["summary-nan", "average-nan", "last-nan", "accuracy-nan", "accuracy-above-1",
            "accuracy-negative", "total-bytes-negative", "raw-equiv-bytes-negative"])
    def test_report_rejects_values_out_of_domain(self, results, tmp_path, capsys, kind, values):
        # Only the first record of the kind changes: phase 0's accuracy is in
        # neither summary figure, so the summary still agrees with the phases.
        with open(results["out"]) as f:
            lines = f.read().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith(kind + " "))
        for key, value in values.items():
            lines[first] = re.sub(rf"(?<= ){key}=\S+", f"{key}={value}", lines[first])
            assert f" {key}={value}" in lines[first]
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["report", "--results", bad]) == EXIT_CORRUPT
        assert "corrupt data" in capsys.readouterr().err

    def test_report_non_utf8_results_is_corrupt(self, results, tmp_path, capsys):
        path = tmp_path / "results.txt"
        shutil.copyfile(results["out"], path)
        flip_byte(path, 3, 0x80)
        assert main(["report", "--results", str(path)]) == EXIT_CORRUPT
        assert "not UTF-8" in capsys.readouterr().err

    def test_report_empty_file_is_usage(self, tmp_path, capsys):
        path = str(tmp_path / "empty.txt")
        open(path, "w").close()
        assert main(["report", "--results", path]) == EXIT_USAGE

    @pytest.mark.parametrize("kind,old,new", [
        ("phase", "phase ", "phase loose "),
        ("phase", "accuracy=", "acc="),
        ("phase", "accuracy=", "accuracy=high"),
        ("phase", "total_bytes=", "total_bytes=1.5e"),
        ("summary", " last=", " final="),
        ("summary", "average=", "average=none"),
    ])
    def test_report_malformed_results_is_corrupt(self, results, tmp_path, capsys,
                                                 kind, old, new):
        with open(results["out"]) as f:
            lines = [line.replace(old, new, 1) if line.startswith(kind) else line
                     for line in f.read().splitlines()]
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["report", "--results", bad]) == EXIT_CORRUPT
        assert "corrupt data" in capsys.readouterr().err
        proc = subprocess.run([sys.executable, "-m", "drr.cli", "report", "--results", bad],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_CORRUPT
        assert "Traceback" not in proc.stderr


class TestInspect:
    def test_identifies_each_artifact(self, workspace, tmp_path, capsys):
        img_path = str(tmp_path / "one.img")
        write_image(img_path, toy_images(1, seed=1)[0])
        assert main(["inspect", "--file", workspace["codec"]]) == EXIT_OK
        assert "codec" in capsys.readouterr().out

        assert main(["inspect", "--file", img_path]) == EXIT_OK
        assert "raw image: 16 x 16 x 3" in capsys.readouterr().out

    def test_codec_prints_its_weight_width_and_bytes(self, workspace, tmp_path, capsys):
        # 16 x 6 codebooks of 4x4x3 patches: 2*6*48 + 48 + 2*36 + 3*6 + 2*16*6 weights.
        weights = 906
        unfrozen = tmp_path / "unfrozen.drrc"
        unfrozen.write_bytes(serialize_codec(init_codec_params(CodecConfig(
            codebook_size=16, embed_dim=6))))
        for path, width in ((workspace["codec"], 4), (unfrozen, 8)):
            assert main(["inspect", "--file", str(path)]) == EXIT_OK
            out = capsys.readouterr().out
            # The packed weights follow the container (10 B) and the geometry (29 B).
            packed = os.path.getsize(path) - 39
            assert out.endswith(f", frozen {width == 4}, weights f{width} "
                                f"({width * weights} bytes, {packed} packed)\n"), out
            with open(path, "rb") as f:
                assert len(plain_body(f.read())) == 29 + width * weights

    def test_identifies_model_stream_set_and_stream(self, workspace, tmp_path, capsys):
        out = tmp_path / "s.drrz"
        model = str(tmp_path / "m.drrm")
        main(["compress", "--codec", workspace["codec"], "--model", model,
              "--in", workspace["data"], "--out", str(out), "--precision", "14",
              "--initial-bits", "128", "--alphabets", "4,3", "--block-len", "4",
              "--fit-iterations", "0"])
        capsys.readouterr()
        assert main(["inspect", "--file", model]) == EXIT_OK
        # Per model over 16 codes and chain 4,3: 4x16 + 3x4 + 3 + 16x4 + 4x3
        # frequencies of 2 bytes, after a 12-byte record and two alphabets.
        entries = 2 * (64 + 12 + 3 + 64 + 12)
        packed = os.path.getsize(model) - (10 + 2 + 2 * (12 + 8))
        assert capsys.readouterr().out == (
            f"model snapshot: 2 records, precision 14, tables u2 ({2 * entries} bytes, "
            f"{packed} packed)\n"
            + "".join(f"  [{i}] version 1, levels 2, alphabet 16, chain (4, 3), block 4\n"
                      for i in range(2)))
        with open(model, "rb") as f:
            assert len(plain_body(f.read())) == 2 + 2 * (12 + 8) + 2 * entries
        assert main(["inspect", "--file", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (f"stream set: 10 images, precision 14, "
                                           f"initial bits 128, {out.stat().st_size} bytes\n")
        stream = tmp_path / "one.drrs"
        stream.write_bytes(stream_set_fields(out.read_bytes())["entries"][0]["stream"])
        assert main(["inspect", "--file", str(stream)]) == EXIT_OK
        assert "symbols" in capsys.readouterr().out

    def test_unknown_bytes_are_usage(self, tmp_path, capsys):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as f:
            f.write(b"junkjunkjunk")
        assert main(["inspect", "--file", path]) == EXIT_USAGE


def bad_input_cases(workspace, root):
    """(name, argv) pairs of malformed input that must exit 1, each with its
    inputs written under `root`."""
    mixed = root / "mixed"
    mixed.mkdir()
    write_image(str(mixed / "a.img"), toy_images(1, side=8, seed=1)[0])
    write_image(str(mixed / "b.img"), toy_images(1, side=16, seed=2)[0])
    config = root / "alphabets.conf"
    config.write_text("alphabets = a,b\n")
    negative_fit = root / "fit_iterations.conf"
    negative_fit.write_text(SMALL_RUN_CONFIG + "fit_iterations = -5\n")
    long_blocks = root / "block_len.conf"  # the model record holds a u16 block length
    long_blocks.write_text(SMALL_RUN_CONFIG + "block_len = 70000\n")
    # Training settings outside their domain: rejected before training, not
    # run to chance accuracy or an untrained codec.
    settings = {}
    for i, line in enumerate(("lr = nan", "lr = inf", "ib_weight = nan", "codec_epochs = -5",
                              "codec_lr = 0.0", "codec_lr = -0.005", "beta = -1.0")):
        settings[line] = root / f"setting_{i}.conf"
        settings[line].write_text(SMALL_RUN_CONFIG + line + "\n")
    empty = root / "empty"
    empty.mkdir()
    write_image(str(empty / "a.img"), np.zeros((0, 16, 3)))
    pretrain = ["pretrain-codec", "--data", workspace["data"], "--out", str(root / "c.drrc"),
                "--epochs", "1"]
    compress = ["compress", "--codec", workspace["codec"], "--model", str(root / "m.drrm"),
                "--in", workspace["data"], "--out", str(root / "s")]
    return [
        ("mixed image sizes", ["pretrain-codec", "--data", str(mixed),
                               "--out", str(root / "c.drrc"), "--epochs", "1"]),
        ("codebook size 0", pretrain + ["--codebook-size", "0"]),
        ("embed dim 0", pretrain + ["--embed-dim", "0"]),
        ("alphabets a,b", compress + ["--alphabets", "a,b"]),
        ("alphabets 0,4", compress + ["--alphabets", "0,4"]),
        ("alphabets empty", compress + ["--alphabets", ""]),
        ("config alphabets a,b", ["run-phases", "--config", str(config),
                                  "--out", str(root / "r.txt")]),
        ("fit iterations -5", compress + ["--fit-iterations", "-5"]),
        ("block length 65536", compress + ["--block-len", "65536"]),
        ("config block_len 70000", ["run-phases", "--config", str(long_blocks),
                                    "--out", str(root / "r.txt")]),
        ("config fit_iterations -5", ["run-phases", "--config", str(negative_fit),
                                      "--out", str(root / "r.txt")]),
        ("zero-height image, pretrain", ["pretrain-codec", "--data", str(empty),
                                         "--out", str(root / "c.drrc"), "--epochs", "1"]),
        ("zero-height image, compress", ["compress", "--codec", workspace["codec"],
                                         "--model", str(root / "m.drrm"), "--in", str(empty),
                                         "--out", str(root / "s")]),
        ("model of 64 codes, compress", ["compress", "--codec", workspace["codec"],
                                         "--model", wrong_size_model(root),
                                         "--in", workspace["data"], "--out", str(root / "s")]),
        ("pretrain-codec --lr nan", pretrain + ["--lr", "nan"]),
        ("pretrain-codec --epochs -1", pretrain + ["--epochs", "-1"]),
    ] + [(f"config {line}", ["run-phases", "--config", str(path), "--out", str(root / "r.txt")])
         for line, path in settings.items()]


def version_999(body):
    """Set a stream body's model version, its leading varint, to 999."""
    _, end = read_uvarint(body, 0, 32, "model version")
    body[:end] = uvarint(999, 32, "model version")


def zero_geometry_codec(path, field):
    """Write a sealed codec file whose geometry field `field` is 0 and whose
    float32 weights fill exactly what its geometry and frozen flag imply, so
    its length is right."""
    g = {"patch": 4, "pool": 2, "channels": 3, "codebook_size": 16, "embed_dim": 6, field: 0}
    p, d, k = g["patch"] ** 2 * g["channels"], g["embed_dim"], g["codebook_size"]
    weights = 2 * d * p + p + 2 * d * d + 3 * d + 2 * k * d
    with open(path, "wb") as f:
        f.write(seal(CODEC_MAGIC, CODEC_FORMAT_VERSION,
                     struct.pack("<IIIIIBd", *g.values(), 1, 0.25) + bytes(4 * weights)))


def frozen_flag_7(body):
    body[struct.calcsize("<IIIII")] = 7  # the frozen flag, which must be 0 or 1


def top_version_flipped(body):
    body[1] ^= 0x01  # bit 0 of the top level's version, after the record count


def old_layout_stream(data):
    """A stream file in the layout before the checked container: the DRRS
    header (model version u32, symbol count u64), then the coder payload
    under its own DRRB header."""
    stream = deserialize_stream(data)
    return (b"DRRS" + struct.pack("<IQ", stream.model_version, stream.symbol_count)
            + b"DRRB" + struct.pack("<HQ", 2, len(stream.payload)) + stream.payload)


def format_2_codec(data):
    """A frozen codec file in codec format 2, which stored every codec's
    weights as float64."""
    codec = deserialize_codec(data)
    geometry = data[10:10 + struct.calcsize("<IIIIIBd")]
    return seal(CODEC_MAGIC, 2, geometry + b"".join(
        getattr(codec, name).astype("<f8").tobytes() for name in codec.weight_fields()))


def old_layout(data):
    """A codec or model file in the layout before the checked container:
    magic, format version 1, then the body."""
    return data[:4] + struct.pack("<H", 1) + data[10:]


def corrupt_input_cases(workspace, compressed, root):
    """(name, argv) pairs of corrupt artifacts that must exit 3, each with its
    inputs written under `root`."""
    decompress = ["decompress", "--codec", workspace["codec"], "--model", compressed["model"],
                  "--out", str(root / "recon"), "--in"]
    cases = [(f"set with {name}, decompress",
              decompress + [bad_set(compressed, root / f"set_{i}.drrz", edit)])
             for i, (name, (edit, _)) in enumerate(sorted(BAD_SETS.items()))]
    for field in ("patch", "pool", "channels", "codebook_size", "embed_dim"):
        codec = str(root / f"zero_{field}.drrc")
        zero_geometry_codec(codec, field)
        cases += [
            (f"{field} 0, compress", ["compress", "--codec", codec, "--model",
                                      str(root / "m.drrm"), "--in", workspace["data"],
                                      "--out", str(root / "s")]),
            (f"{field} 0, inspect", ["inspect", "--file", codec]),
        ]
    with open(workspace["codec"], "rb") as f:
        data = f.read()
    codec = root / "frozen_7.drrc"
    codec.write_bytes(resealed(data, frozen_flag_7))
    cases.append(("frozen flag 7, inspect", ["inspect", "--file", str(codec)]))
    cases.append(("codec of 4 codes, decompress",
                  ["decompress", "--codec", wrong_size_codec(root), "--model", compressed["model"],
                   "--in", compressed["out"], "--out", str(root / "recon")]))
    stream = root / "old_layout.drrs"
    with open(compressed["out"], "rb") as f:
        stream.write_bytes(old_layout_stream(stream_set_fields(f.read())["entries"][0]["stream"]))
    cases += [("stream in the old layout, decompress",
               decompress + [bad_set(compressed, root / "old_layout.drrz",
                                     entry_field(stream=stream.read_bytes()))]),
              ("stream in the old layout, inspect", ["inspect", "--file", str(stream)])]
    codec, model = root / "old_layout.drrc", root / "old_layout.drrm"
    with open(workspace["codec"], "rb") as f:
        codec.write_bytes(old_layout(f.read()))
    with open(compressed["model"], "rb") as f:
        model.write_bytes(old_layout(f.read()))
    format_2 = root / "format_2.drrc"
    with open(workspace["codec"], "rb") as f:
        format_2.write_bytes(format_2_codec(f.read()))
    cases += [("codec in the old layout, inspect", ["inspect", "--file", str(codec)]),
              ("codec in format 2, inspect", ["inspect", "--file", str(format_2)]),
              ("model in the old layout, decompress",
               ["decompress", "--codec", workspace["codec"], "--model", str(model),
                "--in", compressed["out"], "--out", str(root / "recon")])]
    model = root / "versions_1_0.drrm"
    with open(compressed["model"], "rb") as f:
        model.write_bytes(resealed(f.read(), top_version_flipped))
    cases.append(("model levels at versions 1 and 0, decompress",
                  ["decompress", "--codec", workspace["codec"], "--model", str(model),
                   "--in", compressed["out"], "--out", str(root / "recon")]))
    return cases


def flip_byte(path, offset, mask):
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


class TestBadInput:
    def test_each_case_is_usage(self, workspace, tmp_path, capsys):
        for name, argv in bad_input_cases(workspace, tmp_path):
            assert main(argv) == EXIT_USAGE, name
            assert "error:" in capsys.readouterr().err, name
        assert not (tmp_path / "m.drrm").exists()

    @pytest.mark.parametrize("source", ["../evil.img", "{tmp}/evil.img", "sub/evil.img",
                                        "..", ""])
    def test_decompress_writes_only_inside_out(self, workspace, compressed, tmp_path,
                                               capsys, source):
        source = source.format(tmp=tmp_path).encode()
        streams = bad_set(compressed, tmp_path / "set.drrz", entry_field(name=source))
        out = tmp_path / "deep" / "recon"
        code = main(["decompress", "--codec", workspace["codec"],
                     "--model", compressed["model"], "--in", streams, "--out", str(out)])
        assert code == EXIT_CORRUPT
        assert "not a plain file name" in capsys.readouterr().err
        assert not (tmp_path / "deep").exists()
        assert not (tmp_path / "evil.img").exists()

    def test_subprocess_sweep_exits_cleanly(self, workspace, compressed, tmp_path):
        cases = bad_input_cases(workspace, tmp_path)
        streams = bad_set(compressed, tmp_path / "set.drrz", entry_field(name=b"../evil.img"))
        cases.append(("source ../evil.img",
                      ["decompress", "--codec", workspace["codec"],
                       "--model", compressed["model"], "--in", streams,
                       "--out", str(tmp_path / "out" / "recon")]))
        for name, argv in cases:
            proc = subprocess.run([sys.executable, "-m", "drr.cli", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode in (EXIT_USAGE, EXIT_IO, EXIT_CORRUPT), name
            assert "Traceback" not in proc.stderr, name
        assert not (tmp_path / "m.drrm").exists()
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "evil.img").exists()


class TestCorruptInput:
    def test_each_case_is_corrupt(self, workspace, compressed, tmp_path, capsys):
        for name, argv in corrupt_input_cases(workspace, compressed, tmp_path):
            assert main(argv) == EXIT_CORRUPT, name
            assert "corrupt data" in capsys.readouterr().err, name
        assert not (tmp_path / "m.drrm").exists()
        assert not (tmp_path / "recon").exists()

    def test_subprocess_sweep_exits_cleanly(self, workspace, compressed, tmp_path):
        for name, argv in corrupt_input_cases(workspace, compressed, tmp_path):
            proc = subprocess.run([sys.executable, "-m", "drr.cli", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == EXIT_CORRUPT, name
            assert "Traceback" not in proc.stderr, name


SMALL_RUN_CONFIG = """
total_classes = 4
initial_classes = 2
n_phases = 1
classes_per_phase = 2
train_per_class = 6
test_per_class = 4
side = 8
codebook_size = 16
embed_dim = 6
codec_epochs = 30
epochs = 5
alphabets = 4,3
block_len = 4
fit_iterations = 1
exemplars_per_class = 4
"""


def rejected_cases(workspace, compressed, root):
    """(name, argv) pairs that must exit 1: negative seeds, a codec whose
    training diverges, nonpositive image sides or channel counts and a
    config that is not UTF-8, with their inputs written under `root`."""
    configs = {"seed": "seed = -1", "data_seed": "data_seed = -2",
               "codec_lr": "codec_lr = 10000", "side": "side = -4", "channels": "channels = -1"}
    for key, line in configs.items():
        (root / f"{key}.conf").write_text(SMALL_RUN_CONFIG + line + "\n")
    (root / "non_utf8.conf").write_bytes(SMALL_RUN_CONFIG.encode() + b"mode = drr\x80\n")
    compress = ["compress", "--codec", workspace["codec"], "--in", workspace["data"],
                "--out", str(root / "s"), "--seed", "-1"]
    return [
        ("compress --seed -1, new model", compress + ["--model", str(root / "m.drrm"),
                                                      "--alphabets", "4,3"]),
        ("compress --seed -1, saved model", compress + ["--model", compressed["model"]]),
        ("pretrain-codec --seed -1", ["pretrain-codec", "--data", workspace["data"],
                                      "--out", str(root / "c.drrc"), "--epochs", "1",
                                      "--seed", "-1"]),
        ("pretrain-codec diverges", ["pretrain-codec", "--data", workspace["data"],
                                     "--out", str(root / "c.drrc"), "--epochs", "30",
                                     "--lr", "10000", "--codebook-size", "16",
                                     "--embed-dim", "6"]),
    ] + [(f"run-phases {line}", ["run-phases", "--config", str(root / f"{key}.conf"),
                                 "--out", str(root / "r.txt")])
         for key, line in [*configs.items(), ("non_utf8", "config not UTF-8")]]


class TestRejectedRuns:
    def test_each_case_is_usage(self, workspace, compressed, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            for name, argv in rejected_cases(workspace, compressed, tmp_path):
                assert main(argv) == EXIT_USAGE, name
                assert "error:" in capsys.readouterr().err, name
        assert not (tmp_path / "c.drrc").exists()
        assert not (tmp_path / "r.txt").exists()

    def test_subprocess_exits_without_traceback(self, workspace, compressed, tmp_path):
        for name, argv in rejected_cases(workspace, compressed, tmp_path):
            proc = subprocess.run([sys.executable, "-m", "drr.cli", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == EXIT_USAGE, name
            assert "Traceback" not in proc.stderr, name


# The acceptance-13 run-phases config; with `seed = 24` its codec training
# diverges to non-finite weights.
DIVERGING_RUN_CONFIG = """
mode = ib-drr
ib_weight = 0.5
seed = 24
epochs = 200
lr = 0.08
batch_size = 16
hidden_dim = 24
total_classes = 8
initial_classes = 4
n_phases = 2
classes_per_phase = 2
train_per_class = 14
test_per_class = 8
side = 16
channels = 3
data_seed = 123
patch = 4
pool = 2
codebook_size = 32
embed_dim = 8
codec_epochs = 300
codec_lr = 0.005
beta = 0.25
alphabets = 6,4
block_len = 8
precision = 12
initial_bits = 256
fit_iterations = 3
exemplars_per_class = 10
"""


def test_diverging_codec_prints_only_the_error_line(tmp_path):
    config = tmp_path / "diverge.conf"
    config.write_text(DIVERGING_RUN_CONFIG)
    proc = subprocess.run([sys.executable, "-m", "drr.cli", "run-phases",
                           "--config", str(config), "--out", str(tmp_path / "r.txt")],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: codec training diverged to non-finite weights; lower the learning rate"]
    assert not (tmp_path / "r.txt").exists()
