"""Fuzz suite for the three binary kinds: codec, model pair and stream files.

Each file gets bit 0 and bit 7 flipped at its first 64 bytes and at 300
seeded positions, and is cut at about 40 seeded lengths.  Every case must
raise DataCorruptionError: never load as a different artifact, never fail
with another error.  The container's CRC32 catches every single-bit error
in a body, and a flip in the container's own header breaks its magic, its
version or the checksum it holds.  Through the CLI, `drr inspect` on each
kind of corrupt file and `drr decompress` with a corrupt codec, model or
stream exit 3 with no traceback.  A file whose magic is broken names no
kind, so `drr inspect` calls it unrecognized (exit 1), as any other bytes.
"""

import shutil
import subprocess
import sys

import numpy as np
import pytest

from drr.bits_back import deserialize_stream, serialize_stream
from drr.cli import EXIT_CORRUPT, EXIT_OK, EXIT_USAGE, main, write_image
from drr.container import seal, unseal
from drr.errors import DataCorruptionError
from drr.replay_store import LatentModelPair, compress_shelves
from drr.vq_codec import (
    CodecConfig,
    deserialize_codec,
    freeze,
    init_codec_params,
    serialize_codec,
)

FLIP_POSITIONS = 300
CUT_LENGTHS = 40


def flips(data, seed):
    """`data` with bit 0 or bit 7 flipped at each of its first 64 bytes and
    at seeded positions."""
    rng = np.random.default_rng(seed)
    positions = set(range(min(64, len(data)))) | set(
        rng.integers(0, len(data), FLIP_POSITIONS).tolist())
    for position in sorted(positions):
        for bit in (0, 7):
            flipped = bytearray(data)
            flipped[position] ^= 1 << bit
            yield bytes(flipped)


def cuts(data, seed):
    """`data` cut at seeded lengths, always including the empty file, the
    container's header alone and one byte short."""
    rng = np.random.default_rng(seed)
    lengths = {0, 10, len(data) - 1} | set(rng.integers(0, len(data), CUT_LENGTHS).tolist())
    return [data[:n] for n in sorted(lengths)]


TOY_PAIR = LatentModelPair.seeded(32, (6, 4), 8, 0)


def toy_codec():
    return serialize_codec(freeze(init_codec_params(CodecConfig(
        patch=4, pool=2, channels=3, codebook_size=32, embed_dim=8, seed=0))))


def toy_streams():
    rng = np.random.default_rng(3)
    shelves = [(rng.integers(0, 32, (1, 2, 2)).astype(np.int32),
                rng.integers(0, 32, (1, 4, 4)).astype(np.int32)) for _ in range(4)]
    return [serialize_stream(stream) for [stream] in
            compress_shelves(shelves, TOY_PAIR, [[[5, i]] for i in range(len(shelves))])]


# kind -> (the files, their reader)
KINDS = {
    "codec": (lambda: [toy_codec()], deserialize_codec),
    "models": (lambda: [TOY_PAIR.serialize()], LatentModelPair.deserialize),
    "stream": (toy_streams, deserialize_stream),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("damage", [flips, cuts])
def test_every_damaged_file_raises_data_corruption(kind, damage):
    make, read = KINDS[kind]
    for seed, data in enumerate(make()):
        read(data)  # the undamaged file reads
        cases = 0
        for bad in damage(data, seed):
            with pytest.raises(DataCorruptionError):
                read(bad)
            cases += 1
        assert cases


@pytest.mark.parametrize("kind, what, magic, version", [
    ("codec", "codec", b"DRRC", 2), ("models", "model snapshot", b"DRRM", 2),
    ("stream", "stream", b"DRRS", 3)])
def test_each_container_field_is_checked(kind, what, magic, version):
    # Each kind writes its own magic and format version, and its reader
    # rejects each field of the container on its own: another version under
    # a valid checksum, another kind's magic, a wrong checksum, a short file.
    make, read = KINDS[kind]
    data = make()[0]
    assert data[:6] == magic + version.to_bytes(2, "little")
    body = unseal(data, magic, version, what)
    for other in (version - 1, version + 1):
        with pytest.raises(DataCorruptionError,
                           match=f"unsupported {what} format version {other}, expected {version}"):
            read(seal(magic, other, bytes(body)))
    with pytest.raises(DataCorruptionError, match=f"bad {what} magic b'DRRX'"):
        read(seal(b"DRRX", version, bytes(body)))
    with pytest.raises(DataCorruptionError, match=f"{what} checksum mismatch"):
        read(data[:6] + bytes(4) + data[10:])
    with pytest.raises(DataCorruptionError, match=f"{what} file is 9 bytes"):
        read(data[:9])


@pytest.fixture(scope="module")
def stream_set(tmp_path_factory):
    """A codec, a fitted model pair and a compressed two-image stream set."""
    root = tmp_path_factory.mktemp("fuzz")
    images = root / "images"
    images.mkdir()
    rng = np.random.default_rng(7)
    for i in range(2):
        write_image(str(images / f"{i}.img"), rng.uniform(0, 1, (8, 8, 3)))
    codec = root / "codec.drrc"
    codec.write_bytes(serialize_codec(freeze(init_codec_params(CodecConfig(
        patch=4, pool=2, channels=3, codebook_size=8, embed_dim=4, seed=1)))))
    model, streams = root / "models.drrm", root / "streams"
    assert main(["compress", "--codec", str(codec), "--model", str(model), "--in", str(images),
                 "--out", str(streams), "--alphabets", "3,2", "--block-len", "2",
                 "--fit-iterations", "1"]) == EXIT_OK
    return {"codec": codec, "model": model, "streams": streams, "root": root}


def sources(stream_set):
    return {"codec": stream_set["codec"], "model": stream_set["model"],
            "stream": stream_set["streams"] / "stream_0000.drrs"}


def damaged_files(stream_set, root):
    """Per artifact of the stream set, under `root`, a copy with one bit
    flipped past its magic, in the version, the checksum or the body, and a
    copy cut in half; as (artifact, path)."""
    out = []
    for offset, (name, source) in zip((5, 8, 20), sources(stream_set).items()):
        data = source.read_bytes()
        flipped = bytearray(data)
        flipped[offset] ^= 1
        for label, bad in (("flip", bytes(flipped)), ("cut", data[:len(data) // 2])):
            path = root / f"{name}_{label}{source.suffix}"
            path.write_bytes(bad)
            out.append((name, path))
    return out


def cli_cases(stream_set, root):
    """(name, argv) of every CLI call on a damaged file: `inspect` of it, and
    `decompress` with it in place of its artifact."""
    cases = []
    for name, path in damaged_files(stream_set, root):
        args = {"codec": str(stream_set["codec"]), "model": str(stream_set["model"])}
        streams = stream_set["streams"]
        if name == "stream":
            streams = root / f"streams_{path.stem}"
            shutil.copytree(stream_set["streams"], streams)
            shutil.copyfile(path, streams / "stream_0000.drrs")
        else:
            args[name] = str(path)
        cases += [
            (f"inspect {path.name}", ["inspect", "--file", str(path)]),
            (f"decompress with {path.name}",
             ["decompress", "--codec", args["codec"], "--model", args["model"],
              "--in", str(streams), "--out", str(root / "recon")]),
        ]
    return cases


def test_cli_exits_3_on_every_damaged_file(stream_set, tmp_path, capsys):
    assert main(["decompress", "--codec", str(stream_set["codec"]), "--model",
                 str(stream_set["model"]), "--in", str(stream_set["streams"]),
                 "--out", str(tmp_path / "good")]) == EXIT_OK
    for name, argv in cli_cases(stream_set, tmp_path):
        assert main(argv) == EXIT_CORRUPT, name
        assert "corrupt data" in capsys.readouterr().err, name
    assert not (tmp_path / "recon").exists()


def test_inspect_calls_a_broken_magic_unrecognized(stream_set, tmp_path, capsys):
    for name, source in sources(stream_set).items():
        for bit in (0, 7):
            data = bytearray(source.read_bytes())
            data[3] ^= 1 << bit
            path = tmp_path / f"{name}_magic_{bit}"
            path.write_bytes(bytes(data))
            assert main(["inspect", "--file", str(path)]) == EXIT_USAGE, (name, bit)
            assert "unrecognized format" in capsys.readouterr().err


def test_cli_subprocess_prints_no_traceback(stream_set, tmp_path):
    # One process per kind: decompress with its bit-flipped file.
    for name, argv in cli_cases(stream_set, tmp_path)[1::4]:
        proc = subprocess.run([sys.executable, "-m", "drr.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_CORRUPT, name
        assert proc.stderr.startswith("corrupt data: "), name
        assert "Traceback" not in proc.stderr, name
