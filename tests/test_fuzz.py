"""Fuzz suite for the four binary kinds (codec, model pair, stream and
stream-set files), the buffer directory's text index and results files.

Each file gets bit 0 and bit 7 flipped at its first 64 bytes and at 300
seeded positions, and is cut at about 40 seeded lengths.  Every case must
raise DataCorruptionError: never load as a different artifact, never fail
with another error.  The container's CRC32 catches every single-bit error
in a body, and a flip in the container's own header breaks its magic, its
version or the checksum it holds.  Through the CLI, `drr inspect` on each
kind of corrupt file and `drr decompress` with a corrupt codec, model,
stream or stream set exit 3 with no traceback.  A file whose magic is
broken names no kind, so `drr inspect` calls it unrecognized (exit 1), as
any other bytes.  Past the checksum (the body edited and resealed), damage
to a stream's record and the head of its payload reads back the same grid
or raises DataCorruptionError, and the CLI exits 3 on it with no
traceback.  The packed array of a codec or model file, cut short,
followed by a byte, swapped for 10 MB of zeros or under a header that
claims an alphabet of 2**31, raises DataCorruptionError at once, without
inflating more than one byte past what its header implies.

A stream-set file gets bit 0 and bit 7 flipped at every byte and is cut at
every fifth length, and `drr decompress` exits 3 on every case.  The
buffer's index gets the same damage, and raises DataCorruptionError or
reads back the same classes.  A `run-phases` results file gets it too, and
`drr report` on it exits 3 or prints the same table, except where a figure
the summary does not check changes: neither text file has a checksum.
"""

import contextlib
import io
import math
import re
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    edited_stream_set,
    packed,
    packed_split,
    plain_body,
    resealed,
    stream_set_body,
    stream_set_fields,
)
from drr import cli
from drr.bits_back import FitConfig, deserialize_stream, serialize_stream
from drr.cli import EXIT_CORRUPT, EXIT_OK, EXIT_USAGE, main, read_stream_set, write_image
from drr.container import seal, unseal
from drr.errors import DataCorruptionError
from drr.replay_store import LatentModelPair, ReplayBuffer, compress_shelves, decompress_grid
from drr.vq_codec import (
    CodecConfig,
    deserialize_codec,
    freeze,
    init_codec_params,
    serialize_codec,
    weight_shapes,
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


TOY_PAIR = LatentModelPair.seeded(32, (6, 4), 8, 0).quantized(12)


def toy_codecs():
    """A frozen codec's file, float32 weights, then the unfrozen codec's,
    float64 weights."""
    codec = init_codec_params(CodecConfig(
        patch=4, pool=2, channels=3, codebook_size=32, embed_dim=8, seed=0))
    return [serialize_codec(freeze(codec)), serialize_codec(codec)]


def toy_streams():
    rng = np.random.default_rng(3)
    shelves = [(rng.integers(0, 32, (1, 2, 2)).astype(np.int32),
                rng.integers(0, 32, (1, 4, 4)).astype(np.int32)) for _ in range(4)]
    return [serialize_stream(stream) for [stream] in
            compress_shelves(shelves, TOY_PAIR, [[[5, i]] for i in range(len(shelves))])]


def toy_sets():
    """A stream set of the toy streams, as four 16x16 images would give."""
    entries = [{"name": f"{i}.img".encode(), "height": 4, "width": 4, "stream": stream}
               for i, stream in enumerate(toy_streams())]
    return [seal(b"DRRZ", 2, stream_set_body({"precision": 12, "seeded": 32,
                                              "entries": entries}))]


# kind -> (the files, their reader)
KINDS = {
    "codec": (toy_codecs, deserialize_codec),
    "models": (lambda: [TOY_PAIR.serialize()], LatentModelPair.deserialize),
    "stream": (toy_streams, deserialize_stream),
    "set": (toy_sets, read_stream_set),
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
    ("codec", "codec", b"DRRC", 4), ("models", "model snapshot", b"DRRM", 4),
    ("stream", "stream", b"DRRS", 4), ("set", "stream set", b"DRRZ", 2)])
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


def record_edits():
    """Body edits for `resealed`: bit 0 or bit 7 flipped at each of the
    first 9 bytes (the two one-byte varints, k and the state), and the body
    cut at each of those lengths."""
    def flip(position, bit):
        def edit(body):
            body[position] ^= 1 << bit
        return edit

    def cut(length):
        def edit(body):
            del body[length:]
        return edit

    return [flip(position, bit) for position in range(9) for bit in (0, 7)] + [
        cut(length) for length in range(9)]


def test_record_damage_under_a_valid_checksum_decodes_identically_or_raises():
    # The checksum hides every flip from the record's own checks; with it
    # made valid again, bit 0 or bit 7 flipped in each of the record's two
    # varints and the payload's k and state, and the body cut at each of
    # those lengths, reads and decodes to the same grid or raises
    # DataCorruptionError.
    for data in toy_streams():
        good = decompress_grid(deserialize_stream(data), TOY_PAIR, (2, 2), (4, 4))
        assert data[10:12] == bytes([0, 20])  # model version 0, 20 symbols

        counts = {"corrupt": 0, "identical": 0}
        for edit in record_edits():
            try:
                grid = decompress_grid(deserialize_stream(resealed(data, edit)), TOY_PAIR,
                                       (2, 2), (4, 4))
            except DataCorruptionError:
                counts["corrupt"] += 1
                continue
            assert grid == good
            counts["identical"] += 1
        assert counts == {"corrupt": 27, "identical": 0}


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
    model, streams = root / "models.drrm", root / "set.drrz"
    assert main(["compress", "--codec", str(codec), "--model", str(model), "--in", str(images),
                 "--out", str(streams), "--alphabets", "3,2", "--block-len", "2",
                 "--fit-iterations", "1"]) == EXIT_OK
    stream = root / "stream.drrs"
    stream.write_bytes(stream_set_fields(streams.read_bytes())["entries"][0]["stream"])
    return {"codec": codec, "model": model, "set": streams, "stream": stream, "root": root}


def sources(stream_set):
    return {name: stream_set[name] for name in ("codec", "model", "stream", "set")}


def overlong_version(body):
    body[0:1] = b"\x81\x00"  # model version 1 spelled in two bytes


def count_2_64(body):
    body[1:2] = b"\x80" * 9 + b"\x02"


def cut_in_count(body):
    body[1:] = b"\x80"


def damaged_files(stream_set, root):
    """Per artifact of the stream set, under `root`, a copy with one bit
    flipped past its magic, in the version, the checksum or the body, and a
    copy cut in half; then three streams damaged past a valid checksum (a
    model version spelled long, a symbol count of 2**64, a body cut inside
    the count); as (artifact, path)."""
    out = []
    for offset, (name, source) in zip((5, 8, 20, 12), sources(stream_set).items()):
        data = source.read_bytes()
        flipped = bytearray(data)
        flipped[offset] ^= 1
        for label, bad in (("flip", bytes(flipped)), ("cut", data[:len(data) // 2])):
            path = root / f"{name}_{label}{source.suffix}"
            path.write_bytes(bad)
            out.append((name, path))
    data = sources(stream_set)["stream"].read_bytes()
    assert data[10] == 1 and data[11] < 0x80  # two one-byte varints; a fitted model is version 1
    for edit in (overlong_version, count_2_64, cut_in_count):
        path = root / f"stream_{edit.__name__}.drrs"
        path.write_bytes(resealed(data, edit))
        out.append(("stream", path))
    return out


def cli_cases(stream_set, root):
    """(name, argv) of every CLI call on a damaged file: `inspect` of it, and
    `decompress` with it in place of its artifact."""
    cases = []
    for name, path in damaged_files(stream_set, root):
        args = {key: str(stream_set[key]) for key in ("codec", "model", "set")}
        if name == "stream":
            # The damaged stream in a set of its own, resealed.
            args["set"] = str(root / f"set_{path.stem}.drrz")
            with open(args["set"], "wb") as f:
                f.write(edited_stream_set(stream_set["set"].read_bytes(), lambda fields: (
                    fields["entries"][0].update(stream=path.read_bytes()))))
        else:
            args[name] = str(path)
        cases += [
            (f"inspect {path.name}", ["inspect", "--file", str(path)]),
            (f"decompress with {path.name}",
             ["decompress", "--codec", args["codec"], "--model", args["model"],
              "--in", args["set"], "--out", str(root / "recon")]),
        ]
    return cases


def test_cli_exits_3_on_every_damaged_file(stream_set, tmp_path, capsys):
    assert main(["decompress", "--codec", str(stream_set["codec"]), "--model",
                 str(stream_set["model"]), "--in", str(stream_set["set"]),
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
    # One process per kind, decompress with its bit-flipped file (the
    # stream set's among them), and two with a stream damaged past its
    # checksum (version spelled long, body cut inside the count).
    for name, argv in cli_cases(stream_set, tmp_path)[1::4]:
        proc = subprocess.run([sys.executable, "-m", "drr.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_CORRUPT, name
        assert proc.stderr.startswith("corrupt data: "), name
        assert "Traceback" not in proc.stderr, name


# -- packed bodies ----------------------------------------------------------------

def adversarial_packed(data):
    """(name, file, bytes its header implies, message) of four damages to
    the packed array of codec or model file `data`, resealed: the deflate
    stream cut in half, a byte after its end, a stream of 10 MB of zeros,
    and the header's codebook size or observation alphabet set to 2**31."""
    magic, plain = bytes(data[:4]), plain_body(data)
    head, width = packed_split(magic, plain)
    implied = len(plain) - head

    def cut(body):
        del body[head + (len(body) - head) // 2:]

    def bomb(body):
        body[head:] = packed(bytes(10 << 20), width)

    def huge_alphabet(body):
        # The codec's fourth geometry field; the first model's record field at 6.
        at = 12 if magic == b"DRRC" else 2 + 6
        body[at:at + 4] = (1 << 31).to_bytes(4, "little")

    if magic == b"DRRC":
        patch, _, channels, _, d = struct.unpack_from("<IIIII", plain)
        huge = (4 * sum(math.prod(shape) for shape in weight_shapes(
            patch * patch * channels, d, 1 << 31).values()),
            f"codec weights inflate to {implied} bytes, not the ")
    else:
        huge = 0, "cannot code the models' alphabet of 2147483648 symbols"
    return [("cut", resealed(data, cut), implied, "deflate stream cut short"),
            ("trailing", resealed(data, lambda body: body.append(0)), implied,
             "trailing bytes after the deflate stream"),
            ("bomb", resealed(data, bomb), implied, f"inflate past the {implied} bytes"),
            ("alphabet 2**31", resealed(data, huge_alphabet), *huge)]


@pytest.mark.parametrize("kind", ["codec", "model"])
def test_packed_body_damage_fails_fast_and_inflates_no_more_than_its_header_implies(
        stream_set, kind, inflated):
    # Each damage raises DataCorruptionError in well under a second, and no
    # read inflates more than one byte past what the header implies: the
    # 10 MB stream stops there, and a model record claiming an alphabet of
    # 2**31 fails its precision check before any inflate.
    read = deserialize_codec if kind == "codec" else LatentModelPair.deserialize
    for name, bad, implied, message in adversarial_packed(stream_set[kind].read_bytes()):
        inflated.clear()
        start = time.perf_counter()
        with pytest.raises(DataCorruptionError, match=re.escape(message)):
            read(bad)
        assert time.perf_counter() - start < 1.0, name
        assert sum(inflated) <= implied + 1, name
        assert inflated or name == "alphabet 2**31" and kind == "model", name


def test_cli_exits_3_on_every_damaged_packed_body(stream_set, tmp_path, capsys):
    # `drr inspect` of each damaged codec and model file, and `drr
    # decompress` with it in place of its artifact; a subprocess for the
    # 10 MB streams shows no traceback.
    for kind in ("codec", "model"):
        for name, bad, _, _ in adversarial_packed(stream_set[kind].read_bytes()):
            path = tmp_path / f"{kind} {name}{stream_set[kind].suffix}"
            path.write_bytes(bad)
            args = {key: str(stream_set[key]) for key in ("codec", "model")}
            args[kind] = str(path)
            for argv in (["inspect", "--file", str(path)],
                         ["decompress", "--codec", args["codec"], "--model", args["model"],
                          "--in", str(stream_set["set"]), "--out", str(tmp_path / "recon")]):
                assert main(argv) == EXIT_CORRUPT, (kind, name, argv[0])
                assert capsys.readouterr().err.startswith("corrupt data: "), (kind, name)
            if name == "bomb":
                proc = subprocess.run([sys.executable, "-m", "drr.cli", "inspect", "--file",
                                       str(path)], capture_output=True, text=True)
                assert proc.returncode == EXIT_CORRUPT, kind
                assert proc.stderr.startswith("corrupt data: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "recon").exists()


# -- stream sets and the buffer index ------------------------------------------

def index_damage(data):
    """`data` with bit 0 or bit 7 flipped at every byte, and cut at every
    fifth length."""
    for position in range(len(data)):
        for bit in (0, 7):
            flipped = bytearray(data)
            flipped[position] ^= 1 << bit
            yield bytes(flipped)
    for length in range(0, len(data), 5):
        yield data[:length]


def read_dir(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture(scope="module")
def six_image_set(stream_set):
    """Six 8x8 images compressed under the stream set's codec and models,
    and the images `drr decompress` writes back from them."""
    root = stream_set["root"] / "six"
    images = root / "images"
    images.mkdir(parents=True)
    rng = np.random.default_rng(8)
    for i in range(6):
        write_image(str(images / f"img_{i:03d}.img"), rng.uniform(0, 1, (8, 8, 3)))
    codec, model = str(stream_set["codec"]), str(stream_set["model"])
    streams = root / "set.drrz"
    assert main(["compress", "--codec", codec, "--model", model, "--in", str(images),
                 "--out", str(streams)]) == EXIT_OK
    decompress = ["decompress", "--codec", codec, "--model", model, "--in"]
    assert main(decompress + [str(streams), "--out", str(root / "good")]) == EXIT_OK
    return {"decompress": decompress, "data": streams.read_bytes(),
            "good": read_dir(root / "good")}


def decompress_outcomes(six_image_set, files, path, out, capsys):
    """Counts of what `drr decompress` of each of `files`, written in turn
    to `path`, does: exit 3 (`corrupt`), write the same images under the
    same names (`identical`), one of them under a fresh name (`renamed`),
    or only the images of the first entries (`fewer`).  Anything else
    fails the test."""
    good = six_image_set["good"]
    argv = six_image_set["decompress"] + [str(path), "--out", str(out)]
    counts = {"corrupt": 0, "identical": 0, "renamed": 0, "fewer": 0}
    for bad in files:
        path.write_bytes(bad)
        code = main(argv)
        err = capsys.readouterr().err
        if code == EXIT_CORRUPT:
            assert err.startswith("corrupt data: "), err
            counts["corrupt"] += 1
            continue
        assert code == EXIT_OK, (bad, err)
        written = read_dir(out)
        shutil.rmtree(out)
        if written == good:
            counts["identical"] += 1
        elif set(written) < set(good):
            assert written == {name: good[name] for name in sorted(good)[:len(written)]}, bad
            counts["fewer"] += 1
        else:
            [old], [new] = set(good) - set(written), set(written) - set(good)
            assert written.pop(new) == good[old], bad
            assert written == {name: image for name, image in good.items() if name != old}, bad
            counts["renamed"] += 1
    return counts


def test_damaged_stream_set_never_decodes_silently(six_image_set, tmp_path, capsys):
    # Every flip and every cut of the set file exits 3: its checksum covers
    # the source names, the options and the grids, so no damaged name
    # writes the right image under a new name.
    data = six_image_set["data"]
    assert len(data) == 237
    counts = decompress_outcomes(six_image_set, index_damage(data), tmp_path / "set.drrz",
                                 tmp_path / "out", capsys)
    assert counts == {"corrupt": 2 * 237 + 48, "identical": 0, "renamed": 0, "fewer": 0}


def test_stream_set_cut_under_a_valid_checksum_keeps_whole_entries(six_image_set, tmp_path,
                                                                   capsys):
    # With the checksum made valid again, every body cut exits 3: in a
    # field, in a stream's own container, or, between two entries, short of
    # the stored image count.
    def cut(length):
        def edit(body):
            del body[length:]
        return edit

    data = six_image_set["data"]
    counts = decompress_outcomes(
        six_image_set, (resealed(data, cut(length)) for length in range(len(data) - 10)),
        tmp_path / "set.drrz", tmp_path / "out", capsys)
    assert counts == {"corrupt": len(data) - 10, "identical": 0, "renamed": 0, "fewer": 0}


@pytest.fixture(scope="module")
def toy_buffer(tmp_path_factory):
    """A saved three-class buffer of four 8x8 exemplars a class, and its
    reconstructions."""
    directory = tmp_path_factory.mktemp("buffer")
    codec = freeze(init_codec_params(CodecConfig(patch=4, pool=2, channels=3, codebook_size=8,
                                                 embed_dim=4, seed=1)))
    buffer = ReplayBuffer(codec, LatentModelPair.seeded(8, (3, 2), 2, 0),
                          exemplars_per_class=4, seed=2)
    rng = np.random.default_rng(9)
    buffer.ingest_phase({label: rng.uniform(0, 1, (6, 8, 8, 3)) for label in range(3)},
                        FitConfig(iterations=1))
    buffer.save(str(directory))
    return directory, buffer.reconstruct_all()


def test_damaged_buffer_index_never_loads_silently(toy_buffer, tmp_path):
    # Every damaged index raises DataCorruptionError, on load or on the
    # read, or reads back every class exactly.  The 19 identical cases are
    # 17 line ends turned into another line break, a flip of seed=2, an
    # option the read path does not use, and the cut of the last line end;
    # a flip of exemplars_per_class=4 to 5 reads a class line where a
    # stream line should be.
    source, good = toy_buffer
    directory = tmp_path / "buffer"
    shutil.copytree(source, directory)
    data = (directory / "index.txt").read_bytes()
    counts = {"corrupt": 0, "identical": 0}
    for bad in index_damage(data):
        (directory / "index.txt").write_bytes(bad)
        try:
            recon = ReplayBuffer.load(str(directory)).reconstruct_all()
        except DataCorruptionError:
            counts["corrupt"] += 1
            continue
        assert list(recon) == list(good), bad
        assert all(np.array_equal(recon[label], good[label]) for label in good), bad
        counts["identical"] += 1
    assert len(data) == 751
    assert counts == {"corrupt": 1634, "identical": 19}


def test_damaged_stream_set_subprocess_prints_no_traceback(six_image_set, tmp_path):
    # A set cut after its first entry, and one whose img_001 is renamed to
    # img_000 under a valid checksum.
    data = six_image_set["data"]
    fields = stream_set_fields(data)
    first = 10 + len(stream_set_body({**fields, "entries": fields["entries"][:1]}))
    path = tmp_path / "set.drrz"
    for bad in (data[:first], edited_stream_set(
            data, lambda fields: fields["entries"][1].update(name=b"img_000.img"))):
        path.write_bytes(bad)
        proc = subprocess.run(
            [sys.executable, "-m", "drr.cli", *six_image_set["decompress"], str(path),
             "--out", str(tmp_path / "out")], capture_output=True, text=True)
        assert proc.returncode == EXIT_CORRUPT, bad
        assert proc.stderr.startswith("corrupt data: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


# -- results files ---------------------------------------------------------------

RESULTS_CONFIG = """\
total_classes = 4
initial_classes = 2
n_phases = 2
classes_per_phase = 1
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
def results_file(tmp_path_factory):
    """The results file of a three-phase `run-phases` on a small config."""
    root = tmp_path_factory.mktemp("results")
    (root / "run.conf").write_text(RESULTS_CONFIG)
    out = root / "results.txt"
    assert main(["run-phases", "--config", str(root / "run.conf"), "--out", str(out)]) == EXIT_OK
    return out.read_bytes()


def report(path):
    """(exit code, stdout, stderr) of `drr report` on `path`, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--results", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_damaged_results_file_never_reports_silently_wrong_totals(results_file, tmp_path,
                                                                  monkeypatch):
    # Every damaged file exits 3, or exits 0 with the same table, or exits 0
    # with a changed figure that no summary check covers (the first phase's
    # accuracy, a byte count, a class count); only the empty cut is a usage
    # error (exit 1), as test_report_empty_file_is_usage pins.  Any error
    # that is not a DrrError escapes `main` and fails the test.  The sweep
    # shares one parser: building it is most of a `report` call.  Re-taken
    # for model format 3: the model and total byte counts shrank and the
    # last phase's net bits moved, so the file and the counts changed.
    # Re-taken for codec and model format 4: the model, codec and total
    # byte counts shrank with as many digits, so the file's length held,
    # and three flips of a total that changed its printed megabytes now
    # leave them as they were.
    assert len(results_file) == 1104
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    path = tmp_path / "results.txt"
    path.write_bytes(results_file)
    code, good, _ = report(path)
    assert code == EXIT_OK
    counts = {"corrupt": 0, "identical": 0, "changed": 0, "usage": 0}
    for bad in index_damage(results_file):
        path.write_bytes(bad)
        code, out, err = report(path)
        if code == EXIT_CORRUPT:
            assert err.startswith("corrupt data: "), err
            counts["corrupt"] += 1
        elif code == EXIT_USAGE:
            assert bad == b"", bad
            counts["usage"] += 1
        else:
            assert code == EXIT_OK, (bad, err)
            counts["identical" if out == good else "changed"] += 1
    assert counts == {"corrupt": 1604, "identical": 816, "changed": 8, "usage": 1}


def test_damaged_results_file_subprocess_prints_no_traceback(results_file, tmp_path):
    # A byte that is not UTF-8, the summary's `last` value changed, and a
    # cut inside the last phase line.
    lines = results_file.splitlines(keepends=True)
    non_utf8 = bytearray(results_file)
    non_utf8[3] ^= 0x80
    for bad in (bytes(non_utf8), results_file.replace(b" last=", b" last=1"),
                b"".join(lines[:-2]) + lines[-2][:40]):
        path = tmp_path / "results.txt"
        path.write_bytes(bad)
        proc = subprocess.run([sys.executable, "-m", "drr.cli", "report", "--results", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_CORRUPT, bad
        assert proc.stderr.startswith("corrupt data: ") and "Traceback" not in proc.stderr
