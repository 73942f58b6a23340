"""Command-line entry point.

Commands: pretrain-codec, compress, decompress, run-phases, report,
inspect.  Exit codes: 0 success, 1 usage or invalid input, 2 I/O failure,
3 corrupt data.  All randomness is seeded, and every command writes
byte-identical outputs when rerun with the same flags.

Images travel in a minimal raw tensor format: height, width, channels as
little-endian u32, then one byte per channel value, row-major.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys

import numpy as np

from .bits_back import (
    DEFAULT_INITIAL_BITS,
    MODEL_MAGIC,
    STORED_FREQ,
    STREAM_MAGIC,
    FitConfig,
    deserialize_models,
    deserialize_stream,
    serialize_stream,
)
from .container import kind, read_uvarint, seal, unseal, uvarint
from .errors import (
    DataCorruptionError,
    DegenerateInputError,
    DrrError,
    InvalidInputError,
    StateError,
)
from .learner import (
    ExperimentConfig,
    LatentSpec,
    PhaseSchedule,
    TrainConfig,
    make_toy_dataset,
    run_experiment,
)
from .rans import DEFAULT_PRECISION, read_payload
from .replay_store import (
    LatentModelPair,
    check_plain_name,
    compress_shelves,
    decompress_shelves,
    format_megabytes,
    from_pixel_bytes,
    parse_positive_ints,
    parse_record,
    read_lines,
    to_pixel_bytes,
)
from .vq_codec import (
    CODEC_MAGIC,
    CodecConfig,
    code_shapes,
    decode_indices,
    deserialize_codec,
    encode_indices,
    freeze,
    mean_reconstruction_error,
    serialize_codec,
    stored_weight_dtype,
    train_codec,
)

IMAGE_SUFFIX = ".img"
IMAGE_HEAD = struct.Struct("<III")  # height, width, channels
# A stream set is one sealed file of `container.uvarint` fields: precision
# (8 bits), seeded bytes = initial_bits // 8 (32), the image count (32), then
# per image its UTF-8 source name (length: 16 bits), its bottom grid's
# height and width (32 each) and its stream file, byte for byte (length: 32).
STREAM_SET_MAGIC = b"DRRZ"
STREAM_SET_FORMAT_VERSION = 2
RESULTS_HEADER = "drr-results 1"
BAD_ALPHABETS = "bad alphabets {!r}; expected positive integers such as 16,8"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CORRUPT = 3


# -- raw tensor image files ------------------------------------------------------

def write_image(path: str, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3:
        raise InvalidInputError("images are written as (height, width, channels)")
    with open(path, "wb") as f:
        f.write(IMAGE_HEAD.pack(*image.shape) + to_pixel_bytes(image).tobytes())


def read_image(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < IMAGE_HEAD.size:
        raise DataCorruptionError(f"{path}: truncated image header")
    h, w, c = IMAGE_HEAD.unpack_from(data)
    if len(data) != IMAGE_HEAD.size + h * w * c:
        raise DataCorruptionError(f"{path}: size does not match header")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=IMAGE_HEAD.size)
    return from_pixel_bytes(pixels.reshape(h, w, c))


def _list_images(directory: str) -> list[str]:
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(IMAGE_SUFFIX))
    except OSError as exc:
        raise OSError(f"cannot list {directory}: {exc}") from exc
    if not names:
        raise InvalidInputError(f"no {IMAGE_SUFFIX} files in {directory}")
    return [os.path.join(directory, n) for n in names]


# -- pretrain-codec ----------------------------------------------------------------

def cmd_pretrain_codec(args) -> int:
    images = [read_image(p) for p in _list_images(args.data)]
    config = CodecConfig(patch=args.patch, pool=args.pool, channels=images[0].shape[-1],
                         codebook_size=args.codebook_size, embed_dim=args.embed_dim,
                         beta=args.beta, lr=args.lr, epochs=args.epochs, seed=args.seed)
    params = freeze(train_codec(images, config))
    with open(args.out, "wb") as f:
        f.write(serialize_codec(params))
    top, bottom = encode_indices(images, params)
    mse = mean_reconstruction_error(images, (top, bottom), params)
    print(f"trained codec on {len(images)} images; reconstruction mse {mse:.6f}")
    # Codes used per level, and the mse against predicting the mean pixel:
    # a ratio near 1 marks a collapsed codec.
    k = params.codebook_size
    variance = float(np.var(np.stack(images)))
    ratio = f"{mse / variance:.4f}" if variance > 0 else "n/a (constant pixels)"
    print(f"codec health: codes used top {np.unique(top).size}/{k}, "
          f"bottom {np.unique(bottom).size}/{k}; mse / pixel variance {ratio}")
    print(f"wrote {args.out} ({os.path.getsize(args.out)} bytes)")
    return EXIT_OK


# -- compress / decompress ----------------------------------------------------------

def _load_codec(path: str):
    with open(path, "rb") as f:
        return deserialize_codec(f.read())


def _load_pair(path: str) -> LatentModelPair:
    with open(path, "rb") as f:
        return LatentModelPair.deserialize(f.read())


def cmd_compress(args) -> int:
    codec = _load_codec(args.codec)
    paths = _list_images(args.in_dir)
    try:  # a set stores each source name in UTF-8
        names = [os.path.basename(p).encode("utf-8") for p in paths]
    except UnicodeEncodeError as exc:
        raise InvalidInputError(f"an image file name is not UTF-8: {exc}") from exc
    images = [read_image(p) for p in paths]
    # Each image is a shelf of one grid: stacked (top, bottom) index arrays.
    indices = [encode_indices([image], codec) for image in images]

    fresh = not os.path.exists(args.model)
    if fresh:
        alphabets = parse_positive_ints(args.alphabets, InvalidInputError, BAD_ALPHABETS)
        pair = LatentModelPair.seeded(codec.codebook_size, alphabets, args.block_len, args.seed)
        pair = pair.refit(indices, FitConfig(args.fit_iterations), args.precision)
    else:
        pair = _load_pair(args.model)
        pair.check_codec(codec)
        pair.check_precision(args.precision)

    # Files are written only once every stream is coded, so a failed
    # compress leaves no fitted model behind for a rerun to pick up.
    streams = compress_shelves(indices, pair, [[[args.seed, i]] for i in range(len(indices))],
                               precision=args.precision, initial_bits=args.initial_bits)
    body = [uvarint(args.precision, 8, "precision"),
            uvarint(args.initial_bits // 8, 32, "seeded bytes"),
            uvarint(len(names), 32, "image count")]
    for name, (_, bottom), [stream] in zip(names, indices, streams):
        blob = serialize_stream(stream)
        body += [uvarint(len(name), 16, "source name length"), name,
                 *(uvarint(side, 32, "grid side") for side in bottom.shape[1:]),
                 uvarint(len(blob), 32, "stream length"), blob]
    data = seal(STREAM_SET_MAGIC, STREAM_SET_FORMAT_VERSION, b"".join(body))
    if fresh:
        with open(args.model, "wb") as f:
            f.write(pair.serialize(args.precision))
        print(f"wrote model pair to {args.model}")
    with open(args.out, "wb") as f:
        f.write(data)
    net = sum(stream.net_bits for [stream] in streams)
    symbols = sum(stream.symbol_count for [stream] in streams)
    raw = sum(img.size for img in images)
    print(f"compressed {len(paths)} images, {symbols} codes")
    print(f"net bits/code {net / symbols:.4f} (uncoded grids would use 16)")
    print(f"stream set {len(data)} bytes = {format_megabytes(len(data))} MB; "
          f"raw pixels {raw} bytes = {format_megabytes(raw)} MB")
    return EXIT_OK


def read_stream_set(data: bytes):
    """(precision, seeded bytes, {source name: (bottom grid shape, stream)})
    of a stream-set file, in the order `compress` wrote them.
    DataCorruptionError on a bad container, field or stream, a source name
    that is not UTF-8, not a plain file name, or listed twice, or a body
    that is not exactly as many entries as the set's image count."""
    body = unseal(data, STREAM_SET_MAGIC, STREAM_SET_FORMAT_VERSION, "stream set")
    precision, offset = read_uvarint(body, 0, 8, "precision")
    seeded, offset = read_uvarint(body, offset, 32, "seeded bytes")
    count, offset = read_uvarint(body, offset, 32, "image count")
    entries = {}
    for _ in range(count):
        size, offset = read_uvarint(body, offset, 16, "source name length")
        try:
            name = str(body[offset:offset + size], "utf-8")
        except UnicodeDecodeError as exc:
            raise DataCorruptionError(f"source name is not UTF-8: {exc}") from exc
        check_plain_name(name, "source")
        if name in entries:
            raise DataCorruptionError(f"source {name!r} is listed twice")
        height, offset = read_uvarint(body, offset + size, 32, "grid height")
        width, offset = read_uvarint(body, offset, 32, "grid width")
        size, offset = read_uvarint(body, offset, 32, "stream length")
        entries[name] = (height, width), deserialize_stream(body[offset:offset + size])
        offset += size
    if offset != len(body):
        raise DataCorruptionError(f"stream set holds more than its {count} images")
    return precision, seeded, entries


def cmd_decompress(args) -> int:
    codec = _load_codec(args.codec)
    pair = _load_pair(args.model)
    pair.check_codec(codec, DataCorruptionError)
    with open(args.in_file, "rb") as f:
        precision, seeded, entries = read_stream_set(f.read())
    pair.check_precision(precision, DataCorruptionError)
    shapes = []
    for name, (bottom, stream) in entries.items():
        # The image the bottom grid decodes to gives the top grid's shape.
        found = code_shapes((*(side * codec.patch for side in bottom), codec.channels), codec)
        if found is None:
            raise DataCorruptionError(f"{name}: a bottom grid of {bottom[0]} x {bottom[1]} "
                                      f"does not fit the codec (pool {codec.pool})")
        shapes.append(found)
        stream.initial_bits = 8 * seeded
    indices = decompress_shelves([[stream] for _, stream in entries.values()], shapes, pair,
                                 precision=precision)
    os.makedirs(args.out, exist_ok=True)
    for name, (top, bottom) in zip(entries, indices):
        write_image(os.path.join(args.out, name), decode_indices(top, bottom, codec)[0])
    print(f"reconstructed {len(indices)} images into {args.out}")
    return EXIT_OK


# -- run-phases / report --------------------------------------------------------------

CONFIG_DEFAULTS = {
    **{key: getattr(TrainConfig, key)
       for key in ("mode", "ib_weight", "epochs", "lr", "batch_size", "hidden_dim")},
    "seed": 0, "total_classes": 8, "initial_classes": 4, "n_phases": 2, "classes_per_phase": 2,
    "train_per_class": 14, "test_per_class": 8, "side": 16, "channels": 3,
    "data_seed": 123,
    "patch": 4, "pool": 2, "codebook_size": 32, "embed_dim": 8,
    "codec_epochs": 300, "codec_lr": 0.005, "beta": 0.25,
    "alphabets": "6,4", "block_len": 8, "precision": DEFAULT_PRECISION,
    "initial_bits": DEFAULT_INITIAL_BITS, "fit_iterations": 3,
    "exemplars_per_class": 10,
}


def parse_config_file(path: str) -> dict:
    values = dict(CONFIG_DEFAULTS)
    for lineno, line in enumerate(read_lines(path, InvalidInputError), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in values:
            raise InvalidInputError(f"{path}:{lineno}: unknown key {key!r}")
        default = CONFIG_DEFAULTS[key]
        try:
            if isinstance(default, int):
                values[key] = int(value)
            elif isinstance(default, float):
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: bad value for {key}") from exc
    return values


def experiment_config_from_values(values: dict) -> ExperimentConfig:
    return ExperimentConfig(
        schedule=PhaseSchedule(total_classes=values["total_classes"],
                               initial_classes=values["initial_classes"],
                               n_phases=values["n_phases"],
                               classes_per_phase=values["classes_per_phase"],
                               seed=values["seed"]),
        codec=CodecConfig(patch=values["patch"], pool=values["pool"],
                          channels=values["channels"],
                          codebook_size=values["codebook_size"],
                          embed_dim=values["embed_dim"], beta=values["beta"],
                          lr=values["codec_lr"], epochs=values["codec_epochs"],
                          seed=values["seed"]),
        train=TrainConfig(mode=values["mode"], ib_weight=values["ib_weight"],
                          epochs=values["epochs"], lr=values["lr"],
                          batch_size=values["batch_size"],
                          hidden_dim=values["hidden_dim"], seed=values["seed"]),
        latent=LatentSpec(alphabets=parse_positive_ints(values["alphabets"], InvalidInputError,
                                                        BAD_ALPHABETS),
                          block_len=values["block_len"],
                          precision=values["precision"],
                          initial_bits=values["initial_bits"],
                          fit_iterations=values["fit_iterations"]),
        exemplars_per_class=values["exemplars_per_class"],
    )


def results_lines(values: dict, result) -> list[str]:
    lines = [RESULTS_HEADER,
             "config " + " ".join(f"{k}={values[k]}" for k in sorted(values))]
    for record in result.records:
        buf = record.buffer_report
        raw_store = record.raw_report.raw_bytes if record.raw_report else 0
        net = sum(r.net_bits for r in record.ingest.values())
        syms = sum(r.symbol_count for r in record.ingest.values())
        lines.append(
            f"phase index={record.phase} classes_seen={record.classes_seen} "
            f"accuracy={record.accuracy!r} model_version={record.model_version} "
            f"stream_bytes={buf.stream_bytes} model_bytes={buf.model_bytes} "
            f"codec_bytes={buf.codec_bytes} total_bytes={buf.total_bytes} "
            f"raw_equiv_bytes={buf.raw_bytes} raw_store_bytes={raw_store} "
            f"ingest_net_bits={net!r} ingest_symbols={syms}")
    average = result.results.average
    lines.append(f"summary phases={len(result.records) - 1} "
                 f"average={'absent' if average is None else repr(average)} "
                 f"last={result.results.last!r}")
    return lines


def cmd_run_phases(args) -> int:
    values = parse_config_file(args.config)
    config = experiment_config_from_values(values)
    train_images, train_labels = make_toy_dataset(
        values["total_classes"], values["train_per_class"], side=values["side"],
        channels=values["channels"], seed=values["data_seed"], salt=0)
    test_images, test_labels = make_toy_dataset(
        values["total_classes"], values["test_per_class"], side=values["side"],
        channels=values["channels"], seed=values["data_seed"], salt=1)
    result = run_experiment(train_images, train_labels, test_images, test_labels, config)
    lines = results_lines(values, result)
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    for line in lines[2:]:
        print(line)
    print(f"wrote {args.out}")
    return EXIT_OK


# The fields `report` reads from each record, with their types.
PHASE_FIELDS = {"index": int, "classes_seen": int, "accuracy": float,
                "total_bytes": int, "raw_equiv_bytes": int}
SUMMARY_FIELDS = ("average", "last")


def _number(kind, record: dict, key: str, path: str):
    """record[key] as `kind`, or DataCorruptionError."""
    try:
        return kind(record[key])
    except ValueError as exc:
        raise DataCorruptionError(f"{path}: bad {key} {record[key]!r}") from exc


def _parse_results(path: str):
    """Typed phase records and summary of a results file; other records
    (the config line) are skipped."""
    lines = [ln.strip() for ln in read_lines(path) if ln.strip()]
    if not lines:
        raise InvalidInputError(f"{path} is empty")
    if lines[0] != RESULTS_HEADER:
        raise DataCorruptionError(f"{path}: bad results header")
    phases = []
    summary = None
    for line in lines[1:]:
        kind = line.split(" ", 1)[0]
        if kind == "phase":
            entry = parse_record(line, "phase", PHASE_FIELDS)
            phase = {key: _number(kind, entry, key, path) for key, kind in PHASE_FIELDS.items()}
            if not 0.0 <= phase["accuracy"] <= 1.0:  # also false for NaN
                raise DataCorruptionError(f"{path}: accuracy {entry['accuracy']} outside [0, 1]")
            if min(phase["total_bytes"], phase["raw_equiv_bytes"]) < 0:
                raise DataCorruptionError(f"{path}: negative byte count")
            phases.append(phase)
        elif kind == "summary":
            entry = parse_record(line, "summary", SUMMARY_FIELDS)
            summary = {"last": _number(float, entry, "last", path),
                       "average": (None if entry["average"] == "absent"
                                   else _number(float, entry, "average", path))}
    if not phases or summary is None:
        raise DataCorruptionError(f"{path}: missing phase or summary records")
    return phases, summary


def cmd_report(args) -> int:
    phases, summary = _parse_results(args.results)
    accuracies = [p["accuracy"] for p in phases]
    print(f"{'phase':>5} {'classes':>8} {'accuracy':>9} {'buffer MB':>10} {'raw-equiv MB':>13}")
    for p in phases:
        print(f"{p['index']:>5} {p['classes_seen']:>8} {p['accuracy']:>9.4f} "
              f"{format_megabytes(p['total_bytes']):>10} "
              f"{format_megabytes(p['raw_equiv_bytes']):>13}")
    if len(accuracies) > 1:
        average = float(np.mean(accuracies[1:]))
        stated = summary["average"]
        if stated is None or not abs(stated - average) <= 1e-12:  # NaN disagrees
            raise DataCorruptionError("summary average disagrees with phase records")
        print(f"average (phases 1..N): {average:.4f}")
    elif summary["average"] is not None:
        raise DataCorruptionError("summary average should be absent with no phases")
    last = accuracies[-1]
    if not abs(summary["last"] - last) <= 1e-12:
        raise DataCorruptionError("summary last disagrees with phase records")
    print(f"last phase: {last:.4f}")
    return EXIT_OK


# -- inspect ---------------------------------------------------------------------

def cmd_inspect(args) -> int:
    with open(args.file, "rb") as f:
        data = f.read()
    magic = kind(data)
    if magic == CODEC_MAGIC:
        codec = deserialize_codec(data)
        k, d = codec.codebook_bottom.shape
        dtype = stored_weight_dtype(codec.frozen)
        weights = sum(getattr(codec, name).size for name in codec.weight_fields())
        print(f"codec: patch {codec.patch}, pool {codec.pool}, channels {codec.channels}, "
              f"codebook {k} x {d}, frozen {codec.frozen}, "
              f"weights {dtype.str[1:]} ({weights * dtype.itemsize} bytes)")
    elif magic == MODEL_MAGIC:
        models = deserialize_models(data)
        entries = sum(table.size for t in models for _, table in t.dyadic.tables())
        print(f"model snapshot: {len(models)} records, precision {models[0].precision}, "
              f"tables {STORED_FREQ.str[1:]} ({entries * STORED_FREQ.itemsize} bytes)")
        for i, m in enumerate(t.dyadic for t in models):
            print(f"  [{i}] version {m.version}, levels {m.levels}, "
                  f"alphabet {m.obs_alphabet}, chain {m.alphabets}, block {m.block_len}")
    elif magic == STREAM_SET_MAGIC:
        precision, seeded, entries = read_stream_set(data)
        print(f"stream set: {len(entries)} images, precision {precision}, "
              f"initial bits {8 * seeded}, {len(data)} bytes")
    elif magic == STREAM_MAGIC:
        stream = deserialize_stream(data)
        _, restored, stack = read_payload(stream.payload)
        print(f"stream: {stream.symbol_count} symbols, model version "
              f"{stream.model_version}, payload {len(stream.payload)} bytes "
              f"({len(stack)} stack bytes, {restored} seeded bytes restored)")
    elif (len(data) >= IMAGE_HEAD.size
          and len(data) == IMAGE_HEAD.size + math.prod(IMAGE_HEAD.unpack_from(data))):
        print("raw image: {} x {} x {}".format(*IMAGE_HEAD.unpack_from(data)))
    else:
        raise InvalidInputError(f"{args.file}: unrecognized format")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("pretrain-codec", help="train and freeze a patch codec")
    p.add_argument("--data", required=True, help="directory of .img files")
    p.add_argument("--out", required=True, help="output codec file")
    p.add_argument("--epochs", type=int, default=CodecConfig.epochs)
    p.add_argument("--lr", type=float, default=CodecConfig.lr)
    p.add_argument("--beta", type=float, default=CodecConfig.beta)
    p.add_argument("--seed", type=int, default=CodecConfig.seed)
    p.add_argument("--patch", type=int, default=CodecConfig.patch)
    p.add_argument("--pool", type=int, default=CodecConfig.pool)
    p.add_argument("--codebook-size", type=int, default=CodecConfig.codebook_size)
    p.add_argument("--embed-dim", type=int, default=CodecConfig.embed_dim)
    p.set_defaults(func=cmd_pretrain_codec)

    p = sub.add_parser("compress", help="entropy-code images into one stream-set file")
    p.add_argument("--codec", required=True)
    p.add_argument("--model", required=True,
                   help="model pair file; created and fitted if absent")
    p.add_argument("--in", dest="in_dir", required=True,
                   help="directory of .img files")
    p.add_argument("--out", required=True, help="output stream-set file")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p.add_argument("--initial-bits", type=int, default=DEFAULT_INITIAL_BITS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphabets", default="16,8", help="chain alphabets, e.g. 16,8")
    p.add_argument("--block-len", type=int, default=16)
    p.add_argument("--fit-iterations", type=int, default=20)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="rebuild images from a stream-set file")
    p.add_argument("--codec", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="in_file", required=True, help="stream-set file")
    p.add_argument("--out", required=True, help="output image directory")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("run-phases", help="run a phased experiment on toy data")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="results file to write")
    p.set_defaults(func=cmd_run_phases)

    p = sub.add_parser("report", help="summarize a results file")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("inspect", help="identify and summarize an artifact file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (InvalidInputError, DegenerateInputError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataCorruptionError as exc:
        print(f"corrupt data: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
