"""Compressed replay storage for class-incremental training.

Exemplars are kept as discrete code grids, losslessly entropy-coded with a
pair of latent-chain models (one per grid level) and a frozen patch codec.
When a new class arrives, the buffer decodes everything it holds, refits
the chain models on the union, and re-encodes every stream with the new
tables, so all stored streams always share one model version.  Streams of
one geometry are decoded and encoded together, one lane of the coder each.

A raw store keeping byte-per-channel pixels provides the memory baseline;
both report through the same arithmetic so the comparison is honest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .bits_back import (
    CodingTables,
    CompressedStream,
    FitConfig,
    LatentChainModel,
    build_coding_tables,
    check_method,
    chunk_symbols,
    decode_stream,
    decode_streams,
    deserialize_models,
    deserialize_stream,
    encode_stream,
    encode_streams,
    finetune,
    random_model,
    serialize_models,
    serialize_stream,
)
from .errors import DataCorruptionError, InvalidInputError, StateError, check_seed
from .rans import DEFAULT_PRECISION, MAX_PRECISION, MIN_PRECISION
from .vq_codec import (
    CodecParams,
    CodeGrid,
    decode_codes,
    deserialize_codec,
    encode_image,
    serialize_codec,
)

INDEX_NAME = "index.txt"
CODEC_NAME = "codec.drrc"
MODELS_NAME = "models.drrm"
STREAM_DIR = "streams"
INDEX_HEADER = "drr-replay-buffer 1"

BYTES_PER_MEGABYTE = 1 << 20
DEFAULT_EXEMPLARS_PER_CLASS = 20


def select_exemplars(images: np.ndarray, count: int, rng) -> np.ndarray:
    """Uniform choice without replacement; order follows the draw."""
    images = np.asarray(images)
    if images.ndim != 4:
        raise InvalidInputError("expected a batch of images (n, h, w, c)")
    if count < 1 or count > len(images):
        raise InvalidInputError(
            f"cannot select {count} exemplars from {len(images)} images")
    idx = rng.choice(len(images), size=count, replace=False)
    return images[idx]


def raw_store_bytes(n_images: int, image_shape) -> int:
    """Bytes to hold images at one byte per channel value."""
    h, w, c = image_shape
    return int(n_images) * int(h) * int(w) * int(c)


def parse_record(line: str, kind: str | None, keys=()) -> dict[str, str]:
    """The key=value fields of one index line.

    `kind` is the word the line must start with (None for a line of fields
    only) and `keys` the fields it must carry.  A malformed line raises
    DataCorruptionError.
    """
    words = line.split()
    if kind is not None:
        if not words or words[0] != kind:
            raise DataCorruptionError(f"expected a {kind} line, got: {line}")
        words = words[1:]
    fields = {}
    for word in words:
        key, sep, value = word.partition("=")
        if not sep or not key:
            raise DataCorruptionError(f"malformed field {word!r} in: {line}")
        fields[key] = value
    missing = [key for key in keys if key not in fields]
    if missing:
        raise DataCorruptionError(f"missing {', '.join(missing)} in: {line}")
    return fields


def parse_shape(text: str) -> tuple[int, ...]:
    """A comma-separated shape of positive integers, such as `16,16,3`."""
    try:
        shape = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise DataCorruptionError(f"bad shape {text!r}") from exc
    if min(shape) < 1:
        raise DataCorruptionError(f"bad shape {text!r}")
    return shape


def check_plain_name(name: str, what: str) -> None:
    """DataCorruptionError unless `name` names an entry directly inside a
    directory, so a name read from an index cannot reach outside it."""
    if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
        raise DataCorruptionError(f"{what} {name!r} is not a plain file name")


def bytes_to_megabytes(n_bytes: int) -> float:
    return n_bytes / BYTES_PER_MEGABYTE


def format_megabytes(n_bytes: int) -> str:
    return f"{bytes_to_megabytes(n_bytes):.2f}"


@dataclass
class MemoryReport:
    """Footprint of a store, with the raw-pixel baseline for the same count."""

    label: str
    exemplar_count: int
    raw_bytes: int
    stream_bytes: int = 0
    model_bytes: int = 0
    codec_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.stream_bytes + self.model_bytes + self.codec_bytes

    @property
    def payload_bytes(self) -> int:
        return self.total_bytes if self.total_bytes else self.raw_bytes

    def summary(self) -> list[str]:
        lines = [f"{self.label}: {self.exemplar_count} exemplars"]
        if self.total_bytes:
            lines.append(f"  streams {format_megabytes(self.stream_bytes)} MB"
                         f" + models {format_megabytes(self.model_bytes)} MB"
                         f" + codec {format_megabytes(self.codec_bytes)} MB"
                         f" = {format_megabytes(self.total_bytes)} MB")
            lines.append(f"  raw equivalent {format_megabytes(self.raw_bytes)} MB")
        else:
            lines.append(f"  raw pixels {format_megabytes(self.raw_bytes)} MB")
        return lines


class RawExemplarStore:
    """Per-class uint8 exemplars; the uncompressed baseline."""

    def __init__(self, exemplars_per_class: int = DEFAULT_EXEMPLARS_PER_CLASS, seed: int = 0):
        if exemplars_per_class < 1:
            raise InvalidInputError("need at least one exemplar per class")
        check_seed(seed)
        self.exemplars_per_class = exemplars_per_class
        self.seed = seed
        self._classes: dict[int, np.ndarray] = {}

    @property
    def class_labels(self) -> list[int]:
        return sorted(self._classes)

    def add_class(self, label: int, images: np.ndarray) -> None:
        label = int(label)
        if label in self._classes:
            raise InvalidInputError(f"class {label} is already stored")
        rng = np.random.default_rng([self.seed, label])
        chosen = select_exemplars(images, self.exemplars_per_class, rng)
        self._classes[label] = np.round(np.clip(chosen, 0.0, 1.0) * 255).astype(np.uint8)

    def get(self, label: int) -> np.ndarray:
        if label not in self._classes:
            raise InvalidInputError(f"class {label} is not stored")
        return self._classes[label].astype(np.float64) / 255.0

    def reconstruct_all(self) -> dict[int, np.ndarray]:
        return {label: self.get(label) for label in self.class_labels}

    def account(self) -> MemoryReport:
        count = sum(len(v) for v in self._classes.values())
        raw = sum(raw_store_bytes(len(v), v.shape[1:]) for v in self._classes.values())
        return MemoryReport(label="raw", exemplar_count=count, raw_bytes=raw)


# -- model pair ------------------------------------------------------------------

@dataclass(frozen=True)
class LatentModelPair:
    """One chain model per grid level, versioned in lockstep.

    A pair is a value.  Its fields cannot be rebound, and its models must
    not be mutated once the pair exists: a refit makes a new pair.  Coding
    tables are derived once per pair and precision, on first use, and every
    later `tables` call returns the same ones.
    """

    top: LatentChainModel
    bottom: LatentChainModel
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.top.version != self.bottom.version:
            raise InvalidInputError("pair levels must share a version")

    @property
    def version(self) -> int:
        return self.top.version

    @classmethod
    def seeded(cls, obs_alphabet: int, alphabets, block_len: int, seed: int) -> "LatentModelPair":
        """Unfitted pair of `random_model`s, top seeded 2*seed+1, bottom 2*seed+2."""
        check_seed(seed)
        return cls(random_model(obs_alphabet, alphabets, block_len=block_len, seed=2 * seed + 1),
                   random_model(obs_alphabet, alphabets, block_len=block_len, seed=2 * seed + 2))

    def copy(self) -> "LatentModelPair":
        return LatentModelPair(self.top.copy(), self.bottom.copy())

    def blocks(self, grids) -> tuple[list, list]:
        """(top, bottom) blocks of every grid, grid by grid: each level's
        row-major symbols, chunked to that level's block length."""
        top, bottom = [], []
        for grid in grids:
            top += chunk_symbols(grid.top.ravel(), self.top.block_len)
            bottom += chunk_symbols(grid.bottom.ravel(), self.bottom.block_len)
        return top, bottom

    def tables(self, precision: int = DEFAULT_PRECISION) -> tuple[CodingTables, CodingTables]:
        """(top, bottom) coding tables, built on the first call per precision."""
        if precision not in self._tables:
            self._tables[precision] = (build_coding_tables(self.top, precision),
                                       build_coding_tables(self.bottom, precision))
        return self._tables[precision]

    def serialize(self) -> bytes:
        return serialize_models([self.top, self.bottom])

    @staticmethod
    def deserialize(data: bytes) -> "LatentModelPair":
        models = deserialize_models(data)
        if len(models) != 2:
            raise DataCorruptionError(f"expected 2 model records, found {len(models)}")
        return LatentModelPair(models[0], models[1])


def grid_blocks(grid: CodeGrid, pair: LatentModelPair) -> tuple[list, list]:
    """Row-major symbols of each level, chunked to that level's block length."""
    return pair.blocks([grid])


def _block_lens(n_symbols: int, block_len: int) -> list[int]:
    full, rest = divmod(n_symbols, block_len)
    return [block_len] * full + ([rest] if rest else [])


def compress_grid(grid: CodeGrid, pair: LatentModelPair,
                  precision: int = DEFAULT_PRECISION,
                  initial_bits: int = 256, seed=0, method: str = "bitswap") -> CompressedStream:
    top_tables, bottom_tables = pair.tables(precision)
    top_blocks, bottom_blocks = pair.blocks([grid])
    return encode_stream([(top_blocks, top_tables), (bottom_blocks, bottom_tables)],
                         initial_bits=initial_bits, seed=seed, method=method)


def decompress_grid(stream: CompressedStream, pair: LatentModelPair,
                    top_shape, bottom_shape,
                    tables: tuple[CodingTables, CodingTables] | None = None,
                    precision: int = DEFAULT_PRECISION,
                    method: str = "bitswap") -> CodeGrid:
    top_tables, bottom_tables = tables if tables is not None else pair.tables(precision)
    top_lens = _block_lens(int(np.prod(top_shape)), pair.top.block_len)
    bottom_lens = _block_lens(int(np.prod(bottom_shape)), pair.bottom.block_len)
    out = decode_stream(stream, [(top_lens, top_tables), (bottom_lens, bottom_tables)],
                        method=method)
    top = np.concatenate(out[0]) if out[0] else np.array([], dtype=np.int64)
    bottom = np.concatenate(out[1]) if out[1] else np.array([], dtype=np.int64)
    return CodeGrid(top=top.reshape(top_shape).astype(np.int32),
                    bottom=bottom.reshape(bottom_shape).astype(np.int32))


def _lane_blocks(symbols: np.ndarray, block_len: int) -> list[np.ndarray]:
    """Columns of an (N, n) symbol array in blocks; the last may be shorter."""
    return [symbols[:, i:i + block_len] for i in range(0, symbols.shape[1], block_len)]


def _by_geometry(shapes) -> list[list[int]]:
    """Indices of equal (top, bottom) shapes, grouped in first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    return list(groups.values())


def compress_grids(grids, pair: LatentModelPair, seeds,
                   precision: int = DEFAULT_PRECISION, initial_bits: int = 256,
                   method: str = "bitswap") -> list[CompressedStream]:
    """`compress_grid` of every grid: stream i equals
    compress_grid(grids[i], seed=seeds[i]) bit for bit.  Grids of one
    geometry are coded side by side, one coder lane each."""
    grids, seeds = list(grids), list(seeds)
    out = [None] * len(grids)
    for members in _by_geometry((g.top.shape, g.bottom.shape) for g in grids):
        top_tables, bottom_tables = pair.tables(precision)
        top = np.stack([grids[i].top.ravel() for i in members])
        bottom = np.stack([grids[i].bottom.ravel() for i in members])
        streams = encode_streams(
            [(_lane_blocks(top, pair.top.block_len), top_tables),
             (_lane_blocks(bottom, pair.bottom.block_len), bottom_tables)],
            [seeds[i] for i in members], initial_bits=initial_bits, method=method)
        for i, stream in zip(members, streams):
            out[i] = stream
    return out


def decompress_grids(streams, pair: LatentModelPair, shapes,
                     precision: int = DEFAULT_PRECISION,
                     method: str = "bitswap") -> list[CodeGrid]:
    """`decompress_grid` of every stream, where shapes[i] is the (top shape,
    bottom shape) of stream i.  Streams of one geometry are decoded side by
    side, one coder lane each."""
    streams, shapes = list(streams), [(tuple(t), tuple(b)) for t, b in shapes]
    out = [None] * len(streams)
    for members in _by_geometry(shapes):
        top_tables, bottom_tables = pair.tables(precision)
        top_shape, bottom_shape = shapes[members[0]]
        top_lens = _block_lens(int(np.prod(top_shape)), pair.top.block_len)
        bottom_lens = _block_lens(int(np.prod(bottom_shape)), pair.bottom.block_len)
        top, bottom = (np.concatenate(blocks, axis=1).astype(np.int32)
                       for blocks in decode_streams([streams[i] for i in members],
                                                    [(top_lens, top_tables),
                                                     (bottom_lens, bottom_tables)],
                                                    method=method))
        for i, t, b in zip(members, top, bottom):
            out[i] = CodeGrid(top=t.reshape(top_shape), bottom=b.reshape(bottom_shape))
    return out


# -- compressed replay buffer ------------------------------------------------------

@dataclass
class ClassShelf:
    label: int
    image_shape: tuple[int, int, int]
    top_shape: tuple[int, int]
    bottom_shape: tuple[int, int]
    streams: list[CompressedStream] = field(default_factory=list)


@dataclass
class IngestReport:
    """Fresh-encode accounting for one ingested class."""

    label: int
    exemplar_count: int
    symbol_count: int
    net_bits: float
    gross_bits: float
    returned_bits: float
    peak_demand_bits: float
    stream_bytes: int
    model_version: int

    @property
    def bits_per_code(self) -> float:
        return self.net_bits / self.symbol_count if self.symbol_count else 0.0


class ReplayBuffer:
    """Compressed exemplar store over a frozen codec and a model pair."""

    def __init__(self, codec: CodecParams, pair: LatentModelPair,
                 exemplars_per_class: int = DEFAULT_EXEMPLARS_PER_CLASS,
                 precision: int = DEFAULT_PRECISION, initial_bits: int = 256,
                 seed: int = 0, method: str = "bitswap"):
        if exemplars_per_class < 1:
            raise InvalidInputError("need at least one exemplar per class")
        if not MIN_PRECISION <= precision <= MAX_PRECISION:
            raise InvalidInputError(
                f"precision {precision} outside [{MIN_PRECISION}, {MAX_PRECISION}]")
        if initial_bits < 0 or initial_bits % 8:
            raise InvalidInputError("initial_bits must be a nonnegative multiple of 8")
        check_method(method)
        check_seed(seed)
        self.codec = codec
        self.pair = pair
        self.exemplars_per_class = exemplars_per_class
        self.precision = precision
        self.initial_bits = initial_bits
        self.seed = seed
        self.method = method
        self._shelves: dict[int, ClassShelf] = {}

    @property
    def class_labels(self) -> list[int]:
        return sorted(self._shelves)

    @property
    def exemplar_count(self) -> int:
        return sum(len(s.streams) for s in self._shelves.values())

    def _require_frozen(self):
        if not self.codec.frozen:
            raise StateError("codec must be frozen before the buffer can code images")

    def _stream_seed(self, label: int, index: int):
        return [self.seed, int(label) + 1, index + 1]

    def _check_versions(self, shelves) -> None:
        for shelf in shelves:
            for stream in shelf.streams:
                if stream.model_version != self.pair.version:
                    raise DataCorruptionError(
                        f"stream for class {shelf.label} has model version "
                        f"{stream.model_version}, the models are at {self.pair.version}")

    def _decode_grids(self, shelves) -> dict[int, list[CodeGrid]]:
        """The code grids of every stream on the given shelves, per label,
        decoded in one batch."""
        shelves = list(shelves)
        self._check_versions(shelves)
        grids = iter(decompress_grids(
            [stream for shelf in shelves for stream in shelf.streams], self.pair,
            [(shelf.top_shape, shelf.bottom_shape) for shelf in shelves for _ in shelf.streams],
            precision=self.precision, method=self.method))
        return {shelf.label: [next(grids) for _ in shelf.streams] for shelf in shelves}

    def _encode_grids(self, grids_by_label: dict[int, list[CodeGrid]]
                      ) -> dict[int, list[CompressedStream]]:
        """A stream per grid under the current pair, seeded per label and
        index, encoded in one batch."""
        streams = iter(compress_grids(
            [g for grids in grids_by_label.values() for g in grids], self.pair,
            [self._stream_seed(label, i) for label, grids in grids_by_label.items()
             for i in range(len(grids))],
            precision=self.precision, initial_bits=self.initial_bits, method=self.method))
        return {label: [next(streams) for _ in grids] for label, grids in grids_by_label.items()}

    def ingest_phase(self, class_data, fit_config: FitConfig = FitConfig()) -> dict[int, IngestReport]:
        """Add one phase's classes: pick exemplars per class, refit the
        models once on everything stored plus the newcomers, then re-encode
        the whole buffer under the bumped version."""
        self._require_frozen()
        items = sorted((int(label), images) for label, images in class_data.items())
        if not items:
            raise InvalidInputError("a phase must add at least one class")
        for label, _ in items:
            if label in self._shelves:
                raise InvalidInputError(f"class {label} was already ingested")
        if len({label for label, _ in items}) != len(items):
            raise InvalidInputError("duplicate class labels within the phase")

        new_per_class: dict[int, list[CodeGrid]] = {}
        chosen_shapes: dict[int, tuple] = {}
        for label, images in items:
            rng = np.random.default_rng([self.seed, label])
            chosen = select_exemplars(images, self.exemplars_per_class, rng)
            new_per_class[label] = [encode_image(img, self.codec) for img in chosen]
            chosen_shapes[label] = tuple(chosen.shape[1:])

        buffered = self._decode_grids(self._shelves.values())
        new_top, new_bottom = self.pair.blocks(g for grids in new_per_class.values() for g in grids)
        old_top, old_bottom = self.pair.blocks(g for grids in buffered.values() for g in grids)
        self.pair = LatentModelPair(
            finetune(self.pair.top, new_top, fit_config, buffered_blocks=old_top),
            finetune(self.pair.bottom, new_bottom, fit_config, buffered_blocks=old_bottom))

        streams = self._encode_grids({**buffered, **new_per_class})
        for label in buffered:
            self._shelves[label].streams = streams[label]

        reports = {}
        for label, grids in new_per_class.items():
            shelf = ClassShelf(label=label, image_shape=chosen_shapes[label],
                               top_shape=tuple(grids[0].top.shape),
                               bottom_shape=tuple(grids[0].bottom.shape),
                               streams=streams[label])
            self._shelves[label] = shelf
            reports[label] = IngestReport(
                label=label,
                exemplar_count=len(shelf.streams),
                symbol_count=sum(s.symbol_count for s in shelf.streams),
                net_bits=sum(s.net_bits for s in shelf.streams),
                gross_bits=sum(s.gross_bits for s in shelf.streams),
                returned_bits=sum(s.returned_bits for s in shelf.streams),
                peak_demand_bits=max(s.peak_demand_bits for s in shelf.streams),
                stream_bytes=sum(len(serialize_stream(s)) for s in shelf.streams),
                model_version=self.pair.version,
            )
        return reports

    def reconstruct_class(self, label: int) -> np.ndarray:
        if label not in self._shelves:
            raise InvalidInputError(f"class {label} is not stored")
        grids = self._decode_grids([self._shelves[label]])[label]
        return np.stack([decode_codes(g, self.codec) for g in grids])

    def reconstruct_all(self) -> dict[int, np.ndarray]:
        """Every stored class, with all streams decoded in one batch."""
        grids = self._decode_grids(self._shelves.values())
        return {label: np.stack([decode_codes(g, self.codec) for g in grids[label]])
                for label in self.class_labels}

    def account(self) -> MemoryReport:
        count = self.exemplar_count
        raw = sum(raw_store_bytes(len(s.streams), s.image_shape)
                  for s in self._shelves.values())
        streams = sum(len(serialize_stream(st)) for s in self._shelves.values()
                      for st in s.streams)
        return MemoryReport(
            label="compressed", exemplar_count=count, raw_bytes=raw,
            stream_bytes=streams,
            model_bytes=len(self.pair.serialize()),
            codec_bytes=len(serialize_codec(self.codec)),
        )

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str) -> None:
        os.makedirs(os.path.join(directory, STREAM_DIR), exist_ok=True)
        with open(os.path.join(directory, CODEC_NAME), "wb") as f:
            f.write(serialize_codec(self.codec))
        with open(os.path.join(directory, MODELS_NAME), "wb") as f:
            f.write(self.pair.serialize())
        lines = [INDEX_HEADER,
                 f"seed={self.seed} precision={self.precision} "
                 f"initial_bits={self.initial_bits} "
                 f"exemplars_per_class={self.exemplars_per_class} method={self.method}"]
        for label in self.class_labels:
            shelf = self._shelves[label]
            h, w, c = shelf.image_shape
            lines.append(f"class label={label} image={h},{w},{c} "
                         f"top={shelf.top_shape[0]},{shelf.top_shape[1]} "
                         f"bottom={shelf.bottom_shape[0]},{shelf.bottom_shape[1]} "
                         f"count={len(shelf.streams)}")
            for i, stream in enumerate(shelf.streams):
                name = f"{STREAM_DIR}/{label}_{i}.drrs"
                lines.append(f"stream label={label} index={i} file={name} "
                             f"version={stream.model_version}")
                with open(os.path.join(directory, name), "wb") as f:
                    f.write(serialize_stream(stream))
        with open(os.path.join(directory, INDEX_NAME), "w") as f:
            f.write("\n".join(lines) + "\n")

    @staticmethod
    def load(directory: str) -> "ReplayBuffer":
        index_path = os.path.join(directory, INDEX_NAME)
        try:
            with open(index_path) as f:
                lines = [ln.strip() for ln in f if ln.strip()]
            with open(os.path.join(directory, CODEC_NAME), "rb") as f:
                codec = deserialize_codec(f.read())
            with open(os.path.join(directory, MODELS_NAME), "rb") as f:
                pair = LatentModelPair.deserialize(f.read())
        except OSError as exc:
            raise DataCorruptionError(f"unreadable buffer directory: {exc}") from exc
        if not lines or lines[0] != INDEX_HEADER:
            raise DataCorruptionError("bad index header")
        if len(lines) < 2:
            raise DataCorruptionError("index has no options line")
        opts = parse_record(lines[1], None, ("seed", "precision", "initial_bits",
                                             "exemplars_per_class", "method"))
        try:
            buffer = ReplayBuffer(codec, pair,
                                  exemplars_per_class=int(opts["exemplars_per_class"]),
                                  precision=int(opts["precision"]),
                                  initial_bits=int(opts["initial_bits"]),
                                  seed=int(opts["seed"]), method=opts["method"])
        except ValueError as exc:
            raise DataCorruptionError(f"corrupt buffer options: {exc}") from exc
        try:
            i = 2
            while i < len(lines):
                info = parse_record(lines[i], "class",
                                    ("label", "image", "top", "bottom", "count"))
                i += 1
                label = int(info["label"])
                count = int(info["count"])
                if count < 1:
                    raise DataCorruptionError(f"class {label} holds {count} streams")
                shelf = ClassShelf(label=label,
                                   image_shape=parse_shape(info["image"]),
                                   top_shape=parse_shape(info["top"]),
                                   bottom_shape=parse_shape(info["bottom"]))
                for _ in range(count):
                    entry = parse_record(lines[i], "stream", ("label", "file", "version"))
                    i += 1
                    if int(entry["label"]) != label:
                        raise DataCorruptionError("stream entry under the wrong class")
                    folder, _, name = entry["file"].partition("/")
                    if folder != STREAM_DIR:
                        raise DataCorruptionError(
                            f"stream file {entry['file']!r} is not in {STREAM_DIR}/")
                    check_plain_name(name, "stream file")
                    with open(os.path.join(directory, entry["file"]), "rb") as f:
                        stream = deserialize_stream(f.read())
                    if stream.model_version != int(entry["version"]):
                        raise DataCorruptionError(
                            f"stream file version {stream.model_version} does not "
                            f"match index version {entry['version']}")
                    stream.initial_bits = buffer.initial_bits
                    shelf.streams.append(stream)
                buffer._shelves[label] = shelf
        except (OSError, ValueError, IndexError) as exc:
            raise DataCorruptionError(f"corrupt buffer index: {exc}") from exc
        buffer._check_versions(buffer._shelves.values())
        return buffer
