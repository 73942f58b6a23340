"""Compressed replay storage for class-incremental training.

Exemplars are kept as discrete code grids: in memory as each class's
stacked index arrays, and in storage as streams losslessly entropy-coded
with a pair of latent-chain models (one per grid level) and a frozen patch
codec.  When a new class arrives, the buffer refits the chain models on the
codes it holds plus the newcomers' and re-encodes every stream with the new
tables, so all stored streams always share one model version.  Only `load`
decodes streams, once, to get the codes back.  Streams of one geometry are
coded together, one lane of the coder each.

A raw store keeping byte-per-channel pixels provides the memory baseline;
both report through the same arithmetic so the comparison is honest.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .bits_back import (
    DEFAULT_INITIAL_BITS,
    CodingTables,
    CompressedStream,
    FitConfig,
    LatentChainModel,
    build_coding_tables,
    check_precision,
    chunk_symbols,
    decode_streams,
    deserialize_models,
    deserialize_stream,
    encode_streams,
    finetune,
    random_model,
    serialize_models,
    serialize_stream,
)
from .errors import DataCorruptionError, InvalidInputError, StateError, check_seed
from .rans import DEFAULT_PRECISION
# encode_stream, decode_stream, encode_image and decode_codes are not called here,
# but stay importable from this module: the benchmark's tracer wraps them by name.
from .bits_back import decode_stream, encode_stream  # noqa: F401
from .vq_codec import (  # noqa: F401
    CodecParams,
    CodeGrid,
    code_shapes,
    decode_codes,
    decode_indices,
    deserialize_codec,
    encode_image,
    encode_indices,
    serialize_codec,
)

INDEX_NAME = "index.txt"
CODEC_NAME = "codec.drrc"
MODELS_NAME = "models.drrm"
STREAM_DIR = "streams"
INDEX_HEADER = "drr-replay-buffer 3"

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


def _class_label(label) -> int:
    """`label` as an int; InvalidInputError unless it is a nonnegative integer
    (a Python or numpy one), checked before any conversion."""
    if not isinstance(label, numbers.Integral) or label < 0:
        raise InvalidInputError(f"class label must be a nonnegative integer, got {label!r}")
    return int(label)


def class_exemplars(images: np.ndarray, count: int, seed: int, label: int) -> np.ndarray:
    """Class `label`'s exemplars under `seed`: the one choice that the buffer,
    the raw store and the raw views make, so their exemplars pair up.
    InvalidInputError unless `label` is a nonnegative integer."""
    rng = np.random.default_rng([seed, _class_label(label)])
    return select_exemplars(images, count, rng)


def raw_store_bytes(n_images: int, image_shape) -> int:
    """Bytes to hold images at one byte per channel value."""
    h, w, c = image_shape
    return int(n_images) * int(h) * int(w) * int(c)


def to_pixel_bytes(images) -> np.ndarray:
    """Values in [0, 1] as one uint8 per channel value: clipped, scaled by
    255 and rounded.  The raw store and `.img` files hold pixels so."""
    return np.round(np.clip(images, 0.0, 1.0) * 255).astype(np.uint8)


def from_pixel_bytes(data: np.ndarray) -> np.ndarray:
    """The float64 values in [0, 1] that `to_pixel_bytes` bytes stand for."""
    return data.astype(np.float64) / 255.0


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


def parse_positive_ints(text: str, error=DataCorruptionError,
                        message: str = "bad shape {!r}") -> tuple[int, ...]:
    """The comma-separated positive integers of `text`, such as the shape
    `16,16,3`; `error` with `message` (formatted with `text`) unless every
    field is one."""
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise error(message.format(text)) from exc
    if min(values) < 1:
        raise error(message.format(text))
    return values


def read_file(path: str) -> bytes:
    """The bytes of a file, read through one descriptor to its end: no
    file object, so a read path opening hundreds of small files pays one
    open, one fstat and two reads per file.  OSError passes through."""
    fd = os.open(path, os.O_RDONLY)
    try:
        want = os.fstat(fd).st_size + 1  # one read gets it all, the next finds the end
        chunks = []
        while chunk := os.read(fd, want):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


def write_file(path: str, data: bytes) -> None:
    """Create or truncate the file at `path` and write `data` through one
    descriptor, with mode 0o666 less the umask for a new file, as `open`
    gives it.  OSError passes through."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def read_lines(path: str, error=DataCorruptionError) -> list[str]:
    """The lines of a text file.  The file is read as bytes and decoded
    here, so one that is not UTF-8 raises `error`; OSError passes through."""
    data = read_file(path)
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def check_plain_name(name: str, what: str) -> None:
    """DataCorruptionError unless `name` names an entry directly inside a
    directory, so a name read from a stored file cannot reach outside it."""
    if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
        raise DataCorruptionError(f"{what} {name!r} is not a plain file name")


def format_megabytes(n_bytes: int) -> str:
    return f"{n_bytes / BYTES_PER_MEGABYTE:.2f}"


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

    def add_class(self, label: int, images: np.ndarray) -> None:
        label = _class_label(label)
        if label in self._classes:
            raise InvalidInputError(f"class {label} is already stored")
        chosen = class_exemplars(images, self.exemplars_per_class, self.seed, label)
        self._classes[label] = to_pixel_bytes(chosen)

    def get(self, label: int) -> np.ndarray:
        if label not in self._classes:
            raise InvalidInputError(f"class {label} is not stored")
        return from_pixel_bytes(self._classes[label])

    def account(self) -> MemoryReport:
        count = sum(len(v) for v in self._classes.values())
        raw = sum(raw_store_bytes(len(v), v.shape[1:]) for v in self._classes.values())
        return MemoryReport(label="raw", exemplar_count=count, raw_bytes=raw)


# -- model pair ------------------------------------------------------------------

@dataclass(frozen=True)
class LatentModelPair:
    """One chain model per grid level, versioned in lockstep.

    A pair is a value.  Its fields cannot be rebound, and its models must
    not be mutated once the pair exists: a refit makes a new pair.

    A pair made by `from_tables`, as `quantized`, `deserialize`, `refit`
    and a buffer make one, holds the dyadic models of its one table pair
    and codes at their `precision`.  A pair of float models has precision
    None and codes nothing until it is `quantized`.  A pair that codes
    keeps its model file once it has been serialized or read.
    """

    top: LatentChainModel
    bottom: LatentChainModel
    _tables: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _file: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.top.version != self.bottom.version:
            raise InvalidInputError("pair levels must share a version")

    @property
    def version(self) -> int:
        return self.top.version

    @property
    def precision(self) -> int | None:
        return None if self._tables is None else self._tables[0].precision

    @classmethod
    def seeded(cls, obs_alphabet: int, alphabets, block_len: int, seed: int) -> "LatentModelPair":
        """Unfitted pair of `random_model`s, top seeded 2*seed+1, bottom 2*seed+2."""
        check_seed(seed)
        return cls(random_model(obs_alphabet, alphabets, block_len=block_len, seed=2 * seed + 1),
                   random_model(obs_alphabet, alphabets, block_len=block_len, seed=2 * seed + 2))

    @classmethod
    def from_tables(cls, top: CodingTables, bottom: CodingTables) -> "LatentModelPair":
        """The pair of the dyadic models of `top` and `bottom`, holding them
        as its tables at their precision: what the pair stores is what it
        codes with."""
        if top.precision != bottom.precision:
            raise InvalidInputError("pair levels must share a precision")
        pair = cls(top.dyadic, bottom.dyadic)
        object.__setattr__(pair, "_tables", (top, bottom))
        return pair

    def copy(self) -> "LatentModelPair":
        """A float pair of copies of the models."""
        return LatentModelPair(self.top.copy(), self.bottom.copy())

    def check_precision(self, precision: int, error=InvalidInputError) -> None:
        """`error` unless precision is one the coder takes, 2**precision
        covers every alphabet of both levels, as the coder's quantized
        tables need, and a pair that codes at a precision codes at this one."""
        check_precision(precision, max(max(model.obs_alphabet, *model.alphabets)
                                       for model in (self.top, self.bottom)), error)
        if self.precision not in (None, precision):
            raise error(f"the models are stored at precision {self.precision}, not {precision}")

    def quantized(self, precision: int) -> "LatentModelPair":
        """The pair that codes at `precision`: this pair if it already does,
        else the `from_tables` pair of both levels' `build_coding_tables`.
        InvalidInputError as `check_precision` gives it, so a pair that
        codes at one precision is never coded at another."""
        self.check_precision(precision)
        if self.precision == precision:
            return self
        return LatentModelPair.from_tables(build_coding_tables(self.top, precision),
                                           build_coding_tables(self.bottom, precision))

    def check_codec(self, codec: CodecParams, error=InvalidInputError) -> None:
        """`error` unless both levels observe exactly the codec's codes."""
        if not self.top.obs_alphabet == self.bottom.obs_alphabet == codec.codebook_size:
            raise error(f"the models (observation alphabets {self.top.obs_alphabet} and "
                        f"{self.bottom.obs_alphabet}) do not fit the codec "
                        f"({codec.codebook_size} codes)")

    def blocks(self, indices) -> tuple[list, list]:
        """(top, bottom) blocks of every grid of some stacked (top, bottom)
        index arrays, grid by grid: each level's row-major symbols, chunked
        to that level's block length."""
        top, bottom = [], []
        for top_grids, bottom_grids in indices:
            for t, b in zip(top_grids, bottom_grids):
                top += chunk_symbols(t, self.top.block_len)
                bottom += chunk_symbols(b, self.bottom.block_len)
        return top, bottom

    def refit(self, indices, config: FitConfig) -> "LatentModelPair":
        """The one way to fit a pair: `finetune` of each level, warm-started
        from this pair, on the `blocks` of some stacked (top, bottom) index
        arrays, `quantized` at this pair's precision.  StateError on a float
        pair, which has no precision to keep."""
        precision = self.tables()[0].precision
        top, bottom = self.blocks(indices)
        return LatentModelPair(finetune(self.top, top, config),
                               finetune(self.bottom, bottom, config)).quantized(precision)

    def tables(self) -> tuple[CodingTables, CodingTables]:
        """The (top, bottom) coding tables the pair codes with.  StateError
        on a float pair, which holds none."""
        if self._tables is None:
            raise StateError("a pair of float models codes nothing; quantize it first")
        return self._tables

    def serialize(self) -> bytes:
        """The model file of the pair's coding tables, built on the first
        call and kept for the later ones."""
        if self._file is None:
            object.__setattr__(self, "_file", serialize_models(self.tables()))
        return self._file

    @staticmethod
    def deserialize(data: bytes) -> "LatentModelPair":
        """The pair of a model file: its dyadic models, holding the stored
        tables at the stored precision, and `data` as its file."""
        tables = deserialize_models(data)
        if len(tables) != 2:
            raise DataCorruptionError(f"expected 2 model records, found {len(tables)}")
        top, bottom = tables
        if top.model_version != bottom.model_version:
            raise DataCorruptionError(f"pair levels have versions {top.model_version} "
                                      f"and {bottom.model_version}; they must share one")
        pair = LatentModelPair.from_tables(top, bottom)
        object.__setattr__(pair, "_file", bytes(data))
        return pair


def _block_lens(n_symbols: int, block_len: int) -> list[int]:
    return [min(block_len, n_symbols - i) for i in range(0, n_symbols, block_len)]


def _lane_blocks(symbols: np.ndarray, block_len: int) -> list[np.ndarray]:
    """Columns of an (N, n) symbol array in blocks; the last may be shorter."""
    return [symbols[:, i:i + block_len] for i in range(0, symbols.shape[1], block_len)]


def _by_geometry(shapes) -> list[list[int]]:
    """Indices of equal (top, bottom) shapes, grouped in first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    return list(groups.values())


def compress_shelves(indices, pair: LatentModelPair, seeds,
                     initial_bits: int = DEFAULT_INITIAL_BITS) -> list[list[CompressedStream]]:
    """A stream per grid of every shelf, where shelf i is the stacked
    (top, bottom) index arrays indices[i] and seeds[i] lists one seed per
    grid: both levels' row-major symbols, chunked to each level's block
    length and coded from the initial bits seeded with that grid's seed,
    under the pair's tables.  The grids of every shelf of one geometry are
    coded side by side, one coder lane each; a stream does not depend on
    the other grids in the call.  InvalidInputError unless there is one
    seed list per shelf and one seed per grid; StateError on a float pair."""
    top_tables, bottom_tables = pair.tables()
    indices, seeds = list(indices), list(seeds)
    if len(seeds) != len(indices) or any(len(s) != len(t) for (t, _), s in zip(indices, seeds)):
        raise InvalidInputError("need one seed list per shelf and one seed per grid")
    out = [None] * len(indices)
    for members in _by_geometry((top.shape[1:], bottom.shape[1:]) for top, bottom in indices):
        top = np.concatenate([indices[i][0] for i in members])
        bottom = np.concatenate([indices[i][1] for i in members])
        streams = iter(encode_streams(
            [(_lane_blocks(top.reshape(len(top), -1), pair.top.block_len), top_tables),
             (_lane_blocks(bottom.reshape(len(bottom), -1), pair.bottom.block_len),
              bottom_tables)],
            [seed for i in members for seed in seeds[i]], initial_bits=initial_bits))
        for i in members:
            out[i] = [next(streams) for _ in seeds[i]]
    return out


def decompress_shelves(streams, shapes,
                       pair: LatentModelPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """The stacked int32 (top, bottom) index arrays of every shelf, where
    shelf i holds the streams streams[i] of grids of shapes[i] = (top
    shape, bottom shape), decoded under the pair's tables.  The streams of
    every shelf of one geometry are decoded side by side, one coder lane
    each.  InvalidInputError unless there is one shape per shelf;
    StateError on a float pair."""
    top_tables, bottom_tables = pair.tables()
    streams, shapes = list(streams), [(tuple(t), tuple(b)) for t, b in shapes]
    if len(shapes) != len(streams):
        raise InvalidInputError(f"{len(streams)} shelves of streams, {len(shapes)} shapes")
    out = [None] * len(streams)
    for members in _by_geometry(shapes):
        top_shape, bottom_shape = shapes[members[0]]
        # Checked before any block list is built, as a stored shape may be huge.
        codes = math.prod(top_shape) + math.prod(bottom_shape)
        if any(s.symbol_count != codes for i in members for s in streams[i]):
            raise DataCorruptionError(f"a stream's symbol count is not its grids' {codes} codes")
        top_lens = _block_lens(math.prod(top_shape), pair.top.block_len)
        bottom_lens = _block_lens(math.prod(bottom_shape), pair.bottom.block_len)
        top, bottom = (np.concatenate(blocks, axis=1, dtype=np.int32)
                       for blocks in decode_streams(
                           [stream for i in members for stream in streams[i]],
                           [(top_lens, top_tables), (bottom_lens, bottom_tables)]))
        ends = np.cumsum([len(streams[i]) for i in members])[:-1]
        for i, t, b in zip(members, np.split(top.reshape(-1, *top_shape), ends),
                           np.split(bottom.reshape(-1, *bottom_shape), ends)):
            out[i] = t, b
    return out


def decompress_grid(stream: CompressedStream, pair: LatentModelPair,
                    top_shape, bottom_shape,
                    tables: tuple[CodingTables, CodingTables] | None = None) -> CodeGrid:
    """One stream's grid: the one-stream shelf of `decompress_shelves`,
    under the pair's tables, or under `from_tables(*tables)` if given."""
    if tables is not None:
        pair = LatentModelPair.from_tables(*tables)
    [(top, bottom)] = decompress_shelves([[stream]], [(top_shape, bottom_shape)], pair)
    return CodeGrid(top=top[0], bottom=bottom[0])


# -- compressed replay buffer ------------------------------------------------------

def _stream_entry(label: int, index: int) -> tuple[str, str]:
    """The index line of a class's stream `index` and the file it names:
    the one form `save` writes and `load` accepts."""
    name = f"{STREAM_DIR}/{label}_{index}.drrs"
    return f"stream label={label} index={index} file={name}", name


@dataclass
class ClassShelf:
    """A class's stacked int32 (top, bottom) index arrays and their streams."""

    label: int
    image_shape: tuple[int, int, int]
    indices: tuple[np.ndarray, np.ndarray]
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
    """Compressed exemplar store over a frozen codec and a model pair.  From
    construction on it holds the dyadic pair of the tables it codes with,
    the pair `save` stores, so a save and `load` change no later refit."""

    def __init__(self, codec: CodecParams, pair: LatentModelPair,
                 exemplars_per_class: int = DEFAULT_EXEMPLARS_PER_CLASS,
                 precision: int = DEFAULT_PRECISION, initial_bits: int = DEFAULT_INITIAL_BITS,
                 seed: int = 0):
        if exemplars_per_class < 1:
            raise InvalidInputError("need at least one exemplar per class")
        if initial_bits < 0 or initial_bits % 8:
            raise InvalidInputError("initial_bits must be a nonnegative multiple of 8")
        check_seed(seed)
        pair.check_codec(codec)
        self.codec = codec
        self.pair = pair.quantized(precision)
        self.exemplars_per_class = exemplars_per_class
        self.initial_bits = initial_bits
        self.seed = seed
        self._shelves: dict[int, ClassShelf] = {}

    @property
    def precision(self) -> int:
        return self.pair.precision

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

    def ingest_phase(self, class_data, fit_config: FitConfig = FitConfig()) -> dict[int, IngestReport]:
        """Add one phase's classes: pick exemplars per class, refit the
        models once on everything stored plus the newcomers, then re-encode
        the whole buffer under the bumped version."""
        self._require_frozen()
        items = sorted((_class_label(label), images) for label, images in class_data.items())
        if not items:
            raise InvalidInputError("a phase must add at least one class")
        for label, _ in items:
            if label in self._shelves:
                raise InvalidInputError(f"class {label} was already ingested")
        if len({label for label, _ in items}) != len(items):
            raise InvalidInputError("duplicate class labels within the phase")

        # One set of index arrays for the refit and the re-encode: new
        # classes in label order, then the stored classes in label order, the
        # order `load` rebuilds them in.  `fit` sums in block order, so this
        # order is part of the fitted bits.
        new_shelves = {}
        for label, images in items:
            chosen = class_exemplars(images, self.exemplars_per_class, self.seed, label)
            new_shelves[label] = ClassShelf(label=label, image_shape=tuple(chosen.shape[1:]),
                                            indices=encode_indices(chosen, self.codec))
        indices = {label: shelf.indices
                   for label, shelf in (*new_shelves.items(), *sorted(self._shelves.items()))}

        self.pair = self.pair.refit(indices.values(), fit_config)
        streams = compress_shelves(
            indices.values(), self.pair,
            [[self._stream_seed(label, i) for i in range(len(grids))]
             for label, (grids, _) in indices.items()],
            initial_bits=self.initial_bits)
        self._shelves.update(new_shelves)
        for label, shelf_streams in zip(indices, streams):
            self._shelves[label].streams = shelf_streams

        return {label: IngestReport(
                    label=label,
                    exemplar_count=len(shelf.streams),
                    symbol_count=sum(s.symbol_count for s in shelf.streams),
                    net_bits=sum(s.net_bits for s in shelf.streams),
                    gross_bits=sum(s.gross_bits for s in shelf.streams),
                    returned_bits=sum(s.returned_bits for s in shelf.streams),
                    peak_demand_bits=max(s.peak_demand_bits for s in shelf.streams),
                    stream_bytes=sum(len(serialize_stream(s)) for s in shelf.streams),
                    model_version=self.pair.version)
                for label, shelf in new_shelves.items()}

    def reconstruct_class(self, label: int) -> np.ndarray:
        if label not in self._shelves:
            raise InvalidInputError(f"class {label} is not stored")
        return decode_indices(*self._shelves[label].indices, self.codec)

    def reconstruct_all(self) -> dict[int, np.ndarray]:
        """Every stored class, each in one decoder pass over the index
        arrays its shelf holds."""
        return {label: decode_indices(*self._shelves[label].indices, self.codec)
                for label in self.class_labels}

    def account(self) -> MemoryReport:
        """Stored bytes: every stream, and the codec and model files the
        codec and the pair keep, so no call deflates either again."""
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
        write_file(os.path.join(directory, CODEC_NAME), serialize_codec(self.codec))
        write_file(os.path.join(directory, MODELS_NAME), self.pair.serialize())
        lines = [INDEX_HEADER,
                 f"seed={self.seed} initial_bits={self.initial_bits} "
                 f"exemplars_per_class={self.exemplars_per_class} classes={len(self._shelves)}"]
        for label in self.class_labels:
            shelf = self._shelves[label]
            h, w, c = shelf.image_shape
            (_, ht, wt), (_, hb, wb) = (grids.shape for grids in shelf.indices)
            lines.append(f"class label={label} image={h},{w},{c} "
                         f"top={ht},{wt} bottom={hb},{wb}")
            for i, stream in enumerate(shelf.streams):
                line, name = _stream_entry(label, i)
                lines.append(line)
                write_file(os.path.join(directory, name), serialize_stream(stream))
        write_file(os.path.join(directory, INDEX_NAME), ("\n".join(lines) + "\n").encode())

    @staticmethod
    def load(directory: str) -> "ReplayBuffer":
        try:
            lines = [ln.strip() for ln in read_lines(os.path.join(directory, INDEX_NAME))
                     if ln.strip()]
            codec = deserialize_codec(read_file(os.path.join(directory, CODEC_NAME)))
            pair = LatentModelPair.deserialize(read_file(os.path.join(directory, MODELS_NAME)))
        except OSError as exc:
            raise DataCorruptionError(f"unreadable buffer directory: {exc}") from exc
        if not lines or lines[0] != INDEX_HEADER:
            raise DataCorruptionError("bad index header")
        if len(lines) < 2:
            raise DataCorruptionError("index has no options line")
        opts = parse_record(lines[1], None,
                            ("seed", "initial_bits", "exemplars_per_class", "classes"))
        pair.check_codec(codec, DataCorruptionError)
        try:
            # The model file holds the precision, checked when it was read.
            buffer = ReplayBuffer(codec, pair,
                                  exemplars_per_class=int(opts["exemplars_per_class"]),
                                  precision=pair.precision,
                                  initial_bits=int(opts["initial_bits"]),
                                  seed=int(opts["seed"]))
            classes = int(opts["classes"])
        except ValueError as exc:
            raise DataCorruptionError(f"corrupt buffer options: {exc}") from exc
        # label -> (image shape, (top shape, bottom shape), streams), in index order
        entries: dict[int, tuple] = {}
        try:
            i = 2
            while i < len(lines):
                info = parse_record(lines[i], "class", ("label", "image", "top", "bottom"))
                i += 1
                label = int(info["label"])
                if label < 0:
                    raise DataCorruptionError(f"class label {label} is negative")
                if label in entries:
                    raise DataCorruptionError(f"class {label} is listed twice")
                image_shape = parse_positive_ints(info["image"])
                shapes = parse_positive_ints(info["top"]), parse_positive_ints(info["bottom"])
                if code_shapes(image_shape, codec) != shapes:
                    raise DataCorruptionError(
                        f"class {label}: image={info['image']} top={info['top']} "
                        f"bottom={info['bottom']} do not fit the codec "
                        f"(patch {codec.patch}, pool {codec.pool}, {codec.channels} channels)")
                # `ingest_phase` stores exactly exemplars_per_class streams a class.
                streams = []
                for index in range(buffer.exemplars_per_class):
                    line, name = _stream_entry(label, index)
                    if lines[i] != line:
                        raise DataCorruptionError(
                            f"stream file entry {lines[i]!r} should read {line!r}")
                    i += 1
                    stream = deserialize_stream(read_file(os.path.join(directory, name)))
                    stream.initial_bits = buffer.initial_bits
                    streams.append(stream)
                entries[label] = image_shape, shapes, streams
        except (OSError, ValueError, IndexError) as exc:
            raise DataCorruptionError(f"corrupt buffer index: {exc}") from exc
        if len(entries) != classes:
            raise DataCorruptionError(
                f"index lists {len(entries)} classes, its options line says {classes}")
        # The one decode of every stream; one under other models fails here.
        decoded = decompress_shelves([streams for _, _, streams in entries.values()],
                                     [shapes for _, shapes, _ in entries.values()],
                                     buffer.pair)
        for (label, (image_shape, _, streams)), indices in zip(entries.items(), decoded):
            buffer._shelves[label] = ClassShelf(label=label, image_shape=image_shape,
                                                indices=indices, streams=streams)
        return buffer
