"""Lossless coding of discrete code sequences with latent-variable models.

The model is a fully discrete Markov chain: a prior over the deepest latent,
per-level conditional tables downward, and an observation table emitting
code symbols from the first latent.  Blocks of B symbols share one latent
chain.  Inference runs the other way: a posterior table for the first
latent given a block's leading symbol, then per-level transition tables.

Encoding uses the bits-back construction on a stack coder: latents are
*popped* from the message under the inference tables (recovering their cost
later), then the observed block and the latents are pushed under the
generative tables.  Streams use the interleaved Bit-Swap schedule
("bitswap"), which pushes each level before popping the next, so it never
needs more auxiliary slack up front than plain bits-back ("bb"), which pops
the whole chain first, at the same expected net rate.  Net cost per block
is, on average, the negative evidence lower bound of the model, so tighter
models pay fewer bits.

All tables are quantized to coder frequencies before any coding, and the
accounting runs on those quantized tables, so measured net bits line up
exactly with the bound computed from the same quantized model.
`build_coding_tables` holds each quantized table once, as one `PmfTable`.
A model file stores exactly those frequencies, so a load quantizes nothing.

Every block is coded by one routine on the lane coder, which takes the
schedule as a flag.  `encode_streams` and `decode_streams` code N messages
of one geometry side by side, one lane each and always in the Bit-Swap
order, with the block chain of every lane still sequential;
`encode_stream` and `decode_stream` are the one-lane case.
`encode_blocks` and `decode_blocks` chain blocks on an `AnsCoder` under
either schedule (METHODS, checked by `check_method`) by running the same
routine on one lane started from the coder's state and stack; the plain
schedule lives only there, to measure Bit-Swap against.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .container import read_uvarint, seal, unseal, uvarint
from .errors import (
    DataCorruptionError,
    ExhaustedStreamError,
    InsufficientInitialBitsError,
    InvalidInputError,
    check_seed,
)
# pmf_quantize is not called here any more, but stays importable from this
# module: the benchmark's tracer wraps it by name.
from .rans import (  # noqa: F401
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    RANS_L,
    AnsCoder,
    LaneCoder,
    PmfTable,
    pmf_quantize,
    quantize_rows,
)

MODEL_MAGIC = b"DRRM"
MODEL_FORMAT_VERSION = 3
STREAM_MAGIC = b"DRRS"
STREAM_FORMAT_VERSION = 4

_MODEL_RECORD = struct.Struct("<IHIH")  # model version, levels, obs alphabet, block length
_MODEL_FIELDS = (("model version", 32), ("levels", 16), ("observation alphabet", 32),
                 ("block length", 16))  # each record field's name and width in bits
STORED_FREQ = np.dtype("<u2")  # a model file's frequency, freq - 1: at most 2**16 - 1

DEFAULT_BLOCK_LEN = 16
DEFAULT_INITIAL_BITS = 256

LN2 = float(np.log(2.0))


def table_shapes(obs_alphabet: int, alphabets) -> dict:
    """The table layout of a chain model over observed alphabet K and level
    alphabets A_0..A_{L-1}: every table field's shape, or for the two link
    fields the list of their L-1 shapes, in serialization order.

    Orientations (rows are what a table conditions on):
      p_obs[a, k]      p(x = k | z_0 = a)
      p_link[i][b, a]  p(z_i = a | z_{i+1} = b)
      p_top[a]         p(z_{L-1} = a)
      q_obs[k, a]      q(z_0 = a | block starts with k)
      q_link[i][a, b]  q(z_{i+1} = b | z_i = a)
    """
    k, a = obs_alphabet, alphabets
    links = range(len(a) - 1)
    return {"p_obs": (a[0], k), "p_link": [(a[i + 1], a[i]) for i in links],
            "p_top": (a[-1],), "q_obs": (k, a[0]), "q_link": [(a[i], a[i + 1]) for i in links]}


_TABLE_FIELDS = tuple(table_shapes(1, (1,)))  # the table fields, in serialization order


def _flatten(fields: dict) -> list:
    """(name, entry) per table of a dict laid out as `table_shapes`, in
    order; a link table's name carries its index, as in p_link[0]."""
    out = []
    for name, entry in fields.items():
        if isinstance(entry, list):
            out += [(f"{name}[{i}]", item) for i, item in enumerate(entry)]
        else:
            out.append((name, entry))
    return out


def _grouped(layout: dict, tables) -> dict:
    """The inverse of `_flatten`: a flat list of tables as the fields of
    `layout`; InvalidInputError unless the count matches."""
    tables, want = list(tables), len(_flatten(layout))
    if len(tables) != want:
        raise InvalidInputError(f"expected {want} tables, got {len(tables)}")
    rest = iter(tables)
    return {name: [next(rest) for _ in entry] if isinstance(entry, list) else next(rest)
            for name, entry in layout.items()}


@dataclass
class LatentChainModel:
    """Categorical chain model over blocks of code symbols, with the tables
    laid out as `table_shapes` gives them.

    Every row is a PMF.  The posterior of the first latent conditions on a
    block's first symbol only, which keeps every coding distribution a
    plain table row.
    """

    obs_alphabet: int
    alphabets: tuple[int, ...]
    block_len: int
    p_obs: np.ndarray
    p_link: list[np.ndarray]
    p_top: np.ndarray
    q_obs: np.ndarray
    q_link: list[np.ndarray]
    version: int = 0

    @classmethod
    def from_tables(cls, obs_alphabet: int, alphabets, block_len: int, tables,
                    version: int = 0) -> "LatentChainModel":
        """The model whose `tables()` are `tables`, a flat list in
        serialization order."""
        alphabets = tuple(alphabets)
        return cls(obs_alphabet, alphabets, block_len, version=version,
                   **_grouped(table_shapes(obs_alphabet, alphabets), tables))

    @property
    def levels(self) -> int:
        return len(self.alphabets)

    def _table_fields(self) -> dict:
        return {name: getattr(self, name) for name in _TABLE_FIELDS}

    def copy(self) -> "LatentChainModel":
        fields = self._table_fields()
        return replace(self, **_grouped(fields, [t.copy() for _, t in _flatten(fields)]))

    def tables(self):
        """All tables with their names, in serialization order."""
        return _flatten(self._table_fields())

    def validate(self, atol: float = 1e-9) -> None:
        """InvalidInputError unless every shape fits the alphabets and every
        row is a PMF: no entry below -atol or non-finite, and every row sum
        within `np.allclose` (atol, default rtol) of 1.

        All tables are checked in one pass; only a failing model is walked
        table by table, to name the first table that fails.
        """
        k, alphas, levels = self.obs_alphabet, self.alphabets, self.levels
        if levels < 1 or k < 1 or self.block_len < 1 or min(alphas) < 1:
            raise InvalidInputError("levels, alphabets, and block length must be positive")
        if len(self.p_link) != levels - 1 or len(self.q_link) != levels - 1:
            raise InvalidInputError(f"expected {levels - 1} link tables per direction")
        named = self.tables()
        for (name, table), (_, want) in zip(named, _flatten(table_shapes(k, alphas))):
            if table.shape != want:
                raise InvalidInputError(f"{name} must have shape {want}")
        named = [(name, np.atleast_2d(table)) for name, table in named]
        entries = np.concatenate([rows.ravel() for _, rows in named])
        if not np.any((entries < -atol) | ~np.isfinite(entries)) and np.allclose(
                np.concatenate([rows.sum(axis=1) for _, rows in named]), 1.0, atol=atol):
            return
        for name, rows in named:
            if np.any(rows < -atol) or not np.all(np.isfinite(rows)):
                raise InvalidInputError(f"{name} has negative or non-finite entries")
            if not np.allclose(rows.sum(axis=1), 1.0, atol=atol):
                raise InvalidInputError(f"{name} rows must sum to 1")


def random_model(obs_alphabet: int, alphabets, block_len: int = DEFAULT_BLOCK_LEN,
                 seed: int = 0, concentration: float = 2.0,
                 version: int = 0) -> LatentChainModel:
    """Seeded model with Dirichlet rows; a generic starting point for `fit`."""
    alphabets = tuple(int(a) for a in alphabets)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    # The draw order fixes the model: one Dirichlet draw per row, table by table.
    tables = [rng.dirichlet(np.full(shape[-1], concentration), size=shape[:-1] or None)
              for _, shape in _flatten(table_shapes(obs_alphabet, alphabets))]
    model = LatentChainModel.from_tables(obs_alphabet, alphabets, block_len, tables, version)
    model.validate()
    return model


def _sample_from_rows(table: np.ndarray, cond: np.ndarray, rng) -> np.ndarray:
    cdf = np.cumsum(table, axis=1)[cond]
    u = rng.random(len(cond))
    return np.minimum((cdf < u[:, None]).sum(axis=1), table.shape[1] - 1)


def sample_blocks(model: LatentChainModel, n_blocks: int, rng) -> list[np.ndarray]:
    """Ancestral samples of observed blocks, one latent chain per block."""
    z = _sample_from_rows(model.p_top[None, :], np.zeros(n_blocks, dtype=int), rng)
    for i in reversed(range(model.levels - 1)):
        z = _sample_from_rows(model.p_link[i], z, rng)
    cdf = np.cumsum(model.p_obs, axis=1)[z]
    u = rng.random((n_blocks, model.block_len))
    x = np.minimum((cdf[:, None, :] < u[:, :, None]).sum(axis=2), model.obs_alphabet - 1)
    return [x[i].astype(np.int64) for i in range(n_blocks)]


def chunk_symbols(symbols, block_len: int) -> list[np.ndarray]:
    """Split a flat symbol sequence into blocks; the last may be shorter."""
    if block_len < 1:
        raise InvalidInputError("block length must be positive")
    flat = np.asarray(symbols, dtype=np.int64).reshape(-1)
    return [flat[i:i + block_len] for i in range(0, len(flat), block_len)]


# -- exact bound computation -------------------------------------------------

def _check_block(block, obs_alphabet: int) -> np.ndarray:
    """The block's symbols as a flat int64 array; InvalidInputError unless
    there is at least one and all are within the alphabet."""
    x = np.asarray(block, dtype=np.int64).reshape(-1)
    if x.size == 0 or x.min() < 0 or x.max() >= obs_alphabet:
        raise InvalidInputError("block symbols must be nonempty and within the alphabet")
    return x


def _block_stats(blocks, obs_alphabet: int):
    """Each block's first symbol and symbol histogram; InvalidInputError
    unless there are blocks and each passes `_check_block`.

    The histogram is one `np.bincount` over the flat bins
    block * obs_alphabet + symbol.
    """
    flat = [np.asarray(b, dtype=np.int64).reshape(-1) for b in blocks]
    if not flat:
        raise InvalidInputError("no blocks given")
    lens = np.array([len(b) for b in flat])
    if lens.min() == 0:
        raise InvalidInputError("block symbols must be nonempty and within the alphabet")
    symbols = _check_block(np.concatenate(flat), obs_alphabet)
    x0 = symbols[np.cumsum(lens) - lens]
    bins = np.repeat(np.arange(len(flat)) * obs_alphabet, lens) + symbols
    hist = np.bincount(bins, minlength=len(flat) * obs_alphabet)
    return x0, hist.reshape(len(flat), obs_alphabet).astype(np.float64)


def _obs_loglik(hist: np.ndarray, p_obs: np.ndarray) -> np.ndarray:
    """log p(block | z_0 = a) per block and a, from the blocks' histograms:
    exactly -inf where a used symbol has zero mass under row a.

    The histograms hold small integer counts, so the float product with the
    zero-mass indicator is exact and positive just where the boolean product
    `(hist > 0) @ (p_obs.T == 0)` is true.
    """
    with np.errstate(divide="ignore"):
        log_p_obs = np.log(p_obs)
    ll = hist @ np.where(np.isfinite(log_p_obs), log_p_obs, 0.0).T
    ll[hist @ (p_obs == 0).T.astype(np.float64) > 0] = -np.inf
    return ll


def elbo_per_block(blocks, model: LatentChainModel) -> np.ndarray:
    """Evidence lower bound of each block in bits (so usually negative).

    Exact: expectations are summed over the chain level by level, never
    sampled.  Blocks containing a symbol the model gives zero mass produce
    -inf.
    """
    x0, hist = _block_stats(blocks, model.obs_alphabet)
    ll = _obs_loglik(hist, model.p_obs)
    with np.errstate(divide="ignore"):
        log_q_obs = np.log(model.q_obs)
        log_p_top = np.log(model.p_top)

    m = model.q_obs[x0]  # (n, A_0) marginal of z_0 under q
    lq = log_q_obs[x0]
    total = _masked_sum(m, ll) - _masked_sum(m, lq)
    for i in range(model.levels - 1):
        q = model.q_link[i]
        with np.errstate(divide="ignore"):
            lp = np.log(model.p_link[i].T)  # [a, b] = log p(z_i=a | z_{i+1}=b)
            lql = np.log(q)
        joint = m[:, :, None] * q[None, :, :]
        total += _masked_sum(joint, (lp - lql)[None, :, :])
        m = m @ q
    total += _masked_sum(m, log_p_top[None, :])
    return total / LN2


def _masked_sum(weights: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """sum(w * log) over trailing axes with the 0 * log(0) = 0 convention."""
    with np.errstate(invalid="ignore"):
        prod = np.where(weights > 0, weights * logs, 0.0)
    axes = tuple(range(1, prod.ndim))
    return prod.sum(axis=axes)


def elbo(block, model: LatentChainModel) -> float:
    return float(elbo_per_block([np.asarray(block)], model)[0])


def mean_elbo(blocks, model: LatentChainModel) -> float:
    return float(elbo_per_block(blocks, model).mean())


# -- quantized coding tables --------------------------------------------------

@dataclass
class CodingTables:
    """Coder tables for one model at one coder precision: one `PmfTable`
    per model table, named as in `LatentChainModel`.

    The lane coder reads the tables whole.  `dyadic` is the same model with
    every row replaced by its quantized probabilities; bounds computed from
    it match coding costs exactly.
    """

    precision: int
    q_obs: PmfTable
    q_link: list[PmfTable]
    p_obs: PmfTable
    p_link: list[PmfTable]
    p_top: PmfTable
    dyadic: LatentChainModel

    @property
    def model_version(self) -> int:
        return self.dyadic.version

    @property
    def levels(self) -> int:
        return self.dyadic.levels


def check_precision(precision: int, widest: int, error=InvalidInputError) -> None:
    """`error` unless precision is one the coder takes and 2**precision
    covers an alphabet of `widest` symbols, as the coder's quantized tables
    need: every symbol of a row gets at least one count."""
    if not MIN_PRECISION <= precision <= MAX_PRECISION:
        raise error(f"precision {precision} outside [{MIN_PRECISION}, {MAX_PRECISION}]")
    if widest > 1 << precision:
        raise error(f"precision {precision} cannot code the models' alphabet "
                    f"of {widest} symbols (at most 2**{precision})")


def _coding_tables(obs_alphabet: int, alphabets, block_len: int, version: int,
                   freqs, precision: int) -> CodingTables:
    """The coding tables of a model whose tables quantize to `freqs`, one
    int64 (rows, alphabet) array per table in `table_shapes` order, each row
    summing to 2**precision: a `PmfTable` per table, and the dyadic model
    freqs / 2**precision, read-only.

    The one construction path of `build_coding_tables` and
    `deserialize_models`.  `fit`'s bits depend on the memory layout of its
    inputs, so a held and a loaded model must agree in layout, not only in
    values.
    """
    layout = table_shapes(obs_alphabet, alphabets)
    scale = float(1 << precision)
    coded, probs = [], []
    for f, (_, shape) in zip(freqs, _flatten(layout)):
        coded.append(PmfTable.from_freqs(f, precision))
        quantized = (f / scale).reshape(shape)
        quantized.flags.writeable = False  # shared by everyone who codes with it
        probs.append(quantized)
    dyadic = LatentChainModel.from_tables(obs_alphabet, alphabets, block_len, probs, version)
    return CodingTables(precision=precision, dyadic=dyadic, **_grouped(layout, coded))


def build_coding_tables(model: LatentChainModel, precision: int = DEFAULT_PRECISION) -> CodingTables:
    """Quantize every table of `model` for the coder, one `quantize_rows`
    call per alphabet.

    `quantize_rows` rounds each row independently of its table, so the
    tables sharing an alphabet are stacked and quantized together, and each
    gets the rows it would get on its own.  Tables are derived once per
    model, not once per use: `LatentModelPair.quantized` builds a pair's
    one table pair, which it holds and hands to every later caller, so the
    models of a pair are immutable.
    """
    model.validate()
    tables = [np.atleast_2d(table) for _, table in model.tables()]
    freqs = [None] * len(tables)
    by_alphabet: dict[int, list[int]] = {}
    for i, table in enumerate(tables):
        by_alphabet.setdefault(table.shape[1], []).append(i)
    for members in by_alphabet.values():
        stacked, _ = quantize_rows(np.concatenate([tables[i] for i in members]), precision)
        bounds = np.cumsum([len(tables[i]) for i in members])[:-1]
        for i, f in zip(members, np.split(stacked, bounds)):
            freqs[i] = f
    return _coding_tables(model.obs_alphabet, model.alphabets, model.block_len,
                          model.version, freqs, precision)


# -- block coding --------------------------------------------------------------

# schedule -> push each level before popping the next (the Bit-Swap order)
_INTERLEAVED = {"bitswap": True, "bb": False}
METHODS = tuple(_INTERLEAVED)  # the coding schedules, by name


def check_method(method: str) -> bool:
    """Whether schedule `method` is interleaved; InvalidInputError if it is
    not one of METHODS."""
    if method not in _INTERLEAVED:
        raise InvalidInputError(f"unknown coding method {method!r}; expected one of {METHODS}")
    return _INTERLEAVED[method]


@contextmanager
def _latent_pops():
    """Report an exhausted coder while latents are popped as too few initial bits."""
    try:
        yield
    except ExhaustedStreamError as exc:
        raise InsufficientInitialBitsError(
            "auxiliary bits exhausted while sampling latents; "
            "seed the coder with more initial bits") from exc


def _encode_block_lanes(coder: LaneCoder, x: np.ndarray, tables: CodingTables,
                        interleaved: bool):
    """Block x[i] on lane i, under either schedule.

    Plain bits-back (not `interleaved`) pops the whole latent chain, then
    pushes the block and every latent.  The interleaved schedule, Bit-Swap,
    pushes each level before popping the next, so the pushes replenish the
    stack between pops and the auxiliary peak never exceeds the plain one's;
    for a single-level chain the two are identical.  The information level
    is noted after every pop, after the block's pushes, after each
    interleaved link push and at the end.  Returns per lane the bits pushed,
    the bits popped, and the information level at the start and at its
    lowest.
    """
    pushed = np.zeros(coder.lanes)
    popped = np.zeros(coder.lanes)
    start = coder.potential()
    low = start.copy()

    def note():
        np.minimum(low, coder.potential(), out=low)

    def pop(rows, table):
        symbols = coder.pop(rows, table)
        np.add(popped, table.cost(rows, symbols), out=popped)
        note()
        return symbols

    def push(symbols, rows, table):
        coder.push(symbols, rows, table)
        np.add(pushed, table.cost(rows, symbols), out=pushed)

    z = [pop(x[:, 0], tables.q_obs)]
    if not interleaved:
        for i in range(tables.levels - 1):
            z.append(pop(z[i], tables.q_link[i]))
    for s in x.T[::-1]:
        push(s, z[0], tables.p_obs)
    note()
    for i in range(tables.levels - 1):
        if interleaved:
            z.append(pop(z[i], tables.q_link[i]))
        push(z[i], z[i + 1], tables.p_link[i])
        if interleaved:
            note()
    push(z[-1], np.zeros(coder.lanes, dtype=np.int64), tables.p_top)
    note()
    return pushed, popped, start, low


def _decode_block_lanes(coder: LaneCoder, block_len: int, tables: CodingTables,
                        interleaved: bool) -> np.ndarray:
    """Exact inverse of `_encode_block_lanes`; returns the (lanes, block_len) block."""
    z = [None] * tables.levels
    z[-1] = coder.pop(np.zeros(coder.lanes, dtype=np.int64), tables.p_top)
    for i in reversed(range(tables.levels - 1)):
        z[i] = coder.pop(z[i + 1], tables.p_link[i])
        if interleaved:
            coder.push(z[i + 1], z[i], tables.q_link[i])
    x = np.stack([coder.pop(z[0], tables.p_obs) for _ in range(block_len)], axis=1)
    if not interleaved:
        for i in reversed(range(tables.levels - 1)):
            coder.push(z[i + 1], z[i], tables.q_link[i])
    coder.push(z[0], x[:, 0], tables.q_obs)
    return x


@dataclass
class StreamStats:
    gross_bits: float = 0.0
    returned_bits: float = 0.0
    peak_demand_bits: float = 0.0  # the largest demand of any one block


def encode_blocks(coder: AnsCoder, blocks, tables: CodingTables,
                  method: str = "bitswap") -> StreamStats:
    """Encode blocks in order under schedule `method`; decode unwinds them
    back to front.  They are coded on one `LaneCoder` lane started from
    `coder`'s state and stack, and `coder` ends with the lane's."""
    interleaved = check_method(method)
    lane = LaneCoder([coder.state], [bytes(coder.stack)])
    stats = StreamStats()
    for block in blocks:
        x = _check_block(block, tables.dyadic.obs_alphabet)[None, :]
        with _latent_pops():
            pushed, popped, start, low = _encode_block_lanes(lane, x, tables, interleaved)
        stats.gross_bits += float(pushed[0])
        stats.returned_bits += float(popped[0])
        stats.peak_demand_bits = max(stats.peak_demand_bits, float(start[0] - low[0]))
    coder.state, coder.stack = int(lane.state[0]), bytearray(lane.stack[0, :lane.height[0]])
    return stats


def decode_blocks(coder: AnsCoder, block_lens, tables: CodingTables,
                  method: str = "bitswap") -> list[np.ndarray]:
    """Decode `len(block_lens)` blocks and return them in encode order."""
    interleaved = check_method(method)
    lane = LaneCoder([coder.state], [bytes(coder.stack)])
    out = [_decode_block_lanes(lane, n, tables, interleaved)[0]
           for n in reversed(list(block_lens))]
    out.reverse()
    coder.state, coder.stack = int(lane.state[0]), bytearray(lane.stack[0, :lane.height[0]])
    return out


# -- compressed streams --------------------------------------------------------

def encode_streams(sections, seeds,
                   initial_bits: int = DEFAULT_INITIAL_BITS) -> list["CompressedStream"]:
    """Code N messages of one geometry side by side, one coder lane each,
    every block in the Bit-Swap order.

    `sections` lists (blocks, tables) as for `encode_stream`, except that
    each block is an (N, len) array whose row i belongs to message i, and
    message i starts from the initial bits seeded with seeds[i].  Stream i
    is exactly what `encode_stream` gives for its own blocks and seed: the
    same payload and the same accounting, bit for bit.  A payload stores
    only the stack above its lane's lowest height, and the count of seeded
    bytes its decoder restores.
    """
    sections = list(sections)
    if not sections:
        raise InvalidInputError("need at least one section")
    versions = {tables.model_version for _, tables in sections}
    if len(versions) != 1:
        raise InvalidInputError("all sections in a stream must share a model version")
    coder = LaneCoder.with_random_bits(initial_bits, seeds)
    start = coder.potential()
    low = start.copy()
    gross = np.zeros(coder.lanes)
    returned = np.zeros(coder.lanes)
    count = 0
    for blocks, tables in sections:
        for block in blocks:
            x = np.asarray(block, dtype=np.int64)
            if x.ndim != 2 or len(x) != coder.lanes:
                raise InvalidInputError(f"each block must hold one row per message ({coder.lanes})")
            _check_block(x, tables.dyadic.obs_alphabet)
            with _latent_pops():
                pushed, popped, before, block_low = _encode_block_lanes(coder, x, tables, True)
            gross += pushed
            returned += popped
            # before - (before - low), not low: the float encode_stream always kept.
            np.minimum(low, before - (before - block_low), out=low)
            count += x.shape[1]
    version = versions.pop()
    return [CompressedStream(payload=payload, symbol_count=count, model_version=version,
                             initial_bits=initial_bits, gross_bits=g, returned_bits=r,
                             peak_demand_bits=peak)
            for payload, g, r, peak in zip(coder.serialize(), gross.tolist(),
                                           returned.tolist(), (start - low).tolist())]


def decode_streams(streams, sections) -> list[list[np.ndarray]]:
    """Invert `encode_streams`: decode N streams of one geometry side by side.

    `sections` lists (block_lens, tables) as for `decode_stream`, shared by
    every stream.  The result holds per section its blocks in encode order,
    each an (N, len) array whose row i comes from streams[i].  Every stream
    gets each check `decode_stream` makes, and one bad stream fails the call.
    """
    streams = list(streams)
    sections = [(list(lens), tables) for lens, tables in sections]
    coder = LaneCoder.deserialize(stream.payload for stream in streams)
    decoded = sum(sum(lens) for lens, _ in sections)
    for stream, restored in zip(streams, coder.start.tolist()):
        for _, tables in sections:
            if tables.model_version != stream.model_version:
                raise DataCorruptionError(
                    f"stream was coded with model version {stream.model_version}, "
                    f"got tables for version {tables.model_version}")
        if decoded != stream.symbol_count:
            raise DataCorruptionError(
                f"decoding {decoded} symbols, stream record says {stream.symbol_count}")
        if stream.initial_bits is not None and restored > stream.initial_bits // 8:
            raise DataCorruptionError(
                f"stream restores {restored} seeded bytes, more than the "
                f"{stream.initial_bits // 8} it was seeded with")
    try:
        out = [[_decode_block_lanes(coder, n, tables, True) for n in reversed(lens)][::-1]
               for lens, tables in reversed(sections)]
    except ExhaustedStreamError as exc:
        raise DataCorruptionError("stream ended mid-decode") from exc
    out.reverse()
    if np.any(coder.state != RANS_L):
        raise DataCorruptionError("coder did not unwind to its initial state")
    for height, restored in zip(coder.height.tolist(), coder.start.tolist()):
        if height != restored:
            raise DataCorruptionError(
                f"coder unwound to {height} bytes, expected the {restored} seeded bytes "
                f"the stream restores")
    return out


def encode_stream(sections, initial_bits: int = DEFAULT_INITIAL_BITS,
                  seed: int = 0) -> "CompressedStream":
    """Code sections of blocks (each with its own tables) into one message.

    The coder starts on `initial_bits` seeded bits.  The payload stores
    none of the seeded bytes the encoder left unread, and only the count of
    those it read, which the decoder restores; the accounting fields count
    only what the blocks pushed minus what they recovered.  The one-lane
    case of `encode_streams`.
    """
    sections = [([np.reshape(block, (1, -1)) for block in blocks], tables)
                for blocks, tables in sections]
    return encode_streams(sections, [seed], initial_bits=initial_bits)[0]


def decode_stream(stream: CompressedStream, sections) -> list[list[np.ndarray]]:
    """Invert `encode_stream`; the one-lane case of `decode_streams`.

    `sections` lists (block_lens, tables) in the order they were encoded;
    the result keeps that order.  The coder must unwind exactly to its
    seeded prefix, anything else means the stream or the tables are wrong:
    the final state must be the fresh state RANS_L and the stack must hold
    exactly the k seeded bytes the payload says it restores.  When the
    stream carries its `initial_bits`, k must not exceed initial_bits // 8.
    These checks catch wrong tables and a wrong symbol count; damage to a
    stream file is caught by its checksum when it is read back.
    """
    return [[block[0] for block in blocks]
            for blocks in decode_streams([stream], sections)]


@dataclass
class CompressedStream:
    """One self-contained coded message plus its accounting.

    Accounting fields are populated when the stream is produced in process;
    a stream read back from bytes carries only what the format stores, so
    its `initial_bits` is None unless the caller knows it from elsewhere.
    """

    payload: bytes
    symbol_count: int
    model_version: int
    initial_bits: int | None = None
    gross_bits: float | None = None
    returned_bits: float | None = None
    peak_demand_bits: float | None = None

    @property
    def net_bits(self) -> float | None:
        """Bits pushed minus bits recovered; None without accounting."""
        if self.gross_bits is None:
            return None
        return self.gross_bits - self.returned_bits


def serialize_stream(stream: CompressedStream) -> bytes:
    """Stream file: the container, then the stream record, two varints
    (`container.uvarint`): the model version (a u32 field) and the symbol
    count (a u64 field); then the coder payload.  InvalidInputError if
    either value is out of its field's range."""
    return seal(STREAM_MAGIC, STREAM_FORMAT_VERSION,
                uvarint(stream.model_version, 32, "model version")
                + uvarint(stream.symbol_count, 64, "symbol count") + stream.payload)


def deserialize_stream(data: bytes) -> CompressedStream:
    """The stream of a stream file; DataCorruptionError on a bad container
    or record.  Its coder payload is not parsed here: `rans.read_payload`
    checks it where it is read, by the decoder."""
    body = unseal(data, STREAM_MAGIC, STREAM_FORMAT_VERSION, "stream")
    model_version, offset = read_uvarint(body, 0, 32, "model version")
    symbol_count, offset = read_uvarint(body, offset, 64, "symbol count")
    return CompressedStream(payload=bytes(body[offset:]),
                            symbol_count=symbol_count, model_version=model_version)


# -- fitting -------------------------------------------------------------------

@dataclass
class FitConfig:
    iterations: int = 40


def _softmax_rows(scores: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Softmax of each row of `scores`; a row scoring -inf everywhere (a
    latent no block can reach) keeps its row of `previous`.

    The result has the memory layout of `scores`, and callers sum along its
    rows: a new layout would change the order of those sums, and so the
    fitted bits.  Dead rows are therefore patched in place.
    """
    peak = scores.max(axis=1, keepdims=True)
    dead = peak[:, 0] == -np.inf
    peak[dead] = 0.0
    e = np.exp(scores - peak)
    total = e.sum(axis=1, keepdims=True)
    total[dead] = 1.0
    q = e / total
    q[dead] = previous[dead]
    return q


def fit(model: LatentChainModel, blocks, config: FitConfig = FitConfig()) -> LatentChainModel:
    """Coordinate ascent on the exact bound.

    Alternates closed-form updates: generative tables from expected counts
    under the current inference tables, then inference tables row by row
    from softmax scores, deepest level first.  Every step maximizes the
    bound over its own block of coordinates, so the bound never decreases.
    Zero iterations returns the model unchanged; fewer raise InvalidInputError.
    """
    if config.iterations < 0:
        raise InvalidInputError(f"fit iterations must be nonnegative, got {config.iterations}")
    x0, hist = _block_stats(blocks, model.obs_alphabet)
    model.validate()
    m = model.copy()
    levels = m.levels
    a0 = m.alphabets[0]
    x0_counts = np.bincount(x0, minlength=m.obs_alphabet).astype(np.float64)
    x0_bins = (x0[:, None] * a0 + np.arange(a0)).ravel()

    for _ in range(config.iterations):
        # expected latent marginals per block under the inference tables
        margs = [m.q_obs[x0]]
        for i in range(levels - 1):
            margs.append(margs[-1] @ m.q_link[i])

        # generative tables from expected counts
        obs_counts = margs[0].T @ hist  # (A_0, K)
        row_mass = obs_counts.sum(axis=1, keepdims=True)
        m.p_obs = np.where(row_mass > 0, obs_counts / np.where(row_mass > 0, row_mass, 1.0), m.p_obs)
        for i in range(levels - 1):
            weights = margs[i].sum(axis=0)  # (A_i,)
            joint = weights[:, None] * m.q_link[i]  # (A_i, A_{i+1})
            col_mass = joint.sum(axis=0)
            new_rows = np.where(col_mass[:, None] > 0,
                                joint.T / np.where(col_mass[:, None] > 0, col_mass[:, None], 1.0),
                                m.p_link[i])
            m.p_link[i] = new_rows
        top_mass = margs[-1].sum(axis=0)
        m.p_top = top_mass / top_mass.sum()

        # inference tables, deepest first so downstream scores are current
        with np.errstate(divide="ignore"):
            psi = np.log(m.p_top)
        for i in reversed(range(levels - 1)):
            with np.errstate(divide="ignore"):
                scores = np.log(m.p_link[i].T) + psi[None, :]
            q = _softmax_rows(scores, m.q_link[i])
            m.q_link[i] = q
            with np.errstate(divide="ignore"):
                lq = np.log(q)
            psi = np.where(q > 0, q * (scores - lq), 0.0).sum(axis=1)

        ll = _obs_loglik(hist, m.p_obs)
        # sums[k] = total ll of the blocks starting with k, added in block order
        sums = np.bincount(x0_bins, weights=ll.ravel(),
                           minlength=m.obs_alphabet * a0).reshape(m.obs_alphabet, a0)
        seen = x0_counts > 0
        mean_ll = sums[seen] / x0_counts[seen, None]
        m.q_obs[seen] = _softmax_rows(mean_ll + psi[None, :], m.q_obs[seen])
    return m


def finetune(model: LatentChainModel, blocks, config: FitConfig = FitConfig()) -> LatentChainModel:
    """Warm-started `fit` that bumps the version.  The blocks are checked as
    `fit` checks them, at any iteration count."""
    out = fit(model, blocks, config)
    out.version = model.version + 1
    return out


# -- model snapshots -----------------------------------------------------------

def serialize_models(tables) -> bytes:
    """Model file holding the coder's frequencies of one or more models,
    each given as its `CodingTables`, all at one precision.

    Layout: the container, the record count (u8), the precision (u8), then
    per model its record header, its level alphabets (u32 each) and its
    tables in `table_shapes` order, row-major, each frequency stored as
    freq - 1 (`<u2`).  InvalidInputError naming the first field whose
    value does not fit its width.
    """
    tables = list(tables)
    if not 1 <= len(tables) <= 255:
        raise InvalidInputError("snapshot must hold between 1 and 255 models")
    precisions = {t.precision for t in tables}
    if len(precisions) != 1:
        raise InvalidInputError(f"models of one file share a precision, got {sorted(precisions)}")
    out = [bytes([len(tables), precisions.pop()])]
    for t in tables:
        model = t.dyadic
        record = (model.version, model.levels, model.obs_alphabet, model.block_len)
        for value, (what, bits) in zip(record, _MODEL_FIELDS):
            if not 0 <= value < 1 << bits:
                raise InvalidInputError(f"{what} must be in [0, 2**{bits}) to fit "
                                        f"the model record, got {value}")
        out.append(_MODEL_RECORD.pack(*record))
        out.append(np.asarray(model.alphabets, dtype="<u4").tobytes())
        for _, table in _flatten({name: getattr(t, name) for name in _TABLE_FIELDS}):
            out.append((table.freqs - np.uint64(1)).astype(STORED_FREQ).tobytes())
    return seal(MODEL_MAGIC, MODEL_FORMAT_VERSION, b"".join(out))


def deserialize_models(data: bytes) -> list[CodingTables]:
    """The coding tables of every model of a model file, at its precision.

    DataCorruptionError on a bad container or record, a precision
    `check_precision` rejects for a model's alphabets, or a row of
    frequencies that does not sum to 2**precision.  The frequencies are
    the tables: nothing is quantized or validated as floats here.
    """
    body = unseal(data, MODEL_MAGIC, MODEL_FORMAT_VERSION, "model snapshot")
    offset = 2
    models = []
    try:
        count, precision = body[0], body[1]
        if not count:
            raise DataCorruptionError("model snapshot holds no models")
        for _ in range(count):
            version, levels, k, block_len = _MODEL_RECORD.unpack_from(body, offset)
            offset += _MODEL_RECORD.size
            alphabets = np.frombuffer(body, dtype="<u4", count=levels, offset=offset).tolist()
            offset += 4 * levels
            if min(levels, k, block_len, *alphabets) < 1:
                raise DataCorruptionError(
                    "model snapshot: levels, alphabets and block length must be positive")
            check_precision(precision, max(k, *alphabets), DataCorruptionError)
            freqs = []
            for name, shape in _flatten(table_shapes(k, alphabets)):
                rows, alphabet = (1, *shape) if len(shape) == 1 else shape
                stored = np.frombuffer(body, dtype=STORED_FREQ, count=rows * alphabet,
                                       offset=offset)
                offset += stored.nbytes
                f = stored.reshape(rows, alphabet).astype(np.int64) + 1
                bad = np.flatnonzero(f.sum(axis=1) != 1 << precision)
                if bad.size:
                    raise DataCorruptionError(
                        f"model snapshot: {name} row {bad[0]} sums to "
                        f"{f[bad[0]].sum()}, not 2**{precision}")
                freqs.append(f)
            models.append(_coding_tables(k, alphabets, block_len, version, freqs, precision))
    except (struct.error, ValueError, IndexError) as exc:
        raise DataCorruptionError("model snapshot truncated or inconsistent") from exc
    if offset != len(body):
        raise DataCorruptionError("model snapshot has trailing bytes")
    return models
