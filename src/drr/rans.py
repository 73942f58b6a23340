"""Stack-based rANS entropy coder.

Symbols are pushed onto and popped off a single integer state, last in
first out, against quantized probability tables whose frequencies sum to a
power of two.  This is the 64-bit variant with byte-granular
renormalization: between operations the state sits in [2^32, 2^40), low
bytes spill onto a byte stack as the state grows, and a final flush stores
the state's five low bytes (the three above them are always zero).

    pmf = pmf_quantize([0.5, 0.25, 0.25])
    coder = AnsCoder()
    coder.push(1, pmf)
    assert coder.pop(pmf) == 1

`LaneCoder` runs many independent messages at once, one lane each, in the
manner of interleaved rANS: a uint64 state vector, one 2-D byte stack with
a height per lane, and every lane coding against its own row of a
`PmfTable`.  Lane i holds exactly the state and stack an `AnsCoder` would,
so `AnsCoder` remains the scalar reference.  A lane's payload stores only
what its decoder reads: the stack above the lowest height the lane was
popped to, and the count k of seeded bytes the encoder read, which the
decoder puts back at its end.

    table = PmfTable.from_freqs(quantize_rows([[0.5, 0.5], [0.9, 0.1]])[0], 12)
    lanes = LaneCoder.with_random_bits(64, seeds=[1, 2])
    lanes.push(np.array([1, 0]), np.array([0, 1]), table)
    assert lanes.pop(np.array([0, 1]), table).tolist() == [1, 0]
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataCorruptionError, ExhaustedStreamError, InvalidInputError, check_seed

RANS_L = 1 << 32  # lower bound of the normalized state interval
RENORM_SHIFT = 8  # renormalization emits one byte at a time

DEFAULT_PRECISION = 12
MIN_PRECISION = 2
MAX_PRECISION = 16

STREAM_MAGIC = b"DRRB"
STREAM_FORMAT_VERSION = 2
_HEAD = struct.Struct("<4sHQ")  # magic, format version, payload length
# After the header: k, the count of seeded bytes the decoder restores at its
# end, then the state's five low bytes.  The byte stack follows.
_BODY = struct.Struct("<H5s")
_STATE_BYTES = 5
_MAX_RESTORED = (1 << 16) - 1  # the largest k a payload holds


@functools.cache
def code_lengths(precision: int) -> np.ndarray:
    """Ideal code length precision - log2(f) in bits of every frequency f in
    [1, 2**precision], at index f; index 0 holds +inf.

    The one source of code lengths: built once per precision with
    `math.log2` (`np.log2` may round differently) and read by `PmfTable`.
    Read-only.
    """
    if not (MIN_PRECISION <= precision <= MAX_PRECISION):
        raise InvalidInputError(f"precision {precision} outside [{MIN_PRECISION}, {MAX_PRECISION}]")
    table = np.array([math.inf] + [precision - math.log2(f) for f in range(1, (1 << precision) + 1)])
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class QuantizedPmf:
    """Frequency table over a finite alphabet, summing to 1 << precision.

    Every frequency is at least 1, so every symbol stays codable, and the
    cumulative table is strictly increasing.
    """

    precision: int
    freqs: np.ndarray  # int64, shape (A,)
    cdf: np.ndarray    # int64, shape (A + 1,), cdf[0] == 0


def quantize_rows(probs, precision: int = DEFAULT_PRECISION) -> tuple[np.ndarray, np.ndarray]:
    """Round every row of a probability table to integer frequencies summing
    to 2**precision.

    Returns int64 `freqs` of shape (R, A) and `cdf` of shape (R, A + 1).
    Each row gets largest-remainder rounding with every frequency clamped to
    at least 1; ties go to the lowest symbol.  Rows are validated and rounded
    independently, so a row comes out the same whatever table it sits in.
    Rejects alphabets larger than 2**precision, which could not give each
    symbol a nonzero frequency.
    """
    p = np.ascontiguousarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.size == 0:
        raise InvalidInputError("pmf table must be a nonempty 2-d array")
    if not (MIN_PRECISION <= precision <= MAX_PRECISION):
        raise InvalidInputError(f"precision {precision} outside [{MIN_PRECISION}, {MAX_PRECISION}]")
    n_rows, n = p.shape
    invalid = ~np.isfinite(p).all(axis=1) | (p < 0).any(axis=1)
    if invalid.any():
        raise InvalidInputError(
            f"pmf row {np.argmax(invalid)}: entries must be finite and nonnegative")
    total = p.sum(axis=1)
    if np.any(total <= 0):
        raise InvalidInputError(f"pmf row {np.argmax(total <= 0)}: must have positive mass")
    target = 1 << precision
    if n > target:
        raise InvalidInputError(f"alphabet size {n} exceeds 2**{precision}")

    scaled = p * (target / total)[:, None]
    floors = np.floor(scaled)
    freqs = np.maximum(floors.astype(np.int64), 1)
    diff = target - freqs.sum(axis=1)
    short = np.flatnonzero(diff > 0)
    if short.size:
        # Hand out +1 by descending remainder, lowest symbol first on ties;
        # a shortfall longer than the alphabet wraps around that order.
        order = np.argsort(floors[short] - scaled[short], axis=1, kind="stable")
        d = diff[short, None]
        freqs[short[:, None], order] += d // n + (np.arange(n) < d % n)
    over = np.flatnonzero(diff < 0)
    if over.size:
        freqs[over] -= _clamp_takebacks(freqs[over], scaled[over], -diff[over])

    cdf = np.zeros((n_rows, n + 1), dtype=np.int64)
    np.cumsum(freqs, axis=1, out=cdf[:, 1:])
    return freqs, cdf


def _clamp_takebacks(freqs: np.ndarray, scaled: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """Units to take back per symbol where the min-frequency clamp overshot.

    The rule takes back one unit at a time from the symbol furthest above
    its ideal share, float(f) - scaled, among symbols still above 1 (lowest
    symbol on ties), `excess` times per row.  A symbol's t-th take-back
    scores float(f - t) - scaled, which falls strictly with t, so the rule
    picks the `excess` best of all candidates (j, t), 0 <= t < f_j - 1,
    ordered by score descending, then symbol ascending.

    Only the first k + 1 take-backs of each symbol can be among them, where
    k is the least depth whose candidates t < k number at least `excess`.
    A symbol with room to give was not clamped, so f <= scaled < f + 1:
    every score with t <= k - 1 is at least -k, and every score with
    t >= k + 1 is at most -(k + 1).
    """
    n_rows, n = freqs.shape
    room = freqs - 1  # take-backs each symbol allows
    # Least k with sum_j min(room_j, k) >= excess, from the sorted rooms.
    sorted_room = np.sort(room, axis=1)
    below = np.cumsum(sorted_room, axis=1) - sorted_room
    reach = below + sorted_room * (n - np.arange(n))
    i = np.argmax(reach >= excess[:, None], axis=1)
    k = -((below[np.arange(n_rows), i] - excess) // (n - i))
    depth = np.minimum(room, (k + 1)[:, None]).ravel()

    owner = np.repeat(np.arange(n_rows * n), depth)  # flat (row, symbol) per candidate
    first = np.cumsum(depth) - depth
    t = np.arange(owner.size) - first[owner]
    score = (freqs.ravel()[owner] - t).astype(np.float64) - scaled.ravel()[owner]
    row = owner // n
    # Stable, so equal scores keep (row, symbol) order: lowest symbol first.
    order = np.lexsort((-score, row))
    row_start = np.searchsorted(row, np.arange(n_rows))
    rank = np.arange(order.size) - row_start[row[order]]
    taken = order[rank < excess[row[order]]]
    return np.bincount(owner[taken], minlength=n_rows * n).reshape(n_rows, n)


def pmf_quantize(probs, precision: int = DEFAULT_PRECISION) -> QuantizedPmf:
    """Round a probability vector to integer frequencies summing to 2**precision.

    The one-row case of `quantize_rows`: largest-remainder rounding with
    every frequency clamped to at least 1; ties go to the lowest symbol.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidInputError("pmf must be a nonempty 1-d array")
    freqs, cdf = quantize_rows(p[None, :], precision)
    return QuantizedPmf(precision=precision, freqs=freqs[0], cdf=cdf[0])


@dataclass(frozen=True)
class PmfTable:
    """Rows of quantized pmfs laid out flat for `LaneCoder`.

    Entry r * alphabet + s holds symbol s of row r.  `keys` is every row's
    cumulative table offset by row << precision, so one `searchsorted` finds
    the symbols of many lanes in many rows at once.  `costs` are the ideal
    code lengths precision - log2(freq), read from `code_lengths`.
    """

    precision: int
    alphabet: int
    cdf: np.ndarray       # int64, shape (R, A + 1): each row's cumulative table
    freqs: np.ndarray     # uint64, shape (R * A,)
    starts: np.ndarray    # uint64, shape (R * A,): cdf without its last entry
    keys: np.ndarray      # uint64, shape (R * A,): starts + (row << precision)
    row_keys: np.ndarray  # uint64, shape (R,): row << precision
    costs: np.ndarray     # float64, shape (R * A,)

    @classmethod
    def from_freqs(cls, freqs, precision: int) -> "PmfTable":
        """Table of the rows of `freqs`, each summing to 2**precision."""
        freqs = np.asarray(freqs, dtype=np.int64)
        n_rows, alphabet = freqs.shape
        cdf = np.zeros((n_rows, alphabet + 1), dtype=np.int64)
        np.cumsum(freqs, axis=1, out=cdf[:, 1:])
        starts = cdf[:, :-1].astype(np.uint64)
        row_keys = np.arange(n_rows, dtype=np.uint64) << np.uint64(precision)
        tables = (cdf, freqs.astype(np.uint64).ravel(), starts.ravel(),
                  (starts + row_keys[:, None]).ravel(), row_keys,
                  code_lengths(precision)[freqs.ravel()])
        for array in tables:  # tables are shared by everyone who codes with them
            array.flags.writeable = False
        return cls(precision, alphabet, *tables)

    def cost(self, rows: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """Ideal code length of symbols[i] under row rows[i], in bits."""
        return self.costs[rows * self.alphabet + symbols]


STACK_OFFSET = _HEAD.size + _BODY.size  # where a payload's byte stack starts


def read_payload(data: bytes) -> tuple[int, int, memoryview]:
    """(state, k, stack) of a coder payload: the coder state, the count k of
    seeded bytes its decoder restores at its end, and the stored byte stack,
    data[STACK_OFFSET:], bottom first.

    The one check of a payload's magic, format version, length and state,
    shared by every reader; DataCorruptionError if any is wrong.  A state
    below RANS_L is one no coder leaves, so it is rejected here.
    """
    if len(data) < _HEAD.size or data[:4] != STREAM_MAGIC:
        raise DataCorruptionError("bad bitstream magic")
    _, version, payload_len = _HEAD.unpack_from(data)
    if version != STREAM_FORMAT_VERSION:
        raise DataCorruptionError(f"unsupported bitstream format version {version}")
    if len(data) != _HEAD.size + payload_len or payload_len < _BODY.size:
        raise DataCorruptionError("bitstream length mismatch")
    restored, state = _BODY.unpack_from(data, _HEAD.size)
    state = int.from_bytes(state, "little")
    if state < RANS_L:
        raise DataCorruptionError(f"bitstream state {state:#x} below {RANS_L:#x}")
    return state, restored, memoryview(data)[STACK_OFFSET:]


def _payload(state: int, restored: int, stack) -> bytes:
    """The payload `read_payload` reads back as (state, restored, stack)."""
    if not RANS_L <= state < RANS_L << RENORM_SHIFT:
        raise InvalidInputError(f"coder state {state:#x} outside [2**32, 2**40)")
    if restored > _MAX_RESTORED:
        raise InvalidInputError(
            f"{restored} seeded bytes to restore; a payload holds at most {_MAX_RESTORED}")
    body = _BODY.pack(restored, state.to_bytes(_STATE_BYTES, "little"))
    return (_HEAD.pack(STREAM_MAGIC, STREAM_FORMAT_VERSION, len(body) + len(stack))
            + body + bytes(stack))


def _seeded_bytes(n_bits: int, seeds) -> np.ndarray:
    """Row i holds the n_bits // 8 bytes seeded with seeds[i]: PCG64's raw
    64-bit outputs written little-endian and cut to length, the bytes that
    `default_rng(seed).integers(0, 256, n, np.uint8)` draws."""
    if n_bits < 0 or n_bits % 8 != 0:
        raise InvalidInputError("n_bits must be a nonnegative multiple of 8")
    seeds = list(seeds)
    n = n_bits // 8
    words = np.empty((len(seeds), (n + 7) // 8), dtype="<u8")
    for row, seed in zip(words, seeds):
        check_seed(seed)
        row[:] = np.random.PCG64(seed).random_raw(len(row))
    return words.view(np.uint8)[:, :n]


class AnsCoder:
    """Mutable rANS coder: integer state plus a byte stack."""

    __slots__ = ("state", "stack")

    def __init__(self, state: int = RANS_L, stack: bytes = b""):
        self.state = state
        self.stack = bytearray(stack)

    @classmethod
    def with_random_bits(cls, n_bits: int, seed: int) -> "AnsCoder":
        """Fresh coder whose stack holds n_bits of seeded pseudo-random data.

        Bits-back decoding pops latents out of this slack before any real
        payload exists.
        """
        return cls(stack=_seeded_bytes(n_bits, [seed])[0])

    def copy(self) -> "AnsCoder":
        return AnsCoder(self.state, bytes(self.stack))

    @property
    def bit_length(self) -> int:
        """Message size in bits if flushed now (the state's 5 bytes + stack)."""
        return 8 * (_STATE_BYTES + len(self.stack))

    def push(self, symbol: int, pmf: QuantizedPmf) -> None:
        """Encode one symbol onto the stack."""
        f = int(pmf.freqs[symbol])
        c = int(pmf.cdf[symbol])
        precision = pmf.precision
        # Renormalize so the post-push state stays below RANS_L << 8.
        x = self.state
        x_max = ((RANS_L >> precision) << RENORM_SHIFT) * f
        while x >= x_max:
            self.stack.append(x & 0xFF)
            x >>= RENORM_SHIFT
        self.state = ((x // f) << precision) + (x % f) + c

    def pop(self, pmf: QuantizedPmf) -> int:
        """Decode one symbol off the stack (exact inverse of push)."""
        precision = pmf.precision
        mask = (1 << precision) - 1
        cum = self.state & mask
        symbol = int(np.searchsorted(pmf.cdf, cum, side="right")) - 1
        f = int(pmf.freqs[symbol])
        c = int(pmf.cdf[symbol])
        x = f * (self.state >> precision) + cum - c
        while x < RANS_L:
            if not self.stack:
                raise ExhaustedStreamError("byte stack underflow during pop")
            x = (x << RENORM_SHIFT) | self.stack.pop()
        self.state = x
        return symbol

    def serialize(self) -> bytes:
        """Flush to bytes: magic, format version, payload length, k = 0,
        the state's five low bytes, then the whole stack.

        The stack is stored bottom first, so the most recently emitted byte
        is last.  All integers are little-endian.
        """
        return _payload(self.state, 0, self.stack)

    @classmethod
    def deserialize(cls, data: bytes) -> "AnsCoder":
        """The coder of a payload's state and stored stack; its k is not kept."""
        state, _, stack = read_payload(data)
        return cls(state=state, stack=stack)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnsCoder):
            return NotImplemented
        return self.state == other.state and self.stack == other.stack

    def __repr__(self) -> str:
        return f"AnsCoder(state={self.state:#x}, stack_bytes={len(self.stack)})"


class LaneCoder:
    """Many independent rANS messages coded side by side, one per lane.

    `state` holds one uint64 state per lane and `stack` one row of bytes per
    lane, of which the first `height[i]` are lane i's byte stack, bottom
    first.  Every push and pop acts on all lanes at once, each against its
    own row of a `PmfTable`, and renormalization loops only while some lane
    still needs a byte.  Lane i is bit for bit the `AnsCoder` that performed
    the same pushes and pops.

    `start[i]` is the height lane i's message started from, on top of its
    seeded bytes, and so the height its decoder unwinds to; `floor[i]` is
    the lowest height the lane has been popped to.  No pop ever read the
    bytes below the floor, so a payload leaves them out: it stores the
    stack from the floor up and k = start - floor.
    """

    __slots__ = ("state", "stack", "height", "start", "floor")

    def __init__(self, states, stacks):
        """Lane i gets states[i] and the bytes of stacks[i], bottom first,
        and starts its message on them; all stacks land in the 2-D stack
        with one copy."""
        if len(stacks) == 0:
            raise InvalidInputError("a lane coder needs at least one lane")
        self.state = np.array(states, dtype=np.uint64)
        self.height = np.array([len(s) for s in stacks], dtype=np.int64)
        self.stack = np.zeros((len(stacks), int(self.height.max()) + 64), dtype=np.uint8)
        held = np.arange(self.stack.shape[1]) < self.height[:, None]
        self.stack[held] = np.frombuffer(b"".join(stacks), dtype=np.uint8)
        self.start = self.height.copy()
        self.floor = self.height.copy()

    @classmethod
    def with_random_bits(cls, n_bits: int, seeds) -> "LaneCoder":
        """Lane i holds `AnsCoder.with_random_bits(n_bits, seeds[i])`."""
        raw = _seeded_bytes(n_bits, seeds)
        return cls(np.full(len(raw), RANS_L, dtype=np.uint64), raw)

    @classmethod
    def deserialize(cls, payloads) -> "LaneCoder":
        """One lane per payload, each checked as `AnsCoder.deserialize`
        checks it: the stored stack sits at height 0 and the lane's message
        unwinds to height k."""
        parsed = [read_payload(data) for data in payloads]
        coder = cls([state for state, _, _ in parsed], [stack for _, _, stack in parsed])
        coder.start = np.array([k for _, k, _ in parsed], dtype=np.int64)
        coder.floor[:] = 0
        return coder

    def serialize(self) -> list[bytes]:
        """One payload per lane: its state, k, and its stack from the floor up."""
        return [_payload(state, start - floor, self.stack[lane, floor:height])
                for lane, (state, start, floor, height) in enumerate(zip(
                    self.state.tolist(), self.start.tolist(), self.floor.tolist(),
                    self.height.tolist()))]

    @property
    def lanes(self) -> int:
        return len(self.state)

    def potential(self) -> np.ndarray:
        """Information each lane holds, in bits: 8 per stack byte plus
        log2(state), the log taken with `math.log2`."""
        logs = np.fromiter(map(math.log2, self.state.tolist()), np.float64, self.lanes)
        return 8.0 * self.height + logs

    def push(self, symbols: np.ndarray, rows: np.ndarray, table: PmfTable) -> None:
        """Encode symbols[i] on lane i under row rows[i] of `table`."""
        index = rows * table.alphabet + symbols
        f = table.freqs[index]
        x = self.state
        # Renormalize so every post-push state stays below RANS_L << 8.
        x_max = f * np.uint64((RANS_L >> table.precision) << RENORM_SHIFT)
        need = (x >= x_max).nonzero()[0]
        while need.size:
            if int(self.height[need].max()) == self.stack.shape[1]:
                self.stack = np.concatenate([self.stack, np.zeros_like(self.stack)], axis=1)
            self.stack[need, self.height[need]] = (x[need] & 0xFF).astype(np.uint8)
            self.height[need] += 1
            x[need] >>= RENORM_SHIFT
            need = need[x[need] >= x_max[need]]
        self.state = ((x // f) << np.uint64(table.precision)) + x % f + table.starts[index]

    def pop(self, rows: np.ndarray, table: PmfTable) -> np.ndarray:
        """Decode one symbol per lane under row rows[i] (inverse of push)."""
        precision = np.uint64(table.precision)
        cum = self.state & np.uint64((1 << table.precision) - 1)
        index = table.keys.searchsorted(cum + table.row_keys[rows], side="right") - 1
        x = table.freqs[index] * (self.state >> precision) + (cum - table.starts[index])
        need = (x < RANS_L).nonzero()[0]
        while need.size:
            height = self.height[need] - 1
            if height.min() < 0:
                raise ExhaustedStreamError("byte stack underflow during pop")
            self.height[need] = height
            x[need] = (x[need] << np.uint64(RENORM_SHIFT)) | self.stack[need, height]
            need = need[x[need] < RANS_L]
        np.minimum(self.floor, self.height, out=self.floor)
        self.state = x
        return index - rows * table.alphabet
