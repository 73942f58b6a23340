"""Shared test helpers."""

import os
import zlib

import numpy as np
import pytest

from drr.container import read_uvarint, seal, unseal, uvarint

# Tests that run `python -m drr.cli` in a subprocess import the same source
# tree as the tests themselves, installed or not.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path)


def scalar_pmf_quantize(probs, precision):
    """Frequencies from the one-row-at-a-time quantiser, kept verbatim as the
    reference `drr.rans.quantize_rows` must match bit for bit.

    Largest-remainder rounding with every frequency clamped to at least 1;
    ties go to the lowest symbol.  A clamp overshoot is taken back one unit
    at a time from the symbol furthest above its ideal share.
    """
    p = np.asarray(probs, dtype=np.float64)
    target = 1 << precision
    n = p.size
    scaled = p * (target / p.sum())
    freqs = np.maximum(np.floor(scaled).astype(np.int64), 1)
    diff = target - int(freqs.sum())
    if diff > 0:
        remainders = scaled - np.floor(scaled)
        order = np.lexsort((np.arange(n), -remainders))
        for i in range(diff):
            freqs[order[i % n]] += 1
    elif diff < 0:
        for _ in range(-diff):
            over = freqs.astype(np.float64) - scaled
            over[freqs <= 1] = -np.inf
            freqs[int(np.argmax(over))] -= 1
    return freqs


@pytest.fixture
def reference_quantize():
    return scalar_pmf_quantize


def coder_payload(coder):
    """The payload of an `AnsCoder`, written here by the layout the README
    gives: k = 0 (u16), the state's five low bytes, then the whole stack."""
    return bytes(2) + coder.state.to_bytes(5, "little") + bytes(coder.stack)


def resealed(data, edit):
    """Sealed file `data` with `edit` applied to a mutable copy of its body
    and the checksum made valid again, so that the file's reader gets past
    the container and reaches the check under test."""
    magic, version = bytes(data[:4]), int.from_bytes(data[4:6], "little")
    body = bytearray(unseal(data, magic, version, "sealed"))
    edit(body)
    return seal(magic, version, bytes(body))



# Codec and model files end in one packed array.  The helpers below read
# and write it by the layout the README gives, not by the package's
# reader: the values' little-endian bytes as byte planes, byte 0 of every
# value first, in one raw DEFLATE stream (zlib wbits -15).  A file's
# "plain body" is its body with the packed array replaced by the values'
# bytes, value after value: the body of codec format 3, and of model
# format 3 for a file of one model (`format_3` rebuilds any).

def packed_split(magic, body):
    """(bytes of records before the packed array, width of its values) of a
    codec or model file's body."""
    if magic == b"DRRC":  # geometry: five u32, the frozen flag u8, beta f64
        return 29, 4 if body[20] else 8
    offset = 2  # the record count and the precision, then per model
    for _ in range(body[0]):  # its record (levels: u16 at 4) and u32 alphabets
        offset += 12 + 4 * int.from_bytes(body[offset + 4:offset + 6], "little")
    return offset, 2


def plain_body(data):
    """The plain body of codec or model file `data`."""
    magic, version = bytes(data[:4]), int.from_bytes(data[4:6], "little")
    body = bytes(unseal(data, magic, version, "packed"))
    head, width = packed_split(magic, body)
    planes = zlib.decompress(body[head:], -15)
    return body[:head] + np.frombuffer(planes, np.uint8).reshape(width, -1).T.tobytes()


def format_3(data):
    """Codec or model file `data` as format 3 wrote it: the container at
    version 3 around the records and the values unpacked.  A format-3
    model file gives each model its tables right after its own record and
    alphabets."""
    magic = bytes(data[:4])
    plain = plain_body(data)
    if magic == b"DRRM":
        head, _ = packed_split(magic, plain)
        records, tables, offset, table = [plain[:2]], plain[head:], 2, 0
        for _ in range(plain[0]):
            k = int.from_bytes(plain[offset + 6:offset + 10], "little")
            levels = int.from_bytes(plain[offset + 4:offset + 6], "little")
            alphabets = np.frombuffer(plain, "<u4", levels, offset + 12).tolist()
            # p_obs and q_obs, each link table once per direction, and p_top
            size = 2 * (2 * k * alphabets[0] + alphabets[-1] + 2 * sum(
                a * b for a, b in zip(alphabets, alphabets[1:])))
            records += [plain[offset:offset + 12 + 4 * levels], tables[table:table + size]]
            offset += 12 + 4 * levels
            table += size
        plain = b"".join(records)
    return seal(magic, 3, plain)


def packed(values, width):
    """The packed array of `values`, the values' bytes value after value,
    each `width` bytes wide, deflated at level 6."""
    planes = np.frombuffer(bytes(values), np.uint8).reshape(-1, width).T.tobytes()
    deflate = zlib.compressobj(6, zlib.DEFLATED, -15)
    return deflate.compress(planes) + deflate.flush()


def repacked(data, edit):
    """Codec or model file `data` with `edit` applied to a mutable copy of
    its plain body, the values packed again and the checksum made valid
    again, so that the reader reaches the check under test.  The records'
    size is taken before the edit."""
    magic, version = bytes(data[:4]), int.from_bytes(data[4:6], "little")
    plain = bytearray(plain_body(data))
    head, width = packed_split(magic, plain)
    edit(plain)
    return seal(magic, version, bytes(plain[:head]) + packed(plain[head:], width))


@pytest.fixture
def inflated(monkeypatch):
    """The byte count of every inflate call made during the test, in
    order: `zlib.decompressobj` wrapped to record what its objects return."""
    sizes = []
    real = zlib.decompressobj

    class Recording:
        def __init__(self, *args):
            self._inner = real(*args)

        def decompress(self, data, max_length=0):
            out = self._inner.decompress(data, max_length)
            sizes.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self._inner, name)

    monkeypatch.setattr(zlib, "decompressobj", Recording)
    return sizes


# A stream-set file's fields, read and written here by the layout the
# README gives, not by the CLI's reader: a dict of `precision`, `seeded`
# (the seeded bytes), `count` (the stored image count) and `entries`, each
# a dict of `name` (bytes), `height` and `width` (the bottom grid's) and
# `stream` (a stream file).  The reader reads entries until the body ends,
# whatever the count says, and the writer writes the count it is given, or
# the number of entries if it is given none, so a test can set them apart.

def stream_set_fields(data):
    body = unseal(data, b"DRRZ", 2, "stream set")
    precision, offset = read_uvarint(body, 0, 8, "precision")
    seeded, offset = read_uvarint(body, offset, 32, "seeded bytes")
    count, offset = read_uvarint(body, offset, 32, "image count")

    def chunk(offset, bits):
        size, offset = read_uvarint(body, offset, bits, "length")
        return bytes(body[offset:offset + size]), offset + size

    entries = []
    while offset < len(body):
        name, offset = chunk(offset, 16)
        height, offset = read_uvarint(body, offset, 32, "height")
        width, offset = read_uvarint(body, offset, 32, "width")
        stream, offset = chunk(offset, 32)
        entries.append({"name": name, "height": height, "width": width, "stream": stream})
    return {"precision": precision, "seeded": seeded, "count": count, "entries": entries}


def stream_set_body(fields):
    out = [uvarint(fields["precision"], 8, "precision"),
           uvarint(fields["seeded"], 32, "seeded bytes"),
           uvarint(fields.get("count", len(fields["entries"])), 32, "image count")]
    for entry in fields["entries"]:
        out += [uvarint(len(entry["name"]), 16, "name length"), entry["name"],
                uvarint(entry["height"], 32, "height"), uvarint(entry["width"], 32, "width"),
                uvarint(len(entry["stream"]), 32, "stream length"), entry["stream"]]
    return b"".join(out)


def edited_stream_set(data, edit):
    """Stream-set file `data` with `edit` applied to its fields and the
    checksum made valid again by `resealed`."""
    fields = stream_set_fields(data)
    edit(fields)

    def rewrite(body):
        body[:] = stream_set_body(fields)
    return resealed(data, rewrite)
