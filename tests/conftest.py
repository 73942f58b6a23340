"""Shared test helpers."""

import os

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
