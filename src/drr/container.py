"""The one container of every binary artifact: codec, model and stream files.

    magic (4 B, names the kind) | format version u16 | CRC32 u32 of the body | body

All little-endian.  `seal` writes it and `unseal` is its one reader: every
magic, format version and checksum check of a binary file runs there, and
a file that fails any of them raises DataCorruptionError.  Each kind keeps
its own magic and version constant; the body's layout is the kind's own.
The CRC32 (`zlib.crc32`) catches every single-bit error in the body; other
damage, a truncation say, passes it with odds of about 2**-32.

A body's small integer fields may be unsigned LEB128 varints: seven value
bits per byte, least significant group first, the top bit set on every
byte but the last.  `uvarint` writes one and `read_uvarint` reads it back;
each value has exactly one encoding, the shortest, and each field has a
bit width (a u32 field, say) that its value must fit.

A body's numeric array may be packed: `pack_array` writes the values'
little-endian bytes as byte planes, byte 0 of every value, then byte 1,
and so on, and deflates the planes into one raw DEFLATE stream (RFC 1951:
no zlib header, no checksum of its own; the container's CRC32 is the
file's one checksum).  Planes put the bytes that repeat, such as a float's
sign and exponent or the high byte of a small integer, next to each other,
as PNG's filter-then-deflate does.  `unpack_array` is the one reader: the
caller knows the value count from the fields before it, so it inflates at
most one byte more than those values take.
"""

from __future__ import annotations

import operator
import struct
import sys
import zlib

import numpy as np

from .errors import DataCorruptionError, InvalidInputError

_HEAD = struct.Struct("<4sHI")  # magic, format version, CRC32 of the body
HEADER_SIZE = _HEAD.size
PACK_LEVEL = 6  # zlib's compression level for packed arrays
_RAW_DEFLATE = -15  # zlib wbits of a raw DEFLATE stream with a 32 KB window


def seal(magic: bytes, version: int, body: bytes) -> bytes:
    """The container of `body` as a file of kind `magic` at `version`."""
    return _HEAD.pack(magic, version, zlib.crc32(body)) + body


def kind(data: bytes) -> bytes:
    """The magic naming a file's kind, unchecked: what `drr inspect`
    dispatches on before the kind's reader unseals the file."""
    return bytes(data[:4])


def unseal(data: bytes, magic: bytes, version: int, what: str) -> memoryview:
    """The body of a container of kind `magic` at `version`; `what` names
    the kind in errors.  DataCorruptionError on a short file, or a wrong
    magic, version or checksum."""
    if len(data) < _HEAD.size:
        raise DataCorruptionError(f"{what} file is {len(data)} bytes, shorter than its header")
    found, found_version, crc = _HEAD.unpack_from(data)
    if found != magic:
        raise DataCorruptionError(f"bad {what} magic {found!r}, expected {magic!r}")
    if found_version != version:
        raise DataCorruptionError(
            f"unsupported {what} format version {found_version}, expected {version}")
    body = memoryview(data)[_HEAD.size:]
    if zlib.crc32(body) != crc:
        raise DataCorruptionError(f"{what} checksum mismatch")
    return body


def uvarint(value: int, bits: int, what: str) -> bytes:
    """The varint of `value` in a field `bits` wide; `what` names the field
    in errors.  InvalidInputError unless 0 <= value < 2**bits."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None
    if not 0 <= value < 1 << bits:
        raise InvalidInputError(f"{what} must be in [0, 2**{bits}), got {value}")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def read_uvarint(data, offset: int, bits: int, what: str) -> tuple[int, int]:
    """(value, offset past it) of the varint at `offset` of `data` in a
    field `bits` wide; `what` names the field in errors.
    DataCorruptionError on a varint cut short, one longer than its value
    needs, or a value of 2**bits or more."""
    value = shift = 0
    for end, byte in enumerate(data[offset:offset + (bits + 6) // 7], offset + 1):
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            break
    else:
        raise DataCorruptionError(f"{what} varint cut short" if shift < bits else
                                  f"{what} varint longer than its {bits}-bit field")
    if byte == 0 and end > offset + 1:  # a last byte of 0 after a byte with the top bit set
        raise DataCorruptionError(f"{what} varint is not in its shortest form")
    if value >> bits:
        raise DataCorruptionError(f"{what} {value} does not fit its {bits}-bit field")
    return value, end


def pack_array(values: np.ndarray) -> bytes:
    """The packed form of an array's values in row-major order: their
    little-endian bytes as byte planes, deflated at PACK_LEVEL.  The dtype
    must be little-endian or one byte wide."""
    values = np.ascontiguousarray(values).reshape(-1)
    planes = values.view(np.uint8).reshape(values.size, values.dtype.itemsize).T
    deflate = zlib.compressobj(PACK_LEVEL, zlib.DEFLATED, _RAW_DEFLATE)
    return deflate.compress(planes.tobytes()) + deflate.flush()


def unpack_array(data, dtype, count: int, what: str) -> np.ndarray:
    """The `count` values of dtype `dtype` that `pack_array` packed into
    `data`, as a fresh 1-d array; `what` names the array in errors.

    Inflates at most itemsize * count + 1 bytes, so a stream that claims
    more than its header implies costs no more than one that is right.
    DataCorruptionError unless the stream is valid DEFLATE, inflates to
    exactly itemsize * count bytes, ends, and nothing follows its end."""
    dtype = np.dtype(dtype)
    size = dtype.itemsize * count
    if size >= sys.maxsize:
        raise DataCorruptionError(f"{what} claim {size} bytes, more than any buffer holds")
    inflate = zlib.decompressobj(_RAW_DEFLATE)
    try:
        raw = inflate.decompress(data, size + 1)
    except zlib.error as exc:
        raise DataCorruptionError(f"{what}: corrupt deflate stream ({exc})") from exc
    if len(raw) > size:
        raise DataCorruptionError(f"{what} inflate past the {size} bytes their header implies")
    if not inflate.eof:
        raise DataCorruptionError(f"{what}: deflate stream cut short")
    if inflate.unused_data:
        raise DataCorruptionError(f"{what}: trailing bytes after the deflate stream")
    if len(raw) != size:
        raise DataCorruptionError(f"{what} inflate to {len(raw)} bytes, not the {size} "
                                  f"their header implies")
    out = np.empty(count, dtype)
    columns = out.view(np.uint8).reshape(count, dtype.itemsize)
    # One plane at a time: a third of the time of one transposing copy.
    for column, plane in enumerate(np.frombuffer(raw, np.uint8).reshape(dtype.itemsize, count)):
        columns[:, column] = plane
    return out
