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
"""

from __future__ import annotations

import operator
import struct
import zlib

from .errors import DataCorruptionError, InvalidInputError

_HEAD = struct.Struct("<4sHI")  # magic, format version, CRC32 of the body


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
