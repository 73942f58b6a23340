"""The one container of every binary artifact: codec, model and stream files.

    magic (4 B, names the kind) | format version u16 | CRC32 u32 of the body | body

All little-endian.  `seal` writes it and `unseal` is its one reader: every
magic, format version and checksum check of a binary file runs there, and
a file that fails any of them raises DataCorruptionError.  Each kind keeps
its own magic and version constant; the body's layout is the kind's own.
The CRC32 (`zlib.crc32`) catches every single-bit error in the body; other
damage, a truncation say, passes it with odds of about 2**-32.
"""

from __future__ import annotations

import struct
import zlib

from .errors import DataCorruptionError

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
