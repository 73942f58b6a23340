"""Packed arrays: byte planes in one raw DEFLATE stream, and their one reader."""

import sys
import zlib

import numpy as np
import pytest

from conftest import packed
from drr.container import pack_array, unpack_array
from drr.errors import DataCorruptionError


def inflate(data):
    return zlib.decompress(data, -15)


class TestPackArray:
    def test_values_are_stored_as_byte_planes(self):
        values = np.array([0x0102, 0x0304, 0x0506], dtype="<u2")
        assert inflate(pack_array(values)) == bytes([2, 4, 6, 1, 3, 5])
        assert pack_array(values) == packed(values.tobytes(), 2)

    def test_planes_follow_row_major_order(self):
        values = np.arange(12, dtype="<f4").reshape(3, 4)
        assert pack_array(values) == pack_array(values.ravel())
        assert pack_array(values.T) == pack_array(values.T.copy().ravel())

    @pytest.mark.parametrize("dtype", ["<u2", "<u4", "<f4", "<f8", "u1"])
    def test_round_trip_is_bit_identical(self, dtype):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, 64 * np.dtype(dtype).itemsize, dtype=np.uint8)
        values = raw.view(dtype)  # every bit pattern: NaN payloads, -0.0 and inf too
        back = unpack_array(pack_array(values), dtype, values.size, "values")
        assert back.dtype == np.dtype(dtype) and back.tobytes() == values.tobytes()
        assert back.flags.c_contiguous and back.flags.writeable and back.base is None

    def test_empty_array(self):
        data = pack_array(np.zeros(0, "<f4"))
        assert inflate(data) == b""
        assert unpack_array(data, "<f4", 0, "values").size == 0

    def test_planes_pack_repeated_high_bytes_smaller_than_interleaved_bytes(self):
        # Small frequencies: every high byte is 0, so its plane deflates to
        # almost nothing, while interleaved it costs a code per value.
        values = np.random.default_rng(1).integers(0, 256, 4096).astype("<u2")
        interleaved = zlib.compressobj(6, zlib.DEFLATED, -15)
        assert len(pack_array(values)) < 4096 + 100 < len(
            interleaved.compress(values.tobytes()) + interleaved.flush())


class TestUnpackArray:
    DATA = pack_array(np.arange(100, dtype="<u2"))

    def test_cut_stream(self):
        with pytest.raises(DataCorruptionError, match="^values: deflate stream cut short$"):
            unpack_array(self.DATA[:-3], "<u2", 100, "values")
        with pytest.raises(DataCorruptionError, match="cut short"):
            unpack_array(b"", "<u2", 100, "values")

    def test_bytes_after_the_stream(self):
        with pytest.raises(DataCorruptionError,
                           match="^values: trailing bytes after the deflate stream$"):
            unpack_array(self.DATA + b"\x00", "<u2", 100, "values")

    def test_fewer_values_than_claimed(self):
        with pytest.raises(DataCorruptionError,
                           match="^values inflate to 200 bytes, not the 202 their header implies$"):
            unpack_array(self.DATA, "<u2", 101, "values")

    def test_more_values_than_claimed(self):
        with pytest.raises(DataCorruptionError,
                           match="^values inflate past the 198 bytes their header implies$"):
            unpack_array(self.DATA, "<u2", 99, "values")

    def test_not_deflate(self):
        with pytest.raises(DataCorruptionError, match="^values: corrupt deflate stream"):
            unpack_array(b"\xff" * 8, "<u2", 4, "values")

    def test_a_size_no_buffer_holds(self):
        with pytest.raises(DataCorruptionError, match="more than any buffer holds"):
            unpack_array(self.DATA, "<f8", sys.maxsize // 8 + 1, "values")

    def test_inflates_at_most_one_byte_past_the_claim(self, inflated):
        # 10 MB of zeros in a stream of about 10 KB, read as 16 values.
        bomb = packed(bytes(10 << 20), 4)
        assert len(bomb) < 20_000
        with pytest.raises(DataCorruptionError, match="inflate past the 64 bytes"):
            unpack_array(bomb, "<f4", 16, "values")
        assert inflated == [65]
