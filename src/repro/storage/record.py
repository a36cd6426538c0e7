"""Fixed-size record codecs.

Element sets store one PBiTree code per record (8 bytes).  Partitioning
and rollup intermediates store code pairs (16 bytes).  Codecs wrap
``struct.Struct`` with page-payload helpers; all values are little-
endian unsigned 64-bit, which bounds the supported PBiTree height at 63
(plenty: the paper notes real data trees binarize within a constant
number of levels).
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Sequence

__all__ = [
    "RecordCodec",
    "CODE",
    "PAIR",
    "TRIPLE",
    "MAX_CODE_BITS",
]

MAX_CODE_BITS = 63

#: the record format is explicitly little-endian ("<Q"); ``array("Q")``
#: reads native order, so big-endian hosts byte-swap after the copy
_NATIVE_LE = sys.byteorder == "little"


class RecordCodec:
    """Pack/unpack fixed-size tuples of unsigned 64-bit ints."""

    def __init__(self, arity: int) -> None:
        if arity < 1:
            raise ValueError("records need at least one field")
        self.arity = arity
        self._struct = struct.Struct("<" + "Q" * arity)
        self.record_size = self._struct.size

    def unpack(self, data: bytes, offset: int = 0) -> tuple[int, ...]:
        return self._struct.unpack_from(data, offset)

    def pack_into(self, buffer: bytearray, offset: int, record: Sequence[int]) -> None:
        self._struct.pack_into(buffer, offset, *record)

    def pack_fields(self, fields: Sequence[int]) -> bytes:
        """Pack a flat field sequence (records' fields in order) with a
        single ``struct`` call.

        One explicitly little-endian format, so the bytes equal the
        concatenated per-record :meth:`pack_into` results on any host;
        a value outside the u64 range raises ``struct.error``.
        """
        return struct.pack(f"<{len(fields)}Q", *fields)

    def unpack_array(
        self, payload: "bytes | bytearray | memoryview", count: int
    ) -> "array[int]":
        """The first ``count`` records' fields as one owned ``array("Q")``.

        ``count * arity`` integers, record fields interleaved, copied
        out of ``payload`` by one ``frombytes`` memcpy (byte-swapped
        afterwards on big-endian hosts, since the record format is
        little-endian).  The array shares nothing with ``payload``, so
        it stays valid after the page is unpinned and its frame reused.
        """
        fields = array("Q")
        fields.frombytes(memoryview(payload)[: count * self.record_size])
        if not _NATIVE_LE:
            fields.byteswap()
        return fields


#: One PBiTree code per record — element sets.
CODE = RecordCodec(1)
#: A code pair — rolled records, vertical-partition tuples, result pairs.
PAIR = RecordCodec(2)
#: Three fields — e.g. (key, code, aux) index entries.
TRIPLE = RecordCodec(3)
