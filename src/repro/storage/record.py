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
from itertools import chain
from typing import Iterable, Iterator, Sequence

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

    def pack(self, record: Sequence[int]) -> bytes:
        return self._struct.pack(*record)

    def unpack(self, data: bytes, offset: int = 0) -> tuple[int, ...]:
        return self._struct.unpack_from(data, offset)

    def pack_into(self, buffer: bytearray, offset: int, record: Sequence[int]) -> None:
        self._struct.pack_into(buffer, offset, *record)

    def iter_unpack(self, payload: bytes | bytearray, count: int) -> Iterator[tuple[int, ...]]:
        """Decode the first ``count`` records from a page payload."""
        view = memoryview(payload)[: count * self.record_size]
        return self._struct.iter_unpack(view)

    def pack_many(self, records: Iterable[Sequence[int]]) -> bytes:
        """Pack records into one payload with a single ``struct`` call.

        The fields are flattened (a list comprehension for one-field
        records, ``chain.from_iterable`` otherwise) and packed by one
        explicitly little-endian format, so the bytes equal the
        concatenated per-record :meth:`pack` results on any host.  A
        record of the wrong arity raises ``struct.error``, as
        :meth:`pack` does, even where the field counts add up.
        """
        if not isinstance(records, (list, tuple)):
            records = list(records)
        arity = self.arity
        if records and set(map(len, records)) != {arity}:
            bad = next(record for record in records if len(record) != arity)
            raise struct.error(
                f"record {tuple(bad)!r} has {len(bad)} fields, expected {arity}"
            )
        if arity == 1:
            fields = [field for (field,) in records]
        else:
            fields = list(chain.from_iterable(records))
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
