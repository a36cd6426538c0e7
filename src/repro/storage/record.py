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
    "owned_u64_array",
]

MAX_CODE_BITS = 63

#: the record format is explicitly little-endian ("<Q"); a zero-copy
#: ``memoryview.cast("Q")`` reads native order, so the cast is only a
#: faithful decode on little-endian hosts (everything else falls back
#: to the scalar struct path)
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
    ) -> "Sequence[int]":
        """Zero-copy flat view of the first ``count`` records' fields.

        Returns a ``memoryview`` cast to unsigned 64-bit elements —
        ``count * arity`` integers, record fields interleaved — without
        materialising per-record tuples.  The view aliases ``payload``:
        it is only valid while the underlying buffer frame stays pinned
        (copy into ``array("Q", view)`` to outlive the pin).  On
        big-endian hosts the cast would misread the little-endian
        record format, so the scalar decode runs instead.
        """
        if _NATIVE_LE:
            view = memoryview(payload)[: count * self.record_size]
            return view.cast("Q")
        return [
            field
            for record in self.iter_unpack(bytes(payload), count)
            for field in record
        ]


def owned_u64_array(fields: "Sequence[int]") -> "array[int]":
    """Copy a decoded field view into an owning ``array("Q")``.

    The approved ownership-escape pattern for :meth:`RecordCodec.
    unpack_array` views: one ``memcpy`` (``frombytes`` of the byte
    cast) on little-endian hosts, a plain element copy for the
    big-endian list fallback.  The result has no relationship to the
    source buffer, so it may be cached, returned or stored freely —
    which is why the ``view-escape`` checker treats a view wrapped in
    this call as consumed.
    """
    if isinstance(fields, memoryview):
        copy = array("Q")
        # bulk memcpy; the view is produced on little-endian hosts
        # only, matching frombytes' native interpretation
        copy.frombytes(fields.cast("B"))
        return copy
    return array("Q", fields)


#: One PBiTree code per record — element sets.
CODE = RecordCodec(1)
#: A code pair — rolled records, vertical-partition tuples, result pairs.
PAIR = RecordCodec(2)
#: Three fields — e.g. (key, code, aux) index entries.
TRIPLE = RecordCodec(3)
