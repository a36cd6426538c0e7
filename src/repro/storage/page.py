"""Record-page layout shared by heap files, sort runs and index leaves.

Layout of a record page (fixed-size records)::

    bytes 0..3   u32  number of records on the page
    bytes 4..7   u32  reserved (kept zero; heap files store a next-page
                      link here so pages are self-describing)
    bytes 8..    records, densely packed

Helpers here operate on the raw ``bytearray`` of a buffer frame so the
hot paths stay allocation-free.
"""

from __future__ import annotations

import struct
from array import array

from .record import RecordCodec

__all__ = [
    "PAGE_HEADER_SIZE",
    "page_capacity",
    "get_record_count",
    "set_record_count",
    "get_next_page",
    "set_next_page",
    "read_record_array",
]

PAGE_HEADER_SIZE = 8
_HEADER = struct.Struct("<II")
_NO_NEXT = 0xFFFFFFFF


def page_capacity(page_size: int, record_size: int) -> int:
    """Records that fit on one page."""
    capacity = (page_size - PAGE_HEADER_SIZE) // record_size
    if capacity < 1:
        raise ValueError(
            f"record size {record_size} too large for page size {page_size}"
        )
    return capacity


def get_record_count(data: bytes | bytearray) -> int:
    return _HEADER.unpack_from(data, 0)[0]


def set_record_count(data: bytearray, count: int) -> None:
    struct.pack_into("<I", data, 0, count)


def get_next_page(data: bytes | bytearray) -> int | None:
    """The next-page link, or ``None`` at end of chain."""
    value = _HEADER.unpack_from(data, 0)[1]
    return None if value == _NO_NEXT else value


def set_next_page(data: bytearray, page_id: int | None) -> None:
    struct.pack_into("<I", data, 4, _NO_NEXT if page_id is None else page_id)


def read_record_array(data: bytes | bytearray, codec: RecordCodec) -> "array[int]":
    """A page's flat field array, owned: the one page decode.

    One memcpy of the payload into an ``array("Q")``; see
    :meth:`RecordCodec.unpack_array`.
    """
    count = get_record_count(data)
    return codec.unpack_array(memoryview(data)[PAGE_HEADER_SIZE:], count)

