"""Persist a simulated disk (and element-set catalog) to a real file.

The evaluation never needs persistence — every experiment regenerates
its data — but an adoptable library does: encode a document once, save
the element sets, reopen later.  Image format::

    magic "PBIT" | u32 version | u32 header_length | header JSON (utf-8)
    page payloads, in the order listed in the header

The header records the page size, every allocated page id and an
optional catalog: named element sets with their page-id lists,
tree heights and sort order.  CRCs of every page are stored and
verified on load; each set's positional histogram is rebuilt from its
verified payloads rather than stored.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Optional

from .buffer import BufferManager
from .disk import DiskManager
from .elementset import ElementSet
from .faults import FaultInjector, RetryPolicy
from . import page as page_layout
from .heapfile import HeapFile
from .histogram import PositionHistogram
from .record import CODE

__all__ = ["save_image", "load_image", "ImageFormatError", "LoadedImage"]

_MAGIC = b"PBIT"
_VERSION = 1
_PREFIX = struct.Struct("<4sII")


class ImageFormatError(ValueError):
    """Raised when a file is not a valid disk image (or is corrupt)."""


class LoadedImage:
    """The result of :func:`load_image`: a disk plus its catalog."""

    def __init__(self, disk: DiskManager, bufmgr: BufferManager) -> None:
        self.disk = disk
        self.bufmgr = bufmgr
        self.element_sets: dict[str, ElementSet] = {}


def save_image(
    disk: DiskManager,
    path: "str | Path",
    element_sets: Optional[dict[str, ElementSet]] = None,
) -> None:
    """Write the disk image (flush your buffer pool first!)."""
    page_ids = sorted(disk._pages)
    catalog = {}
    for name, elements in (element_sets or {}).items():
        catalog[name] = {
            "page_ids": elements.heap.page_ids,
            "num_records": elements.heap.num_records,
            "tree_height": elements.tree_height,
            "sorted_by": elements.sorted_by,
        }
    header = {
        "page_size": disk.page_size,
        "next_page_id": disk._next_page_id,
        "pages": [
            {"id": page_id, "crc": zlib.crc32(disk._pages[page_id])}
            for page_id in page_ids
        ],
        "catalog": catalog,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_PREFIX.pack(_MAGIC, _VERSION, len(header_bytes)))
        handle.write(header_bytes)
        for page_id in page_ids:
            handle.write(disk._pages[page_id])


def load_image(
    path: "str | Path",
    buffer_pages: int = 64,
    policy: str = "lru",
    checksums: bool = False,
    faults: Optional[FaultInjector] = None,
    retry: Optional[RetryPolicy] = None,
) -> LoadedImage:
    """Reconstruct a disk (and its catalog) from an image file.

    ``checksums=True`` seeds the reconstructed disk with the CRCs from
    the image header, so runtime reads stay verified after load;
    ``faults``/``retry`` configure fault injection and the buffer pool's
    retry policy on the reconstructed engine (chaos testing against
    real persisted datasets).
    """
    with open(path, "rb") as handle:
        prefix = handle.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise ImageFormatError("file too short for an image header")
        magic, version, header_length = _PREFIX.unpack(prefix)
        if magic != _MAGIC:
            raise ImageFormatError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise ImageFormatError(f"unsupported image version {version}")
        try:
            header = json.loads(handle.read(header_length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ImageFormatError(f"corrupt header: {exc}") from exc

        disk = DiskManager(header["page_size"], checksums=checksums)
        for entry in header["pages"]:
            payload = handle.read(header["page_size"])
            if len(payload) != header["page_size"]:
                raise ImageFormatError(
                    f"truncated payload for page {entry['id']}"
                )
            if zlib.crc32(payload) != entry["crc"]:
                raise ImageFormatError(
                    f"page {entry['id']} failed CRC verification"
                )
            disk._pages[entry["id"]] = payload
            if checksums:
                disk._checksums[entry["id"]] = entry["crc"]
        disk._next_page_id = header["next_page_id"]
        if faults is not None:
            disk.set_faults(faults)

    image = LoadedImage(
        disk, BufferManager(disk, buffer_pages, policy, retry=retry)
    )
    for name, meta in header.get("catalog", {}).items():
        heap = HeapFile(image.bufmgr, CODE, name=name)
        heap.page_ids = list(meta["page_ids"])
        heap.num_records = meta["num_records"]
        missing = [page_id for page_id in heap.page_ids if page_id not in disk._pages]
        if missing:
            raise ImageFormatError(
                f"catalog set {name!r} names missing page {missing[0]}"
            )
        # the histogram comes from the CRC-checked payloads in hand, so
        # it cannot disagree with the pages (and no page I/O is charged)
        codes = [
            code
            for page_id in heap.page_ids
            for code in page_layout.read_record_array(disk._pages[page_id], CODE)
        ]
        image.element_sets[name] = ElementSet(
            heap,
            PositionHistogram.of_codes(codes, meta["tree_height"]),
            name=name,
            sorted_by=meta.get("sorted_by"),
        )
    return image
