"""Minibase-style paged storage substrate with I/O accounting."""

from .buffer import BufferManager, BufferPoolFullError
from .disk import (
    DEFAULT_PAGE_SIZE,
    DiskManager,
    PageCorruptionError,
    PageNotAllocatedError,
)
from .faults import (
    DEFAULT_RETRY_POLICY,
    FaultConfig,
    FaultInjector,
    FaultStats,
    PermanentIOError,
    RetryPolicy,
    ScheduledFault,
    StorageFault,
    TransientIOError,
)
from .persist import ImageFormatError, LoadedImage, load_image, save_image
from .docstore import DocumentStore, UpdateLogRecord
from .elementset import ElementSet, SortOrder
from .heapfile import HeapFile, HeapFileWriter
from .record import CODE, PAIR, TRIPLE, RecordCodec
from .stats import IOSnapshot, IOStats

__all__ = [
    "BufferManager",
    "BufferPoolFullError",
    "DiskManager",
    "DEFAULT_PAGE_SIZE",
    "PageNotAllocatedError",
    "PageCorruptionError",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "ScheduledFault",
    "StorageFault",
    "TransientIOError",
    "PermanentIOError",
    "save_image",
    "load_image",
    "LoadedImage",
    "ImageFormatError",
    "DocumentStore",
    "UpdateLogRecord",
    "ElementSet",
    "SortOrder",
    "HeapFile",
    "HeapFileWriter",
    "RecordCodec",
    "CODE",
    "PAIR",
    "TRIPLE",
    "IOStats",
    "IOSnapshot",
]
