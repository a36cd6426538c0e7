"""I/O statistics: the paper's primary cost metric.

Every page transfer flows through :class:`DiskManager` which owns an
:class:`IOStats`.  ``IOStats.snapshot()`` / ``delta`` scope the counters
around an operator, mirroring how the paper attributes I/O cost per
algorithm (including any on-the-fly sorting or index building).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IOStats", "IOSnapshot"]


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable view of the counters at one point in time."""

    reads: int = 0
    writes: int = 0
    random_reads: int = 0
    allocations: int = 0
    #: transient-fault retries performed by the buffer pool
    retries: int = 0
    #: operations abandoned after the retry budget was exhausted
    giveups: int = 0

    @property
    def total(self) -> int:
        """Total page transfers (reads + writes)."""
        return self.reads + self.writes

    @property
    def sequential_reads(self) -> int:
        return self.reads - self.random_reads

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            random_reads=self.random_reads + other.random_reads,
            allocations=self.allocations + other.allocations,
            retries=self.retries + other.retries,
            giveups=self.giveups + other.giveups,
        )

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            random_reads=self.random_reads - other.random_reads,
            allocations=self.allocations - other.allocations,
            retries=self.retries - other.retries,
            giveups=self.giveups - other.giveups,
        )

    def weighted_cost(self, random_penalty: float = 1.0) -> float:
        """Page I/O cost with random reads weighted ``random_penalty`` x.

        The default of 1.0 reproduces the paper's flat page-count model;
        a penalty > 1 models seek-dominated disks (Section 6 mentions a
        more precise disk model as future work — exposed here for the
        ablation benchmarks).
        """
        return (
            self.sequential_reads
            + self.writes
            + random_penalty * self.random_reads
        )


class IOStats:
    """Mutable I/O counters owned by a :class:`DiskManager`."""

    __slots__ = (
        "reads",
        "writes",
        "random_reads",
        "allocations",
        "retries",
        "giveups",
        "_head",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.random_reads = 0
        self.allocations = 0
        self.retries = 0
        self.giveups = 0
        # Disk-head position after the last transfer (read *or* write).
        # Sequentiality must be judged against the actual last disk
        # access: a write moves the head too, so a read that is
        # contiguous only with the last *read* — with writes interleaved
        # in between — is a seek, not a sequential transfer.
        self._head = -2

    def record_read(self, page_id: int) -> None:
        self.reads += 1
        if page_id != self._head + 1:
            self.random_reads += 1
        self._head = page_id

    def record_write(self, page_id: int) -> None:
        self.writes += 1
        self._head = page_id

    def park_head(self) -> None:
        """Forget where the head is: the next read is a seek, as on a
        fresh disk."""
        self._head = -2

    def record_allocation(self) -> None:
        self.allocations += 1

    def record_retry(self) -> None:
        """One transient fault absorbed by a buffer-pool retry."""
        self.retries += 1

    def record_giveup(self) -> None:
        """One operation abandoned after exhausting its retry budget."""
        self.giveups += 1

    def snapshot(self) -> IOSnapshot:
        return IOSnapshot(
            reads=self.reads,
            writes=self.writes,
            random_reads=self.random_reads,
            allocations=self.allocations,
            retries=self.retries,
            giveups=self.giveups,
        )

    def delta(self, before: IOSnapshot) -> IOSnapshot:
        return self.snapshot() - before

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.random_reads = 0
        self.allocations = 0
        self.retries = 0
        self.giveups = 0
        self._head = -2
