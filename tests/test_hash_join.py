"""Tests for the hash-equijoin substrate (Grace partitioning, in-memory)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.join.hash_join import (
    GracePartitioner,
    grace_hash_join,
    in_memory_hash_join_codes,
)
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.heapfile import HeapFile
from repro.storage.record import CODE, PAIR


def make_env(frames=8, page_size=128):
    disk = DiskManager(page_size=page_size)
    return disk, BufferManager(disk, frames)


def first_fields(fields):
    """Bulk key of flat pair records: each record's first field."""
    return fields[0::2]


def records_of(heap: HeapFile) -> list[tuple[int, ...]]:
    arity = heap.codec.arity
    return [
        tuple(page[start : start + arity])
        for page in heap.scan_page_arrays()
        for start in range(0, len(page), arity)
    ]


def reference_equijoin(build, probe):
    out = []
    for b in build:
        for p in probe:
            if b[0] == p[0]:
                out.append((b, p))
    return sorted(out)


def by_hundreds(codes):
    """A bulk key that is not the code: its hundreds, 0 below 100."""
    return [code // 100 for code in codes]


class TestInMemoryHashJoin:
    @given(
        st.lists(st.integers(1, 2500), max_size=80),
        st.lists(st.integers(1, 2500), max_size=80),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, build, probe):
        out = []
        in_memory_hash_join_codes(
            [build[:40], build[40:]],
            [probe[:40], probe[40:]],
            by_hundreds,
            by_hundreds,
            lambda b, p: out.append((b, p)),
        )
        assert sorted(out) == sorted(
            (b, p) for b in build for p in probe if b // 100 == p // 100 >= 1
        )

    def test_zero_keys_filtered(self):
        out = []
        in_memory_hash_join_codes(
            [[1, 2]],
            [[1, 2]],
            lambda codes: [c if c != 2 else 0 for c in codes],
            lambda codes: [c if c != 1 else 0 for c in codes],
            lambda b, p: out.append((b, p)),
        )
        assert out == []  # 1 filtered on probe side, 2 on build side

    def test_emit_order_is_probe_then_build_order(self):
        out = []
        in_memory_hash_join_codes(
            [[501, 502], [503]],
            [[599], [400, 550]],
            by_hundreds,
            by_hundreds,
            lambda b, p: out.append((b, p)),
        )
        assert out == [
            (501, 599), (502, 599), (503, 599),
            (501, 550), (502, 550), (503, 550),
        ]


class TestGracePartitioner:
    def test_partition_is_disjoint_and_complete(self):
        _disk, bufmgr = make_env()
        partitioner = GracePartitioner(bufmgr, CODE, 4)
        files = partitioner.partition([list(range(1, 501))], lambda codes: codes)
        recovered = sorted(r[0] for f in files for r in records_of(f))
        assert recovered == list(range(1, 501))
        partitioner.destroy()

    def test_zero_keys_are_dropped(self):
        _disk, bufmgr = make_env()
        partitioner = GracePartitioner(bufmgr, PAIR, 3)
        fields = [key for k in range(1, 61) for key in (k, 100 + k)]
        files = partitioner.partition(
            [fields], lambda page: [k if k % 3 else 0 for k in page[0::2]]
        )
        kept = sorted(r for f in files for r in records_of(f))
        assert kept == [(k, 100 + k) for k in range(1, 61) if k % 3]
        partitioner.destroy()

    def test_same_key_lands_in_same_bucket(self):
        _disk, bufmgr = make_env()
        build = GracePartitioner(bufmgr, PAIR, 5, "b")
        probe = GracePartitioner(bufmgr, PAIR, 5, "p")
        build_files = build.partition(
            [[f for k in range(1, 101) for f in (k, 0)]], first_fields
        )
        probe_files = probe.partition(
            [[f for k in range(1, 101) for f in (k, 1)]], first_fields
        )
        for build_file, probe_file in zip(build_files, probe_files):
            assert {r[0] for r in records_of(build_file)} == {
                r[0] for r in records_of(probe_file)
            }

    def test_too_many_partitions_rejected(self):
        _disk, bufmgr = make_env(frames=4)
        with pytest.raises(ValueError):
            GracePartitioner(bufmgr, CODE, 4)  # needs 5 frames

    def test_zero_partitions_rejected(self):
        _disk, bufmgr = make_env()
        with pytest.raises(ValueError):
            GracePartitioner(bufmgr, CODE, 0)


def nested_loop_buckets(out):
    """A bucket join that equijoins two pair files on their first field."""

    def join(build_file, probe_file):
        assert len(build_file) and len(probe_file)
        out.extend(
            reference_equijoin(records_of(build_file), records_of(probe_file))
        )

    return join


class TestGraceHashJoin:
    @given(
        st.lists(st.tuples(st.integers(1, 30), st.integers(0, 9)), max_size=150),
        st.lists(st.tuples(st.integers(1, 30), st.integers(0, 9)), max_size=150),
        st.integers(2, 6),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_reference(self, build, probe, k):
        _disk, bufmgr = make_env(frames=8)
        out = []
        grace_hash_join(
            bufmgr,
            [[f for r in build for f in r]],
            [[f for r in probe for f in r]],
            PAIR,
            PAIR,
            first_fields,
            first_fields,
            nested_loop_buckets(out),
            num_partitions=k,
        )
        assert sorted(out) == reference_equijoin(build, probe)

    def test_intermediates_cleaned_up(self):
        disk, bufmgr = make_env()
        before = disk.num_allocated
        grace_hash_join(
            bufmgr,
            [[f for i in range(1, 301) for f in (i, 0)]],
            [[f for i in range(1, 301) for f in (i, 1)]],
            PAIR,
            PAIR,
            first_fields,
            first_fields,
            lambda build_file, probe_file: None,
            num_partitions=4,
        )
        bufmgr.evict_all()
        assert disk.num_allocated == before

    def test_io_is_three_passes_when_cold(self):
        """Grace join of cold on-disk inputs costs about 3(||A||+||D||)."""
        disk, bufmgr = make_env(frames=8, page_size=128)
        build_heap = HeapFile.from_fields(bufmgr, CODE, range(1, 2001))
        probe_heap = HeapFile.from_fields(bufmgr, CODE, range(1, 2001))
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()
        out = []

        def identity(codes):
            return codes

        grace_hash_join(
            bufmgr,
            build_heap.scan_page_arrays(),
            probe_heap.scan_page_arrays(),
            CODE,
            CODE,
            identity,
            identity,
            lambda build_file, probe_file: in_memory_hash_join_codes(
                build_file.scan_page_arrays(),
                probe_file.scan_page_arrays(),
                identity,
                identity,
                lambda b, p: out.append((b, p)),
            ),
            num_partitions=6,
        )
        bufmgr.flush_all()
        pages = build_heap.num_pages + probe_heap.num_pages
        total = disk.stats.snapshot().total
        assert 2.5 * pages <= total <= 3.8 * pages
        assert sorted(out) == [(i, i) for i in range(1, 2001)]
