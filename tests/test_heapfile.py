"""Tests for heap files and element sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pbitree as pt
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.elementset import ElementSet, SortOrder
from repro.storage.faults import FaultInjector, PermanentIOError
from repro.storage.heapfile import HeapFile
from repro.storage.record import CODE, PAIR


def make_env(frames=8, page_size=128):
    disk = DiskManager(page_size=page_size)
    return disk, BufferManager(disk, frames)


def fields_of(heap: HeapFile) -> list[int]:
    """Every field of ``heap`` in file order, off the page arrays."""
    return [field for page in heap.scan_page_arrays() for field in page]


class TestHeapFile:
    @given(st.lists(st.integers(0, 2**63), max_size=500))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, values):
        _disk, bufmgr = make_env()
        heap = HeapFile.from_fields(bufmgr, CODE, values)
        assert fields_of(heap) == values
        assert len(heap) == len(values)

    def test_page_count(self):
        _disk, bufmgr = make_env(page_size=128)
        capacity = (128 - 8) // 8  # 15 records/page
        heap = HeapFile.from_fields(bufmgr, CODE, range(31))
        assert heap.capacity == capacity
        assert heap.num_pages == 3  # 15 + 15 + 1

    def test_read_page_array(self):
        _disk, bufmgr = make_env()
        fields = [f for i in range(40) for f in (i, i * 2)]
        heap = HeapFile.from_fields(bufmgr, PAIR, fields)
        assert heap.read_page_array(0)[:2].tolist() == [0, 0]
        assert heap.read_page_array(heap.num_pages - 1)[-2:].tolist() == [39, 78]
        assert [
            field
            for index in range(heap.num_pages)
            for field in heap.read_page_array(index)
        ] == fields

    def test_writer_context_manager(self):
        _disk, bufmgr = make_env()
        heap = HeapFile(bufmgr, CODE)
        with heap.open_writer() as writer:
            writer.append((1,))
            writer.append((2,))
        assert fields_of(heap) == [1, 2]

    def test_append_after_close_rejected(self):
        _disk, bufmgr = make_env()
        heap = HeapFile(bufmgr, CODE)
        writer = heap.open_writer()
        writer.close()
        with pytest.raises(ValueError):
            writer.append((1,))
        with pytest.raises(ValueError):
            writer.append_fields([1])

    def test_writer_leaves_no_pins(self):
        _disk, bufmgr = make_env()
        heap = HeapFile(bufmgr, CODE)
        with heap.open_writer() as writer:
            writer.append_fields(range(100))
        assert bufmgr.num_pinned == 0

    def test_destroy_releases_pages(self):
        disk, bufmgr = make_env()
        heap = HeapFile.from_fields(bufmgr, CODE, range(100))
        pages = heap.num_pages
        assert disk.num_allocated == pages
        heap.destroy()
        assert disk.num_allocated == 0
        assert heap.num_pages == 0

    def test_scan_faults_pages_once_per_scan(self):
        disk, bufmgr = make_env(frames=2, page_size=128)
        heap = HeapFile.from_fields(bufmgr, CODE, range(100))
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()
        fields_of(heap)
        assert disk.stats.reads == heap.num_pages

    @pytest.mark.parametrize("read", ["scan", "by_position"])
    def test_read_fault_names_file_and_page(self, read):
        """A fault reading page 1 propagates typed, names the heap file
        and the page, and leaves no pin behind."""
        disk, bufmgr = make_env(frames=2, page_size=128)
        heap = HeapFile.from_fields(bufmgr, CODE, range(100), name="H")
        bufmgr.flush_all()
        bufmgr.evict_all()
        injector = FaultInjector(seed=0)
        injector.schedule("read-error", at=2, permanent=True)
        disk.set_faults(injector)
        with pytest.raises(PermanentIOError) as info:
            if read == "scan":
                fields_of(heap)
            else:
                for index in range(heap.num_pages):
                    heap.read_page_array(index)
        assert "heap file 'H' page 1" in str(info.value)
        assert bufmgr.num_pinned == 0

    def test_empty_scan(self):
        _disk, bufmgr = make_env()
        heap = HeapFile(bufmgr, CODE)
        assert fields_of(heap) == []
        assert heap.num_pages == 0


class TestElementSet:
    def test_from_codes_and_heights_metadata(self):
        _disk, bufmgr = make_env()
        codes = [4, 12, 20, 6]
        elements = ElementSet.from_codes(bufmgr, codes, tree_height=5, name="s")
        assert elements.to_list() == codes
        assert elements.known_heights == {pt.height_of(c) for c in codes} == {1, 2}

    def test_from_tree_tag(self):
        from repro.core.binarize import binarize
        from repro.datatree.builder import tree_from_spec

        tree = tree_from_spec(("a", [("b", []), ("b", []), ("c", [])]))
        encoding = binarize(tree)
        _disk, bufmgr = make_env()
        b_set = ElementSet.from_tree_tag(
            bufmgr, tree, "b", encoding.tree_height
        )
        assert len(b_set) == 2
        assert b_set.sorted_by is SortOrder.NONE
        assert b_set.name == "//b"

    def test_sorted_copy(self):
        _disk, bufmgr = make_env()
        codes = [20, 4, 16, 6, 1]
        elements = ElementSet.from_codes(bufmgr, codes, 5)
        by_start = elements.sorted_copy(SortOrder.START)
        assert by_start.to_list() == sorted(codes, key=pt.doc_order_key)
        assert by_start.sorted_by == SortOrder.START
        by_code = elements.sorted_copy(SortOrder.CODE)
        assert by_code.to_list() == sorted(codes)

    def test_scan_pages_shape(self):
        _disk, bufmgr = make_env(page_size=128)
        elements = ElementSet.from_codes(bufmgr, range(1, 32), 10)
        pages = list(elements.scan_pages())
        assert sum(len(p) for p in pages) == 31
        assert len(pages) == elements.num_pages

    def test_repr_mentions_name(self):
        _disk, bufmgr = make_env()
        elements = ElementSet.from_codes(bufmgr, [1], 3, name="things")
        assert "things" in repr(elements)
