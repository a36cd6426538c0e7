"""Tests for external merge sort."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pbitree as pt
from repro.sort.external_sort import external_sort_set, merge_cost_estimate
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.elementset import ElementSet, SortOrder


def make_env(frames=4, page_size=128):
    disk = DiskManager(page_size=page_size)
    return disk, BufferManager(disk, frames)


def doc_order(codes):
    return sorted(codes, key=pt.doc_order_key)


class TestExternalSort:
    @given(st.lists(st.integers(1, 2**40), max_size=800), st.integers(3, 8))
    @settings(max_examples=20, deadline=None)
    def test_matches_builtin_sorted(self, codes, frames):
        _disk, bufmgr = make_env(frames=frames)
        elements = ElementSet.from_codes(bufmgr, codes, 41)
        result = external_sort_set(elements)
        assert result.to_list() == doc_order(codes)
        assert len(result) == len(codes)

    def test_multi_pass_merge(self):
        """Enough runs to force more than one merge pass (fan-in 2)."""
        _disk, bufmgr = make_env(frames=3, page_size=128)
        codes = list(range(1000, 0, -1))
        elements = ElementSet.from_codes(bufmgr, codes, 10)
        result = external_sort_set(elements, buffer_pages=3)
        assert result.to_list() == doc_order(codes)

    def test_empty_input(self):
        _disk, bufmgr = make_env()
        elements = ElementSet.from_codes(bufmgr, [], 5)
        result = external_sort_set(elements)
        assert result.to_list() == []
        assert result.num_pages == 0

    def test_destroy_input(self):
        disk, bufmgr = make_env()
        elements = ElementSet.from_codes(bufmgr, range(1, 201), 8)
        result = external_sort_set(elements, destroy_input=True)
        assert elements.heap.num_pages == 0
        assert len(result) == 200
        # only the sorted output remains allocated
        assert disk.num_allocated == result.num_pages

    def test_too_few_buffers_rejected(self):
        _disk, bufmgr = make_env(frames=4)
        elements = ElementSet.from_codes(bufmgr, [], 5)
        with pytest.raises(ValueError):
            external_sort_set(elements, buffer_pages=2)

    def test_io_charged(self):
        """Sorting from cold data costs at least 2 x pages (read+write)."""
        disk, bufmgr = make_env(frames=3, page_size=128)
        elements = ElementSet.from_codes(bufmgr, range(1, 601), 10)
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()
        external_sort_set(elements, buffer_pages=3)
        snapshot = disk.stats.snapshot()
        assert snapshot.reads >= elements.num_pages
        assert snapshot.writes >= elements.num_pages


class TestExternalSortSet:
    def test_document_order(self):
        _disk, bufmgr = make_env()
        codes = [20, 1, 16, 18, 24, 17, 3]
        elements = ElementSet.from_codes(bufmgr, codes, 5)
        result = external_sort_set(elements)
        assert result.to_list() == sorted(codes, key=pt.doc_order_key)
        assert result.sorted_by == SortOrder.START

    def test_ancestors_precede_descendants_on_tied_start(self):
        _disk, bufmgr = make_env()
        # 16 (root), 8, 4, 2, 1 all share Start = 1
        elements = ElementSet.from_codes(bufmgr, [1, 4, 16, 2, 8], 5)
        result = external_sort_set(elements)
        assert result.to_list() == [16, 8, 4, 2, 1]


class TestCostEstimate:
    def test_zero_pages(self):
        assert merge_cost_estimate(0, 10) == 0

    def test_single_pass(self):
        # fits in the buffer: one read+write pass
        assert merge_cost_estimate(8, 10) == 16

    def test_two_pass(self):
        # 90 pages, 10 buffers -> 9 runs -> one merge pass (fan-in 9)
        assert merge_cost_estimate(90, 10) == 2 * 90 * 2

    def test_three_pass(self):
        # 100 pages, 10 buffers -> 10 runs > fan-in 9 -> two merge passes
        assert merge_cost_estimate(100, 10) == 2 * 100 * 3

    def test_grows_with_less_memory(self):
        assert merge_cost_estimate(1000, 5) > merge_cost_estimate(1000, 50)
