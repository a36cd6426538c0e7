"""Tests for the view-lifetime sanitizer (repro.storage.sanitize).

The borrow contract — *a page view is valid only while its frame stays
pinned* — is enforced at runtime when the sanitizer is on.  This suite
pins both directions of the contract:

* a deliberately leaked view across an unpin + forced eviction always
  raises a typed sanitizer error (and, crucially, the *unsanitized*
  build silently survives the same leak reading recycled bytes — the
  exact bug class the sanitizer exists for);
* every green path is unaffected: clean scans raise nothing, poisoning
  never fires while pins are held (that sanitized ``run_lineup`` output
  is field-for-field identical to unsanitized output is pinned by
  tests/test_exec_matrix.py).
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import BufferManager, DiskManager, ElementSet
from repro.storage import page as page_layout
from repro.storage import sanitize
from repro.storage.heapfile import HeapFile
from repro.storage.record import CODE
from repro.storage.sanitize import (
    POISON_BYTE,
    _parse_switch,
    sanitized,
    LiveViewAtEvictError,
    UseAfterUnpinError,
    ViewRegistry,
    ViewSanitizerError,
)

PAGE_SIZE = 128
CAPACITY = page_layout.page_capacity(PAGE_SIZE, CODE.record_size)


def build_heap(num_pages, pool_size, policy="lru"):
    """A heap of exactly ``num_pages`` full pages, pool drained."""
    disk = DiskManager(page_size=PAGE_SIZE)
    bufmgr = BufferManager(disk, pool_size, policy=policy)
    records = [(1 + i,) for i in range(num_pages * CAPACITY)]
    heap = HeapFile.from_records(bufmgr, CODE, records, name="sanitized")
    bufmgr.flush_all()
    bufmgr.evict_all()
    assert heap.num_pages == num_pages
    return bufmgr, heap


def leak_view(bufmgr, heap, index):
    """Pin a page, take the raw zero-copy view, unpin — the bug."""
    page_id = heap.page_ids[index]
    frame = bufmgr.pin(page_id)
    view = page_layout.read_record_array(frame.data, CODE)
    bufmgr.unpin(page_id)
    return view


def churn(bufmgr, heap, skip_index):
    """Pin/unpin every other page twice, then drain the pool."""
    for _ in range(2):
        for position, page_id in enumerate(heap.page_ids):
            if position == skip_index:
                continue
            bufmgr.pin(page_id)
            bufmgr.unpin(page_id)
    bufmgr.evict_all()


# ----------------------------------------------------------------------
# the registry is plain bookkeeping
# ----------------------------------------------------------------------
class TestViewRegistry:
    def test_register_release_roundtrip(self):
        registry = ViewRegistry()
        first = registry.register(7, "scan")
        second = registry.register(7, "index")
        assert registry.num_live == 2
        assert sorted(registry.live_labels(7)) == ["index", "scan"]
        registry.release(7, first)
        assert registry.live_labels(7) == ["index"]
        registry.release(7, second)
        assert registry.num_live == 0
        assert registry.live_labels(7) == []

    def test_release_is_idempotent(self):
        registry = ViewRegistry()
        ticket = registry.register(1, "x")
        registry.release(1, ticket)
        registry.release(1, ticket)  # unknown ticket: no-op
        registry.release(99, 12345)  # unknown page: no-op
        assert registry.num_live == 0

    def test_clear(self):
        registry = ViewRegistry()
        registry.register(1, "a")
        registry.register(2, "b")
        registry.clear()
        assert registry.num_live == 0


# ----------------------------------------------------------------------
# the mode switch
# ----------------------------------------------------------------------
def _enabled_in_a_fresh_process(raw):
    """``sanitize_enabled()`` of a new interpreter with REPRO_SANITIZE=raw."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, REPRO_SANITIZE=raw, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.storage.sanitize import sanitize_enabled; "
         "print(sanitize_enabled())"],
        env=env, capture_output=True, text=True,
    )


class TestSwitch:
    def test_unset_and_blank_are_off(self):
        assert _parse_switch("") is False
        assert _parse_switch(" ") is False

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("1", True), ("true", True), ("ON", True), ("yes", True),
            ("0", False), ("false", False), ("off", False), ("No", False),
        ],
    )
    def test_switch_spellings(self, raw, expected):
        assert _parse_switch(raw) is expected

    @pytest.mark.parametrize("raw", ["ture", "maybe"])
    def test_malformed_value_names_the_variable(self, raw):
        with pytest.raises(ValueError, match="REPRO_SANITIZE") as excinfo:
            _parse_switch(raw)
        assert raw in str(excinfo.value) and "expected" in str(excinfo.value)

    def test_process_default_comes_from_the_environment(self):
        assert _enabled_in_a_fresh_process("1").stdout.strip() == "True"
        assert _enabled_in_a_fresh_process("off").stdout.strip() == "False"
        failed = _enabled_in_a_fresh_process("ture")
        assert failed.returncode != 0
        assert "ValueError: REPRO_SANITIZE='ture'" in failed.stderr

    def test_scope_restores_previous_state(self):
        before = sanitize.sanitize_enabled()
        with sanitized(True):
            assert sanitize.sanitize_enabled()
            with sanitized(False):
                assert not sanitize.sanitize_enabled()
            assert sanitize.sanitize_enabled()
        assert sanitize.sanitize_enabled() == before

    def test_scope_restores_on_error(self):
        before = sanitize.sanitize_enabled()
        with pytest.raises(RuntimeError):
            with sanitized(not before):
                raise RuntimeError("boom")
        assert sanitize.sanitize_enabled() == before

    def test_unpin_check_raises_only_with_live_borrows_under_the_sanitizer(self):
        """The registry is tested before the mode: a live borrow raises
        exactly when the sanitizer is on, an empty registry never."""
        registry = ViewRegistry()
        with sanitized(True):
            sanitize.check_unpin_to_zero(registry, 3)
        registry.register(3, "held")
        registry.register(4, "other page")
        with sanitized(False):
            sanitize.check_unpin_to_zero(registry, 3)
        with sanitized(True):
            sanitize.check_unpin_to_zero(registry, 5)  # no borrow of page 5
            with pytest.raises(UseAfterUnpinError) as caught:
                sanitize.check_unpin_to_zero(registry, 3)
        assert caught.value.page_id == 3 and caught.value.labels == ("held",)

    def test_errors_are_not_storage_faults(self):
        from repro.storage.faults import StorageFault

        assert not issubclass(ViewSanitizerError, StorageFault)
        assert issubclass(UseAfterUnpinError, ViewSanitizerError)
        assert issubclass(LiveViewAtEvictError, ViewSanitizerError)


# ----------------------------------------------------------------------
# declared borrows: unpin-to-zero with a live borrow is rejected
# ----------------------------------------------------------------------
class TestDeclaredBorrows:
    def test_unpin_to_zero_with_live_borrow_raises(self):
        with sanitized(True):
            bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 2)
            frame = bufmgr.new_page()
            bufmgr.views.register(frame.page_id, "stray-borrow")
            with pytest.raises(UseAfterUnpinError) as excinfo:
                bufmgr.unpin(frame.page_id)
            assert excinfo.value.page_id == frame.page_id
            assert "stray-borrow" in excinfo.value.labels

    def test_nested_pin_tolerates_borrow_until_last_unpin(self):
        with sanitized(True):
            bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 2)
            frame = bufmgr.new_page()
            bufmgr.pin(frame.page_id)  # second pin
            ticket = bufmgr.views.register(frame.page_id, "inner")
            bufmgr.unpin(frame.page_id)  # 2 -> 1: borrow still legal
            bufmgr.views.release(frame.page_id, ticket)
            bufmgr.unpin(frame.page_id)  # 1 -> 0: clean

    @pytest.mark.parametrize(
        "derive", [lambda v: v[:2], memoryview], ids=["slice", "re-export"]
    )
    def test_retained_derived_view_caught_by_evict_probe(self, derive):
        # A derived view (slice or re-export) owns its *own* export of
        # the frame buffer: it survives the exporter's release, but the
        # buffer probe refuses to retire the frame under it.
        bufmgr, heap = build_heap(3, 2)
        with sanitized(True):
            kept = []
            with pytest.raises(LiveViewAtEvictError):
                for fields in heap.scan_page_arrays():
                    kept.append(derive(fields))  # outlives the yield
            del kept


# ----------------------------------------------------------------------
# the leak the sanitizer exists for
# ----------------------------------------------------------------------
class TestLeakedViewDetection:
    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_leaked_view_raises_on_eviction(self, policy):
        bufmgr, heap = build_heap(5, 2, policy=policy)
        with sanitized(True):
            view = leak_view(bufmgr, heap, 0)
            with pytest.raises(LiveViewAtEvictError) as excinfo:
                churn(bufmgr, heap, skip_index=0)
            assert excinfo.value.page_id == heap.page_ids[0]
            assert excinfo.value.reason in ("recycle", "evict")
            del view

    @settings(max_examples=25, deadline=None)
    @given(
        num_pages=st.integers(min_value=3, max_value=8),
        pool_size=st.integers(min_value=2, max_value=4),
        leak_index=st.integers(min_value=0, max_value=7),
        policy=st.sampled_from(["lru", "clock"]),
    )
    def test_any_leak_any_policy_always_raises(
        self, num_pages, pool_size, leak_index, policy
    ):
        if pool_size >= num_pages:
            pool_size = num_pages - 1
        leak_index %= num_pages
        bufmgr, heap = build_heap(num_pages, pool_size, policy=policy)
        with sanitized(True):
            view = leak_view(bufmgr, heap, leak_index)
            with pytest.raises(LiveViewAtEvictError):
                churn(bufmgr, heap, skip_index=leak_index)
            del view

    def test_unsanitized_build_silently_reads_recycled_bytes(self):
        # The regression the runtime mode guards against: without the
        # sanitizer the same leak raises nothing — the view survives
        # and reads another page's codes out of the recycled buffer.
        bufmgr, heap = build_heap(5, 2)
        with sanitized(False):
            view = leak_view(bufmgr, heap, 0)
            original = list(view)
            assert original[0] == 1
            # LRU pool of 2: the third distinct pin recycles page 0's
            # buffer into the incoming page — no error is raised.
            bufmgr.pin(heap.page_ids[1])
            bufmgr.unpin(heap.page_ids[1])
            bufmgr.pin(heap.page_ids[2])
            bufmgr.unpin(heap.page_ids[2])
            bufmgr.pin(heap.page_ids[3])
            bufmgr.unpin(heap.page_ids[3])
            stale = list(view)  # no exception: the silent-corruption path
            assert stale != original
            assert stale[0] != 1  # plausible codes from the *wrong* page

    def test_sanitized_view_is_revoked_on_generator_resume(self):
        bufmgr, heap = build_heap(3, 2)
        with sanitized(True):
            leaked = None
            for fields in heap.scan_page_arrays():
                if leaked is None:
                    leaked = fields  # keep the first page's borrow
            assert leaked is not None
            with pytest.raises(ValueError):
                leaked[0]  # export was revoked, not left dangling


# ----------------------------------------------------------------------
# poisoning
# ----------------------------------------------------------------------
class TestPoisoning:
    def test_retired_buffer_is_poisoned(self):
        with sanitized(True):
            bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 2)
            frame = bufmgr.new_page()
            frame.data[:] = bytes([7]) * PAGE_SIZE
            alias = frame.data  # plain bytearray alias: never exports
            bufmgr.unpin(frame.page_id, dirty=True)
            bufmgr.evict_all()
            assert set(alias) == {POISON_BYTE}

    def test_recycle_path_poisons_and_never_reuses(self):
        with sanitized(True):
            bufmgr, heap = build_heap(4, 2)
            bufmgr.pin(heap.page_ids[0])
            alias = bufmgr._frames[heap.page_ids[0]].data
            bufmgr.unpin(heap.page_ids[0])
            # fill the pool and force a recycle of page 0's frame
            for page_id in heap.page_ids[1:]:
                bufmgr.pin(page_id)
                bufmgr.unpin(page_id)
            assert set(alias) == {POISON_BYTE}
            # no resident frame shares the poisoned buffer
            assert all(
                f.data is not alias for f in bufmgr._frames.values()
            )

    def test_poisoning_never_fires_on_live_data(self):
        # A clean sanitized scan: every page decodes to its true codes,
        # nothing ever reads poison, and the pool drains without error.
        bufmgr, heap = build_heap(4, 2)
        with sanitized(True):
            seen = []
            for fields in heap.scan_page_arrays():
                seen.extend(fields)
            assert seen == [1 + i for i in range(4 * CAPACITY)]
            bufmgr.evict_all()

    def test_poison_noop_when_disabled(self):
        with sanitized(False):
            data = bytearray(b"\x01" * 8)
            sanitize.poison(data)
            assert data == b"\x01" * 8


# ----------------------------------------------------------------------
# the escape hatch: copy=True yields owning arrays
# ----------------------------------------------------------------------
class TestCopyEscapeHatch:
    @pytest.mark.parametrize("enabled", [False, True])
    def test_copied_pages_outlive_the_scan(self, enabled):
        bufmgr, heap = build_heap(4, 2)
        with sanitized(enabled):
            pages = list(heap.scan_page_arrays(copy=True))
            bufmgr.evict_all()  # no live views: clean drain
            flat = [value for fields in pages for value in fields]
            assert flat == [1 + i for i in range(4 * CAPACITY)]

    def test_element_set_scan_code_arrays_copy(self):
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 3)
        codes = [(1 << 40) + 2 * i + 1 for i in range(3 * CAPACITY)]
        elements = ElementSet.from_codes(bufmgr, codes, 62, "T")
        with sanitized(True):
            pages = list(elements.scan_code_arrays(copy=True))
            bufmgr.flush_all()
            bufmgr.evict_all()
            assert [c for page in pages for c in page] == codes
