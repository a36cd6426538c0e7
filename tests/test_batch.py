"""Tests for the batched execution hot path.

The batched kernels (:mod:`repro.core.batch`) are checked against the
paper's scalar functions (:mod:`repro.core.pbitree`), the page-array
decode (:meth:`RecordCodec.unpack_array`, ``scan_code_arrays``) against
the per-record decode and against frame reuse, and the cursor's run
access (``seek``) against element-at-a-time ``advance``: same values,
same order.  The
join operators' I/O accounting is pinned in tests/test_exec_matrix.py.

Boundary codes (height 0 leaves at the far right of the coding space,
the height-62 root of a maximal tree) ride along in every random array
so the 63-bit packing tricks are exercised at their edges.
"""

import itertools
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    FaultConfig,
    FaultInjector,
    RetryPolicy,
)
from repro.core import batch, pbitree as pt
from repro.join.cursor import SetCursor
from repro.storage import page, record
from repro.storage.record import CODE, MAX_CODE_BITS, PAIR, TRIPLE, RecordCodec

MAX_CODE = (1 << MAX_CODE_BITS) - 1

#: edges of the coding space: the smallest leaf, the lowest inner nodes,
#: the root of a height-62 (maximal) tree, and the rightmost leaf
BOUNDARY_CODES = [1, 2, 3, 1 << 62, (1 << 62) + (1 << 61), MAX_CODE]

code_arrays = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=MAX_CODE),
        st.sampled_from(BOUNDARY_CODES),
    ),
    max_size=50,
)



@st.composite
def spine_arrays(draw):
    """Codes salted with whole left spines (codes sharing one Start)
    and duplicates, shuffled."""
    codes = draw(code_arrays)
    tops = st.one_of(
        st.integers(1, MAX_CODE),
        st.integers(1, 62).map(lambda height: 1 << height),
        st.integers(1, 1 << 20).map(lambda high: high << 40),
    )
    for code in draw(st.lists(tops, max_size=3)):
        while code & 1 == 0:
            codes.append(code)
            code -= (code & -code) >> 1  # its left child
        codes.append(code)
    if codes:
        codes += draw(st.lists(st.sampled_from(codes), max_size=10))
    return draw(st.permutations(codes))


# ----------------------------------------------------------------------
# kernel vs scalar pbitree oracle
# ----------------------------------------------------------------------
class TestKernelsMatchScalar:
    @given(codes=code_arrays)
    @settings(max_examples=60, deadline=None)
    def test_unary_kernels(self, codes):
        assert batch.heights(codes) == [pt.height_of(c) for c in codes]
        assert batch.starts(codes) == [pt.start_of(c) for c in codes]
        assert batch.ends(codes) == [pt.end_of(c) for c in codes]
        assert batch.regions(codes) == [pt.region_of(c) for c in codes]
        assert batch.prefixes(codes) == [pt.prefix_of(c) for c in codes]

    @given(codes=code_arrays, height=st.integers(0, 62))
    @settings(max_examples=60, deadline=None)
    def test_rollup_kernels(self, codes, height):
        eligible = [c for c in codes if pt.height_of(c) <= height]
        assert batch.rollup(eligible, height) == [
            pt.f_ancestor(c, height) for c in eligible
        ]
        # flat (effective, original) fields, one pair per code
        assert batch.rollup_pairs(codes, height) == [
            field
            for c in codes
            for field in (
                (pt.f_ancestor(c, height), c)
                if pt.height_of(c) < height
                else (c, c)
            )
        ]
        # SHCJ probe keys: F(c, height) below the class, 0 (no key) at
        # or above it
        assert batch.probe_keys(codes, height) == [
            pt.f_ancestor(c, height) if pt.height_of(c) < height else 0
            for c in codes
        ]

    @given(codes=code_arrays)
    @settings(max_examples=60, deadline=None)
    def test_doc_order_keys_are_order_equivalent(self, codes):
        packed = batch.doc_order_keys(codes)
        tuples = [pt.doc_order_key(c) for c in codes]
        for (pa, ta), (pb, tb) in zip(
            zip(packed, tuples), list(zip(packed, tuples))[1:]
        ):
            assert (pa < pb) == (ta < tb)
            assert (pa == pb) == (ta == tb)

    @given(codes=spine_arrays())
    @settings(max_examples=60, deadline=None)
    def test_doc_order_keys_order_like_tuples_on_spines(self, codes):
        """Every pair, left-spine ties and duplicates included."""
        keyed = list(zip(batch.doc_order_keys(codes), map(pt.doc_order_key, codes)))
        for (ka, ta), (kb, tb) in itertools.combinations(keyed, 2):
            assert (ka < kb) == (ta < tb)
            assert (ka == kb) == (ta == tb)

    @given(codes=spine_arrays())
    @settings(max_examples=60, deadline=None)
    def test_doc_order_keys_invert(self, codes):
        keys = batch.doc_order_keys(codes)
        assert batch.codes_of_doc_keys(keys) == codes
        assert all(0 <= key < 1 << 127 for key in keys)

    def test_doc_order_keys_at_the_code_bound(self):
        codes = [MAX_CODE, 1 << 62, 1, (1 << 62) + (1 << 61), 1 << 61]
        keys = batch.doc_order_keys(codes)
        assert batch.codes_of_doc_keys(keys) == codes
        # the root and its left spine share Start 1: ancestors first
        assert batch.sort_doc_order(codes) == [
            1 << 62, 1 << 61, 1, (1 << 62) + (1 << 61), MAX_CODE,
        ]

    @given(codes=spine_arrays())
    @settings(max_examples=60, deadline=None)
    def test_sort_doc_order(self, codes):
        assert batch.sort_doc_order(codes) == sorted(
            codes, key=pt.doc_order_key
        )

    @given(codes=code_arrays, anchor=st.integers(1, MAX_CODE))
    @settings(max_examples=60, deadline=None)
    def test_containment_kernels(self, codes, anchor):
        descendants = [c for c in codes if pt.is_ancestor(anchor, c)]
        ancestors = [c for c in codes if pt.is_ancestor(c, anchor)]
        assert batch.descendants_in(anchor, codes) == descendants
        assert batch.ancestors_in(anchor, codes) == ancestors
        assert batch.count_matches(anchor, codes) == len(descendants)

    @given(
        codes=code_arrays,
        low=st.integers(0, MAX_CODE),
        high=st.integers(0, MAX_CODE),
    )
    @settings(max_examples=30, deadline=None)
    def test_range_filter(self, codes, low, high):
        assert batch.range_filter(codes, low, high) == [
            c for c in codes if low <= c <= high
        ]


# ----------------------------------------------------------------------
# owned record decode
# ----------------------------------------------------------------------
class TestRecordDecode:
    @given(
        codes=st.lists(st.integers(0, MAX_CODE), max_size=40),
        arity=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_fields_unpack_array_roundtrip(self, codes, arity):
        codec = RecordCodec(arity)
        records = [
            tuple(codes[i : i + arity])
            for i in range(0, len(codes) - arity + 1, arity)
        ]
        fields = [field for r in records for field in r]
        payload = codec.pack_fields(fields)
        per_record = bytearray(len(records) * codec.record_size)
        for index, r in enumerate(records):
            codec.pack_into(per_record, index * codec.record_size, r)
        assert payload == per_record
        assert list(codec.unpack_array(payload, len(records))) == fields

    def test_unpack_array_is_owned(self):
        payload = bytearray(CODE.pack_fields([7, 9]))
        fields = CODE.unpack_array(payload, 2)
        payload[0] = 8  # mutating the page leaves the decoded array alone
        assert isinstance(fields, array)
        assert fields.tolist() == [7, 9]

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_unpack_array_reads_only_count_records(self, count):
        payload = PAIR.pack_fields([1, 2, 3, 4, 5, 6, 7, 8])
        assert PAIR.unpack_array(payload, count).tolist() == list(
            range(1, 2 * count + 1)
        )

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_unpack_array_accepts_any_buffer(self, wrap):
        payload = wrap(TRIPLE.pack_fields([1, 2, 3, MAX_CODE, 0, 9]))
        assert TRIPLE.unpack_array(payload, 2).tolist() == [1, 2, 3, MAX_CODE, 0, 9]

    def test_big_endian_fallback_swaps_every_field(self, monkeypatch):
        codes = [1, 0x0102030405060708, MAX_CODE]
        payload = CODE.pack_fields(codes)
        monkeypatch.setattr(record, "_NATIVE_LE", not record._NATIVE_LE)
        swapped = CODE.unpack_array(payload, len(codes)).tolist()
        monkeypatch.undo()
        native = CODE.unpack_array(payload, len(codes)).tolist()
        assert native == codes
        assert swapped == [
            int.from_bytes(c.to_bytes(8, "little"), "big") for c in codes
        ]

    @pytest.mark.parametrize("codec", [CODE, PAIR, TRIPLE], ids=lambda c: c.arity)
    def test_read_record_array_is_owned(self, codec):
        data = bytearray(128)
        expected = [f for i in range(3) for f in range(i, i + codec.arity)]
        payload = codec.pack_fields(expected)
        data[page.PAGE_HEADER_SIZE : page.PAGE_HEADER_SIZE + len(payload)] = payload
        page.set_record_count(data, 3)
        fields = page.read_record_array(data, codec)
        data[:] = bytes(len(data))  # the frame is zeroed for reuse
        assert fields.tolist() == expected


def make_set(codes, tree_height, frames=8, page_size=128, name="S"):
    disk = DiskManager(page_size=page_size)
    bufmgr = BufferManager(disk, frames)
    return ElementSet.from_codes(bufmgr, codes, tree_height, name)


class TestPageDecode:
    @given(codes=code_arrays)
    @settings(max_examples=25, deadline=None)
    def test_scan_code_arrays_matches_scan_pages(self, codes):
        elements = make_set(codes, 62)
        scalar = [c for page in elements.scan_pages() for c in page]
        batched = [c for page in elements.scan_code_arrays() for c in page]
        assert batched == scalar == codes

    @pytest.mark.parametrize("codes", [[], [5], BOUNDARY_CODES])
    def test_edge_page_shapes(self, codes):
        """Empty sets, a single-record page, and boundary codes."""
        elements = make_set(codes, 62)
        assert [
            c for page in elements.scan_code_arrays() for c in page
        ] == codes
        assert elements.to_list() == codes


# ----------------------------------------------------------------------
# cursor run access (seek) vs element-at-a-time advance()
# ----------------------------------------------------------------------
def cursor_inputs():
    return st.tuples(
        st.lists(st.integers(1, MAX_CODE), min_size=0, max_size=60),
        st.integers(1, 17),
    )


def take(cursor, limit):
    """Consume up to ``limit`` codes starting with ``current``."""
    out = []
    while limit > 0 and cursor.current is not None:
        out.append(cursor.current)
        cursor.advance()
        limit -= 1
    return out


class TestBatchedCursor:
    @given(inputs=cursor_inputs(), skip=st.integers(0, 70))
    @settings(max_examples=30, deadline=None)
    def test_save_restore_mid_batch(self, inputs, skip):
        codes, size = inputs
        elements = make_set(codes, 62)
        cursor = SetCursor(elements)
        take(cursor, skip)
        mark = cursor.save()
        first = take(cursor, size)
        cursor.restore(mark)
        assert take(cursor, size) == first

    @given(codes=st.lists(st.integers(1, MAX_CODE), max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_seek_matches_advance(self, codes):
        elements = make_set(codes, 62)
        scalar, seeking = SetCursor(elements), SetCursor(elements)
        while scalar.current is not None:
            scalar.advance()
            seeking.seek(seeking.slot + 1)
            assert seeking.current == scalar.current

    def test_fault_replay_through_batched_cursor(self):
        """Transient read faults replay identically through the cursor."""
        rng = random.Random(11)
        codes = [rng.randrange(1, MAX_CODE) for _ in range(300)]

        def scan(faults):
            disk = DiskManager(page_size=128, checksums=True, faults=faults)
            bufmgr = BufferManager(disk, 4, retry=RetryPolicy())
            elements = ElementSet.from_codes(bufmgr, codes, 62, "F")
            bufmgr.flush_all()
            bufmgr.evict_all()
            cursor = SetCursor(elements)
            out = []
            while True:
                chunk = take(cursor, 7)
                if not chunk:
                    return out, disk
                out.extend(chunk)

        quiet, _ = scan(None)
        noisy, disk = scan(
            FaultInjector(
                FaultConfig(seed=3, read_error_rate=0.1, torn_page_rate=0.05)
            )
        )
        assert noisy == quiet == codes
        assert disk.stats.retries > 0


# ----------------------------------------------------------------------
# buffer-pool frame recycling (satellite: dropped redundant page copy)
# ----------------------------------------------------------------------
class TestFrameRecycling:
    def test_frames_own_mutable_recycled_buffers(self):
        disk = DiskManager(page_size=64)
        bufmgr = BufferManager(disk, 2)
        pages = []
        for fill in range(4):
            frame = bufmgr.new_page()
            frame.data[:] = bytes([fill]) * 64
            bufmgr.unpin(frame.page_id, dirty=True)
            pages.append(frame.page_id)

        # reloading an evicted page recycles the victim's buffer ...
        victim_buffers = {id(f.data) for f in bufmgr._frames.values()}
        frame = bufmgr.pin(pages[0])
        assert id(frame.data) in victim_buffers
        # ... and the frame still owns a mutable, correct bytearray
        assert isinstance(frame.data, bytearray)
        assert frame.data == bytes([0]) * 64
        frame.data[0] = 99
        bufmgr.unpin(pages[0], dirty=True)
        bufmgr.flush_all()
        bufmgr.evict_all()
        assert bufmgr.pin(pages[0]).data[0] == 99
        bufmgr.unpin(pages[0])

    def test_every_resident_page_roundtrips_after_churn(self):
        disk = DiskManager(page_size=64)
        bufmgr = BufferManager(disk, 3)
        pages = []
        for fill in range(10):
            frame = bufmgr.new_page()
            frame.data[:] = bytes([fill]) * 64
            bufmgr.unpin(frame.page_id, dirty=True)
            pages.append(frame.page_id)
        order = list(range(10)) * 3
        random.Random(7).shuffle(order)
        for fill in order:
            frame = bufmgr.pin(pages[fill])
            assert frame.data == bytes([fill]) * 64
            bufmgr.unpin(pages[fill])


# ----------------------------------------------------------------------
# decoded pages kept past their scan, while the pool reuses every frame
# ----------------------------------------------------------------------
class TestKeptPagesSurviveFrameReuse:
    """A decoded page is owned: keeping it past the scan (or the cursor
    caching it) and then churning a 3-frame pool until every frame
    buffer has been handed to another page leaves it equal to the
    stored codes."""

    FRAMES = 3
    POLICY = "lru"

    def setup_method(self):
        rng = random.Random(5)
        disk = DiskManager(page_size=64)  # 7 codes per page
        self.bufmgr = BufferManager(disk, self.FRAMES, policy=self.POLICY)
        self.codes = [rng.randrange(1, MAX_CODE) for _ in range(40)]
        self.elements = ElementSet.from_codes(self.bufmgr, self.codes, 62, "K")
        self.other = ElementSet.from_codes(
            self.bufmgr, [MAX_CODE] * 7 * 4 * self.FRAMES, 62, "churn"
        )
        capacity = self.elements.heap.capacity
        self.pages = [
            self.codes[start : start + capacity]
            for start in range(0, len(self.codes), capacity)
        ]

    def churn(self):
        """Scan another set through the pool: every frame is reused."""
        for _ in self.other.scan_code_arrays():
            pass
        heap = self.elements.heap
        assert not any(self.bufmgr.is_resident(pid) for pid in heap.page_ids)

    def test_heap_page_arrays_kept_past_the_scan(self):
        kept = list(self.elements.heap.scan_page_arrays())
        self.churn()
        assert [page.tolist() for page in kept] == self.pages

    def test_code_arrays_kept_past_the_scan(self):
        kept = list(self.elements.scan_code_arrays())
        self.churn()
        assert [list(page) for page in kept] == self.pages

    def test_cursor_cached_page(self):
        cursor = SetCursor(self.elements)
        seen = []
        while cursor.current is not None:
            self.churn()  # between the page load and every read of it
            seen.append(cursor.current)
            cursor.advance()
        assert seen == self.codes

    def test_read_page_array_kept_past_reuse(self):
        heap = self.elements.heap
        kept = [heap.read_page_array(i) for i in range(heap.num_pages)]
        self.churn()
        assert [fields.tolist() for fields in kept] == self.pages

    def test_record_array_decoded_inside_the_pin(self):
        heap = self.elements.heap
        kept = []
        for page_id in heap.page_ids:
            frame = self.bufmgr.pin(page_id)
            kept.append(page.read_record_array(frame.data, CODE))
            self.bufmgr.unpin(page_id)
        self.churn()
        assert [fields.tolist() for fields in kept] == self.pages

    def test_interleaved_scans_keep_both(self):
        # two scans sharing the pool take each other's frames page by page
        mine, theirs = [], []
        scans = (self.elements.scan_code_arrays(), self.other.scan_code_arrays())
        for ours, other in itertools.zip_longest(*scans):
            if ours is not None:
                mine.append(ours)
            theirs.append(other)
        self.churn()
        assert [list(p) for p in mine] == self.pages
        assert [c for p in theirs for c in p] == [MAX_CODE] * len(self.other)

    def test_kept_page_is_not_the_stored_page(self):
        kept = list(self.elements.scan_code_arrays())
        for fields in kept:
            fields[0] = 0  # writing a decoded page leaves the set alone
        heap = self.elements.heap
        last = heap.num_pages - 1
        assert self.bufmgr.is_resident(heap.page_ids[last])
        assert heap.read_page_array(last).tolist() == self.pages[last]
        self.churn()
        assert [list(p) for p in self.elements.scan_code_arrays()] == self.pages


class TestKeptPagesSurviveClockReuse(TestKeptPagesSurviveFrameReuse):
    """The same, with the clock policy choosing which frame is reused."""

    POLICY = "clock"
