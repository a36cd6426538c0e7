"""The positional histogram every element set carries.

Its maintenance rules — one count per insert/delete, ``(h, s) -> (h +
delta, s')`` per grow — must agree with building it afresh from the
codes, which :mod:`tests.oracles.histogram` does with a scan and a
``Counter`` (the oracle).
"""

from hypothesis import given, settings, strategies as st

from repro.core import pbitree as pt
from repro.join.planner import SetProperties
from repro.sort.external_sort import external_sort_set
from repro.storage import BufferManager, DiskManager, ElementSet
from repro.storage.histogram import NUM_SLICES, PositionHistogram

from .oracles.histogram import position_counts, scanned_counts


@st.composite
def coded_sets(draw):
    tree_height = draw(st.integers(1, 24))
    codes = draw(
        st.lists(st.integers(1, pt.max_code(tree_height)), max_size=80, unique=True)
    )
    return tree_height, codes


class TestPositionHistogram:
    @given(coded_sets())
    @settings(max_examples=60)
    def test_of_codes_matches_the_counting_oracle(self, coded):
        tree_height, codes = coded
        histogram = PositionHistogram.of_codes(codes, tree_height)
        assert histogram.counts == position_counts(codes, tree_height)
        assert histogram.heights() == {pt.height_of(code) for code in codes}
        assert all(s < NUM_SLICES for _h, s in histogram.counts)

    @given(coded_sets(), st.data())
    @settings(max_examples=60)
    def test_adds_and_removes_match_a_rebuild(self, coded, data):
        tree_height, codes = coded
        removed = data.draw(st.sets(st.sampled_from(codes))) if codes else set()
        histogram = PositionHistogram(tree_height)
        for code in codes:
            histogram.add(code)
        histogram.heights()  # cached now; every add must drop it
        for code in removed:
            histogram.add(code, -1)
        kept = [code for code in codes if code not in removed]
        assert histogram == PositionHistogram.of_codes(kept, tree_height)
        assert histogram.heights() == {pt.height_of(code) for code in kept}

    @given(coded_sets(), st.integers(1, 8))
    @settings(max_examples=60)
    def test_grow_is_the_histogram_of_the_shifted_codes(self, coded, delta):
        """Below six levels a slice is a code and moves with it; from
        six levels up it stays put."""
        tree_height, codes = coded
        histogram = PositionHistogram.of_codes(codes, tree_height)
        histogram.heights()
        histogram.grow(delta)
        grown = [pt.grown_code(code, delta) for code in codes]
        assert histogram == PositionHistogram.of_codes(grown, tree_height + delta)
        assert histogram.heights() == {pt.height_of(code) for code in grown}


class TestEveryConstructorCarriesIt:
    def single_height_set(self):
        bufmgr = BufferManager(DiskManager(page_size=128), 8)
        codes = [pt.g_code(alpha, 9, 12) for alpha in range(0, 400, 3)]
        return ElementSet.from_codes(bufmgr, codes, 12, "S")

    def test_from_codes_fills_it_while_writing(self):
        elements = self.single_height_set()
        assert elements.histogram.counts == scanned_counts(elements)
        assert elements.known_heights == {pt.height_of(pt.g_code(0, 9, 12))}

    def test_sorted_output_keeps_it(self):
        """The sorted copy holds the same codes, so it keeps (a copy
        of) the histogram — and a sorted single-height set still plans
        as single-height without a rescan."""
        elements = self.single_height_set()
        ordered = external_sort_set(elements)
        assert ordered.histogram == elements.histogram
        assert ordered.histogram is not elements.histogram
        assert SetProperties.of(ordered).single_height == 2
        assert SetProperties.of(ordered).sorted
