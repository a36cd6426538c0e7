"""Property tests for updates: Lemma 3/4 invariants survive relabels.

tests/test_update.py covers the mechanics of each update path (free
slot, sibling overflow, growth, delete).  This suite pins the *coding
invariants* instead: whatever sequence of inserts, deletes, local
relabels and tree growths hypothesis generates, the surviving nodes'
codes must still agree with the data tree under all three equivalent
formulations of containment —

* Lemma 1: ``is_ancestor`` (the F-function test),
* Lemma 3: proper region containment (``Region.contains``),
* Lemma 4: the prefix-code bit-prefix relation —

and document order among survivors must never change (the "durable
numbering" property that makes PBiTree updates cheap).
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pbitree as pt
from repro.core.binarize import binarize
from repro.core.update import UpdatableEncoding
from repro.datatree.builder import random_tree

from .oracles import ENCODINGS
from .oracles.histogram import scanned_counts

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def prefix_ancestor_or_self(a: int, d: int) -> bool:
    """Lemma 4 as documented on :func:`repro.core.pbitree.prefix_of`."""
    ha, hd = pt.height_of(a), pt.height_of(d)
    return ha >= hd and (
        pt.prefix_of(d) >> (ha - hd + 1) == pt.prefix_of(a) >> 1
    )


def storm(updatable, tree, rng, steps):
    """Random insert/delete mix (same shape as test_update's storm)."""
    for _ in range(steps):
        live = [n for n in range(len(tree)) if updatable.is_alive(n)]
        if rng.random() < 0.7 or len(live) < 3:
            updatable.insert_child(rng.choice(live), "n")
        else:
            non_root = [n for n in live if tree.parents[n] >= 0]
            if non_root:
                updatable.delete_subtree(rng.choice(non_root))


class TestLemmaEquivalence:
    @given(seed=st.integers(0, 1000), initial=st.integers(2, 50))
    @settings(max_examples=15, deadline=None)
    def test_storm_preserves_all_three_formulations(self, seed, initial):
        tree = random_tree(initial, seed=seed)
        updatable = UpdatableEncoding(binarize(tree))
        rng = random.Random(seed)
        storm(updatable, tree, rng, 100)
        updatable.validate()
        live = [n for n in range(len(tree)) if updatable.is_alive(n)]
        for _ in range(200):
            u, v = rng.choice(live), rng.choice(live)
            cu, cv = tree.codes[u], tree.codes[v]
            truth = tree.is_ancestor(u, v)
            assert pt.is_ancestor(cu, cv) == truth
            assert pt.region_of(cu).contains(pt.region_of(cv)) == truth
            assert prefix_ancestor_or_self(cu, cv) == (
                truth or u == v
            )

    @given(seed=st.integers(0, 500), initial=st.integers(2, 40))
    @settings(max_examples=15, deadline=None)
    def test_storm_preserves_document_order(self, seed, initial):
        tree = random_tree(initial, seed=seed)
        updatable = UpdatableEncoding(binarize(tree))
        rng = random.Random(seed)
        survivors = list(range(len(tree)))
        before = {n: tree.codes[n] for n in survivors}
        order_before = sorted(survivors, key=lambda n: pt.doc_order_key(before[n]))
        storm(updatable, tree, rng, 80)
        alive = [n for n in survivors if updatable.is_alive(n)]
        order_after = sorted(
            alive, key=lambda n: pt.doc_order_key(tree.codes[n])
        )
        assert order_after == [n for n in order_before if n in set(alive)]


class TestRoundTrips:
    @given(seed=st.integers(0, 500), initial=st.integers(3, 40))
    @settings(max_examples=15, deadline=None)
    def test_fast_path_insert_delete_restores_codes(self, seed, initial):
        """A free-slot insert touches no other code; deleting it again
        restores the exact pre-insert assignment and frees its slot."""
        tree = random_tree(initial, seed=seed)
        updatable = UpdatableEncoding(binarize(tree))
        rng = random.Random(seed)
        before = {
            n: tree.codes[n]
            for n in range(len(tree))
            if updatable.is_alive(n)
        }
        relabels_before = (
            updatable.stats.local_relabels + updatable.stats.global_relabels
        )
        parent = rng.choice(sorted(before))
        node = updatable.insert_child(parent, "x")
        relabelled = (
            updatable.stats.local_relabels + updatable.stats.global_relabels
        ) > relabels_before
        if not relabelled:
            # the fast path: everyone else's code is untouched
            for n, code in before.items():
                assert tree.codes[n] == code
            new_code = tree.codes[node]
            assert updatable.node_of(new_code) == node
            updatable.delete_subtree(node)
            assert updatable.node_of(new_code) is None
            for n, code in before.items():
                assert tree.codes[n] == code
            updatable.validate()

    @given(seed=st.integers(0, 500), fanout=st.integers(3, 10))
    @settings(max_examples=15, deadline=None)
    def test_forced_relabel_keeps_invariants(self, seed, fanout):
        """Overflowing one parent's sibling level forces local relabels
        (and possibly growth); containment among the pre-existing nodes
        must be exactly what it was."""
        tree = random_tree(20, max_fanout=3, seed=seed)
        updatable = UpdatableEncoding(binarize(tree))
        rng = random.Random(seed)
        originals = list(range(len(tree)))
        truth = {
            (u, v): tree.is_ancestor(u, v)
            for u in originals
            for v in originals
        }
        parent = rng.choice(originals)
        for _ in range(2 ** fanout + 1):
            updatable.insert_child(parent, "kid")
        assert (
            updatable.stats.local_relabels + updatable.stats.tree_growths > 0
        )
        updatable.validate()
        for (u, v), expected in truth.items():
            assert (
                pt.is_ancestor(tree.codes[u], tree.codes[v]) == expected
            )
            assert (
                pt.region_of(tree.codes[u]).contains(
                    pt.region_of(tree.codes[v])
                )
                == expected
            )

    @given(seed=st.integers(0, 500), delta=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_growth_is_a_pure_shift(self, seed, delta):
        """Growing by ``delta`` multiplies every live code by 2**delta —
        heights shift uniformly, so Lemma 3/4 relations are literally
        unchanged bit patterns."""
        tree = random_tree(30, seed=seed)
        updatable = UpdatableEncoding(binarize(tree))
        before = {
            n: tree.codes[n]
            for n in range(len(tree))
            if updatable.is_alive(n)
        }
        updatable._grow_tree(delta)
        for n, code in before.items():
            assert tree.codes[n] == code << delta
            assert pt.height_of(tree.codes[n]) == pt.height_of(code) + delta
        updatable.validate()


# ----------------------------------------------------------------------
# the storage-backed path: update log + page patches, joined mid-storm
# ----------------------------------------------------------------------
def _join_pairs(bufmgr, a_codes, d_codes, tree_height):
    """Containment-join two code lists through the paged operators."""
    from repro import ElementSet, JoinSink, StackTreeDescJoin

    a_set = ElementSet.from_codes(bufmgr, list(a_codes), tree_height, "so.A")
    d_set = ElementSet.from_codes(bufmgr, list(d_codes), tree_height, "so.D")
    sink = JoinSink("collect")
    StackTreeDescJoin().run(a_set, d_set, sink)
    a_set.destroy()
    d_set.destroy()
    return sorted(sink.pairs)


def tagged_storm(updatable, tree, rng, hot, steps, tags=("a", "b", "c")):
    """``hot`` inserts under one parent — its sibling level overflows,
    forcing local relabels and growths — then a random insert/delete
    mix, every new node carrying one of ``tags``."""
    live = [n for n in range(len(tree)) if updatable.is_alive(n)]
    parent = rng.choice(live)
    for _ in range(hot):
        updatable.insert_child(parent, rng.choice(tags))
    for _ in range(steps):
        live = [n for n in range(len(tree)) if updatable.is_alive(n)]
        if rng.random() < 0.7 or len(live) < 3:
            updatable.insert_child(rng.choice(live), rng.choice(tags))
        else:
            non_root = [n for n in live if tree.parents[n] >= 0]
            if non_root:
                updatable.delete_subtree(rng.choice(non_root))


def assert_histogram_is_fresh(elements):
    """The maintained positional histogram equals a full scan's."""
    assert elements.histogram.counts == scanned_counts(elements)


@pytest.mark.parametrize("encode", list(ENCODINGS.values()), ids=list(ENCODINGS))
class TestStorageBackedStorm:
    """Inserts/deletes/growth interleaved with containment joins over
    the persisted element sets, differentially checked against a
    from-scratch rebuild after every burst."""

    def test_joins_between_bursts_match_rebuild(self, encode):
        from repro import BufferManager, DiskManager, JoinSink, StackTreeDescJoin
        from repro.storage import DocumentStore, ElementSet

        tree = random_tree(50, seed=31, tags=("a", "b", "c"))
        encoding = encode(tree, min_height=8)
        bufmgr = BufferManager(DiskManager(page_size=512), 48)
        store = DocumentStore(bufmgr, encoding, name="storm")
        for tag in ("a", "b", "c"):
            store.element_set(tag)
        rng = random.Random(CHAOS_SEED + 31)
        for burst in range(6):
            storm(encoding, tree, rng, 40)
            encoding.validate()
            for tag in ("a", "b"):
                store.verify(tag)
            # join through the incrementally maintained sets ...
            a_set = store.element_set("a")
            d_set = store.element_set("b")
            sink = JoinSink("collect")
            StackTreeDescJoin().run(a_set, d_set, sink)
            # ... and through sets rebuilt from the live encoding
            expected = _join_pairs(
                bufmgr,
                (
                    tree.codes[n]
                    for n in tree.iter_by_tag("a")
                    if encoding.is_alive(n)
                ),
                (
                    tree.codes[n]
                    for n in tree.iter_by_tag("b")
                    if encoding.is_alive(n)
                ),
                encoding.tree_height,
            )
            assert sorted(sink.pairs) == expected, f"burst {burst} diverged"

    def test_chaos_faults_mid_update_storm(self, encode):
        """Transient read/write faults while the update log is being
        applied: the buffer pool retries absorb every fault and the
        patched pages stay byte-equivalent to a clean rebuild."""
        from repro.storage import (
            BufferManager,
            DiskManager,
            DocumentStore,
            FaultConfig,
            FaultInjector,
            RetryPolicy,
        )

        tree = random_tree(40, seed=17, tags=("a", "b"))
        encoding = encode(tree, min_height=8)
        injector = FaultInjector(
            FaultConfig(
                seed=CHAOS_SEED + 17,
                read_error_rate=0.05,
                write_error_rate=0.03,
                torn_page_rate=0.03,
            )
        )
        # floor of one guaranteed mid-update fault, whatever the seed
        injector.schedule("read-error", at=3)
        # tiny pages + tiny pool: evictions force real disk traffic
        # mid-apply, so the probabilistic faults have operations to land on
        disk = DiskManager(page_size=64, checksums=True, faults=injector)
        bufmgr = BufferManager(disk, 4, retry=RetryPolicy(max_attempts=6))
        store = DocumentStore(bufmgr, encoding, name="chaos")
        for tag in ("a", "b"):
            store.element_set(tag)
        rng = random.Random(CHAOS_SEED + 17)
        for _ in range(5):
            storm(encoding, tree, rng, 30)
            store.flush()  # log application runs under injection
        encoding.validate()
        for tag in ("a", "b"):
            store.verify(tag)
            elements = store.element_set(tag)
            assert sorted(elements.scan()) == sorted(
                tree.codes[n]
                for n in tree.iter_by_tag(tag)
                if encoding.is_alive(n)
            )
            assert_histogram_is_fresh(elements)
        assert injector.stats.total_injected > 0, (
            f"chaos run injected nothing (seed {CHAOS_SEED + 17})"
        )
        assert disk.stats.retries > 0
        assert disk.stats.giveups == 0

    @given(
        seed=st.integers(0, 10_000),
        initial=st.integers(3, 30),
        hot=st.integers(0, 20),
        steps=st.integers(5, 60),
    )
    @settings(max_examples=12, deadline=None)
    def test_maintained_histogram_equals_a_fresh_scan(
        self, encode, seed, initial, hot, steps
    ):
        """Inserts, deletes, and the relabels and growths a hot parent
        forces (small trees start below six levels, where a grow moves
        slices too): every tag's maintained histogram equals the one a
        full scan recomputes."""
        from repro.storage import BufferManager, DiskManager, DocumentStore

        tree = random_tree(initial, seed=seed, tags=("a", "b", "c"))
        encoding = encode(tree)
        store = DocumentStore(
            BufferManager(DiskManager(page_size=128), 16), encoding, name="hist"
        )
        for tag in ("a", "b", "c"):
            store.element_set(tag)
        rng = random.Random(seed)
        tagged_storm(encoding, tree, rng, hot, steps)
        encoding.validate()
        for tag in ("a", "b", "c"):
            store.verify(tag)
            assert_histogram_is_fresh(store.element_set(tag))

    def test_histogram_moves_only_after_its_page_patch(self, encode):
        """A permanent fault stops a drain mid-log.  The histogram moves
        with the directory, after a record's page patch succeeded, so
        the two still agree at the fault; the retried drain applies the
        rest exactly once and every statistic matches a fresh scan."""
        from repro.storage import (
            BufferManager,
            DiskManager,
            DocumentStore,
            FaultInjector,
            StorageFault,
        )
        from repro.storage.histogram import PositionHistogram

        tree = random_tree(40, seed=23, tags=("a", "b"))
        encoding = encode(tree, min_height=8)
        injector = FaultInjector(seed=CHAOS_SEED + 23)
        # tiny pages, tiny pool: a drain pins pages the pool evicted
        disk = DiskManager(page_size=64)
        store = DocumentStore(BufferManager(disk, 4), encoding, name="mid-apply")
        for tag in ("a", "b"):
            store.element_set(tag)
        rng = random.Random(CHAOS_SEED + 23)
        interrupted = 0
        for burst in range(8):
            tagged_storm(encoding, tree, rng, hot=4, steps=15, tags=("a", "b"))
            injector.schedule("read-error", at=1 + burst % 3, permanent=True)
            disk.set_faults(injector)
            try:
                store.flush()
            except StorageFault:
                interrupted += 1
            disk.set_faults(None)
            for tag in ("a", "b"):
                state = store._tags[tag]
                assert state.elements.histogram == PositionHistogram.of_codes(
                    state.directory, state.elements.tree_height
                )
            store.flush()
            for tag in ("a", "b"):
                store.verify(tag)
                assert_histogram_is_fresh(store.element_set(tag))
        assert interrupted > 0, "no drain was interrupted"
