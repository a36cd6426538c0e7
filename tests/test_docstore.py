"""Tests for the storage-backed incremental update pipeline."""

import dataclasses
import random

import pytest

from repro.core import pbitree as pt
from repro.datatree.builder import random_tree, tree_from_spec
from repro.experiments.harness import run_lineup
from repro.index import StaleIndexError
from repro.index.bptree import BPlusTree
from repro.obs import MetricsRegistry
from repro.storage import (
    BufferManager,
    DiskManager,
    DocumentStore,
    ElementSet,
    UpdateLogRecord,
)

from .oracles import ENCODINGS, pbitree_encoding


def make_bench(page_size=256, num_pages=64):
    return BufferManager(DiskManager(page_size=page_size), num_pages=num_pages)


def make_store(
    encode=pbitree_encoding, num_nodes=60, seed=11, min_height=8, page_size=256
):
    tree = random_tree(num_nodes, seed=seed)
    encoding = encode(tree, min_height=min_height)
    bufmgr = make_bench(page_size=page_size)
    return tree, encoding, DocumentStore(bufmgr, encoding, name="doc")


def live_codes_by_tag(tree, encoding, tag):
    return [
        tree.codes[node]
        for node in tree.iter_by_tag(tag)
        if encoding.is_alive(node)
    ]


def run_storm(tree, encoding, rng, steps):
    """Random insert/delete mix biased to trigger relabels and growth."""
    for _ in range(steps):
        live = [n for n in range(len(tree)) if encoding.is_alive(n)]
        if rng.random() < 0.6 or len(live) < 5:
            encoding.insert_child(rng.choice(live), rng.choice("abcd"))
        else:
            non_root = [n for n in live if tree.parents[n] >= 0]
            encoding.delete_subtree(rng.choice(non_root))


class TestMaterialization:
    def test_matches_tree_tag_content_and_order(self):
        tree, encoding, store = make_store()
        for tag in sorted(set(tree.tags)):
            elements = store.element_set(tag)
            assert elements.to_list() == live_codes_by_tag(tree, encoding, tag)
            assert elements.tree_height == encoding.tree_height
            store.verify(tag)

    def test_known_heights_exact(self):
        tree, encoding, store = make_store()
        elements = store.element_set("a")
        expected = {pt.height_of(c) for c in live_codes_by_tag(tree, encoding, "a")}
        assert elements.known_heights == expected

    def test_tag_materialized_after_updates_catches_up(self):
        tree, encoding, store = make_store()
        run_storm(tree, encoding, random.Random(5), 60)
        # never touched before the storm: built from the current state
        for tag in sorted(set(tree.tags)):
            assert store.element_set(tag).to_list() == live_codes_by_tag(
                tree, encoding, tag
            )


class TestPagePatches:
    def test_insert_appends_one_record(self):
        tree, encoding, store = make_store()
        elements = store.element_set("a")
        before = len(elements)
        node = encoding.insert_child(tree.root, "a")
        assert store.pending_updates("a") >= 1
        assert len(store.element_set("a")) == before + 1
        assert tree.codes[node] in store.element_set("a").to_list()
        store.verify("a")

    def test_delete_is_one_page_local_and_keeps_pages_dense(self):
        tree, encoding, store = make_store(num_nodes=120)
        elements = store.element_set("a")
        pages_before = elements.num_pages
        victims = [
            n
            for n in tree.iter_by_tag("a")
            if tree.parents[n] >= 0 and not tree.children[n]
        ]
        encoding.delete_subtree(victims[0])
        elements = store.element_set("a")
        # empty slack lives only at page tails: every page's scan length
        # matches its header count, and no record moved across pages
        assert elements.num_pages == pages_before
        store.verify("a")

    def test_relabel_patches_in_place(self):
        # a chain keeps sibling groups tiny: inserting second children
        # forces local relabels without growing the file
        spec = ("r", [("a", [("a", [("a", [])])])])
        tree = tree_from_spec(spec)
        encoding = pbitree_encoding(tree, min_height=10)
        store = DocumentStore(make_bench(), encoding, name="doc")
        elements = store.element_set("a")
        pages_before = elements.num_pages
        for _ in range(6):
            encoding.insert_child(tree.root, "a")
        assert encoding.stats.local_relabels > 0
        store.verify("a")
        assert store.element_set("a").num_pages >= pages_before

    def test_grow_rewrites_pages_without_adding_any(self):
        tree, encoding, store = make_store(num_nodes=120)
        elements = store.element_set("a")
        pages_before = elements.num_pages
        height_before = elements.tree_height
        codes_before = elements.to_list()
        deltas = []
        encoding.listeners.append(
            lambda e: deltas.append(e.delta) if e.kind == "grow" else None
        )
        while not deltas:  # deepen until the code space must grow
            deepest = max(
                (n for n in range(len(tree)) if encoding.is_alive(n)),
                key=lambda n: pt.level_of(tree.codes[n], encoding.tree_height),
            )
            encoding.insert_child(deepest, "x")
        store.flush()
        delta = sum(deltas)
        elements = store.element_set("a")
        assert elements.num_pages == pages_before
        assert elements.tree_height == height_before + delta
        assert elements.to_list() == [c << delta for c in codes_before]
        store.verify("a")

    def test_grow_past_code_space_raises(self):
        tree = tree_from_spec(("r", [("a", [])]))
        encoding = pbitree_encoding(tree, min_height=60)
        store = DocumentStore(make_bench(page_size=1024), encoding, name="doc")
        store.element_set("a")
        # a growth that would push codes past the 63-bit record format
        store._tags["a"].pending.append(UpdateLogRecord("grow", delta=5))
        with pytest.raises(ValueError, match="63-bit"):
            store.flush()


class TestIndexMaintenance:
    def test_pointer_bptree_is_patched_in_place(self):
        tree, encoding, store = make_store()
        index = store.start_index("a")
        assert isinstance(index, BPlusTree)
        node = encoding.insert_child(tree.root, "a")
        code = tree.codes[node]
        assert store.start_index("a") is index
        assert code in list(index.search(pt.start_of(code)))
        encoding.delete_subtree(node)
        assert store.start_index("a") is index
        assert code not in list(index.search(pt.start_of(code)))

    def test_growth_retires_pointer_bptree(self):
        tree, encoding, store = make_store(min_height=4)
        index = store.start_index("a")
        grew = []
        encoding.listeners.append(
            lambda e: grew.append(e) if e.kind == "grow" else None
        )
        while not grew:
            deepest = max(
                (n for n in range(len(tree)) if encoding.is_alive(n)),
                key=lambda n: pt.level_of(tree.codes[n], encoding.tree_height),
            )
            encoding.insert_child(deepest, "x")
        fresh = store.start_index("a")
        assert fresh is not index
        with pytest.raises(StaleIndexError):
            index.search(0)

    def test_rebuild_counters_recorded(self):
        metrics = MetricsRegistry()
        tree = random_tree(60, seed=11)
        encoding = pbitree_encoding(tree, min_height=8)
        store = DocumentStore(
            make_bench(), encoding, name="doc", metrics=metrics
        )
        store.start_index("a")
        encoding.insert_child(tree.root, "a")
        store.element_set("a")
        # an insert patches the start index; a compaction retires it
        store.compact("a")
        values = metrics.as_dict()
        assert values["docstore.applied.insert"] >= 1
        assert values["docstore.index_rebuilds.start"] == 1


@pytest.mark.parametrize("encode", list(ENCODINGS.values()), ids=list(ENCODINGS))
class TestStormOracle:
    """Differential oracle: the maintained store vs a fresh rebuild,
    driven by the engine's encoding and by the nested-interval oracle."""

    def test_storm_store_matches_encoding(self, encode):
        tree, encoding, store = make_store(encode, num_nodes=40, seed=3)
        for tag in sorted(set(tree.tags)):
            store.element_set(tag)
        run_storm(tree, encoding, random.Random(7), 200)
        encoding.validate()
        for tag in store.tags():
            store.verify(tag)
            assert sorted(store.element_set(tag).scan()) == sorted(
                live_codes_by_tag(tree, encoding, tag)
            )

    def test_compact_restores_fresh_layout(self, encode):
        tree, encoding, store = make_store(encode, num_nodes=40, seed=3)
        for tag in sorted(set(tree.tags)):
            store.element_set(tag)
        run_storm(tree, encoding, random.Random(9), 150)
        store.compact()
        for tag in store.tags():
            elements = store.element_set(tag)
            fresh = ElementSet.from_codes(
                elements.bufmgr,
                live_codes_by_tag(tree, encoding, tag),
                encoding.tree_height,
                name="fresh",
            )
            assert list(elements.scan_pages()) == list(fresh.scan_pages())
            assert elements.known_heights == fresh.known_heights

    def test_lineup_reports_identical_to_rebuild(self, encode):
        """Figure 6(b) acceptance: after an update storm, the standard
        algorithm line-up produces field-for-field identical JoinReports
        whether the inputs come from the incrementally-maintained store
        or a from-scratch rebuild."""
        tree, encoding, store = make_store(encode, num_nodes=50, seed=21)
        for tag in sorted(set(tree.tags)):
            store.element_set(tag)
        run_storm(tree, encoding, random.Random(21), 120)
        store.flush()
        store.compact()

        maintained = {
            tag: store.element_set(tag).to_list() for tag in ("a", "b")
        }
        rebuilt = {
            tag: live_codes_by_tag(tree, encoding, tag) for tag in ("a", "b")
        }

        def normalize(result):
            return [
                dataclasses.replace(r.report, wall_seconds=0.0, trace=None)
                for r in result.results
            ]

        lineup_kwargs = dict(
            buffer_pages=40, page_size=512, single_height=False
        )
        from_store = run_lineup(
            "store",
            maintained["a"],
            maintained["b"],
            encoding.tree_height,
            **lineup_kwargs,
        )
        from_rebuild = run_lineup(
            "rebuild",
            rebuilt["a"],
            rebuilt["b"],
            encoding.tree_height,
            **lineup_kwargs,
        )
        assert from_store.result_count == from_rebuild.result_count
        assert normalize(from_store) == normalize(from_rebuild)


class TestLogLifecycle:
    def test_flush_drains_all_tags(self):
        tree, encoding, store = make_store()
        for tag in sorted(set(tree.tags)):
            store.element_set(tag)
        encoding.insert_child(tree.root, "a")
        encoding.insert_child(tree.root, "b")
        assert store.pending_updates() >= 2
        applied = store.flush()
        assert applied >= 2
        assert store.pending_updates() == 0

    def test_detach_stops_logging(self):
        tree, encoding, store = make_store()
        store.element_set("a")
        store.detach()
        encoding.insert_child(tree.root, "a")
        assert store.pending_updates() == 0

    def test_repr_mentions_pending(self):
        tree, encoding, store = make_store()
        store.element_set("a")
        encoding.insert_child(tree.root, "a")
        assert "pending=1" in repr(store)
