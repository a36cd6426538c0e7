"""Both labellings against one contract: the engine's PBiTree encoding
and the nested-interval oracle (``tests/oracles``)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pbitree as pt
from repro.core.update import CodeSpaceError
from repro.datatree.builder import random_tree, tree_from_spec

from .oracles import ENCODINGS, NestedIntervalEncoding

BOTH = pytest.mark.parametrize(
    "encode", list(ENCODINGS.values()), ids=list(ENCODINGS)
)


@BOTH
class TestCodecContract:
    """Both labellings satisfy the same encode/update contract."""

    def test_encode_validates(self, encode):
        tree = random_tree(120, seed=5)
        encoding = encode(tree)
        encoding.validate()
        assert all(code >= 1 for code in tree.codes)

    def test_ancestor_relation_matches_structure(self, encode):
        tree = random_tree(90, seed=11)
        encode(tree)
        rng = random.Random(11)
        for _ in range(300):
            u = rng.randrange(len(tree))
            v = rng.randrange(len(tree))
            assert tree.is_ancestor(u, v) == pt.is_ancestor(
                tree.codes[u], tree.codes[v]
            )

    def test_update_storm_preserves_contract(self, encode):
        tree = random_tree(40, seed=7)
        encoding = encode(tree)
        rng = random.Random(7)
        for _ in range(150):
            live = [n for n in range(len(tree)) if encoding.is_alive(n)]
            if rng.random() < 0.7 or len(live) < 3:
                encoding.insert_child(rng.choice(live), "n")
            else:
                non_root = [n for n in live if tree.parents[n] >= 0]
                if non_root:
                    encoding.delete_subtree(rng.choice(non_root))
        encoding.validate()
        live = [n for n in range(len(tree)) if encoding.is_alive(n)]
        for _ in range(300):
            u, v = rng.choice(live), rng.choice(live)
            assert tree.is_ancestor(u, v) == pt.is_ancestor(
                tree.codes[u], tree.codes[v]
            )

    def test_disallowed_growth_is_atomic(self, encode):
        tree = tree_from_spec(("root", [("leaf", [])]))
        encoding = encode(tree, allow_growth=False)
        nodes_before = len(tree)
        parent = 1
        with pytest.raises(CodeSpaceError):
            for _ in range(64):
                parent = encoding.insert_child(parent, "deeper")
        assert encoding.stats.inserts == len(tree) - nodes_before
        encoding.validate()

    def test_events_replay_to_live_code_map(self, encode):
        tree = random_tree(30, seed=3)
        encoding = encode(tree)
        shadow = {
            tree.codes[n]: n
            for n in range(len(tree))
            if encoding.is_alive(n)
        }

        def listener(event):
            if event.kind == "insert":
                assert event.new_code not in shadow
                shadow[event.new_code] = event.node
            elif event.kind == "relabel":
                for node, old_code, _new in event.moves:
                    assert shadow.pop(old_code) == node
                for node, _old, new_code in event.moves:
                    shadow[new_code] = node
            elif event.kind == "delete":
                assert shadow.pop(event.old_code) == event.node
            elif event.kind == "grow":
                shifted = {
                    pt.grown_code(code, event.delta): node
                    for code, node in shadow.items()
                }
                shadow.clear()
                shadow.update(shifted)
            else:  # pragma: no cover
                raise AssertionError(event.kind)

        encoding.listeners.append(listener)
        rng = random.Random(13)
        for _ in range(200):
            live = [n for n in range(len(tree)) if encoding.is_alive(n)]
            if rng.random() < 0.75 or len(live) < 3:
                encoding.insert_child(rng.choice(live), "n")
            else:
                non_root = [n for n in live if tree.parents[n] >= 0]
                if non_root:
                    encoding.delete_subtree(rng.choice(non_root))
        expected = {
            tree.codes[n]: n
            for n in range(len(tree))
            if encoding.is_alive(n)
        }
        assert shadow == expected


class TestNestedIntervalSpecifics:
    def test_paths_are_prefix_closed_on_ancestry(self):
        tree = random_tree(60, seed=2)
        encoding = NestedIntervalEncoding(tree)
        for node in range(len(tree)):
            parent = tree.parents[node]
            if parent < 0:
                continue
            path = encoding.path_of(node)
            parent_path = encoding.path_of(parent)
            shift = path.bit_length() - parent_path.bit_length()
            assert shift > 0
            assert path >> shift == parent_path

    def test_inserts_never_relabel_existing_nodes(self):
        """What makes the oracle independent: nested-interval inserts
        are relabel-free — only projection growth (a global shift)
        occurs."""
        tree = random_tree(40, seed=19)
        encoding = NestedIntervalEncoding(tree)
        paths_before = [encoding.path_of(n) for n in range(len(tree))]
        rng = random.Random(19)
        for _ in range(250):
            live = [n for n in range(len(tree)) if encoding.is_alive(n)]
            encoding.insert_child(rng.choice(live), "n")
        assert encoding.stats.relabelled_nodes == 0
        assert encoding.stats.local_relabels == 0
        # native labels of the original nodes never moved
        assert [
            encoding.path_of(n) for n in range(len(paths_before))
        ] == paths_before
        encoding.validate()

    def test_sibling_ordinals_are_never_reused(self):
        tree = tree_from_spec(("root", [("a", []), ("b", [])]))
        encoding = NestedIntervalEncoding(tree)
        encoding.delete_subtree(1)
        node = encoding.insert_child(0, "c")
        # the freed ordinal-0 path stays retired; the new child gets
        # ordinal 2 (paths grow, codes never collide with tombstones)
        assert encoding.path_of(node) != encoding.path_of(1)
        encoding.validate()

    def test_growth_shifts_projection_only(self):
        tree = tree_from_spec(("root", [("leaf", [])]))
        encoding = NestedIntervalEncoding(tree)
        node = 1
        growths_seen = 0
        for _ in range(6):
            codes_before = list(tree.codes)
            h_before = encoding.tree_height
            node = encoding.insert_child(node, "deeper")
            if encoding.tree_height > h_before:
                growths_seen += 1
                delta = encoding.tree_height - h_before
                assert tree.codes[:len(codes_before)] == [
                    pt.grown_code(code, delta) for code in codes_before
                ]
        assert growths_seen >= 1
        assert encoding.stats.tree_growths == growths_seen
        assert encoding.stats.relabelled_nodes == 0

    def test_root_path_is_sentinel(self):
        tree = tree_from_spec(("root", []))
        encoding = NestedIntervalEncoding(tree)
        assert encoding.path_of(0) == 1
        assert tree.codes[0] == pt.root_code(encoding.tree_height)

    @given(st.integers(0, 2000), st.integers(2, 50))
    @settings(max_examples=20, deadline=None)
    def test_projection_matches_structure_property(self, seed, size):
        tree = random_tree(size, seed=seed)
        NestedIntervalEncoding(tree)
        rng = random.Random(seed)
        for _ in range(100):
            u = rng.randrange(len(tree))
            v = rng.randrange(len(tree))
            assert tree.is_ancestor(u, v) == pt.is_ancestor(
                tree.codes[u], tree.codes[v]
            )


class TestCodecJoinInterop:
    """A join over either labelling's codes matches brute force."""

    @BOTH
    def test_stacktree_join_matches_brute_force(self, encode):
        from repro import (
            BufferManager, DiskManager, ElementSet, JoinSink,
            StackTreeDescJoin, brute_force_join,
        )

        tree = random_tree(200, seed=23, tags=("a", "b", "c"))
        encoding = encode(tree)
        rng = random.Random(23)
        for _ in range(100):
            live = [n for n in range(len(tree)) if encoding.is_alive(n)]
            encoding.insert_child(rng.choice(live), rng.choice("ab"))
        live = [n for n in range(len(tree)) if encoding.is_alive(n)]
        a_codes = [tree.codes[n] for n in live if tree.tags[n] == "a"]
        d_codes = [tree.codes[n] for n in live if tree.tags[n] == "b"]
        bufmgr = BufferManager(DiskManager(), 16)
        a_set = ElementSet.from_codes(bufmgr, a_codes, encoding.tree_height)
        d_set = ElementSet.from_codes(bufmgr, d_codes, encoding.tree_height)
        sink = JoinSink("collect")
        StackTreeDescJoin().run(a_set, d_set, sink)
        assert sorted(sink.pairs) == sorted(brute_force_join(a_codes, d_codes))
