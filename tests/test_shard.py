"""Differential suite for the sharded storage layout and executor.

The contract of ``repro.shard`` is *shard-count invariance*: the unit
of work is the level-``l`` slot, whose population, heap layout and
scan order depend only on ``(tree_height, level, data)`` — never on
how slots are grouped onto shards or how many workers run them.  So a
``shards=1`` run is the oracle for ``shards=N``: merged
``JoinReport``s must match field-for-field (I/O accounting included)
with only ``wall_seconds`` free to differ, serial and parallel, plain
and under chaos seeds.

Plus: a hypothesis property pinning the exactly-once pair coverage of
the VPJ scatter rule (every containment pair meets in exactly one
slot), routing-table unit coverage, save/load round-trips, and the
line-up harness over real document tags.  Path queries do not shard
(``db.query`` and the service run the one pipeline), so there is no
database or service integration to test here.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import binarize, random_tree
from repro.core.pbitree import is_ancestor, max_code
from repro.datatree.paths import select_by_tag
from repro.experiments.harness import run_lineup
from repro.obs.tracer import Tracer
from repro.shard import (
    SHARDMAP_FORMAT,
    ShardedCorpus,
    ShardedJoinExecutor,
    ShardMap,
    default_shard_level,
)
from repro.shard.executor import slot_fault_config
from repro.storage.faults import FaultConfig
from repro.workloads.synthetic import generate, spec_by_name

from .differential import assert_lineups_equal, normalize

#: chaos seed rotates in CI like the fault-injection suite's
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: the Figure 6(b) line-up names (multi-height datasets)
LINEUP = ["INLJN", "STACKTREE", "ADB+", "MHCJ+Rollup", "VPJ"]


def dataset(name="MSSL", large=1500, small=300, seed=0):
    return generate(spec_by_name(name, large=large, small=small), seed=seed)


# ---------------------------------------------------------------------------
# routing table
# ---------------------------------------------------------------------------
class TestShardMap:
    def test_default_level_floors_and_caps(self):
        assert default_shard_level(20, 1) == 3
        assert default_shard_level(20, 8) == 3
        assert default_shard_level(20, 9) == 4  # needs 16 slots
        assert default_shard_level(3, 2) == 2  # capped at height - 1
        assert default_shard_level(2, 2) == 1
        with pytest.raises(ValueError):
            default_shard_level(3, 8)  # 8 shards need level 3, max is 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(tree_height=10, level=10, num_shards=1)
        with pytest.raises(ValueError):
            ShardMap(tree_height=10, level=2, num_shards=5)  # only 4 slots
        with pytest.raises(ValueError):
            ShardMap(tree_height=0, level=0, num_shards=1)

    def test_slot_to_shard_partition(self):
        for num_shards in (1, 2, 3, 4, 8):
            shard_map = ShardMap(tree_height=12, level=3, num_shards=num_shards)
            covered = []
            for shard in range(num_shards):
                slots = shard_map.slots_of_shard(shard)
                assert len(slots) >= 1  # every shard owns a slot
                for slot in slots:
                    assert shard_map.shard_of_slot(slot) == shard
                covered.extend(slots)
            assert covered == list(range(shard_map.num_slots))

    def test_ancestor_slots_start_at_owner(self):
        shard_map = ShardMap(tree_height=6, level=2, num_shards=2)
        for code in range(1, int(max_code(6)) + 1):
            slots = shard_map.ancestor_slots(code)
            assert slots[0] == shard_map.owner_slot(code)
            assert list(slots) == sorted(slots)

    def test_scatter_rejects_out_of_space_codes(self):
        shard_map = ShardMap(tree_height=5, level=2, num_shards=2)
        with pytest.raises(ValueError):
            shard_map.scatter([0])
        with pytest.raises(ValueError):
            shard_map.scatter([int(max_code(5)) + 1])

    def test_roundtrip_dict(self):
        shard_map = ShardMap(tree_height=21, level=4, num_shards=3)
        assert ShardMap.from_dict(shard_map.to_dict()) == shard_map


# ---------------------------------------------------------------------------
# the exactly-once property (hypothesis)
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    tree_height=st.integers(min_value=2, max_value=7),
    level=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_scatter_covers_every_pair_exactly_once(tree_height, level, data):
    """Every containment pair meets in exactly one slot; every code is
    owned by exactly one slot and replicated only ancestor-role."""
    level = min(level, tree_height - 1)
    shard_map = ShardMap(tree_height, level, num_shards=1)
    space = list(range(1, int(max_code(tree_height)) + 1))
    codes = data.draw(
        st.lists(st.sampled_from(space), min_size=1, max_size=40, unique=True)
    )
    owned, replica = shard_map.scatter(codes)

    # ownership partition: each code in exactly one owned list
    flat_owned = [code for slot in owned for code in slot]
    assert sorted(flat_owned) == sorted(codes)
    # replicas never duplicate ownership within a slot
    for slot in range(shard_map.num_slots):
        assert not set(owned[slot]) & set(replica[slot])

    # pair coverage: ancestor side = owned + replica, descendant side =
    # owned only; each true containment pair appears in exactly one slot
    for a_code in codes:
        for d_code in codes:
            if a_code == d_code or not is_ancestor(a_code, d_code):
                continue
            hits = sum(
                1
                for slot in range(shard_map.num_slots)
                if a_code in owned[slot] + replica[slot]
                and d_code in owned[slot]
            )
            assert hits == 1, (
                f"pair ({a_code}, {d_code}) found in {hits} slots "
                f"(H={tree_height}, l={level})"
            )


@settings(max_examples=30, deadline=None)
@given(
    tree_height=st.integers(min_value=2, max_value=7),
    level=st.integers(min_value=0, max_value=6),
    num_shards=st.integers(min_value=1, max_value=8),
)
def test_every_code_routes_to_its_owner_shard(tree_height, level, num_shards):
    level = min(level, tree_height - 1)
    num_shards = min(num_shards, 1 << level)
    shard_map = ShardMap(tree_height, level, num_shards)
    for code in range(1, int(max_code(tree_height)) + 1):
        shard = shard_map.shard_of_code(code)
        assert shard == shard_map.shard_of_slot(shard_map.owner_slot(code))
        assert 0 <= shard < num_shards


# ---------------------------------------------------------------------------
# corpus layout + persistence
# ---------------------------------------------------------------------------
class TestShardedCorpus:
    def test_slot_extraction_matches_scatter(self):
        data = dataset(large=600, small=150)
        corpus = ShardedCorpus(data.tree_height, 2)
        corpus.add_set("A", data.a_codes)
        owned, replica = corpus.map.scatter(data.a_codes)
        for slot in range(corpus.num_slots):
            assert (
                corpus.slot_ancestor_codes("A", slot)
                == owned[slot] + replica[slot]
            )
            assert corpus.slot_descendant_codes("A", slot) == owned[slot]

    def test_duplicate_tag_rejected(self):
        corpus = ShardedCorpus(10, 2)
        corpus.add_set("A", [1, 2, 3])
        with pytest.raises(ValueError):
            corpus.add_set("A", [4])

    def test_save_load_roundtrip(self, tmp_path):
        data = dataset(large=500, small=120)
        corpus = ShardedCorpus(data.tree_height, 3, level=3)
        corpus.add_set("A", data.a_codes)
        corpus.add_set("D", data.d_codes)
        corpus.save(tmp_path / "c")

        loaded = ShardedCorpus.load(tmp_path / "c")
        assert loaded.map == corpus.map
        assert loaded.tags == ["A", "D"]
        assert loaded.set_size("A") == len(data.a_codes)
        for tag in ("A", "D"):
            for slot in range(corpus.num_slots):
                assert loaded.slot_ancestor_codes(
                    tag, slot
                ) == corpus.slot_ancestor_codes(tag, slot)
                assert loaded.slot_descendant_codes(
                    tag, slot
                ) == corpus.slot_descendant_codes(tag, slot)

    def test_stored_policy_is_ignored_on_load(self, tmp_path):
        """Shard pools are LRU; maps saved when the pool policy was a
        setting still load, whatever policy they name."""
        corpus = ShardedCorpus(10, 2)
        corpus.add_set("A", [1, 2, 3])
        corpus.save(tmp_path / "c")
        shardmap = tmp_path / "c" / "shardmap.json"
        assert '"policy": "lru"' in shardmap.read_text()
        shardmap.write_text(
            shardmap.read_text().replace('"policy": "lru"', '"policy": "clock"')
        )
        loaded = ShardedCorpus.load(tmp_path / "c")
        assert loaded.set_size("A") == 3
        assert {store.bufmgr.policy for store in loaded.shards} == {"lru"}

    def test_load_rejects_wrong_format(self, tmp_path):
        corpus = ShardedCorpus(10, 1)
        corpus.save(tmp_path / "c")
        shardmap = tmp_path / "c" / "shardmap.json"
        shardmap.write_text(
            shardmap.read_text().replace(SHARDMAP_FORMAT, "bogus/v0")
        )
        with pytest.raises(ValueError, match="routing table"):
            ShardedCorpus.load(tmp_path / "c")

    def test_stats_counts_replication(self):
        data = dataset(large=500, small=120)
        corpus = ShardedCorpus(data.tree_height, 2)
        corpus.add_set("A", data.a_codes)
        stats = corpus.stats()
        assert stats["sets"]["A"]["records"] == len(data.a_codes)
        assert len(stats["shards"]) == 2


# ---------------------------------------------------------------------------
# the differential oracle: shards=1 vs shards=N
# ---------------------------------------------------------------------------
def _sharded_reports(shards, workers=1, faults=None, collect=True, seed=0):
    data = dataset(seed=seed)
    lineup = run_lineup(
        "MSSL",
        data.a_codes,
        data.d_codes,
        data.tree_height,
        algorithms=LINEUP,
        collect=collect,
        faults=faults,
        workers=workers,
        shards=shards,
    )
    return {r.name: normalize(r.report) for r in lineup.results}


class TestShardDifferential:
    def test_lineup_invariant_across_shard_counts(self):
        baseline = _sharded_reports(shards=1)
        for shards in (2, 4):
            assert _sharded_reports(shards=shards) == baseline

    def test_lineup_invariant_with_workers(self):
        baseline = _sharded_reports(shards=4, workers=1)
        assert _sharded_reports(shards=4, workers=2) == baseline

    def test_lineup_invariant_under_chaos(self):
        chaos = FaultConfig(
            seed=CHAOS_SEED, read_error_rate=0.01, latency_rate=0.0
        )
        baseline = _sharded_reports(shards=1, faults=chaos)
        assert _sharded_reports(shards=2, faults=chaos) == baseline
        assert _sharded_reports(shards=4, faults=chaos, workers=2) == baseline

    def test_gathered_pairs_match_brute_force(self):
        data = dataset(large=600, small=150)
        expected = sorted(
            (a_code, d_code)
            for a_code in data.a_codes
            for d_code in data.d_codes
            if a_code != d_code and is_ancestor(a_code, d_code)
        )
        corpus = ShardedCorpus(data.tree_height, 2)
        corpus.add_set("A", data.a_codes)
        corpus.add_set("D", data.d_codes)
        executor = ShardedJoinExecutor(corpus, workers=1)
        report, pairs = executor.run(
            "MHCJ+Rollup", "A", "D", dataset="MSSL", collect=True
        )
        assert report.result_count == len(expected)
        assert pairs is not None
        assert sorted(pairs) == expected


# ---------------------------------------------------------------------------
# executor unit behaviour
# ---------------------------------------------------------------------------
class TestExecutor:
    def test_slot_fault_config_is_deterministic_and_distinct(self):
        base = FaultConfig(seed=7, read_error_rate=0.5)
        one = slot_fault_config(base, "ds", "VPJ", 3)
        again = slot_fault_config(base, "ds", "VPJ", 3)
        other = slot_fault_config(base, "ds", "VPJ", 4)
        assert one == again
        assert one.seed != other.seed
        assert one.read_error_rate == 0.5
        assert slot_fault_config(None, "ds", "VPJ", 0) is None

    def test_rejects_unknown_algorithm_and_live_injector(self):
        from repro.storage.faults import FaultInjector

        data = dataset(large=200, small=50)
        corpus = ShardedCorpus(data.tree_height, 1)
        corpus.add_set("A", data.a_codes)
        corpus.add_set("D", data.d_codes)
        executor = ShardedJoinExecutor(corpus)
        with pytest.raises(ValueError, match="unknown algorithm"):
            executor.run("NOPE", "A", "D")
        with pytest.raises(ValueError, match="FaultInjector"):
            executor.run(
                "VPJ", "A", "D", faults=FaultInjector(FaultConfig(seed=1))
            )

    def test_fanout_span_records_slots(self):
        data = dataset(large=400, small=100)
        corpus = ShardedCorpus(data.tree_height, 2)
        corpus.add_set("A", data.a_codes)
        corpus.add_set("D", data.d_codes)
        tracer = Tracer()
        executor = ShardedJoinExecutor(corpus, workers=1)
        executor.run("VPJ", "A", "D", dataset="x", tracer=tracer)
        fanout = [s for s in tracer.roots if s.name == "shard.fanout"]
        assert len(fanout) == 1
        assert fanout[0].attributes["total_slots"] == corpus.num_slots
        assert fanout[0].children  # per-slot trace roots grafted in


# ---------------------------------------------------------------------------
# the line-up harness on document tags
# ---------------------------------------------------------------------------
class TestShardedHarnessOnXml:
    def test_lineup_on_document_tags(self):
        """run_lineup over real document tag sets, sharded vs not."""
        tree = random_tree(600, max_fanout=4, seed=5)
        encoding = binarize(tree)
        a_codes = select_by_tag(tree, "a")
        d_codes = select_by_tag(tree, "b")
        kwargs = dict(algorithms=["MHCJ+Rollup", "VPJ"], collect=True)
        one = run_lineup(
            "doc", a_codes, d_codes, encoding.tree_height, shards=1, **kwargs
        )
        four = run_lineup(
            "doc", a_codes, d_codes, encoding.tree_height, shards=4, **kwargs
        )
        assert_lineups_equal(four, one)
