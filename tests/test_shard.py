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
slot), routing-table unit coverage, and the executor over real
document tags.  Path queries do not shard (``db.query`` and the service
run the one pipeline), and the line-up harness runs serially, so the
executor is the only entry to test here.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import binarize, random_tree
from repro.core.pbitree import is_ancestor, max_code
from repro.datatree.paths import select_by_tag
from repro.obs.tracer import Tracer
from repro.shard import (
    ShardedCorpus,
    ShardedJoinExecutor,
    ShardMap,
    default_shard_level,
)
from repro.shard.executor import slot_fault_config
from repro.storage.faults import FaultConfig
from repro.workloads.synthetic import count_results, generate, spec_by_name

from .differential import normalize

#: chaos seed rotates in CI like the fault-injection suite's
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: the Figure 6(b) line-up names (multi-height datasets)
LINEUP = ["INLJN", "STACKTREE", "ADB+", "MHCJ+Rollup", "VPJ"]


def dataset(name="MSSL", large=1500, small=300, seed=0):
    return generate(spec_by_name(name, large=large, small=small), seed=seed)


def sharded(a_codes, d_codes, tree_height, shards, workers=1):
    """An executor over a ``shards``-shard corpus holding sets A and D."""
    corpus = ShardedCorpus(tree_height, shards)
    corpus.add_set("A", a_codes)
    corpus.add_set("D", d_codes)
    return ShardedJoinExecutor(corpus, workers=workers)


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

    def test_to_dict(self):
        shard_map = ShardMap(tree_height=21, level=4, num_shards=3)
        assert shard_map.to_dict() == {
            "tree_height": 21, "level": 4, "num_shards": 3
        }


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
# corpus layout
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
def _sharded_reports(shards, workers=1, faults=None, seed=0):
    """Every line-up algorithm scatter-gathered over ``shards`` shards:
    normalized report and gathered pairs (in slot order) per name."""
    data = dataset(seed=seed)
    executor = sharded(
        data.a_codes, data.d_codes, data.tree_height, shards, workers
    )
    runs = {}
    for name in LINEUP:
        report, pairs = executor.run(
            name, "A", "D", dataset="MSSL", collect=True, faults=faults
        )
        runs[name] = (normalize(report), pairs)
    assert len({report.result_count for report, _ in runs.values()}) == 1
    return runs


class TestShardDifferential:
    def test_invariant_across_shard_counts(self):
        baseline = _sharded_reports(shards=1)
        for shards in (2, 4):
            assert _sharded_reports(shards=shards) == baseline

    def test_invariant_with_workers(self):
        baseline = _sharded_reports(shards=4, workers=1)
        assert _sharded_reports(shards=4, workers=2) == baseline

    def test_invariant_under_chaos(self):
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
        executor = sharded(data.a_codes, data.d_codes, data.tree_height, 2)
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
        executor = sharded(data.a_codes, data.d_codes, data.tree_height, 1)
        with pytest.raises(ValueError, match="unknown algorithm"):
            executor.run("NOPE", "A", "D")
        with pytest.raises(ValueError, match="FaultInjector"):
            executor.run(
                "VPJ", "A", "D", faults=FaultInjector(FaultConfig(seed=1))
            )
        # an unregistered tag names the registered ones, before any slot
        # is read (not a bare KeyError from slot extraction)
        for ancestors, descendants in (("Z", "D"), ("A", "Z")):
            with pytest.raises(ValueError, match=r"'Z'.*registered: A, D"):
                executor.run("VPJ", ancestors, descendants)

    def test_fanout_span_records_slots(self):
        data = dataset(large=400, small=100)
        tracer = Tracer()
        executor = sharded(data.a_codes, data.d_codes, data.tree_height, 2)
        executor.run("VPJ", "A", "D", dataset="x", tracer=tracer)
        fanout = [s for s in tracer.roots if s.name == "shard.fanout"]
        assert len(fanout) == 1
        assert fanout[0].attributes["total_slots"] == executor.corpus.num_slots
        assert fanout[0].children  # per-slot trace roots grafted in


# ---------------------------------------------------------------------------
# the executor on document tags
# ---------------------------------------------------------------------------
class TestShardedExecutorOnXml:
    def test_document_tags_invariant_across_shard_counts(self):
        """Real document tag sets, 1 shard vs 4: equal reports and
        pairs, and the in-memory result count."""
        tree = random_tree(600, max_fanout=4, seed=5)
        encoding = binarize(tree)
        a_codes = select_by_tag(tree, "a")
        d_codes = select_by_tag(tree, "b")
        runs = {}
        for shards in (1, 4):
            executor = sharded(a_codes, d_codes, encoding.tree_height, shards)
            runs[shards] = [
                (normalize(report), pairs)
                for report, pairs in (
                    executor.run(name, "A", "D", dataset="doc", collect=True)
                    for name in ("MHCJ+Rollup", "VPJ")
                )
            ]
        assert runs[4] == runs[1]
        expected = count_results(a_codes, d_codes)
        assert [report.result_count for report, _ in runs[1]] == [expected] * 2
