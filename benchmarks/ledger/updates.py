"""``update_mix``: writes beside reads.

Storms of 320 updates — 70 % inserts, half of them at a rotating hot
parent so sibling levels overflow and force relabels and tree growths,
30 % deletes — through ``db.insert_element`` / ``db.delete_element``,
with one path query from the mix after every 16 updates.  The query is
what drains the update log: it patches the persisted element-set pages
in place and maintains the two B+-tree start indexes — the *other*
direction through ``storage.docstore``, ``index.bptree`` and
``core.update`` from the read-only workloads, so a read-path gain paid
for in patching or maintenance shows here.

Flush policy, stated because both sides of a comparison must share it:
updates are buffered in the docstore log and applied lazily by the next
reader (or an explicit ``DocumentStore.flush``); every round then ends
with a checkpoint (``BufferManager.flush_all``), so the pages a round
dirtied are written exactly once and ``pages_per_op`` counts them — the
whole document fits the 64-page pool and would otherwise never reach
the disk.  Nothing is fsynced: the disk is the engine's in-memory page
table.

One round is 16 updates, the draining query, a re-ensure of the two
start indexes (free while they survive, a rebuild after a tree growth
retired them) and the checkpoint.  The unit of work is a *sweep* of
five rounds, one per path of the mix: single rounds differ by path and
plan, and a median over a five-modal sample jumps with the noise.

A window replays storm after storm, each on a freshly loaded document
and each with its own seed-derived operation stream: how many tree
growths one storm hits (2-6, each a rewrite of every page) moved a
single storm's page count by 11 % between seeds; four storms average it
out.  The first ``MIN_STORMS`` storms always run and page counts are
taken from exactly those, so they repeat for a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from statistics import fmean
from time import perf_counter
from typing import Any

from repro.core.update import CodeSpaceError
from repro.db import ContainmentDatabase, Document

from .corpus import PATH_MIX, TAGS, brute_force_matches, seeded_corpus
from .harness import Measurement, median
from .spans import SpanRecorder

__all__ = ["UpdateWorkload", "UPDATE_MIX"]

NODES = 2_000
UPDATES = 320
#: storms replayed in every window, however short; their page counts are
#: the ones reported, so the count repeats exactly for a seed
MIN_STORMS = 4
ROUND = 16
INSERT_RATIO = 0.7
HOTSPOT = 0.5
HOT_WIDTH = 12
BUFFER_PAGES = 64
#: start indexes kept on the first step of three of the five paths, and the second
INDEXED_TAGS = ("a", "b")
#: a delete takes out at most this many elements: whole-branch deletes
#: (1 in 400 draws, a fifth of the document each) would make the storm's
#: cost a lottery over seeds instead of a property of the engine
MAX_DELETE = 4
#: paired flush-drained replays (indexed, bare) behind the maintenance delta
PROBE_PAIRS = 5


@dataclass
class _State:
    seed: int
    nodes: int
    updates: int
    db: ContainmentDatabase
    document: Document
    encode_s: float
    #: the loaded document has been mutated by a storm
    dirty: bool = False


@dataclass
class _StormSamples:
    """What one replay of one storm measured."""

    rounds: list[float] = field(default_factory=list)
    updates: list[float] = field(default_factory=list)
    drains: list[float] = field(default_factory=list)
    records_applied: int = 0
    drain_writes: int = 0
    io_total: int = 0
    io_writes: int = 0
    rows: list[tuple[str, str, Any]] = field(default_factory=list)


def _storm_seed(seed: int, storm: int) -> int:
    return seed * 1_000 + storm


class _OpStream:
    """The seed-determined operation stream (cf. ``workloads.updates._storm``).

    Which operations run is stratified — exactly 70 % inserts, half of
    them at the hot parent, the four tags equally often — and the seed
    shuffles their order and picks every parent and victim.  Independent
    coin flips per operation moved the document's final size, and with
    it every later query, by several percent between seeds.
    """

    def __init__(self, document: Document, seed: int, updates: int) -> None:
        self.rng = rng = random.Random(seed)
        self.tree = document.tree
        self.alive = document.updatable.is_alive
        self.live = [n for n in range(len(self.tree)) if self.alive(n)]
        self.hot_parent = self.tree.root
        self.hot_count = 0
        inserts = round(updates * INSERT_RATIO)
        self.kinds = ["insert"] * inserts + ["delete"] * (updates - inserts)
        self.hot = [index < inserts * HOTSPOT for index in range(inserts)]
        self.tags = [TAGS[index % len(TAGS)] for index in range(inserts)]
        for deck in (self.kinds, self.hot, self.tags):
            rng.shuffle(deck)

    def _exceeds(self, node: int, cap: int) -> bool:
        seen = 0
        stack = [node]
        while stack:
            current = stack.pop()
            if not self.alive(current):
                continue
            seen += 1
            if seen > cap:
                return True
            stack.extend(self.tree.children[current])
        return False

    def _victim(self) -> int:
        node = self.rng.choice([n for n in self.live if n != self.tree.root])
        while self._exceeds(node, MAX_DELETE):
            node = self.rng.choice(
                [child for child in self.tree.children[node] if self.alive(child)]
            )
        return node

    def next(self) -> tuple[str, int, str]:
        rng = self.rng
        if not self.alive(self.hot_parent) or self.hot_count >= HOT_WIDTH:
            self.hot_parent = rng.choice(self.live)
            self.hot_count = 0
        if self.kinds.pop() == "delete":
            return "delete", self._victim(), ""
        if self.hot.pop():
            parent = self.hot_parent
            self.hot_count += 1
        else:
            parent = rng.choice(self.live)
        return "insert", parent, self.tags.pop()

    def applied(self, op: str, node: int) -> None:
        if op == "insert":
            self.live.append(node)
        else:
            self.live = [n for n in self.live if self.alive(n)]


class UpdateWorkload:
    name = "update_mix"

    # -- set-up ---------------------------------------------------------
    def _load(self, seed: int, nodes: int, indexed: bool = True):
        tree = seeded_corpus(seed, nodes)
        db = ContainmentDatabase(buffer_pages=BUFFER_PAGES)
        started = perf_counter()
        document = db.load_tree(tree, name="corpus")
        encode_s = perf_counter() - started
        if indexed:
            self._ensure_indexes(db, document)
        for path in PATH_MIX:  # materialise every tag's element set
            db.query(document, path)
        return db, document, encode_s

    @staticmethod
    def _ensure_indexes(db: ContainmentDatabase, document: Document) -> None:
        """A no-op while the B+-trees survive; a tree growth retires them
        (every start moves) and this rebuilds — what keeping an index costs."""
        for tag in INDEXED_TAGS:
            db.create_start_index(document, tag)

    def setup(self, seed: int, scale: float) -> _State:
        nodes = max(200, int(NODES * scale))
        sweep = ROUND * len(PATH_MIX)
        updates = max(sweep, int(UPDATES * scale) // sweep * sweep)
        return _State(seed, nodes, updates, *self._load(seed, nodes))

    def teardown(self, state: _State) -> None:
        pass

    # -- one replay of the storm ---------------------------------------
    def _replay(
        self, db: ContainmentDatabase, document: Document, seed: int, updates: int,
        rec: SpanRecorder, window: Measurement,
        request: int, drain_by_query: bool = True, indexed: bool = True,
    ) -> _StormSamples:
        storm = _StormSamples()
        ops = _OpStream(document, seed, updates)
        before = db.io_stats
        for round_index in range(updates // ROUND):
            with rec.span("op", request=request + round_index):
                round_wall = 0.0
                for _ in range(ROUND):
                    op, target, tag = ops.next()
                    with rec.span(f"core.{op}", "core"):
                        started = perf_counter()
                        try:
                            if op == "insert":
                                node = db.insert_element(document, target, tag)
                            else:
                                node = target
                                db.delete_element(document, target)
                            failure = ""
                        except CodeSpaceError as exc:
                            failure = f"{op} under {target}: {exc}"
                        wall = perf_counter() - started
                    window.check(not failure, failure)
                    if not failure:
                        ops.applied(op, node)
                    storm.updates.append(wall)
                    round_wall += wall
                path = PATH_MIX[round_index % len(PATH_MIX)]
                writes_before = db.io_stats.writes
                if drain_by_query:
                    with rec.span("db.query", "db"):
                        started = perf_counter()
                        result = db.query(document, path)
                        wall = perf_counter() - started
                else:
                    with rec.span("storage.flush", "storage"):
                        started = perf_counter()
                        storm.records_applied += document.store.flush()
                        wall = perf_counter() - started
                started = perf_counter()
                if indexed:
                    with rec.span("index.ensure", "index"):
                        self._ensure_indexes(db, document)
                with rec.span("storage.checkpoint", "storage"):
                    db.bufmgr.flush_all()
                checkpoint = perf_counter() - started
                storm.drain_writes += db.io_stats.writes - writes_before
                storm.drains.append(wall)
                storm.rounds.append(round_wall + wall + checkpoint)
            if drain_by_query:
                expected = brute_force_matches(document.tree, ops.alive, path)
                window.check(
                    {node.id for node in result} == expected,
                    f"round {round_index} {path}: {len(result)} matches, "
                    f"brute force says {len(expected)}",
                )
                storm.rows = [
                    (f"{path}#{step}", "corpus", report)
                    for step, report in enumerate(result.reports, 1)
                ]
        delta = db.io_stats - before
        storm.io_total = delta.total
        storm.io_writes = delta.writes
        return storm

    def _verify(self, state: _State, window: Measurement) -> None:
        """After the last storm: pages, directory and encoding agree per tag,
        and every path answers like a brute-force ancestor test."""
        document = state.document
        document.store.flush()
        for tag in document.store.tags():
            try:
                document.store.verify(tag)
                window.check(True, "")
            except AssertionError as exc:
                window.check(False, f"DocumentStore.verify({tag!r}): {exc}")
        alive = document.updatable.is_alive
        for path in PATH_MIX:
            got = {node.id for node in state.db.query(document, path)}
            expected = brute_force_matches(document.tree, alive, path)
            window.check(got == expected, f"final {path}: {len(got)} vs {len(expected)}")

    def measure(self, state: _State, seconds: float, rec: SpanRecorder) -> Measurement:
        window = Measurement([], 0, 0.0, 0.0)
        storms: list[_StormSamples] = []
        deadline = perf_counter() + seconds
        while len(storms) < MIN_STORMS or perf_counter() < deadline:
            if state.dirty:
                state.db, state.document, _ = self._load(state.seed, state.nodes)
            state.dirty = True
            storms.append(self._replay(
                state.db, state.document, _storm_seed(state.seed, len(storms)),
                state.updates, rec, window, request=len(storms) * 1_000,
            ))
        self._verify(state, window)
        width = len(PATH_MIX)
        window.latencies = [
            sum(storm.rounds[first:first + width])
            for storm in storms
            for first in range(0, len(storm.rounds), width)
        ]
        window.items = sum(len(storm.updates) for storm in storms)
        window.wall = sum(window.latencies)
        window.pages_per_op = fmean(
            storm.io_total / (len(storm.rounds) / width) for storm in storms[:MIN_STORMS]
        )
        window.rows = storms[-1].rows
        window.detail = {"storms": storms}
        return window

    # -- per-layer probes -----------------------------------------------
    def layers(
        self, state: _State, rec: SpanRecorder, untraced: Measurement, traced: Measurement
    ) -> dict[str, float]:
        storms: list[_StormSamples] = untraced.detail["storms"]
        out = {
            "core.encode_us_per_node": state.encode_s / state.nodes * 1e6,
            "core.update_p50_us": median(
                [wall for storm in storms for wall in storm.updates]
            ) * 1e6,
            "db.read_after_write_p50_ms": median(
                [wall for storm in storms for wall in storm.drains]
            ) * 1e3,
            "storage.pages_written_per_update": (
                sum(storm.io_writes for storm in storms[:MIN_STORMS])
                / sum(len(storm.updates) for storm in storms[:MIN_STORMS])
            ),
        }

        # the same storm drained by DocumentStore.flush instead of a
        # query, with and without the two start indexes: flush cost per
        # record, and what index maintenance adds per update
        def flushed(indexed: bool) -> _StormSamples:
            db, document, _ = self._load(state.seed, state.nodes, indexed)
            return self._replay(
                db, document, _storm_seed(state.seed, 0), state.updates, rec, traced,
                request=-1_000, drain_by_query=False, indexed=indexed,
            )

        pairs = [(flushed(True), flushed(False)) for _ in range(PROBE_PAIRS)]
        with_index = pairs[0][0]
        out["storage.patch_us_per_record"] = median(
            [sum(storm.drains) / storm.records_applied for storm, _ in pairs]
        ) * 1e6
        out["storage.flush_pages_written"] = float(with_index.drain_writes)
        out["index.maintain_us_per_update"] = median(
            [sum(indexed.rounds) - sum(bare.rounds) for indexed, bare in pairs]
        ) / len(with_index.updates) * 1e6
        return out


UPDATE_MIX = UpdateWorkload()
