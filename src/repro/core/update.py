"""Updates on PBiTree-encoded trees (Section 2.3.2).

The paper points out that the *virtual nodes* of the PBiTree — code
slots with no data-tree occupant — "may serve as placeholders and thus
be advantageous to update".  This module realises that claim:

* **insert**: a new child takes a free sibling slot on the level its
  siblings already occupy — an O(1) code assignment with no other code
  changing;
* **sibling-level overflow**: when all ``2**k`` slots under a parent
  are taken, the children move one level deeper (``k+1``) and only the
  parent's *subtree* is relabelled — a local operation, counted;
* **tree overflow**: when a subtree relabel would fall below the leaf
  level, the whole PBiTree grows by ``delta`` levels.  Because
  ``G(alpha, l) = (2*alpha + 1) * 2**(H - l - 1)``, growing ``H`` by
  ``delta`` simply multiplies *every* code by ``2**delta`` — a global
  relabel that is one shift per element and never changes relative
  order (the "durable numbering" property the related work seeks);
* **delete**: a subtree's codes return to the virtual-node pool.

All operations preserve the embedding contract (injective and
ancestor-preserving), which the test suite checks after random update
storms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..datatree.node import DataTree
from . import pbitree
from .binarize import placement_k
from .encoding import PBiTreeEncoding

__all__ = [
    "UpdatableEncoding",
    "UpdateStats",
    "CodeSpaceError",
    "ChangeEvent",
    "ChangeListener",
]


class CodeSpaceError(RuntimeError):
    """Raised when an insert cannot be encoded without growing the tree
    and growth was disallowed."""


@dataclass(frozen=True)
class ChangeEvent:
    """One code-level mutation, as seen by storage-layer subscribers.

    ``kind`` is one of:

    * ``"insert"`` — a new node received ``new_code`` (``old_code`` 0);
    * ``"relabel"`` — one *local relabel* moved a whole subtree:
      ``moves`` holds every ``(node, old_code, new_code)``.  Old codes
      inside one batch may collide with other entries' new codes, so a
      listener must free **all** old codes before assigning any new one;
    * ``"delete"`` — a node was tombstoned, freeing ``old_code``;
    * ``"grow"`` — the whole tree grew by ``delta`` levels: *every* code
      (the event carries no node) was shifted left by ``delta``.

    Events fire after the in-memory encoding has already mutated, so a
    listener reading ``tree.codes`` sees the post-change state.  The
    storage-backed update pipeline (:mod:`repro.storage.docstore`)
    turns these into an update log and in-place page patches.
    """

    kind: str
    node: int = -1
    old_code: int = 0
    new_code: int = 0
    delta: int = 0
    moves: tuple[tuple[int, int, int], ...] = ()


ChangeListener = Callable[[ChangeEvent], None]


class UpdateStats:
    """Relabelling work done by updates (for the update benchmarks)."""

    __slots__ = ("inserts", "deletes", "local_relabels", "relabelled_nodes",
                 "global_relabels", "tree_growths")

    def __init__(self) -> None:
        self.inserts = 0
        self.deletes = 0
        self.local_relabels = 0
        self.relabelled_nodes = 0
        self.global_relabels = 0
        self.tree_growths = 0

    def __repr__(self) -> str:
        return (
            f"<UpdateStats inserts={self.inserts} deletes={self.deletes} "
            f"local_relabels={self.local_relabels} "
            f"relabelled={self.relabelled_nodes} "
            f"global_relabels={self.global_relabels}>"
        )


class UpdatableEncoding:
    """A PBiTree encoding that supports inserts and deletes.

    Wraps an encoded :class:`DataTree`.  Deleted nodes are tombstoned
    (``is_alive``); their codes become virtual again and can be reused
    by later inserts.
    """

    def __init__(self, encoding: PBiTreeEncoding, allow_growth: bool = True) -> None:
        self.tree = encoding.tree
        self.tree_height = encoding.tree_height
        self.allow_growth = allow_growth
        self.stats = UpdateStats()
        self._alive = [True] * len(self.tree)
        #: ``is_alive(node)``: the tombstone list's own item getter, so
        #: the per-node liveness test (query filters, docstore scans,
        #: workload drivers) costs a C call, not a Python frame.
        #: ``_alive`` is only ever mutated in place, never rebound.
        self.is_alive: Callable[[int], bool] = self._alive.__getitem__
        self._occupied: dict[int, int] = {
            self.tree.codes[node]: node for node in range(len(self.tree))
        }
        #: storage-layer subscribers notified of every code mutation
        self.listeners: list[ChangeListener] = []

    def _emit(self, event: ChangeEvent) -> None:
        for listener in self.listeners:
            listener(event)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def node_of(self, code: int) -> Optional[int]:
        return self._occupied.get(code)

    def live_codes(self) -> list[int]:
        return [
            self.tree.codes[node]
            for node in range(len(self.tree))
            if self._alive[node]
        ]

    def parent_codes(self, codes: Sequence[int]) -> list[int]:
        """The code of each live code's parent, ``0`` for the root or a
        code no live node holds: the probe key of a child-axis step."""
        node_of = self._occupied.get
        parents = self.tree.parents
        tree_codes = self.tree.codes
        keys: list[int] = []
        for code in codes:
            node = node_of(code)
            parent = -1 if node is None else parents[node]
            keys.append(tree_codes[parent] if parent >= 0 else 0)
        return keys

    def level_of(self, node: int) -> int:
        return pbitree.level_of(self.tree.codes[node], self.tree_height)

    def _live_children(self, parent: int) -> list[int]:
        return [
            child for child in self.tree.children[parent] if self._alive[child]
        ]

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert_child(
        self, parent: int, tag: str, text: Optional[str] = None
    ) -> int:
        """Add a child element under ``parent`` and encode it.

        Fast path: a free virtual slot on the siblings' level.  Slow
        paths relabel locally (descend the sibling level) or grow the
        whole tree; both are transparent and counted in ``stats``.
        """
        if not self._alive[parent]:
            raise ValueError(f"parent {parent} is deleted")
        siblings = self._live_children(parent)
        parent_level = self.level_of(parent)
        if siblings:
            k = self.level_of(siblings[0]) - parent_level
        else:
            k = placement_k(1)

        # Encodability check BEFORE any mutation: if the insert would
        # force growth and growth is disallowed, fail atomically — the
        # data tree, _alive and _occupied are exactly as before.  The
        # growth amounts mirror the ones the mutation paths below
        # compute (the new node is a leaf, so it never deepens the
        # relabelled subtree).
        if parent_level + k > self.tree_height - 1:
            self._check_growth(parent_level + k - (self.tree_height - 1))
        elif self._free_slot(parent, parent_level + k) is None:
            overflow = (
                parent_level + (k + 1)
                + max((self._depth_below(c) for c in siblings), default=0)
                - (self.tree_height - 1)
            )
            if overflow > 0:
                self._check_growth(overflow)

        node = self.tree.add_child(parent, tag, text)
        self._alive.append(True)

        if parent_level + k > self.tree_height - 1:
            # leaf parent at the bottom of the PBiTree: grow first
            # (growth preserves every level, so parent_level still holds)
            self._grow_tree(parent_level + k - (self.tree_height - 1))

        slot = self._free_slot(parent, parent_level + k)
        if slot is not None:
            self._assign(node, slot)
            self._emit(ChangeEvent("insert", node=node, new_code=slot))
        else:
            # all 2**k sibling slots taken: push the children one level
            # deeper and relabel the parent's subtree (the new node gets
            # its code during the relabel)
            self._relabel_subtree_children(parent, k + 1)
        self.stats.inserts += 1
        return node

    def _free_slot(self, parent: int, child_level: int) -> Optional[int]:
        """Smallest unoccupied code on ``child_level`` under ``parent``."""
        if child_level > self.tree_height - 1:
            return None
        parent_code = self.tree.codes[parent]
        child_height = self.tree_height - child_level - 1
        for code in pbitree.subtree_codes_at_height(parent_code, child_height):
            if code not in self._occupied:
                return code
        return None

    def _assign(self, node: int, code: int) -> None:
        self.tree.codes[node] = code
        self._occupied[code] = node

    def _release(self, node: int) -> None:
        code = self.tree.codes[node]
        if self._occupied.get(code) == node:
            del self._occupied[code]

    # ------------------------------------------------------------------
    # relabelling
    # ------------------------------------------------------------------
    def _relabel_subtree_children(self, parent: int, k: int) -> None:
        """Move ``parent``'s children to ``k`` levels below and re-encode
        their subtrees (grows the whole tree first if they no longer fit)."""
        children = self._live_children(parent)
        deepest_child = max(
            (self._depth_below(child) for child in children), default=0
        )
        overflow = (
            self.level_of(parent) + k + deepest_child - (self.tree_height - 1)
        )
        if overflow > 0:
            self._grow_tree(overflow)

        parent_level = self.level_of(parent)
        parent_alpha = pbitree.alpha_of(self.tree.codes[parent])
        self.stats.local_relabels += 1
        moves: list[tuple[int, int, int]] = []
        fresh: list[tuple[int, int]] = []
        for index, child in enumerate(children):
            self._relabel_recursive(
                child, parent_level + k, (parent_alpha << k) + index,
                moves, fresh,
            )
        # one batched event per local relabel: listeners free every old
        # code before assigning any new one, so intra-batch collisions
        # (node A's new code == node B's not-yet-vacated old code) are
        # safe; fresh nodes follow, after the codes they may reuse are
        # released
        if moves:
            self._emit(ChangeEvent("relabel", moves=tuple(moves)))
        for node, code in fresh:
            self._emit(ChangeEvent("insert", node=node, new_code=code))

    def _relabel_recursive(
        self,
        node: int,
        level: int,
        alpha: int,
        moves: list[tuple[int, int, int]],
        fresh: list[tuple[int, int]],
    ) -> None:
        """Re-run BinarizeTree's placement for one subtree (iterative)."""
        stack = [(node, level, alpha)]
        while stack:
            current, cur_level, cur_alpha = stack.pop()
            old_code = self.tree.codes[current]
            self._release(current)
            self._assign(
                current, pbitree.g_code(cur_alpha, cur_level, self.tree_height)
            )
            new_code = self.tree.codes[current]
            if old_code:
                if new_code != old_code:
                    moves.append((current, old_code, new_code))
            else:
                # a freshly inserted node receives its first code here
                fresh.append((current, new_code))
            self.stats.relabelled_nodes += 1
            kids = self._live_children(current)
            if kids:
                k = placement_k(len(kids))
                for index, kid in enumerate(kids):
                    stack.append(
                        (kid, cur_level + k, (cur_alpha << k) + index)
                    )

    def _depth_below(self, node: int) -> int:
        """PBiTree levels the subtree below ``node`` needs (0 for a leaf)."""
        best = 0
        stack = [(node, 0)]
        while stack:
            current, depth = stack.pop()
            kids = self._live_children(current)
            if not kids:
                if depth > best:
                    best = depth
                continue
            k = placement_k(len(kids))
            for kid in kids:
                stack.append((kid, depth + k))
        return best

    def _grow_tree(self, delta: int) -> None:
        """Grow the PBiTree by ``delta`` levels: every code shifts left.

        ``G(alpha, l)`` scales by ``2**delta`` when ``H`` grows by
        ``delta``, so the global relabel is one shift per element and
        preserves every ancestor relationship and the document order.
        """
        self._check_growth(delta)
        self.tree_height += delta
        self.stats.tree_growths += 1
        self.stats.global_relabels += 1
        codes = self.tree.codes
        # rebuild the occupancy map from *live* nodes only — shifting a
        # tombstoned node's stale code must not resurrect it as
        # occupied, or codes freed by delete_subtree would leak forever
        self._occupied = {}
        for node in range(len(self.tree)):
            codes[node] <<= delta
            if self._alive[node]:
                self._occupied[codes[node]] = node
        self._emit(ChangeEvent("grow", delta=delta))

    def _check_growth(self, delta: int) -> None:
        """Raise :class:`CodeSpaceError` if growing by ``delta`` is not allowed."""
        if not self.allow_growth:
            raise CodeSpaceError(
                f"insert needs {delta} more levels and growth is disabled"
            )

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def delete_subtree(self, node: int) -> int:
        """Tombstone ``node`` and its descendants; frees their codes.

        Returns the number of elements removed.  Deleting the root is
        rejected (an empty document has no encoding).
        """
        if self.tree.parents[node] < 0:
            raise ValueError("cannot delete the root")
        if not self._alive[node]:
            return 0
        removed = 0
        stack = [node]
        while stack:
            current = stack.pop()
            if not self._alive[current]:
                continue
            self._alive[current] = False
            self._release(current)
            self._emit(ChangeEvent(
                "delete", node=current, old_code=self.tree.codes[current]
            ))
            removed += 1
            stack.extend(self.tree.children[current])
        self.stats.deletes += 1
        return removed

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-check the embedding contract over the live nodes."""
        seen: dict[int, int] = {}
        for node in range(len(self.tree)):
            if not self._alive[node]:
                continue
            code = self.tree.codes[node]
            pbitree.validate_code(code, self.tree_height)
            if code in seen:
                raise ValueError(f"nodes {seen[code]} and {node} share {code}")
            seen[code] = node
        for node in range(len(self.tree)):
            if not self._alive[node]:
                continue
            parent = self.tree.parents[node]
            if parent < 0:
                continue
            if not self._alive[parent]:
                raise ValueError(f"live node {node} under deleted parent")
            if not pbitree.is_ancestor(
                self.tree.codes[parent], self.tree.codes[node]
            ):
                raise ValueError(
                    f"parent {parent} does not dominate child {node}"
                )
            # nothing else may sit between child and parent on the path
            child_code = self.tree.codes[node]
            parent_height = pbitree.height_of(self.tree.codes[parent])
            for height in range(
                pbitree.height_of(child_code) + 1, parent_height
            ):
                between = pbitree.f_ancestor(child_code, height)
                if between in seen:
                    raise ValueError(
                        f"node {seen[between]} intrudes between {node} "
                        f"and its parent {parent}"
                    )

    def __repr__(self) -> str:
        live = sum(self._alive)
        return (
            f"<UpdatableEncoding H={self.tree_height} live={live} "
            f"stats={self.stats!r}>"
        )
