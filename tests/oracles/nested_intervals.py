"""Nested intervals: an independent labelling to check updates against.

Tropashko's nested intervals with continued fractions, realised over
binary materialised paths (the Stern-Brocot tree and the binary path
tree are isomorphic: each mediant descent step is one path bit).  A
child with 0-based sibling ordinal ``o`` appends the bits ``1``\\ *×o*
``0`` to its parent's path; the unary termination makes sibling
segments prefix-free, so *data-tree ancestor ⟺ path prefix*.  New
children always take a fresh ordinal, therefore **an insert never
relabels any existing node**.  The only global event is projection
growth, a one-shift-per-code rewrite exactly like PBiTree tree growth.

Projection (Lemma 4 read backwards): a path of length ``L`` with bits
``alpha`` is the node at top-down coordinates ``(level=L, alpha)`` of a
PBiTree of height ``H``, i.e. code ``G(alpha, L, H)``.  The projection
is exact: a mid-segment path prefix always ends in a ``1`` bit and no
node's path does (every non-root path ends in the ``0`` terminator), so
the PBiTree-ancestor relation among projected codes coincides with the
data-tree ancestor relation.

:class:`NestedIntervalEncoding` has the mutation and listener surface
of :class:`~repro.core.update.UpdatableEncoding`, so a
:class:`~repro.storage.DocumentStore` and the join operators run on it
unchanged: the storm tests drive both labellings through the same
store and compare each against a from-scratch rebuild.
"""

from __future__ import annotations

from typing import Optional

from repro.core import pbitree
from repro.core.update import (
    ChangeEvent,
    ChangeListener,
    CodeSpaceError,
    UpdateStats,
)
from repro.datatree.node import DataTree

__all__ = ["NestedIntervalEncoding"]


class NestedIntervalEncoding:
    """Tropashko nested intervals over binary materialised paths.

    Native label of a node: its root-to-node path stored as the
    integer ``(1 << len) | bits`` (a leading sentinel bit keeps
    zero-length and zero-valued paths distinct; the root is ``1``).
    ``tree.codes`` holds the Lemma-4 projection of the paths into the
    PBiCode domain of a height-``tree_height`` PBiTree; paths never
    change once assigned, so the projection of an existing node only
    moves when ``tree_height`` itself grows (one shift per code).
    """

    def __init__(
        self,
        tree: DataTree,
        *,
        min_height: int = 1,
        allow_growth: bool = True,
    ) -> None:
        self.tree = tree
        self.allow_growth = allow_growth
        self.stats = UpdateStats()
        #: storage-layer subscribers notified of every code mutation
        self.listeners: list[ChangeListener] = []
        size = len(tree)
        self._alive = [True] * size
        self._paths = [0] * size
        self._next_ordinal = [0] * size
        self._paths[tree.root] = 1
        deepest = 0
        for node in tree.iter_preorder():
            kids = tree.children[node]
            self._next_ordinal[node] = len(kids)
            for ordinal, child in enumerate(kids):
                path = _extend_path(self._paths[node], ordinal)
                self._paths[child] = path
                length = path.bit_length() - 1
                if length > deepest:
                    deepest = length
        self.tree_height = max(min_height, deepest + 1)
        self._occupied: dict[int, int] = {}
        for node in range(size):
            code = self._project(self._paths[node])
            tree.codes[node] = code
            self._occupied[code] = node

    def _emit(self, event: ChangeEvent) -> None:
        for listener in self.listeners:
            listener(event)

    def _project(self, path: int) -> int:
        level = path.bit_length() - 1
        return pbitree.g_code(path - (1 << level), level, self.tree_height)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def is_alive(self, node: int) -> bool:
        return self._alive[node]

    def node_of(self, code: int) -> Optional[int]:
        return self._occupied.get(code)

    def path_of(self, node: int) -> int:
        """Native sentinel-form path label (stable across growth)."""
        return self._paths[node]

    def live_codes(self) -> list[int]:
        return [
            self.tree.codes[node]
            for node in range(len(self.tree))
            if self._alive[node]
        ]

    def level_of(self, node: int) -> int:
        return pbitree.level_of(self.tree.codes[node], self.tree_height)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert_child(
        self, parent: int, tag: str, text: Optional[str] = None
    ) -> int:
        """Append a child; never relabels an existing node.

        The child takes the next free sibling ordinal (ordinals are
        never reused, so no existing path can collide).  If its path
        outgrows the current projection height the projection grows
        first — a global one-shift-per-code event, but *not* a
        structural relabel: every native path is untouched.
        """
        if not self._alive[parent]:
            raise ValueError(f"parent {parent} is deleted")
        ordinal = self._next_ordinal[parent]
        path = _extend_path(self._paths[parent], ordinal)
        level = path.bit_length() - 1
        delta = level - (self.tree_height - 1)
        if delta > 0 and not self.allow_growth:
            # atomic failure: nothing has been mutated yet
            raise CodeSpaceError(
                f"insert needs {delta} more levels and growth is disabled"
            )
        node = self.tree.add_child(parent, tag, text)
        self._alive.append(True)
        self._paths.append(path)
        self._next_ordinal.append(0)
        self._next_ordinal[parent] = ordinal + 1
        if delta > 0:
            self._grow(delta)
        code = self._project(path)
        self.tree.codes[node] = code
        self._occupied[code] = node
        self.stats.inserts += 1
        self._emit(ChangeEvent("insert", node=node, new_code=code))
        return node

    def _grow(self, delta: int) -> None:
        self.tree_height += delta
        self.stats.tree_growths += 1
        self.stats.global_relabels += 1
        codes = self.tree.codes
        self._occupied = {}
        for node in range(len(self.tree)):
            codes[node] = pbitree.grown_code(
                pbitree.PBiCode(codes[node]), delta
            )
            if self._alive[node]:
                self._occupied[codes[node]] = node
        self._emit(ChangeEvent("grow", delta=delta))

    def delete_subtree(self, node: int) -> int:
        """Tombstone ``node`` and its descendants (the root is kept)."""
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
            code = self.tree.codes[current]
            if self._occupied.get(code) == current:
                del self._occupied[code]
            self._emit(ChangeEvent("delete", node=current, old_code=code))
            removed += 1
            stack.extend(self.tree.children[current])
        self.stats.deletes += 1
        return removed

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-check paths, the projection and the embedding contract.

        Path prefix-freeness makes a between-node intrusion (a live
        code strictly between parent and child on the PBiTree path)
        structurally impossible — a mid-segment prefix ends in a ``1``
        bit and no node's path does — so unlike
        :meth:`UpdatableEncoding.validate` no intrusion scan is needed.
        """
        seen: dict[int, int] = {}
        for node in range(len(self.tree)):
            if not self._alive[node]:
                continue
            path = self._paths[node]
            code = self.tree.codes[node]
            if code != self._project(path):
                raise ValueError(
                    f"node {node}: code {code} is not the projection of "
                    f"path {path:b}"
                )
            pbitree.validate_code(code, self.tree_height)
            if code in seen:
                raise ValueError(f"nodes {seen[code]} and {node} share {code}")
            seen[code] = node
            parent = self.tree.parents[node]
            if parent < 0:
                continue
            if not self._alive[parent]:
                raise ValueError(f"live node {node} under deleted parent")
            parent_path = self._paths[parent]
            shift = path.bit_length() - parent_path.bit_length()
            if shift <= 0 or path >> shift != parent_path:
                raise ValueError(
                    f"parent path {parent_path:b} is not a prefix of "
                    f"{node}'s path {path:b}"
                )
            if not pbitree.is_ancestor(
                pbitree.PBiCode(self.tree.codes[parent]),
                pbitree.PBiCode(code),
            ):
                raise ValueError(
                    f"projection broke ancestry of {parent} over {node}"
                )

    def __repr__(self) -> str:
        live = sum(self._alive)
        return (
            f"<NestedIntervalEncoding H={self.tree_height} live={live} "
            f"stats={self.stats!r}>"
        )


def _extend_path(path: int, ordinal: int) -> int:
    """Append the sibling segment ``1``*ordinal* ``0`` to a path."""
    return (path << (ordinal + 1)) | (((1 << ordinal) - 1) << 1)
