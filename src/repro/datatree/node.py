"""Data-tree model: the tree-structured data the paper encodes.

A :class:`DataTree` models a document (e.g. an XML document) in the way
Figure 1(b) of the paper does: internal nodes are elements, leaves may
be text, and edges represent nesting.  Nodes are identified by dense
integer ids so that large trees stay cheap; the tree stores structure in
flat arrays (parent pointers and children lists).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

__all__ = ["DataTree", "NodeView", "is_element_tag"]


def is_element_tag(tag: str) -> bool:
    """Whether ``tag`` names an element, not one of the parser's
    ``@name`` attribute or ``#text`` pseudo-nodes (what ``*`` skips)."""
    return not tag.startswith(("@", "#"))


class DataTree:
    """A rooted, ordered tree of labelled nodes.

    Nodes are created through :meth:`add_root` and :meth:`add_child` and
    are referred to by their integer id (assigned densely from 0).  Each
    node carries a ``tag`` (element name) and an optional ``text``
    payload.  After PBiTree encoding (see :mod:`repro.core.binarize`)
    ``codes[node_id]`` holds the node's PBiTree code.
    """

    __slots__ = ("tags", "texts", "parents", "children", "codes", "root")

    #: id of the root node (always 0); set by :meth:`add_root`.  A slot,
    #: not a property: traversals and callers filtering node lists read
    #: it once per node
    root: int

    def __init__(self) -> None:
        self.tags: list[str] = []
        self.texts: list[Optional[str]] = []
        self.parents: list[int] = []
        self.children: list[list[int]] = []
        self.codes: list[int] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_root(self, tag: str, text: Optional[str] = None) -> int:
        """Create the root node.  Returns its id (always 0)."""
        if self.tags:
            raise ValueError("tree already has a root")
        return self._add(tag, text, parent=-1)

    def add_child(self, parent: int, tag: str, text: Optional[str] = None) -> int:
        """Append a child under ``parent`` and return the new node id."""
        if not 0 <= parent < len(self.tags):
            raise IndexError(f"no such node: {parent}")
        return self._add(tag, text, parent)

    def _add(self, tag: str, text: Optional[str], parent: int) -> int:
        node_id = len(self.tags)
        self.tags.append(tag)
        self.texts.append(text)
        self.parents.append(parent)
        self.children.append([])
        self.codes.append(0)
        if parent >= 0:
            self.children[parent].append(node_id)
        else:
            self.root = node_id
        return node_id

    if not TYPE_CHECKING:  # keeps the type checker strict on attribute names

        def __getattr__(self, name):
            # reached only through an unset slot: ``root`` before add_root
            if name == "root":
                raise ValueError("empty tree")
            raise AttributeError(name)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tags)

    def node(self, node_id: int) -> "NodeView":
        """A lightweight read view of one node."""
        return NodeView(self, node_id)

    def is_leaf(self, node_id: int) -> bool:
        return not self.children[node_id]

    def depth_of(self, node_id: int) -> int:
        """Number of edges from the root to ``node_id``."""
        depth = 0
        while self.parents[node_id] >= 0:
            node_id = self.parents[node_id]
            depth += 1
        return depth

    def is_ancestor(self, anc: int, desc: int) -> bool:
        """Structural (pointer-chasing) proper-ancestor test.

        This is the ground truth the PBiTree code-based test must agree
        with; it is O(depth) and used by tests and by the binarizer's
        validation mode.
        """
        node = self.parents[desc]
        while node >= 0:
            if node == anc:
                return True
            node = self.parents[node]
        return False

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def iter_preorder(self, start: Optional[int] = None) -> Iterator[int]:
        """Yield node ids in document (pre-) order."""
        if not self.tags:
            return
        stack = [self.root if start is None else start]
        while stack:
            node_id = stack.pop()
            yield node_id
            stack.extend(reversed(self.children[node_id]))

    def iter_by_tag(self, tag: str) -> Iterator[int]:
        """Yield ids of all nodes with the given tag, in document order."""
        for node_id in self.iter_preorder():
            if self.tags[node_id] == tag:
                yield node_id

    def descendants_of(self, node_id: int) -> Iterator[int]:
        """Yield all proper descendants of ``node_id`` in document order."""
        stack = list(reversed(self.children[node_id]))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.children[node]))

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def max_fanout(self) -> int:
        """Largest number of children of any node (0 for a single node)."""
        return max((len(kids) for kids in self.children), default=0)

    def height(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        if not self.tags:
            raise ValueError("empty tree")
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node_id, depth = stack.pop()
            if depth > best:
                best = depth
            for child in self.children[node_id]:
                stack.append((child, depth + 1))
        return best

    def tag_counts(self) -> dict[str, int]:
        """Histogram of tags."""
        counts: dict[str, int] = {}
        for tag in self.tags:
            counts[tag] = counts.get(tag, 0) + 1
        return counts


class NodeView:
    """Read-only convenience view of one node of a :class:`DataTree`."""

    __slots__ = ("_tree", "id")

    def __init__(self, tree: DataTree, node_id: int) -> None:
        if not 0 <= node_id < len(tree):
            raise IndexError(f"no such node: {node_id}")
        self._tree = tree
        self.id = node_id

    @property
    def tag(self) -> str:
        return self._tree.tags[self.id]

    @property
    def text(self) -> Optional[str]:
        return self._tree.texts[self.id]

    @property
    def code(self) -> int:
        return self._tree.codes[self.id]

    @property
    def parent(self) -> Optional["NodeView"]:
        parent_id = self._tree.parents[self.id]
        return None if parent_id < 0 else NodeView(self._tree, parent_id)

    @property
    def children(self) -> list["NodeView"]:
        return [NodeView(self._tree, child) for child in self._tree.children[self.id]]

    def __repr__(self) -> str:
        return f"<NodeView id={self.id} tag={self.tag!r} code={self.code}>"
