"""Frame-escape checker: no reader keeps a view of a buffer frame.

Every page decode returns an owned array (one memcpy out of the pinned
frame), so a recycled frame buffer never shows through a decoded page.
This checker flags the two shapes that would hand out the frame's bytes:

* a ``memoryview(...)`` or ``.cast(...)`` call outside the decode and
  patch helpers and the index node readers (:data:`VIEW_MODULES`),
  which copy out of the frame inside the pin;
* a frame's ``.data`` (``frame.data``, ``self._frame.data``, or a local
  bound to one) that is returned, yielded, or stored in an attribute,
  subscript or container, outside ``storage/buffer.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .framework import Finding, SourceModule

__all__ = ["FrameEscapeChecker", "VIEW_MODULES"]

#: the modules that may take a memoryview of a frame
VIEW_MODULES = (
    "storage/record.py", "storage/page.py",  # decode and patch helpers
    "index/bptree.py", "index/interval_tree.py",  # node readers
    "ablations/rtree.py",  # the R-tree the spatial-join ablation builds
)
_CONTAINER_ADDS = {"append", "add", "insert", "extend", "setdefault"}
#: nodes a value passes through unchanged on its way to a sink
_WRAPPERS = (ast.Tuple, ast.List, ast.Set, ast.Dict, ast.Starred, ast.IfExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_VIEW_HINT = "outside the decode helpers: use read_record_array / read_page_array"
_DATA_HINT = "a frame's buffer escapes its pin: copy or decode it instead"


def _is_frame_data(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Attribute) and node.attr == "data"):
        return False
    owner = node.value
    name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
    return "frame" in name.lower()


def _view_call(node: ast.AST) -> str | None:
    func = getattr(node, "func", None)
    if isinstance(func, ast.Name) and func.id == "memoryview":
        return "memoryview()"
    if isinstance(func, ast.Attribute) and func.attr == "cast":
        return None if getattr(func.value, "id", "") == "typing" else ".cast()"
    return None


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of one scope (module or function), nested defs excluded."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _escapes(module: SourceModule, node: ast.AST) -> bool:
    """True if ``node``'s value is returned, yielded or stored."""
    child, parent = node, module.parent(node)
    while isinstance(parent, _WRAPPERS) and child is not getattr(parent, "test", None):
        child, parent = parent, module.parent(parent)
    if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
        return True
    if isinstance(parent, (ast.Assign, ast.AnnAssign)):
        targets = parent.targets if isinstance(parent, ast.Assign) else [parent.target]
        return any(isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets)
    return (
        isinstance(parent, ast.Call)
        and child in parent.args
        and getattr(parent.func, "attr", None) in _CONTAINER_ADDS
    )


class FrameEscapeChecker:
    name = "frame-escape"
    description = "frame buffers are viewed only in decode helpers, never kept"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.is_test:
            return
        where = "/".join(module.path.parts[-2:])
        path = str(module.path)
        if where not in VIEW_MODULES:
            for node in ast.walk(module.tree):
                what = _view_call(node)
                if what is not None:
                    yield Finding(
                        path, node.lineno, node.col_offset, self.name,
                        f"{what} {_VIEW_HINT}",
                    )
        if where == "storage/buffer.py":
            return
        scopes = [module.tree] + [
            node for node in ast.walk(module.tree) if isinstance(node, _SCOPES)
        ]
        for scope in scopes:
            nodes = list(_scope_nodes(scope))
            aliases = {
                target.id
                for node in nodes
                if isinstance(node, ast.Assign) and _is_frame_data(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in nodes:
                source = _is_frame_data(node) or (
                    isinstance(node, ast.Name) and node.id in aliases
                    and isinstance(node.ctx, ast.Load)
                )
                if source and _escapes(module, node):
                    yield Finding(
                        path, node.lineno, node.col_offset, self.name, _DATA_HINT
                    )
