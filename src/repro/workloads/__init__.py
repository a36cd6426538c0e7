"""Workload generators: synthetic Table-2 datasets, DBLP-like, XMark-like
and text documents."""

from . import dblp, synthetic, textdoc, xmark
from .dblp import JoinSpec

__all__ = [
    "synthetic",
    "dblp",
    "xmark",
    "textdoc",
    "JoinSpec",
]
