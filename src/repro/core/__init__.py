"""PBiTree coding core: the paper's primary contribution."""

from . import pbitree
from .binarize import binarize, levels_for_tree, placement_k
from .encoding import EncodingError, PBiTreeEncoding
from .pbitree import Height, PBiCode, PrefixCode, RegionCode
from .update import (
    ChangeEvent,
    ChangeListener,
    CodeSpaceError,
    UpdatableEncoding,
    UpdateStats,
)

__all__ = [
    "pbitree",
    "PBiCode",
    "RegionCode",
    "PrefixCode",
    "Height",
    "binarize",
    "levels_for_tree",
    "placement_k",
    "PBiTreeEncoding",
    "EncodingError",
    "UpdatableEncoding",
    "UpdateStats",
    "CodeSpaceError",
    "ChangeEvent",
    "ChangeListener",
]
