"""PBiTree coding core: the paper's primary contribution."""

from . import pbitree
from .binarize import binarize, levels_for_tree, placement_k
from .codec import (
    ContainmentCodec,
    MutableEncoding,
    NestedIntervalCodec,
    NestedIntervalEncoding,
    PBiTreeCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from .encoding import EncodingError, PBiTreeEncoding
from .execconfig import ExecConfig, exec_scope
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
    "ExecConfig",
    "exec_scope",
    "UpdatableEncoding",
    "UpdateStats",
    "CodeSpaceError",
    "ChangeEvent",
    "ChangeListener",
    "ContainmentCodec",
    "MutableEncoding",
    "PBiTreeCodec",
    "NestedIntervalCodec",
    "NestedIntervalEncoding",
    "register_codec",
    "available_codecs",
    "get_codec",
]
