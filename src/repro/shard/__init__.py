"""Scale-out sharded storage and shard-parallel containment joins.

The paper's VPJ (vertical partitioning join, §5.3) partitions the
coding space into subtrees rooted at level ``l`` and replicates
ancestors across the partitions they span.  This package promotes
that scatter rule from one join's in-memory phase to a *storage
layout*: :class:`~repro.shard.corpus.ShardedCorpus` lays each element
set out as per-slot heap files spread over per-shard disks and buffer
pools, and :class:`~repro.shard.executor.ShardedJoinExecutor` — the
one scale-out entry — runs any existing join algorithm slot-by-slot
through the :mod:`repro.parallel` worker pool, merging the per-slot
:class:`~repro.join.base.JoinReport`s deterministically.

The merged accounting is *shard-count-invariant*: the unit of work is
the level-``l`` slot, whose population depends only on the tree
height, the partitioning level and the data — never on how slots are
grouped onto shards or how many workers run them.  ``shards=1`` vs
``shards=N`` (and ``workers=1`` vs ``workers=N``) is therefore a
differential oracle.
"""

from .corpus import ShardedCorpus, ShardMap, default_shard_level
from .executor import ShardedJoinExecutor

__all__ = [
    "ShardMap",
    "ShardedCorpus",
    "ShardedJoinExecutor",
    "default_shard_level",
]
