"""Parallelizable computation engine: the reproduction's BigQuery substitute.

The paper implements GPS's model building -- self-joining the seed scan to
find all pairwise feature/port combinations, aggregating identical patterns,
and computing conditional probabilities -- as SQL on Google BigQuery, because
the computation is "heavily reading data, aggregating, and joining among
shared data fields" (Section 5.5) and embarrassingly parallel.

Offline we cannot use BigQuery, so this package provides the same
computation on one production path:

* :mod:`~repro.engine.encoding` -- dictionary encoding of hashable values to
  dense integer ids (cheap grouping keys, ``PYTHONHASHSEED``-independent
  sharding, compact cross-process payloads);
* :mod:`~repro.engine.columns` -- machine-native int64 column buffers and
  the optional numpy backend gate;
* :mod:`~repro.engine.shard` -- ``PYTHONHASHSEED``-independent hash
  partitioning of encoded columns into shards with a stable identity;
* :mod:`~repro.engine.fused` -- the fused folds of the three Table 2 builds
  (model self-join + count, priors partner selection, index argmax), which
  never materialize the joined relation;
* :mod:`~repro.engine.runtime` -- the persistent execution runtime: one
  worker pool (``serial`` / ``thread`` / ``pool`` executors) that holds
  sharded columns resident and runs the folds against them;
* :mod:`~repro.engine.snapshot` -- the on-disk snapshot format whose shard
  files workers map straight into memory.

GPS's builds (:mod:`repro.core`) each ship two implementations: a direct
dictionary-based one (the single-core reference and oracle) and one folded
on this engine; the golden digests pin them to identical results.
"""

from repro.engine.encoding import DictionaryEncoder, stable_hash
from repro.engine.runtime import (
    RUNTIME_EXECUTORS,
    EngineRuntime,
    WorkerCrashError,
    WorkerTaskError,
)
from repro.engine.shard import ShardedColumns, shard_columns, shard_group_columns

__all__ = [
    "DictionaryEncoder",
    "stable_hash",
    "RUNTIME_EXECUTORS",
    "EngineRuntime",
    "WorkerCrashError",
    "WorkerTaskError",
    "ShardedColumns",
    "shard_columns",
    "shard_group_columns",
]
