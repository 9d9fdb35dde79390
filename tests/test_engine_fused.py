"""Tests for dictionary encoding, the stable sharding hash and the folds.

The folds' end-to-end equivalence with the dict reference is pinned by the
golden digests (``tests/test_golden_discovery.py``) and the per-build
equivalence tests; here the stdlib and numpy model folds are checked against
each other on the same resident columns.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.engine.columns import IntColumn, numpy_available
from repro.engine.encoding import DictionaryEncoder, stable_hash
from repro.engine.fused import (
    count_join_chunk,
    fold_model_pairs_arrays,
    fold_value_counts_arrays,
)
from repro.engine.shard import shard_assignments, shard_columns


class TestDictionaryEncoder:
    def test_ids_are_dense_and_stable(self):
        encoder = DictionaryEncoder()
        assert encoder.encode("a") == 0
        assert encoder.encode(("P", 80)) == 1
        assert encoder.encode("a") == 0
        assert len(encoder) == 2

    def test_roundtrip(self):
        encoder = DictionaryEncoder()
        values = [("P", 80), ("PA", 443, "k", "v"), 7, "x", ("P", 80)]
        ids = encoder.encode_column(values)
        assert [encoder.decode(i) for i in ids] == values
        assert ids[0] == ids[4]

    def test_decode_tuple(self):
        encoder = DictionaryEncoder()
        ids = (encoder.encode("a"), encoder.encode("b"))
        assert encoder.decode_tuple(ids) == ("a", "b")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            DictionaryEncoder().decode(3)

    def test_equal_values_share_ids_across_columns(self):
        # One encoder = one id space: join keys encoded from either side of a
        # join must still compare equal.
        encoder = DictionaryEncoder()
        left = encoder.encode_column([1, 2, 3])
        right = encoder.encode_column([3, 2, 9])
        assert left[2] == right[0]
        assert left[1] == right[1]


class TestStableHash:
    def test_ints_hash_to_themselves(self):
        assert stable_hash(5) == 5
        assert stable_hash(0) == 0

    def test_str_bearing_tuples_are_deterministic_across_hash_seeds(self):
        # The builtin hash of a str-bearing tuple changes with
        # PYTHONHASHSEED; stable_hash must not.  Regression test for
        # bit-reproducible sharding: compute shard assignments in two
        # subprocesses with different hash seeds and require identical
        # output.
        script = (
            "from repro.engine.encoding import stable_hash\n"
            "from repro.engine.shard import shard_assignments\n"
            "rows = [(p, 'proto-%d' % (p % 3)) for p in range(40)]\n"
            "print([stable_hash(r) for r in rows])\n"
            "print(shard_assignments(rows, 4))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_hash_consistent_with_equality_for_numeric_types(self):
        # 1 == True == 1.0, so like the builtin hash they must shard alike;
        # equal tuples must hash equal even when element reprs differ.
        assert stable_hash(1) == stable_hash(True) == stable_hash(1.0)
        assert stable_hash((1, "x")) == stable_hash((True, "x")) == \
            stable_hash((1.0, "x"))
        assert len(set(shard_assignments([(1,), (True,), (1.0,)], 4))) == 1

    def test_partition_rows_still_covers_and_groups(self):
        keys = [(i % 7, "s%d" % (i % 3)) for i in range(100)]
        sharded = shard_columns({"key": keys, "row": list(range(100))},
                                "key", 4)
        rows = [row for shard in sharded.shards for row in shard["row"]]
        assert sorted(rows) == list(range(100))
        # Same key always lands in the same shard.
        location = {}
        for shard_id, shard in enumerate(sharded.shards):
            assert len(shard["key"]) == len(shard["row"])
            for key in shard["key"]:
                assert location.setdefault(key, shard_id) == shard_id


#: Two hosts' group-structured columns: host 0 has ports 22, 80 and 443
#: (port 80 carrying two predictor ids), host 1 has port 80 alone.
MEMBER_STARTS = [0, 3, 4]
LABELS = [22, 80, 443, 80]
VALUE_STARTS = [0, 1, 3, 4, 5]
VALUE_IDS = [0, 1, 2, 3, 1]
PACK_BASE = 65536


def _join_payload():
    hosts, values, labels = [], [], []
    for g in range(len(MEMBER_STARTS) - 1):
        for m in range(MEMBER_STARTS[g], MEMBER_STARTS[g + 1]):
            for v in range(VALUE_STARTS[m], VALUE_STARTS[m + 1]):
                hosts.append(g)
                values.append(VALUE_IDS[v])
                labels.append(LABELS[m])
    index = [LABELS[MEMBER_STARTS[g]:MEMBER_STARTS[g + 1]]
             for g in range(len(MEMBER_STARTS) - 1)]
    return hosts, values, labels, index, PACK_BASE


class TestModelFolds:
    def test_join_counts_other_ports_of_the_same_host(self):
        counts = count_join_chunk(_join_payload())
        expected = Counter({
            0 * PACK_BASE + 80: 1, 0 * PACK_BASE + 443: 1,
            1 * PACK_BASE + 22: 1, 1 * PACK_BASE + 443: 1,
            2 * PACK_BASE + 22: 1, 2 * PACK_BASE + 443: 1,
            3 * PACK_BASE + 22: 1, 3 * PACK_BASE + 80: 1,
        })
        assert counts == expected

    def test_empty_join(self):
        assert count_join_chunk(([], [], [], [], PACK_BASE)) == Counter()

    @pytest.mark.skipif(not numpy_available(),
                        reason="numpy column backend not installed")
    def test_array_kernels_match_the_join_fold(self):
        keys, counts = fold_model_pairs_arrays(
            IntColumn(MEMBER_STARTS), IntColumn(LABELS),
            IntColumn(VALUE_STARTS), IntColumn(VALUE_IDS), PACK_BASE)
        assert dict(zip(keys, counts)) == count_join_chunk(_join_payload())
        ids, id_counts = fold_value_counts_arrays(IntColumn(VALUE_IDS))
        assert dict(zip(ids, id_counts)) == Counter(VALUE_IDS)
