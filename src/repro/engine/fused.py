"""Fused folds: the three Table 2 queries as single streaming passes.

Every GPS build folds over one relation -- hosts owning services owning
dictionary-encoded predictor tuples -- stored as group-structured int
columns: group ``g`` owns members ``member_starts[g]:member_starts[g+1]``,
member ``m`` carries the label ``labels[m]`` (its port) and the values
``value_ids[value_starts[m]:value_starts[m+1]]``.  The folds here run
against one resident shard of that relation inside an
:class:`~repro.engine.runtime.EngineRuntime` worker:

* :func:`count_join_chunk` -- the model build's self-join + group-by +
  count (Section 5.2), streamed through a per-host port index and folded
  straight into packed ``(predictor id, port)`` counters, never
  materializing the joined relation;
* :func:`count_partner_chunk` -- the priors planner's partner selection +
  coverage count (Section 5.3);
* :func:`select_argmax_chunk` -- the prediction-index argmax (Section 5.4);
* :func:`fold_model_pairs_arrays` / :func:`fold_value_counts_arrays` -- the
  model fold as bulk numpy passes (the ``numpy`` column backend).

Payloads are plain data, so the same functions run in-process and inside
spawned pool workers.  Every fold is pinned against the single-core dict
reference in :mod:`repro.core` by the golden digests.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Tuple

from repro.engine.columns import IntColumn, require_numpy, to_numpy

__all__ = [
    "count_join_chunk",
    "count_partner_chunk",
    "fold_model_pairs_arrays",
    "fold_value_counts_arrays",
    "select_argmax_chunk",
]


def count_join_chunk(payload: Tuple[Any, ...]) -> Counter:
    """The resident stdlib model fold: packed ``(value, label)`` pair counts.

    ``payload`` is ``(hosts, values, labels, index, pack_base)``: one row per
    (host, service, predictor id) -- the host's shard-local group index, the
    predictor id and the service's port -- plus ``index``, the list of each
    host's ports by group index.  Every row meets each *other* port of its host once (the
    self pair is excluded inline) and folds into a counter keyed
    ``value * pack_base + port``; hashing one small int per joined pair is
    several times cheaper than hashing a 2-tuple.
    """
    hosts, values, labels, index, pack_base = payload
    counts: Counter = Counter()
    # Packed keys fold through a small bounded buffer so the actual counting
    # happens in C (``Counter.update`` over a list of ints) instead of one
    # interpreted dict-increment per joined pair.
    buffer: List[int] = []
    buffer_append = buffer.append
    flush = counts.update
    for i in range(len(hosts)):
        packed = values[i] * pack_base
        own = labels[i]
        for port in index[hosts[i]]:
            if port != own:
                buffer_append(packed + port)
        if len(buffer) >= 8192:
            flush(buffer)
            buffer.clear()
    if buffer:
        flush(buffer)
    return counts


def count_partner_chunk(payload: Tuple[Any, ...]) -> Counter:
    """Fold one chunk of groups into ``(partner_label, group_key)`` counts.

    ``payload`` is ``(group_keys, member_starts, labels, value_starts,
    value_ids, target_counts, denominators, allowed)``: the group-structured
    columns of one shard (offsets rebased from their first entry), the
    model's count row and support per predictor id, and an optional label
    whitelist applied to the *selected* partner.

    For every member of a multi-member group the fold selects the partner
    member whose values score highest against the member's label -- the
    score of value ``v`` against label ``m`` is the exact fraction
    ``target_counts[v].get(m, 0) / denominators[v]``, the operands the
    reference divides -- breaking ties toward the smallest partner label,
    and counts ``(partner_label, group_key)``.  Single-member groups count
    their only member.  Per group of ``k`` members the scratch is three
    ``k``-length lists; it dies with the group.
    """
    (group_keys, member_starts, labels, value_starts, value_ids,
     target_counts, denominators, allowed) = payload
    counts: Counter = Counter()
    if not group_keys:
        return counts
    m_base = member_starts[0]
    v_base = value_starts[0]
    for g in range(len(group_keys)):
        lo = member_starts[g] - m_base
        hi = member_starts[g + 1] - m_base
        k = hi - lo
        if k == 0:
            continue
        group_key = group_keys[g]
        if k == 1:
            label = labels[lo]
            if allowed is None or label in allowed:
                counts[(label, group_key)] += 1
            continue
        if k == 2:
            # A two-member group forces the choice: each member's only
            # candidate partner is the other member, whatever its score.
            first, second = labels[lo], labels[lo + 1]
            if allowed is None or second in allowed:
                counts[(second, group_key)] += 1
            if allowed is None or first in allowed:
                counts[(first, group_key)] += 1
            continue
        members = labels[lo:hi]
        # For every target member i, the running best (score, partner label)
        # over source members j != i.  Scores are folded source-major so each
        # count row is fetched once per source value, and the strict > keeps
        # the first (smallest-label) source on ties -- the documented
        # deterministic tie-break.  A value never scores against its own
        # member (its count row cannot contain its own label), so col[j]
        # stays 0.0 and needs no exclusion test in the inner loop.
        best_score = [-1.0] * k
        best_partner = [0] * k
        full = k - 1
        for j in range(k):
            v_lo = value_starts[lo + j] - v_base
            v_hi = value_starts[lo + j + 1] - v_base
            col = [0.0] * k
            saturated = 0
            for v in range(v_lo, v_hi):
                pid = value_ids[v]
                row = target_counts[pid]
                if not row:
                    continue
                denom = denominators[pid]
                row_get = row.get
                i = 0
                for member in members:
                    count = row_get(member)
                    if count:
                        if count == denom:
                            # Exactly 1.0, the maximum a score can reach;
                            # once every other member is saturated no later
                            # value of this member can improve anything.
                            if col[i] != 1.0:
                                col[i] = 1.0
                                saturated += 1
                        else:
                            score = count / denom
                            if score > col[i]:
                                col[i] = score
                    i += 1
                if saturated == full:
                    break
            partner = members[j]
            for i in range(k):
                if i != j and col[i] > best_score[i]:
                    best_score[i] = col[i]
                    best_partner[i] = partner
        for i in range(k):
            partner = best_partner[i]
            if allowed is None or partner in allowed:
                counts[(partner, group_key)] += 1
    return counts


def select_argmax_chunk(payload: Tuple[Any, ...]) -> List[Tuple[int, int, float]]:
    """Select one chunk's ``(label, value_id, score)`` winners, in member order.

    ``payload`` is ``(member_starts, labels, value_starts, value_ids,
    target_counts, denominators, tie_ranks, allowed, min_support, cutoff)``.
    For every member whose label passes the ``allowed`` whitelist the fold
    selects the single value, drawn from the group's *other* members, that
    wins under :meth:`repro.core.model.CooccurrenceModel.best_predictor`'s
    ordering: maximum probability, then larger support, then the smallest
    predictor tuple (``tie_ranks`` ranks ids in decoded-tuple order).
    Values with support below ``min_support`` only win when no supported
    value scores; winners below ``cutoff`` are dropped.  Per group of ``k``
    members the scratch is eight ``k``-length lists (the running best per
    target for the supported and fallback tiers); winners append straight
    to the output and the scratch dies with the group.
    """
    (member_starts, labels, value_starts, value_ids, target_counts,
     denominators, tie_ranks, allowed, min_support, cutoff) = payload
    out: List[Tuple[int, int, float]] = []
    m_base = member_starts[0]
    v_base = value_starts[0]
    for g in range(len(member_starts) - 1):
        lo = member_starts[g] - m_base
        hi = member_starts[g + 1] - m_base
        k = hi - lo
        members = labels[lo:hi]
        # Two running bests per target member i: one over values with
        # support >= min_support, one over the rest; the fallback tier only
        # wins when the supported tier stays empty (mirroring the reference's
        # best_predictor(min_support) call followed by the unrestricted one).
        # Scores are folded source-major so each count row is fetched once
        # per value.  A member's own values are excluded explicitly (i != j):
        # the reference draws candidates only from the group's *other*
        # members, and although a predictor tuple produced by the feature
        # extractor embeds its own port (so its count row can never contain
        # it), the operator must match the oracle for any caller-supplied
        # model, not just well-formed co-occurrence counts.
        sup_prob = [0.0] * k
        sup_support = [0] * k
        sup_rank = [0] * k
        sup_id = [-1] * k
        uns_prob = [0.0] * k
        uns_support = [0] * k
        uns_rank = [0] * k
        uns_id = [-1] * k
        for j in range(k):
            v_lo = value_starts[lo + j] - v_base
            v_hi = value_starts[lo + j + 1] - v_base
            for v in range(v_lo, v_hi):
                pid = value_ids[v]
                row = target_counts[pid]
                if not row:
                    continue
                denom = denominators[pid]
                rank = tie_ranks[pid]
                row_get = row.get
                if denom >= min_support:
                    b_prob, b_support = sup_prob, sup_support
                    b_rank, b_id = sup_rank, sup_id
                else:
                    b_prob, b_support = uns_prob, uns_support
                    b_rank, b_id = uns_rank, uns_id
                i = 0
                for member in members:
                    if i != j:
                        count = row_get(member)
                        if count:
                            # prob > 0 always holds here, so the initial
                            # (0.0, 0, _) sentinel can never tie a real score
                            # and the rank comparison only fires between two
                            # genuine candidates -- exactly the reference's
                            # "best is not None" guard.
                            prob = count / denom
                            cur = b_prob[i]
                            if (prob > cur
                                    or (prob == cur
                                        and (denom > b_support[i]
                                             or (denom == b_support[i]
                                                 and rank < b_rank[i])))):
                                b_prob[i] = prob
                                b_support[i] = denom
                                b_rank[i] = rank
                                b_id[i] = pid
                    i += 1
        for i in range(k):
            label = members[i]
            if allowed is not None and label not in allowed:
                continue
            if sup_id[i] >= 0:
                pid, prob = sup_id[i], sup_prob[i]
            elif uns_id[i] >= 0:
                pid, prob = uns_id[i], uns_prob[i]
            else:
                continue
            if prob < cutoff:
                continue
            out.append((label, pid, prob))
    return out


# -- bulk array kernels (the numpy column backend) ---------------------------------------
#
# The folds above stream row-by-row through Python loops -- the stdlib
# backend.  When the numpy
# gate is on (see repro.engine.columns), the model-build fold runs instead as
# whole-column ufunc passes over the group-structured buffers: expand the
# join's full multiset of packed keys, sort it, run-length count it, and
# subtract the excluded self pairs.  Sorting machine words is cheaper than a
# per-pair dict hop, and numpy releases the GIL inside its C loops -- which
# is what lets the thread executor fold resident shards concurrently.


def _run_length(np, sorted_values):
    """Distinct values and their run lengths of an already-sorted array."""
    boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries + 1))
    uniq = sorted_values[starts]
    counts = np.diff(np.append(starts, sorted_values.size))
    return uniq, counts


def _int_column_of(np, values) -> IntColumn:
    """An :class:`IntColumn` holding an int64 ndarray's values (one memcpy)."""
    column = IntColumn()
    column.frombytes(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return column


def fold_model_pairs_arrays(member_starts, labels, value_starts, value_ids,
                            pack_base: int) -> Tuple[IntColumn, IntColumn]:
    """The model-build join fold as bulk array passes (numpy backend).

    Input is the flattened group structure every fused plan uses (and every
    resident shard stores): group ``g`` owns members
    ``member_starts[g]:member_starts[g+1]``, member ``m`` carries the label
    ``labels[m]`` and the encoded values
    ``value_ids[value_starts[m]:value_starts[m+1]]``.  The fold counts, for
    every value of every member, one occurrence per *other* member's label in
    the same group, keyed ``value_id * pack_base + label`` -- exactly the
    packed counter :func:`count_join_chunk` produces.

    Precondition: labels are unique within each group (host port runs are,
    by construction) -- the join excludes matches whose label equals the
    carrying member's own, which under uniqueness is exactly one self pair
    per value, subtracted here as a second run-length pass.

    Returns ``(keys, counts)`` sorted by packed key, as picklable
    :class:`IntColumn` buffers (a pool worker's reply needs no numpy on the
    receiving side).
    """
    np = require_numpy()
    ms = to_numpy(member_starts)
    ports = to_numpy(labels)
    vcounts = np.diff(to_numpy(value_starts))
    vids = to_numpy(value_ids)
    n_groups = ms.size - 1
    if n_groups <= 0 or vids.size == 0:
        return IntColumn(), IntColumn()
    sizes = np.diff(ms)
    group_of_member = np.repeat(np.arange(n_groups, dtype=np.int64), sizes)
    member_of_value = np.repeat(
        np.arange(ports.size, dtype=np.int64), vcounts)
    group_of_value = group_of_member[member_of_value]
    reps = sizes[group_of_value]
    total = int(reps.sum())
    if total == 0:
        return IntColumn(), IntColumn()
    # Expand the full multiset (every value x every label of its group,
    # self included): out_starts[v] is where value v's run begins in the
    # output, so (arange - run start + group's member offset) indexes the
    # right span of ``ports`` for every output slot at once.
    out_ends = np.cumsum(reps)
    out_starts = out_ends - reps
    idx = np.arange(total, dtype=np.int64) + np.repeat(
        ms[group_of_value] - out_starts, reps)
    full = np.repeat(vids, reps) * pack_base + ports[idx]
    # In-place sort + run-length count; np.sort over int64 is the whole
    # fold's hot loop and runs GIL-free.  (No argsort anywhere: a stable
    # argsort of the expansion costs an order of magnitude more than the
    # value sort and nothing here needs original positions.)
    full.sort()
    uniq, counts = _run_length(np, full)
    # Subtract the excluded self pairs: each value once against its own
    # member's label.  Every self key exists in ``uniq`` by construction, so
    # searchsorted hits exact positions.
    self_keys = np.sort(vids * pack_base + ports[member_of_value])
    self_uniq, self_counts = _run_length(np, self_keys)
    counts[np.searchsorted(uniq, self_uniq)] -= self_counts
    keep = counts > 0
    return _int_column_of(np, uniq[keep]), _int_column_of(np, counts[keep])


def fold_value_counts_arrays(value_ids) -> Tuple[IntColumn, IntColumn]:
    """``Counter(value_ids)`` as a bulk sort + run-length pass (numpy backend).

    The model build's denominator fold: how many services carry each encoded
    predictor id.  Returns ``(ids, counts)`` sorted by id, as picklable
    :class:`IntColumn` buffers.
    """
    np = require_numpy()
    vids = to_numpy(value_ids)
    if vids.size == 0:
        return IntColumn(), IntColumn()
    ordered = np.sort(vids)
    uniq, counts = _run_length(np, ordered)
    return _int_column_of(np, uniq), _int_column_of(np, counts)
