"""Predicting remaining services (Section 5.4).

Once the priors scan has surfaced at least one service per responsive host,
GPS uses the features of those services to predict every remaining service:

1. Build the **most predictive feature values list** from the seed set: for
   every service ``(IP, Port_a)`` in the seed, find the predictor tuple (from
   the host's *other* services) with the maximum ``P(Port_a)``; keep it if the
   probability clears the cut-off (1e-5, roughly the hit rate of random
   probing).  The list maps predictor tuples to the ports they predict.
2. For every service discovered by the priors scan, extract its predictor
   tuples and look them up in the list; every hit emits a predicted
   ``(IP, Port_a)`` pair.
3. The predictions list is ordered by probability, descending, so that the
   most predictable services are scanned first (this ordering is what gives
   GPS its precision profile in Figure 3).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.config import FeatureConfig
from repro.core.features import (
    HostFeatures,
    PredictorTuple,
    assemble_predictor_tuples,
    network_feature_values,
    predictor_conditions,
)
from repro.core.model import CooccurrenceModel
from repro.core.runtime_plans import ResidentHostGroups
from repro.net.asn import AsnDatabase
from repro.scanner.records import (
    ObservationBatch,
    ProbeBatch,
    ScanObservation,
    group_pairs,
)

#: Prefix length prediction probes are grouped by before they reach the scan
#: pipeline's batched layers.  /16 matches the default network feature (the
#: granularity predictions naturally cluster at, since (Port, Net) patterns
#: emit one prediction per co-located host), so batches stay large without
#: reordering the probability-ordered schedule by more than a batch.
PREDICTION_BATCH_PREFIX_LEN = 16

#: Upper bound on the per-index network-feature memo used by
#: :meth:`PredictiveFeatureIndex.predict`.  The memo persists across predict
#: calls (GPS rounds against the same universe hit the same hosts again), so
#: without a bound it would grow with every distinct address ever predicted
#: from; at the bound the least-recently-used entry is evicted, so hosts
#: that keep reappearing across rounds stay memoized under pressure.
NET_FEATURE_CACHE_MAX = 65536

#: An (ip, port) service.
Pair = Tuple[int, int]

#: ``predict``'s marker for a known pair: no probability beats it, and it
#: never reaches the output.
_KNOWN: Tuple[float, None] = (float("inf"), None)


@dataclass(frozen=True)
class PredictiveFeature:
    """One entry of the most-predictive-feature-values list."""

    predictor: PredictorTuple
    target_port: int
    probability: float


@dataclass(frozen=True)
class PredictedService:
    """One predicted (ip, port) target, with the pattern that produced it."""

    ip: int
    port: int
    probability: float
    predictor: PredictorTuple

    def pair(self) -> Tuple[int, int]:
        """The (ip, port) identity of the prediction."""
        return (self.ip, self.port)


class PredictiveFeatureIndex:
    """The "most predictive feature values" list, indexed for fast lookup."""

    def __init__(self, features: Iterable[PredictiveFeature]) -> None:
        self._by_predictor: Dict[PredictorTuple, Dict[int, float]] = {}
        for feature in features:
            if not 0 <= feature.target_port <= 0xFFFF:
                # predict packs (ip, target port) into ip << 16 | port.
                raise ValueError(
                    f"target port {feature.target_port} outside 0-65535")
            targets = self._by_predictor.setdefault(feature.predictor, {})
            existing = targets.get(feature.target_port)
            if existing is None or feature.probability > existing:
                targets[feature.target_port] = feature.probability
        self._entry_count = sum(len(t) for t in self._by_predictor.values())
        # Per conditioning port, the app items (as banner key -> values) and
        # network values some indexed predictor carries: predict reads and
        # derives only what can hit the index (see the run memo there).
        self._app_vocab: Dict[int, Dict[str, Set[str]]] = {}
        self._net_vocab: Dict[int, Set[Tuple[str, int]]] = {}
        for predictor in self._by_predictor:
            port, app_item, net_value = predictor_conditions(predictor)
            if app_item is not None:
                key, value = app_item
                self._app_vocab.setdefault(port, {}).setdefault(key, set()).add(value)
            if net_value is not None:
                self._net_vocab.setdefault(port, set()).add(net_value)
        # Bounded LRU memo for network_feature_values, shared across predict
        # calls; keyed per (asn_db, feature kinds) identity so an index
        # reused against a different universe never serves stale features.
        # One index is read by many serving threads concurrently, so every
        # structural cache operation (lookup+refresh, insert+evict, rekey)
        # holds the lock: an unguarded get/move_to_end pair races with
        # another thread's eviction and dies with KeyError.
        self._net_cache: "OrderedDict[int, Tuple[Tuple[str, int], ...]]" = OrderedDict()
        self._net_cache_db: Optional[AsnDatabase] = None
        self._net_cache_kinds: Optional[Tuple[str, ...]] = None
        self._net_cache_lock = threading.Lock()

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_seed(
        cls,
        host_features: Mapping[int, HostFeatures],
        model: CooccurrenceModel,
        probability_cutoff: float = 1e-5,
        port_domain: Optional[Sequence[int]] = None,
        min_pattern_support: int = 2,
    ) -> "PredictiveFeatureIndex":
        """Build the index from the seed set (step 1 of the Section 5.4 algorithm).

        Every seed service that is predictable at all (it shares a host with at
        least one other service, and the best pattern clears the cut-off) is
        guaranteed to contribute the pattern most likely to find it -- the
        property the paper highlights as crucial to the algorithm.

        ``min_pattern_support`` requires the winning pattern to have been
        observed on at least that many seed hosts (default two): host-unique
        feature values reach probability 1.0 on their own host but cannot find
        services anywhere else, so preferring the best *supported* pattern is
        what lets the index generalise.  When no supported pattern exists for a
        service, the selection falls back to the unsupported ones so the
        service is still represented.
        """
        allowed: Optional[Set[int]] = set(port_domain) if port_domain is not None else None
        features: List[PredictiveFeature] = []
        for host in host_features.values():
            open_ports = host.open_ports()
            if len(open_ports) < 2:
                continue
            for port_a in open_ports:
                if allowed is not None and port_a not in allowed:
                    continue
                candidates: List[PredictorTuple] = []
                for port_b in open_ports:
                    if port_b != port_a:
                        candidates.extend(host.ports[port_b])
                predictor, probability = model.best_predictor(
                    candidates, port_a, min_support=min_pattern_support)
                if predictor is None:
                    predictor, probability = model.best_predictor(candidates, port_a)
                if predictor is None or probability < probability_cutoff:
                    continue
                features.append(PredictiveFeature(predictor=predictor,
                                                  target_port=port_a,
                                                  probability=probability))
        return cls(features)

    # -- queries -----------------------------------------------------------------------

    def __len__(self) -> int:
        return self._entry_count

    def predictors(self) -> List[PredictorTuple]:
        """All predictor tuples present in the index."""
        return list(self._by_predictor)

    def targets_for(self, predictor: PredictorTuple) -> Dict[int, float]:
        """Ports predicted by one predictor tuple (with probabilities)."""
        return dict(self._by_predictor.get(predictor, {}))

    def entries(self) -> List[PredictiveFeature]:
        """All (predictor, target port, probability) entries, most probable first."""
        out = [
            PredictiveFeature(predictor=predictor, target_port=port, probability=prob)
            for predictor, targets in self._by_predictor.items()
            for port, prob in targets.items()
        ]
        out.sort(key=lambda f: (-f.probability, f.target_port))
        return out

    # -- prediction (steps 2-3) ----------------------------------------------------------

    def _net_values_cache(self, asn_db: Optional[AsnDatabase],
                          kinds: Tuple[str, ...],
                          ) -> "OrderedDict[int, Tuple[Tuple[str, int], ...]]":
        """The bounded per-(asn_db, kinds) network-feature memo, reset on rekey.

        Callers must only touch the returned dict under
        ``self._net_cache_lock``; the rekey check itself takes the lock so a
        concurrent predict against a different universe cannot interleave
        with the swap and resurrect the stale dict.
        """
        with self._net_cache_lock:
            if self._net_cache_db is not asn_db or self._net_cache_kinds != kinds:
                self._net_cache = OrderedDict()
                self._net_cache_db = asn_db
                self._net_cache_kinds = kinds
            return self._net_cache

    def predict(
        self,
        observations: Iterable[ScanObservation],
        asn_db: Optional[AsnDatabase],
        feature_config: FeatureConfig,
        known_pairs: Optional[AbstractSet[Pair]] = None,
    ) -> List[PredictedService]:
        """Predict remaining services from discovered-service observations.

        Args:
            observations: services discovered so far (typically the priors
                scan results; the seed services' patterns are already encoded
                in the index itself).  An
                :class:`~repro.scanner.records.ObservationBatch` is read
                through its ``(ip, port, banner mapping)`` columns without
                building row objects; any other iterable of
                :class:`ScanObservation` feeds the same loop through those
                three attributes.
            asn_db: ASN database for network feature extraction.
            feature_config: which predictor tuples to derive per observation.
            known_pairs: (ip, port) pairs already discovered; predictions for
                them are suppressed so bandwidth is not spent re-probing.  Only
                membership is tested and the set is never mutated, so callers
                may pass a live set or a frozenset without copying it.

        Returns:
            Deduplicated predictions ordered by probability (descending), the
            order in which GPS probes them; ties go to the lower (ip, port).

        The answer equals the plain loop: for every observation, derive its
        predictor tuples, look each up in the index, skip targets on the
        observation's own port and known pairs, and keep per (ip, target)
        the first candidate of strictly greatest probability.  A medium GPS
        run feeds ~37k observations and keeps ~38k predictions, so the loop
        body must allocate almost nothing that outlives it: every surviving
        tuple is a garbage-collector-tracked object, and at that volume the
        collector's passes cost as much as the work itself.  Four steps:

        * **Pruned run memo.**  An observation's candidates depend only on
          its port and on the banner items and network values some indexed
          predictor of that port carries; every other tuple could never hit.
          Runs are memoized on ``(port, pruned app items, pruned network
          values)``, reading only the banner keys the port's predictors use
          (in ``app_feature_keys`` order, with ``app_feature_items``'s
          truthiness test), so co-located hosts with banners that differ
          only outside the index vocabulary share one run.  Network values
          come from the index's bounded cross-call LRU, one lock round per
          distinct address.
        * **First-max per target.**  A run is collapsed, in derivation
          order, to one ``(target port, probability, (probability,
          predictor))`` entry per target, a later candidate replacing an
          earlier one only on a strictly greater probability.  That is the
          winner the plain loop would pick among the observation's own
          candidates, and the value tuple is shared by every observation on
          the run.
        * **Int pair keys.**  The walk's ``best`` dict is keyed by
          ``ip << 16 | target port`` (ints are not tracked by the collector)
          and stores the run's shared value tuples.  ``known_pairs`` is
          tested only the first time a pair is seen; a known pair is marked
          with a sentinel no probability beats and never reaches the output.
        * **Tuple-free ranking.**  The packed keys sort ascending in
          (ip, port) order; a stable sort by probability with
          ``reverse=True`` then yields the ``(-probability, ip, port)``
          order, and each kept pair becomes one ``PredictedService``.

        Both per-call memos die with the call, so ``known_pairs``,
        ``feature_config`` and ``asn_db`` never leak between calls.
        """
        known = known_pairs or None
        # The index's LRU (NET_FEATURE_CACHE_MAX, a hit refreshes the entry,
        # the stalest entry goes first; keyed per (asn_db, kinds) so reuse
        # against another universe resets it) is shared by the serving
        # layer's threads, so the lookup+refresh and evict+insert pairs each
        # run atomically under the cache lock; the feature derivation itself
        # runs outside it (a concurrent duplicate derivation wastes a little
        # work but last-write-wins on identical values).
        kinds = feature_config.network_feature_kinds
        net_cache = self._net_values_cache(asn_db, kinds)
        net_cache_lock = self._net_cache_lock
        limit = NET_FEATURE_CACHE_MAX
        reads_app = feature_config.include_app or feature_config.include_app_network
        app_keys = feature_config.app_feature_keys
        app_vocab = self._app_vocab
        net_vocab = self._net_vocab
        # Per port: the (banner key, indexed values) pairs to read and the
        # indexed network values, both fixed for the call's config.
        port_reads: Dict[int, Tuple[Tuple[Tuple[str, AbstractSet[str]], ...],
                                    AbstractSet[Tuple[str, int]]]] = {}
        net_keys: Dict[int, Tuple[Tuple[str, int], ...]] = {}
        runs: Dict[Tuple, List[Tuple[int, float, Tuple[float, PredictorTuple]]]] = {}
        best: Dict[int, Tuple[float, Optional[PredictorTuple]]] = {}
        best_get = best.get
        rows = (observations.feature_rows()
                if isinstance(observations, ObservationBatch)
                else map(attrgetter("ip", "port", "app_features"), observations))
        for ip, port, app_features in rows:
            net_values = net_keys.get(ip)
            if net_values is None:
                with net_cache_lock:
                    net_values = net_cache.get(ip)
                    if net_values is not None:
                        net_cache.move_to_end(ip)
                if net_values is None:
                    net_values = tuple(network_feature_values(ip, asn_db, kinds))
                    with net_cache_lock:
                        while len(net_cache) >= limit:
                            net_cache.popitem(last=False)
                        net_cache[ip] = net_values
                net_keys[ip] = net_values
            reads = port_reads.get(port)
            if reads is None:
                vocab = app_vocab.get(port, {}) if reads_app else {}
                reads = port_reads[port] = (
                    tuple((key, vocab[key]) for key in app_keys if key in vocab),
                    net_vocab.get(port, frozenset()))
            app_read, indexed_net = reads
            if app_read:
                get = app_features.get
                app_items = tuple([(key, value) for key, values in app_read
                                   if (value := get(key)) and value in values])
            else:
                app_items = ()
            net_items = tuple([value for value in net_values
                               if value in indexed_net]) if indexed_net else ()
            run_key = (port, app_items, net_items)
            run = runs.get(run_key)
            if run is None:
                run = runs[run_key] = self._run(port, app_items, net_items,
                                                feature_config)
            pair_base = ip << 16
            for target_port, probability, value in run:
                key = pair_base | target_port
                current = best_get(key)
                if current is None:
                    best[key] = (_KNOWN if known is not None
                                 and (ip, target_port) in known else value)
                elif probability > current[0]:
                    best[key] = value
        ranked = sorted([key for key, value in best.items() if value is not _KNOWN])
        ranked.sort(key=lambda key: best[key][0], reverse=True)
        return [PredictedService(key >> 16, key & 0xFFFF, *best[key]) for key in ranked]

    def _run(self, port: int, app_items: Sequence[Tuple[str, str]],
             net_values: Sequence[Tuple[str, int]], feature_config: FeatureConfig,
             ) -> List[Tuple[int, float, Tuple[float, PredictorTuple]]]:
        """One observation's candidates, collapsed to a first-max per target.

        Predictor tuples are joined against the index in derivation order;
        targets on ``port`` itself are dropped, and a later candidate
        replaces an earlier one only on a strictly greater probability.
        """
        firsts: Dict[int, Tuple[float, PredictorTuple]] = {}
        for predictor in assemble_predictor_tuples(port, app_items, net_values,
                                                   feature_config):
            for target_port, probability in self._by_predictor.get(predictor, {}).items():
                if target_port == port:
                    continue
                current = firsts.get(target_port)
                if current is None or probability > current[0]:
                    firsts[target_port] = (probability, predictor)
        return [(target_port, value[0], value) for target_port, value in firsts.items()]

    def predict_batches(
        self,
        observations: Iterable[ScanObservation],
        asn_db: Optional[AsnDatabase],
        feature_config: FeatureConfig,
        known_pairs: Optional[AbstractSet[Pair]] = None,
        prefix_len: int = PREDICTION_BATCH_PREFIX_LEN,
    ) -> List[ProbeBatch]:
        """Predict remaining services as per-(subnetwork, port) probe batches.

        The batched form of :meth:`predict` for the Section 5.4 prediction
        scan: the probability-ordered predictions are grouped into
        :class:`~repro.scanner.records.ProbeBatch` objects (batches in
        first-seen order, so the highest-probability region of each
        (subnetwork, port) group is probed first) ready for
        :meth:`repro.scanner.pipeline.ScanPipeline.scan_pair_batches`, which
        amortizes universe lookups and ledger charges across each batch.
        """
        predictions = self.predict(observations, asn_db, feature_config,
                                   known_pairs=known_pairs)
        return group_pairs((p.pair() for p in predictions), prefix_len)


# -- engine-backed index construction ----------------------------------------------------


def build_prediction_index_with_engine(
    dataset: ResidentHostGroups,
    model: CooccurrenceModel,
    probability_cutoff: float = 1e-5,
    port_domain: Optional[Sequence[int]] = None,
    min_pattern_support: int = 2,
) -> PredictiveFeatureIndex:
    """The Section 5.4 index build on the engine runtime (the Table 2 story).

    Produces a :class:`PredictiveFeatureIndex` identical to
    :meth:`PredictiveFeatureIndex.from_seed` (the oracle; tie cases
    included), but runs as an argmax fold against the host groups
    ``dataset`` holds resident in its runtime's workers
    (:func:`repro.engine.fused.select_argmax_chunk`): count rows broadcast
    once per model and per-service selection runs on flat int columns
    instead of re-hashing nested tuples per candidate.

    Args:
        dataset: the seed's host groups, resident in a runtime.
        model: the co-occurrence model built from the same seed set.
        probability_cutoff: minimum probability for an index entry.
        port_domain: optional target-port whitelist.
        min_pattern_support: preferred-tier support floor (see ``from_seed``).
    """
    return PredictiveFeatureIndex(
        PredictiveFeature(predictor=predictor, target_port=label,
                          probability=probability)
        for label, predictor, probability in dataset.argmax_winners(
            model, port_domain=port_domain,
            min_pattern_support=min_pattern_support,
            probability_cutoff=probability_cutoff)
    )
