"""Feature extraction: turning observations into predictor tuples.

GPS models four interactions between feature categories (Section 5.2):

* Expression 4 -- ``P(Port_a | Port_b)``: the bare transport-layer predictor;
* Expression 5 -- ``P(Port_a | (Port_b, App_b))``: the port plus one
  application-layer feature value of the service on that port;
* Expression 6 -- ``P(Port_a | (Port_b, Net))``: the port plus a network-layer
  feature of the host (its ASN or /N subnetwork);
* Expression 7 -- ``P(Port_a | (Port_b, App_b, Net))``: all three.

A *predictor tuple* is the hashable encoding of one conditioning event:

* ``("P",  port_b)``
* ``("PA", port_b, app_key, app_value)``
* ``("PN", port_b, net_kind, net_value)``
* ``("PAN", port_b, app_key, app_value, net_kind, net_value)``

Tuples embed the port, so a tuple observed on a host identifies exactly one of
the host's services; the co-occurrence model counts, for each tuple, how often
each *other* port is open on the same host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import FeatureConfig
from repro.engine.columns import IntColumn
from repro.engine.encoding import DictionaryEncoder
from repro.net.asn import AsnDatabase
from repro.net.ipv4 import subnet_key
from repro.scanner.records import (
    ObservationBatch,
    ScanObservation,
    observations_by_host,
)

#: Type alias for predictor tuples (kept as plain tuples for hashability and
#: cheap serialization; the first element is the family tag).
PredictorTuple = Tuple


def network_feature_values(ip: int, asn_db: Optional[AsnDatabase],
                           kinds: Sequence[str]) -> List[Tuple[str, int]]:
    """Network-layer feature values of an address.

    Returns ``(kind, value)`` pairs, e.g. ``("asn", 64512)`` or
    ``("subnet16", <subnet key>)``.  An unknown ASN (value 0) is skipped: it
    would otherwise act as a gigantic catch-all "network" shared by every
    unannounced host.
    """
    values: List[Tuple[str, int]] = []
    for kind in kinds:
        if kind == "asn":
            if asn_db is None:
                continue
            asn = asn_db.asn_of(ip)
            if asn:
                values.append(("asn", asn))
        elif kind.startswith("subnet"):
            prefix_len = int(kind[len("subnet"):])
            values.append((kind, subnet_key(ip, prefix_len)))
        else:
            raise ValueError(f"unknown network feature kind: {kind}")
    return values


def app_feature_items(features, config: FeatureConfig) -> List[Tuple[str, str]]:
    """The (key, value) application-feature pairs present on one service."""
    items: List[Tuple[str, str]] = []
    if config.include_app or config.include_app_network:
        get = features.get
        for key in config.app_feature_keys:
            value = get(key)
            if value:
                items.append((key, value))
    return items


def assemble_predictor_tuples(port: int, app_items: Sequence[Tuple[str, str]],
                              net_values: Sequence[Tuple[str, int]],
                              config: FeatureConfig) -> List[PredictorTuple]:
    """Assemble predictor tuples from pre-extracted parts.

    Shared by the object and columnar extraction paths so the tuples (and
    their order) cannot drift between them: P, then PA, then PN, then PAN.
    """
    tuples: List[PredictorTuple] = []
    if config.include_transport_only:
        tuples.append(("P", port))
    if config.include_app:
        for key, value in app_items:
            tuples.append(("PA", port, key, value))
    if config.include_network:
        for kind, value in net_values:
            tuples.append(("PN", port, kind, value))
    if config.include_app_network:
        for key, app_value in app_items:
            for kind, net_value in net_values:
                tuples.append(("PAN", port, key, app_value, kind, net_value))
    return tuples


def predictor_conditions(predictor: PredictorTuple,
                         ) -> Tuple[int, Optional[Tuple[str, str]],
                                    Optional[Tuple[str, int]]]:
    """``(port, app item, network value)`` a predictor tuple conditions on.

    The app item and network value are ``None`` for families without them:
    the inverse of :func:`assemble_predictor_tuples`.
    """
    family = predictor[0]
    app = predictor[2:4] if family in ("PA", "PAN") else None
    if family == "PN":
        net = predictor[2:4]
    elif family == "PAN":
        net = predictor[4:6]
    else:
        net = None
    return predictor[1], app, net


def predictor_tuples_for_observation(
    observation: ScanObservation,
    net_values: Sequence[Tuple[str, int]],
    config: FeatureConfig,
) -> List[PredictorTuple]:
    """All predictor tuples derivable from one observed service."""
    return assemble_predictor_tuples(
        observation.port, app_feature_items(observation.app_features, config),
        net_values, config)


@dataclass
class HostFeatures:
    """Everything GPS knows about one host from a set of observations.

    Attributes:
        ip: host address.
        ports: mapping of open port to the predictor tuples derived from the
            service observed on that port.
        net_values: the host's network-layer feature values.
    """

    ip: int
    ports: Dict[int, List[PredictorTuple]] = field(default_factory=dict)
    net_values: List[Tuple[str, int]] = field(default_factory=list)

    def open_ports(self) -> List[int]:
        """The host's observed open ports, ascending."""
        return sorted(self.ports)


def extract_host_features(
    observations: Iterable[ScanObservation],
    asn_db: Optional[AsnDatabase],
    config: FeatureConfig,
) -> Dict[int, HostFeatures]:
    """Group observations by host and compute predictor tuples for each service.

    This is the feature-extraction step that, in the paper's implementation,
    happens inside BigQuery by selecting banner fields, deriving the subnet
    from the address and joining against an ASN table.
    """
    hosts: Dict[int, HostFeatures] = {}
    for ip, host_observations in observations_by_host(observations).items():
        net_values = network_feature_values(ip, asn_db, config.network_feature_kinds)
        host = HostFeatures(ip=ip, net_values=net_values)
        for observation in host_observations:
            host.ports[observation.port] = predictor_tuples_for_observation(
                observation, net_values, config
            )
        hosts[ip] = host
    return hosts


# -- columnar extraction (the fused engine's ingest path) --------------------------------


@dataclass
class HostFeatureColumns:
    """The host/service/predictor relation as flat, pre-encoded columns.

    The columnar twin of the ``Dict[int, HostFeatures]`` mapping: hosts are
    groups in first-seen order, each owning a contiguous run of services
    (ports ascending), each service owning a contiguous run of
    dictionary-encoded predictor-tuple ids.  This is exactly the group
    structure every fused engine consumer flattens host features into --
    producing it directly from :class:`~repro.scanner.records.ObservationBatch`
    columns removes the object pre-pass from the model, priors and
    prediction-index builds (and from
    :class:`~repro.core.runtime_plans.ResidentHostGroups` shard loading).

    Attributes:
        ips: one address per host, in first-seen observation order (the
            order the object extraction iterates hosts in).
        member_starts: host ``g`` owns services
            ``member_starts[g]:member_starts[g + 1]``; length is
            ``len(ips) + 1``.
        ports: per-service port, ascending within each host.
        value_starts: service ``m`` owns predictor ids
            ``value_starts[m]:value_starts[m + 1]``; length is
            ``len(ports) + 1``.
        value_ids: dictionary-encoded predictor-tuple ids.
        encoder: the encoder that decodes ``value_ids`` back to tuples (and
            whose ``values()`` view side tables are built from).

    All five columns are :class:`~repro.engine.columns.IntColumn` buffers:
    the fused kernels and the shard loader read them through the buffer
    protocol (memoryview / numpy view) instead of boxing one Python int per
    element, and ``==`` against the object-path oracle lists still compares
    element-wise.
    """

    ips: IntColumn
    member_starts: IntColumn
    ports: IntColumn
    value_starts: IntColumn
    value_ids: IntColumn
    encoder: DictionaryEncoder

    def __len__(self) -> int:
        return len(self.ips)

    def service_count(self) -> int:
        """Number of (host, port) services in the relation."""
        return len(self.ports)

    def predictors_for(self, group: int) -> Dict[int, List[PredictorTuple]]:
        """Decoded ``port -> predictor tuples`` of one host (oracle view).

        Materializes objects, so it belongs in tests and debugging, not on
        the hot path.
        """
        decode = self.encoder.decode
        out: Dict[int, List[PredictorTuple]] = {}
        for m in range(self.member_starts[group], self.member_starts[group + 1]):
            out[self.ports[m]] = [
                decode(self.value_ids[v])
                for v in range(self.value_starts[m], self.value_starts[m + 1])
            ]
        return out


def extract_host_features_columns(
    batch: ObservationBatch,
    asn_db: Optional[AsnDatabase],
    config: FeatureConfig,
    encoder: Optional[DictionaryEncoder] = None,
) -> HostFeatureColumns:
    """Columnar feature extraction: observation columns in, encoded columns out.

    Produces the relation :func:`extract_host_features` produces -- same
    hosts in the same order, same ports, and per service the same predictor
    tuples in the same order (decoded) -- but folds it straight from the
    batch's flat columns into :class:`HostFeatureColumns`, never building
    ``HostFeatures`` dicts or even touching most banner mappings:

    * application-feature items are extracted **once per interned banner
      id** (equal banner content shares an id, so the 20+-key scan over the
      banner mapping runs once per distinct banner, not once per service);
    * the encoded predictor-id run of a service is memoized per
      ``(port, banner id, network values)`` -- fleets of co-located hosts
      running the same firmware collapse to one tuple-build + encode.

    Duplicate (host, port) rows resolve exactly as the object path resolves
    them: the last observation in batch order wins.
    """
    encoder = encoder if encoder is not None else DictionaryEncoder()
    # Hydrate the machine-native columns to lists once: the grouping loop
    # below touches every element, and per-index array access would box a
    # fresh int per read.
    ips_list = batch.ips.tolist()
    ports_list = batch.ports.tolist()
    banner_list = batch.banner_ids.tolist()
    # Group rows per host in first-seen order; per (host, port) the last row
    # wins (dict assignment), mirroring observations_by_host + dict insert.
    by_host: Dict[int, Dict[int, int]] = {}
    for i, ip in enumerate(ips_list):
        rows = by_host.get(ip)
        if rows is None:
            rows = by_host[ip] = {}
        rows[ports_list[i]] = i

    ips: List[int] = []
    member_starts: List[int] = [0]
    ports: List[int] = []
    value_starts: List[int] = [0]
    value_ids: List[int] = []
    app_items_cache: Dict[int, List[Tuple[str, str]]] = {}
    run_cache: Dict[Tuple[int, int, Tuple[Tuple[str, int], ...]], List[int]] = {}
    kinds = config.network_feature_kinds
    encode_column = encoder.encode_column
    for ip, rows in by_host.items():
        net_values = network_feature_values(ip, asn_db, kinds)
        net_key = tuple(net_values)
        ips.append(ip)
        for port in sorted(rows):
            row = rows[port]
            banner_id = banner_list[row]
            # Batch-local banners (negative ids) are transient one-off pages:
            # memoizing them would key on an id that dies with the batch.
            run_key = (port, banner_id, net_key) if banner_id >= 0 else None
            ids = run_cache.get(run_key) if run_key is not None else None
            if ids is None:
                app_items = (app_items_cache.get(banner_id)
                             if banner_id >= 0 else None)
                if app_items is None:
                    app_items = app_feature_items(batch.banner_features(row), config)
                    if banner_id >= 0:
                        app_items_cache[banner_id] = app_items
                ids = encode_column(
                    assemble_predictor_tuples(port, app_items, net_values, config))
                if run_key is not None:
                    run_cache[run_key] = ids
            ports.append(port)
            value_ids.extend(ids)
            value_starts.append(len(value_ids))
        member_starts.append(len(ports))
    # Accumulate into plain lists above (cheapest append path), convert to
    # machine-native buffers exactly once here.
    return HostFeatureColumns(ips=IntColumn(ips),
                              member_starts=IntColumn(member_starts),
                              ports=IntColumn(ports),
                              value_starts=IntColumn(value_starts),
                              value_ids=IntColumn(value_ids),
                              encoder=encoder)


def describe_predictor(predictor: PredictorTuple) -> str:
    """Human-readable rendering of a predictor tuple (used in reports).

    >>> describe_predictor(("PA", 22, "ssh_banner", "SSH-2.0-x"))
    "(Port 22, ssh_banner='SSH-2.0-x')"
    """
    tag = predictor[0]
    if tag == "P":
        return f"(Port {predictor[1]})"
    if tag == "PA":
        return f"(Port {predictor[1]}, {predictor[2]}={predictor[3]!r})"
    if tag == "PN":
        return f"(Port {predictor[1]}, {predictor[2]}={predictor[3]})"
    if tag == "PAN":
        return (f"(Port {predictor[1]}, {predictor[2]}={predictor[3]!r}, "
                f"{predictor[4]}={predictor[5]})")
    return repr(predictor)


def predictor_family(predictor: PredictorTuple) -> str:
    """The family tag of a predictor tuple ("P", "PA", "PN" or "PAN")."""
    return predictor[0]
