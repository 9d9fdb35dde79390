"""Helpers for tests that drive the engine builds against the dict oracle.

The engine builds take host features only as resident
:class:`~repro.core.features.HostFeatureColumns`; tests that handcraft
``HostFeatures`` mappings (arbitrary predictor tuples, adversarial models)
convert them here and fold on an :class:`~repro.engine.runtime.EngineRuntime`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Mapping, Union

from repro.core.features import HostFeatureColumns, HostFeatures
from repro.core.runtime_plans import ResidentHostGroups
from repro.engine.columns import IntColumn
from repro.engine.encoding import DictionaryEncoder
from repro.engine.runtime import EngineRuntime


def host_feature_columns(hosts: Mapping[int, HostFeatures]) -> HostFeatureColumns:
    """The columns holding exactly the relation of a ``HostFeatures`` mapping."""
    encoder = DictionaryEncoder()
    ips: List[int] = []
    member_starts: List[int] = [0]
    ports: List[int] = []
    value_starts: List[int] = [0]
    value_ids: List[int] = []
    for host in hosts.values():
        ips.append(host.ip)
        for port in host.open_ports():
            ports.append(port)
            value_ids.extend(encoder.encode_column(host.ports[port]))
            value_starts.append(len(value_ids))
        member_starts.append(len(ports))
    return HostFeatureColumns(ips=IntColumn(ips),
                              member_starts=IntColumn(member_starts),
                              ports=IntColumn(ports),
                              value_starts=IntColumn(value_starts),
                              value_ids=IntColumn(value_ids),
                              encoder=encoder)


@contextmanager
def resident_groups(hosts: Union[Mapping[int, HostFeatures], HostFeatureColumns],
                    step_size: int = 16, executor: str = "serial",
                    num_workers: int = 0,
                    shard_count: int = 0) -> Iterator[ResidentHostGroups]:
    """Host groups resident on a runtime that lives for the ``with`` block."""
    columns = (hosts if isinstance(hosts, HostFeatureColumns)
               else host_feature_columns(hosts))
    with EngineRuntime(executor=executor, num_workers=num_workers,
                       shard_count=shard_count) as runtime:
        yield ResidentHostGroups(runtime, columns, step_size)
