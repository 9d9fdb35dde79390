"""Unit tests for repro.net.asn."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.asn import AsnDatabase, AsnRecord
from repro.net.ipv4 import IPv4Error, parse_ip, prefix_of


def _record(cidr_base: str, length: int, asn: int, name: str = "") -> AsnRecord:
    return AsnRecord(base=parse_ip(cidr_base), prefix_len=length, asn=asn, name=name)


class TestAsnRecord:
    def test_contains(self):
        record = _record("10.1.0.0", 16, 65001)
        assert record.contains(parse_ip("10.1.255.255"))
        assert not record.contains(parse_ip("10.2.0.0"))

    def test_cidr_rendering(self):
        assert _record("10.1.0.0", 16, 65001).cidr() == "10.1.0.0/16"


class TestAsnDatabase:
    def test_lookup_and_asn_of(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001, "One"),
                          _record("10.2.0.0", 16, 65002, "Two")])
        assert db.asn_of(parse_ip("10.1.4.5")) == 65001
        assert db.asn_of(parse_ip("10.2.4.5")) == 65002

    def test_unannounced_address_returns_default(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001)])
        assert db.asn_of(parse_ip("192.168.0.1")) == 0
        assert db.asn_of(parse_ip("192.168.0.1"), default=-1) == -1

    def test_longest_prefix_match_wins(self):
        db = AsnDatabase([
            _record("10.0.0.0", 8, 65000, "Coarse"),
            _record("10.1.0.0", 16, 65001, "Fine"),
        ])
        assert db.asn_of(parse_ip("10.1.2.3")) == 65001
        assert db.asn_of(parse_ip("10.200.2.3")) == 65000

    def test_duplicate_announcement_rejected(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001)])
        with pytest.raises(ValueError):
            db.add(_record("10.1.0.0", 16, 65099))

    def test_invalid_prefix_length_rejected(self):
        db = AsnDatabase()
        with pytest.raises(IPv4Error):
            db.add(AsnRecord(base=0, prefix_len=40, asn=1))

    def test_name_lookup(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001, "Distributel Network")])
        assert db.name_of(65001) == "Distributel Network"
        assert db.name_of(12345) == ""

    def test_records_and_len(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001),
                          _record("10.0.0.0", 8, 65000)])
        assert len(db) == 2
        lengths = [record.prefix_len for record in db.records()]
        assert lengths == sorted(lengths, reverse=True)


#: Announcements inside 10.0.0.0/16 (plus the odd /0-/8 covering prefix), so
#: prefixes of different lengths nest often; unique per (prefix, length).
_NEAR = st.integers(0, 0xFFFF).map(lambda low: 0x0A000000 | low)
_announcements = st.lists(
    st.tuples(_NEAR, st.sampled_from((0, 4, 8, 12, 16, 20, 24, 28, 31, 32))),
    max_size=25,
    unique_by=lambda item: (prefix_of(item[0], item[1]), item[1]),
).map(lambda items: [AsnRecord(base=base, prefix_len=length, asn=index + 1)
                     for index, (base, length) in enumerate(items)])


def _most_specific(records, ip):
    """The plain longest-prefix match: the longest announcement holding ip."""
    holding = [record for record in records if record.contains(ip)]
    return max(holding, key=lambda record: record.prefix_len, default=None)


class TestLongestPrefixMatchAnyOrder:
    """Lookups do not depend on the order announcements were added in,
    including when a shorter prefix arrives after a longer one."""

    @settings(max_examples=60, deadline=None)
    @given(records=_announcements, order=st.randoms(use_true_random=False),
           queries=st.lists(st.one_of(_NEAR, st.integers(0, 2 ** 32 - 1)),
                            min_size=1, max_size=20))
    def test_lookup_matches_plain_longest_prefix_match(self, records, order,
                                                       queries):
        shuffled = list(records)
        order.shuffle(shuffled)
        db = AsnDatabase(records[:len(records) // 2])
        for record in records[len(records) // 2:]:
            db.add(record)
        other = AsnDatabase(shuffled)
        for ip in queries + [record.base for record in records]:
            expected = _most_specific(records, ip)
            assert db.lookup(ip) == expected
            assert other.lookup(ip) == expected
        assert ([record.prefix_len for record in other.records()]
                == sorted((record.prefix_len for record in records),
                          reverse=True))

    def test_shorter_prefix_added_last_does_not_shadow(self):
        db = AsnDatabase([_record("10.1.2.0", 24, 65024)])
        db.add(_record("10.1.0.0", 16, 65016))
        db.add(_record("10.0.0.0", 8, 65008))
        db.add(_record("10.1.2.128", 25, 65025))
        assert db.asn_of(parse_ip("10.1.2.200")) == 65025
        assert db.asn_of(parse_ip("10.1.2.3")) == 65024
        assert db.asn_of(parse_ip("10.1.9.9")) == 65016
        assert db.asn_of(parse_ip("10.9.9.9")) == 65008


class TestUniverseAsnDatabase:
    def test_every_host_is_announced(self, universe):
        db = universe.topology.asn_db
        sample = universe.all_ips()[:200]
        assert all(db.asn_of(ip) != 0 for ip in sample)

    def test_host_asn_matches_database(self, universe):
        db = universe.topology.asn_db
        for ip in universe.all_ips()[:200]:
            assert universe.hosts[ip].asn == db.asn_of(ip)
