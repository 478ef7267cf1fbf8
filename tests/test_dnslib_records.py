"""Tests for ResourceRecord and RRSet."""

import pytest

from repro.dnslib import (
    A,
    Name,
    ResourceRecord,
    RRClass,
    RRSet,
    RRType,
    WireReader,
    WireWriter,
    records_to_rrsets,
)


class TestResourceRecord:
    def test_wire_roundtrip(self):
        record = ResourceRecord("www.example.com", RRType.A, 300, A("1.2.3.4"))
        writer = WireWriter()
        record.to_wire(writer)
        decoded = ResourceRecord.from_wire(WireReader(writer.getvalue()))
        assert decoded == record

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord("a.b", RRType.A, -1, A("1.2.3.4"))

    def test_huge_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord("a.b", RRType.A, 2 ** 31, A("1.2.3.4"))

    def test_ttl_with_top_bit_set_decodes_as_zero(self):
        # RFC 2181 §8: such a TTL is treated as 0, not as a malformed RR.
        record = ResourceRecord("www.example.com", RRType.A, 300, A("1.2.3.4"))
        writer = WireWriter()
        record.to_wire(writer)
        wire = writer.getvalue()
        ttl_at = wire.index((300).to_bytes(4, "big"))
        patched = wire[:ttl_at] + (0x80000001).to_bytes(4, "big") + wire[ttl_at + 4:]
        decoded = ResourceRecord.from_wire(WireReader(patched))
        assert decoded.ttl == 0
        assert decoded.rdata == A("1.2.3.4")

    def test_to_text_fields(self):
        record = ResourceRecord("www.example.com", RRType.A, 60, A("1.2.3.4"))
        assert record.to_text() == "www.example.com. 60 IN A 1.2.3.4"

    def test_equality_includes_ttl(self):
        a = ResourceRecord("a.b", RRType.A, 60, A("1.2.3.4"))
        b = ResourceRecord("a.b", RRType.A, 61, A("1.2.3.4"))
        assert a != b


class TestRRSet:
    def test_add_deduplicates(self, a_rrset):
        rrset = a_rrset("www.x.com", 60, "1.1.1.1")
        assert not rrset.add(A("1.1.1.1"))
        assert len(rrset) == 1

    def test_add_wrong_type_rejected(self, a_rrset):
        from repro.dnslib import NS
        rrset = a_rrset("www.x.com", 60, "1.1.1.1")
        with pytest.raises(ValueError):
            rrset.add(NS("ns.x.com"))

    def test_discard(self, a_rrset):
        rrset = a_rrset("www.x.com", 60, "1.1.1.1", "2.2.2.2")
        assert rrset.discard(A("1.1.1.1"))
        assert not rrset.discard(A("9.9.9.9"))
        assert len(rrset) == 1

    def test_replace(self, a_rrset):
        rrset = a_rrset("www.x.com", 60, "1.1.1.1")
        rrset.replace([A("3.3.3.3"), A("4.4.4.4")])
        assert {r.address for r in rrset} == {"3.3.3.3", "4.4.4.4"}

    def test_rotate(self, a_rrset):
        rrset = a_rrset("www.x.com", 60, "1.1.1.1", "2.2.2.2", "3.3.3.3")
        first_before = rrset.rdatas[0]
        rrset.rotate()
        assert rrset.rdatas[0] != first_before
        assert len(rrset) == 3

    def test_rotation_preserves_equality(self, a_rrset):
        rrset = a_rrset("www.x.com", 60, "1.1.1.1", "2.2.2.2")
        other = rrset.copy()
        other.rotate()
        assert rrset == other  # order-insensitive equality

    def test_same_rdatas_order_insensitive(self, a_rrset):
        one = a_rrset("www.x.com", 60, "1.1.1.1", "2.2.2.2")
        two = a_rrset("www.x.com", 60, "2.2.2.2", "1.1.1.1")
        assert one.same_rdatas(two)

    def test_ttl_differs_means_unequal(self, a_rrset):
        one = a_rrset("www.x.com", 60, "1.1.1.1")
        two = a_rrset("www.x.com", 61, "1.1.1.1")
        assert one != two

    def test_to_records_shares_ttl(self, a_rrset):
        rrset = a_rrset("www.x.com", 60, "1.1.1.1", "2.2.2.2")
        records = rrset.to_records()
        assert all(r.ttl == 60 for r in records)
        assert len(records) == 2

    def test_copy_is_independent(self, a_rrset):
        rrset = a_rrset("www.x.com", 60, "1.1.1.1")
        clone = rrset.copy()
        clone.add(A("2.2.2.2"))
        assert len(rrset) == 1

    def test_contains(self, a_rrset):
        rrset = a_rrset("www.x.com", 60, "1.1.1.1")
        assert A("1.1.1.1") in rrset
        assert A("2.2.2.2") not in rrset


class TestGrouping:
    def test_records_to_rrsets_groups_by_key(self):
        records = [
            ResourceRecord("www.x.com", RRType.A, 60, A("1.1.1.1")),
            ResourceRecord("www.x.com", RRType.A, 60, A("2.2.2.2")),
            ResourceRecord("mail.x.com", RRType.A, 60, A("3.3.3.3")),
        ]
        sets = records_to_rrsets(records)
        assert len(sets) == 2
        assert len(sets[0]) == 2
        assert sets[1].name == Name.from_text("mail.x.com")

    def test_records_to_rrsets_preserves_order(self):
        records = [
            ResourceRecord("b.x.com", RRType.A, 60, A("1.1.1.1")),
            ResourceRecord("a.x.com", RRType.A, 60, A("2.2.2.2")),
        ]
        sets = records_to_rrsets(records)
        assert sets[0].name == Name.from_text("b.x.com")
