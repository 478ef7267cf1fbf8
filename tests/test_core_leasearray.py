"""More :class:`repro.core.LeaseTable` contract scenarios.

Renewal in place, re-grant after expiry, revocation, capacity refusal
until the incumbent expires, per-cache queries, no duplicate holder
after a sweep and re-grant, and the track file.
``tests/test_core_lease.py`` and the ``LeaseTableMachine`` in
``tests/test_stateful.py`` hold the rest of the contract.
"""

import pytest

from repro.core import LeaseTable, save_track_file
from repro.core.middleware import DNScupConfig
from repro.dnslib import Name, RRType

CACHE_A = ("10.2.0.1", 53)
CACHE_B = ("10.2.0.2", 53)


@pytest.fixture
def table():
    return LeaseTable()


class TestDropInBehaviour:
    """The LeaseTable unit contract, second set of scenarios."""

    def test_grant_and_holders(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        holders = table.holders("w.x.com", RRType.A, now=50.0)
        assert [h.cache for h in holders] == [CACHE_A]

    def test_expired_not_in_holders(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        assert table.holders("w.x.com", RRType.A, now=100.0) == []

    def test_renewal_updates_in_place(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        table.grant(CACHE_A, "w.x.com", RRType.A, now=50.0, length=100.0)
        assert len(table) == 1
        assert table.stats.renewals == 1
        assert table.get(CACHE_A, "w.x.com", RRType.A).expires_at == 150.0

    def test_regrant_after_expiry_counts_as_grant(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=10.0)
        table.grant(CACHE_A, "w.x.com", RRType.A, now=20.0, length=10.0)
        assert table.stats.grants == 2
        assert table.stats.renewals == 0
        assert table.stats.expirations == 1
        assert len(table) == 1

    def test_revoke_and_free_list_reuse(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        table.grant(CACHE_B, "y.x.com", RRType.A, now=0.0, length=100.0)
        assert table.revoke(CACHE_A, "w.x.com", RRType.A)
        assert not table.revoke(CACHE_A, "w.x.com", RRType.A)
        assert len(table) == 1
        # A revoked lease leaves nothing behind: a new grant takes its
        # place and the table holds exactly the two live leases.
        table.grant(CACHE_A, "z.x.com", RRType.A, now=1.0, length=50.0)
        assert len(table) == 2
        assert table.stats.revocations == 1
        assert set(table.tracked_records()) == {
            (Name.from_text("y.x.com"), RRType.A),
            (Name.from_text("z.x.com"), RRType.A)}

    def test_capacity_refusal_after_sweep(self):
        table = LeaseTable(capacity=1)
        assert table.grant(CACHE_A, "w.x.com", RRType.A, 0.0, 10.0)
        # Full, and the incumbent is still valid: refused.
        assert table.grant(CACHE_B, "w.x.com", RRType.A, 5.0, 10.0) is None
        # Once the incumbent expires, the emergency sweep frees the slot.
        assert table.grant(CACHE_B, "w.x.com", RRType.A, 10.0, 10.0)
        assert len(table) == 1

    def test_leases_of_and_tracked_records(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        table.grant(CACHE_A, "y.x.com", RRType.A, now=0.0, length=10.0)
        table.grant(CACHE_B, "w.x.com", RRType.A, now=0.0, length=100.0)
        held = table.leases_of(CACHE_A, now=50.0)
        assert [lease.name for lease in held] == [Name.from_text("w.x.com")]
        assert set(table.tracked_records()) == {
            (Name.from_text("w.x.com"), RRType.A),
            (Name.from_text("y.x.com"), RRType.A)}
        assert table.active_count(now=50.0) == 2
        assert table.active_count() == 3

    def test_no_duplicate_postings_after_slot_reuse(self, table):
        """A lease swept and re-granted to the same key appears once.

        holders()/leases_of() must report it exactly once; a duplicate
        would send the cache two CACHE-UPDATEs for one change.
        """
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=10.0)
        assert table.sweep(now=20.0) == 1
        table.grant(CACHE_A, "w.x.com", RRType.A, now=20.0, length=10.0)
        holders = table.holders("w.x.com", RRType.A, now=25.0)
        assert [h.cache for h in holders] == [CACHE_A]
        held = table.leases_of(CACHE_A, now=25.0)
        assert [lease.name for lease in held] == [Name.from_text("w.x.com")]
        assert len(table) == 1

    def test_sweep_removes_expired(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=10.0)
        table.grant(CACHE_B, "w.x.com", RRType.A, now=0.0, length=100.0)
        assert table.sweep(now=50.0) == 1
        assert len(table) == 1
        assert table.stats.expirations == 1

    def test_track_file_round_trip(self, table, tmp_path):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=3.0, length=7.0)
        table.grant(CACHE_B, "y.x.com", RRType.A, now=4.0, length=8.0)
        path = tmp_path / "track"
        assert save_track_file(table, str(path)) == 2
        text = path.read_text()
        assert "10.2.0.1 53 w.x.com. A 3.0 7.0" in text

    def test_rejects_nonpositive_length(self, table):
        with pytest.raises(ValueError):
            table.grant(CACHE_A, "w.x.com", RRType.A, 0.0, 0.0)


class TestMiddlewareBackendKnob:
    def test_unknown_backend_rejected(self):
        # There is one lease table; the config has no backend selector.
        with pytest.raises(TypeError):
            DNScupConfig(lease_table_backend="bogus")
