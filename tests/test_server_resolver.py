"""Tests for the recursive resolver (the local nameserver / DNS cache)."""

import pytest

from repro.dnslib import (
    A,
    CNAME,
    Message,
    Name,
    NS,
    Rcode,
    ResourceRecord,
    RRSet,
    RRType,
    SOA,
    make_cache_update,
    make_query,
    make_response,
)
from repro.net import LinkProfile, RetryPolicy
from repro.server import AuthoritativeServer, RecursiveResolver, ResolverCache
from repro.zone import Zone, load_zone


ROOT_TEXT = """\
$ORIGIN .
$TTL 86400
.                  IN SOA a.root. admin.root. 1 7200 900 604800 300
.                  IN NS a.root.
a.root.            IN A  198.41.0.4
example.com.       IN NS ns1.example.com.
ns1.example.com.   IN A  10.1.0.1
glueless.com.      IN NS ns1.example.com.
"""

AUTH_TEXT = """\
$ORIGIN example.com.
$TTL 3600
@     IN SOA ns1 admin 1 7200 900 604800 300
@     IN NS  ns1
ns1   IN A   10.1.0.1
www   IN A   10.0.0.10
alias IN CNAME www
ext   IN CNAME target.glueless.com.
"""

GLUELESS_TEXT = """\
$ORIGIN glueless.com.
$TTL 3600
@      IN SOA ns1.example.com. admin 1 7200 900 604800 300
@      IN NS  ns1.example.com.
target IN A   172.16.0.50
"""


@pytest.fixture
def world(make_host, simulator):
    """Root + one auth server serving two zones + a resolver."""
    root_host = make_host("198.41.0.4")
    auth_host = make_host("10.1.0.1")
    resolver_host = make_host("10.2.0.1")
    root = AuthoritativeServer(root_host,
                               [load_zone(ROOT_TEXT, origin=Name.root())])
    auth = AuthoritativeServer(auth_host, [load_zone(AUTH_TEXT),
                                           load_zone(GLUELESS_TEXT)])
    resolver = RecursiveResolver(resolver_host, [("198.41.0.4", 53)],
                                 cache=ResolverCache())
    return root, auth, resolver, simulator


def resolve(resolver, simulator, name, rrtype=RRType.A):
    results = []
    resolver.resolve(name, rrtype, lambda recs, rc: results.append((recs, rc)))
    simulator.run()
    assert results, "resolution never completed"
    return results[0]


class TestIterativeResolution:
    def test_follows_referral_from_root(self, world):
        root, auth, resolver, simulator = world
        records, rcode = resolve(resolver, simulator, "www.example.com")
        assert rcode == Rcode.NOERROR
        assert any(r.rdata == A("10.0.0.10") for r in records)
        assert root.stats.referrals == 1
        assert auth.stats.answers == 1

    def test_answer_cached_second_lookup_local(self, world):
        _, auth, resolver, simulator = world
        resolve(resolver, simulator, "www.example.com")
        upstream_before = resolver.stats.upstream_queries
        records, rcode = resolve(resolver, simulator, "www.example.com")
        assert rcode == Rcode.NOERROR and records
        assert resolver.stats.upstream_queries == upstream_before
        assert resolver.stats.cache_answers == 1

    def test_cached_ttl_decays(self, world):
        _, _, resolver, simulator = world
        resolve(resolver, simulator, "www.example.com")
        simulator.run_until(simulator.now + 100.0)
        records, _ = resolve(resolver, simulator, "www.example.com")
        a_records = [r for r in records if r.rrtype == RRType.A]
        assert a_records[0].ttl <= 3600 - 100

    def test_expired_entry_refetched(self, world):
        _, auth, resolver, simulator = world
        resolve(resolver, simulator, "www.example.com")
        simulator.run_until(simulator.now + 4000.0)  # past TTL 3600
        resolve(resolver, simulator, "www.example.com")
        assert auth.stats.queries >= 2

    def test_nxdomain_negative_cached(self, world):
        _, auth, resolver, simulator = world
        _, rcode = resolve(resolver, simulator, "missing.example.com")
        assert rcode == Rcode.NXDOMAIN
        queries_before = auth.stats.queries
        _, rcode2 = resolve(resolver, simulator, "missing.example.com")
        assert rcode2 == Rcode.NXDOMAIN
        assert auth.stats.queries == queries_before

    def test_nodata_negative_cached(self, world):
        _, auth, resolver, simulator = world
        records, rcode = resolve(resolver, simulator, "www.example.com",
                                 RRType.MX)
        assert rcode == Rcode.NOERROR and not records

    def test_cname_within_zone(self, world):
        _, _, resolver, simulator = world
        records, rcode = resolve(resolver, simulator, "alias.example.com")
        assert rcode == Rcode.NOERROR
        assert any(r.rrtype == RRType.CNAME for r in records)
        assert any(r.rdata == A("10.0.0.10") for r in records)

    def test_cname_across_zones(self, world):
        _, _, resolver, simulator = world
        records, rcode = resolve(resolver, simulator, "ext.example.com")
        assert rcode == Rcode.NOERROR
        assert any(r.rrtype == RRType.A and r.rdata == A("172.16.0.50")
                   for r in records)

    def test_glueless_delegation_resolved(self, world):
        _, _, resolver, simulator = world
        records, rcode = resolve(resolver, simulator, "target.glueless.com")
        assert rcode == Rcode.NOERROR
        assert any(r.rdata == A("172.16.0.50") for r in records)

    def test_unreachable_root_fails_servfail(self, make_host, simulator):
        resolver = RecursiveResolver(
            make_host("10.2.0.2"), [("203.0.113.1", 53)],
            retry=RetryPolicy(initial_timeout=0.2, max_attempts=2))
        records, rcode = resolve(resolver, simulator, "www.example.com")
        assert rcode == Rcode.SERVFAIL and not records

    def test_requires_root_hint(self, make_host):
        with pytest.raises(ValueError):
            RecursiveResolver(make_host("10.2.0.3"), [])


class TestRfc2181Ttl:
    def test_answer_with_top_bit_ttl_is_used_with_ttl_zero(self, make_host,
                                                            simulator):
        """A TTL with its top bit set reads as 0 instead of dropping the
        response as malformed (RFC 2181 §8), so the resolver answers
        from it rather than failing over."""
        server = make_host("198.41.0.4").dns_socket()

        def answer(payload, src, dst):
            query = Message.from_wire(payload)
            response = make_response(query)
            response.authoritative = True
            response.answer.append(ResourceRecord(
                query.question[0].name, RRType.A, 300, A("192.0.2.1")))
            wire = response.to_wire()
            ttl_at = wire.rindex((300).to_bytes(4, "big") + b"\x00\x04")
            server.send(wire[:ttl_at] + (0x80000001).to_bytes(4, "big")
                        + wire[ttl_at + 4:], src)

        server.on_receive(answer)
        resolver = RecursiveResolver(make_host("10.2.0.1"), [("198.41.0.4", 53)],
                                     cache=ResolverCache())
        records, rcode = resolve(resolver, simulator, "www.example.com")
        assert rcode == Rcode.NOERROR
        assert [(r.rdata, r.ttl) for r in records] == [(A("192.0.2.1"), 0)]
        assert resolver.stats.upstream_queries == 1
        assert resolver.stats.resolutions_failed == 0


class TestClientService:
    def test_serves_stub_queries_on_port_53(self, world, make_host):
        _, _, resolver, simulator = world
        client = make_host("10.3.0.1").socket()
        query = make_query("www.example.com", RRType.A,
                           recursion_desired=True)
        responses = []
        client.request(query.to_wire(), ("10.2.0.1", 53), query.id,
                       lambda p, s: responses.append(p))
        simulator.run()
        response = Message.from_wire(responses[0])
        assert response.recursion_available
        assert any(r.rdata == A("10.0.0.10") for r in response.answer)

    def test_multi_question_client_query_formerr(self, world, make_host):
        _, _, resolver, simulator = world
        client = make_host("10.3.0.2").socket()
        query = make_query("www.example.com", RRType.A)
        query.question.append(query.question[0])
        responses = []
        client.request(query.to_wire(), ("10.2.0.1", 53), query.id,
                       lambda p, s: responses.append(p))
        simulator.run()
        assert Message.from_wire(responses[0]).rcode == Rcode.FORMERR


class TestDnscupClientSide:
    @pytest.fixture
    def cup_world(self, make_host, simulator):
        root_host = make_host("198.41.0.4")
        auth_host = make_host("10.1.0.1")
        resolver_host = make_host("10.2.0.1")
        root = AuthoritativeServer(root_host,
                                   [load_zone(ROOT_TEXT, origin=Name.root())])
        auth = AuthoritativeServer(auth_host, [load_zone(AUTH_TEXT)])

        def grant(query, src, response):
            if query.cache_update_aware and response.answer:
                response.llt = 500

        auth.query_hooks.append(grant)
        resolver = RecursiveResolver(resolver_host, [("198.41.0.4", 53)],
                                     dnscup_enabled=True)
        return auth, resolver, simulator

    def test_outgoing_queries_carry_rrc(self, cup_world):
        auth, resolver, simulator = cup_world
        seen = []
        auth.query_hooks.append(
            lambda q, src, r: seen.append(q.question[0].rrc))
        resolve(resolver, simulator, "www.example.com")
        assert seen and seen[0] is not None

    def test_lease_recorded_on_cache_entry(self, cup_world):
        auth, resolver, simulator = cup_world
        resolve(resolver, simulator, "www.example.com")
        entry = resolver.cache.peek("www.example.com", RRType.A)
        assert entry.lease_until == pytest.approx(simulator.now + 500, abs=1.0)
        assert resolver.stats.leases_received == 1
        grant = resolver.lease_grants[(Name.from_text("www.example.com"),
                                       RRType.A)]
        assert grant.origin == ("10.1.0.1", 53)
        assert grant.llt == 500.0

    def test_cache_update_applied_and_acked(self, cup_world, make_host):
        auth, resolver, simulator = cup_world
        resolve(resolver, simulator, "www.example.com")
        pusher = make_host("10.1.0.1").socket(5353)  # same addr, spare port
        update = make_cache_update(
            "www.example.com",
            [ResourceRecord("www.example.com", RRType.A, 3600, A("9.9.9.9"))])
        acks = []
        pusher.request(update.to_wire(), ("10.2.0.1", 53), update.id,
                       lambda p, s: acks.append(p))
        simulator.run()
        assert acks and acks[0] is not None
        entry = resolver.cache.peek("www.example.com", RRType.A)
        assert entry.rrset.rdatas == (A("9.9.9.9"),)
        assert resolver.stats.cache_updates_received == 1
        assert resolver.stats.cache_updates_acked == 1

    def test_cache_update_for_unknown_record_acked_but_ignored(
            self, cup_world, make_host):
        auth, resolver, simulator = cup_world
        pusher = make_host("10.1.0.2").socket(5353)
        update = make_cache_update(
            "never-seen.example.com",
            [ResourceRecord("never-seen.example.com", RRType.A, 60,
                            A("9.9.9.9"))])
        acks = []
        pusher.request(update.to_wire(), ("10.2.0.1", 53), update.id,
                       lambda p, s: acks.append(p))
        simulator.run()
        assert acks and acks[0] is not None
        assert resolver.stats.cache_updates_ignored == 1
        assert resolver.cache.peek("never-seen.example.com", RRType.A) is None

    def test_leased_entry_served_past_ttl(self, cup_world):
        """Strong-consistency absorption: no upstream refetch while leased."""
        auth, resolver, simulator = cup_world
        resolve(resolver, simulator, "www.example.com")
        # TTL is 3600 but lease is 500: at t+400 the entry is TTL-valid
        # anyway; shrink TTL by direct cache surgery to isolate the lease.
        entry = resolver.cache.peek("www.example.com", RRType.A)
        entry.expires_at = simulator.now + 10.0
        simulator.run_until(simulator.now + 100.0)
        queries_before = auth.stats.queries
        records, rcode = resolve(resolver, simulator, "www.example.com")
        assert rcode == Rcode.NOERROR and records
        assert auth.stats.queries == queries_before
