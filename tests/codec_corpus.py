"""Golden corpus for the wire codec (``Message.to_wire`` / ``from_wire``).

The corpus is a fixed list of messages built through every message
factory, every truncation and one deterministic bit-flip per octet of
each, and a few hand-built malformed inputs.  :func:`corpus` describes
what the codec does with each input: the re-encoded bytes and a section
dump when the input decodes, or the exception class when it does not.  The recorded answers live in
``tests/fixtures/codec_golden.json`` and ``tests/test_codec_golden.py``
checks the current codec against them entry for entry.

Regenerate the fixture (only when a codec change is *meant* to change
observable behaviour, and say why in the commit)::

    PYTHONPATH=src python -m tests.codec_corpus tests/fixtures/codec_golden.json
"""

from __future__ import annotations

import json
import struct
import sys
from typing import Dict, List, Tuple

from repro.dnslib import (
    A,
    AAAA,
    CNAME,
    EmptyRdata,
    MX,
    NS,
    PTR,
    SOA,
    SRV,
    TXT,
    Message,
    Rcode,
    ResourceRecord,
    RRClass,
    RRType,
    make_cache_update,
    make_cache_update_ack,
    make_notify,
    make_query,
    make_response,
    make_update,
    truncate_response,
)

#: XOR masks for the bit-flip mutants, chosen by octet position.
FLIP_MASKS = (0x01, 0x80, 0x40, 0xFF, 0x20, 0x08)

#: Answer TTL with the most significant bit set (RFC 2181 §8).
TTL_MSB = 0x80000001


def base_messages() -> List[Tuple[str, bytes]]:
    """``(name, wire)`` for every base message, all with fixed IDs."""
    out: List[Tuple[str, Message]] = []

    query_plain = make_query("www.example.com", RRType.A)
    query_plain.id = 0x1001
    out.append(("query_plain", query_plain))

    query_rrc = make_query("www.Example.COM", RRType.A, rrc=7)
    query_rrc.id = 0x1002
    out.append(("query_rrc", query_rrc))

    query_norec = make_query("example.com", RRType.NS, recursion_desired=False)
    query_norec.id = 0x1003
    out.append(("query_norec", query_norec))

    query_edns = make_query("host.example.org", RRType.AAAA, rrc=65535)
    query_edns.id = 0x1004
    query_edns.edns_payload_size = 1232
    out.append(("query_edns", query_edns))

    # A DNScup response: lease granted, referral-style authority + glue,
    # owner names spelled in two cases so compression sees both.
    response_llt = make_response(query_rrc, llt=300)
    response_llt.authoritative = True
    response_llt.answer += [
        ResourceRecord("www.Example.COM", RRType.A, 60, A("10.0.0.10")),
        ResourceRecord("www.example.com", RRType.A, 60, A("10.0.0.11")),
    ]
    response_llt.authority += [
        ResourceRecord("example.com", RRType.NS, 3600, NS("ns1.example.com")),
        ResourceRecord("EXAMPLE.com", RRType.NS, 3600, NS("NS2.Example.com")),
    ]
    response_llt.additional += [
        ResourceRecord("ns1.example.com", RRType.A, 3600, A("10.0.0.1")),
        ResourceRecord("NS2.Example.com", RRType.A, 3600, A("10.0.0.2")),
    ]
    out.append(("response_llt", response_llt))

    response_cname = make_response(query_plain)
    response_cname.recursion_available = True
    response_cname.answer += [
        ResourceRecord("www.example.com", RRType.CNAME, 300, CNAME("Edge.CDN.example.net")),
        ResourceRecord("Edge.CDN.example.net", RRType.A, 20, A("192.0.2.7")),
        ResourceRecord("edge.cdn.example.net", RRType.A, 20, A("255.0.0.1")),
    ]
    out.append(("response_cname", response_cname))

    response_edns = make_response(query_edns, llt=6000)
    response_edns.answer += [
        ResourceRecord("host.example.org", RRType.AAAA, 120, AAAA("2001:db8::1")),
        ResourceRecord("host.example.org", RRType.AAAA, 120,
            AAAA("2001:db8:0:0:1:0:0:ff")),
    ]
    response_edns.edns_payload_size = 4096
    out.append(("response_edns", response_edns))

    nx_query = make_query("missing.example.com", RRType.A)
    nx_query.id = 0x1005
    response_nx = make_response(nx_query, Rcode.NXDOMAIN)
    response_nx.authority.append(ResourceRecord(
        "example.com", RRType.SOA, 300,
        SOA("ns1.example.com", "admin.example.com", 2006070101,
            7200, 900, 604800, 300)))
    out.append(("response_nxdomain", response_nx))

    mx_query = make_query("example.com", RRType.MX)
    mx_query.id = 0x1006
    response_mx = make_response(mx_query)
    response_mx.answer += [
        ResourceRecord("example.com", RRType.MX, 3600, MX(10, "mail.example.com")),
        ResourceRecord("example.com", RRType.MX, 3600, MX(20, "Mail2.Example.com")),
        ResourceRecord("example.com", RRType.TXT, 3600, TXT(["v=spf1 -all", "hello world"])),
        ResourceRecord("_sip._udp.example.com", RRType.SRV, 60,
            SRV(1, 5, 5060, "sip.example.com")),
        ResourceRecord("7.2.0.192.in-addr.arpa", RRType.PTR, 60, PTR("www.example.com")),
    ]
    out.append(("response_mx_txt", response_mx))

    cache_update = make_cache_update("www.example.com", [
        ResourceRecord("www.example.com", RRType.A, 60, A("9.9.9.9")),
        ResourceRecord("www.example.com", RRType.A, 60, A("9.9.9.10")),
    ])
    cache_update.id = 0x1007
    out.append(("cache_update", cache_update))

    out.append(("cache_update_ack", make_cache_update_ack(cache_update)))

    update = make_update("example.com")
    update.id = 0x1008
    update.prerequisite.append(ResourceRecord("www.example.com", RRType.A, 0,
                                   EmptyRdata(RRType.A), RRClass.ANY))
    update.update.extend([
        ResourceRecord("www.example.com", RRType.A, 0, EmptyRdata(RRType.A), RRClass.ANY),
        ResourceRecord("www.example.com", RRType.A, 300, A("10.0.0.99")),
        ResourceRecord("old.example.com", RRType.A, 0, A("10.0.0.98"), RRClass.NONE),
    ])
    out.append(("update", update))

    notify = make_notify("example.com")
    notify.id = 0x1009
    out.append(("notify", notify))

    out.append(("truncated_stub", truncate_response(response_llt)))

    return [(name, message.to_wire()) for name, message in out]


def crafted_inputs(base: Dict[str, bytes]) -> List[Tuple[str, bytes]]:
    """Hand-built malformed inputs that no mutant of a base message hits."""
    plain = base["response_cname"]
    # Header, question (www.example.com: 17 octets, type, class), then the
    # first answer's owner pointer, type and class.
    ttl_at = 12 + 17 + 4 + 2 + 4
    assert plain[ttl_at:ttl_at + 4] == (300).to_bytes(4, "big")

    def header(flags: int = 0, qd: int = 0, an: int = 0, ar: int = 0) -> bytes:
        return struct.pack("!HHHHHH", 0x2001, flags, qd, an, 0, ar)

    return [
        # RFC 2181 §8: an answer TTL with its top bit set.
        ("response_ttl_msb",
         plain[:ttl_at] + TTL_MSB.to_bytes(4, "big") + plain[ttl_at + 4:]),
        # A fixed-field group cut short after an unknown TYPE or CLASS:
        # the unknown value is reported ahead of the truncation ...
        ("short_question_unknown_type", header(qd=1) + b"\x03www\x00\x00\x03"),
        ("short_question_unknown_class",
         header(flags=0x0040, qd=1) + b"\x03www\x00\x00\x01\x00\x02"),
        ("short_record_unknown_type", header(an=1) + b"\x00\x00\x03\x00\x01"),
        ("short_additional_unknown_class", header(ar=1) + b"\x00\x00\x01\x00\x02"),
        # ... except on an OPT pseudo-record, whose CLASS is a payload size.
        ("short_opt_record", header(ar=1) + b"\x00\x00\x29\x00\x02"),
    ]


def mutants(name: str, wire: bytes) -> List[Tuple[str, bytes]]:
    """Every proper prefix of ``wire`` and one bit-flip per octet."""
    out = [(f"{name}/cut@{cut}", wire[:cut]) for cut in range(len(wire))]
    for position in range(len(wire)):
        mask = FLIP_MASKS[position % len(FLIP_MASKS)]
        flipped = bytearray(wire)
        flipped[position] ^= mask
        out.append((f"{name}/flip@{position}^{mask:#04x}", bytes(flipped)))
    return out


def dump(message: Message) -> List[str]:
    """One line per header field group and per section entry, spelling kept."""
    lines = [f"header id={message.id} flags={message.flags:#06x} "
             f"rcode={message.rcode_value.name} "
             f"llt={message.llt} edns={message.edns_payload_size}"]
    for question in message.question:
        lines.append(f"qd {question.name.to_text()} {question.rrtype.name} "
                     f"{question.rrclass.name} rrc={question.rrc}")
    for tag, section in (("an", message.answer), ("ns", message.authority),
                         ("ar", message.additional)):
        for record in section:
            lines.append(f"{tag} {record.name.to_text()} {record.ttl} "
                         f"{record.rrclass.name} {record.rrtype.name} "
                         f"{type(record.rdata).__name__} {record.rdata._key()!r}")
    return lines


def describe(wire: bytes) -> Dict[str, object]:
    """What the codec does with ``wire``: decode + re-encode, or the error."""
    try:
        message = Message.from_wire(wire)
    except Exception as exc:  # the class is the recorded outcome
        return {"error": type(exc).__name__, "detail": str(exc)}
    return {"wire": message.to_wire().hex(), "dump": dump(message)}


def corpus() -> Dict[str, Dict[str, object]]:
    """Every corpus entry, keyed by name, in a stable order."""
    entries: Dict[str, Dict[str, object]] = {}
    base = base_messages()
    inputs = [(name, wire, True) for name, wire in base]
    inputs += [(name, wire, False) for name, wire in crafted_inputs(dict(base))]
    for name, wire, with_mutants in inputs:
        entry = describe(wire)
        entry["input"] = wire.hex()
        entries[name] = entry
        if with_mutants:
            for mutant_name, mutant in mutants(name, wire):
                entries[mutant_name] = describe(mutant)
    return entries


def main(argv: List[str]) -> int:
    (path,) = argv
    entries = corpus()
    with open(path, "w", encoding="ascii") as handle:
        # One entry per line keeps fixture diffs reviewable.
        handle.write("{\n")
        handle.write(",\n".join(f"{json.dumps(name)}: {json.dumps(entry)}"
                                 for name, entry in entries.items()))
        handle.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
