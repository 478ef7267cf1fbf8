"""The wire codec against its golden corpus (see ``tests/codec_corpus.py``).

The fixture was recorded from the codec before it was rewritten for
speed.  Every entry must come out the same: identical encoder bytes for
each factory message, identical re-encoded bytes and section dump for
every input that decodes, and the same exception class for every input
that does not.  The one intended difference is RFC 2181 §8: a TTL with
its most significant bit set used to reject the whole message and now
decodes as TTL 0.  Those entries are listed by name below.
"""

import json
import os

import pytest

from tests.codec_corpus import base_messages, corpus

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "codec_golden.json")

#: Entries whose only change is a TTL with the top bit set decoding as 0.
TTL_MSB_ENTRIES = frozenset({
    "response_ttl_msb",
    "response_llt/flip@57^0xff",
    "response_llt/flip@75^0xff",
    "response_llt/flip@157^0x80",
    "response_cname/flip@39^0xff",
    "response_cname/flip@93^0xff",
    "response_cname/flip@109^0x80",
    "response_nxdomain/flip@43^0x80",
    "response_mx_txt/flip@67^0x80",
    "cache_update/flip@57^0xff",
    "update/flip@39^0xff",
    "update/flip@51^0xff",
    "update/flip@63^0xff",
})


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="ascii") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current():
    return corpus()


def test_same_entries_in_same_order(golden, current):
    assert list(current) == list(golden)


@pytest.mark.parametrize("name", [name for name, _ in base_messages()])
def test_encoder_bytes_unchanged(golden, name):
    assert dict(base_messages())[name].hex() == golden[name]["input"]


def test_every_entry_matches(golden, current):
    mismatched = []
    for name, expected in golden.items():
        if name in TTL_MSB_ENTRIES:
            continue
        got = current[name]
        if "error" in expected:
            same = got.get("error") == expected["error"]
        else:
            same = (got.get("wire"), got.get("dump")) == \
                (expected["wire"], expected["dump"])
        if not same:
            mismatched.append((name, expected, got))
    assert not mismatched, mismatched[:5]


def test_ttl_msb_entries_now_decode_with_ttl_zero(golden, current):
    for name in sorted(TTL_MSB_ENTRIES):
        assert golden[name]["error"] == "ValueError"
        assert golden[name]["detail"].startswith("TTL out of range")
        got = current[name]
        assert "error" not in got, (name, got)
        ttls = [int(line.split()[2]) for line in got["dump"]
                if line.split()[0] in ("an", "ns", "ar")]
        assert 0 in ttls and all(ttl <= 0x7FFFFFFF for ttl in ttls), (name, ttls)
