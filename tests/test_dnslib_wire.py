"""Tests for the wire reader/writer and name compression."""

import pytest

from repro.dnslib import (
    A,
    Message,
    Name,
    ResourceRecord,
    RRType,
    WireFormatError,
    WireReader,
    WireWriter,
    make_query,
    make_response,
    wire,
)


class TestPrimitives:
    def test_u8_roundtrip(self):
        writer = WireWriter()
        writer.write_u8(0xAB)
        assert WireReader(writer.getvalue()).read_u8() == 0xAB

    def test_u16_roundtrip(self):
        writer = WireWriter()
        writer.write_u16(0xBEEF)
        assert WireReader(writer.getvalue()).read_u16() == 0xBEEF

    def test_u32_roundtrip(self):
        writer = WireWriter()
        writer.write_u32(0xDEADBEEF)
        assert WireReader(writer.getvalue()).read_u32() == 0xDEADBEEF

    def test_string_roundtrip(self):
        writer = WireWriter()
        writer.write_string(b"hello")
        assert WireReader(writer.getvalue()).read_string() == b"hello"

    def test_string_over_255_rejected(self):
        writer = WireWriter()
        with pytest.raises(WireFormatError):
            writer.write_string(b"x" * 256)

    def test_truncated_read_raises(self):
        reader = WireReader(b"\x00")
        with pytest.raises(WireFormatError):
            reader.read_u16()

    def test_remaining_and_seek(self):
        reader = WireReader(b"\x01\x02\x03")
        assert reader.remaining == 3
        reader.read_u8()
        assert reader.remaining == 2
        reader.seek(0)
        assert reader.remaining == 3

    def test_seek_out_of_range(self):
        with pytest.raises(WireFormatError):
            WireReader(b"ab").seek(5)


class TestNames:
    def roundtrip(self, *names, compress=True):
        writer = WireWriter(compress=compress)
        for name in names:
            writer.write_name(Name.from_text(name))
        data = writer.getvalue()
        reader = WireReader(data)
        decoded = [reader.read_name() for _ in names]
        assert [d.to_text() for d in decoded] == \
            [Name.from_text(n).to_text() for n in names]
        return data

    def test_root_roundtrip(self):
        writer = WireWriter()
        writer.write_name(Name.root())
        assert writer.getvalue() == b"\x00"

    def test_simple_roundtrip(self):
        self.roundtrip("www.example.com")

    def test_compression_reuses_suffix(self):
        data = self.roundtrip("www.example.com", "mail.example.com")
        # The second name should be 'mail' label (5) + 2-byte pointer = 7,
        # versus 18 uncompressed.
        uncompressed = self.roundtrip("www.example.com", "mail.example.com",
                                      compress=False)
        assert len(data) < len(uncompressed)
        assert len(data) == 17 + 5 + 2

    def test_full_name_pointer(self):
        data = self.roundtrip("example.com", "example.com")
        assert len(data) == 13 + 2  # second occurrence is one pointer

    def test_compression_case_insensitive(self):
        """Differently-cased suffixes share one pointer target.

        The decoded second name inherits the first occurrence's spelling
        (as real compressing servers do), so compare Name equality —
        which is case-insensitive — rather than text.
        """
        writer = WireWriter()
        writer.write_name(Name.from_text("www.EXAMPLE.com"))
        writer.write_name(Name.from_text("mail.example.COM"))
        data = writer.getvalue()
        assert len(data) < 2 * 17
        reader = WireReader(data)
        assert reader.read_name() == Name.from_text("www.example.com")
        assert reader.read_name() == Name.from_text("mail.example.com")

    def test_no_compression_when_disabled(self):
        data = self.roundtrip("a.b", "a.b", compress=False)
        assert len(data) == 2 * Name.from_text("a.b").wire_length()

    def test_pointer_loop_rejected(self):
        # A pointer pointing at itself.
        data = b"\xc0\x00"
        with pytest.raises(WireFormatError):
            WireReader(data).read_name()

    def test_forward_pointer_rejected(self):
        # Pointer to offset 2 from offset 0 (forward).
        data = b"\xc0\x02\x01a\x00"
        with pytest.raises(WireFormatError):
            WireReader(data).read_name()

    def test_bad_label_tag_rejected(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x80abc").read_name()

    def test_label_past_end_rejected(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x05ab").read_name()

    def test_reader_position_after_pointer(self):
        """After a compressed name the cursor must resume after the pointer."""
        writer = WireWriter()
        writer.write_name(Name.from_text("example.com"))
        writer.write_name(Name.from_text("example.com"))
        writer.write_u16(0x1234)
        reader = WireReader(writer.getvalue())
        reader.read_name()
        reader.read_name()
        assert reader.read_u16() == 0x1234

    def test_deep_chain_roundtrip(self):
        names = [f"h{i}.deep.example.org" for i in range(20)]
        self.roundtrip(*names)


def _encode_name(text: str, compress: bool = True) -> bytes:
    writer = WireWriter(compress=compress)
    writer.write_name(Name.from_text(text))
    return writer.getvalue()


class TestCodecCaches:
    """The decode intern table and the encoder's label-chunk cache."""

    def test_intern_table_stays_within_cap(self):
        for i in range(wire.NAME_INTERN_CAP + 50):
            name = WireReader(_encode_name(f"h{i}.cap.example")).read_name()
            assert name.labels == (f"h{i}", "cap", "example")
            assert len(wire._DECODED_NAMES) <= wire.NAME_INTERN_CAP

    def test_label_cache_stays_within_cap(self):
        for i in range(wire.LABEL_CACHE_CAP + 50):
            encoded = _encode_name(f"h{i}.cap.example")
            assert WireReader(encoded).read_name() == Name.from_text(f"h{i}.cap.example")
            assert len(wire._LABEL_CHUNKS) <= wire.LABEL_CACHE_CAP

    def test_repeat_decode_returns_interned_name(self):
        encoded = _encode_name("www.interned.example")
        assert WireReader(encoded).read_name() is WireReader(encoded).read_name()

    def test_case_variants_keep_their_own_spelling(self):
        upper = _encode_name("WWW.Example.com")
        lower = _encode_name("www.example.com")
        assert upper != lower
        assert upper == b"\x03WWW\x07Example\x03com\x00"
        assert lower == b"\x03www\x07example\x03com\x00"
        # Encoding the other spelling first does not change the bytes.
        assert _encode_name("WWW.Example.com") == upper
        decoded_upper = WireReader(upper).read_name()
        decoded_lower = WireReader(lower).read_name()
        assert decoded_upper.labels == ("WWW", "Example", "com")
        assert decoded_lower.labels == ("www", "example", "com")
        assert decoded_upper is not decoded_lower
        # Case-insensitive equality and hashing are unaffected.
        assert decoded_upper == decoded_lower
        assert hash(decoded_upper) == hash(decoded_lower)
        assert len({decoded_upper, decoded_lower}) == 1

    def test_case_variants_roundtrip_through_messages(self):
        for text in ("WWW.Example.com", "www.example.com", "Www.EXAMPLE.Com"):
            query = make_query(text, RRType.A)
            response = make_response(query)
            response.answer.append(ResourceRecord(text, RRType.A, 60, A("1.2.3.4")))
            decoded = Message.from_wire(response.to_wire())
            assert decoded.question[0].name.to_text() == text + "."
            assert decoded.answer[0].name.to_text() == text + "."
            assert decoded.to_wire() == response.to_wire()
