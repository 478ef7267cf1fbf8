"""Low-level wire-format encoding and decoding (RFC 1035 §4.1.4).

:class:`WireWriter` serializes integers, byte strings and domain names into
a growing buffer, applying standard DNS name compression: every name suffix
already emitted at an offset < 0x4000 is replaced by a two-byte pointer.
:class:`WireReader` is the inverse, following compression pointers with a
loop guard.

These two classes are the only place in the code base that touches raw
bytes; every higher layer (rdata, records, messages) builds on them.  The
DNScup prototype's claim that all of its messages fit in 512 bytes
(paper §5.2) is checked against the output of this module.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from .name import Name, NameError_

#: Compression pointers are 14-bit offsets tagged with the top two bits set.
_POINTER_TAG = 0xC0
_MAX_POINTER_OFFSET = 0x3FFF

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_PACK_U8 = struct.Struct("!B").pack
_PACK_U16 = _U16.pack
_PACK_U32 = _U32.pack


#: Exact-spelling label-chunk cache for the encoder: labels tuple ->
#: length-prefixed label encodings.  Module-level so it outlives the one
#: writer each message gets; cleared whole when it reaches its cap.
LABEL_CACHE_CAP = 4096
_LABEL_CHUNKS: Dict[Tuple[str, ...], Tuple[bytes, ...]] = {}

#: Intern table for decoded names: raw label octets (exact spelling,
#: case kept) -> the validated :class:`Name`.  A hit skips the ASCII
#: decode and the :class:`Name` checks; cleared whole at its cap.
NAME_INTERN_CAP = 4096
_DECODED_NAMES: Dict[Tuple[bytes, ...], Name] = {}


class WireFormatError(ValueError):
    """Raised on malformed wire data: truncation, bad pointers, overruns."""


def _encoded_labels(labels: Tuple[str, ...]) -> Tuple[bytes, ...]:
    """The length-prefixed label chunks of ``labels``, cached by spelling."""
    chunks = _LABEL_CHUNKS.get(labels)
    if chunks is None:
        chunks = tuple(_PACK_U8(len(encoded)) + encoded
                       for encoded in (label.encode("ascii") for label in labels))
        if len(_LABEL_CHUNKS) >= LABEL_CACHE_CAP:
            _LABEL_CHUNKS.clear()
        _LABEL_CHUNKS[labels] = chunks
    return chunks


def _intern_name(raw_labels: Tuple[bytes, ...]) -> Name:
    """Validate and intern a decoded name the table does not hold yet."""
    try:
        labels = [raw.decode("ascii") for raw in raw_labels]
    except UnicodeDecodeError as exc:
        raise WireFormatError("non-ascii label") from exc
    try:
        name = Name(labels)
    except NameError_ as exc:
        raise WireFormatError(str(exc)) from exc
    if len(_DECODED_NAMES) >= NAME_INTERN_CAP:
        _DECODED_NAMES.clear()
    _DECODED_NAMES[raw_labels] = name
    return name


class WireWriter:
    """Accumulates a DNS message body with name compression.

    The compression table maps lower-cased label suffix tuples to the
    offset of their first occurrence, exactly as BIND does.  Compression
    can be disabled (``compress=False``) — RFC 3597 forbids compressing
    names inside the RDATA of unknown types, and tests use it to measure
    the savings compression buys.

    Output accumulates in one growing :class:`bytearray` (amortized O(1)
    appends, no per-write 1–2-byte ``bytes`` objects).  Fixed-field
    groups go in with one precompiled :class:`struct.Struct` each
    (:meth:`write_struct`), and RDATA is framed in place
    (:meth:`write_rdata`).  Names reuse their label encodings from a
    bounded module-level cache keyed by exact spelling, so case-variant
    names still emit their own bytes.
    """

    def __init__(self, compress: bool = True):
        self._buffer = bytearray()
        self._compress = compress
        self._offsets: Dict[Tuple[str, ...], int] = {}

    # -- primitives --------------------------------------------------------

    def write_bytes(self, data: bytes) -> None:
        """Append raw bytes."""
        self._buffer += data

    def write_u8(self, value: int) -> None:
        """Append one unsigned byte."""
        self._buffer += _PACK_U8(value)

    def write_u16(self, value: int) -> None:
        """Append a 16-bit big-endian integer."""
        self._buffer += _PACK_U16(value)

    def write_u32(self, value: int) -> None:
        """Append a 32-bit big-endian integer."""
        self._buffer += _PACK_U32(value)

    def write_struct(self, layout: struct.Struct, *values: int) -> None:
        """Append one fixed-field group packed with ``layout``."""
        self._buffer += layout.pack(*values)

    def write_string(self, data: bytes) -> None:
        """A length-prefixed character string (max 255 octets)."""
        if len(data) > 255:
            raise WireFormatError("character-string longer than 255 octets")
        self.write_u8(len(data))
        self.write_bytes(data)

    # -- names -------------------------------------------------------------

    def write_name(self, name: Name) -> None:
        """Emit ``name``, compressing against previously written names."""
        key = name.key
        buffer = self._buffer
        if self._compress:
            target = self._offsets.get(key)
            if target is not None:
                # Whole-name hit — the common case on repeated owners.
                buffer += _PACK_U16(_POINTER_TAG << 8 | target)
                return
        chunks = _encoded_labels(name.labels)
        if self._compress:
            offsets = self._offsets
            for i in range(len(chunks)):
                suffix = key[i:]
                if i:
                    target = offsets.get(suffix)
                    if target is not None:
                        buffer += _PACK_U16(_POINTER_TAG << 8 | target)
                        return
                if len(buffer) <= _MAX_POINTER_OFFSET:
                    offsets[suffix] = len(buffer)
                buffer += chunks[i]
        else:
            for chunk in chunks:
                buffer += chunk
        buffer.append(0)

    # -- rdata -------------------------------------------------------------

    def write_rdata(self, rdata) -> None:
        """RDLENGTH then ``rdata``, framed in place.

        A placeholder RDLENGTH is written, the rdata is rendered with
        compression suspended (names inside RDATA are neither compressed
        nor recorded as compression targets, so lengths stay
        deterministic), and the length is patched in afterwards.
        """
        buffer = self._buffer
        mark = len(buffer)
        buffer += b"\0\0"
        compress = self._compress
        self._compress = False
        try:
            rdata.to_wire(self)
        finally:
            self._compress = compress
        _U16.pack_into(buffer, mark, len(buffer) - mark - 2)

    # -- output ------------------------------------------------------------

    def getvalue(self) -> bytes:
        """The accumulated buffer."""
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class WireReader:
    """Sequential reader over a full DNS message with pointer chasing."""

    def __init__(self, data: bytes, offset: int = 0):
        # Decoded labels are sliced out as hashable intern keys.
        self._data = data if type(data) is bytes else bytes(data)
        self._offset = offset

    @property
    def offset(self) -> int:
        """Current cursor position."""
        return self._offset

    @property
    def remaining(self) -> int:
        """Bytes left in the buffer after the cursor."""
        return len(self._data) - self._offset

    def seek(self, offset: int) -> None:
        """Move the cursor to an absolute offset."""
        if not 0 <= offset <= len(self._data):
            raise WireFormatError(f"seek out of range: {offset}")
        self._offset = offset

    # -- primitives --------------------------------------------------------

    def read_bytes(self, count: int) -> bytes:
        """Consume and return ``count`` bytes."""
        offset = self._offset
        end = offset + count
        if count < 0 or end > len(self._data):
            raise WireFormatError("truncated message")
        self._offset = end
        return self._data[offset:end]

    def read_u8(self) -> int:
        """Consume one unsigned byte."""
        return self.read_bytes(1)[0]

    def read_u16(self) -> int:
        """Consume a 16-bit big-endian integer."""
        return self.unpack(_U16)[0]

    def read_u32(self) -> int:
        """Consume a 32-bit big-endian integer."""
        return self.unpack(_U32)[0]

    def peek_u16(self) -> int:
        """The 16-bit big-endian integer at the cursor, not consumed."""
        offset = self._offset
        if offset + 2 > len(self._data):
            raise WireFormatError("truncated message")
        return _U16.unpack_from(self._data, offset)[0]

    def unpack(self, layout: struct.Struct) -> Tuple[int, ...]:
        """Consume one fixed-field group: one bounds check, one unpack."""
        offset = self._offset
        end = offset + layout.size
        if end > len(self._data):
            raise WireFormatError("truncated message")
        self._offset = end
        return layout.unpack_from(self._data, offset)

    def read_string(self) -> bytes:
        """Consume one length-prefixed character string."""
        return self.read_bytes(self.read_u8())

    # -- names -------------------------------------------------------------

    def read_name(self) -> Name:
        """Decode a possibly-compressed name starting at the cursor.

        Names are interned by exact label spelling: a name seen before
        comes back as the same validated :class:`Name` object.
        """
        data = self._data
        size = len(data)
        labels: List[bytes] = []
        jumps = 0
        cursor = self._offset
        resume: Optional[int] = None
        while True:
            if cursor >= size:
                raise WireFormatError("name runs past end of message")
            length = data[cursor]
            if length & _POINTER_TAG == _POINTER_TAG:
                if cursor + 1 >= size:
                    raise WireFormatError("truncated compression pointer")
                pointer = ((length & 0x3F) << 8) | data[cursor + 1]
                if resume is None:
                    resume = cursor + 2
                if pointer >= cursor:
                    raise WireFormatError("forward compression pointer")
                jumps += 1
                if jumps > 128:
                    raise WireFormatError("compression pointer loop")
                cursor = pointer
                continue
            if length & _POINTER_TAG:
                raise WireFormatError(f"bad label tag 0x{length:02x}")
            if length == 0:
                cursor += 1
                break
            end = cursor + 1 + length
            if end > size:
                raise WireFormatError("label runs past end of message")
            labels.append(data[cursor + 1:end])
            cursor = end
        self._offset = resume if resume is not None else cursor
        key = tuple(labels)
        name = _DECODED_NAMES.get(key)
        if name is None:
            name = _intern_name(key)
        return name
