"""Recursive length prefix encoding for trie nodes and chain data.

Items are byte strings or (arbitrarily nested) lists of items. Decoding is
strict: non-canonical encodings and trailing bytes are rejected, at every
nesting level (Yellow Paper, appendix B).

`encode` is the trie's commit cost: each dirty node is one call. It is the
C encoder of the native extension (`gaslab.native`) when that builds, and
otherwise `_encode_python` below, which gives the same bytes. That is a
plain recursive reference with no speed tricks: it runs only when the
native module did not build, and then the Python Keccak of each node costs
hundreds of times more than its encoding.

`decode` is the per-level cost of a trie lookup: `gaslab.trie` fully decodes
every node it reads from its store, with no decoded-node cache. It stays
Python in every build, because the lookup walk is what gaslab measures
(see the lookup contract in `gaslab.trie`). The trie's write path decodes
the stored nodes it rewrites with the native module's `rlp_decode` when
that builds, which accepts and rejects what `decode` does and raises
`RLPError` with the same messages; `decode` is its reference. A list's items are decoded in
one loop: single bytes and short strings (a branch node's hash refs and
empty slots) are sliced inline, with every strictness check of the
recursive path; long strings and nested lists recurse.
"""

from __future__ import annotations

from . import native

RlpItem = bytes | list  # list elements are themselves RlpItem


class RLPError(ValueError):
    """Raised for undecodable or non-canonical RLP input."""


def _encode_python(item: RlpItem) -> bytes:
    if isinstance(item, (bytes, bytearray)):
        if len(item) == 1 and item[0] < 0x80:
            return bytes(item)
        return _length_prefix(len(item), 0x80) + bytes(item)
    if isinstance(item, (list, tuple)):
        payload = b"".join(_encode_python(sub) for sub in item)
        return _length_prefix(len(payload), 0xC0) + payload
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


encode = (_encode_python if native.module is None
          else native.module.rlp_encode)


def _length_prefix(length: int, offset: int) -> bytes:
    if length <= 55:
        return bytes([offset + length])
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def decode(data: bytes) -> RlpItem:
    """Decode a single RLP item; the input must be exactly one encoding."""
    item, consumed = _decode_at(data, 0)
    if consumed != len(data):
        raise RLPError(f"trailing bytes after RLP item ({len(data) - consumed})")
    return item


def _decode_at(data: bytes, pos: int) -> tuple[RlpItem, int]:
    if pos >= len(data):
        raise RLPError("unexpected end of input")
    tag = data[pos]

    if tag < 0x80:
        return bytes([tag]), pos + 1

    if tag <= 0xBF:
        length, payload_start = _read_length(data, pos, tag, 0x80)
        payload = data[payload_start:payload_start + length]
        if tag <= 0xB7 and length == 1 and payload[0] < 0x80:
            raise RLPError("non-canonical single byte")
        return payload, payload_start + length

    length, payload_start = _read_length(data, pos, tag, 0xC0)
    end = payload_start + length
    items: list[RlpItem] = []
    append = items.append
    cursor = payload_start
    while cursor < end:
        tag = data[cursor]
        if tag < 0x80:
            append(data[cursor:cursor + 1])
            cursor += 1
        elif tag <= 0xB7:
            start = cursor + 1
            cursor = start + tag - 0x80
            if cursor > end:
                raise RLPError("list item overruns list payload")
            if tag == 0x81 and data[start] < 0x80:
                raise RLPError("non-canonical single byte")
            append(data[start:cursor])
        else:
            item, cursor = _decode_at(data, cursor)
            if cursor > end:
                raise RLPError("list item overruns list payload")
            append(item)
    return items, end


def _read_length(data: bytes, pos: int, tag: int, offset: int) -> tuple[int, int]:
    """Return (payload length, payload start) for the prefix at pos."""
    if tag <= offset + 55:
        length = tag - offset
        payload_start = pos + 1
    else:
        n = tag - offset - 55
        if pos + 1 + n > len(data):
            raise RLPError("truncated length field")
        length_bytes = data[pos + 1:pos + 1 + n]
        if length_bytes[0] == 0:
            raise RLPError("length field has leading zero")
        length = int.from_bytes(length_bytes, "big")
        if length <= 55:
            raise RLPError("non-minimal length encoding")
        payload_start = pos + 1 + n
    if payload_start + length > len(data):
        raise RLPError("payload extends past end of input")
    return length, payload_start
