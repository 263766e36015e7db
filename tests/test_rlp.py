import random

import pytest
from hypothesis import given, settings, strategies as st

from gaslab import native, rlp


def test_empty_string_encodes_to_0x80():
    assert rlp.encode(b"") == b"\x80"


def test_single_low_byte_is_its_own_encoding():
    assert rlp.encode(b"\x05") == b"\x05"
    assert rlp.encode(b"\x7f") == b"\x7f"
    assert rlp.encode(b"\x80") == b"\x81\x80"


def test_short_and_long_strings():
    assert rlp.encode(b"dog") == b"\x83dog"
    fifty_five = b"a" * 55
    assert rlp.encode(fifty_five) == b"\xb7" + fifty_five
    fifty_six = b"a" * 56
    assert rlp.encode(fifty_six) == b"\xb8\x38" + fifty_six


def test_lists():
    assert rlp.encode([]) == b"\xc0"
    assert rlp.encode([b"cat", b"dog"]) == b"\xc8\x83cat\x83dog"
    # nested: the famous set-theoretic representation of three
    assert rlp.encode([[], [[]], [[], [[]]]]) == bytes.fromhex(
        "c7c0c1c0c3c0c1c0")


def test_decode_rejects_trailing_bytes():
    with pytest.raises(rlp.RLPError):
        rlp.decode(b"\x05\x06")


def test_decode_rejects_non_canonical_single_byte():
    with pytest.raises(rlp.RLPError):
        rlp.decode(b"\x81\x05")  # 0x05 must encode as itself


def test_decode_rejects_non_minimal_length():
    with pytest.raises(rlp.RLPError):
        rlp.decode(b"\xb8\x01\x61")  # length 1 must use the short form
    with pytest.raises(rlp.RLPError):
        rlp.decode(b"\xb9\x00\x38" + b"a" * 56)  # leading zero length


def test_decode_rejects_truncation():
    with pytest.raises(rlp.RLPError):
        rlp.decode(b"\x83do")
    with pytest.raises(rlp.RLPError):
        rlp.decode(b"")


rlp_items = st.recursive(
    st.binary(max_size=64),
    lambda children: st.lists(children, max_size=6),
    max_leaves=24,
)


@given(rlp_items)
def test_round_trip(item):
    assert rlp.decode(rlp.encode(item)) == item


@given(st.lists(st.binary(max_size=8), min_size=60, max_size=80))
def test_long_list_round_trip(items):
    assert rlp.decode(rlp.encode(items)) == items


# ---------------------------------------------------------------------------
# differential check against the plain recursive encoder
# ---------------------------------------------------------------------------

def reference_encode(item):
    """The straightforward recursive encoder (one call per item), kept here
    as an oracle independent of both `rlp.encode` builds."""
    if isinstance(item, (bytes, bytearray)):
        if len(item) == 1 and item[0] < 0x80:
            return bytes(item)
        return _ref_length_prefix(len(item), 0x80) + bytes(item)
    if isinstance(item, (list, tuple)):
        payload = b"".join(reference_encode(sub) for sub in item)
        return _ref_length_prefix(len(payload), 0xC0) + payload
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def _ref_length_prefix(length, offset):
    if length <= 55:
        return bytes([offset + length])
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


# Strings of every length class (0, 1, 55, 56 and more), single bytes on
# both sides of 0x80, as bytes or bytearray; lists and tuples of them.
_edge_strings = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([0, 1, 55, 56, 57]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)),
    st.integers(0x70, 0x8F).map(lambda b: bytes([b])),
)
encodable_items = st.recursive(
    st.one_of(_edge_strings, _edge_strings.map(bytearray)),
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.lists(children, max_size=6).map(tuple)),
    max_leaves=24,
)
# A branch node: 16 child slots (empty, 32-byte hash refs or inline nodes)
# and a value slot.
_child_refs = st.one_of(st.just(b""), st.binary(min_size=32, max_size=32),
                        st.lists(_edge_strings, min_size=2, max_size=2))
branch_nodes = st.tuples(st.lists(_child_refs, min_size=16, max_size=16),
                         _edge_strings).map(lambda t: t[0] + [t[1]])


@given(encodable_items)
@settings(max_examples=400)
def test_encode_matches_reference(item):
    assert rlp.encode(item) == reference_encode(item)


@given(branch_nodes)
def test_encode_branch_nodes_matches_reference(node):
    encoded = rlp.encode(node)
    assert encoded == reference_encode(node)
    assert rlp.decode(encoded) == node


@pytest.mark.parametrize("item", [
    5, "dog", [b"a", 5], [b"a", "dog"], [[b"a", [b"b", 5]]], (b"a", ["x"]),
    [b"a", None], [[[[1.5]]]],
])
def test_encode_rejects_ints_and_strings_at_any_depth(item):
    with pytest.raises(TypeError):
        rlp.encode(item)
    with pytest.raises(TypeError):
        reference_encode(item)


# ---------------------------------------------------------------------------
# differential check against the plain recursive decoder
# ---------------------------------------------------------------------------

def reference_decode(data):
    """The straightforward recursive decoder (one call per item), kept here
    as an oracle for `rlp.decode`, which decodes list items inline."""
    item, consumed = _ref_decode_at(data, 0)
    if consumed != len(data):
        raise rlp.RLPError("trailing bytes after RLP item")
    return item


def _ref_decode_at(data, pos):
    if pos >= len(data):
        raise rlp.RLPError("unexpected end of input")
    tag = data[pos]
    if tag < 0x80:
        return bytes([tag]), pos + 1
    if tag <= 0xBF:
        length, start = _ref_read_length(data, pos, tag, 0x80)
        payload = data[start:start + length]
        if tag <= 0xB7 and length == 1 and payload[0] < 0x80:
            raise rlp.RLPError("non-canonical single byte")
        return payload, start + length
    length, start = _ref_read_length(data, pos, tag, 0xC0)
    end = start + length
    items = []
    cursor = start
    while cursor < end:
        item, cursor = _ref_decode_at(data, cursor)
        if cursor > end:
            raise rlp.RLPError("list item overruns list payload")
        items.append(item)
    return items, end


def _ref_read_length(data, pos, tag, offset):
    if tag <= offset + 55:
        length, start = tag - offset, pos + 1
    else:
        n = tag - offset - 55
        if pos + 1 + n > len(data):
            raise rlp.RLPError("truncated length field")
        length_bytes = data[pos + 1:pos + 1 + n]
        if length_bytes[0] == 0:
            raise rlp.RLPError("length field has leading zero")
        length = int.from_bytes(length_bytes, "big")
        if length <= 55:
            raise rlp.RLPError("non-minimal length encoding")
        start = pos + 1 + n
    if start + length > len(data):
        raise rlp.RLPError("payload extends past end of input")
    return length, start


# `rlp.decode` and, in a C build, the write path's decoder of `gaslab.trie`
# (`native.module.rlp_decode`); every differential test runs each of them.
DECODERS = (rlp.decode,) + (() if native.module is None
                            else (native.module.rlp_decode,))


def _outcome(decoder, data):
    """("item", the item) or ("error", the RLPError's message)."""
    try:
        return "item", decoder(data)
    except rlp.RLPError as error:
        assert type(error) is rlp.RLPError
        return "error", str(error)


def assert_same_as_reference(data):
    """Every decoder gives `rlp.decode`'s item or error message, and the
    reference's item or an error where it gives one."""
    expected = _outcome(rlp.decode, data)
    for decode in DECODERS:
        assert _outcome(decode, data) == expected
    reference = _outcome(reference_decode, data)
    assert expected[0] == reference[0]
    if expected[0] == "item":
        assert expected == reference
    return expected


@given(st.binary(max_size=200))
@settings(max_examples=400)
def test_differential_random_bytes(data):
    assert_same_as_reference(data)


@given(rlp_items)
def test_differential_valid_encodings(item):
    assert assert_same_as_reference(rlp.encode(item)) == ("item", item)


@given(rlp_items, st.integers(min_value=0), st.integers(0, 255))
@settings(max_examples=400)
def test_differential_single_byte_mutations(item, where, byte):
    data = bytearray(rlp.encode(item))
    data[where % len(data)] = byte
    assert_same_as_reference(bytes(data))


@given(rlp_items, st.integers(min_value=0))
def test_differential_truncations(item, cut):
    data = rlp.encode(item)
    assert_same_as_reference(data[:cut % len(data)])


@pytest.mark.parametrize("data", [
    bytes.fromhex("c28105"),         # 0x05 must encode as itself in a list
    b"\xc3\x83abc",                  # short string overruns its list
    b"\xc2\xb8\x38" + b"a" * 56,     # long string overruns its list
    b"\xc4\xb8\x01\x61\x62",         # non-minimal long length in a list
    b"\xc3\xb9\x00\x38",             # leading-zero length in a list
    b"\xc3\xc2\x81\x05",             # non-canonical byte in a nested list
    b"\xc1\xc2\x80",                 # nested list overruns its parent
    b"\xc2\x80\x80\x80",             # trailing bytes after a list
    b"\xc5\x83ab",                   # list payload truncated
    b"\xc1\x81\x05",                 # overrun checked before canonical
])
def test_in_list_strictness(data):
    assert assert_same_as_reference(data)[0] == "error"


@pytest.mark.parametrize("item", [
    [b"\x05", b"\x80", b""],
    [b"a" * 56, b"dog", b"b" * 300],                 # long strings in a list
    [[b"x"], [[], [b"\x05", b"a" * 60]], b"\x7f"],   # nested lists
    [b"\x01" * 32] * 16 + [b""],                     # a branch node's shape
])
def test_in_list_items_decode(item):
    assert assert_same_as_reference(rlp.encode(item)) == ("item", item)


# ---------------------------------------------------------------------------
# the C encoder of the native build against the Python one
# ---------------------------------------------------------------------------

needs_c = pytest.mark.skipif(native.module is None,
                             reason="native build unavailable")


def _random_item(rng, depth=0):
    """A random nesting of bytes, bytearrays, lists and tuples: strings of
    0-57 bytes around the 1-byte and 56-byte prefix edges, single bytes on
    both sides of 0x80, and the odd 70000-byte string."""
    roll = rng.random()
    if depth < 4 and roll < 0.3:
        items = [_random_item(rng, depth + 1)
                 for _ in range(rng.randrange(0, 18))]
        return items if rng.random() < 0.7 else tuple(items)
    if roll < 0.4:
        string = bytes([rng.choice((0x00, 0x7F, 0x80, 0xFF))])
    elif roll < 0.41:
        string = rng.randbytes(70000)
    else:
        string = rng.randbytes(rng.randrange(0, 58))
    return string if rng.random() < 0.8 else bytearray(string)


@needs_c
def test_c_encoder_matches_python_on_random_nestings():
    rng = random.Random(28)
    for _ in range(3000):
        item = _random_item(rng)
        assert native.module.rlp_encode(item) == rlp._encode_python(item)


@needs_c
@pytest.mark.parametrize("item", [
    b"", b"\x00", b"\x7f", b"\x80", b"\xff", bytearray(b"\x7f"),
    bytearray(b"\x80"), bytearray(), b"a" * 55, b"a" * 56, b"a" * 57,
    b"a" * 255, b"a" * 256, b"a" * 70000, bytearray(b"a" * 70000),
    [], (), [[]], ((),), [b"a" * 55], [b"a" * 54], (b"\x01",) * 56,
    [bytearray(b"\x05"), (b"dog", bytearray(b"cat")), [b"a" * 70000]],
])
def test_c_encoder_matches_python_at_length_edges(item):
    encoded = native.module.rlp_encode(item)
    assert type(encoded) is bytes
    assert encoded == rlp._encode_python(item) == reference_encode(item)


@needs_c
@pytest.mark.parametrize("item,name", [
    (5, "int"), ("dog", "str"), ([b"a", None], "NoneType"),
    ((b"a", [memoryview(b"x")]), "memoryview"), ([[[[1.5]]]], "float"),
])
def test_c_encoder_rejects_other_types_by_name(item, name):
    for encode in (native.module.rlp_encode, rlp._encode_python):
        with pytest.raises(TypeError, match=f"^cannot RLP-encode {name}$"):
            encode(item)


@needs_c
def test_c_encoder_deep_nesting_raises_recursion_error():
    item = []
    for _ in range(100000):
        item = [item]
    with pytest.raises(RecursionError):
        native.module.rlp_encode(item)
    shallow = []
    for _ in range(100):
        shallow = (shallow,)
    assert native.module.rlp_encode(shallow) == rlp._encode_python(shallow)


# ---------------------------------------------------------------------------
# the C decoder of the trie's write path against `rlp.decode`
# ---------------------------------------------------------------------------

def _nested_lists(depth):
    """The encoding of `depth` lists, each holding the next and the
    innermost empty, built level by level without a recursive encoder."""
    prefixes, size = [], 1
    for _ in range(depth):
        prefixes.append(rlp._length_prefix(size, 0xC0))
        size += len(prefixes[-1])
    return b"".join(reversed(prefixes)) + b"\xc0"


def test_deep_nesting_raises_recursion_error_in_every_decoder():
    deep = _nested_lists(100000)
    for decode in DECODERS:
        with pytest.raises(RecursionError):
            decode(deep)
    shallow = _nested_lists(100)
    item = []
    for _ in range(100):
        item = [item]
    for decode in DECODERS:
        assert decode(shallow) == item


@needs_c
@pytest.mark.parametrize("data", [
    b"\xbf" + b"\xff" * 8,                 # a string of 2**64 - 1 bytes
    b"\xff\x7f" + b"\xff" * 7,             # a list of 2**63 - 1 bytes
    b"\xbf\x00" + b"\x01" * 7,             # an 8-byte field, leading zero
    b"\xb8", b"\xf8", b"\xb9\x01",         # truncated length fields
    b"\xb8\x37" + b"a" * 55,               # non-minimal length
    b"\xb8\x38" + b"a" * 56,               # the shortest long string
    b"\xf8\x38" + b"\x80" * 56,            # the shortest long list
    b"\xc2\x80\xc0\x00",                   # trailing byte after a list
    b"\x80" * 3, b"\x00", b"\x80", b"\xc0",
])
def test_c_decoder_matches_python_at_length_edges(data):
    c_outcome = _outcome(native.module.rlp_decode, data)
    assert c_outcome == _outcome(rlp.decode, data)
    if c_outcome[0] == "item":
        assert type(c_outcome[1]) is type(rlp.decode(data))


@needs_c
def test_c_decoder_takes_bytes_only():
    for data in (bytearray(b"\x80"), memoryview(b"\x80"), "\x80"):
        with pytest.raises(TypeError, match="^rlp_decode takes bytes"):
            native.module.rlp_decode(data)
