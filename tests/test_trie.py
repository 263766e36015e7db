"""Merkle-Patricia trie checks against an independent structural oracle.

The oracle builds the whole trie top-down from the complete key-value map
(longest-common-prefix recursion), sharing no code with the incremental
insert/delete path under test. The 16-pair fixture root below was computed
with this oracle before the trie was built and is frozen here.
"""

import random
import types

import gaslab.clock
import gaslab.keccak
import gaslab.rlp
import gaslab.trie

import pytest
from hypothesis import given, settings, strategies as st

from gaslab import native, rlp
from gaslab.keccak import keccak_256
from gaslab.trie import (EMPTY_ROOT, CorruptStoreError, MerklePatriciaTrie,
                         NodeStore, bytes_to_nibbles, hex_prefix_decode,
                         hex_prefix_encode)

# Computed with the oracle below prior to the main implementation.
FIXTURE_ROOT_SECURE = (
    "48bbe64b524350f564bae2e14effddd1ede0d0762890439a1002178de215c534")
FIXTURE_ROOT_RAW = (
    "ae65879ed4f8035acd099fe0f62a07f7fe42cacc9d02904ec01d6670c2b4df20")

FIXTURE_PAIRS = {f"key-{i:02d}".encode(): f"value-{i:02d}".encode()
                 for i in range(16)}


# ---------------------------------------------------------------------------
# independent reference: build the trie structurally from the full mapping
# ---------------------------------------------------------------------------

def oracle_root(mapping: dict[bytes, bytes], secure: bool = True) -> bytes:
    paths = {}
    for key, value in mapping.items():
        path_key = keccak_256(key) if secure else key
        paths[tuple(bytes_to_nibbles(path_key))] = value
    if not paths:
        return keccak_256(rlp.encode(b""))
    return keccak_256(rlp.encode(_oracle_build(paths)))


def _oracle_ref(node):
    encoded = rlp.encode(node)
    return node if len(encoded) < 32 else keccak_256(encoded)


def _oracle_build(paths):
    if len(paths) == 1:
        ((path, value),) = paths.items()
        return [hex_prefix_encode(bytes(path), True), value]
    prefix = []
    while True:
        idx = len(prefix)
        heads = {p[idx] for p in paths if len(p) > idx}
        if len(heads) == 1 and all(len(p) > idx for p in paths):
            prefix.append(heads.pop())
        else:
            break
    if prefix:
        stripped = {p[len(prefix):]: v for p, v in paths.items()}
        return [hex_prefix_encode(bytes(prefix), False),
                _oracle_ref(_oracle_build(stripped))]
    branch = [b""] * 17
    for nibble in range(16):
        sub = {p[1:]: v for p, v in paths.items() if p and p[0] == nibble}
        if sub:
            branch[nibble] = _oracle_ref(_oracle_build(sub))
    if () in paths:
        branch[16] = paths[()]
    return branch


def make_trie(mapping, secure=True, **kwargs):
    trie = MerklePatriciaTrie(secure=secure, **kwargs)
    for key, value in mapping.items():
        trie.insert(key, value)
    return trie


# ---------------------------------------------------------------------------
# hex-prefix encoding
# ---------------------------------------------------------------------------

_ROUND_TRIP_PATHS = [
    (b"", False), (b"", True),
    (b"\x01", False), (b"\x01", True),
    (b"\x01\x02\x03", False), (b"\x0f\x0e\x0d\x0c", True),
]


@pytest.mark.parametrize("nibbles,is_leaf", _ROUND_TRIP_PATHS, ids=[
    f"nibbles{i}-{is_leaf}" for i, (_, is_leaf) in enumerate(_ROUND_TRIP_PATHS)])
def test_hex_prefix_round_trip(nibbles, is_leaf):
    assert hex_prefix_decode(hex_prefix_encode(nibbles, is_leaf)) == (
        nibbles, is_leaf)


def test_nibble_path_shape():
    path = bytes_to_nibbles(b"\x12\xab")
    assert path == bytes([1, 2, 0xA, 0xB])
    assert all(0 <= n <= 15 for n in path)
    assert len(path) == 2 * 2


def reference_nibbles(data):
    """The plain per-byte split, kept as an oracle for `bytes_to_nibbles`."""
    return [n for b in data for n in (b >> 4, b & 0x0F)]


def reference_hex_prefix(nibbles, is_leaf):
    """Yellow Paper appendix C, pair by pair, as an oracle for
    `hex_prefix_encode`."""
    flag = 2 if is_leaf else 0
    prefixed = [flag + 1] + nibbles if len(nibbles) % 2 else [flag, 0] + nibbles
    return bytes((prefixed[i] << 4) | prefixed[i + 1]
                 for i in range(0, len(prefixed), 2))


@pytest.mark.parametrize("nibbles,is_leaf,encoded", [
    ([1, 2, 3, 4, 5], False, "112345"),
    ([0, 1, 2, 3, 4, 5], False, "00012345"),
    ([0, 0xF, 1, 0xC, 0xB, 8], True, "200f1cb8"),
    ([0xF, 1, 0xC, 0xB, 8], True, "3f1cb8"),
])
def test_hex_prefix_known_encodings(nibbles, is_leaf, encoded):
    assert hex_prefix_encode(bytes(nibbles), is_leaf).hex() == encoded
    assert reference_hex_prefix(nibbles, is_leaf).hex() == encoded


@given(st.binary(max_size=40), st.booleans())
def test_nibble_paths_match_the_per_byte_reference(data, is_leaf):
    path = bytes_to_nibbles(data)
    assert list(path) == reference_nibbles(data)
    for cut in {0, 1, len(path) // 2, len(path)}:
        part = path[cut:]
        encoded = hex_prefix_encode(part, is_leaf)
        assert encoded == reference_hex_prefix(list(part), is_leaf)
        assert hex_prefix_decode(encoded) == (part, is_leaf)


def test_hex_prefix_decode_accepts_only_canonical_first_bytes():
    # Canonical: a flag nibble of 0-3, and a padding nibble of 0 after an
    # even path's flag (0 or 2).
    for first in range(256):
        flag, low = first >> 4, first & 0x0F
        data = bytes([first, 0xAB])
        if flag in (1, 3) or (flag in (0, 2) and low == 0):
            path = bytes([low, 0xA, 0xB] if flag & 1 else [0xA, 0xB])
            assert hex_prefix_decode(data) == (path, flag >= 2)
        else:
            with pytest.raises(ValueError):
                hex_prefix_decode(data)


def test_hex_prefix_rejects_a_byte_that_is_not_a_nibble():
    with pytest.raises(ValueError):
        hex_prefix_encode(b"\x01\x10", True)


# ---------------------------------------------------------------------------
# roots and fixtures
# ---------------------------------------------------------------------------

def test_empty_trie_root_is_hash_of_empty_encoding():
    assert MerklePatriciaTrie().root_hash() == keccak_256(rlp.encode(b""))
    assert MerklePatriciaTrie().root_hash() == EMPTY_ROOT


def test_sixteen_pair_fixture_roots():
    assert make_trie(FIXTURE_PAIRS).root_hash().hex() == FIXTURE_ROOT_SECURE
    assert make_trie(FIXTURE_PAIRS, secure=False).root_hash().hex() == (
        FIXTURE_ROOT_RAW)
    # and both agree with the independent oracle
    assert oracle_root(FIXTURE_PAIRS, True).hex() == FIXTURE_ROOT_SECURE
    assert oracle_root(FIXTURE_PAIRS, False).hex() == FIXTURE_ROOT_RAW


def test_canonical_ethereum_vector():
    # The classic any-order trie test: known root from the public test suite.
    trie = make_trie({b"do": b"verb", b"dog": b"puppy", b"doge": b"coin",
                      b"horse": b"stallion"}, secure=False)
    assert trie.root_hash().hex() == (
        "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84")


@given(st.dictionaries(st.binary(min_size=1, max_size=8),
                       st.binary(min_size=1, max_size=32), max_size=20),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_matches_oracle_and_order_independent(mapping, rnd):
    items = list(mapping.items())
    rnd.shuffle(items)
    trie = MerklePatriciaTrie()
    for key, value in items:
        trie.insert(key, value)
    assert trie.root_hash() == oracle_root(mapping)
    for key, value in mapping.items():
        assert trie.get(key) == value


def test_read_your_writes_and_update():
    trie = MerklePatriciaTrie()
    assert trie.get(b"missing") is None
    trie.insert(b"k", b"v1")
    assert trie.get(b"k") == b"v1"
    trie.insert(b"k", b"v2")
    assert trie.get(b"k") == b"v2"
    assert trie.key_count == 1


def test_delete_restores_prior_root():
    trie = make_trie(FIXTURE_PAIRS)
    before = trie.root_hash()
    trie.insert(b"ephemeral", b"x")
    assert trie.root_hash() != before
    trie.delete(b"ephemeral")
    assert trie.root_hash() == before
    assert trie.key_count == len(FIXTURE_PAIRS)


def test_empty_value_insert_is_delete():
    trie = make_trie(FIXTURE_PAIRS)
    before = trie.root_hash()
    trie.insert(b"tmp", b"x")
    trie.insert(b"tmp", b"")
    assert trie.root_hash() == before
    assert trie.get(b"tmp") is None


def test_randomized_insert_delete_sequences_match_oracle():
    rng = random.Random(99)
    for _ in range(120):
        kept = {rng.randbytes(rng.randrange(1, 6)): rng.randbytes(6)
                for _ in range(rng.randrange(0, 12))}
        extra = {rng.randbytes(rng.randrange(1, 6)): rng.randbytes(6)
                 for _ in range(rng.randrange(0, 12))}
        extra = {k: v for k, v in extra.items() if k not in kept}
        trie = MerklePatriciaTrie()
        items = list(kept.items()) + list(extra.items())
        rng.shuffle(items)
        for key, value in items:
            trie.insert(key, value)
        doomed = list(extra)
        rng.shuffle(doomed)
        for key in doomed:
            trie.delete(key)
        assert trie.root_hash() == oracle_root(kept)
        assert trie.key_count == len(kept)


def test_content_addressing_of_stored_nodes():
    trie = make_trie(FIXTURE_PAIRS)
    trie.root_hash()  # the store holds committed nodes only
    assert len(trie.store) > 0
    for key in trie.store._data:
        encoded = trie.store.get(key)
        assert len(key) == 32
        assert keccak_256(encoded) == key
        # inline nodes never make it into the store (except the root)
        assert len(encoded) >= 32 or keccak_256(encoded) == trie.root_hash()


def lookup_depth(trie, key):
    """Nodes read by one `get`: the change in the store's read count."""
    reads = trie.store.work.node_reads
    trie.get(key)
    return trie.store.work.node_reads - reads


def test_lookup_depth_bounded_and_growing():
    # depth never exceeds the nibble-path length
    trie = make_trie(FIXTURE_PAIRS, secure=False)
    for key in FIXTURE_PAIRS:
        assert lookup_depth(trie, key) <= 2 * len(key) + 1

    # mean depth grows with key-count (4^d random keys, d = 2..5)
    rng = random.Random(5)
    depths = []
    for exponent in (2, 3, 4, 5):
        t = MerklePatriciaTrie()
        keys = [rng.randbytes(8) for _ in range(4 ** exponent)]
        for key in keys:
            t.insert(key, b"v")
        total = sum(lookup_depth(t, key) for key in keys)
        depths.append(total / len(keys))
    assert depths == sorted(depths)
    assert depths[-1] > depths[0]


def test_corrupt_store_raises():
    trie = make_trie(FIXTURE_PAIRS)
    root = trie.root_hash()
    # wipe every node but the root
    for key in [k for k in trie.store._data if k != root]:
        del trie.store._data[key]
    with pytest.raises(CorruptStoreError):
        for key in FIXTURE_PAIRS:
            trie.get(key)


def test_each_lookup_level_is_one_store_read_and_one_decode(monkeypatch):
    # Wrap the lookup path where `bench/tracer.py` does: the module
    # attribute `gaslab.trie.rlp` and `NodeStore.get`.
    events = []
    real_get = NodeStore.get

    def recorded_get(store, key):
        value = real_get(store, key)
        events.append(("read", value))
        return value

    def recorded_decode(data):
        events.append(("decode", data))
        return gaslab.rlp.decode(data)

    rng = random.Random(16)
    for size in (16, 64, 256, 1024):
        keys = [rng.randbytes(rng.randrange(1, 12)) for _ in range(size)]
        trie = make_trie({key: key * 2 for key in keys})
        trie.root_hash()
        with monkeypatch.context() as patch:
            patch.setattr(NodeStore, "get", recorded_get)
            patch.setattr(gaslab.trie, "rlp", types.SimpleNamespace(
                encode=gaslab.rlp.encode, decode=recorded_decode,
                RlpItem=gaslab.rlp.RlpItem))
            for key in keys + [rng.randbytes(4) for _ in range(size // 4)]:
                events.clear()
                reads = trie.store.work.node_reads
                trie.get(key)
                depth = trie.store.work.node_reads - reads
                assert depth >= 1
                # each level: store.get, then a decode of exactly its bytes
                assert len(events) == 2 * depth
                for (read, value), (decode, data) in zip(events[::2],
                                                         events[1::2]):
                    assert (read, decode) == ("read", "decode")
                    assert data is value


def test_lookup_decode_is_python_and_commit_work_is_native():
    # The lookup walk is what gaslab measures, so its decode is the Python
    # function of gaslab/rlp.py in every build; the write path's encode,
    # hash, decode and commit are the native functions whenever the native
    # build loaded.
    for decode in (gaslab.rlp.decode, gaslab.trie.rlp.decode):
        assert isinstance(decode, types.FunctionType)
        assert decode.__code__.co_filename == gaslab.rlp.__file__
        assert decode is gaslab.rlp.decode
    assert gaslab.trie.rlp is gaslab.rlp
    if native.IMPLEMENTATION == "c":
        assert gaslab.rlp.encode is native.module.rlp_encode
        assert gaslab.keccak.keccak_256 is native.module.keccak_256
        assert gaslab.trie.keccak_256 is native.module.keccak_256
        assert gaslab.trie._decode_stored is native.module.rlp_decode
        assert gaslab.trie._commit is native.module.commit
    else:
        assert gaslab.rlp.encode is gaslab.rlp._encode_python
        assert gaslab.keccak.keccak_256 is gaslab.keccak._keccak_256_python
        assert gaslab.trie._decode_stored is gaslab.rlp.decode
        assert gaslab.trie._commit is gaslab.trie._commit_python


# The Python commit and, in a C build, the native one.
COMMITS = [gaslab.trie._commit_python] + (
    [] if native.module is None else [native.module.commit])
COMMIT_IDS = ["python", "c"][:len(COMMITS)]

_WORK_FIELDS = gaslab.clock.Work.__slots__


def _commit_history(monkeypatch, encode, commit=gaslab.trie._commit):
    """Root and `Work` deltas of each commit of one seeded run of inserts,
    updates and deletes over short non-secure keys (inline nodes, short
    roots), and the items of the store it leaves in insertion order, with
    `gaslab.trie.rlp.encode` bound to `encode` and the commit to `commit`.
    """
    monkeypatch.setattr(gaslab.trie, "rlp", types.SimpleNamespace(
        encode=encode, decode=gaslab.rlp.decode, RlpItem=gaslab.rlp.RlpItem))
    monkeypatch.setattr(gaslab.trie, "_commit", commit)
    rng = random.Random(28)
    trie = MerklePatriciaTrie(secure=False)
    work = trie.store.work
    live, commits = set(), []

    def commit_root():
        before = [getattr(work, field) for field in _WORK_FIELDS]
        root = trie.root_hash()
        commits.append((root, [getattr(work, field) - was
                               for field, was in zip(_WORK_FIELDS, before)]))

    for batch in range(60):
        if batch % 10 == 9:   # drain to one key: a short root
            for key in sorted(live)[1:]:
                trie.delete(key)
            live = set(sorted(live)[:1])
            commit_root()
        for _ in range(rng.randrange(1, 12)):
            roll = rng.random()
            if live and roll < 0.3:
                key = rng.choice(sorted(live))
                trie.delete(key)
                live.discard(key)
            else:
                key = (rng.choice(sorted(live)) if live and roll < 0.5
                       else rng.randbytes(rng.randrange(1, 4)))
                trie.insert(key, rng.randbytes(rng.choice((1, 2, 5, 40))))
                live.add(key)
        commit_root()
    return commits, list(trie.store._data.items())


@pytest.mark.skipif(native.module is None, reason="native build unavailable")
def test_c_and_python_encoders_commit_identical_tries(monkeypatch):
    with monkeypatch.context() as patch:
        c_run = _commit_history(patch, native.module.rlp_encode)
    with monkeypatch.context() as patch:
        python_run = _commit_history(patch, gaslab.rlp._encode_python)
    assert c_run == python_run
    commits, items = c_run
    assert len({root for root, _ in commits}) > 40
    assert any(len(encoded) < 32 for _, encoded in items)  # short root
    assert any(any(isinstance(item, list) for item in rlp.decode(encoded))
               for _, encoded in items)   # inline child nodes


@pytest.mark.skipif(native.module is None, reason="native build unavailable")
def test_c_and_python_commits_write_identical_stores(monkeypatch):
    runs = []
    for commit in COMMITS:
        with monkeypatch.context() as patch:
            runs.append(_commit_history(patch, gaslab.rlp.encode, commit))
    python_run, c_run = runs
    assert c_run == python_run   # roots, Work deltas, store order
    commits, items = c_run
    assert sum(delta[_WORK_FIELDS.index("node_writes")]
               for _, delta in commits) >= len(items) > 100


@pytest.mark.parametrize("commit", COMMITS, ids=COMMIT_IDS)
def test_failed_put_leaves_the_trie_dirty(monkeypatch, commit):
    monkeypatch.setattr(gaslab.trie, "_commit", commit)
    mapping = {i.to_bytes(2, "big")[i % 2:]: bytes([i]) * (i % 40 + 1)
               for i in range(1, 120)}
    reference = make_trie(mapping, secure=False)
    reference.root_hash()
    trie = make_trie(mapping, secure=False)
    puts = 0
    real_put = NodeStore.put

    def failing_put(store, key, value):
        nonlocal puts
        puts += 1
        if puts == 10:
            raise OSError("store is full")
        real_put(store, key, value)

    with monkeypatch.context() as patch:
        patch.setattr(NodeStore, "put", failing_put)
        with pytest.raises(OSError, match="^store is full$"):
            trie.root_hash()
    assert isinstance(trie._root_ref, list)   # still dirty
    assert len(trie.store) == 9
    assert trie.root_hash() == reference.root_hash()
    assert list(trie.store._data.items()) == \
        list(reference.store._data.items())
    assert all(trie.get(key) == value for key, value in mapping.items())


def _corrupt_root(bad_node):
    trie = make_trie({i.to_bytes(2, "big"): b"v" for i in range(50)})
    root = trie.root_hash()
    trie.store._data[root] = rlp.encode(bad_node)
    return trie, root


@pytest.mark.parametrize("bad_node", [
    [b"a", b"b", b"c"],              # a list of 3 items
    b"x" * 40,                       # a string
    b"s" * 17,                       # a string as long as a branch
    [b"", b"x" * 40],                # a 2-item node with an empty path
    [[b"a"], b"x" * 40],             # a 2-item node with a list as path
], ids=["list-of-3", "string", "string-of-17", "empty-path", "list-path"])
def test_malformed_stored_node_raises(bad_node):
    trie, root = _corrupt_root(bad_node)
    with pytest.raises(CorruptStoreError, match=root.hex()):
        trie.get(b"\x00\x01")
    with pytest.raises(CorruptStoreError, match=root.hex()):
        trie.insert(b"new", b"v")   # mutations resolve nodes too
    with pytest.raises(CorruptStoreError, match=root.hex()):
        trie.delete(b"\x00\x01")


@pytest.mark.parametrize("path", [b"\xc0\x00", b"\x0f\x00"],
                         ids=["flag-12", "even-padding-f"])
def test_non_canonical_stored_path_raises(path):
    # The root over raw keys 0x0000-0x0031 is an extension with path 0, 0.
    # Unchecked, the flag nibble 12 or the padding nibble f would decode to
    # that same path and the walk would go on to the real child.
    trie = make_trie({i.to_bytes(2, "big"): b"v" for i in range(50)},
                     secure=False)
    root = trie.root_hash()
    extension_path, child = rlp.decode(trie.store._data[root])
    assert extension_path == hex_prefix_encode(b"\x00\x00", False)
    trie.store._data[root] = rlp.encode([path, child])
    with pytest.raises(CorruptStoreError, match=root.hex()):
        trie.get(b"\x00\x01")
    with pytest.raises(CorruptStoreError, match=root.hex()):
        trie.insert(b"\x00\x01", b"w")
    with pytest.raises(CorruptStoreError, match=root.hex()):
        trie.delete(b"\x00\x01")


def test_malformed_inline_node_names_its_stored_parent():
    # A stored root branch whose 16 children are the same malformed inline
    # node: a list of 3 items, or a 2-item node whose path item is empty,
    # a list, or has flag nibble 4. Every key walks into one.
    for inline in ([b"a", b"b", b"c"], [b"", b"v"], [[b"a"], b"v"],
                   [b"\x40", b"v"]):
        trie, root = _corrupt_root([inline] * 16 + [b""])
        with pytest.raises(CorruptStoreError, match=root.hex()):
            trie.get(b"\x00\x01")
        with pytest.raises(CorruptStoreError, match=root.hex()):
            trie.insert(b"new", b"v")
        with pytest.raises(CorruptStoreError, match=root.hex()):
            trie.delete(b"\x00\x01")


def test_reinserting_identical_node_is_idempotent():
    trie = make_trie(FIXTURE_PAIRS)
    trie.root_hash()  # commit before reading the store
    size_before = len(trie.store)
    root_before = trie.root_hash()
    trie.insert(b"key-00", b"value-00")  # same value again
    assert trie.root_hash() == root_before
    assert len(trie.store) == size_before


# ---------------------------------------------------------------------------
# commit contract: mutations are hashed and stored at root_hash()
# ---------------------------------------------------------------------------

def reachable_hashes(trie):
    """Hashes of the stored nodes reachable from the committed root."""
    seen = set()
    pending = [trie.root_hash()]
    while pending:
        ref = pending.pop()
        if isinstance(ref, bytes):
            if ref == b"" or ref in seen:
                continue
            seen.add(ref)
            node = rlp.decode(trie.store.get(ref))
        else:
            node = ref
        if len(node) == 17:
            pending.extend(node[:16])
        elif not hex_prefix_decode(node[0])[1]:
            pending.append(node[1])  # extension; a leaf holds a value
    return seen


_keys = st.binary(min_size=1, max_size=4)


@given(st.lists(st.one_of(
    st.tuples(st.just("insert"), _keys, st.binary(min_size=1, max_size=32)),
    st.tuples(st.just("delete"), _keys),
    st.tuples(st.just("get"), _keys),
    st.tuples(st.just("root"))), max_size=40))
@settings(max_examples=80, deadline=None)
def test_interleaved_mutations_gets_and_commits_match_oracle(ops):
    trie = MerklePatriciaTrie()
    mapping = {}
    for op in ops:
        if op[0] == "insert":
            trie.insert(op[1], op[2])
            mapping[op[1]] = op[2]
        elif op[0] == "delete":
            trie.delete(op[1])
            mapping.pop(op[1], None)
        elif op[0] == "get":
            assert trie.get(op[1]) == mapping.get(op[1])
        else:
            assert trie.root_hash() == oracle_root(mapping)
    assert trie.root_hash() == oracle_root(mapping)
    assert trie.key_count == len(mapping)


def test_mutations_touch_the_store_only_at_commit():
    trie = make_trie(FIXTURE_PAIRS)
    assert len(trie.store) == 0 and trie.store.work.node_writes == 0
    trie.root_hash()
    writes = trie.store.work.node_writes
    assert writes > 0
    trie.root_hash()  # nothing left dirty
    assert trie.store.work.node_writes == writes


def test_committed_store_holds_every_reachable_node():
    rng = random.Random(3)
    trie = MerklePatriciaTrie()
    pairs = {i.to_bytes(4, "big"): rng.randbytes(rng.randrange(1, 40))
             for i in range(300)}
    for key, value in pairs.items():
        trie.insert(key, value)
    reachable = reachable_hashes(trie)
    assert reachable <= set(trie.store._data)
    # one batch of distinct keys into a fresh trie stores only final nodes
    assert len(reachable) / len(trie.store) == 1
    # so a new trie over the same store opens at the committed root
    reopened = MerklePatriciaTrie(store=trie.store, root_hash=trie.root_hash())
    assert all(reopened.get(key) == value for key, value in pairs.items())
    assert reopened.root_hash() == trie.root_hash()

    victims = [rng.randbytes(8) for _ in range(20)]
    for key in victims:
        trie.insert(key, b"x")
    for key in victims[:10]:
        trie.delete(key)
    assert reachable_hashes(trie) <= set(trie.store._data)


def test_keccak_budget_is_one_hash_per_key_and_per_stored_node(monkeypatch):
    calls = 0
    real = gaslab.trie.keccak_256

    def counted(data):
        nonlocal calls
        calls += 1
        return real(data)

    monkeypatch.setattr(gaslab.trie, "keccak_256", counted)
    trie = MerklePatriciaTrie()
    for i in range(512):
        trie.insert(i.to_bytes(4, "big"), b"v")
    trie.root_hash()
    assert calls == 512 + len(trie.store)
    assert len(trie.store) == len(reachable_hashes(trie))  # final nodes only
