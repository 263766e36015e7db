"""Merkle-Patricia trie over a content-addressed node store.

Nodes are RLP-shaped lists: leaf/extension nodes are ``[hex-prefix path,
value-or-ref]``, branch nodes have 16 child refs plus a value slot. A child
ref is the node structure itself when its encoding is shorter than 32 bytes,
otherwise the keccak-256 digest of the encoding. Keys are keccak-hashed
before path conversion (secure mode, default) so paths distribute uniformly;
unit tests may switch that off to build tries with known shapes.

`root_hash()` is the trie's single commit point. `insert` and `delete` only
build in-memory node lists along the touched path, so the trie is dirty
exactly while its root ref is a list. Committing encodes each dirty node
once, bottom-up, keeps encodings under 32 bytes inline, and hashes and
stores the rest; the root is always stored by hash. The store therefore
holds committed nodes only, and a batch of writes hashes its shared upper
levels once rather than once per write. `get` commits first, so every
lookup walks stored, hashed nodes.

The write path runs in C when the native module builds (`gaslab.native`):
the commit walk is one `commit` call, which encodes, hashes and stores
through `rlp.encode`, `keccak_256` and `store.put`, looked up here at each
commit, so `NodeStore.put` stays the one writer; and `insert` and `delete`
decode the stored nodes they rewrite with its `rlp_decode`, bound at
import. `_commit_python` and `rlp.decode` are the references and the
fallback. A commit that raises leaves the trie dirty, its node lists as
they were, and the next commit stores the same root.

Lookup contract: each hash-referenced level of a `get` is exactly one
`store.get` and one full, strict `rlp.decode` of the bytes it returns,
reached through the module attribute `rlp` and the trie's `store`. There is
no decoded-node cache, so a lookup's cost follows its depth (Yellow Paper,
appendix D), and `store.work.node_reads` counts that depth.

Concurrency contract: single writer, multiple readers. Mutations, and a
`get` on a dirty trie (it commits), require exclusive access; the structure
does no internal locking.
"""

from __future__ import annotations

from binascii import hexlify, unhexlify
from typing import Optional

from .clock import Work
from .keccak import keccak_256
from . import native, rlp

EMPTY_REF = b""
EMPTY_ROOT = keccak_256(rlp.encode(b""))

# Sized to hold every hot key of a desk-scale run; clearing mid-run would
# inject rehash latency spikes into lookup timings.
_KEY_PATH_CACHE_CAP = 1 << 18

_MALFORMED = "holds a node that is not a list of 2 or 17 items"
_BAD_PATH = "holds a 2-item node whose path is not a hex-prefix string"


class CorruptStoreError(KeyError):
    """A node referenced by hash is missing from the backing store, is not
    a list of 2 or 17 items, or is a 2-item node whose path item is not a
    hex-prefix string."""


# ---------------------------------------------------------------------------
# Nibble paths and hex-prefix encoding
#
# A nibble path is immutable `bytes` holding one nibble (0-15) per byte, so
# building, slicing and comparing paths runs in C. A path is converted
# through its hex digits: `hexlify` spells each byte as two ASCII digits and
# `_FROM_HEX` maps each digit to its nibble; `_TO_HEX` and `unhexlify` go
# back. A byte above 15 maps to a non-digit, which `unhexlify` rejects.
# ---------------------------------------------------------------------------

_HEX_DIGITS = b"0123456789abcdef"
_FROM_HEX = bytes(_HEX_DIGITS.find(c) & 0xFF for c in range(256))
_TO_HEX = _HEX_DIGITS + b"g" * 240
# Hex digits of the flag nibbles, by 2 * is_leaf + (odd path length).
_HEX_PREFIX_FLAGS = (b"00", b"1", b"20", b"3")
# By the first byte of a hex-prefix string: (nibbles before the path,
# is_leaf), or None when the flag nibble is above 3 or an even path's
# padding nibble is not 0.
_HEX_PREFIX_HEADS = tuple(
    (2 - (b >> 4 & 1), b >= 0x20) if b >> 4 in (1, 3) or b in (0x00, 0x20)
    else None for b in range(256))


def bytes_to_nibbles(data: bytes) -> bytes:
    """The nibbles of data, high nibble first, one per byte."""
    return hexlify(data).translate(_FROM_HEX)


def hex_prefix_encode(nibbles: bytes, is_leaf: bool) -> bytes:
    """Canonical Ethereum hex-prefix encoding of a partial path."""
    flags = _HEX_PREFIX_FLAGS[2 * is_leaf + (len(nibbles) & 1)]
    return unhexlify(flags + nibbles.translate(_TO_HEX))


def hex_prefix_decode(data: bytes) -> tuple[bytes, bool]:
    """Path and leaf flag of a hex-prefix string; ValueError unless it is
    the canonical encoding of some path."""
    head = _HEX_PREFIX_HEADS[data[0]]
    if head is None:
        raise ValueError(f"not a hex-prefix string: {data.hex()}")
    start, is_leaf = head
    return bytes_to_nibbles(data)[start:], is_leaf


# ---------------------------------------------------------------------------
# Node store
# ---------------------------------------------------------------------------

class NodeStore:
    """Content-addressed map from node hash to node encoding.

    It holds committed nodes only: the trie puts nodes here when
    `MerklePatriciaTrie.root_hash()` hashes its pending mutations.
    Re-inserting an identical node is a no-op. The store is archive-style:
    a node superseded by a later commit is never dropped, so the store
    grows with every write, not with the live state. `work` holds the run's
    work counters (see `gaslab.clock`); reads and writes count there.
    """

    def __init__(self):
        self._data: dict[bytes, bytes] = {}
        self.work = Work()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: bytes) -> bytes:
        try:
            value = self._data[key]
        except KeyError:
            raise CorruptStoreError(key.hex()) from None
        self.work.node_reads += 1
        return value

    def put(self, key: bytes, value: bytes) -> None:
        work = self.work
        work.node_writes += 1
        work.node_write_bytes += len(value)
        self._data[key] = value


# ---------------------------------------------------------------------------
# Trie
# ---------------------------------------------------------------------------

class MerklePatriciaTrie:
    """Byte-keyed trie with deterministic keccak-256 root hashes."""

    def __init__(self, store: Optional[NodeStore] = None, secure: bool = True,
                 root_hash: Optional[bytes] = None):
        self.store = store if store is not None else NodeStore()
        self.secure = secure
        self._key_path_cache: dict[bytes, bytes] = {}
        self.key_count = 0
        if root_hash is None or root_hash == EMPTY_ROOT:
            self._root_ref: rlp.RlpItem = EMPTY_REF
        else:
            self._root_ref = root_hash

    # -- public interface ---------------------------------------------------

    def root_hash(self) -> bytes:
        """Commit pending mutations and return the root hash.

        The root is always stored by hash, even when its encoding is
        shorter than 32 bytes, so every lookup reads it from the store and
        a trie over the same store opens at it with
        `MerklePatriciaTrie(store, root_hash=...)`.
        """
        if isinstance(self._root_ref, list):
            ref = _commit(self._root_ref, rlp.encode, keccak_256,
                          self.store.put)
            if isinstance(ref, list):   # a short root is still stored
                encoded = rlp.encode(ref)
                ref = keccak_256(encoded)
                self.store.put(ref, encoded)
            self._root_ref = ref
        if self._root_ref == EMPTY_REF:
            return EMPTY_ROOT
        return self._root_ref

    def get(self, key: bytes) -> Optional[bytes]:
        """Value last inserted for key, or None.

        Each level of the walk is one `store.get`, so the lookup's depth is
        the change in `store.work.node_reads` across the call.
        """
        self.root_hash()  # lookups walk committed nodes only
        path = self._path_of(key)
        ref = self._root_ref
        digest = ref   # the stored node the current one was read from
        i = 0          # nibbles of path consumed so far
        while True:
            if ref == EMPTY_REF:
                return None
            if isinstance(ref, list):
                node = ref
            else:
                node = rlp.decode(self.store.get(ref))
                if not isinstance(node, list):
                    raise CorruptStoreError(f"{ref.hex()}: {_MALFORMED}")
                digest = ref
            size = len(node)
            if size == 17:
                if i == len(path):
                    return node[16] if node[16] != b"" else None
                ref = node[path[i]]
                i += 1
            elif size == 2:
                try:
                    node_path, is_leaf = hex_prefix_decode(node[0])
                except (IndexError, TypeError, ValueError):  # b"", list, flags
                    raise CorruptStoreError(
                        f"{digest.hex()}: {_BAD_PATH}") from None
                if is_leaf:
                    return node[1] if node_path == path[i:] else None
                end = i + len(node_path)
                if path[i:end] != node_path:
                    return None
                ref = node[1]
                i = end
            else:
                raise CorruptStoreError(f"{digest.hex()}: {_MALFORMED}")

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert or update; an empty value is a delete request."""
        if value == b"":
            self.delete(key)
            return
        self._root_ref, created = self._insert(self._root_ref,
                                               self._path_of(key), value)
        if created:
            self.key_count += 1

    def delete(self, key: bytes) -> None:
        self._root_ref, deleted = self._delete(self._root_ref,
                                               self._path_of(key))
        if deleted:
            self.key_count -= 1

    # -- internals ----------------------------------------------------------

    def _path_of(self, key: bytes) -> bytes:
        if not self.secure:
            return bytes_to_nibbles(key)
        path = self._key_path_cache.get(key)
        if path is None:
            path = bytes_to_nibbles(keccak_256(key))
            if len(self._key_path_cache) >= _KEY_PATH_CACHE_CAP:
                self._key_path_cache.clear()
            self._key_path_cache[key] = path
        self.store.work.key_hashes += 1
        return path

    def _resolve(self, ref: rlp.RlpItem) -> Optional[list]:
        if ref == EMPTY_REF:
            return None
        if isinstance(ref, list):
            return ref
        decoded = _decode_stored(self.store.get(ref))
        if not isinstance(decoded, list):
            raise CorruptStoreError(f"{ref.hex()}: {_MALFORMED}")
        return decoded

    def _insert(self, ref: rlp.RlpItem, path: bytes, value: bytes,
                holder: bytes = EMPTY_REF) -> tuple[rlp.RlpItem, bool]:
        node = self._resolve(ref)
        if node is None:
            return [hex_prefix_encode(path, True), value], True
        holder = holder if node is ref else ref   # nearest stored node

        if len(node) == 17:
            if not path:
                created = node[16] == b""
                return node[:16] + [value], created
            child_ref, created = self._insert(node[path[0]], path[1:], value,
                                              holder)
            new_branch = list(node)
            new_branch[path[0]] = child_ref
            return new_branch, created

        node_path, is_leaf = _short_path(node, holder)
        common = _common_prefix(node_path, path)

        if is_leaf and common == len(node_path) == len(path):
            return [node[0], value], False
        if not is_leaf and common == len(node_path):
            child_ref, created = self._insert(node[1], path[common:], value,
                                              holder)
            return [node[0], child_ref], created

        # Diverge: split into a branch under the shared prefix.
        branch: list = [EMPTY_REF] * 16 + [b""]
        old_rest = node_path[common:]
        if is_leaf:
            if old_rest:
                branch[old_rest[0]] = [hex_prefix_encode(old_rest[1:], True),
                                       node[1]]
            else:
                branch[16] = node[1]
        else:
            # old_rest is non-empty here: common < len(node_path)
            if len(old_rest) == 1:
                branch[old_rest[0]] = node[1]
            else:
                branch[old_rest[0]] = [hex_prefix_encode(old_rest[1:], False),
                                       node[1]]

        new_rest = path[common:]
        if new_rest:
            branch[new_rest[0]] = [hex_prefix_encode(new_rest[1:], True),
                                   value]
        else:
            branch[16] = value

        if common:
            return [hex_prefix_encode(path[:common], False), branch], True
        return branch, True

    def _delete(self, ref: rlp.RlpItem, path: bytes,
                holder: bytes = EMPTY_REF) -> tuple[rlp.RlpItem, bool]:
        node = self._resolve(ref)
        if node is None:
            return ref, False
        holder = holder if node is ref else ref

        if len(node) == 17:
            if not path:
                if node[16] == b"":
                    return ref, False
                return self._normalize_branch(node[:16] + [b""], holder), True
            child_ref, deleted = self._delete(node[path[0]], path[1:], holder)
            if not deleted:
                return ref, False
            new_branch = list(node)
            new_branch[path[0]] = child_ref
            return self._normalize_branch(new_branch, holder), True

        node_path, is_leaf = _short_path(node, holder)
        if is_leaf:
            if node_path == path:
                return EMPTY_REF, True
            return ref, False
        if path[:len(node_path)] != node_path:
            return ref, False
        child_ref, deleted = self._delete(node[1], path[len(node_path):],
                                          holder)
        if not deleted:
            return ref, False
        return self._merge_extension(node_path, child_ref, holder), True

    def _normalize_branch(self, branch: list, holder: bytes) -> rlp.RlpItem:
        """Collapse a branch left with zero or one occupant after a delete."""
        live = [i for i in range(16) if branch[i] != EMPTY_REF]
        has_value = branch[16] != b""

        if not live and not has_value:
            return EMPTY_REF
        if not live:
            return [hex_prefix_encode(b"", True), branch[16]]
        if len(live) > 1 or has_value:
            return branch

        idx = live[0]
        return self._merge_extension(bytes((idx,)), branch[idx], holder)

    def _merge_extension(self, prefix: bytes, child_ref: rlp.RlpItem,
                         holder: bytes) -> rlp.RlpItem:
        """Graft prefix onto child, fusing chained short nodes."""
        if child_ref == EMPTY_REF:
            return EMPTY_REF
        child = self._resolve(child_ref)
        assert child is not None
        if len(child) == 17:
            return [hex_prefix_encode(prefix, False), child_ref]
        child_path, is_leaf = _short_path(
            child, holder if child is child_ref else child_ref)
        return [hex_prefix_encode(prefix + child_path, is_leaf), child[1]]


def _commit_python(node: list, encode, keccak, put) -> rlp.RlpItem:
    """Ref of a dirty node after committing the dirty nodes under it,
    bottom-up and children left to right: a copy of the node with its
    children's refs if its encoding is under 32 bytes, else the digest
    under which `put` stored the encoding.

    Values are bytes, so every list item of a node is a child node.
    """
    node = [_commit_python(item, encode, keccak, put)
            if isinstance(item, list) else item for item in node]
    encoded = encode(node)
    if len(encoded) < 32:
        return node
    digest = keccak(encoded)
    put(digest, encoded)
    return digest


# The write path in C when the native module built (see the module
# docstring); the lookup path keeps `rlp.decode` in every build.
_commit = _commit_python if native.module is None else native.module.commit
_decode_stored = (rlp.decode if native.module is None
                  else native.module.rlp_decode)


def _short_path(node: list, holder: bytes) -> tuple[bytes, bool]:
    """Path and leaf flag of a node that is not a branch; a fault names
    `holder`, the node itself if stored, else the stored node holding it."""
    if len(node) != 2:
        raise CorruptStoreError(f"{holder.hex()}: {_MALFORMED}")
    try:
        return hex_prefix_decode(node[0])
    except (IndexError, TypeError, ValueError):  # b"", list, flags
        raise CorruptStoreError(f"{holder.hex()}: {_BAD_PATH}") from None


def _common_prefix(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n
