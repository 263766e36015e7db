"""Keccak-256 for trie node hashing.

`keccak_256` is the C sponge of the native extension (`gaslab.native`)
when that builds, and otherwise the pure-Python sponge below, which is
also the tests' reference. Both compute the Keccak-256 that the Ethereum
Yellow Paper hashes trie nodes with (appendix D), so roots do not depend
on which one ran.

The Python sponge takes the padding's domain byte: 0x01 is the original
Keccak padding that Ethereum uses, and 0x06 is NIST SHA3, which lets the
tests check the permutation against hashlib's sha3_256.
"""

from __future__ import annotations

from . import native

M = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Lane walk order and rotation amounts for the combined rho/pi step.
_PI_LANES = (10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4,
             15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1)
_ROTATIONS = (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14,
              27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44)

_RATE_BYTES = 136  # 1088-bit rate for 256-bit output


def _keccak_f1600_reference(st: list[int]) -> None:
    """24-round Keccak-f[1600], table-driven, in place."""
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [st[x] ^ st[x + 5] ^ st[x + 10] ^ st[x + 15] ^ st[x + 20]
             for x in range(5)]
        for x in range(5):
            cx = c[(x + 1) % 5]
            d = c[(x + 4) % 5] ^ (((cx << 1) | (cx >> 63)) & M)
            for y in range(0, 25, 5):
                st[x + y] ^= d

        # rho + pi
        t = st[1]
        for lane, rot in zip(_PI_LANES, _ROTATIONS):
            t, st[lane] = st[lane], ((t << rot) | (t >> (64 - rot))) & M

        # chi
        for j in (0, 5, 10, 15, 20):
            row = st[j:j + 5]
            for i in range(5):
                st[j + i] = row[i] ^ (~row[(i + 1) % 5] & row[(i + 2) % 5])

        # iota
        st[0] ^= rc


def _sponge_256(data: bytes, domain: int) -> bytes:
    """Absorb data with the given domain padding byte, squeeze 32 bytes."""
    padded = bytearray(data)
    pad_len = _RATE_BYTES - (len(padded) % _RATE_BYTES)
    padded += b"\x00" * pad_len
    padded[len(data)] ^= domain
    padded[-1] ^= 0x80

    st = [0] * 25
    for block_start in range(0, len(padded), _RATE_BYTES):
        block = padded[block_start:block_start + _RATE_BYTES]
        for i in range(17):
            st[i] ^= int.from_bytes(block[i * 8:i * 8 + 8], "little")
        _keccak_f1600_reference(st)

    return b"".join(st[i].to_bytes(8, "little") for i in range(4))


def _keccak_256_python(data: bytes) -> bytes:
    """32-byte Keccak-256 digest (original padding, as used by Ethereum)."""
    return _sponge_256(data, 0x01)


keccak_256 = (_keccak_256_python if native.module is None
              else native.module.keccak_256)
