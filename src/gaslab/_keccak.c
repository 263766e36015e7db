/* Keccak-256 with the original Keccak padding (domain byte 0x01), as
 * Ethereum uses it: a CPython extension module with one function,
 * keccak_256(data) -> 32-byte digest.
 *
 * gaslab.keccak compiles this file on first import and falls back to its
 * pure-Python sponge when it cannot; the two must agree on every input.
 * Lanes are read and written little-endian byte by byte, so the digest does
 * not depend on the host's byte order.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define RATE 136 /* bytes: the 1088-bit rate of a 256-bit output */

static const uint64_t ROUND_CONSTANTS[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808AULL,
    0x8000000080008000ULL, 0x000000000000808BULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008AULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000AULL,
    0x000000008000808BULL, 0x800000000000008BULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800AULL, 0x800000008000000AULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

/* Lane walk order and rotation amounts for the combined rho/pi step. */
static const int PI_LANES[24] = {10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4,
                                 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1};
static const int ROTATIONS[24] = {1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14,
                                  27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44};

/* Every rotation amount is in 1..63, so neither shift is by 64. */
#define ROL(x, n) (((x) << (n)) | ((x) >> (64 - (n))))

static void keccak_f1600(uint64_t st[25])
{
    uint64_t c[5], d, t, next;
    for (int round = 0; round < 24; round++) {
        /* theta */
        for (int x = 0; x < 5; x++)
            c[x] = st[x] ^ st[x + 5] ^ st[x + 10] ^ st[x + 15] ^ st[x + 20];
        for (int x = 0; x < 5; x++) {
            d = c[(x + 4) % 5] ^ ROL(c[(x + 1) % 5], 1);
            for (int y = 0; y < 25; y += 5)
                st[x + y] ^= d;
        }
        /* rho + pi */
        t = st[1];
        for (int i = 0; i < 24; i++) {
            next = st[PI_LANES[i]];
            st[PI_LANES[i]] = ROL(t, ROTATIONS[i]);
            t = next;
        }
        /* chi */
        for (int y = 0; y < 25; y += 5) {
            for (int x = 0; x < 5; x++)
                c[x] = st[y + x];
            for (int x = 0; x < 5; x++)
                st[y + x] = c[x] ^ (~c[(x + 1) % 5] & c[(x + 2) % 5]);
        }
        /* iota */
        st[0] ^= ROUND_CONSTANTS[round];
    }
}

static void absorb(uint64_t st[25], const unsigned char *block)
{
    for (int i = 0; i < RATE / 8; i++) {
        uint64_t lane = 0;
        for (int b = 7; b >= 0; b--)
            lane = (lane << 8) | block[8 * i + b];
        st[i] ^= lane;
    }
    keccak_f1600(st);
}

static PyObject *keccak_256(PyObject *module, PyObject *data)
{
    Py_buffer view;
    uint64_t st[25] = {0};
    unsigned char last[RATE] = {0};
    unsigned char digest[32];

    if (PyObject_GetBuffer(data, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const unsigned char *p = view.buf;
    Py_ssize_t left = view.len;
    for (; left >= RATE; p += RATE, left -= RATE)
        absorb(st, p);
    memcpy(last, p, (size_t)left);
    PyBuffer_Release(&view);
    last[left] ^= 0x01;
    last[RATE - 1] ^= 0x80;
    absorb(st, last);

    for (int i = 0; i < 32; i++)
        digest[i] = (unsigned char)(st[i / 8] >> (8 * (i % 8)));
    return PyBytes_FromStringAndSize((const char *)digest, 32);
}

static PyMethodDef methods[] = {
    {"keccak_256", keccak_256, METH_O,
     "32-byte Keccak-256 digest (original padding, as used by Ethereum)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_keccak",
    "Keccak-256 sponge in C for gaslab's trie hashing.", -1, methods,
};

PyMODINIT_FUNC PyInit__keccak(void)
{
    return PyModule_Create(&module_def);
}
