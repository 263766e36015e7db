/* The trie commit path's byte work in C: a CPython extension module with
 * two functions.
 *
 *   keccak_256(data) -> 32-byte digest, with the original Keccak padding
 *       (domain byte 0x01), as Ethereum uses it. Lanes are read and written
 *       little-endian byte by byte, so the digest does not depend on the
 *       host's byte order.
 *   rlp_encode(item) -> the RLP encoding of a byte string (bytes or
 *       bytearray) or of an arbitrarily nested list or tuple of them.
 *
 * gaslab.native compiles this file on first import; when it cannot,
 * gaslab.keccak and gaslab.rlp keep their pure-Python functions, and the two
 * implementations must agree on every input.
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

/* RLP (Yellow Paper, appendix B). The encoder sizes the whole item first,
 * then allocates the result once and writes it back to front, so each
 * list's payload length is known when its prefix is written. Sizing and
 * writing call no Python code, so the item cannot change between them. */

/* Bytes in the big-endian length field of a long prefix. */
static int length_bytes(Py_ssize_t length)
{
    int n = 0;
    for (size_t left = (size_t)length; left; left >>= 8)
        n++;
    return n;
}

static Py_ssize_t prefix_size(Py_ssize_t length)
{
    return length <= 55 ? 1 : 1 + length_bytes(length);
}

/* Writes the prefix of a payload of `length` bytes just before `end`. */
static unsigned char *write_prefix(unsigned char *end, Py_ssize_t length,
                                   unsigned char offset)
{
    if (length <= 55) {
        *--end = (unsigned char)(offset + length);
        return end;
    }
    int n = 0;
    for (size_t left = (size_t)length; left; left >>= 8, n++)
        *--end = (unsigned char)left;
    *--end = (unsigned char)(offset + 55 + n);
    return end;
}

/* The byte string behind a bytes or bytearray, else NULL. */
static const unsigned char *string_of(PyObject *item, Py_ssize_t *length)
{
    if (PyBytes_Check(item)) {
        *length = PyBytes_GET_SIZE(item);
        return (const unsigned char *)PyBytes_AS_STRING(item);
    }
    if (PyByteArray_Check(item)) {
        *length = PyByteArray_GET_SIZE(item);
        return (const unsigned char *)PyByteArray_AS_STRING(item);
    }
    return NULL;
}

/* Whether `item` is a list or tuple; if so, sets its items and their count
 * (an empty list may have NULL items). */
static int items_of(PyObject *item, PyObject ***items, Py_ssize_t *count)
{
    if (PyList_Check(item)) {
        *items = ((PyListObject *)item)->ob_item;
        *count = PyList_GET_SIZE(item);
        return 1;
    }
    if (PyTuple_Check(item)) {
        *items = ((PyTupleObject *)item)->ob_item;
        *count = PyTuple_GET_SIZE(item);
        return 1;
    }
    return 0;
}

/* Encoded size of `item`, or -1 with an exception set. */
static Py_ssize_t encoded_size(PyObject *item)
{
    Py_ssize_t length, count;
    const unsigned char *string = string_of(item, &length);
    if (string != NULL)
        return length == 1 && string[0] < 0x80 ? 1
                                               : prefix_size(length) + length;

    PyObject **items;
    if (!items_of(item, &items, &count)) {
        PyObject *name = PyObject_GetAttrString((PyObject *)Py_TYPE(item),
                                                "__name__");
        if (name != NULL) {
            PyErr_Format(PyExc_TypeError, "cannot RLP-encode %U", name);
            Py_DECREF(name);
        }
        return -1;
    }
    if (Py_EnterRecursiveCall(" while RLP-encoding a nested list"))
        return -1;
    Py_ssize_t payload = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t size = encoded_size(items[i]);
        if (size < 0) {
            payload = -1;
            break;
        }
        /* Shared sub-lists could add up past what memory can hold. */
        if (size > PY_SSIZE_T_MAX - 16 - payload) {
            PyErr_NoMemory();
            payload = -1;
            break;
        }
        payload += size;
    }
    Py_LeaveRecursiveCall();
    return payload < 0 ? -1 : prefix_size(payload) + payload;
}

/* Writes the encoding of an item that encoded_size accepted so that it
 * ends just before `end`; returns where it starts. */
static unsigned char *write_item(PyObject *item, unsigned char *end)
{
    Py_ssize_t length, count = 0;
    const unsigned char *string = string_of(item, &length);
    if (string != NULL) {
        if (length == 1 && string[0] < 0x80) {
            *--end = string[0];
            return end;
        }
        end -= length;
        memcpy(end, string, (size_t)length);
        return write_prefix(end, length, 0x80);
    }
    PyObject **items = NULL;
    items_of(item, &items, &count);
    unsigned char *payload_end = end;
    for (Py_ssize_t i = count - 1; i >= 0; i--)
        end = write_item(items[i], end);
    return write_prefix(end, payload_end - end, 0xC0);
}

static PyObject *rlp_encode(PyObject *module, PyObject *item)
{
    Py_ssize_t size = encoded_size(item);
    if (size < 0)
        return NULL;
    /* A bytes object is not tracked by the garbage collector, so this
     * allocation runs no finalizer that could change `item`. */
    PyObject *encoded = PyBytes_FromStringAndSize(NULL, size);
    if (encoded == NULL)
        return NULL;
    write_item(item, (unsigned char *)PyBytes_AS_STRING(encoded) + size);
    return encoded;
}

static PyMethodDef methods[] = {
    {"keccak_256", keccak_256, METH_O,
     "32-byte Keccak-256 digest (original padding, as used by Ethereum)."},
    {"rlp_encode", rlp_encode, METH_O,
     "RLP encoding of bytes, bytearray, or nested lists and tuples of them."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_native",
    "Keccak-256 and RLP encoding in C for gaslab's trie commits.", -1,
    methods,
};

PyMODINIT_FUNC PyInit__native(void)
{
    return PyModule_Create(&module_def);
}
