/* gaslab's byte work in C: a CPython extension module with six functions.
 *
 *   keccak_256(data) -> 32-byte digest, with the original Keccak padding
 *       (domain byte 0x01), as Ethereum uses it. The permutation keeps its
 *       25 lanes in locals; lanes are read and written little-endian byte
 *       by byte, so the digest does not depend on the host's byte order.
 *   rlp_encode(item) -> the RLP encoding of a byte string (bytes or
 *       bytearray) or of an arbitrarily nested list or tuple of them.
 *   rlp_decode(data) -> the item of a bytes object that holds exactly one
 *       RLP encoding. It accepts and rejects what gaslab.rlp.decode does
 *       and raises gaslab.rlp.RLPError with the same message; the trie's
 *       write path resolves stored nodes with it, and lookups keep the
 *       Python decoder.
 *   commit(node, encode, keccak, put) -> the ref of a dirty trie node:
 *       the dirty nodes under it are committed bottom-up, children left
 *       to right, and each is encoded, hashed and stored through the
 *       callables given; gaslab.trie._commit_python is the reference.
 *   assemble(seed, snippets, cumulative, transactions, length,
 *            fresh_key_rate, pool) -> (codes, pool): one block's programs,
 *       drawn from a Mersenne Twister seeded and read exactly as CPython's
 *       random.Random; gaslab.workload._assemble_python is the reference.
 *   interpret(operations, halt, statuses, machine) -> None: the
 *       interpreter's dispatch loop, which runs a Machine until it halts.
 *       It runs PUSH1-32, STOP, PC and the effects that need only the
 *       stack itself, and calls its Python handlers for every other
 *       effect. It charges gas on a C int64 where the gas and the cost
 *       fit one, adds each instruction's sample into the sink's int64
 *       window arrays as the instruction ends, and under WallClock reads
 *       the clock in C; gaslab.evm.machine._loop_python and its handlers
 *       are the reference.
 *
 * gaslab.native compiles this file on first import; when it cannot,
 * gaslab.keccak, gaslab.rlp, gaslab.trie, gaslab.workload and
 * gaslab.evm.machine keep their pure-Python functions, and the two
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

/* Every rotation amount is in 1..63, so neither shift is by 64. */
#define ROL(x, n) (((x) << (n)) | ((x) >> (64 - (n))))

/* Keccak-f[1600] with the state in 25 local lanes, a[x + 5y], and each
 * step written out lane by lane (Bertoni et al., "The Keccak reference",
 * 2011): theta folds into the rotations of rho and pi, which write b, and
 * chi writes b back into a. Only the 24 rounds stay a loop. */
static void keccak_f1600(uint64_t st[25])
{
    uint64_t a00 = st[0], a01 = st[1], a02 = st[2], a03 = st[3], a04 = st[4];
    uint64_t a05 = st[5], a06 = st[6], a07 = st[7], a08 = st[8], a09 = st[9];
    uint64_t a10 = st[10], a11 = st[11], a12 = st[12], a13 = st[13],
        a14 = st[14];
    uint64_t a15 = st[15], a16 = st[16], a17 = st[17], a18 = st[18],
        a19 = st[19];
    uint64_t a20 = st[20], a21 = st[21], a22 = st[22], a23 = st[23],
        a24 = st[24];
    uint64_t b00, b01, b02, b03, b04, b05, b06, b07, b08, b09, b10, b11, b12,
        b13, b14, b15, b16, b17, b18, b19, b20, b21, b22, b23, b24;
    uint64_t c0, c1, c2, c3, c4, d0, d1, d2, d3, d4;
    for (int round = 0; round < 24; round++) {
        /* theta */
        c0 = a00 ^ a05 ^ a10 ^ a15 ^ a20;
        c1 = a01 ^ a06 ^ a11 ^ a16 ^ a21;
        c2 = a02 ^ a07 ^ a12 ^ a17 ^ a22;
        c3 = a03 ^ a08 ^ a13 ^ a18 ^ a23;
        c4 = a04 ^ a09 ^ a14 ^ a19 ^ a24;
        d0 = c4 ^ ROL(c1, 1);
        d1 = c0 ^ ROL(c2, 1);
        d2 = c1 ^ ROL(c3, 1);
        d3 = c2 ^ ROL(c4, 1);
        d4 = c3 ^ ROL(c0, 1);
        /* rho and pi: b[y, 2x + 3y] = ROL(a[x, y] ^ d[x], r[x, y]) */
        b00 = a00 ^ d0;
        b01 = ROL(a06 ^ d1, 44);
        b02 = ROL(a12 ^ d2, 43);
        b03 = ROL(a18 ^ d3, 21);
        b04 = ROL(a24 ^ d4, 14);
        b05 = ROL(a03 ^ d3, 28);
        b06 = ROL(a09 ^ d4, 20);
        b07 = ROL(a10 ^ d0, 3);
        b08 = ROL(a16 ^ d1, 45);
        b09 = ROL(a22 ^ d2, 61);
        b10 = ROL(a01 ^ d1, 1);
        b11 = ROL(a07 ^ d2, 6);
        b12 = ROL(a13 ^ d3, 25);
        b13 = ROL(a19 ^ d4, 8);
        b14 = ROL(a20 ^ d0, 18);
        b15 = ROL(a04 ^ d4, 27);
        b16 = ROL(a05 ^ d0, 36);
        b17 = ROL(a11 ^ d1, 10);
        b18 = ROL(a17 ^ d2, 15);
        b19 = ROL(a23 ^ d3, 56);
        b20 = ROL(a02 ^ d2, 62);
        b21 = ROL(a08 ^ d3, 55);
        b22 = ROL(a14 ^ d4, 39);
        b23 = ROL(a15 ^ d0, 41);
        b24 = ROL(a21 ^ d1, 2);
        /* chi and iota */
        a00 = b00 ^ (~b01 & b02) ^ ROUND_CONSTANTS[round];
        a01 = b01 ^ (~b02 & b03);
        a02 = b02 ^ (~b03 & b04);
        a03 = b03 ^ (~b04 & b00);
        a04 = b04 ^ (~b00 & b01);
        a05 = b05 ^ (~b06 & b07);
        a06 = b06 ^ (~b07 & b08);
        a07 = b07 ^ (~b08 & b09);
        a08 = b08 ^ (~b09 & b05);
        a09 = b09 ^ (~b05 & b06);
        a10 = b10 ^ (~b11 & b12);
        a11 = b11 ^ (~b12 & b13);
        a12 = b12 ^ (~b13 & b14);
        a13 = b13 ^ (~b14 & b10);
        a14 = b14 ^ (~b10 & b11);
        a15 = b15 ^ (~b16 & b17);
        a16 = b16 ^ (~b17 & b18);
        a17 = b17 ^ (~b18 & b19);
        a18 = b18 ^ (~b19 & b15);
        a19 = b19 ^ (~b15 & b16);
        a20 = b20 ^ (~b21 & b22);
        a21 = b21 ^ (~b22 & b23);
        a22 = b22 ^ (~b23 & b24);
        a23 = b23 ^ (~b24 & b20);
        a24 = b24 ^ (~b20 & b21);
    }
    st[0] = a00; st[1] = a01; st[2] = a02; st[3] = a03; st[4] = a04;
    st[5] = a05; st[6] = a06; st[7] = a07; st[8] = a08; st[9] = a09;
    st[10] = a10; st[11] = a11; st[12] = a12; st[13] = a13; st[14] = a14;
    st[15] = a15; st[16] = a16; st[17] = a17; st[18] = a18; st[19] = a19;
    st[20] = a20; st[21] = a21; st[22] = a22; st[23] = a23; st[24] = a24;
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

static PyObject *keccak_256(PyObject *Py_UNUSED(module), PyObject *data)
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

static PyObject *rlp_encode(PyObject *Py_UNUSED(module), PyObject *item)
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

/* The RLP decoder of the trie's write path: gaslab.trie resolves the stored
 * nodes that an insert or a delete rewrites through rlp_decode, while a
 * lookup keeps the Python gaslab.rlp.decode, whose per-level cost gaslab
 * measures. It accepts and rejects exactly what gaslab.rlp.decode does, in
 * the same order of checks, and raises gaslab.rlp.RLPError with the same
 * message; that class is looked up on the first error. */

static PyObject *rlp_error;

/* gaslab.rlp.RLPError (a borrowed reference), or NULL with an exception
 * set. */
static PyObject *rlp_error_type(void)
{
    if (rlp_error == NULL) {
        PyObject *rlp = PyImport_ImportModule("gaslab.rlp");
        if (rlp == NULL)
            return NULL;
        rlp_error = PyObject_GetAttrString(rlp, "RLPError");
        Py_DECREF(rlp);
    }
    return rlp_error;
}

/* Sets RLPError(message) and returns NULL. */
static PyObject *decode_error(const char *message)
{
    PyObject *type = rlp_error_type();
    if (type != NULL)
        PyErr_SetString(type, message);
    return NULL;
}

/* Payload start and length of the prefix at data[pos], whose first byte is
 * `tag`, for strings (offset 0x80) or lists (0xC0); -1 with RLPError set
 * on a prefix that gaslab.rlp._read_length rejects. */
static int read_length(const unsigned char *data, Py_ssize_t size,
                       Py_ssize_t pos, int tag, int offset,
                       Py_ssize_t *start, Py_ssize_t *length)
{
    uint64_t value;
    if (tag <= offset + 55) {
        value = (uint64_t)(tag - offset);
        *start = pos + 1;
    } else {
        int n = tag - offset - 55;   /* 1..8 bytes of length */
        if (pos + 1 + n > size) {
            decode_error("truncated length field");
            return -1;
        }
        if (data[pos + 1] == 0) {
            decode_error("length field has leading zero");
            return -1;
        }
        value = 0;
        for (int i = 1; i <= n; i++)
            value = value << 8 | data[pos + i];
        if (value <= 55) {
            decode_error("non-minimal length encoding");
            return -1;
        }
        *start = pos + 1 + n;
    }
    if (value > (uint64_t)(size - *start)) {
        decode_error("payload extends past end of input");
        return -1;
    }
    *length = (Py_ssize_t)value;
    return 0;
}

/* The item encoded at data[pos], and in *next the position after it, as
 * gaslab.rlp._decode_at: a list's single bytes and short strings are read
 * in its own loop, long strings and nested lists recurse. */
static PyObject *decode_at(const unsigned char *data, Py_ssize_t size,
                           Py_ssize_t pos, Py_ssize_t *next)
{
    Py_ssize_t start, length;
    if (pos >= size)
        return decode_error("unexpected end of input");
    int tag = data[pos];
    if (tag < 0x80) {
        *next = pos + 1;
        return PyBytes_FromStringAndSize((const char *)data + pos, 1);
    }
    if (tag <= 0xBF) {
        if (read_length(data, size, pos, tag, 0x80, &start, &length) < 0)
            return NULL;
        if (tag <= 0xB7 && length == 1 && data[start] < 0x80)
            return decode_error("non-canonical single byte");
        *next = start + length;
        return PyBytes_FromStringAndSize((const char *)data + start, length);
    }

    if (read_length(data, size, pos, tag, 0xC0, &start, &length) < 0)
        return NULL;
    if (Py_EnterRecursiveCall(" while decoding a nested RLP list"))
        return NULL;
    Py_ssize_t end = start + length, cursor = start;
    PyObject *items = PyList_New(0), *item = NULL;
    while (items != NULL && cursor < end) {
        tag = data[cursor];
        if (tag < 0x80) {
            item = PyBytes_FromStringAndSize((const char *)data + cursor, 1);
            cursor++;
        } else if (tag <= 0xB7) {
            start = cursor + 1;
            cursor = start + tag - 0x80;
            if (cursor > end)
                item = decode_error("list item overruns list payload");
            else if (tag == 0x81 && data[start] < 0x80)
                item = decode_error("non-canonical single byte");
            else
                item = PyBytes_FromStringAndSize((const char *)data + start,
                                                 tag - 0x80);
        } else {
            item = decode_at(data, size, cursor, &cursor);
            if (item != NULL && cursor > end) {
                Py_CLEAR(item);
                decode_error("list item overruns list payload");
            }
        }
        if (item == NULL || PyList_Append(items, item) < 0)
            Py_CLEAR(items);
        Py_XDECREF(item);
    }
    Py_LeaveRecursiveCall();
    *next = end;
    return items;
}

static PyObject *rlp_decode(PyObject *Py_UNUSED(module), PyObject *data)
{
    Py_ssize_t consumed;
    if (!PyBytes_Check(data))
        return PyErr_Format(PyExc_TypeError, "rlp_decode takes bytes, not %s",
                            Py_TYPE(data)->tp_name);
    Py_ssize_t size = PyBytes_GET_SIZE(data);
    PyObject *item = decode_at((const unsigned char *)PyBytes_AS_STRING(data),
                               size, 0, &consumed);
    if (item != NULL && consumed != size) {
        Py_DECREF(item);
        PyObject *type = rlp_error_type();
        return type == NULL ? NULL : PyErr_Format(
            type, "trailing bytes after RLP item (%zd)", size - consumed);
    }
    return item;
}

/* The trie's commit (gaslab.trie._commit_python is the reference): the ref
 * of a dirty node after committing the dirty nodes under it, bottom-up and
 * children left to right. Each is copied with its children's refs in place
 * and encoded once; an encoding under 32 bytes keeps the copy inline as the
 * ref, and any other is hashed and stored, and its digest is the ref. The
 * encoder, the hash and the store's put are the callables given, so every
 * write goes through the store. The dirty lists are only read, so a commit
 * that fails leaves them as they were. */
static PyObject *commit_node(PyObject *node, PyObject *encode,
                             PyObject *keccak, PyObject *put)
{
    if (Py_EnterRecursiveCall(" while committing a trie node"))
        return NULL;
    PyObject *ref = NULL, *encoded = NULL, *digest = NULL;
    PyObject *copy = PyList_GetSlice(node, 0, PyList_GET_SIZE(node));
    if (copy == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(copy); i++) {
        PyObject *child = PyList_GET_ITEM(copy, i);
        if (PyList_Check(child)) {
            PyObject *child_ref = commit_node(child, encode, keccak, put);
            if (child_ref == NULL)
                goto done;
            PyList_SET_ITEM(copy, i, child_ref);
            Py_DECREF(child);
        }
    }
    if ((encoded = PyObject_CallOneArg(encode, copy)) == NULL)
        goto done;
    Py_ssize_t size = PyObject_Size(encoded);
    if (size < 0)
        goto done;
    if (size < 32) {
        ref = copy;
        copy = NULL;
        goto done;
    }
    if ((digest = PyObject_CallOneArg(keccak, encoded)) == NULL)
        goto done;
    PyObject *args[2] = {digest, encoded};
    PyObject *stored = PyObject_Vectorcall(put, args, 2, NULL);
    if (stored != NULL) {
        Py_DECREF(stored);
        ref = digest;
        digest = NULL;
    }
done:
    Py_XDECREF(copy);
    Py_XDECREF(encoded);
    Py_XDECREF(digest);
    Py_LeaveRecursiveCall();
    return ref;
}

static PyObject *commit(PyObject *Py_UNUSED(module), PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError,
                            "commit takes 4 arguments (%zd given)", nargs);
    if (!PyList_Check(args[0]))
        return PyErr_Format(PyExc_TypeError,
                            "commit takes a list node, not %s",
                            Py_TYPE(args[0])->tp_name);
    return commit_node(args[0], args[1], args[2], args[3]);
}

/* Block assembly (gaslab.workload). The draws come from MT19937 (Matsumoto
 * and Nishimura, ACM TOMACS 1998), seeded and read as CPython's
 * Modules/_randommodule.c does, so each one equals random.Random's for the
 * same seed. */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t state[MT_N];
    int index;
} Twister;

/* The state after init_genrand(19650218), where every seeding starts; set
 * once by PyInit__native. */
static uint32_t mt_start[MT_N];

/* init_by_array over `key`, as Random.seed does for an int. */
static void mt_seed(Twister *mt, const uint32_t *key, size_t length)
{
    uint32_t *s = mt->state;
    size_t i = 1, j = 0, k;

    memcpy(s, mt_start, sizeof mt_start);
    for (k = MT_N > length ? MT_N : length; k; k--) {
        s[i] = (s[i] ^ ((s[i - 1] ^ (s[i - 1] >> 30)) * 1664525U))
               + key[j] + (uint32_t)j;
        if (++i >= MT_N) {
            s[0] = s[MT_N - 1];
            i = 1;
        }
        if (++j >= length)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        s[i] = (s[i] ^ ((s[i - 1] ^ (s[i - 1] >> 30)) * 1566083941U))
               - (uint32_t)i;
        if (++i >= MT_N) {
            s[0] = s[MT_N - 1];
            i = 1;
        }
    }
    s[0] = 0x80000000U;
    mt->index = MT_N;
}

#define TWIST(a, b, c) \
    ((c) ^ ((((a) & 0x80000000U) | ((b) & 0x7fffffffU)) >> 1) \
     ^ ((b) & 1U ? 0x9908b0dfU : 0U))

/* The next 32-bit output (genrand_uint32). */
static uint32_t mt_next(Twister *mt)
{
    uint32_t *s = mt->state, y;
    if (mt->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++)
            s[kk] = TWIST(s[kk], s[kk + 1], s[kk + MT_M]);
        for (; kk < MT_N - 1; kk++)
            s[kk] = TWIST(s[kk], s[kk + 1], s[kk + MT_M - MT_N]);
        s[MT_N - 1] = TWIST(s[MT_N - 1], s[0], s[MT_M - 1]);
        mt->index = 0;
    }
    y = s[mt->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* getrandbits(k) for 1 <= k <= 64: words fill the result from its least
 * significant end, and the last one is shifted right to the bits left. */
static uint64_t mt_bits(Twister *mt, int k)
{
    if (k <= 32)
        return mt_next(mt) >> (32 - k);
    uint64_t low = mt_next(mt);
    return low | (uint64_t)(mt_next(mt) >> (64 - k)) << 32;
}

/* random(): 53 bits from two outputs. */
static double mt_random(Twister *mt)
{
    uint32_t a = mt_next(mt) >> 5;
    uint32_t b = mt_next(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n) for 1 <= n < 2**64: getrandbits(n.bit_length()) until the
 * draw is below n (Random._randbelow_with_getrandbits). */
static uint64_t mt_below(Twister *mt, uint64_t n)
{
    int k = 0;
    uint64_t r;
    for (uint64_t left = n; left; left >>= 1)
        k++;
    do
        r = mt_bits(mt, k);
    while (r >= n);
    return r;
}

/* Seeds `mt` as Random.seed(seed) does for an int: init_by_array over the
 * 32-bit words of abs(seed), least significant first, where zero gives the
 * key [0]. Returns -1 with an exception set on failure. */
static int seed_twister(Twister *mt, PyObject *seed)
{
    /* An exact int, so that abs, bit_length and to_bytes are int's own. */
    if (!PyLong_CheckExact(seed)) {
        PyErr_SetString(PyExc_TypeError, "seed must be an int");
        return -1;
    }
    PyObject *n = PyNumber_Absolute(seed);
    if (n == NULL)
        return -1;
    unsigned long long small = PyLong_AsUnsignedLongLong(n);
    if (!(small == (unsigned long long)-1 && PyErr_Occurred())) {
        uint32_t key[2] = {(uint32_t)small, (uint32_t)(small >> 32)};
        Py_DECREF(n);
        mt_seed(mt, key, key[1] ? 2 : 1);
        return 0;
    }
    /* At least 2**64: the words come from int.to_bytes. */
    PyErr_Clear();
    Py_ssize_t words = 0;
    PyObject *data = NULL, *bits = PyObject_CallMethod(n, "bit_length", NULL);
    if (bits != NULL) {
        words = (PyLong_AsSsize_t(bits) + 31) / 32;
        data = PyObject_CallMethod(n, "to_bytes", "ns", 4 * words, "little");
        Py_DECREF(bits);
    }
    Py_DECREF(n);
    if (data == NULL)
        return -1;
    uint32_t *key = PyMem_Malloc(words * sizeof *key);
    if (key == NULL) {
        Py_DECREF(data);
        PyErr_NoMemory();
        return -1;
    }
    const unsigned char *b = (const unsigned char *)PyBytes_AS_STRING(data);
    for (Py_ssize_t i = 0; i < words; i++, b += 4)
        key[i] = b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16
                 | (uint32_t)b[3] << 24;
    Py_DECREF(data);
    mt_seed(mt, key, (size_t)words);
    PyMem_Free(key);
    return 0;
}

/* One program's bytes, grown as needed. */
typedef struct {
    unsigned char *data;
    size_t size, capacity;
} Buffer;

/* Room for `more` bytes at the end of `buf`, or NULL with MemoryError
 * set. */
static unsigned char *reserve(Buffer *buf, size_t more)
{
    if (buf->data == NULL || buf->size + more > buf->capacity) {
        size_t capacity = buf->capacity ? buf->capacity : 1024;
        while (capacity < buf->size + more)
            capacity *= 2;
        unsigned char *data = PyMem_Realloc(buf->data, capacity);
        if (data == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        buf->data = data;
        buf->capacity = capacity;
    }
    return buf->data + buf->size;
}

static int append(Buffer *buf, PyObject *bytes)
{
    Py_ssize_t size = PyBytes_GET_SIZE(bytes);
    unsigned char *out = reserve(buf, (size_t)size);
    if (out == NULL)
        return -1;
    memcpy(out, PyBytes_AS_STRING(bytes), (size_t)size);
    buf->size += (size_t)size;
    return 0;
}

#define PUSH1 0x60

/* A literal operand (_OPERANDS): PUSHw and w bytes, w = 2 +
 * randrange(31), value = randrange(256**(w-1), 256**w). */
static int push_operand(Twister *mt, Buffer *buf)
{
    unsigned char r[32]; /* getrandbits(8 * w), little-endian */
    uint32_t w;
    do
        w = mt_next(mt) >> 27; /* getrandbits(5) */
    while (w >= 31);
    int width = (int)w + 2;
    /* The value less its low bound, redrawn while at or above
     * 255 * 256**(w-1), that is while its top byte is 0xFF. */
    do {
        for (int i = 0, left = 8 * width; left > 0; i += 4, left -= 32) {
            uint32_t word = mt_next(mt);
            if (left < 32)
                word >>= 32 - left;
            r[i] = (unsigned char)word;
            r[i + 1] = (unsigned char)(word >> 8);
            r[i + 2] = (unsigned char)(word >> 16);
            r[i + 3] = (unsigned char)(word >> 24);
        }
    } while (r[width - 1] == 0xFF);
    unsigned char *out = reserve(buf, 1 + (size_t)width);
    if (out == NULL)
        return -1;
    out[0] = (unsigned char)(PUSH1 + width - 1);
    out[1] = (unsigned char)(r[width - 1] + 1); /* adds the low bound */
    for (int i = 2; i <= width; i++)
        out[i] = r[width - i];
    buf->size += 1 + (size_t)width;
    return 0;
}

/* _push_slot: PUSH4 below 2**32, else the smallest PUSH that holds the
 * slot (push_for). */
static int push_slot(Buffer *buf, uint64_t slot)
{
    int width = 4;
    while (width < 8 && slot >> 8 * width)
        width++;
    unsigned char *out = reserve(buf, 1 + (size_t)width);
    if (out == NULL)
        return -1;
    out[0] = (unsigned char)(PUSH1 + width - 1);
    for (int i = width; i > 0; i--, slot >>= 8)
        out[i] = (unsigned char)slot;
    buf->size += 1 + (size_t)width;
    return 0;
}

/* gaslab.workload's snippet kinds. */
enum { TAIL, PICK, READ, WRITE };

typedef struct {
    Py_ssize_t operands;
    long kind;
    PyObject *tail; /* bytes; for PICK a non-empty tuple of them */
} Snippet;

#define POOL_LIMIT "the storage pool must stay below 2**64"

/* assemble(seed, snippets, cumulative, transactions, length,
 * fresh_key_rate, pool): gaslab.workload._assemble_python in C. The pool
 * must stay below 2**64: a pool at that size, or a fresh write that would
 * take it there, raises OverflowError. */
static PyObject *assemble(PyObject *Py_UNUSED(module), PyObject *const *args,
                          Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError,
                     "assemble takes 7 arguments (%zd given)", nargs);
        return NULL;
    }
    Twister mt;
    Py_ssize_t transactions = PyLong_AsSsize_t(args[3]);
    Py_ssize_t length = PyLong_AsSsize_t(args[4]);
    double rate = PyFloat_AsDouble(args[5]);
    if (PyErr_Occurred() || seed_twister(&mt, args[0]) < 0)
        return NULL;
    if (!PyLong_Check(args[6])) {
        PyErr_SetString(PyExc_TypeError, "pool must be an int");
        return NULL;
    }
    unsigned long long pool = PyLong_AsUnsignedLongLong(args[6]);
    if (pool == (unsigned long long)-1 && PyErr_Occurred()) {
        PyErr_SetString(PyExc_OverflowError, POOL_LIMIT);
        return NULL;
    }

    /* Everything that can run Python code (the conversions above, and
     * allocating the list) happens before the tables are read, so they
     * cannot change while borrowed. */
    PyObject *codes = PyList_New(transactions > 0 ? transactions : 0);
    PyObject *snippets = PySequence_Fast(args[1], "snippets must be a list");
    PyObject *cumulative = PySequence_Fast(args[2],
                                           "cumulative must be a list");
    Snippet *table = NULL;
    double *bounds = NULL;
    Buffer buf = {NULL, 0, 0};
    if (codes == NULL || snippets == NULL || cumulative == NULL)
        goto fail;
    Py_ssize_t n_bounds = PySequence_Fast_GET_SIZE(cumulative);
    Py_ssize_t n_snippets = PySequence_Fast_GET_SIZE(snippets);
    if (n_snippets <= n_bounds) {
        PyErr_SetString(PyExc_ValueError,
                        "snippets needs an entry past the last bound");
        goto fail;
    }
    table = PyMem_Malloc(n_snippets * sizeof *table);
    bounds = PyMem_Malloc((n_bounds + 1) * sizeof *bounds);
    if (table == NULL || bounds == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < n_bounds; i++) {
        PyObject *bound = PySequence_Fast_GET_ITEM(cumulative, i);
        if (!PyFloat_Check(bound)) {
            PyErr_SetString(PyExc_TypeError, "cumulative must hold floats");
            goto fail;
        }
        bounds[i] = PyFloat_AS_DOUBLE(bound);
    }
    for (Py_ssize_t i = 0; i < n_snippets; i++) {
        PyObject *entry = PySequence_Fast_GET_ITEM(snippets, i);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3
                || !PyLong_Check(PyTuple_GET_ITEM(entry, 0))
                || !PyLong_Check(PyTuple_GET_ITEM(entry, 1))) {
            PyErr_SetString(PyExc_TypeError,
                            "a snippet is (operands, kind, tail)");
            goto fail;
        }
        Snippet *snippet = &table[i];
        snippet->operands = PyLong_AsSsize_t(PyTuple_GET_ITEM(entry, 0));
        snippet->kind = PyLong_AsLong(PyTuple_GET_ITEM(entry, 1));
        snippet->tail = PyTuple_GET_ITEM(entry, 2);
        if (PyErr_Occurred())
            goto fail;
        if (snippet->kind == PICK
                ? !PyTuple_Check(snippet->tail)
                  || PyTuple_GET_SIZE(snippet->tail) == 0
                : !PyBytes_Check(snippet->tail)) {
            PyErr_SetString(PyExc_TypeError,
                            "a snippet's tail is bytes, or a non-empty "
                            "tuple of bytes to pick from");
            goto fail;
        }
    }

    for (Py_ssize_t t = 0; t < transactions; t++) {
        buf.size = 0;
        for (Py_ssize_t p = 0; p < length; p++) {
            /* bisect_right(cumulative, random()) */
            double x = mt_random(&mt);
            Py_ssize_t lo = 0, hi = n_bounds;
            while (lo < hi) {
                Py_ssize_t mid = (lo + hi) / 2;
                if (x < bounds[mid])
                    hi = mid;
                else
                    lo = mid + 1;
            }
            Snippet *snippet = &table[lo];
            for (Py_ssize_t i = 0; i < snippet->operands; i++)
                if (push_operand(&mt, &buf) < 0)
                    goto fail;
            PyObject *tail = snippet->tail;
            if (snippet->kind == PICK) {
                tail = PyTuple_GET_ITEM(tail, mt_below(
                    &mt, (uint64_t)PyTuple_GET_SIZE(tail)));
                if (!PyBytes_Check(tail)) {
                    PyErr_SetString(PyExc_TypeError,
                                    "a picked tail is not bytes");
                    goto fail;
                }
            } else if (snippet->kind != TAIL) {
                uint64_t slot;
                if (snippet->kind == READ)
                    slot = pool ? mt_below(&mt, pool) : 0;
                else if (pool == 0 || mt_random(&mt) < rate) {
                    /* An empty pool makes no draw. */
                    if (pool == UINT64_MAX) {
                        PyErr_SetString(PyExc_OverflowError, POOL_LIMIT);
                        goto fail;
                    }
                    slot = pool++;
                } else
                    slot = mt_below(&mt, pool);
                if (push_slot(&buf, slot) < 0)
                    goto fail;
            }
            if (append(&buf, tail) < 0)
                goto fail;
        }
        unsigned char *stop = reserve(&buf, 1);
        if (stop == NULL)
            goto fail;
        *stop = 0x00;
        PyObject *code = PyBytes_FromStringAndSize((const char *)buf.data,
                                                   (Py_ssize_t)buf.size + 1);
        if (code == NULL)
            goto fail;
        PyList_SET_ITEM(codes, t, code);
    }
    PyMem_Free(buf.data);
    PyMem_Free(table);
    PyMem_Free(bounds);
    Py_DECREF(snippets);
    Py_DECREF(cumulative);
    return Py_BuildValue("NK", codes, pool);

fail:
    PyMem_Free(buf.data);
    PyMem_Free(table);
    PyMem_Free(bounds);
    Py_XDECREF(codes);
    Py_XDECREF(snippets);
    Py_XDECREF(cumulative);
    return NULL;
}

/* The interpreter's dispatch loop (gaslab.evm.machine). interpret() does
 * what gaslab.evm.machine._loop_python does, which stays the reference,
 * with its Python handlers: it reads the clock at the same two points of
 * each instruction, and it puts pc and gas on the machine before each
 * handler and each _dynamic_cost call. It runs some effects itself, switched
 * on the opcode byte: PUSH1-32; the effects that need only the stack (ADD,
 * MUL, SUB, DIV, LT, GT, EQ, ISZERO, AND, OR, XOR, NOT, POP, DUP1-16,
 * SWAP1-16, JUMPDEST), on Python ints as their handlers compute them; PC,
 * from the loop's own pc; and STOP. Every other effect is a handler call.
 * The pc that _loop_python would have put on the machine before one of these
 * effects is kept in a local and put there once, as the run exits by any
 * path, along with the gas.
 *
 * Gas is metered in a C int64 while it is an exact int in [0, 2**63), as
 * every gas limit the tool makes is: a cost in that range is compared and
 * subtracted in C, and its sample reuses the int64. The gas becomes a
 * Python int again only where Python code can read it: before each
 * _dynamic_cost call and each handler call, after a CALLCODE child, and
 * as the run exits. Any other gas or cost (a schedule constant past 64
 * bits, math.inf from an overflowing polynomial, gas of 2**80) is
 * compared and subtracted as Python objects, as _loop_python does.
 * A PUSH immediate is built from its bytes.
 *
 * Sampling is one design in both loops: as each instruction ends, its
 * count, gas and time are added, in that order, into the open window of
 * the sink the run began with, whose counts, gas and times are
 * array('q')s of 256 items; this loop writes their buffers directly, and
 * a total past the int64 range raises OverflowError, as the array would.
 * Both clocks give int64 readings, and one subtraction gives the sample
 * time: under WallClock, whose now_ns is time.perf_counter_ns, the loop
 * reads that counter itself and counts instructions in a local that it
 * adds to work.instructions as it exits; under any other clock it calls
 * now_ns and increments work.instructions after each instruction, since a
 * VirtualClock reads Work at every tick. */

static PyObject *str_pc, *str_gas, *str_status, *str_code, *str_stack,
    *str_schedule, *str_by_byte, *str_work, *str_instructions, *str_clock,
    *str_now_ns, *str_sink, *str_counts, *str_times, *str_dynamic_cost,
    *str_run, *zero, *one, *word_mask, *perf_counter_ns;

/* The attribute names, 0, 1, WORD_MASK (2**256 - 1), and
 * time.perf_counter_ns, which is WallClock.now_ns. */
static int intern_names(void)
{
    struct { PyObject **name; const char *text; } names[] = {
        {&str_pc, "pc"}, {&str_gas, "gas"}, {&str_status, "status"},
        {&str_code, "code"}, {&str_stack, "stack"},
        {&str_schedule, "schedule"}, {&str_by_byte, "by_byte"},
        {&str_work, "work"}, {&str_instructions, "instructions"},
        {&str_clock, "clock"}, {&str_now_ns, "now_ns"},
        {&str_sink, "sink"}, {&str_counts, "counts"},
        {&str_times, "times"}, {&str_dynamic_cost, "_dynamic_cost"},
        {&str_run, "run"},
    };
    for (size_t i = 0; i < sizeof names / sizeof names[0]; i++)
        if ((*names[i].name = PyUnicode_InternFromString(names[i].text))
                == NULL)
            return -1;
    PyObject *time = PyImport_ImportModule("time");
    if (time == NULL)
        return -1;
    perf_counter_ns = PyObject_GetAttrString(time, "perf_counter_ns");
    Py_DECREF(time);
    zero = PyLong_FromLong(0);
    one = PyLong_FromLong(1);
    word_mask = PyLong_FromString(
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        NULL, 16);
    return zero == NULL || one == NULL || word_mask == NULL
           || perf_counter_ns == NULL ? -1 : 0;
}

/* *now = now_ns(), which must return an int in the int64 range. When
 * now_ns is time.perf_counter_ns, the counter is read without a call:
 * through CPython's private _PyTime_GetPerfCounter before 3.13, and its
 * public PyTime_PerfCounterRaw from 3.13 on. */
static int read_clock(PyObject *now_ns, int64_t *now)
{
    if (now_ns == perf_counter_ns) {
#if PY_VERSION_HEX >= 0x030D0000
        PyTime_t ticks;
        if (PyTime_PerfCounterRaw(&ticks) < 0) {
            PyErr_SetString(PyExc_OSError, "the performance counter failed");
            return -1;
        }
        *now = ticks;
#else
        *now = _PyTime_GetPerfCounter();
#endif
        return 0;
    }
    PyObject *reading = PyObject_CallNoArgs(now_ns);
    if (reading == NULL)
        return -1;
    *now = PyLong_AsLongLong(reading);
    Py_DECREF(reading);
    return *now == -1 && PyErr_Occurred() ? -1 : 0;
}

/* The big-endian immediate of `width` bytes at code[at:], zero-padded
 * where the end of the code cuts it off. */
static PyObject *push_value(const unsigned char *code, Py_ssize_t end,
                            Py_ssize_t at, Py_ssize_t width)
{
    if (width <= 8) {
        uint64_t value = 0;
        for (Py_ssize_t i = at; i < at + width; i++)
            value = value << 8 | (i < end ? code[i] : 0);
        return PyLong_FromUnsignedLongLong(value);
    }
    unsigned char padded[32];
    const unsigned char *immediate = code + at;
    if (at + width > end) {
        Py_ssize_t inside = end > at ? end - at : 0;
        memcpy(padded, immediate, (size_t)inside);
        memset(padded + inside, 0, (size_t)(width - inside));
        immediate = padded;
    }
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_FromUnsignedNativeBytes(immediate, (size_t)width,
                                          Py_ASNATIVEBYTES_BIG_ENDIAN);
#else
    return _PyLong_FromByteArray(immediate, (size_t)width, 0, 0);
#endif
}

/* obj.name += amount */
static int add_to_attr(PyObject *obj, PyObject *name, PyObject *amount)
{
    PyObject *count = PyObject_GetAttr(obj, name);
    if (count == NULL)
        return -1;
    Py_SETREF(count, PyNumber_Add(count, amount));
    if (count == NULL)
        return -1;
    int result = PyObject_SetAttr(obj, name, count);
    Py_DECREF(count);
    return result;
}

/* machine.pc = pc */
static int set_pc(PyObject *machine, Py_ssize_t pc)
{
    PyObject *value = PyLong_FromSsize_t(pc);
    if (value == NULL)
        return -1;
    int result = PyObject_SetAttr(machine, str_pc, value);
    Py_DECREF(value);
    return result;
}

/* *pc = machine.pc */
static int get_pc(PyObject *machine, Py_ssize_t *pc)
{
    PyObject *value = PyObject_GetAttr(machine, str_pc);
    if (value == NULL)
        return -1;
    *pc = PyLong_AsSsize_t(value);
    Py_DECREF(value);
    if (*pc == -1 && PyErr_Occurred())
        return -1;
    if (*pc < 0) {
        PyErr_SetString(PyExc_ValueError, "pc is negative");
        return -1;
    }
    return 0;
}

/* obj.name, which must be a list */
static PyObject *get_list(PyObject *obj, PyObject *name)
{
    PyObject *list = PyObject_GetAttr(obj, name);
    if (list != NULL && !PyList_Check(list)) {
        PyErr_Format(PyExc_TypeError, "%U is not a list", name);
        Py_CLEAR(list);
    }
    return list;
}

/* The opcode bytes (gaslab.evm.opcodes) whose effects the loop runs. */
enum {
    STOP = 0x00, ADD = 0x01, MUL = 0x02, SUB = 0x03, DIV = 0x04,
    LT = 0x10, GT = 0x11, EQ = 0x14, ISZERO = 0x15, AND = 0x16, OR = 0x17,
    XOR = 0x18, NOT = 0x19, POP = 0x50, PC = 0x58, JUMPDEST = 0x5B,
    DUP1 = 0x80, DUP16 = 0x8F, SWAP1 = 0x90, SWAP16 = 0x9F,
};

/* x & WORD_MASK, taking the reference to x */
static PyObject *masked(PyObject *x)
{
    if (x == NULL)
        return NULL;
    Py_SETREF(x, PyNumber_And(x, word_mask));
    return x;
}

/* 1 if truth else 0, or NULL when truth is -1 (an error) */
static PyObject *flag(int truth)
{
    return truth < 0 ? NULL : Py_NewRef(truth ? one : zero);
}

/* What the handler of a two-operand `byte` pushes, where `a` was the top
 * of the stack and `b` the item below it. */
static PyObject *binary(int byte, PyObject *a, PyObject *b)
{
    int nonzero;
    switch (byte) {
    case ADD: return masked(PyNumber_Add(a, b));
    case MUL: return masked(PyNumber_Multiply(a, b));
    case SUB: return masked(PyNumber_Subtract(a, b));
    case DIV:
        nonzero = PyObject_IsTrue(b);
        return nonzero > 0 ? PyNumber_FloorDivide(a, b) : flag(nonzero);
    case LT: return flag(PyObject_RichCompareBool(a, b, Py_LT));
    case GT: return flag(PyObject_RichCompareBool(a, b, Py_GT));
    case EQ: return flag(PyObject_RichCompareBool(a, b, Py_EQ));
    case AND: return PyNumber_And(a, b);
    case OR: return PyNumber_Or(a, b);
    default: return PyNumber_Xor(a, b);
    }
}

/* stack.append(item), taking the reference to item */
static int push(PyObject *stack, PyObject *item)
{
    if (item == NULL)
        return -1;
    int result = PyList_Append(stack, item);
    Py_DECREF(item);
    return result;
}

/* Runs the effect of `byte` at `pc` when it needs only the stack or only
 * pc, popping and pushing as its handler does: 1 when it ran, 0 when
 * `byte` has no such effect here, -1 with an exception set. The stack
 * check has run, against the table the caller may change; a stack too
 * shallow for the effect raises IndexError, as the handler's pop would. */
static int stack_effect(int byte, PyObject *stack, Py_ssize_t pc)
{
    Py_ssize_t depth = PyList_GET_SIZE(stack), need;
    if (byte >= DUP1 && byte <= DUP16)
        need = byte - DUP1 + 1;
    else if (byte >= SWAP1 && byte <= SWAP16)
        need = byte - SWAP1 + 2;
    else
        switch (byte) {
        case JUMPDEST: case PC:
            need = 0;
            break;
        case ISZERO: case NOT: case POP:
            need = 1;
            break;
        case ADD: case MUL: case SUB: case DIV: case LT: case GT: case EQ:
        case AND: case OR: case XOR:
            need = 2;
            break;
        default:
            return 0;
        }
    if (depth < need) {
        PyErr_SetString(PyExc_IndexError, "pop from a too shallow stack");
        return -1;
    }
    PyObject **items = ((PyListObject *)stack)->ob_item;
    if (byte >= DUP1 && byte <= DUP16)
        return PyList_Append(stack, items[depth - need]) < 0 ? -1 : 1;
    if (byte >= SWAP1 && byte <= SWAP16) {
        PyObject *top = items[depth - 1];
        items[depth - 1] = items[depth - need];
        items[depth - need] = top;
        return 1;
    }
    if (need == 0)
        return byte == PC && push(stack, PyLong_FromSsize_t(pc)) < 0
               ? -1 : 1;
    /* pop: the references pass from the list to a and b */
    PyObject *a = items[depth - 1], *b = need == 2 ? items[depth - 2] : NULL,
             *result;
    Py_SET_SIZE(stack, depth - need);
    if (byte == POP) {
        Py_DECREF(a);
        return 1;
    }
    if (b != NULL)
        result = binary(byte, a, b);
    else if (byte == NOT)
        result = PyNumber_Xor(a, word_mask);
    else
        result = flag(PyObject_RichCompareBool(a, zero, Py_EQ));
    Py_DECREF(a);
    Py_XDECREF(b);
    return push(stack, result) < 0 ? -1 : 1;
}

/* A buffer of obj.name, which must be a writable array('q') of 256
 * items: one of the sink's window totals. */
static int get_window(PyObject *obj, PyObject *name, Py_buffer *view)
{
    PyObject *array = PyObject_GetAttr(obj, name);
    if (array == NULL)
        return -1;
    int got = PyObject_GetBuffer(array, view, PyBUF_WRITABLE | PyBUF_FORMAT);
    Py_DECREF(array);
    if (got == 0 && view->format != NULL && strcmp(view->format, "q") == 0
            && view->len == 256 * (Py_ssize_t)sizeof(int64_t))
        return 0;
    if (got == 0)
        PyBuffer_Release(view);
    PyErr_Format(PyExc_TypeError, "sink.%U is not a writable array('q') "
                 "of 256 items", name);
    return -1;
}

/* *total += amount, raising OverflowError where an array('q') would */
static int accumulate(int64_t *total, int64_t amount)
{
    int64_t sum;
    if (__builtin_add_overflow(*total, amount, &sum)) {
        PyErr_SetString(PyExc_OverflowError, "int too big to convert");
        return -1;
    }
    *total = sum;
    return 0;
}

/* One instruction's sample, added into the window as _loop_python adds
 * it: counts[byte] += 1, gas[byte] += cost (an int), then times[byte] +=
 * ended - began. The cost is `amount` when `cost` is NULL. */
static int record_sample(Py_buffer window[3], int byte, PyObject *cost,
                         int64_t amount, int64_t began, int64_t ended)
{
    int64_t *counts = window[0].buf, *gas = window[1].buf,
            *times = window[2].buf, elapsed;
    if (accumulate(&counts[byte], 1) < 0)
        return -1;
    if (cost != NULL && (amount = PyLong_AsLongLong(cost)) == -1
            && PyErr_Occurred())
        return -1;
    if (accumulate(&gas[byte], amount) < 0)
        return -1;
    if (__builtin_sub_overflow(ended, began, &elapsed)) {
        PyErr_SetString(PyExc_OverflowError, "int too big to convert");
        return -1;
    }
    return accumulate(&times[byte], elapsed);
}

/* A run's gas: `left` while it is an exact int in [0, 2**63), as every
 * gas limit the tool makes is, else the Python object `object`. */
typedef struct {
    int64_t left;
    PyObject *object;   /* NULL while the gas is `left` */
} Gas;

/* *value as an int64 when it is an exact int in [0, 2**63), else -1 */
static int64_t small_int(PyObject *value)
{
    if (!PyLong_CheckExact(value))
        return -1;
    int overflow;
    long long small = PyLong_AsLongLongAndOverflow(value, &overflow);
    return overflow ? -1 : small;
}

/* Make `value` the gas, taking its reference. */
static void gas_take(Gas *gas, PyObject *value)
{
    int64_t left = small_int(value);
    if (left < 0) {
        Py_XSETREF(gas->object, value);
        return;
    }
    gas->left = left;
    Py_DECREF(value);
    Py_CLEAR(gas->object);
}

/* The gas as a Python int (or whatever object it is), or NULL */
static PyObject *gas_value(const Gas *gas)
{
    return gas->object != NULL ? Py_NewRef(gas->object)
           : PyLong_FromLongLong(gas->left);
}

/* machine.gas = the gas, which Python code is about to read */
static int gas_put(const Gas *gas, PyObject *machine)
{
    PyObject *value = gas_value(gas);
    if (value == NULL)
        return -1;
    int result = PyObject_SetAttr(machine, str_gas, value);
    Py_DECREF(value);
    return result;
}

/* Charge `cost` if it is affordable (not above the gas), as
 * `if cost > m.gas: halt; m.gas -= cost` does: 1 when charged, 0 when not,
 * -1 with an exception set. A cost in [0, 2**63) against an int64 gas is
 * charged in C and put in *amount, with *exact set; any other pair (a
 * 2**70 constant, math.inf, gas of 2**80) is compared and subtracted as
 * Python objects. */
static int charge(Gas *gas, PyObject *cost, int64_t *amount, int *exact)
{
    *exact = 0;
    if (gas->object == NULL && (*amount = small_int(cost)) >= 0) {
        if (*amount > gas->left)
            return 0;
        gas->left -= *amount;
        *exact = 1;
        return 1;
    }
    PyObject *left = gas_value(gas);
    if (left == NULL)
        return -1;
    int unaffordable = PyObject_RichCompareBool(cost, left, Py_GT);
    if (unaffordable != 0) {
        Py_DECREF(left);
        return unaffordable < 0 ? -1 : 0;
    }
    Py_SETREF(left, PyNumber_Subtract(left, cost));
    if (left == NULL)
        return -1;
    gas_take(gas, left);
    return 1;
}

/* The pending exception, taken out of the thread state, or NULL. */
static PyObject *take_exception(void)
{
#if PY_VERSION_HEX >= 0x030C0000
    return PyErr_GetRaisedException();
#else
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    if (type == NULL)
        return NULL;
    PyErr_NormalizeException(&type, &value, &traceback);
    if (traceback != NULL) {
        PyException_SetTraceback(value, traceback);
        Py_DECREF(traceback);
    }
    Py_DECREF(type);
    return value;
#endif
}

/* Raise `exception`, taking its reference. */
static void restore_exception(PyObject *exception)
{
#if PY_VERSION_HEX >= 0x030C0000
    PyErr_SetRaisedException(exception);
#else
    PyErr_Restore(Py_NewRef(Py_TYPE(exception)), exception,
                  PyException_GetTraceback(exception));
#endif
}

/* What a run leaves behind as it exits, as a `finally:` block would: the
 * pc not yet put on the machine (unless it is -1) and the gas (unless it
 * is NULL) on the machine, and its wall-path instruction count in
 * work.instructions. A pending exception is kept, and an error here
 * replaces it, with the pending one as its __context__. */
static int finish(PyObject *m, Py_ssize_t pc, const Gas *gas, PyObject *work,
                  int64_t instructions)
{
    PyObject *pending = take_exception();
    int result = (pc >= 0 && set_pc(m, pc) < 0)
                 || (gas != NULL && gas_put(gas, m) < 0) ? -1 : 0;
    if (result == 0 && instructions) {
        PyObject *amount = PyLong_FromLongLong(instructions);
        if (amount == NULL
                || add_to_attr(work, str_instructions, amount) < 0)
            result = -1;
        Py_XDECREF(amount);
    }
    if (pending == NULL)
        return result;
    if (result < 0) {
        PyObject *error = take_exception();
        PyException_SetContext(error, pending);
        pending = error;
    }
    restore_exception(pending);
    return result;
}

/* interpret(operations, halt, statuses, machine): run `machine` until it
 * halts. `operations` is machine._OPERATIONS, `halt` the _Halt class, and
 * `statuses` the TxStatus strings (SUCCESS, INVALID_OP, STACK_ERROR,
 * OUT_OF_GAS). */
static PyObject *interpret(PyObject *Py_UNUSED(module),
                           PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError,
                     "interpret takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *operations = args[0], *halt = args[1], *statuses = args[2],
             *m = args[3];
    if (!PyList_Check(operations) || !PyTuple_Check(statuses)
            || PyTuple_GET_SIZE(statuses) != 4) {
        PyErr_SetString(PyExc_TypeError, "interpret takes a list of "
                        "operations, _Halt and a tuple of 4 statuses");
        return NULL;
    }
    PyObject *success = PyTuple_GET_ITEM(statuses, 0);

    PyObject *status = PyObject_GetAttr(m, str_status);
    if (status == NULL)
        return NULL;
    Py_DECREF(status);
    if (status != Py_None)
        Py_RETURN_NONE;

    /* view: the code's bytes; window: the sink's counts, gas and times */
    Py_buffer view = {NULL}, window[3] = {{NULL}, {NULL}, {NULL}};
    PyObject *code = NULL, *stack = NULL, *rules = NULL, *work = NULL,
             *now_ns = NULL, *limit = NULL;
    Gas gas = {0, NULL}, *metered = NULL;   /* &gas once m.gas is read */
    /* one instruction's own references */
    PyObject *operation = NULL, *rule = NULL, *cost = NULL, *handler = NULL,
             *child = NULL;
    PyObject *result = NULL;
    /* pending_pc: the pc that _loop_python would have put on the machine
     * and this loop has not yet, or -1 */
    Py_ssize_t pc, pending_pc = -1;
    int ran, stopped = 0, wall = 0;
    int64_t began = 0, ended = 0;   /* one instruction's clock readings */
    int64_t amount = 0;   /* one instruction's cost, when `exact` */
    int exact;
    int64_t instructions = 0;   /* the wall path's count */

    PyObject *schedule = NULL, *sink = NULL, *clock = NULL;
    if ((code = PyObject_GetAttr(m, str_code)) != NULL
            && PyObject_GetBuffer(code, &view, PyBUF_SIMPLE) == 0
            && get_pc(m, &pc) == 0
            && (stack = get_list(m, str_stack)) != NULL
            && (schedule = PyObject_GetAttr(m, str_schedule)) != NULL
            && (rules = get_list(schedule, str_by_byte)) != NULL
            && (work = PyObject_GetAttr(m, str_work)) != NULL
            && (clock = PyObject_GetAttr(m, str_clock)) != NULL
            && (now_ns = PyObject_GetAttr(clock, str_now_ns)) != NULL
            && (sink = PyObject_GetAttr(m, str_sink)) != NULL
            && get_window(sink, str_counts, &window[0]) == 0
            && get_window(sink, str_gas, &window[1]) == 0
            && get_window(sink, str_times, &window[2]) == 0)
        limit = PyObject_GetAttr(m, str_gas);
    Py_XDECREF(schedule);
    Py_XDECREF(sink);
    Py_XDECREF(clock);
    if (limit == NULL)
        goto done;
    metered = &gas;
    gas_take(metered, limit);
    const unsigned char *bytes = view.buf;
    Py_ssize_t end = view.len;
    wall = now_ns == perf_counter_ns;

    for (;;) {
        if (pc >= end) {   /* running off the end stops */
            if (PyObject_SetAttr(m, str_status, success) < 0)
                goto done;
            break;
        }
        if (read_clock(now_ns, &began) < 0)
            goto done;
        int byte = bytes[pc];
        /* bounds-checked: a handler may have resized either table */
        if ((operation = PyList_GetItem(operations, byte)) == NULL)
            goto done;
        Py_INCREF(operation);
        if (operation == Py_None) {
            PyErr_SetObject(halt, PyTuple_GET_ITEM(statuses, 1));
            goto done;
        }
        if (!PyTuple_Check(operation) || PyTuple_GET_SIZE(operation) != 4) {
            PyErr_SetString(PyExc_TypeError, "an operation is "
                            "(need, room, push_width, handler)");
            goto done;
        }
        Py_ssize_t need = PyLong_AsSsize_t(PyTuple_GET_ITEM(operation, 0));
        Py_ssize_t room = PyLong_AsSsize_t(PyTuple_GET_ITEM(operation, 1));
        Py_ssize_t width = PyLong_AsSsize_t(PyTuple_GET_ITEM(operation, 2));
        if (PyErr_Occurred())
            goto done;
        if (width < 0 || width > 32) {
            PyErr_SetString(PyExc_ValueError, "a push is 0 to 32 bytes wide");
            goto done;
        }
        Py_ssize_t depth = PyList_GET_SIZE(stack);
        if (!(need <= depth && depth <= room)) {
            PyErr_SetObject(halt, PyTuple_GET_ITEM(statuses, 2));
            goto done;
        }
        if ((rule = PyList_GetItem(rules, byte)) == NULL)
            goto done;
        Py_INCREF(rule);
        if (PyLong_CheckExact(rule)) {
            cost = rule;
            rule = NULL;
        } else {
            PyObject *opcode = PyLong_FromLong(byte);
            pending_pc = -1;
            if (opcode == NULL || set_pc(m, pc) < 0
                    || gas_put(&gas, m) < 0) {
                Py_XDECREF(opcode);
                goto done;
            }
            /* call[0] is the slot that PY_VECTORCALL_ARGUMENTS_OFFSET
             * lets the callee borrow */
            PyObject *call[4] = {NULL, m, opcode, rule};
            cost = PyObject_VectorcallMethod(
                str_dynamic_cost, call + 1,
                3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
            Py_DECREF(opcode);
            Py_CLEAR(rule);
            if (cost == NULL)
                goto done;
        }
        int charged = charge(&gas, cost, &amount, &exact);
        if (charged < 0)
            goto done;
        if (!charged) {
            PyErr_SetObject(halt, PyTuple_GET_ITEM(statuses, 3));
            goto done;
        }
        if (width) {
            PyObject *value = push_value(bytes, end, pc + 1, width);
            if (value == NULL)
                goto done;
            int appended = PyList_Append(stack, value);
            Py_DECREF(value);
            if (appended < 0)
                goto done;
            pc += 1 + width;
        } else if (byte == STOP) {
            pending_pc = ++pc;
            stopped = 1;
            if (PyObject_SetAttr(m, str_status, success) < 0)
                goto done;
        } else if ((ran = stack_effect(byte, stack, pc)) != 0) {
            pending_pc = ++pc;   /* also when the effect failed */
            if (ran < 0)
                goto done;
        } else {
            pending_pc = -1;
            if (set_pc(m, pc + 1) < 0 || gas_put(&gas, m) < 0)
                goto done;
            handler = PyTuple_GET_ITEM(operation, 3);
            Py_INCREF(handler);
            if ((child = PyObject_CallOneArg(handler, m)) == NULL
                    || get_pc(m, &pc) < 0)
                goto done;
        }
        /* after the effect, which may halt */
        if (wall)
            instructions++;
        else if (add_to_attr(work, str_instructions, one) < 0)
            goto done;
        if (read_clock(now_ns, &ended) < 0
                || record_sample(window, byte, exact ? NULL : cost, amount,
                                 began, ended) < 0)
            goto done;
        Py_CLEAR(operation);
        Py_CLEAR(cost);
        if (stopped)
            break;
        if (handler == NULL)
            continue;
        Py_CLEAR(handler);
        if (child != Py_None) {   /* child samples land in the sink */
            PyObject *child_status = PyObject_CallMethodNoArgs(child, str_run);
            if (child_status == NULL)
                goto done;
            PyObject *left = PyObject_GetAttr(child, str_gas);
            int put = left == NULL ? -1 : PyObject_SetAttr(m, str_gas, left);
            if (left != NULL)
                gas_take(&gas, left);
            if (put < 0) {
                Py_DECREF(child_status);
                goto done;
            }
            if (child_status != success) {
                PyErr_SetObject(halt, child_status);
                Py_DECREF(child_status);
                goto done;
            }
            Py_DECREF(child_status);
            if (PyList_Append(stack, one) < 0)
                goto done;
        }
        Py_CLEAR(child);
        if ((status = PyObject_GetAttr(m, str_status)) == NULL)
            goto done;
        Py_DECREF(status);
        if (status != Py_None)
            break;
    }
    result = Py_NewRef(Py_None);

done:
    if (finish(m, pending_pc, metered, work, instructions) < 0)
        Py_CLEAR(result);
    Py_XDECREF(operation);
    Py_XDECREF(rule);
    Py_XDECREF(cost);
    Py_XDECREF(handler);
    Py_XDECREF(child);
    if (view.obj != NULL)
        PyBuffer_Release(&view);
    for (int i = 0; i < 3; i++)
        if (window[i].obj != NULL)
            PyBuffer_Release(&window[i]);
    Py_XDECREF(code);
    Py_XDECREF(stack);
    Py_XDECREF(rules);
    Py_XDECREF(work);
    Py_XDECREF(now_ns);
    Py_XDECREF(gas.object);
    return result;
}

static PyMethodDef methods[] = {
    {"keccak_256", keccak_256, METH_O,
     "32-byte Keccak-256 digest (original padding, as used by Ethereum)."},
    {"rlp_encode", rlp_encode, METH_O,
     "RLP encoding of bytes, bytearray, or nested lists and tuples of them."},
    {"rlp_decode", rlp_decode, METH_O,
     "The item of a bytes object that holds exactly one RLP encoding, as "
     "gaslab.rlp.decode decodes and rejects it."},
    {"commit", (PyCFunction)(void (*)(void))commit, METH_FASTCALL,
     "Ref of a dirty trie node after committing it through encode, keccak "
     "and put, as gaslab.trie._commit_python commits it."},
    {"assemble", (PyCFunction)(void (*)(void))assemble, METH_FASTCALL,
     "One block's programs and the pool size after them, drawn exactly as "
     "gaslab.workload._assemble_python draws them."},
    {"interpret", (PyCFunction)(void (*)(void))interpret, METH_FASTCALL,
     "Run a gaslab.evm.machine.Machine until it halts, as "
     "gaslab.evm.machine._loop_python does."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "gaslab's C code: keccak_256, rlp_encode, rlp_decode, commit, assemble, interpret.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__native(void)
{
    mt_start[0] = 19650218U;
    for (int i = 1; i < MT_N; i++)
        mt_start[i] = 1812433253U * (mt_start[i - 1] ^ (mt_start[i - 1] >> 30))
                      + (uint32_t)i;
    if (intern_names() < 0)
        return NULL;
    return PyModule_Create(&module_def);
}
