"""Keccak digest checks and the loader of the native build.

The NIST SHA3-256 variant shares everything with keccak-256 except the
domain byte, so hashlib acts as an independent oracle for the Python
sponge's permutation; the keccak-side digests are pinned to well-known
constants, and the C build must agree with the Python sponge everywhere.
The loader tests build `_native.c`, which also holds the RLP encoder
(tested in test_rlp.py) and the block assembler (test_workload.py).
"""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gaslab.native
from gaslab.keccak import _keccak_256_python, _sponge_256, keccak_256
from gaslab.native import IMPLEMENTATION, _load

PACKAGE = Path(gaslab.native.__file__).parent
SOURCE = PACKAGE / "_native.c"
SRC_ROOT = str(PACKAGE.resolve().parent)
MODULE_DOC = (b"gaslab's C code: keccak_256, rlp_encode, rlp_decode, "
              b"commit, assemble, interpret.")

# Well-known digests: the empty-input hash, the "abc" test vector, and the
# hashes of the canonical RLP encodings of the empty string / empty list.
KNOWN_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (b"\x80", "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"),
    (b"\xc0", "1dcc4de8dec75d7aab85b567b6ccd41ad312451b948a7413f0a142fd40d49347"),
]


def sha3_256(data: bytes) -> bytes:
    """NIST SHA3-256 through the Python sponge: same permutation, 0x06."""
    return _sponge_256(data, 0x06)


@pytest.mark.parametrize("data,digest", KNOWN_VECTORS)
def test_known_vectors(data, digest):
    assert keccak_256(data).hex() == digest
    assert _keccak_256_python(data).hex() == digest


@given(st.binary(max_size=600))
def test_sha3_matches_hashlib(data):
    assert sha3_256(data) == hashlib.sha3_256(data).digest()


@pytest.mark.parametrize("size", [0, 1, 135, 136, 137, 271, 272, 273, 1024])
def test_sha3_matches_hashlib_at_block_boundaries(size):
    data = bytes(range(256)) * 5
    assert sha3_256(data[:size]) == hashlib.sha3_256(data[:size]).digest()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_c_build_matches_python_sponge_at_every_length():
    # Every length 0-300 crosses the rate boundaries 135/136/137 and
    # 271/272/273; 407-409 is the third, 1000 B spans seven blocks.
    assert IMPLEMENTATION == "c"
    rng = random.Random(7)
    for size in [*range(301), 407, 408, 409, 1000]:
        data = rng.randbytes(size)
        assert keccak_256(data) == _keccak_256_python(data), size
    assert keccak_256(bytearray(b"abc")) == keccak_256(memoryview(b"abc"))


def test_digest_shape_and_determinism():
    digest = keccak_256(b"gaslab")
    assert len(digest) == 32
    assert digest == keccak_256(b"gaslab")
    assert digest != keccak_256(b"gaslab!")


# ---------------------------------------------------------------------------
# The loader: build on first use, fall back, rebuild on a changed source
# ---------------------------------------------------------------------------

# The root of the 16 fixture pairs in a non-secure trie, frozen with the
# structural oracle of tests/test_trie.py (FIXTURE_ROOT_RAW there).
FIXTURE_ROOT_RAW = (
    "ae65879ed4f8035acd099fe0f62a07f7fe42cacc9d02904ec01d6670c2b4df20")

# Run in a fresh interpreter against a copy of the package: which functions
# were bound, the known digests, the fixture trie's root, and the roots of a
# fixed run of inserts, updates and deletes, which commits inline and
# hashed nodes and rewrites stored ones.
_BINDINGS = """
import json, sys
from gaslab import keccak, native, rlp, trie as trie_module, workload
from gaslab.evm import machine
from gaslab.trie import MerklePatriciaTrie
trie = MerklePatriciaTrie(secure=False)
for i in range(16):
    trie.insert(f"key-{i:02d}".encode(), f"value-{i:02d}".encode())
history = []
for secure in (False, True):
    fixed = MerklePatriciaTrie(secure=secure)
    for i in range(400):
        fixed.insert(i.to_bytes(2, "big")[i % 2:], bytes([i % 7]) * (i % 41))
        if i % 3 == 2:
            fixed.delete((i // 2).to_bytes(2, "big")[i % 2:])
        if i % 20 == 19:
            history.append(fixed.root_hash().hex())
print(json.dumps({
    "implementation": native.IMPLEMENTATION,
    "no_module": native.module is None,
    "python_keccak_256": keccak.keccak_256 is keccak._keccak_256_python,
    "python_encode": rlp.encode is rlp._encode_python,
    "python_assemble": workload._assemble is workload._assemble_python,
    "python_loop": machine._loop is machine._loop_python,
    "python_commit": trie_module._commit is trie_module._commit_python,
    "python_write_decode": trie_module._decode_stored is rlp.decode,
    "python_lookup_decode": trie_module.rlp.decode is rlp.decode,
    "digests": [keccak.keccak_256(bytes.fromhex(data)).hex()
                for data in sys.argv[1:]],
    "root": trie.root_hash().hex(),
    "history": history}))
"""


def _bindings(package_root: str, cwd) -> dict:
    """What `_BINDINGS` reports for the package under `package_root`."""
    proc = subprocess.run([sys.executable, "-c", _BINDINGS,
                           *(data.hex() for data, _ in KNOWN_VECTORS)],
                          cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=package_root),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def built_bindings(tmp_path_factory):
    """`_BINDINGS` for this package, as built."""
    return _bindings(SRC_ROOT, tmp_path_factory.mktemp("built"))


@pytest.mark.parametrize("case", ["no compiler", "build dir is a file",
                                  "source does not compile"])
def test_impossible_build_falls_back_to_python_sponge(tmp_path, monkeypatch,
                                                      case, built_bindings):
    # A copy of the package without its build, so importing it builds.
    package = tmp_path / "src" / "gaslab"
    shutil.copytree(PACKAGE, package,
                    ignore=shutil.ignore_patterns("_build", "__pycache__"))
    build = package / "_build"
    if case == "no compiler":
        monkeypatch.setenv("PATH", str(tmp_path))
    elif case == "build dir is a file":
        build.write_text("")
    else:
        (package / "_native.c").write_bytes(b"this is not C\n")
    bound = _bindings(str(package.parent), tmp_path)
    assert bound["implementation"] == "python"
    assert bound["no_module"]
    assert bound["python_keccak_256"]
    assert bound["python_encode"]
    assert bound["python_assemble"]
    assert bound["python_loop"]
    assert bound["python_commit"]
    assert bound["python_write_decode"]
    assert bound["python_lookup_decode"]
    assert bound["digests"] == [digest for _, digest in KNOWN_VECTORS]
    assert bound["root"] == FIXTURE_ROOT_RAW
    # The same roots as the build this package runs with, native or not.
    assert len(set(bound["history"])) == len(bound["history"]) == 40
    assert bound["history"] == built_bindings["history"]
    assert built_bindings["python_lookup_decode"]
    if build.is_dir():   # a failed build leaves no library behind
        assert not list(build.glob("*" + EXTENSION_SUFFIXES[0]))

    # The loader itself, in this process.
    module, implementation = _load(str(package / "_native.c"), str(build))
    assert (module, implementation) == (None, "python")


def _load_in_fresh_interpreter(source: Path, build: Path) -> list[str]:
    """(implementation, module docstring) from `_load` in a new process,
    which has no library of `build` loaded yet."""
    code = ("import sys; from gaslab.native import _load; "
            "module, impl = _load(sys.argv[1], sys.argv[2]); "
            "print(impl, module.__doc__)")
    proc = subprocess.run([sys.executable, "-c", code, str(source),
                           str(build)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC_ROOT),
                          check=True)
    return proc.stdout.split(" ", 1)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_changed_source_is_rebuilt_before_it_is_loaded(tmp_path):
    source, build = tmp_path / "_native.c", tmp_path / "build"
    source.write_bytes(SOURCE.read_bytes())
    assert MODULE_DOC in source.read_bytes()
    module, implementation = _load(str(source), str(build))
    assert implementation == "c"
    assert module.__doc__ == MODULE_DOC.decode()
    library = build / ("_native" + EXTENSION_SUFFIXES[0])
    built = library.stat().st_ino, library.stat().st_mtime_ns

    # The same source again: the library is loaded as it was built.
    assert _load_in_fresh_interpreter(source, build) == \
        ["c", MODULE_DOC.decode() + "\n"]
    assert (library.stat().st_ino, library.stat().st_mtime_ns) == built

    # A changed source: rebuilt, and only the new library is loaded.
    source.write_bytes(source.read_bytes().replace(MODULE_DOC, b"rebuilt"))
    assert _load_in_fresh_interpreter(source, build) == ["c", "rebuilt\n"]
    assert (build / "_native.c").read_bytes() == source.read_bytes()
    assert (library.stat().st_ino, library.stat().st_mtime_ns) != built


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_build_leaves_other_builds_files_alone(tmp_path):
    build = tmp_path / "build"
    build.mkdir()
    suffix = EXTENSION_SUFFIXES[0]
    kept = [".4242_native.c", ".4242_native" + suffix,   # another build
            "_native.cpython-399-other.so"]
    for name in kept:
        (build / name).write_bytes(b"old")
    module, implementation = _load(str(SOURCE), str(build))
    assert implementation == "c"
    assert sorted(path.name for path in build.iterdir()) == sorted(
        kept + ["_native.c", "_native" + suffix])
    assert all((build / name).read_bytes() == b"old" for name in kept)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_loading_imports_no_hashing_or_build_modules():
    # At run time the loader only opens files: hashlib and ctypes cost
    # resident memory, and the compile-path modules are not needed.
    code = ("import sys, gaslab; print(sorted({'hashlib', 'ctypes', "
            "'subprocess', 'sysconfig'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC_ROOT),
                          check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(
    shutil.which("cc") is None
    or not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists(),
    reason="no cc on PATH or no Python.h")
def test_native_source_compiles_without_warnings(tmp_path):
    # The build's own command line, so the warnings are those of the
    # optimisation level and link mode the library is built with.
    library = str(tmp_path / ("_native" + EXTENSION_SUFFIXES[0]))
    proc = subprocess.run(
        gaslab.native.cc_command(str(SOURCE), library)
        + ["-Wall", "-Wextra", "-Werror"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
