"""Build and load gaslab's native extension module, `gaslab._native`.

`_native.c` next to this module holds gaslab's C code: the trie write
path's Keccak-256 sponge (`keccak_256`), RLP encoder (`rlp_encode`), RLP
decoder of the stored nodes that an insert or a delete rewrites
(`rlp_decode`) and bottom-up commit walk (`commit`), the block assembler (`assemble`), which draws each block's programs from a
Mersenne Twister that matches `random.Random` bit for bit, and the
interpreter's dispatch loop (`interpret`), which runs PUSH, STOP, PC and
the effects that need only the stack (the arithmetic, comparison and
bitwise opcodes, POP, JUMPDEST, DUP and SWAP) itself, calls the Python
instruction handlers for every other effect, meters gas in a C int64,
and adds each instruction's sample
into the sink's 64-bit window arrays as the instruction ends; under
`WallClock` it reads the clock in C as well.
`gaslab.evm.machine._loop_python` and its handlers stay the reference that
it must match. The first import builds it with the local
`cc` against the running interpreter's headers and writes two files into
`_build/` next to this module: `_native` plus the interpreter's extension
suffix, so no other Python loads it, and a copy of the source it was built
from. Later imports load that library, and
rebuild it whenever the shipped source differs from the copy. Each file
is written under a temporary name and moved into place, library first.
A build leaves staged files, which another process may be writing, and
other interpreters' libraries alone. A load that needs no build opens
files only: the compile-path modules are imported by `_compile` alone.

If the build cannot happen (no compiler, no `Python.h`, a directory that
cannot be written), `module` is None and `gaslab.keccak`, `gaslab.rlp`,
`gaslab.trie`, `gaslab.workload` and `gaslab.evm.machine` bind their
pure-Python functions, which compute the same bytes, roots, samples and
receipts.
`IMPLEMENTATION` names the one that runs: "c" or "python".
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location


def cc_command(source: str, library: str) -> list[str]:
    """The `cc` command line that builds `source` into `library`."""
    import sysconfig

    link = (["-bundle", "-undefined", "dynamic_lookup"]
            if sys.platform == "darwin" else ["-shared"])
    return ["cc", "-O3", "-fPIC", *link,
            "-I", sysconfig.get_paths()["include"], "-o", library, source]


def _compile(code: bytes, build_dir: str, library: str,
             built_from: str) -> None:
    """Build `code` into `library` and record it as `built_from`.

    Raises OSError when a file cannot be written or the compiler is
    missing, and ImportError when the compiler rejects the source.
    """
    import subprocess

    os.makedirs(build_dir, exist_ok=True)
    staged = os.path.join(build_dir, f".{os.getpid()}")
    staged_source = staged + "_native.c"
    staged_library = staged + os.path.basename(library)
    try:
        with open(staged_source, "wb") as fp:
            fp.write(code)
        proc = subprocess.run(cc_command(staged_source, staged_library),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise ImportError(proc.stderr)
        os.replace(staged_library, library)
        os.replace(staged_source, built_from)
    finally:
        for path in (staged_source, staged_library):
            if os.path.exists(path):
                os.remove(path)


def _load(source: str, build_dir: str):
    """(module, implementation): the extension built from `source` into
    `build_dir` and "c", else (None, "python") when it cannot be built or
    loaded."""
    library = os.path.join(build_dir, "_native" + EXTENSION_SUFFIXES[0])
    built_from = os.path.join(build_dir, "_native.c")
    try:
        with open(source, "rb") as fp:
            code = fp.read()
        try:
            with open(built_from, "rb") as fp:
                current = fp.read() == code and os.path.exists(library)
        except FileNotFoundError:
            current = False
        if not current:
            _compile(code, build_dir, library, built_from)
        module = module_from_spec(
            spec_from_file_location("gaslab._native", library))
    except (OSError, ImportError):
        return None, "python"
    return module, "c"


_HERE = os.path.dirname(os.path.abspath(__file__))
module, IMPLEMENTATION = _load(os.path.join(_HERE, "_native.c"),
                               os.path.join(_HERE, "_build"))
