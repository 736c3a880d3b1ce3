#!/usr/bin/env python
"""Run the ref-vs-batch equivalence tests on an ASan+UBSan kernel
(make check-kernel-sanitize).

1. Compile ``kernel.c`` with ``-fsanitize=address,undefined
   -fno-sanitize-recover=undefined`` into a private ``REPRO_CACHE_DIR``
   (a temporary directory), by overriding ``build._CFLAGS`` in this
   process.  The compiled-kernel cache is keyed by source digest only,
   so the private directory keeps the instrumented object away from
   every other cache.
2. Re-run this script as a child with ``LD_PRELOAD`` set to the
   compiler's ``libasan.so`` (the ASan runtime must be loaded before
   the interpreter) and that cache directory.  The child checks that
   the kernel it loads is the instrumented object, then runs the
   ref-vs-batch property and bit-identity tests, which drive every
   single-core variant through the kernel.

Any out-of-bounds access, use-after-free or undefined behaviour aborts
the child with the sanitizer's report on stderr (pytest runs with
``-s``: captured output would die with the process), and the script
exits non-zero.

Run from the repo root: ``PYTHONPATH=src python tools/kernel_sanitize.py``
(extra arguments are passed to pytest, e.g. ``-x``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SANITIZE_FLAGS = ["-O1", "-g", "-fno-omit-frame-pointer",
                  "-fsanitize=address,undefined",
                  "-fno-sanitize-recover=undefined"]

TESTS = ["tests/test_batch_backend.py", "-k",
         "PropertyEquivalence or BitIdentity"]


def log(msg: str) -> None:
    print(f"[kernel-sanitize] {msg}", flush=True)


def compile_sanitized() -> str:
    """Build the instrumented kernel into ``$REPRO_CACHE_DIR``."""
    from repro.core.batch import build
    build._CFLAGS = [f for f in build._CFLAGS if not f.startswith("-O")] \
        + SANITIZE_FLAGS
    so_path = build.compile_kernel(verbose=True)
    if so_path is None:
        raise SystemExit("kernel-sanitize: the instrumented kernel did "
                         "not compile")
    data = Path(so_path).read_bytes()
    if b"__asan_" not in data or b"__ubsan_" not in data:
        raise SystemExit(f"kernel-sanitize: {so_path} carries no "
                         "sanitizer instrumentation")
    return so_path


def asan_runtime() -> str:
    cc = os.environ.get("CC") or "gcc"
    out = subprocess.run([cc, "-print-file-name=libasan.so"],
                         capture_output=True, text=True, check=True)
    path = out.stdout.strip()
    if not os.path.isabs(path) or not os.path.exists(path):
        raise SystemExit(f"kernel-sanitize: {cc} has no libasan.so")
    return path


def child(so_path: str, pytest_args: list[str]) -> int:
    """Inside the preloaded process: load the instrumented kernel, run
    the tests."""
    import pytest

    from repro.core.batch import build
    if build.compile_kernel() != so_path or build.load_kernel() is None:
        log(f"the kernel loaded here is not {so_path}")
        return 1
    return pytest.main(["-q", "-s", "-p", "no:cacheprovider", *TESTS,
                        *pytest_args])


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        return child(argv[1], argv[2:])
    work = tempfile.mkdtemp(prefix="kernel-sanitize-")
    try:
        os.environ["REPRO_CACHE_DIR"] = work
        so_path = compile_sanitized()
        log(f"instrumented kernel: {so_path}")
        env = dict(os.environ,
                   REPRO_CACHE_DIR=work,
                   LD_PRELOAD=asan_runtime(),
                   # CPython frees little at exit; leaks are not the
                   # kernel's (it mallocs and frees within one call).
                   ASAN_OPTIONS="detect_leaks=0:halt_on_error=1",
                   UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(REPO / "src"),
                                   os.environ.get("PYTHONPATH")) if p))
        env.pop("REPRO_NO_BATCH_KERNEL", None)
        rc = subprocess.run([sys.executable, __file__, "--child", so_path,
                             *argv], cwd=REPO, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log("clean" if rc == 0 else f"FAILED (exit {rc})")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
