"""Build and load the compiled CDCL core (``ckernel.c``).

The C source ships with the package and is compiled once per machine
with whatever system C compiler is available (``$CC``, ``cc``,
``gcc``, ``clang``), into a shared object under the user cache
directory keyed by the source, ``$CC``, the flags and the platform.
Loading is lazy and failure-tolerant: if no compiler is present or
the build or load fails, :func:`load_core` logs one warning saying
which and returns None, and the kernel engine falls back to its
pure-Python array implementation — same results, just slower.

Set ``REPRO_SAT_CC=off`` to force the fallback (used by the
differential tests to pin the two builds against each other).  A
successful build deletes the shared objects built under older keys
in the same cache directory.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import logging
import os
import platform
import subprocess
import sys
import tempfile
from typing import Optional

__all__ = ["load_core", "compiled_available", "fallback_reason", "CORE_ENV"]

logger = logging.getLogger(__name__)

#: Environment switch for the compiled core ("off"/"0" disables it).
CORE_ENV = "REPRO_SAT_CC"

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "ckernel.c")
#: Compiler flags of the build (part of the cache key).
_FLAGS = ("-O2", "-fPIC", "-shared")
_lib: Optional[ctypes.CDLL] = None
_tried = False
_fallback: Optional[str] = None

#: ctypes signature of the cooperative-cancellation probe passed to
#: ``ck_solve`` (returns nonzero to abort the search).
STOP_CB = ctypes.CFUNCTYPE(ctypes.c_int)


def _cache_path(source: bytes) -> str:
    key = hashlib.sha256(source)
    for part in (os.environ.get("CC", ""), *_FLAGS, sys.platform,
                 platform.machine()):
        key.update(b"\0" + part.encode())
    tag = key.hexdigest()[:16]
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    for root in (os.path.join(base, "repro"), tempfile.gettempdir()):
        try:
            os.makedirs(root, exist_ok=True)
            probe = os.path.join(root, f".w{os.getpid()}")
            with open(probe, "w"):
                pass
            os.unlink(probe)
            return os.path.join(root, f"repro_ckernel_{tag}.so")
        except OSError:
            continue
    return os.path.join(tempfile.gettempdir(),
                        f"repro_ckernel_{tag}.so")


def _compile(source_path: str, out_path: str) -> Optional[str]:
    """Build the shared object; None on success, else why not."""
    compilers = [os.environ["CC"]] if os.environ.get("CC") else []
    compilers += ["cc", "gcc", "clang"]
    tmp_out = f"{out_path}.{os.getpid()}.tmp"
    reason = f"no C compiler found (tried {', '.join(compilers)})"
    for cc in compilers:
        try:
            proc = subprocess.run([cc, *_FLAGS, "-o", tmp_out, source_path],
                                  capture_output=True, timeout=120)
        except FileNotFoundError:
            continue
        except (OSError, subprocess.TimeoutExpired) as exc:
            reason = f"build failed: {cc}: {exc}"
            continue
        if proc.returncode == 0:
            os.replace(tmp_out, out_path)
            _prune(out_path)
            return None
        reason = f"build failed: {cc}: " \
            + proc.stderr.decode(errors="replace").split("\n")[0]
    try:
        os.unlink(tmp_out)
    except OSError:
        pass
    return reason


def _prune(keep: str) -> None:
    """Delete the cores built under other keys next to ``keep`` (a
    mapped shared object survives being unlinked)."""
    pattern = os.path.join(os.path.dirname(keep), "repro_ckernel_*.so")
    for path in glob.glob(pattern):
        if path != keep:
            try:
                os.unlink(path)
            except OSError:
                pass


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    c_sp = ctypes.c_void_p
    i32 = ctypes.c_int32
    i64 = ctypes.c_int64
    lib.ck_new.restype = c_sp
    lib.ck_new.argtypes = []
    lib.ck_free.argtypes = [c_sp]
    lib.ck_new_var.restype = i32
    lib.ck_new_var.argtypes = [c_sp]
    lib.ck_ensure_vars.restype = ctypes.c_int
    lib.ck_ensure_vars.argtypes = [c_sp, i32]
    lib.ck_num_vars.restype = i32
    lib.ck_num_vars.argtypes = [c_sp]
    lib.ck_ok.restype = ctypes.c_int
    lib.ck_ok.argtypes = [c_sp]
    lib.ck_stat.restype = i64
    lib.ck_stat.argtypes = [c_sp, ctypes.c_int]
    lib.ck_add_clause.restype = ctypes.c_int
    # Literal buffers are passed by address (array("i") storage).
    lib.ck_add_clause.argtypes = [c_sp, c_sp, i32]
    lib.ck_solve.restype = ctypes.c_int
    lib.ck_solve.argtypes = [c_sp, c_sp, i32,
                             i64, i64, i64, i64, ctypes.c_double,
                             STOP_CB]
    lib.ck_model_value.restype = ctypes.c_int
    lib.ck_model_value.argtypes = [c_sp, i32]
    lib.ck_copy_model.restype = i32
    lib.ck_copy_model.argtypes = [c_sp, ctypes.POINTER(ctypes.c_int8),
                                  i32]
    lib.ck_core_size.restype = i32
    lib.ck_core_size.argtypes = [c_sp]
    lib.ck_copy_core.argtypes = [c_sp, ctypes.POINTER(i32)]
    lib.ck_fixed_value.restype = ctypes.c_int
    lib.ck_fixed_value.argtypes = [c_sp, i32]
    lib.ck_set_phase.restype = ctypes.c_int
    lib.ck_set_phase.argtypes = [c_sp, i32, ctypes.c_int]
    lib.ck_num_clauses.restype = i32
    lib.ck_num_clauses.argtypes = [c_sp]
    lib.ck_num_learnts.restype = i32
    lib.ck_num_learnts.argtypes = [c_sp]
    lib.ck_purge_satisfied.restype = i32
    lib.ck_purge_satisfied.argtypes = [c_sp]
    return lib


def load_core() -> Optional[ctypes.CDLL]:
    """The compiled core library, building it on first use.

    Returns None when disabled (``REPRO_SAT_CC=off``), when no C
    compiler is available, or when the build/load fails; the result is
    cached for the life of the process.
    """
    global _lib, _tried, _fallback
    if os.environ.get(CORE_ENV, "").strip().lower() in (
            "off", "0", "false", "no", "py", "python"):
        return None
    if _tried:
        return _lib
    _tried = True
    try:
        with open(_SOURCE, "rb") as fh:
            so_path = _cache_path(fh.read())
        if not os.path.exists(so_path):
            _fallback = _compile(_SOURCE, so_path)
        if _fallback is None:
            _lib = _bind(ctypes.CDLL(so_path))
    except OSError as exc:
        _fallback = f"load failed: {exc}"
    if _fallback is not None:
        logger.warning("compiled SAT core unavailable (%s); using the "
                       "interpreted kernel", _fallback)
    return _lib


def fallback_reason() -> Optional[str]:
    """Why building or loading the compiled core failed, or None."""
    return _fallback


def compiled_available() -> bool:
    """True when the compiled core can be (or already was) loaded."""
    return load_core() is not None
