"""The OpenBLAS thread count, reached through the library numpy loaded.

After a multi-threaded call, an idle OpenBLAS worker spins for about
0.13 s of CPU before it sleeps. Every mean-shift search runs inside
single_thread(), so it never wakes that worker and its bits do not depend
on the caller's thread count. Without a bundled OpenBLAS (MKL, Accelerate)
it does nothing.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
from pathlib import Path

import numpy as np

_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


@functools.cache
def _thread_functions():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    np_dir = Path(np.__file__).resolve().parent
    libs = glob.glob(str(np_dir.parent / "numpy.libs" / "*openblas*"))
    libs += glob.glob(str(np_dir / ".libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GET_THREADS:
            get = getattr(lib, name, None)
            put = getattr(lib, name.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def single_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    The count is process-wide: BLAS calls from other Python threads in the
    meantime run on one thread too.
    """
    fns = _thread_functions()
    if fns is None:
        yield
        return
    get, put = fns
    prev = get()
    put(1)
    try:
        yield
    finally:
        put(prev)
