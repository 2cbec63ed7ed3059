"""Thread count of numpy's bundled OpenBLAS.

numpy's wheels ship OpenBLAS as `numpy.libs/libscipy_openblas64_-*.so`,
which exports `scipy_openblas_set_num_threads64_` and
`scipy_openblas_get_num_threads64_`; `ctypes` reaches them there. No
other library or symbol name is tried: where these two are missing,
`threads()` is None and `one_thread()` changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np


@functools.cache
def _thread_functions():
    """(set, get) thread-count functions of numpy's OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        try:
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


def threads() -> int | None:
    """The OpenBLAS thread count, or None where it cannot be read."""
    functions = _thread_functions()
    return functions[1]() if functions else None


@contextlib.contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread; restore the count after.

    Pin only code whose results do not depend on the count: a training
    step's gradients do. Where the count cannot be set, the block runs
    unchanged.
    """
    functions = _thread_functions()
    if functions is None:
        yield
        return
    set_threads, get_threads = functions
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
