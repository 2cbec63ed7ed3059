"""recurfit: retrofit depth recurrence into fixed-depth decoder
transformers, and train/evaluate the result at a desk scale.

Importing the package sets glibc's malloc to keep freed memory: a trim
threshold of 1 GiB and an mmap threshold of 32 MiB. A training step frees
most of what it allocated; with glibc's defaults the top of the heap is
trimmed back to the system after each step and faulted in again by the
next, which costs more than the arithmetic. The setting is made at
import so that the CLI, tests and a forked eval worker all run with it,
and is skipped where the C library has no `mallopt`.
"""

import ctypes

try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
