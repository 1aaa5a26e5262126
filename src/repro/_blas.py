"""One OpenBLAS thread for the library's own BLAS and LAPACK calls.

The thermal operator's band factor and back-solve and the SQP backend's
``scipy.optimize.minimize`` call BLAS on arrays small enough that a
thread pool only adds synchronization, and OpenBLAS splits some of
those calls by thread count, so their last bits would depend on the
host's core count.  :func:`one_blas_thread` runs a body at one thread
on the calling thread and restores the caller's setting after.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Callable, Iterator, Tuple


@functools.lru_cache(maxsize=None)
def openblas_thread_setters() -> Tuple[Callable[[int], int], ...]:
    """``openblas_set_num_threads_local`` of every OpenBLAS loaded in
    this process (scipy's and numpy's may be two), found through
    ``/proc/self/maps``; empty on other platforms and BLAS libraries."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.split()[-1]})
    except (OSError, IndexError):
        return ()
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS at one thread on the calling thread.

    ``dpbtrf``'s blocked updates are level-3 BLAS calls small enough
    that a thread pool only adds synchronization: on two CPUs shared
    by two processes (a two-worker campaign) each factor took ~140 ms
    instead of ~5 ms.  One thread also makes the results' bits
    independent of the host's core count.
    """
    setters = openblas_thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)
