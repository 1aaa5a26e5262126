"""One OpenBLAS thread for the library's own BLAS and LAPACK calls.

The thermal operator's band factor and back-solve and the SQP backend's
``scipy.optimize.minimize`` call BLAS on arrays small enough that a
thread pool only adds synchronization, and OpenBLAS splits some of
those calls by thread count, so their last bits would depend on the
host's core count.  :class:`one_blas_thread` runs a body at one thread
on the calling thread and restores the caller's setting after.  It is
re-entrant: an entry inside another on the same thread (a back-solve
inside an operator solve, a solve inside the SQP backend's call) sets
nothing, so the operator pays one set and one restore (~5 us) per
public call, not one per PCG back-solve (~0.13 ms each).
"""

from __future__ import annotations

import ctypes
import functools
import threading
from typing import Callable, Optional, Tuple


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


class _Held(threading.local):
    """Whether a :class:`one_blas_thread` body runs on this thread (the
    OpenBLAS setting it changes is the calling thread's own)."""

    held = False


_HELD = _Held()


class one_blas_thread:
    """Context manager: run the body with OpenBLAS at one thread on the
    calling thread; inside another such body on the same thread, run it
    as it is.

    ``dpbtrf``'s blocked updates are level-3 BLAS calls small enough
    that a thread pool only adds synchronization: on two CPUs shared
    by two processes (a two-worker campaign) each factor took ~140 ms
    instead of ~5 ms.  One thread also makes the results' bits
    independent of the host's core count.  A class, not a generator
    context manager: a warm PCG solve costs ~4% less with it, because
    every back-solve enters it nested.
    """

    __slots__ = ("_restore",)

    _restore: Optional[Tuple[Tuple[Callable[[int], int], int], ...]]

    def __enter__(self) -> None:
        if _HELD.held:
            self._restore = None
            return
        setters = openblas_thread_setters()
        self._restore = tuple(zip(setters, [setter(1)
                                            for setter in setters]))
        _HELD.held = True

    def __exit__(self, *exc_info) -> None:
        if self._restore is None:
            return
        _HELD.held = False
        for setter, count in self._restore:
            setter(count)
