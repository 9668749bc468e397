"""The cyclic garbage collector, paused while a model build or a search runs.

A build makes tens of thousands of tracked rows and a search a heap of
tracked tuples, none of them in a reference cycle, and the collector walks
them again on every collection.  A function decorated with
``collector_paused`` runs with the collector off instead.  The switch is
process-wide, so the guard counts the calls running in every thread: the
first to enter saves ``gc.isenabled()`` and disables the collector, and
the last to leave restores the saved state, also when it raises.  One
call that ends in a thread pool cannot switch the collector back on
under another that still runs.  The thresholds are never touched.
"""
from __future__ import annotations

import functools
import gc
import threading

_lock = threading.Lock()
_depth = 0
_was_enabled = False


def collector_paused(fn):
    """``fn``, run with the cyclic collector paused."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        global _depth, _was_enabled
        with _lock:
            if _depth == 0:
                _was_enabled = gc.isenabled()
                gc.disable()
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0 and _was_enabled:
                    gc.enable()

    return paused
