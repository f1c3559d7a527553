"""Lanes: the threads a kernel's independent parts run on.

A kernel that splits its work runs it on ``LANES`` threads, the caller
and at most one worker: ``min(2, len(os.sched_getaffinity(0)))``, or 1
where that call does not exist.  The kernel cuts its work into at most
``LANES`` contiguous parts and hands them to ``run``: the caller runs the
first part and the worker, started by the first two-part call, the
second.  A call of one part is the serial loop: it starts no thread and
imports no ``concurrent.futures``.  Each part writes only its own slice of
the caller's arrays and does the same operations on either lane, so the
bits do not depend on the lane count.  The worker runs under a copy of the
caller's context, so numpy's ``errstate`` holds there too, and an error in
either part is raised in the caller.  Lanes call only numpy: they build no
autodiff node and record no multiply-adds.  BLAS keeps its own thread
count.

Two kernels use them, each with its own cut:
- ``tensor.attention`` cuts its block list at the allowed cut nearest its
  middle (``tensor._attn_parts``).  Paper joint attention (batch 2, 1568
  tokens, dim 64, 4 heads, float32), forward/backward, on a 2-core Xeon
  with one BLAS thread, best of 7: 36.7/55.5 ms on one lane, 19.3/28.8 ms
  on two.
- ``video._resample`` cuts a clip's frames into halves.
"""

from __future__ import annotations

import contextvars
import os
from typing import Callable

LANES = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
_pool = None                              # the worker, started by the first two-part call


def _forget_pool() -> None:
    """A forked child has no worker thread, though it inherits the pool."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run(fn: Callable, parts: list) -> None:
    """fn(part) for each part: the first on this thread, the second, if
    any, on the lane worker under a copy of this thread's context, so
    numpy's errstate holds there too.  An error either part raises is
    raised here, the first part's ahead of the second's, as a serial walk
    would meet them."""
    global _pool
    if len(parts) == 1:
        fn(parts[0])
        return
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="vslr-lane")
    future = _pool.submit(contextvars.copy_context().run, fn, parts[1])
    try:
        fn(parts[0])
    finally:
        error = future.exception()        # wait: the worker writes the caller's arrays
    if error is not None:
        raise error
