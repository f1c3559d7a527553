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

Placement.  Linux often wakes a sleeping worker on the CPU of the thread
that wakes it, and there it stays, so both parts share one core.  Before
each two-part call ``run`` reads the caller's CPU with glibc's
``sched_getcpu``; when it is not the CPU the worker was last kept off, it
sets the worker thread's affinity to the process's allowed CPUs less that
one.  This acts only on this process's own thread, within its own allowed
set, and changes no setting of the machine.  Where ``sched_getcpu`` or
``os.sched_setaffinity`` is missing, or the latter raises ``OSError``, the
worker runs where the scheduler puts it.  On a 2-core Xeon with one BLAS
thread, 300 calls in a row of a split ``[6274,64]@[64,256]``: without
placement all 300 ran both parts on one CPU, at a 2.64 ms median against
2.54 ms for one unsplit call; with it all 300 ran on two CPUs, at 1.46 ms.
Paper joint ``tensor.attention`` forward+backward went from a 140.8 ms
median to 97.8 ms (168.7 ms on one lane), with the same bits; at a time
when the scheduler already spread the two threads, both read about 97 ms.

Users, each with its own cut:
- ``tensor.attention`` cuts its block list at the allowed cut nearest its
  middle (``tensor._attn_parts``).  Paper joint attention (batch 2, 1568
  tokens, dim 64, 4 heads, float32), forward/backward, on a 2-core Xeon
  with one BLAS thread, best of 7: 36.7/55.5 ms on one lane, 19.3/28.8 ms
  on two.
- ``tensor.linear``, ``tensor.layer_norm`` and ``tensor.gelu`` take the
  parts of their rows, and ``gelu`` of its chunk starts, from ``halves``,
  as do ``video._resample`` and ``video.to_model_tensor`` for a clip's
  frames.  Each makes one ``run`` call per walk, which below the split
  is a one-part call on the caller.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from typing import Callable, Sequence

LANES = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1

# Output elements above which a kernel cuts its leading axis in two.  The
# largest desk array, an eval chunk's [8, 129, 128] MLP hidden, holds 132k.
SPLIT_ELEMENTS = 1 << 18

_WHOLE = [slice(None)]                    # the one part of an unsplit axis; never mutated

_pool = None                              # the worker, started by the first two-part call
_worker = None                            # its native thread id
_kept_off = None                          # the CPU the worker was last kept off


def _find_sched_getcpu():
    """glibc's sched_getcpu, or None where it or thread affinity is absent."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        fn = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError, TypeError):        # no C library, or no sched_getcpu in it
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return fn


_sched_getcpu = _find_sched_getcpu()


def _forget_pool() -> None:
    """A forked child has no worker thread, though it inherits the pool."""
    global _pool, _worker, _kept_off
    _pool = _worker = _kept_off = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def halves(n: int, size: int | None = None) -> list:
    """The parts, as slices, of a leading axis of n for ``run``: its two
    halves where there are two lanes, n >= 2 and, when ``size`` is given,
    the output's ``size`` elements exceed SPLIT_ELEMENTS; else the whole
    axis as one part, which ``run`` walks on the caller."""
    if LANES < 2 or n < 2 or (size is not None and size <= SPLIT_ELEMENTS):
        return _WHOLE
    h = (n + 1) // 2
    return [slice(0, h), slice(h, n)]


def _keep_worker_off(cpu: int) -> None:
    """Let the worker run on every allowed CPU but ``cpu``; as before
    where the call fails or no other CPU is allowed."""
    global _kept_off
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(_worker, others)
            _kept_off = cpu
    except OSError:
        pass


def run(fn: Callable, parts: Sequence) -> None:
    """fn(part) for each part: the first on this thread, the second, if
    any, on the lane worker under a copy of this thread's context, so
    numpy's errstate holds there too.  An error either part raises is
    raised here, the first part's ahead of the second's, as a serial walk
    would meet them."""
    global _pool, _worker
    if len(parts) == 1:
        fn(parts[0])
        return
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="vslr-lane")
        _worker = _pool.submit(threading.get_native_id).result()
    if _sched_getcpu is not None:
        cpu = _sched_getcpu()
        if cpu >= 0 and cpu != _kept_off:
            _keep_worker_off(cpu)
    future = _pool.submit(contextvars.copy_context().run, fn, parts[1])
    try:
        fn(parts[0])
    finally:
        error = future.exception()        # wait: the worker writes the caller's arrays
    if error is not None:
        raise error
