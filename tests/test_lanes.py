"""The lane worker: which thread runs which part, error order, and a fresh
worker after a fork.  The kernels that run on lanes test their own bits
against one lane (tests/test_tensor.py, tests/test_video.py)."""

import multiprocessing
import os
import threading

import pytest

from vslr import lanes


def test_lane_errors_reach_the_caller_first_part_first():
    threads = []

    def fn(part):
        threads.append(threading.get_ident())
        if part in failing:
            raise ValueError(f"part {part}")

    failing = {2}
    with pytest.raises(ValueError, match="part 2"):
        lanes.run(fn, [1, 2])
    assert len(set(threads)) == 2 and threading.get_ident() in threads
    failing = {1, 2}
    with pytest.raises(ValueError, match="part 1"):
        lanes.run(fn, [1, 2])


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_a_forked_child_starts_its_own_lane_worker():
    """The child of a fork inherits the pool but not its thread; a two-part
    call there must not wait on a worker that does not exist."""
    lanes.run(lambda part: None, [1, 2])         # this process's worker is up
    child = multiprocessing.get_context("fork").Process(
        target=lanes.run, args=(lambda part: None, [1, 2]))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0
