"""The lane worker: which thread runs which part, error order, where the
worker is placed, and a fresh worker after a fork.  The kernels that run
on lanes test their own bits against one lane (tests/test_tensor.py,
tests/test_video.py)."""

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


CAN_PLACE = lanes._sched_getcpu is not None and len(os.sched_getaffinity(0)) >= 2
needs_placement = pytest.mark.skipif(not CAN_PLACE, reason="fewer than two CPUs allowed, "
                                                           "or no sched_getcpu")


def _worker_is_off(cpu: int) -> bool:
    placed = os.sched_getaffinity(lanes._worker)
    return bool(placed) and placed <= os.sched_getaffinity(0) and cpu not in placed


@needs_placement
def test_the_worker_is_kept_off_the_callers_cpu():
    lanes.run(lambda part: None, [1, 2])
    assert lanes._kept_off is not None and _worker_is_off(lanes._kept_off)


@needs_placement
def test_the_worker_moves_only_when_the_callers_cpu_does(monkeypatch):
    """Each two-part call reads the caller's CPU; the worker's affinity is
    set again only when that CPU is not the one it was last kept off."""
    first, last = min(os.sched_getaffinity(0)), max(os.sched_getaffinity(0))
    cpu = [first]
    monkeypatch.setattr(lanes, "_sched_getcpu", lambda: cpu[0])
    lanes.run(lambda part: None, [1, 2])
    placed, set_affinity = [], os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda tid, mask: (placed.append((tid, mask)), set_affinity(tid, mask)))
    for reading in (last, last, first, first):
        cpu[0] = reading
        lanes.run(lambda part: None, [1, 2])
        assert lanes._kept_off == reading and _worker_is_off(reading)
    allowed = os.sched_getaffinity(0)
    assert placed == [(lanes._worker, allowed - {last}), (lanes._worker, allowed - {first})]


def _run_and_check_placement(cpu: int) -> None:
    lanes.run(lambda part: None, [1, 2])
    assert lanes._kept_off == cpu and _worker_is_off(cpu)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_a_forked_child_starts_its_own_lane_worker(monkeypatch):
    """The child of a fork inherits the pool but not its thread; a two-part
    call there must not wait on a worker that does not exist.  Where the
    worker can be placed, the child's is kept off its caller's CPU, though
    the parent's worker was last kept off the same one."""
    lanes.run(lambda part: None, [1, 2])         # this process's worker is up
    if CAN_PLACE:
        cpu = max(os.sched_getaffinity(0))
        monkeypatch.setattr(lanes, "_sched_getcpu", lambda: cpu)
        lanes.run(lambda part: None, [1, 2])
        assert lanes._kept_off == cpu
        target, args = _run_and_check_placement, (cpu,)
    else:
        target, args = lanes.run, (lambda part: None, [1, 2])
    child = multiprocessing.get_context("fork").Process(target=target, args=args)
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0
