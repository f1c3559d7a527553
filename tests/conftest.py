"""Helpers shared by the test modules.

BLAS runs one thread, as under ``python -m vslr`` and ``perfbench/run.py``:
the bit-for-bit pins are the bits those runs make.  The variables are the
CLI's own tuple, set before numpy loads, as BLAS reads them only then;
``vslr.__main__`` imports no numpy."""

import os

from vslr.__main__ import _THREAD_VARS

for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import hashlib  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from vslr import lanes  # noqa: E402


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture
def sha256():
    """sha256 hex digest of the bytes of a sequence of arrays, in order;
    the bit-for-bit pins compare against it."""
    return _sha256


@pytest.fixture
def lane_parts(monkeypatch):
    """The part count of each lanes.run call made while the test runs."""
    parts, run = [], lanes.run

    def counted(fn, p):
        parts.append(len(p))
        run(fn, p)

    monkeypatch.setattr(lanes, "run", counted)
    return parts
