"""Helpers shared by the test modules.

BLAS runs one thread, as under ``python -m vslr`` and ``perfbench/run.py``:
the bit-for-bit pins are the bits those runs make.  The variables are set
before numpy loads, as BLAS reads them only then."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
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
