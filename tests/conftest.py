"""Helpers shared by the test modules."""

import hashlib

import numpy as np
import pytest

from vslr import lanes


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
