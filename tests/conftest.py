"""Helpers shared by the test modules."""

import hashlib

import numpy as np
import pytest


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
