"""The one error type for faults in what a run is given or meets.

Every check on outside input (configs, manifests, raw videos,
checkpoints, files) and every run-level fault (divergence, a head that
does not fit the dataset) raises VslrError with its class; the CLI prints
`error[<class>]: message` and exits 2.  Internal invariants raise plain
exceptions, so a real bug still shows its traceback.
"""

from __future__ import annotations

import numbers

import numpy as np

ERROR_CLASSES = ("config", "manifest", "video", "checkpoint", "io",
                 "conflict", "divergence", "head/class mismatch")


class VslrError(ValueError):
    """A fault in outside input or in a run, tagged with its class."""

    def __init__(self, cls: str, msg: str):
        if cls not in ERROR_CLASSES:
            raise ValueError(f"unknown error class {cls!r}")
        super().__init__(msg)
        self.cls = cls


def at_least(low: int, **values) -> None:
    """Reject, as a config fault, any value that is not an integer >= low."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
            raise VslrError("config", f"{name} must be an integer >= {low}, got {v!r}")


def first_non_finite(arrays: dict):
    """Name of the first array, in order, holding a NaN or an infinity, or
    None.  One float64 sum over all the arrays clears the common case at
    the cost of one reduction; only when it is not finite is each array
    summed on its own.  No finite float32 array can overflow a float64
    sum, so only a float64 array whose sum overflows is also checked
    element by element."""
    if not arrays:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        every = np.concatenate([a.ravel() for a in arrays.values()])
        if np.isfinite(every.sum(dtype=np.float64)):
            return None
        for name, a in arrays.items():
            if not np.isfinite(a.sum(dtype=np.float64)) and not np.isfinite(a).all():
                return name
    return None
