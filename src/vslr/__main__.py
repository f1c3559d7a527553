"""Entry point; pins BLAS thread counts before numpy is imported so the
default single-thread runs are bit-stable."""

import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _peek_threads(argv) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--threads="):
            return arg.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    explicit = _peek_threads(argv)
    if explicit is not None:            # read as argparse reads it, then checked
        try:
            count = int(explicit)
        except ValueError:
            count = 0
        if count < 1:
            print(f"error[config]: --threads must be an integer >= 1, got {explicit!r}",
                  file=sys.stderr)
            return 2
        explicit = str(count)
    for var in _THREAD_VARS:
        if explicit is not None:
            os.environ[var] = explicit
        else:
            os.environ.setdefault(var, "1")
    from .cli import dispatch

    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
