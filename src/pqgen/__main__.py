"""`python -m pqgen` and the `pqgen` script. Threads can round a BLAS product
differently, so every BLAS pool is pinned to one thread before numpy loads."""

import os
import sys


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    from .cli import main as cli_main  # imports numpy
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
