"""The pitmesh command: the CLI with one BLAS thread unless set otherwise.

The band factorisations and solves are too small for OpenBLAS's threads
to pay for waking them.  The thread counts are read when numpy loads, so
they are set here, before anything imports it; a count already in the
environment is kept.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402  (after the BLAS thread pins)

if __name__ == "__main__":
    sys.exit(main())
