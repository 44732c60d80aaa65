"""Pytest setup for the whole repository.

BLAS is pinned to one thread before numpy loads, as `bench/run.py` pins it,
so tests that pin output bytes see the same float sums on every host:
OpenBLAS caps its thread count at the number of cores, so a multi-threaded
sum cannot be reproduced on a one-core host. CLI subprocesses started by the
tests inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
