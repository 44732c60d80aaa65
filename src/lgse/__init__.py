"""Transformer speech enhancement with pluggable positional encodings,
built small enough to train, verify, and study length generalization on a CPU.

The package re-exports nothing: import the submodule that holds a name, such
as `lgse.model` or `lgse.training`. The `lgse` command is `lgse.cli`.

Importing lgse sets BLAS to one thread for the process and its children,
whatever the caller set. A BLAS product's bits depend on how many threads sum
it, and an unpinned OpenBLAS takes one per core, so the output bytes would
change with the host's core count. One thread also leaves the CPUs to
`model._workers`, which splits the work among them.
"""


def _pin_blas() -> bool:
    """Run BLAS on one thread; False if numpy's BLAS was already loaded and
    offers no way to set it.

    The variables pin a BLAS that loads later, here or in a child process.
    A BLAS numpy loaded before lgse is set through OpenBLAS's own call,
    looked up through numpy's core extension, which links it.
    """
    import os
    import sys

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules.get("numpy.core._multiarray_umath"))
    if core is None:
        return True
    import ctypes

    blas = ctypes.CDLL(core.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        set_threads = getattr(blas, name, None)
        if set_threads is not None:
            set_threads(1)
            return True
    return False


# Set before any submodule loads numpy; `model._workers` reads it.
_blas_pinned = _pin_blas()
