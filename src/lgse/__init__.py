"""Transformer speech enhancement with pluggable positional encodings,
built small enough to train, verify, and study length generalization on a CPU.

The package re-exports nothing: import the submodule that holds a name, such
as `lgse.model` or `lgse.training`. The `lgse` command is `lgse.cli`.

Importing lgse makes two process-wide settings, whatever the caller set;
forked children, such as the experiment's scoring processes, inherit both.

- BLAS runs on one thread. A BLAS product's bits depend on how many threads
  sum it, and an unpinned OpenBLAS takes one per core, so the output bytes
  would change with the host's core count. One thread also leaves the CPUs to
  `model._workers`, which splits the work among them.
- Under glibc, freed heap pages stay mapped for the next call. By default
  glibc returns the top of the heap to the kernel after each burst of
  0.5-5 MB float64 temporaries, and the next call faults the same pages in
  again: about 31,000 minor faults per experiment of the benchmark's
  lengen-mini workload on one process.
  The policy changes no arithmetic, only where the temporaries' pages come
  from.
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


def _keep_freed_heap() -> None:
    """Keep freed heap pages mapped for the next call; a no-op where the C
    library is not glibc.

    glibc unmaps a freed block above its mmap threshold and gives back the
    heap's free top once it exceeds the trim threshold. It raises both as it
    sees large blocks freed, yet a burst that frees more than twice its
    largest block still trims the heap every time. The mmap threshold is set
    to glibc's cap for its dynamic value (DEFAULT_MMAP_THRESHOLD_MAX, 32 MiB
    on 64-bit hosts) and the trim threshold to twice that, as the dynamic
    rule would. Thread arenas use the same values; `malloc_trim` still
    returns free pages when asked.
    """
    import os

    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc = ""
    if not libc.startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold, cap = -1, -3, 32 << 20  # malloc.h
    mallopt(m_mmap_threshold, cap)
    mallopt(m_trim_threshold, 2 * cap)


_keep_freed_heap()
