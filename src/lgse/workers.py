"""How work meets the CPUs: the worker count and the two splits.

A split runs job(n) for n in range(jobs) on W = `count(jobs)` workers,
min(usable CPUs, jobs). Importing lgse pins BLAS to one thread (see
`lgse._pin_blas`), so a worker keeps one CPU busy; where that failed, W is
1. A job makes the same bits on any worker, so W changes no output bit and
no setting picks it.

`on_threads` runs a tape-free forward's blocks, whose numpy calls leave the
GIL, in contiguous runs: only a call's last block is uneven, and the 19
frame blocks of the 20 s reference forward (18 of 64 rows, one of 97) split
640/609 rows in contiguous runs but 673/576 strided. `in_processes` forks
and deals job n to process n mod W: the experiment lists its mixtures by
duration, and only strided dealing gives each process its share of each.

A forked child inherits the BLAS pin and glibc's heap thresholds that
importing lgse set, and every lock held at the fork, but not the threads
that would release them. So nothing forks while another Python thread is
alive, and `on_threads` joins its pool before it returns.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import threading
from collections.abc import Callable

from . import _blas_pinned

__all__ = ["count", "on_threads", "in_processes"]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def count(jobs: int) -> int:
    """min(usable CPUs, jobs), at least 1; 1 where BLAS could not be pinned."""
    return max(1, min(_usable_cpus(), jobs)) if _blas_pinned else 1


def on_threads(jobs: int, job: Callable[[int], None]) -> None:
    """job(n) for each n in range(jobs), in W = `count(jobs)` contiguous runs
    with bounds rounded up, the calling thread taking the first and a pool
    the others. Pool threads run in copies of the caller's context, so they
    inherit its `no_grad()`. The pool is joined before this returns; a pool
    run's error is raised once the first run is done, and an error of the
    first run after the pool is joined."""
    workers = count(jobs)

    def run(lo: int, hi: int) -> None:
        for n in range(lo, hi):
            job(n)

    if workers == 1:
        run(0, jobs)
        return
    bounds = [-(-jobs * w // workers) for w in range(workers + 1)]
    # Imported on first use, as only calls split among workers start threads.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        shares = [pool.submit(contextvars.copy_context().run, run, lo, hi)
                  for lo, hi in zip(bounds[1:-1], bounds[2:])]
        run(bounds[0], bounds[1])
        for share in shares:
            share.result()


def in_processes(jobs: int, job: Callable[[int], object]) -> list:
    """[job(n) for n in range(jobs)], job n run on process n mod W (the
    caller is 0), W = `count(jobs)` or 1 while another thread is alive.

    A child pickles its results, or the exception it raised, into a pipe
    and leaves through `os._exit`. Every child is reaped before anything is
    raised, also when a job of the caller's raises; a child's exception is
    then raised here with its type and message, and a child that exits
    without reporting raises ChildProcessError naming its exit status.
    """
    workers = count(jobs) if threading.active_count() == 1 else 1
    children: list[tuple[int, int]] = []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _report(write, job, range(w, jobs, workers))
            os.close(write)
            children.append((pid, read))
        shares = [[job(n) for n in range(0, jobs, workers)]]
    finally:
        ends = [_reap(pid, read) for pid, read in children]
    for pid, code, data in ends:
        if code != 0 or not data:
            raise ChildProcessError(f"worker process {pid} exited with status "
                                    f"{code} without reporting")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        shares.append(value)
    return [shares[n % workers][n // workers] for n in range(jobs)]


def _report(write: int, job, ns: range) -> None:
    """In a forked child: run job n for each n in `ns`, pickle (True,
    results) or (False, exception) into fd `write`, and leave through
    `os._exit`, with status 0 only if the report was written whole."""
    code = 1
    try:
        try:
            report = (True, [job(n) for n in ns])
        except BaseException as exc:  # noqa: BLE001 - the caller re-raises it
            report = (False, exc)
        with os.fdopen(write, "wb") as f:
            f.write(pickle.dumps(report))
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, read: int) -> tuple[int, int, bytes]:
    """A child's pid, exit status and everything it wrote to fd `read`."""
    with os.fdopen(read, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    return pid, os.waitstatus_to_exitcode(status), data
