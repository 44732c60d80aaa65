import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import lgse
from helpers import no_child_left, unpinned_env
from lgse import workers
from lgse.model import EnhancementModel, ModelConfig
from lgse.numerics import grad_enabled, no_grad


def test_both_splits_run_every_job_once_and_the_caller_its_share(monkeypatch):
    """jobs in {0, 1, W - 1, W, W + 1, 2W + 1} on W in {1, 2, 3} usable CPUs.
    Each split runs every job once, inside the caller's `no_grad()`. The
    calling thread runs the first contiguous run of `on_threads`, its bounds
    rounded up; the calling process runs jobs 0, W, 2W, ... of
    `in_processes`, whose results come back in job order."""
    thread, pid = threading.get_ident(), os.getpid()
    for usable in (1, 2, 3):
        monkeypatch.setattr(workers, "_usable_cpus", lambda usable=usable: usable)
        for jobs in sorted({0, 1, usable - 1, usable, usable + 1, 2 * usable + 1}):
            w = workers.count(jobs)
            case = f"{jobs} jobs on {usable} CPUs"
            assert w == max(1, min(usable, jobs)), case
            seen = []

            def job(n):
                seen.append((n, grad_enabled(), threading.get_ident()))

            with no_grad():
                workers.on_threads(jobs, job)
                results = workers.in_processes(
                    jobs, lambda n: (n, grad_enabled(), os.getpid()))
            assert sorted(n for n, _, _ in seen) == list(range(jobs)), case
            assert [n for n, _, t in seen if t == thread] == list(range(-(-jobs // w))), case
            # A pool thread may take two runs, but never the calling thread's.
            assert (len({t for _, _, t in seen}) > 1) == (w > 1), case
            assert [n for n, _, _ in results] == list(range(jobs)), case
            assert [n for n, _, p in results if p == pid] == list(range(0, jobs, w)), case
            assert len({p for _, _, p in results}) == min(w, jobs), case
            assert not any(enabled for _, enabled, _ in seen + results), case
            assert no_child_left(), case


def test_a_forward_split_on_threads_leaves_no_thread_to_block_a_fork(monkeypatch):
    """A `predict` whose attention and frame blocks split across 2 threads,
    then `in_processes(2, ...)` in the same process: `on_threads` joined its
    pool, so the second job runs in one forked child, with the bits of a
    one-process run."""
    import lgse.model as model_module

    m = EnhancementModel(ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, k_bins=9,
                                     pe_kind="learnlin", init_seed=3))
    xs = np.random.default_rng(60).uniform(0.0, 2.0, (2, 2, 11, 9))
    # Three attention blocks of 4 query rows, and five frame blocks of 4.
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", 8 * 11 * 2 * 2 * 4)
    monkeypatch.setattr(model_module, "_FRAME_WORK", 1)
    monkeypatch.setattr(model_module, "_FRAME_ROWS", 4)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    threads = {"softmax_rows": set(), "layer_norm_frames": set()}
    for name, seen in threads.items():
        def spy(*args, _original=getattr(model_module, name), _seen=seen):
            _seen.add(threading.get_ident())
            return _original(*args)

        monkeypatch.setattr(model_module, name, spy)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    m.predict(xs[0])
    # Each split call starts its own pool thread beside the calling thread.
    main = threading.get_ident()
    assert all(main in seen and len(seen) > 1 for seen in threads.values())
    assert threading.active_count() == 1
    forked = workers.in_processes(2, lambda n: m.predict(xs[n]))
    assert len(forks) == 1 and no_child_left()
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    forks.clear()
    alone = workers.in_processes(2, lambda n: m.predict(xs[n]))
    assert forks == []
    assert all(np.array_equal(a, b) for a, b in zip(forked, alone, strict=True))


# Imports the CLI; prints whether the thread pool's module is loaded.
_CLI_ALONE = "import sys, lgse.cli; print('concurrent.futures' in sys.modules)"


def test_importing_the_cli_loads_no_thread_pool():
    """`on_threads` imports `concurrent.futures` on its first split, so
    neither a command that splits nothing nor a forked child pays for it."""
    done = subprocess.run([sys.executable, "-c", _CLI_ALONE], capture_output=True,
                          text=True, env=unpinned_env(), timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_only_the_workers_module_counts_cpus_starts_threads_and_forks():
    """CPU lookups, thread pools and forks are named in `workers` alone, the
    BLAS thread variables in `lgse/__init__.py` alone. No other module calls
    `workers.count` or uses a private name of another lgse module; `workers`
    reads the package's `_blas_pinned`."""
    package = Path(lgse.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.alias):
                yield node.name

    homes = {name: "workers.py" for name in
             ("sched_getaffinity", "cpu_count", "ThreadPoolExecutor", "fork", "waitpid")}
    found = {name: [path for path, tree in trees.items() if name in set(names(tree))]
             for name in homes}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        homes[var] = "__init__.py"
        found[var] = [path.name for path in sorted(package.glob("*.py"))
                      if var in path.read_text(encoding="utf-8")]
    assert found == {name: [home] for name, home in homes.items()}

    private, split_calls = {}, set()
    for path, tree in trees.items():
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for alias in node.names}
        used = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if alias.name.startswith("_")]
        used += [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and node.attr.startswith("_")]
        private[path] = used
        split_calls |= {(path, node.attr) for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name) and node.value.id == "workers"}
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "workers"
                       for node in ast.walk(tree)), path
    assert private == {path: ["_blas_pinned"] if path == "workers.py" else []
                       for path in trees}
    assert split_calls == {("model.py", "on_threads"), ("evaluate.py", "in_processes")}
