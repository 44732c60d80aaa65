"""The lgse benchmark: one workload per process, inputs made from --seed.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): train-desk, enhance-long, lengen-mini.

The run imports lgse from the `src/` directory beside this one, sets the
workload up `setup_reps` times, runs rounds of operations for --seconds,
checks every operation (goldens and in-run agreement), and with --trace 0
times the workload's first operation in fresh processes. It prints a table of
every metric with its unit and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (metrics.END_TO_END).
With --trace 1 the run spends the first half of --seconds untraced, then
wraps every public function of the seven lgse layers, spends the second half
traced, and reports the per-layer metrics, including the tracing overhead
(traced against untraced round time); the spans are written to
.bench_out/spans-<workload>-<seed>.npz.

Times are nominal seconds: each wall time is scaled by CAL_REF_S over the
time of a fixed calibration kernel measured around it (see `calibrate`).
The detail section also prints the raw wall medians.

BLAS is pinned to one thread before numpy loads. Other options: --out FILE
merges the full result into FILE for bench/compare.py; --size tiny shrinks
every workload for the benchmark's own tests; --record-goldens rewrites the
golden file of the workload and size. The exit code is 0 only for a correct
run.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-desk", "enhance-long", "lengen-mini")
COLD_TIMEOUT_S = 150
# Nominal seconds are wall seconds scaled to a host on which `calibrate`
# takes this long.
CAL_REF_S = 0.040


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--goldens", default=str(BENCH_DIR / "goldens"))
    p.add_argument("--out", help="merge the full result into this JSON file")
    p.add_argument("--record-goldens", action="store_true")
    p.add_argument("--cold-child", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_lgse() -> float:
    """Import lgse from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import lgse
        import lgse.dsp, lgse.evaluate, lgse.model, lgse.numerics  # noqa: E401,F401
        import lgse.objectives, lgse.posenc, lgse.training  # noqa: E401,F401
    except ImportError as exc:
        sys.exit(f"error: cannot import lgse from {SRC}: {exc}")
    seconds = time.perf_counter() - t0
    if SRC.resolve() not in Path(lgse.__file__).resolve().parents:
        sys.exit(f"error: lgse was imported from {lgse.__file__}, not from {SRC}")
    return seconds


def environment() -> dict:
    import numpy as np

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas": "unknown", "blas_threads": -1}
    try:
        env["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = int(fn())
                break
    return env


def release_heap() -> None:
    """Return freed heap pages to the OS, so that memory the rounds freed is
    not held while a cold-call child runs."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter loops and small-array numpy
    work that never touches lgse.

    The host these runs share changes speed by up to a fifth within tens of
    seconds. Every timing is scaled by CAL_REF_S over the calibration time
    measured around it in the same process, so runs compare in nominal
    seconds. Raw wall times are kept in the detail section.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    x = a
    for _ in range(300):
        x = np.tanh(x @ a * 0.01)
    return time.perf_counter() - t0


def repeat(fn, keep_going) -> tuple[list[float], list[float]]:
    """Time fn() while keep_going(count) holds, calibrating before the first
    call and after each one. Returns (wall seconds, nominal seconds)."""
    walls, cals = [], [calibrate()]
    while keep_going(len(walls)):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
        cals.append(calibrate())
    nominal = [w * 2 * CAL_REF_S / (a + b) for w, a, b in zip(walls, cals, cals[1:])]
    return walls, nominal


def run_rounds(work, tally, tracer, seconds: float, min_rounds: int):
    t_end = time.perf_counter() + seconds
    return repeat(lambda: work.round(tally, tracer),
                  lambda n: n < min_rounds or time.perf_counter() < t_end)


class NullTracer:
    def span(self, name):
        return contextlib.nullcontext()


def cold_calls(args, workdir: Path, reps: int, tally) -> tuple[list[float], list[float]]:
    """The workload's first operation in `reps` fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--goldens", args.goldens,
           "--cold-child", str(workdir)]
    walls, nominal = [], []
    for _ in range(reps):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=COLD_TIMEOUT_S, check=False)
            child = json.loads(proc.stdout.strip().splitlines()[-1])
            walls.append(float(child["cold_s"]))
            nominal.append(float(child["cold_s"]) * CAL_REF_S / float(child["cal_s"]))
            tally.add(1, 0)
        except (subprocess.TimeoutExpired, IndexError, KeyError, ValueError) as exc:
            tally.add(1, 1, f"cold call failed: {exc!r}")
    return walls, nominal


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, import_s: float, workdir: Path) -> dict:
    import metrics
    from tracer import LAYERS, Tracer
    from workloads import SIZES, WORKLOADS, Tally

    size = SIZES[args.size]
    tally = Tally()
    work = WORKLOADS[args.workload](size, args.seed, workdir, Path(args.goldens), args.size)
    calibrate()  # the first call pays numpy's first-use costs
    setup_walls, setups = repeat(lambda: work.setup(tally), lambda n: n < size.setup_reps)

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": environment()}
    if not args.trace:
        walls, rounds = run_rounds(work, tally, NullTracer(), args.seconds, size.min_rounds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        release_heap()
        cold_walls, colds = cold_calls(args, workdir, size.cold_reps, tally)
        scale = statistics.median(rounds) / statistics.median(walls)
        setup_scale = statistics.median(setups) / statistics.median(setup_walls)
        result["end_to_end"] = {
            "round_s": statistics.median(rounds),
            "cold_call_s": median_or_zero(colds),
            "peak_rss_mb": peak_mb,
            "ops_ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
            "setup_s": import_s * setup_scale + statistics.median(setups),
        }
        result["detail"] = dict(
            work.detail(rounds, colds, scale), rounds=len(rounds),
            ops_failed_frac=tally.failed / max(tally.attempted, 1),
            raw_round_s=statistics.median(walls), raw_cold_call_s=median_or_zero(cold_walls),
            raw_setup_s=import_s + statistics.median(setup_walls),
            calibration_ms=1e3 * CAL_REF_S / scale)
        result["op_times"] = work.op_times
        result["rounds_s"] = walls
        dead: list[str] = []
    else:
        import lgse

        half = args.seconds / 2
        _, plain = run_rounds(work, tally, NullTracer(), half, max(2, size.min_rounds))
        tracer = Tracer()
        tracer.install({layer: getattr(lgse, layer) for layer in LAYERS}, work.hooks())
        try:
            walls, traced = run_rounds(work, tally, tracer, half, max(2, size.min_rounds))
        finally:
            tracer.uninstall()
        work.traced_probes(tally)
        summary = tracer.summary()
        n = len(traced)
        probes = dict(work.probes)
        chunked = summary.calls_of(["evaluate.enhance_chunked"])
        probes["evaluate.chunks_per_call"] = (
            summary.calls_under("evaluate.enhance_full", "evaluate.enhance_chunked")
            / max(chunked, 1))
        probes["bench.round_s_untraced"] = statistics.median(plain)
        probes["bench.round_s_traced"] = statistics.median(traced)
        probes["bench.trace_overhead_pct"] = 100.0 * (
            probes["bench.round_s_traced"] / probes["bench.round_s_untraced"] - 1.0)
        probes["bench.spans_per_round"] = summary.n_spans / n
        scale = statistics.median(traced) / statistics.median(walls)
        values, dead = metrics.per_layer(summary, n, scale, args.workload, tracer.wrapped,
                                         probes)
        result["per_layer"] = values
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-{args.seed}.npz")
        result["dead_probes"] = dead
    result.update(correct=tally.failed == 0 and not dead, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.reasons)
    return result


def units() -> dict[str, str]:
    import metrics

    table = {name: unit for name, unit, *_ in metrics.END_TO_END}
    for entries in metrics.DETAIL.values():
        table.update(entries)
    table.update(metrics.per_layer_units())
    table.update(rounds="count", ops_failed_frac="frac", raw_round_s="s",
                 raw_cold_call_s="s", raw_setup_s="s", calibration_ms="ms")
    return table


def report(result: dict) -> int:
    unit = units()
    env = result["env"]
    print(f"lgse benchmark: {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']} size={result['size']}")
    print(f"  nproc={env['nproc']} blas={env['blas']} blas_threads={env['blas_threads']} "
          f"numpy={env['numpy']} python={env['python']}")
    sections = ("end_to_end", "detail") if not result["trace"] else ("per_layer",)
    for section in sections:
        print(f"[{section}]")
        for name, value in result[section].items():
            print(f"  {name:<40} {value:>16.6g} {unit[name]}")
    for reason in result["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    for probe in result.get("dead_probes", ()):
        print(f"dead probe: {probe}", file=sys.stderr)
    metrics_out = result["per_layer"] if result["trace"] else result["end_to_end"]
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics_out.items()},
    }))
    return 0 if result["correct"] else 1


def merge_out(path: str, result: dict) -> None:
    """Keep one entry per workload; a traced run fills its per_layer part."""
    doc = {"workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    entry = doc["workloads"].setdefault(result["workload"], {})
    for key in ("end_to_end", "detail", "per_layer", "op_times", "rounds_s"):
        if key in result:
            entry[key] = result[key]
    entry["env"] = result["env"]
    entry["runs"] = entry.get("runs", []) + [
        {k: result[k] for k in ("seed", "seconds", "trace", "size", "correct",
                                "attempted", "failed")}]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    # Pin BLAS before numpy is imported, here and in the cold-call children.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args(argv)
    import_s = import_lgse()
    from workloads import SIZES, WORKLOADS

    size = SIZES[args.size]
    if args.cold_child:
        work = WORKLOADS[args.workload](size, args.seed, Path(args.cold_child),
                                        Path(args.goldens), args.size)
        cold_s = work.cold()
        cal_s = statistics.median([calibrate() for _ in range(4)][1:])
        print(json.dumps({"cold_s": cold_s, "cal_s": cal_s}))
        return 0
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.record_goldens:
            WORKLOADS[args.workload](size, args.seed, workdir, Path(args.goldens),
                                     args.size).record_golden()
            return 0
        result = measure(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        merge_out(args.out, result)
    return report(result)


if __name__ == "__main__":
    sys.exit(main())
