"""The three workloads of the lgse benchmark.

Each workload builds its inputs from the run's seed (`setup`), performs one
round of operations per `round` call, and performs one operation in a fresh
process for the cold measurement (`cold`). Every call into lgse goes through
a module attribute (`training.train`, `evaluate.enhance_full`, ...) so the
tracer's wrappers see it.

Correctness. Set-up warms up by running the golden cases: fixed-seed inputs
whose outputs were recorded under `goldens/` and are compared within the
tolerances below, which allow rounding-level differences (about 1e-12) but
not a changed result. Operations on the run's own seed are checked for
finite values and for agreeing with the same operation in the run's first
round. An operation fails if it raises, returns a non-finite value or misses
its check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lgse import dsp, evaluate, model, numerics, training

from metrics import ENHANCE, LENGEN, TRAIN

GOLDEN_SEED = 0
# Relative tolerance on each recorded training loss.
LOSS_RTOL = 1e-8
# Absolute tolerance on enhanced samples (signals peak below 1.0).
SAMPLE_ATOL = 1e-9
# Absolute tolerance, in dB, on SI-SDR and segmental SNR in report.csv.
REPORT_ATOL = 1e-6
FINGERPRINT_POINTS = 256


@dataclass(frozen=True)
class Size:
    """How big one workload is. `tiny` exists for the benchmark's own tests."""

    setup_reps: int
    cold_reps: int
    min_rounds: int
    train_utts: int            # 1 s utterances, two 0.5 s clips each
    batch_utts: int            # utterances per step: 10 -> 20 clips x 30 frames
    steps_per_run: int
    enhance_lens: tuple[float, float]
    ref_dims: tuple[int, int, int, int]   # d_model, heads, layers, d_ff
    suite_lens: tuple[float, ...]
    suite_utts: int


SIZES = {
    "full": Size(setup_reps=3, cold_reps=5, min_rounds=3, train_utts=20,
                 batch_utts=10, steps_per_run=2, enhance_lens=(4.0, 20.0),
                 ref_dims=(256, 8, 4, 1024), suite_lens=(0.5, 4.0), suite_utts=2),
    "tiny": Size(setup_reps=1, cold_reps=1, min_rounds=1, train_utts=4,
                 batch_utts=2, steps_per_run=1, enhance_lens=(1.0, 2.0),
                 ref_dims=(32, 4, 1, 64), suite_lens=(0.5, 1.0), suite_utts=1),
}


def derive(seed: int, role: str) -> int:
    """Named sub-seed of the run seed."""
    return int(np.random.SeedSequence([seed, zlib.crc32(role.encode())])
               .generate_state(1)[0])


def desk_model(kind: str, target: str, init_seed: int):
    return model.ModelConfig(n_layers=2, n_heads=4, d_model=32, d_ff=128,
                             pe_kind=kind, target=target, init_seed=init_seed)


def desk_train(size: Size, seed: int):
    return training.TrainConfig(clip_len_s=0.5, batch_utts=size.batch_utts,
                                epochs=10000, max_steps=size.steps_per_run,
                                w_steps=250, seed=seed)


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, n: int, bad: int, reason: str = "") -> None:
        self.attempted += n
        self.failed += bad
        if bad and len(self.reasons) < 5:
            self.reasons.append(reason)

    def guarded(self, n: int, what: str, fn):
        """Run fn; an exception fails its n operations and returns None."""
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            self.add(n, n, f"{what} raised:\n{traceback.format_exc(limit=4)}")
            return None


def fingerprint(samples: np.ndarray) -> dict:
    idx = np.linspace(0, len(samples) - 1, FINGERPRINT_POINTS).astype(np.int64)
    return {"n": int(len(samples)), "energy": float(samples @ samples),
            "samples": [float(v) for v in samples[idx]]}


def fingerprints_match(a: dict, b: dict) -> bool:
    return (a["n"] == b["n"]
            and math.isclose(a["energy"], b["energy"], rel_tol=1e-8, abs_tol=1e-12)
            and np.allclose(a["samples"], b["samples"], rtol=0.0, atol=SAMPLE_ATOL))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class Workload:
    name = ""
    op_span = ""

    def __init__(self, size: Size, seed: int, workdir: Path, goldens: Path, size_name: str):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.golden_path = goldens / f"{self.name}.{size_name}.json"
        self.golden = None
        self.probes: dict[str, float] = {}
        self.op_times: dict[str, list[float]] = {}

    def timed(self, tally: Tally, n: int, label: str, fn):
        """Run one checked operation, keeping its time under `label`."""
        out = tally.guarded(n, label, lambda: _timed(fn))
        if out is None:
            return None
        self.op_times.setdefault(label, []).append(out[1])
        return out[0]

    def load_golden(self):
        with open(self.golden_path, encoding="utf-8") as f:
            return json.load(f)

    def hooks(self) -> dict:
        """Callables run before a wrapped function in the traced run."""
        return {}

    def traced_probes(self, tally: Tally) -> None:
        """Extra per-layer measurements made after the traced rounds."""

    def record_golden(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        data = self.golden_values()
        with open(self.golden_path, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")


class TrainDesk(Workload):
    """Closed-loop `training.train` at the desk preset.

    A round trains each PE/target pair from a fresh model for `steps_per_run`
    steps and writes its checkpoint; one operation is one training step.
    """

    name = TRAIN
    op_span = "bench.train_run"
    PAIRS = (("learnlin", "irm"), ("tisa", "psm"), ("dabias", "ms"),
             ("rope", "cirm"), ("bertpos", "irm"))

    def __init__(self, *args):
        super().__init__(*args)
        self.first: dict[str, list[float]] = {}
        self.current = ""
        self.tape_nodes: dict[str, list[int]] = {k: [] for k, _ in self.PAIRS}

    def _train(self, kind: str, target: str, corpus, seed: int):
        m = model.EnhancementModel(desk_model(kind, target, derive(seed, f"init.{kind}")))
        ckpt = self.workdir / f"{kind}.lgse"
        result = training.train(m, corpus, desk_train(self.size, derive(seed, "train")),
                                ckpt_path=str(ckpt))
        return [float(loss) for _, _, loss in result.trace], ckpt.stat().st_size

    def _corpus(self, seed: int):
        return dsp.synth_corpus(derive(seed, "corpus"), self.size.train_utts, 1.0)

    def _check(self, tally: Tally, label: str, losses, reference) -> None:
        n = self.size.steps_per_run
        if losses is None:
            return
        if len(losses) != n or len(reference) != n:
            tally.add(n, n, f"{label}: {len(losses)} steps, expected {n}")
            return
        bad = sum(1 for got, want in zip(losses, reference)
                  if not (math.isfinite(got)
                          and math.isclose(got, want, rel_tol=LOSS_RTOL, abs_tol=0.0)))
        tally.add(n, bad, f"{label}: losses {losses} != {reference}")

    def setup(self, tally: Tally) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.golden = self.load_golden()
        self.corpus = self._corpus(self.seed)
        corpus = self._corpus(GOLDEN_SEED)
        for kind, target in self.PAIRS:
            out = tally.guarded(self.size.steps_per_run, f"golden {kind}",
                                lambda: self._train(kind, target, corpus, GOLDEN_SEED))
            self._check(tally, f"golden {kind}/{target}", out and out[0],
                        self.golden["losses"][f"{kind}/{target}"])

    def golden_values(self) -> dict:
        corpus = self._corpus(GOLDEN_SEED)
        losses = {f"{k}/{t}": self._train(k, t, corpus, GOLDEN_SEED)[0]
                  for k, t in self.PAIRS}
        return {"seed": GOLDEN_SEED, "loss_rtol": LOSS_RTOL, "losses": losses}

    def round(self, tally: Tally, tracer) -> None:
        ckpt_bytes = 0
        for kind, target in self.PAIRS:
            self.current = kind
            with tracer.span(self.op_span):
                out = self.timed(tally, self.size.steps_per_run, kind,
                                 lambda: self._train(kind, target, self.corpus, self.seed))
            if out is None:
                continue
            losses, nbytes = out
            ckpt_bytes += nbytes
            reference = self.first.setdefault(kind, losses)
            self._check(tally, f"train {kind}/{target}", losses, reference)
        self.probes["training.checkpoint_bytes"] = ckpt_bytes

    def tape_hook(self, loss, *args, **kwargs) -> None:
        """Before each backward: count the tape nodes of the step's loss."""
        self.tape_nodes[self.current].append(len(self._trace(loss)))

    def hooks(self) -> dict:
        self._trace = numerics.trace
        return {"numerics.backward": self.tape_hook}

    def traced_probes(self, tally: Tally) -> None:
        for kind, counts in self.tape_nodes.items():
            if counts:
                self.probes[f"numerics.tape_nodes_per_step.{kind}"] = statistics.median(counts)

    def detail(self, rounds, colds, scale: float) -> dict[str, float]:
        steps = self.size.steps_per_run * len(self.PAIRS)
        return {"train_steps_per_s": steps / scale / sum(
            statistics.median(self.op_times[kind]) for kind, _ in self.PAIRS)}

    def cold(self) -> float:
        """The first round of a fresh process: every pair's first run."""
        corpus = self._corpus(self.seed)
        return _timed(lambda: [self._train(kind, target, corpus, self.seed)
                               for kind, target in self.PAIRS])[1]


@dataclass(frozen=True)
class Case:
    label: str
    ckpt: str
    wav: str
    mode: str


class EnhanceLong(Workload):
    """The `lgse enhance` path through its public functions.

    load_checkpoint -> read_wav -> enhance_full / enhance_chunked (seg-o,
    0.5 s chunks) -> write_wav, for desk models of three PE kinds at a short
    and a long input, plus one reference-size model in full mode at the long
    input. One operation is one such call; a round is every case once.
    """

    name = ENHANCE
    op_span = "bench.enhance_call"
    KINDS = ("learnlin", "tisa", "rope")
    CHUNK_S = 0.5

    def __init__(self, *args):
        super().__init__(*args)
        self.cases = [Case(f"{k}.{mode}.{tag}", f"desk_{k}.lgse", f"noisy_{tag}.wav", mode)
                      for k in self.KINDS for tag in ("short", "long")
                      for mode in ("full", "seg-o")]
        self.ref = Case("ref.full.long", "ref.lgse", "noisy_long.wav", "full")
        self.cases.append(self.ref)
        self.first: dict[str, dict] = {}

    def _write_inputs(self, d: Path, seed: int) -> None:
        d.mkdir(parents=True, exist_ok=True)
        for tag, length in zip(("short", "long"), self.size.enhance_lens):
            utt = dsp.synth_corpus(derive(seed, f"utt.{tag}"), 1, length)[0]
            snr = int(np.random.default_rng(derive(seed, f"snr.{tag}")).integers(-5, 6))
            dsp.write_wav(d / f"noisy_{tag}.wav", dsp.mix_at_snr(utt.clean, utt.noise, snr))
        for kind in self.KINDS:
            m = model.EnhancementModel(desk_model(kind, "irm", derive(seed, f"init.{kind}")))
            training.save_checkpoint(d / f"desk_{kind}.lgse", m, None, 0)
        d_model, heads, layers, d_ff = self.size.ref_dims
        ref = model.EnhancementModel(model.ModelConfig(
            n_layers=layers, n_heads=heads, d_model=d_model, d_ff=d_ff,
            pe_kind="learnlin", target="irm", init_seed=derive(seed, "init.ref")))
        training.save_checkpoint(d / "ref.lgse", ref, None, 0)

    def _enhance(self, d: Path, case: Case) -> dict:
        m, *_ = training.load_checkpoint(d / case.ckpt)
        noisy = dsp.read_wav(d / case.wav)
        if case.mode == "full":
            est = evaluate.enhance_full(m, noisy)
        else:
            est = evaluate.enhance_chunked(m, noisy, self.CHUNK_S, 0.5)
        dsp.write_wav(d / "enhanced.wav", est)
        if len(est) != len(noisy) or not np.isfinite(est.samples).all():
            raise ValueError(f"{case.label}: bad output of length {len(est)}")
        return fingerprint(est.samples)

    def _check(self, tally: Tally, label: str, got, want) -> None:
        if got is not None:
            tally.add(1, 0 if fingerprints_match(got, want) else 1,
                      f"{label}: enhanced samples differ from the reference")

    def setup(self, tally: Tally) -> None:
        self.golden = self.load_golden()
        self._write_inputs(self.workdir / "run", self.seed)
        gdir = self.workdir / "golden"
        self._write_inputs(gdir, GOLDEN_SEED)
        for case in self.cases:
            got = tally.guarded(1, f"golden {case.label}", lambda: self._enhance(gdir, case))
            self._check(tally, f"golden {case.label}", got, self.golden["cases"][case.label])

    def golden_values(self) -> dict:
        gdir = self.workdir / "golden"
        self._write_inputs(gdir, GOLDEN_SEED)
        return {"seed": GOLDEN_SEED, "sample_atol": SAMPLE_ATOL,
                "cases": {c.label: self._enhance(gdir, c) for c in self.cases}}

    def round(self, tally: Tally, tracer) -> None:
        d = self.workdir / "run"
        for case in self.cases:
            with tracer.span(self.op_span):
                got = self.timed(tally, 1, case.label, lambda: self._enhance(d, case))
            if got is not None:
                self._check(tally, case.label, got, self.first.setdefault(case.label, got))

    def traced_probes(self, tally: Tally) -> None:
        """Bytes the reference model's forward keeps reachable at the long
        input, measured inside `predict` as the enhance path calls it."""
        cls = model.EnhancementModel
        forward = cls.forward
        retained: list[int] = []

        def probe(self_, *args, **kwargs):
            out = forward(self_, *args, **kwargs)
            retained.append(sum(t.data.nbytes for t in numerics.trace(out)))
            return out

        cls.forward = probe
        try:
            got = tally.guarded(1, "retained probe",
                                lambda: self._enhance(self.workdir / "run", self.ref))
        finally:
            cls.forward = forward
        self._check(tally, "retained probe", got, self.first.get(self.ref.label, got))
        if retained:
            self.probes["numerics.retained_mb"] = retained[0] / 2**20

    def detail(self, rounds, colds, scale: float) -> dict[str, float]:
        short, long = self.size.enhance_lens

        def rtf(mode: str, tag: str, length: float) -> float:
            return scale * sum(statistics.median(self.op_times[f"{k}.{mode}.{tag}"])
                               for k in self.KINDS) / length

        return {
            "rtf_full_4s": rtf("full", "short", short),
            "rtf_full_20s": rtf("full", "long", long),
            "rtf_sego_4s": rtf("seg-o", "short", short),
            "rtf_sego_20s": rtf("seg-o", "long", long),
            "rtf_ref_full_20s": scale * statistics.median(self.op_times[self.ref.label]) / long,
            "cold_enhance_20s_s": statistics.median(colds) if colds else 0.0,
        }

    def cold(self) -> float:
        return _timed(lambda: self._enhance(self.workdir / "run", self.ref))[1]


class LengenMini(Workload):
    """`evaluate.run_lengen_experiment` over saved desk checkpoints.

    Set-up writes model_<kind>.lgse into the output directory, so the
    experiment loads instead of training. A round is one experiment; one
    operation is one scored row of report.csv.
    """

    name = LENGEN
    op_span = "bench.experiment"
    KINDS = ("nopos", "sinusoidal", "learnlin")
    NUMERIC = ("si_sdr_in", "si_sdr_out", "seg_snr_out")

    def __init__(self, *args):
        super().__init__(*args)
        self.first: list[dict] | None = None

    def _write_models(self, d: Path, seed: int) -> None:
        d.mkdir(parents=True, exist_ok=True)
        for kind in self.KINDS:
            m = model.EnhancementModel(desk_model(kind, "irm", derive(seed, f"init.{kind}")))
            training.save_checkpoint(d / f"model_{kind}.lgse", m, None, 0)

    def _experiment(self, d: Path, seed: int) -> list[dict]:
        exp = evaluate.ExperimentConfig(
            kinds=self.KINDS, modes=("full", "seg", "seg-o"), chunk_s=0.0,
            train_utts=12, train_utt_dur_s=1.0)
        suite = evaluate.TestSuiteConfig(durations_s=self.size.suite_lens,
                                         snrs_db=(-5, 0, 5),
                                         utts_per_condition=self.size.suite_utts)
        evaluate.run_lengen_experiment(seed, desk_model("learnlin", "irm", 0),
                                       desk_train(self.size, 0), exp, suite, str(d))
        text = (d / "report.csv").read_text(encoding="utf-8")
        return list(csv.DictReader(io.StringIO(text)))

    @staticmethod
    def _number(text: str) -> float:
        # report.csv writes repr() of its values; under numpy 2 an SI-SDR that
        # is a numpy scalar reads "np.float64(-4.8)" rather than "-4.8".
        if text.startswith("np.float64(") and text.endswith(")"):
            text = text[len("np.float64("):-1]
        return float(text)

    def _row_ok(self, got: dict, want: dict) -> bool:
        if set(got) != set(want):
            return False
        for key, value in got.items():
            if key in self.NUMERIC:
                a, b = self._number(value), self._number(want[key])
                if not (math.isfinite(a) and abs(a - b) <= REPORT_ATOL):
                    return False
            elif value != want[key]:
                return False
        return True

    def _check(self, tally: Tally, label: str, rows, reference) -> None:
        if rows is None:
            return
        if len(rows) != len(reference):
            tally.add(len(reference), len(reference),
                      f"{label}: {len(rows)} rows, expected {len(reference)}")
            return
        bad = [r["utt_id"] + "/" + r["kind"] + "/" + r["mode"]
               for r, w in zip(rows, reference) if not self._row_ok(r, w)]
        tally.add(len(rows), len(bad), f"{label}: rows differ: {bad[:5]}")

    def setup(self, tally: Tally) -> None:
        self.golden = self.load_golden()
        self._write_models(self.workdir / "run", self.seed)
        gdir = self.workdir / "golden"
        self._write_models(gdir, GOLDEN_SEED)
        want = self.golden["rows"]
        rows = tally.guarded(len(want), "golden experiment",
                             lambda: self._experiment(gdir, GOLDEN_SEED))
        self._check(tally, "golden experiment", rows, want)

    def golden_values(self) -> dict:
        gdir = self.workdir / "golden"
        self._write_models(gdir, GOLDEN_SEED)
        return {"seed": GOLDEN_SEED, "report_atol_db": REPORT_ATOL,
                "rows": self._experiment(gdir, GOLDEN_SEED)}

    def round(self, tally: Tally, tracer) -> None:
        expected = len(self.first) if self.first is not None else 1
        with tracer.span(self.op_span):
            rows = self.timed(tally, expected, "experiment",
                              lambda: self._experiment(self.workdir / "run", self.seed))
        if rows is None:
            return
        if self.first is None:
            self.first = rows
        self._check(tally, "experiment", rows, self.first)

    def detail(self, rounds, colds, scale: float) -> dict[str, float]:
        return {"experiment_wall_s": statistics.median(rounds)}

    def cold(self) -> float:
        return _timed(lambda: self._experiment(self.workdir / "run", self.seed))[1]


WORKLOADS = {w.name: w for w in (TrainDesk, EnhanceLong, LengenMini)}
