"""Length-generalization evaluation: surrogate metrics, full-length vs.
chunked inference, and the train-short / test-long experiment runner."""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, objectives
from .dsp import DEFAULT_STFT, Utterance, Waveform, sub_rng
from .model import EnhancementModel, ModelConfig
from .posenc import PeKind
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

__all__ = [
    "si_sdr",
    "seg_snr",
    "enhance_full",
    "enhance_chunked",
    "chunk_starts",
    "ReportRow",
    "MetricReport",
    "ExperimentConfig",
    "run_lengen_experiment",
    "KIND_LABELS",
]

SI_SDR_CAP_DB = 100.0

KIND_LABELS = {
    "noisy": "Noisy",
    "nopos": "No-Pos",
    "sinusoidal": "Sinusoidal",
    "bertpos": "BERT-Pos",
    "gauss": "Gauss-Bias",
    "t5": "T5-Bias",
    "tisa": "TISA",
    "dabias": "DA-Bias",
    "kerple": "KERPLE",
    "rope": "RoPE",
    "learnlin": "LearnLin",
}


def si_sdr(est: Waveform | np.ndarray, ref: Waveform | np.ndarray,
           cap_db: float = SI_SDR_CAP_DB) -> float:
    """Scale-invariant SDR in dB: project est onto ref, compare energies.

    Perfect (or perfectly scaled) estimates are capped at +cap_db; estimates
    orthogonal to the reference floor at -cap_db.
    """
    e = est.samples if isinstance(est, Waveform) else np.asarray(est, dtype=np.float64)
    r = ref.samples if isinstance(ref, Waveform) else np.asarray(ref, dtype=np.float64)
    if e.shape != r.shape:
        raise ValueError(f"estimate ({e.shape}) and reference ({r.shape}) differ")
    r_energy = float(np.dot(r, r))
    if r_energy <= 0.0:
        raise ValueError("reference has zero energy")
    alpha = float(np.dot(e, r)) / r_energy
    target = alpha * r
    e_target = float(np.dot(target, target))
    e_resid = float(np.dot(e - target, e - target))
    if e_target <= 0.0:
        return -cap_db
    if e_resid <= e_target * 10.0 ** (-cap_db / 10.0):
        return cap_db
    return min(10.0 * float(np.log10(e_target / e_resid)), cap_db)


def seg_snr(est: Waveform | np.ndarray, ref: Waveform | np.ndarray,
            frame: int = 512, hop: int = 256, floor_db: float = -10.0,
            ceil_db: float = 35.0) -> float:
    """Mean per-frame SNR in dB, each frame clamped to [floor, ceil];
    silent reference frames are skipped."""
    e = est.samples if isinstance(est, Waveform) else np.asarray(est, dtype=np.float64)
    r = ref.samples if isinstance(ref, Waveform) else np.asarray(ref, dtype=np.float64)
    if e.shape != r.shape:
        raise ValueError(f"estimate ({e.shape}) and reference ({r.shape}) differ")
    if len(r) < frame:
        return floor_db
    ref_frames = np.lib.stride_tricks.sliding_window_view(r, frame)[::hop]
    err_frames = np.lib.stride_tricks.sliding_window_view(r - e, frame)[::hop]
    e_ref = np.einsum("ij,ij->i", ref_frames, ref_frames)
    e_err = np.einsum("ij,ij->i", err_frames, err_frames)
    voiced = e_ref >= 1e-10
    if not voiced.any():
        return floor_db
    v = 10.0 * np.log10(e_ref[voiced] / np.maximum(e_err[voiced], 1e-12))
    return float(np.mean(np.clip(v, floor_db, ceil_db)))


def enhance_full(model: EnhancementModel, noisy: Waveform,
                 stft_cfg=DEFAULT_STFT) -> Waveform:
    """One pass over all frames: stft -> predict -> apply target -> istft.

    Samples the synthesis cannot reconstruct (the first sample, under a Hann
    zero, and any dropped-partial-frame tail) pass through unprocessed so the
    output always has the input's length.
    """
    spec = dsp.stft(noisy, stft_cfg)
    cfg = model.config
    pred = model.predict(np.abs(spec))
    enhanced = objectives.apply_target(spec, pred, cfg.target,
                                       ms_power=cfg.ms_power,
                                       cirm_k=cfg.cirm_k, cirm_c=cfg.cirm_c)
    out = dsp.istft(enhanced, stft_cfg, out_len=len(noisy)).samples
    covered = (spec.shape[0] - 1) * stft_cfg.hop + stft_cfg.win_len
    out[0] = noisy.samples[0]
    if covered < len(noisy):
        out[covered:] = noisy.samples[covered:]
    return Waveform(out)


def chunk_starts(n_samples: int, chunk_len: int, overlap: float) -> list[int]:
    """Chunk start offsets; floor(n/c) chunks at 0 overlap, 2*floor(n/c)-1 at
    50% overlap when the length divides evenly."""
    if overlap not in (0, 0.5):
        raise ValueError(f"overlap must be 0 or 0.5, got {overlap}")
    if chunk_len > n_samples:
        raise ValueError(
            f"chunk ({chunk_len} samples) longer than signal ({n_samples})")
    hop = chunk_len if overlap == 0 else chunk_len // 2
    starts = list(range(0, n_samples - chunk_len + 1, hop))
    return starts


def _triangle(n: int) -> np.ndarray:
    # Complementary at 50% overlap: w[i] + w[i + n/2] == 1 exactly.
    i = np.arange(n, dtype=np.float64)
    return np.minimum(i + 0.5, n - i - 0.5) / (n / 2.0)


def enhance_chunked(model: EnhancementModel, noisy: Waveform, chunk_s: float,
                    overlap: float, stft_cfg=DEFAULT_STFT) -> Waveform:
    """Enhance fixed-length chunks independently and recombine.

    Non-overlapping chunks are concatenated; 50%-overlap chunks are blended
    with a triangular cross-fade. A tail shorter than a chunk is enhanced on
    its own when it fits at least one analysis window, otherwise passed
    through unprocessed.
    """
    chunk_len = int(round(chunk_s * dsp.SAMPLE_RATE))
    n = len(noisy)
    starts = chunk_starts(n, chunk_len, overlap)
    est = np.zeros(n)
    weight = np.zeros(n)
    win = _triangle(chunk_len) if overlap == 0.5 else np.ones(chunk_len)
    # A chunk's ISTFT only reconstructs samples its analysis frames cover, and
    # the first sample of each chunk sits under a zero of the Hann window;
    # blend nothing outside that support.
    n_frames = dsp.frame_count(chunk_len, stft_cfg)
    sup = slice(1, (n_frames - 1) * stft_cfg.hop + stft_cfg.win_len)
    for s in starts:
        seg = Waveform(noisy.samples[s:s + chunk_len])
        out = enhance_full(model, seg, stft_cfg).samples
        est[s + sup.start:s + sup.stop] += out[sup] * win[sup]
        weight[s + sup.start:s + sup.stop] += win[sup]
    tail_start = starts[-1] + chunk_len
    if tail_start < n and n - tail_start >= stft_cfg.win_len:
        out = enhance_full(model, Waveform(noisy.samples[tail_start:]),
                           stft_cfg).samples
        est[tail_start + 1:] += out[1:]
        weight[tail_start + 1:] += 1.0
    blended = weight > 1e-8
    est[blended] /= weight[blended]
    # Samples no chunk reconstructs (chunk-boundary zeros, dropped tails)
    # pass through unprocessed.
    est[~blended] = noisy.samples[~blended]
    return Waveform(est)


# -- experiment protocol ------------------------------------------------------


@dataclass(frozen=True)
class TestSuiteConfig:
    durations_s: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
    snrs_db: tuple[int, ...] = (-5, 0, 5, 10, 15)
    utts_per_condition: int = 20


@dataclass(frozen=True)
class ExperimentConfig:
    kinds: tuple[str, ...] = ("nopos", "sinusoidal", "learnlin")
    modes: tuple[str, ...] = ("full", "seg", "seg-o")
    chunk_s: float = 0.0          # 0: use the training clip length
    train_utts: int = 12
    train_utt_dur_s: float = 1.0
    retrain: bool = False


_CSV_FIELDS = ["kind", "target", "train_len_s", "test_len_s", "snr_db",
               "utt_id", "si_sdr_in", "si_sdr_out", "seg_snr_out", "mode"]


@dataclass
class ReportRow:
    kind: str
    target: str
    train_len_s: float
    test_len_s: float
    snr_db: int
    utt_id: str
    si_sdr_in: float
    si_sdr_out: float
    seg_snr_out: float
    mode: str


@dataclass
class MetricReport:
    rows: list[ReportRow]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for r in self.rows:
            writer.writerow([r.kind, r.target, repr(r.train_len_s),
                             repr(r.test_len_s), r.snr_db, r.utt_id,
                             repr(r.si_sdr_in), repr(r.si_sdr_out),
                             repr(r.seg_snr_out), r.mode])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path) -> "MetricReport":
        rows = []
        with open(path, newline="", encoding="utf-8") as f:
            for rec in csv.DictReader(f):
                rows.append(ReportRow(
                    kind=rec["kind"], target=rec["target"],
                    train_len_s=float(rec["train_len_s"]),
                    test_len_s=float(rec["test_len_s"]),
                    snr_db=int(rec["snr_db"]), utt_id=rec["utt_id"],
                    si_sdr_in=float(rec["si_sdr_in"]),
                    si_sdr_out=float(rec["si_sdr_out"]),
                    seg_snr_out=float(rec["seg_snr_out"]), mode=rec["mode"]))
        return cls(rows)

    def select(self, **criteria) -> list[ReportRow]:
        out = self.rows
        for key, val in criteria.items():
            out = [r for r in out if getattr(r, key) == val]
        return out

    def mean_si_sdr(self, kind: str, test_len_s: float, mode: str = "full") -> float:
        rows = self.select(kind=kind, test_len_s=test_len_s, mode=mode)
        if not rows:
            raise ValueError(f"no rows for kind={kind} len={test_len_s} mode={mode}")
        return float(np.mean([r.si_sdr_out for r in rows]))

    def mean_improvement(self, kind: str, test_len_s: float,
                         mode: str = "full") -> float:
        rows = self.select(kind=kind, test_len_s=test_len_s, mode=mode)
        if not rows:
            raise ValueError(f"no rows for kind={kind} len={test_len_s} mode={mode}")
        return float(np.mean([r.si_sdr_out - r.si_sdr_in for r in rows]))

    def to_markdown(self, train_len_s: float) -> str:
        """Summary table grouped by test length, one block per model variant."""
        lens = sorted({r.test_len_s for r in self.rows})
        lines = [f"## Models trained on {train_len_s:g}s clips",
                 "",
                 "| Test len | Model | SI-SDR (dB) | SI-SDRi (dB) | SegSNR (dB) | n |",
                 "|---|---|---|---|---|---|"]
        for tl in lens:
            variants: list[tuple[str, str, str]] = [("noisy", "full", "Noisy")]
            kinds = sorted({r.kind for r in self.rows} - {"noisy"})
            for kind in kinds:
                label = KIND_LABELS.get(kind, kind)
                for mode, suffix in (("full", ""), ("seg", "-Seg"), ("seg-o", "-Seg-O")):
                    if self.select(kind=kind, test_len_s=tl, mode=mode):
                        variants.append((kind, mode, label + suffix))
            for kind, mode, label in variants:
                rows = self.select(kind=kind, test_len_s=tl, mode=mode)
                if not rows:
                    continue
                sdr = np.mean([r.si_sdr_out for r in rows])
                sdri = np.mean([r.si_sdr_out - r.si_sdr_in for r in rows])
                seg = np.mean([r.seg_snr_out for r in rows])
                lines.append(f"| {tl:g}s | {label} | {sdr:.2f} | {sdri:.2f} "
                             f"| {seg:.2f} | {len(rows)} |")
        return "\n".join(lines) + "\n"


def train_or_load(kind: str, model_cfg: ModelConfig, train_cfg: TrainConfig,
                  corpus: list[Utterance], ckpt_path, retrain: bool = False,
                  loss_csv=None) -> EnhancementModel:
    """Load the checkpoint for a scheme if present, otherwise train and save."""
    cfg = model_cfg.with_pe(kind)
    if not retrain and ckpt_path is not None and os.path.exists(ckpt_path):
        model, _, _, _, _ = load_checkpoint(ckpt_path)
        if model.config.pe_kind is not PeKind(kind):
            raise ValueError(
                f"checkpoint {ckpt_path} holds {model.config.pe_kind.value!r}, "
                f"expected {kind!r}")
        return model
    model = EnhancementModel(cfg)
    train(model, corpus, train_cfg, ckpt_path=ckpt_path, loss_csv=loss_csv)
    return model


def run_lengen_experiment(seed: int, model_cfg: ModelConfig,
                          train_cfg: TrainConfig, exp: ExperimentConfig,
                          suite: TestSuiteConfig, out_dir) -> MetricReport:
    """Train one model per scheme on short clips, then score every
    (duration, SNR) condition with full-length and chunked inference.

    Writes report.csv and report.md into out_dir and returns the report.
    Deterministic for a fixed seed, including the CSV bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    corpus = dsp.synth_corpus(_role_seed(seed, "corpus.train"),
                              exp.train_utts, exp.train_utt_dur_s)
    models: dict[str, EnhancementModel] = {}
    for kind in exp.kinds:
        ckpt = os.path.join(out_dir, f"model_{kind}.lgse")
        losses = os.path.join(out_dir, f"loss_{kind}.csv")
        models[kind] = train_or_load(kind, model_cfg, train_cfg, corpus, ckpt,
                                     retrain=exp.retrain, loss_csv=losses)

    chunk_s = exp.chunk_s if exp.chunk_s > 0 else train_cfg.clip_len_s
    rows: list[ReportRow] = []
    for dur in suite.durations_s:
        utts = dsp.synth_corpus(_role_seed(seed, f"corpus.test.{dur:g}"),
                                suite.utts_per_condition, dur)
        for snr in suite.snrs_db:
            cases = [(i, utt, dsp.mix_at_snr(utt.clean, utt.noise, snr))
                     for i, utt in enumerate(utts)]
            for case in cases:
                rows.extend(_score_case(case, models, exp, chunk_s, dur, snr,
                                        train_cfg.clip_len_s))

    report = MetricReport(rows)
    report.to_csv(os.path.join(out_dir, "report.csv"))
    with open(os.path.join(out_dir, "report.md"), "w", encoding="utf-8") as f:
        f.write(report.to_markdown(train_cfg.clip_len_s))
    return report


def _role_seed(seed: int, role: str) -> int:
    return int(sub_rng(seed, role).integers(0, 2 ** 63 - 1))


def _score_case(case, models, exp: ExperimentConfig, chunk_s: float,
                dur: float, snr: int, train_len: float) -> list[ReportRow]:
    i, utt, noisy = case
    utt_id = f"{dur:g}s_snr{snr}_{i:03d}"
    base = dict(target=next(iter(models.values())).config.target.value,
                train_len_s=train_len, test_len_s=dur, snr_db=snr, utt_id=utt_id)
    sdr_in = si_sdr(noisy, utt.clean)
    rows = [ReportRow(kind="noisy", si_sdr_in=sdr_in, si_sdr_out=sdr_in,
                      seg_snr_out=seg_snr(noisy, utt.clean), mode="full", **base)]
    for kind, model in models.items():
        for mode in exp.modes:
            if mode == "full":
                est = enhance_full(model, noisy)
            elif mode in ("seg", "seg-o"):
                if dur <= chunk_s:
                    continue
                est = enhance_chunked(model, noisy, chunk_s,
                                      0.0 if mode == "seg" else 0.5)
            else:
                raise ValueError(f"unknown mode {mode!r}")
            rows.append(ReportRow(kind=kind, si_sdr_in=sdr_in,
                                  si_sdr_out=si_sdr(est, utt.clean),
                                  seg_snr_out=seg_snr(est, utt.clean),
                                  mode=mode, **base))
    return rows
