"""Length-generalization evaluation: surrogate metrics, full-length vs.
chunked inference, and the train-short / test-long experiment runner.

The experiment scores each mixture with one `enhance_full` call for the full
mode and one `enhance_chunked` call for all its chunked modes, which enhances
each distinct chunk once, however many modes own it. The models to train and
the mixtures to score are jobs that `workers.in_processes` deals out."""

from __future__ import annotations

import csv
import functools
import io
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dsp, objectives, workers
from .dsp import Waveform, derived_seed
from .model import EnhancementModel, ModelConfig
from .posenc import SCHEMES, PeKind
from .training import TrainConfig, check_plan, config_dict, load_checkpoint, train

__all__ = [
    "si_sdr",
    "seg_snr",
    "enhance_full",
    "enhance_chunked",
    "chunk_starts",
    "seg_chunk_s",
    "ReportRow",
    "MetricReport",
    "ExperimentConfig",
    "MODES",
    "run_lengen_experiment",
]

SI_SDR_CAP_DB = 100.0
# Range each frame's SNR is clamped to in `seg_snr`.
SEG_SNR_FLOOR_DB, SEG_SNR_CEIL_DB = -10.0, 35.0


def _pair(est: Waveform | np.ndarray, ref: Waveform | np.ndarray) -> tuple:
    """The samples of `est` and `ref`, which must have one shape."""
    e, r = (x.samples if isinstance(x, Waveform) else np.asarray(x, dtype=np.float64)
            for x in (est, ref))
    if e.shape != r.shape:
        raise ValueError(f"estimate ({e.shape}) and reference ({r.shape}) differ")
    return e, r


def si_sdr(est: Waveform | np.ndarray, ref: Waveform | np.ndarray) -> float:
    """Scale-invariant SDR in dB: project est onto ref, compare energies.

    Perfect (or perfectly scaled) estimates are capped at +SI_SDR_CAP_DB;
    estimates orthogonal to the reference floor at -SI_SDR_CAP_DB.
    """
    e, r = _pair(est, ref)
    r_energy = float(np.dot(r, r))
    if r_energy <= 0.0:
        raise ValueError("reference has zero energy")
    alpha = float(np.dot(e, r)) / r_energy
    target = alpha * r
    e_target = float(np.dot(target, target))
    resid = e - target
    e_resid = float(np.dot(resid, resid))
    if e_target <= 0.0:
        return -SI_SDR_CAP_DB
    if e_resid <= e_target * 10.0 ** (-SI_SDR_CAP_DB / 10.0):
        return SI_SDR_CAP_DB
    return min(10.0 * float(np.log10(e_target / e_resid)), SI_SDR_CAP_DB)


def seg_snr(est: Waveform | np.ndarray, ref: Waveform | np.ndarray) -> float:
    """Mean SNR in dB over the STFT's frames, each clamped to
    [SEG_SNR_FLOOR_DB, SEG_SNR_CEIL_DB]; silent reference frames are skipped."""
    e, r = _pair(est, ref)
    if len(r) < dsp.WIN_LEN:
        return SEG_SNR_FLOOR_DB
    ref_frames = np.lib.stride_tricks.sliding_window_view(r, dsp.WIN_LEN)[::dsp.HOP]
    err_frames = np.lib.stride_tricks.sliding_window_view(r - e, dsp.WIN_LEN)[::dsp.HOP]
    e_ref = np.einsum("ij,ij->i", ref_frames, ref_frames)
    e_err = np.einsum("ij,ij->i", err_frames, err_frames)
    voiced = e_ref >= 1e-10
    if not voiced.any():
        return SEG_SNR_FLOOR_DB
    v = 10.0 * np.log10(e_ref[voiced] / np.maximum(e_err[voiced], 1e-12))
    return float(np.mean(np.clip(v, SEG_SNR_FLOOR_DB, SEG_SNR_CEIL_DB)))


def enhance_full(model: EnhancementModel | tuple[EnhancementModel, ...],
                 noisy: Waveform | np.ndarray) -> Waveform | np.ndarray | tuple:
    """One pass over all frames: stft -> predict -> apply target -> istft.

    Takes a Waveform and returns one, or a (B, n) stack of equal-length
    signals and returns the (B, n) enhanced stack from one forward over
    (B, L, K). Samples outside `dsp.rebuilt_span(n)`, which the synthesis
    cannot reconstruct, pass through unprocessed, so every output row has its
    input's length.

    `model` may be a tuple of models; the call then returns a tuple of
    estimates, one per model in order. The input is analysed once (one stft
    and one magnitude), and each model runs its own predict -> apply target
    -> istft on that shared spectrum, so the call holds one spectrum and one
    enhanced spectrum at a time plus one output per model.
    """
    models = model if isinstance(model, tuple) else (model,)
    single = isinstance(noisy, Waveform)
    samples = noisy.samples if single else np.asarray(noisy)
    if not single and samples.ndim != 2:
        raise ValueError(f"expected a Waveform or a (B, n) stack, got shape "
                         f"{samples.shape}")
    n = samples.shape[-1]
    spec = dsp.stft(samples)
    mag = np.abs(spec)
    span = dsp.rebuilt_span(n)
    outs = []
    for m in models:
        # Nested calls free each model's prediction and enhanced spectrum
        # before the next model's are made.
        out = dsp.istft(objectives.apply_target(m.config, spec, m.predict(mag)),
                        out_len=n)
        out = out.samples if single else out
        out[..., :span.start] = samples[..., :span.start]
        out[..., span.stop:] = samples[..., span.stop:]
        outs.append(Waveform(out) if single else out)
    return tuple(outs) if isinstance(model, tuple) else outs[0]


def seg_chunk_s(name: str, chunk_s: float, clip_len_s: float) -> float:
    """The chunk length of the seg modes: `chunk_s` seconds, or the training
    clip length `clip_len_s` when `chunk_s` is 0. A negative `chunk_s`, or one
    shorter than an analysis window, raises a ValueError naming setting
    `name`."""
    if chunk_s < 0:
        raise ValueError(f"{name} must be 0 (the training clip length) or a "
                         f"chunk length in seconds, got {chunk_s:g}")
    if chunk_s == 0:
        return clip_len_s
    dsp.require_one_frame(name, chunk_s)
    return chunk_s


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


# Bytes of complex spectrum one `enhance_full` call of `enhance_chunked` may
# stack: 8 chunks of 0.5 s, whichever overlaps own them. For 20 s in 0.5 s
# seg-o chunks (desk model), one stack of all 79 chunks peaked at 59 MB under
# tracemalloc, groups at 11 MB.
_GROUP_BYTES = 2**20


def _triangle(n: int) -> np.ndarray:
    # Complementary at 50% overlap: w[i] + w[i + n/2] == 1 exactly.
    i = np.arange(n, dtype=np.float64)
    return np.minimum(i + 0.5, n - i - 0.5) / (n / 2.0)


def enhance_chunked(model: EnhancementModel | tuple[EnhancementModel, ...],
                    noisy: Waveform, chunk_s: float,
                    overlap: float | tuple[float, ...]) -> Waveform | tuple:
    """Enhance fixed-length chunks independently and recombine.

    The chunks go through `enhance_full` in (B, n) groups, as many per call
    as keep the group's complex spectrum within `_GROUP_BYTES` (8 chunks of
    0.5 s). Non-overlapping chunks are concatenated; 50%-overlap chunks are
    blended with a triangular cross-fade. A tail shorter than a chunk is
    enhanced on its own when it fits at least one analysis window, otherwise
    passed through unprocessed.

    `model` may be a tuple of models; the call then returns a tuple of
    Waveforms, one per model in order. The chunk stack, each group's
    analysis and the blend weights are shared; only each model's estimate is
    blended on its own.

    `overlap` may be a tuple of distinct overlaps; the call then returns one
    result per overlap in order, each what a call with that overlap alone
    returns, to rounding: the groups are cut from the sorted union of the
    overlaps' chunk starts, so a chunk several overlaps own (every 0-overlap
    chunk of an even length is a 50%-overlap one) is enhanced once, in a
    stack that may differ from its own call's. A tail is enhanced once for
    all overlaps whose tails start at the same sample.
    Memory grows by one signal per model per overlap.
    """
    models = model if isinstance(model, tuple) else (model,)
    overlaps = overlap if isinstance(overlap, tuple) else (overlap,)
    if not overlaps:
        raise ValueError("overlap must name at least one overlap, got ()")
    chunk_len = int(round(chunk_s * dsp.SAMPLE_RATE))
    n = len(noisy)
    owned = [set(chunk_starts(n, chunk_len, o)) for o in overlaps]
    _require_distinct("overlap", overlaps, label=float)
    starts = sorted(set().union(*owned))
    est = np.zeros((len(overlaps), len(models), n))
    weight = np.zeros((len(overlaps), n))
    # Blend nothing outside the samples a chunk's ISTFT rebuilds.
    sup = dsp.rebuilt_span(chunk_len)
    wins = [(_triangle(chunk_len) if o == 0.5 else np.ones(chunk_len))[sup]
            for o in overlaps]
    group = max(1, _GROUP_BYTES // (16 * dsp.frame_count(chunk_len) * dsp.N_BINS))
    chunks = np.lib.stride_tricks.sliding_window_view(noisy.samples, chunk_len)
    for g in range(0, len(starts), group):
        batch = starts[g:g + group]
        outs = enhance_full(models, chunks[batch])
        for own, ests, w, win in zip(owned, est, weight, wins):
            for j, s in enumerate(batch):
                if s in own:
                    w[s + sup.start:s + sup.stop] += win
                    for e, out in zip(ests, outs):
                        e[s + sup.start:s + sup.stop] += out[j, sup] * win
        del outs  # free this group's rows before the next group's are made
    tails = [max(own) + chunk_len for own in owned]
    for t in dict.fromkeys(tails):
        if n - t >= dsp.WIN_LEN:
            outs = enhance_full(models, Waveform(noisy.samples[t:]))
            for tail, ests, w in zip(tails, est, weight):
                if tail == t:
                    for e, out in zip(ests, outs):
                        e[t + 1:] += out.samples[1:]
                    w[t + 1:] += 1.0
    blended = (weight > 1e-8)[:, None]
    np.divide(est, weight[:, None], out=est, where=blended)
    # Samples no chunk reconstructs (chunk-boundary zeros, dropped tails)
    # pass through unprocessed.
    np.copyto(est, noisy.samples, where=~blended)
    results = tuple(tuple(Waveform(e) for e in ests) if isinstance(model, tuple)
                    else Waveform(ests[0]) for ests in est)
    return results if isinstance(overlap, tuple) else results[0]


# -- experiment protocol ------------------------------------------------------


def _require_distinct(name: str, values, label=str) -> None:
    """Raise a ValueError naming setting `name` and a value whose `label`
    an earlier value has: a repeated value would add its rows to the report
    or its estimate to a call's results twice, and two durations of one
    label (`f"{dur:g}"`, which names their corpus seed and utt_ids) would
    score the same mixtures twice."""
    seen = {}
    for value in values:
        key = label(value)
        if key in seen:
            raise ValueError(f"{name} must be distinct; {value} "
                             + ("appears twice" if value == seen[key] else
                                f"and {seen[key]} are both labelled {key}"))
        seen[key] = value


@dataclass(frozen=True)
class TestSuiteConfig:
    durations_s: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
    snrs_db: tuple[int, ...] = (-5, 0, 5, 10, 15)
    utts_per_condition: int = 20

    def __post_init__(self):
        if not self.durations_s or min(self.durations_s) <= 0:
            raise ValueError(f"durations_s must be one or more positive durations, "
                             f"got {self.durations_s}")
        for dur in self.durations_s:
            dsp.require_one_frame("durations_s", dur)
        if not self.snrs_db:
            raise ValueError("snrs_db must name at least one SNR")
        _require_distinct("durations_s", self.durations_s, lambda dur: f"{dur:g}")
        _require_distinct("snrs_db", self.snrs_db)
        if self.utts_per_condition < 1:
            raise ValueError(f"utts_per_condition must be at least 1, "
                             f"got {self.utts_per_condition}")


# Inference mode -> chunk overlap; None runs full-length inference.
MODES: dict[str, float | None] = {"full": None, "seg": 0.0, "seg-o": 0.5}


@dataclass(frozen=True)
class ExperimentConfig:
    kinds: tuple[str, ...] = ("nopos", "sinusoidal", "learnlin")
    modes: tuple[str, ...] = tuple(MODES)
    chunk_s: float = 0.0          # 0: use the training clip length
    train_utts: int = 12
    train_utt_dur_s: float = 1.0
    retrain: bool = False

    def __post_init__(self):
        for name, allowed in (("kinds", [k.value for k in PeKind]), ("modes", MODES)):
            chosen = getattr(self, name)
            unknown = [c for c in chosen if c not in allowed]
            if not chosen or unknown:
                raise ValueError(f"{name} must be one or more of {', '.join(allowed)}; "
                                 f"got {', '.join(chosen) or 'none'}")
            _require_distinct(name, chosen)
        # The clip length is only known when the experiment runs.
        seg_chunk_s("chunk_s", self.chunk_s, clip_len_s=0.0)
        if self.train_utts < 1:
            raise ValueError(f"train_utts must be at least 1, got {self.train_utts}")
        dsp.require_one_frame("train_utt_dur_s", self.train_utt_dur_s)


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


# report.csv has one column per ReportRow field, in field order; floats are
# written with repr so they read back exactly.
_CSV_FIELDS = fields(ReportRow)


@dataclass
class MetricReport:
    rows: list[ReportRow]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(col.name for col in _CSV_FIELDS)
        for r in self.rows:
            values = ((col.type, getattr(r, col.name)) for col in _CSV_FIELDS)
            writer.writerow(repr(v) if t == "float" else v for t, v in values)
        return buf.getvalue()

    def to_markdown(self, train_len_s: float) -> str:
        """Summary table grouped by test length, one block per model variant."""
        groups: dict[tuple[float, str, str], list[ReportRow]] = {}
        for r in self.rows:
            groups.setdefault((r.test_len_s, r.kind, r.mode), []).append(r)
        labels = {k.value: scheme.label for k, scheme in SCHEMES.items()}
        variants = [("noisy", "full", "Noisy")] + [
            (kind, mode, labels.get(kind, kind) + ("" if overlap is None else "-" + mode.title()))
            for kind in sorted({r.kind for r in self.rows} - {"noisy"})
            for mode, overlap in MODES.items()]
        lines = [f"## Models trained on {train_len_s:g}s clips",
                 "",
                 "| Test len | Model | SI-SDR (dB) | SI-SDRi (dB) | SegSNR (dB) | n |",
                 "|---|---|---|---|---|---|"]
        for tl in sorted({r.test_len_s for r in self.rows}):
            for kind, mode, label in variants:
                rows = groups.get((tl, kind, mode))
                if not rows:
                    continue
                sdr = np.mean([r.si_sdr_out for r in rows])
                sdri = np.mean([r.si_sdr_out - r.si_sdr_in for r in rows])
                seg = np.mean([r.seg_snr_out for r in rows])
                lines.append(f"| {tl:g}s | {label} | {sdr:.2f} | {sdri:.2f} "
                             f"| {seg:.2f} | {len(rows)} |")
        return "\n".join(lines) + "\n"


def _load_model(ckpt_path, cfg: ModelConfig) -> EnhancementModel:
    """The model saved at `ckpt_path`, which must have been built with `cfg`
    except for its init seed, which a saved model may have drawn from another
    stream; any other difference raises a ValueError naming the fields."""
    model, _ = load_checkpoint(ckpt_path)
    saved, wanted = config_dict(model.config), config_dict(cfg)
    differ = [f"{name} {saved[name]} (requested {wanted[name]})" for name in saved
              if name != "init_seed" and saved[name] != wanted[name]]
    if differ:
        raise ValueError(f"checkpoint {ckpt_path} was built with other model "
                         f"settings: {', '.join(differ)}; set "
                         f"experiment.retrain=1 to train it again")
    return model


def run_lengen_experiment(seed: int, model_cfg: ModelConfig,
                          train_cfg: TrainConfig, exp: ExperimentConfig,
                          suite: TestSuiteConfig, out_dir) -> MetricReport:
    """Train one model per scheme on short clips, then score every
    (duration, SNR) condition with full-length and chunked inference.

    The models form one bundle in `exp.kinds` order, from checkpoint to
    report row. A kind whose model_<kind>.lgse is in `out_dir` is loaded,
    unless `exp.retrain`; it must match `model_cfg` but for the init seed,
    and nothing else is checked, so a reused `out_dir` reuses its models
    whatever seed or training settings made them: use one `out_dir` per
    seed, or `exp.retrain`. The other kinds train on one corpus, synthesized
    only if some model trains, and are saved and loaded back. Every mixture
    is enhanced by the bundle in one `enhance_full` call for the full mode
    and one `enhance_chunked` call for every chunked mode, so each mixture
    and each distinct chunk is analysed once.

    Both phases list their jobs, the models to train and the mixtures to
    score, for `workers.in_processes` to deal out. The rows are joined in
    mixture order, so every output byte is the same for any process count.

    Writes report.csv and report.md into out_dir and returns the report.
    Deterministic for a fixed seed, including the CSV bytes.
    """
    # A model shape or training plan some kind cannot take fails here, before
    # anything is written and not after the first models have trained.
    cfgs = [replace(model_cfg, pe_kind=kind) for kind in exp.kinds]
    for cfg in cfgs:
        check_plan(train_cfg, cfg, exp.train_utts, exp.train_utt_dur_s,
                   "experiment.train_utt_dur_s")
    os.makedirs(out_dir, exist_ok=True)

    ckpts = [os.path.join(out_dir, f"model_{cfg.pe_kind.value}.lgse") for cfg in cfgs]
    # Saved models are checked before any training starts; None marks a hole.
    bundle = [None if exp.retrain or not os.path.exists(path) else _load_model(path, cfg)
              for path, cfg in zip(ckpts, cfgs)]
    holes = [n for n, m in enumerate(bundle) if m is None]
    if holes:
        # Synthesized before the fork, so every child shares it.
        corpus = dsp.synth_corpus(derived_seed(seed, "corpus.train"),
                                  exp.train_utts, exp.train_utt_dur_s)

        def train_hole(job: int) -> None:
            n = holes[job]
            train(EnhancementModel(cfgs[n]), corpus, train_cfg, ckpt_path=ckpts[n],
                  loss_csv=os.path.join(out_dir, f"loss_{cfgs[n].pe_kind.value}.csv"))

        workers.in_processes(len(holes), train_hole)
        del corpus
        for n in holes:
            bundle[n] = load_checkpoint(ckpts[n])[0]
    bundle = tuple(bundle)

    chunk_s = seg_chunk_s("chunk_s", exp.chunk_s, train_cfg.clip_len_s)

    mixtures = [(dur, snr, i) for dur in suite.durations_s for snr in suite.snrs_db
                for i in range(suite.utts_per_condition)]

    # A process synthesizes a duration's test corpus when one of its jobs
    # first needs it, and holds one: its jobs are in mixture order.
    @functools.lru_cache(maxsize=1)
    def test_corpus(dur: float) -> list:
        return dsp.synth_corpus(derived_seed(seed, f"corpus.test.{dur:g}"),
                                suite.utts_per_condition, dur)

    def score(n: int) -> list[ReportRow]:
        dur, snr, i = mixtures[n]
        utt = test_corpus(dur)[i]
        case = (i, utt, dsp.mix_at_snr(utt.clean, utt.noise, snr))
        return _score_case(case, bundle, exp, chunk_s, dur, snr, train_cfg.clip_len_s)

    rows = [row for mixture in workers.in_processes(len(mixtures), score)
            for row in mixture]

    report = MetricReport(rows)
    report.to_csv(os.path.join(out_dir, "report.csv"))
    with open(os.path.join(out_dir, "report.md"), "w", encoding="utf-8") as f:
        f.write(report.to_markdown(train_cfg.clip_len_s))
    return report


def _score_case(case, bundle: tuple[EnhancementModel, ...], exp: ExperimentConfig,
                chunk_s: float, dur: float, snr: int, train_len: float) -> list[ReportRow]:
    """The noisy row, then one row per model and mode in bundle order, for
    one mixture. Each model's rows name its own kind and target; the noisy
    row names the first model's target."""
    i, utt, noisy = case
    utt_id = f"{dur:g}s_snr{snr}_{i:03d}"
    base = dict(train_len_s=train_len, test_len_s=dur, snr_db=snr, utt_id=utt_id)
    sdr_in = si_sdr(noisy, utt.clean)
    rows = [ReportRow(kind="noisy", target=bundle[0].config.target.value, si_sdr_in=sdr_in,
                      si_sdr_out=sdr_in, seg_snr_out=seg_snr(noisy, utt.clean),
                      mode="full", **base)]
    scores: dict[tuple[int, str], tuple[float, float]] = {}

    def score(mode: str, ests) -> None:
        for n, est in enumerate(ests):
            scores[n, mode] = si_sdr(est, utt.clean), seg_snr(est, utt.clean)

    for mode in exp.modes:
        if MODES[mode] is None:
            score(mode, enhance_full(bundle, noisy))
    # One call enhances every chunked mode, each distinct chunk once.
    chunked = [mode for mode in exp.modes if MODES[mode] is not None]
    if chunked and dur > chunk_s:
        ests = enhance_chunked(bundle, noisy, chunk_s, tuple(MODES[m] for m in chunked))
        for mode, mode_ests in zip(chunked, ests):
            score(mode, mode_ests)
    for n, m in enumerate(bundle):
        for mode in exp.modes:
            if (n, mode) in scores:
                sdr, seg = scores[n, mode]
                rows.append(ReportRow(kind=m.config.pe_kind.value, target=m.config.target.value,
                                      si_sdr_in=sdr_in, si_sdr_out=sdr,
                                      seg_snr_out=seg, mode=mode, **base))
    return rows
