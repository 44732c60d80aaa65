import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enhance_chunked_loop
from lgse import dsp, evaluate, objectives
from lgse.dsp import SAMPLE_RATE, Waveform
from lgse.evaluate import (
    MetricReport,
    ReportRow,
    chunk_starts,
    enhance_chunked,
    enhance_full,
    seg_snr,
    si_sdr,
)
from lgse.model import EnhancementModel, ModelConfig


def white(n, seed=0, amp=0.4):
    return np.random.default_rng(seed).uniform(-amp, amp, n)


# -- si-sdr ---------------------------------------------------------------------


def test_si_sdr_perfect_estimate_capped():
    x = white(4000, 1)
    assert si_sdr(x, x) == 100.0


def test_si_sdr_scale_invariance():
    x = white(4000, 2)
    assert si_sdr(2.0 * x, x) == 100.0
    noisy = x + white(4000, 3, amp=0.05)
    assert abs(si_sdr(noisy, x) - si_sdr(3.0 * noisy, x)) < 1e-9


def test_si_sdr_zero_db_construction():
    ref = white(8000, 4)
    noise = white(8000, 5)
    # Orthogonalize the noise, then scale to the reference energy: exactly 0 dB.
    noise = noise - (noise @ ref) / (ref @ ref) * ref
    noise *= np.sqrt((ref @ ref) / (noise @ noise))
    assert abs(si_sdr(ref + noise, ref)) < 1e-9


def test_si_sdr_zero_reference_rejected():
    with pytest.raises(ValueError):
        si_sdr(white(100, 6), np.zeros(100))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(0, 2 ** 31 - 1))
def test_si_sdr_positive_scaling_property(scale, seed):
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=2000)
    est = ref + 0.1 * rng.normal(size=2000)
    assert abs(si_sdr(est, ref) - si_sdr(scale * est, ref)) < 1e-8


def test_seg_snr_identical_hits_ceiling():
    x = white(4096, 7)
    assert seg_snr(x, x) == 35.0


def test_seg_snr_noisy_reasonable():
    ref = white(8192, 8)
    est = ref + white(8192, 9, amp=0.04)
    v = seg_snr(est, ref)
    assert 5.0 < v < 35.0


@pytest.mark.parametrize("n,silent,seed", [
    (8192, None, 10), (16000, slice(2000, 6000), 11), (512, None, 12),
    (700, None, 13), (300, None, 14), (4096, slice(0, 4096), 15),
])
def test_seg_snr_matches_frame_loop(n, silent, seed):
    from helpers import seg_snr_loop

    ref = white(n, seed)
    if silent is not None:
        ref[silent] = 0.0
    for est in (ref + white(n, seed + 100, amp=0.05), ref.copy(),
                white(n, seed + 200, amp=2.0)):
        assert abs(seg_snr(est, ref) - seg_snr_loop(est, ref)) <= 1e-12


def test_si_sdr_is_a_python_float():
    ref = white(4000, 16)
    assert type(si_sdr(ref + white(4000, 17, amp=0.1), ref)) is float


# -- enhancement paths -------------------------------------------------------------


def identity_model(target="irm"):
    """Model whose prediction is an all-ones mask (identity enhancement)."""
    m = EnhancementModel(ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                                     k_bins=257, pe_kind="nopos", target=target))

    class Ones:
        config = m.config

        def predict(self, x_mag):
            return np.ones_like(x_mag)

    return Ones()


def test_enhance_full_identity_mask_reconstructs_input():
    x = Waveform(white(16000, 10))
    out = enhance_full(identity_model(), x)
    assert len(out) == len(x)
    covered = 60 * 256 + 512  # frames cover this many samples
    lo, hi = 512, covered - 512
    assert np.max(np.abs(out.samples[lo:hi] - x.samples[lo:hi])) < 1e-9


def test_enhance_full_preserves_length():
    for n in (16000, 20000, 23456):
        out = enhance_full(identity_model(), Waveform(white(n, 11)))
        assert len(out) == n


# -- chunking -----------------------------------------------------------------------


def test_chunk_counts_match_protocol():
    n = 20 * SAMPLE_RATE
    c = SAMPLE_RATE
    assert len(chunk_starts(n, c, 0)) == 20
    assert len(chunk_starts(n, c, 0.5)) == 39


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(1, 5))
def test_chunk_count_arithmetic(t_mult, c_s):
    """floor(T/c) chunks without overlap, 2*floor(T/c)-1 with, for integral T/c."""
    t = t_mult * c_s * SAMPLE_RATE
    c = c_s * SAMPLE_RATE
    assert len(chunk_starts(t, c, 0)) == t_mult
    assert len(chunk_starts(t, c, 0.5)) == 2 * t_mult - 1


def test_chunk_invalid_overlap():
    with pytest.raises(ValueError):
        chunk_starts(16000, 8000, 0.25)


def test_chunk_longer_than_signal():
    with pytest.raises(ValueError):
        chunk_starts(4000, 8000, 0)


def test_enhance_chunked_whole_length_equals_full():
    x = Waveform(white(16000, 12))
    model = identity_model()
    full = enhance_full(model, x)
    seg = enhance_chunked(model, x, chunk_s=1.0, overlap=0)
    assert np.allclose(seg.samples, full.samples, atol=1e-12)


def test_enhance_chunked_overlap_identity():
    x = Waveform(white(32000, 13))
    seg_o = enhance_chunked(identity_model(), x, chunk_s=1.0, overlap=0.5)
    lo, hi = 512, 32000 - 512
    assert np.max(np.abs(seg_o.samples[lo:hi] - x.samples[lo:hi])) < 1e-9


def small_model(target):
    return EnhancementModel(ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                                        k_bins=257, pe_kind="learnlin",
                                        target=target, init_seed=5))


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("target", ["irm", "psm", "ms", "cirm"])
def test_enhance_full_stack_equals_rows(target):
    model = small_model(target)
    xs = np.stack([white(5000, seed=20 + i) for i in range(3)])
    out = enhance_full(model, xs)
    assert isinstance(out, np.ndarray) and out.shape == xs.shape
    for x, row in zip(xs, out):
        assert np.max(np.abs(row - enhance_full(model, Waveform(x)).samples)) <= 1e-12
        assert row[0] == x[0] and np.array_equal(row[4864:], x[4864:])


def test_enhance_full_rejects_flat_array():
    with pytest.raises(ValueError, match=r"\(B, n\) stack"):
        enhance_full(small_model("irm"), white(5000))


@pytest.mark.parametrize("n", [512, 10 * dsp.HOP, 5000])
def test_enhance_full_passes_through_outside_the_rebuilt_span(n):
    model = small_model("irm")
    span = dsp.rebuilt_span(n)
    outside = np.ones(n, dtype=bool)
    outside[span] = False
    xs = np.stack([white(n, seed=40 + i) for i in range(2)])
    one = enhance_full(model, Waveform(xs[0])).samples
    stack = enhance_full(model, xs)
    assert np.array_equal(one[outside], xs[0][outside])
    assert np.array_equal(stack[:, outside], xs[:, outside])
    # The mask changes every sample inside the span.
    assert not np.any(one[span] == xs[0][span])


# 0.1 s chunks of 1600 samples: five frames, 20,560 bytes of spectrum each.
# 8600 samples leave a 600-sample tail (enhanced on its own); 8300 leave 300
# (shorter than a window, passed through).
@pytest.mark.parametrize("target", ["irm", "psm", "ms", "cirm"])
@pytest.mark.parametrize("overlap", [0.0, 0.5])
@pytest.mark.parametrize("n", [8600, 8300])
def test_grouped_chunks_match_per_chunk_oracle(monkeypatch, target, overlap, n):
    model = small_model(target)
    x = Waveform(white(n, seed=n + int(10 * overlap)))
    want = enhance_chunked_loop(model, x, 0.1, overlap)
    monkeypatch.setattr(evaluate, "_GROUP_BYTES", 2 * 5 * 257 * 16)
    calls = count_calls(monkeypatch, evaluate, "enhance_full")
    got = enhance_chunked(model, x, 0.1, overlap).samples
    assert np.max(np.abs(got - want)) <= 1e-12
    stacks = [len(a[1]) for a in calls if not isinstance(a[1], Waveform)]
    n_chunks = len(chunk_starts(n, 1600, overlap))
    assert len(stacks) >= 3 and sum(stacks) == n_chunks
    assert max(stacks) == 2 and stacks[-1] == 1
    assert len(calls) - len(stacks) == (1 if n == 8600 else 0)


def test_seg_o_reaches_every_enhance_probe(monkeypatch):
    """A 4 s seg-o call reaches each function the benchmark traces on the
    enhance path, with one enhance_full call per group of 8 chunks."""
    calls = {name: count_calls(monkeypatch, module, name) for module, name in
             ((evaluate, "enhance_full"), (dsp, "stft"), (dsp, "istft"),
              (objectives, "apply_target"))}
    x = Waveform(white(4 * SAMPLE_RATE, seed=30))
    enhance_chunked(small_model("irm"), x, chunk_s=0.5, overlap=0.5)
    n_chunks = len(chunk_starts(len(x), SAMPLE_RATE // 2, 0.5))
    group = evaluate._GROUP_BYTES // (16 * 30 * 257)
    assert (n_chunks, group) == (15, 8)
    assert len(calls["enhance_full"]) == math.ceil(n_chunks / group)
    for name in ("stft", "istft", "apply_target"):
        assert len(calls[name]) == len(calls["enhance_full"]), name


def three_models():
    """Three models that differ in PE kind, objective and init."""
    pairs = (("learnlin", "irm"), ("nopos", "cirm"), ("sinusoidal", "ms"))
    return tuple(EnhancementModel(ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                                              k_bins=257, pe_kind=kind, target=target,
                                              init_seed=5 + i))
                 for i, (kind, target) in enumerate(pairs))


def test_enhance_full_with_several_models_equals_one_call_each(monkeypatch):
    models = three_models()
    x = Waveform(white(5000, seed=40))
    xs = np.stack([white(5000, seed=41 + i) for i in range(2)])
    want = [enhance_full(m, x).samples for m in models]
    want_stack = [enhance_full(m, xs) for m in models]
    stft = count_calls(monkeypatch, dsp, "stft")
    got = enhance_full(models, x)
    got_stack = enhance_full(models, xs)
    assert len(stft) == 2
    assert isinstance(got, tuple) and len(got) == len(got_stack) == 3
    for est, ref in zip(got, want):
        assert isinstance(est, Waveform) and np.array_equal(est.samples, ref)
    for est, ref in zip(got_stack, want_stack):
        assert np.array_equal(est, ref)
    one = enhance_full(models[:1], x)
    assert isinstance(one, tuple) and np.array_equal(one[0].samples, want[0])


# With 0.1 s chunks, 8600 samples leave an enhanced tail under seg and seg-o;
# 8300 leave one shorter than a window, passed through.
@pytest.mark.parametrize("overlap", [0.0, 0.5])
@pytest.mark.parametrize("n", [8600, 8300])
def test_enhance_chunked_with_several_models_equals_one_call_each(monkeypatch, overlap,
                                                                  n):
    monkeypatch.setattr(evaluate, "_GROUP_BYTES", 2 * 5 * 257 * 16)
    models = three_models()
    x = Waveform(white(n, seed=n + 1))
    want = [enhance_chunked(m, x, 0.1, overlap).samples for m in models]
    stft = count_calls(monkeypatch, dsp, "stft")
    calls = count_calls(monkeypatch, evaluate, "enhance_full")
    got = enhance_chunked(models, x, 0.1, overlap)
    assert isinstance(got, tuple) and len(got) == 3
    for est, ref in zip(got, want):
        assert isinstance(est, Waveform) and np.array_equal(est.samples, ref)
    # One analysis per group (and tail) serves every model.
    groups = math.ceil(len(chunk_starts(n, 1600, overlap)) / 2)
    assert len(stft) == len(calls) == groups + (1 if n == 8600 else 0)
    assert all(a[0] == models for a in calls)


def test_triangle_crossfade_sums_to_one():
    from lgse.evaluate import _triangle

    c = 8000
    w = _triangle(c)
    s = w[:c // 2] + w[c // 2:]
    assert np.max(np.abs(s - 1.0)) < 1e-12


# -- report ---------------------------------------------------------------------------


def sample_rows():
    return [
        ReportRow("noisy", "irm", 0.5, 4.0, 0, "4s_snr0_000", 0.1, 0.1, 3.0, "full"),
        ReportRow("learnlin", "irm", 0.5, 4.0, 0, "4s_snr0_000", 0.1, 7.3, 8.5, "full"),
        ReportRow("learnlin", "irm", 0.5, 4.0, 0, "4s_snr0_000", 0.1, 6.1, 7.9, "seg"),
    ]


def test_report_csv_roundtrip(tmp_path):
    report = MetricReport(sample_rows())
    path = tmp_path / "report.csv"
    report.to_csv(path)
    loaded = MetricReport.from_csv(path)
    assert loaded.rows == report.rows
    # Writing again is byte-identical.
    path2 = tmp_path / "report2.csv"
    loaded.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_report_summaries():
    report = MetricReport(sample_rows())
    assert report.mean_si_sdr("learnlin", 4.0, "full") == 7.3
    assert abs(report.mean_improvement("learnlin", 4.0, "full") - 7.2) < 1e-12
    md = report.to_markdown(0.5)
    assert "Noisy" in md and "LearnLin" in md and "LearnLin-Seg" in md


def test_experiment_report_reads_back_with_from_csv(tmp_path):
    from lgse.evaluate import ExperimentConfig, TestSuiteConfig, run_lengen_experiment
    from lgse.training import TrainConfig

    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, k_bins=257,
                      pe_kind="learnlin")
    report = run_lengen_experiment(
        5, cfg, TrainConfig(clip_len_s=0.5, batch_utts=2, max_steps=1, w_steps=10),
        ExperimentConfig(kinds=("learnlin",), train_utts=2),
        TestSuiteConfig(durations_s=(1.0,), snrs_db=(0,), utts_per_condition=1),
        tmp_path)
    loaded = MetricReport.from_csv(tmp_path / "report.csv")
    assert loaded.rows == report.rows
    assert len(loaded.rows) == 4
    assert "np.float64" not in (tmp_path / "report.csv").read_text()


def _save_models(out_dir, kinds):
    """Untrained checkpoints, so the experiment loads rather than trains."""
    from lgse.training import save_checkpoint

    for i, kind in enumerate(kinds):
        m = EnhancementModel(ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                                         k_bins=257, pe_kind=kind, init_seed=11 + i))
        save_checkpoint(out_dir / f"model_{kind}.lgse", m, None, 0)


def _tiny_experiment(out_dir, kinds, seed=7):
    """Four mixtures per length: all three modes at 1.25 s (a tail under
    seg, none under seg-o), and full only at 0.5 s, which is one chunk."""
    from lgse.evaluate import ExperimentConfig, TestSuiteConfig, run_lengen_experiment
    from lgse.training import TrainConfig

    return run_lengen_experiment(
        seed, ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, k_bins=257),
        TrainConfig(clip_len_s=0.5, batch_utts=2, max_steps=1, w_steps=10),
        ExperimentConfig(kinds=kinds, train_utts=2),
        TestSuiteConfig(durations_s=(0.5, 1.25), snrs_db=(0, 5), utts_per_condition=2),
        out_dir)


# Recorded from the loop that enhanced each mixture once per model; scoring
# every model from one analysis must reproduce the reports byte for byte.
# The bytes depend on the BLAS thread count; conftest.py pins it to one.
PINNED_REPORT_SHA256 = {
    "report.csv": "7da026b681869cab637ff60942adb23e64a2fada08eea4907b5762144275fe06",
    "report.md": "26313eef57d22771a74446781c13defbc4947cf4cd9bd51722af19bdd71d591b",
}


def test_experiment_report_bytes_are_pinned(tmp_path):
    kinds = ("learnlin", "nopos")
    _save_models(tmp_path, kinds)
    report = _tiny_experiment(tmp_path, kinds)
    # 0.5 s: 4 x (noisy + 2 kinds); 1.25 s: 4 x (noisy + 2 kinds x 3 modes).
    assert len(report.rows) == 4 * 3 + 4 * 7
    for name, want in PINNED_REPORT_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


def test_experiment_analyses_each_mixture_once_whatever_the_kinds(tmp_path,
                                                                  monkeypatch):
    counted = {name: count_calls(monkeypatch, module, name) for module, name in
               ((dsp, "stft"), (dsp, "synth_corpus"), (evaluate, "enhance_full"),
                (evaluate, "enhance_chunked"), (EnhancementModel, "predict"))}
    seen = {}
    for kinds in (("learnlin",), ("learnlin", "nopos", "sinusoidal")):
        out_dir = tmp_path / str(len(kinds))
        out_dir.mkdir()
        _save_models(out_dir, kinds)
        for calls in counted.values():
            calls.clear()
        _tiny_experiment(out_dir, kinds)
        seen[len(kinds)] = {name: len(calls) for name, calls in counted.items()}
    one, three = seen[1], seen[3]
    # 8 mixtures in full mode, 4 of them also in seg and seg-o.
    assert one["enhance_chunked"] == three["enhance_chunked"] == 8
    assert one["enhance_full"] == three["enhance_full"] > 8
    assert one["stft"] == three["stft"] == one["enhance_full"]
    assert three["predict"] == 3 * one["predict"]
    # Every checkpoint loads, so only the two test corpora are synthesized.
    assert one["synth_corpus"] == three["synth_corpus"] == 2


def test_experiment_synthesizes_the_training_corpus_only_to_train(tmp_path,
                                                                   monkeypatch):
    from lgse.dsp import derived_seed

    synth = count_calls(monkeypatch, dsp, "synth_corpus")
    _save_models(tmp_path, ("learnlin",))
    _tiny_experiment(tmp_path, ("learnlin", "nopos"))
    train_seed = derived_seed(7, "corpus.train")
    assert [a[0] for a in synth].count(train_seed) == 1
    assert (tmp_path / "model_nopos.lgse").exists()
    synth.clear()
    _tiny_experiment(tmp_path, ("learnlin", "nopos"))
    assert train_seed not in [a[0] for a in synth]


@pytest.mark.parametrize("kw,field", [
    (dict(modes=("full", "segx")), "modes"),
    (dict(modes=()), "modes"),
    (dict(kinds=("learnlin", "bogus")), "kinds"),
    (dict(kinds=()), "kinds"),
    (dict(chunk_s=-1.0), "chunk_s"),
    (dict(chunk_s=0.01), "chunk_s"),
    (dict(chunk_s=0.0315), "chunk_s"),
    (dict(kinds=("learnlin", "learnlin")), "kinds"),
    (dict(modes=("full", "seg", "full")), "modes"),
    (dict(train_utts=0), "train_utts"),
    (dict(train_utt_dur_s=-1.0), "train_utt_dur_s"),
    (dict(train_utt_dur_s=0.01), "train_utt_dur_s"),
])
def test_experiment_config_rejects_unknown_modes_and_kinds(kw, field):
    from lgse.evaluate import ExperimentConfig

    with pytest.raises(ValueError, match=f"^{field} must be"):
        ExperimentConfig(**kw)


@pytest.mark.parametrize("kw,field", [
    (dict(durations_s=(1.0, 0.0)), "durations_s"),
    (dict(durations_s=(-1.0,)), "durations_s"),
    (dict(durations_s=()), "durations_s"),
    (dict(snrs_db=()), "snrs_db"),
    (dict(utts_per_condition=0), "utts_per_condition"),
    (dict(durations_s=(1.0, 0.02)), "durations_s"),
    (dict(durations_s=(0.5, 1.0, 0.5)), "durations_s"),
    (dict(snrs_db=(0, 5, 0)), "snrs_db"),
])
def test_suite_config_rejects_empty_or_non_positive_settings(kw, field):
    from lgse.evaluate import TestSuiteConfig

    with pytest.raises(ValueError, match=f"^{field} must"):
        TestSuiteConfig(**kw)


def test_one_window_is_the_shortest_setting_accepted():
    from lgse.evaluate import ExperimentConfig, TestSuiteConfig
    from lgse.training import TrainConfig

    window = dsp.WIN_LEN / SAMPLE_RATE
    assert window == 0.032
    ExperimentConfig(chunk_s=window)
    TestSuiteConfig(durations_s=(window,))
    TrainConfig(clip_len_s=window)
    with pytest.raises(ValueError, match="^clip_len_s must be at least one analysis window"):
        TrainConfig(clip_len_s=0.01)
