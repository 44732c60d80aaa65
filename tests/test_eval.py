import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgse import dsp
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
