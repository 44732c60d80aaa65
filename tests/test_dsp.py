import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import istft_loop, naive_dft, overlap_add_loop
from lgse.dsp import (
    FFT_SIZE,
    HOP,
    N_BINS,
    SAMPLE_RATE,
    WIN_LEN,
    WINDOW,
    AudioFormatError,
    Waveform,
    _overlap_add,
    frame_count,
    frame_signal,
    istft,
    mix_at_snr,
    read_wav,
    rebuilt_span,
    sqrt_hann,
    stft,
    synth_corpus,
    write_wav,
)


def white(n, seed=0, amp=0.5):
    return np.random.default_rng(seed).uniform(-amp, amp, n)


def test_config_defaults():
    assert (WIN_LEN, HOP, FFT_SIZE, N_BINS) == (512, 256, 512, 257)
    assert np.array_equal(WINDOW, sqrt_hann(512))


def test_window_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        WINDOW[0] = 1.0


def test_stft_zero_frame():
    spec = stft(Waveform(np.zeros(512)))
    assert spec.shape == (1, 257)
    assert np.all(spec == 0)


def test_stft_one_second_frame_count():
    spec = stft(Waveform(white(16000)))
    assert spec.shape[0] == 61
    assert frame_count(16000) == 61


def test_stft_sinusoid_peak_bin():
    t = np.arange(16000) / SAMPLE_RATE
    spec = stft(Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t)))
    mag = np.abs(spec).mean(axis=0)
    assert np.argmax(mag) == round(1000 * 512 / SAMPLE_RATE) == 32


def test_stft_too_short_reports_minimum():
    with pytest.raises(ValueError, match="512"):
        stft(Waveform(np.zeros(100)))


def test_stft_frames_match_naive_dft():
    x = white(512 + 256 * 3, seed=4)
    frames = frame_signal(x)
    spec = stft(Waveform(x))
    for l in range(frames.shape[0]):
        oracle = naive_dft(frames[l])
        assert np.max(np.abs(spec[l] - oracle)) < 1e-8


def test_cola_window_sum_constant():
    w2 = sqrt_hann(512) ** 2
    total = np.zeros(512 * 6)
    for start in range(0, len(total) - 512 + 1, 256):
        total[start:start + 512] += w2
    interior = total[512:-512]
    assert np.max(np.abs(interior - 1.0)) < 1e-12


def test_roundtrip_random_signal():
    x = white(16000, seed=1)
    spec = stft(Waveform(x))
    y = istft(spec, out_len=16000).samples
    lo, hi = 512, 16000 - 512
    assert np.max(np.abs(x[lo:hi] - y[lo:hi])) < 1e-10


def test_roundtrip_zero_spectrogram():
    out = istft(np.zeros((10, 257), dtype=complex))
    assert np.all(out.samples == 0)


def test_roundtrip_preserves_sinusoid_rms():
    t = np.arange(2 * SAMPLE_RATE) / SAMPLE_RATE
    x = 0.4 * np.sin(2 * np.pi * 500.0 * t)
    y = istft(stft(Waveform(x)), out_len=len(x)).samples
    lo, hi = 512, len(x) - 512
    rms_in = np.sqrt(np.mean(x[lo:hi] ** 2))
    rms_out = np.sqrt(np.mean(y[lo:hi] ** 2))
    assert abs(rms_in - rms_out) < 1e-9


@pytest.mark.parametrize("win_ms,hop_ms", [(32, 16), (32, 8), (30, 16)])
@pytest.mark.parametrize("n,out_len", [(512, None), (9000, 9000), (9100, 9100),
                                       (9000, 8000)])
def test_istft_equals_frame_loop(win_ms, hop_ms, n, out_len):
    """Each sample sums its frames in the loop's order, so the strided
    overlap-add is bit-identical whether or not the hop divides the window,
    and at the analysis geometry (32, 16) `istft` equals the loop."""
    win, hop = win_ms * SAMPLE_RATE // 1000, hop_ms * SAMPLE_RATE // 1000
    x = white(n, seed=n + hop_ms)
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]
    length = (len(frames) - 1) * hop + win if out_len is None else out_len
    assert np.array_equal(_overlap_add(frames, hop, length),
                          overlap_add_loop(frames, hop, length))
    if (win, hop) == (WIN_LEN, HOP):
        spec = stft(Waveform(x))
        got = istft(spec, out_len=out_len).samples
        assert np.array_equal(got, istft_loop(spec, out_len=out_len))


@pytest.mark.parametrize("n", [512, 10 * HOP, 10 * HOP + 100])
def test_rebuilt_span_is_what_the_frame_loop_covers(n):
    """The span is where the loop's window-square sum is nonzero: all but
    sample 0 (a zero of the window) and the tail past the last full frame."""
    n_frames = frame_count(n)
    wsum = overlap_add_loop(np.tile(WINDOW * WINDOW, (n_frames, 1)), HOP, n)
    covered = np.flatnonzero(wsum > 1e-10)
    span = rebuilt_span(n)
    assert np.array_equal(covered, np.arange(span.start, span.stop))
    assert span.start == 1 and span.stop == (n_frames - 1) * HOP + WIN_LEN


def test_stft_and_istft_take_stacks():
    xs = np.stack([white(5000, seed=s) for s in range(6)]).reshape(2, 3, 5000)
    spec = stft(xs)
    assert spec.shape == (2, 3) + stft(Waveform(xs[0, 0])).shape
    out = istft(spec, out_len=5000)
    assert isinstance(out, np.ndarray) and out.shape == xs.shape
    for i in range(2):
        for j in range(3):
            row = stft(Waveform(xs[i, j]))
            assert np.max(np.abs(spec[i, j] - row)) <= 1e-12
            assert np.max(np.abs(out[i, j] - istft(row, out_len=5000).samples)) <= 1e-12


def test_istft_rejects_wrong_bin_count():
    with pytest.raises(ValueError, match="bins"):
        istft(np.zeros((4, 100), dtype=complex))


def test_parseval_per_frame():
    x = white(512 * 2, seed=7)
    frames = frame_signal(x)
    spec = stft(Waveform(x))
    for l in range(frames.shape[0]):
        e_time = np.sum(frames[l] ** 2)
        full = np.fft.fft(frames[l], 512)
        e_freq = np.sum(np.abs(full) ** 2) / 512
        assert abs(e_time - e_freq) < 1e-9
        # One-sided equivalent from the stored half spectrum.
        half = spec[l]
        e_half = (np.abs(half[0]) ** 2 + np.abs(half[-1]) ** 2
                  + 2 * np.sum(np.abs(half[1:-1]) ** 2)) / 512
        assert abs(e_time - e_half) < 1e-9


# -- mixing -------------------------------------------------------------------


@pytest.mark.parametrize("snr,ratio", [(0, 1.0), (20, 0.01), (-10, 10.0)])
def test_mix_at_snr_energy_ratio(snr, ratio):
    clean = Waveform(white(8000, 1))
    noise = Waveform(white(8000, 2))
    mix = mix_at_snr(clean, noise, snr)
    scaled = mix.samples - clean.samples
    e_clean = np.sum(clean.samples ** 2)
    e_noise = np.sum(scaled ** 2)
    assert abs(e_noise / e_clean - ratio) < 1e-12 * max(1.0, ratio)
    measured = 10 * np.log10(e_clean / e_noise)
    assert abs(measured - snr) < 1e-9


def test_mix_rejects_zero_energy():
    z = Waveform(np.zeros(100))
    x = Waveform(white(100, 3))
    with pytest.raises(ValueError):
        mix_at_snr(z, x, 0)
    with pytest.raises(ValueError):
        mix_at_snr(x, z, 0)


def test_mix_rejects_length_mismatch():
    with pytest.raises(ValueError):
        mix_at_snr(Waveform(white(100, 1)), Waveform(white(99, 2)), 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(-10, 20), st.floats(0.25, 4.0), st.integers(0, 2 ** 31 - 1))
def test_mix_linearity(snr, scale, seed):
    rng = np.random.default_rng(seed)
    clean = rng.uniform(-0.4, 0.4, 4000)
    noise = rng.uniform(-0.4, 0.4, 4000)
    base = mix_at_snr(Waveform(clean), Waveform(noise), snr).samples
    # Linear in the clean operand; invariant to noise rescaling.
    scaled_clean = mix_at_snr(Waveform(scale * clean), Waveform(noise), snr).samples
    assert np.allclose(scaled_clean, scale * base, atol=1e-12)
    scaled_noise = mix_at_snr(Waveform(clean), Waveform(scale * noise), snr).samples
    assert np.allclose(scaled_noise, base, atol=1e-12)


# -- synthetic corpus ----------------------------------------------------------


def test_synth_deterministic():
    a = synth_corpus(42, 3, 0.5)
    b = synth_corpus(42, 3, 0.5)
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.clean.samples, ub.clean.samples)
        assert np.array_equal(ua.noise.samples, ub.noise.samples)


def test_synth_count_and_duration():
    corpus = synth_corpus(1, 10, 0.5)
    assert len(corpus) == 10
    assert all(len(u.clean) == 8000 and len(u.noise) == 8000 for u in corpus)


def _in_narrow_peaks(x) -> bool:
    """Whether x's mean STFT power has 2-4 local maxima above 1% of its
    largest, all in bins 8-199, that with two bins either side hold 99% of
    the energy: the spectrum of 2-4 bin-centred sinusoids."""
    power = (np.abs(stft(x)) ** 2).mean(axis=0)
    inner = power[1:-1]
    peaks = 1 + np.nonzero((inner > power[:-2]) & (inner >= power[2:])
                           & (inner > 0.01 * power.max()))[0]
    near = np.zeros(len(power), dtype=bool)
    for b in peaks:
        near[max(0, b - 2):b + 3] = True
    return (2 <= len(peaks) <= 4 and bool(np.all((peaks >= 8) & (peaks <= 199)))
            and power[near].sum() > 0.99 * power.sum())


def test_synth_clean_energy_sits_in_narrow_peaks():
    for utt in synth_corpus(9, 4, 1.0):
        assert _in_narrow_peaks(utt.clean)
    assert not _in_narrow_peaks(np.random.default_rng(9).standard_normal(16000))


# -- wav i/o ------------------------------------------------------------------


def test_wav_roundtrip(tmp_path):
    import wave

    x = Waveform(white(4000, 5, amp=0.8))
    path = tmp_path / "a.wav"
    write_wav(path, x)
    with wave.open(str(path), "rb") as f:
        assert f.getframerate() == SAMPLE_RATE
    y = read_wav(path)
    assert len(y) == len(x)
    assert np.max(np.abs(y.samples - x.samples)) < 1.0 / 32768 + 1e-9


def test_wav_peak_normalizes_hot_signal(tmp_path):
    x = Waveform(2.5 * white(1000, 6, amp=1.0))
    path = tmp_path / "hot.wav"
    write_wav(path, x)
    y = read_wav(path)
    assert np.max(np.abs(y.samples)) <= 1.0


def test_wav_rejects_wrong_format(tmp_path):
    import wave

    path = tmp_path / "bad.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(44100)
        f.writeframes(b"\x00\x00" * 64)
    with pytest.raises(AudioFormatError, match="44100"):
        read_wav(path)


@pytest.mark.parametrize("content", [b"not a RIFF file", b"", b"RIFF", b"RIFF\x10\x00",
                                     "drop the last byte"])
def test_wav_rejects_unreadable_file(tmp_path, content):
    path = tmp_path / "junk.wav"
    if content == "drop the last byte":
        write_wav(path, Waveform(np.zeros(100)))
        content = path.read_bytes()[:-1]
    path.write_bytes(content)
    with pytest.raises(AudioFormatError, match="junk.wav: not a readable WAV file") as err:
        read_wav(path)
    # The wave module's EOFError for a file that ends inside its header has
    # no message of its own.
    if len(content) < 12:
        assert str(err.value).endswith("(it ends inside the header)")
