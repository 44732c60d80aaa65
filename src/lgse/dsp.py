"""Waveform <-> time-frequency conversion, SNR mixing, synthetic corpus, WAV I/O.

All audio is mono float64 at 16 kHz. The analysis is fixed here, and only
here, by the module constants: a square-root Hann window of WIN_LEN = 512
samples (32 ms) every HOP = 256 samples (16 ms) and an FFT_SIZE = 512-point
FFT with N_BINS = 257 bins. Sqrt-Hann analysis times sqrt-Hann synthesis
satisfies constant overlap-add exactly on the interior.
"""

from __future__ import annotations

import wave
import zlib
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
WIN_LEN = 512
HOP = 256
FFT_SIZE = 512
N_BINS = FFT_SIZE // 2 + 1

__all__ = [
    "SAMPLE_RATE",
    "WIN_LEN",
    "HOP",
    "FFT_SIZE",
    "N_BINS",
    "WINDOW",
    "Waveform",
    "Utterance",
    "AudioFormatError",
    "sqrt_hann",
    "frame_count",
    "require_one_frame",
    "frame_signal",
    "stft",
    "rebuilt_span",
    "istft",
    "mix_at_snr",
    "noise_gain_for_snr",
    "synth_corpus",
    "derived_seed",
    "read_wav",
    "write_wav",
]


class AudioFormatError(ValueError):
    """A WAV file is not 16-bit PCM mono at 16 kHz."""


def sqrt_hann(n: int) -> np.ndarray:
    """Square root of the periodic Hann window of length n."""
    k = np.arange(n)
    return np.sqrt(0.5 * (1.0 - np.cos(2.0 * np.pi * k / n)))


WINDOW = sqrt_hann(WIN_LEN)
WINDOW.flags.writeable = False


@dataclass
class Waveform:
    """Mono 16 kHz sample sequence. Mixtures may exceed [-1, 1] in float;
    values are only peak-normalized when written to disk."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if not np.isfinite(self.samples).all():
            raise ValueError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / SAMPLE_RATE


def frame_count(n_samples: int) -> int:
    """Number of full analysis frames; the final partial frame is dropped."""
    if n_samples < WIN_LEN:
        raise ValueError(
            f"need at least {WIN_LEN} samples for one frame, got {n_samples}")
    return 1 + (n_samples - WIN_LEN) // HOP


def require_one_frame(name: str, dur_s: float) -> None:
    """Raise a ValueError naming setting `name` when `dur_s` is not a finite
    number of seconds, or holds fewer samples than one analysis window, the
    least any STFT can frame."""
    if not np.isfinite(dur_s):
        raise ValueError(f"{name} must be a finite number of seconds, got {dur_s:g}")
    if int(round(dur_s * SAMPLE_RATE)) < WIN_LEN:
        raise ValueError(f"{name} must be at least one analysis window "
                         f"({WIN_LEN} samples, {WIN_LEN / SAMPLE_RATE:g} s), "
                         f"got {dur_s:g}")


def frame_signal(samples: np.ndarray) -> np.ndarray:
    """Window (..., n) signals into (..., L, WIN_LEN) frames; frame l starts
    at l*HOP."""
    samples = np.asarray(samples, dtype=np.float64)
    frame_count(samples.shape[-1])  # rejects a signal shorter than one window
    frames = np.lib.stride_tricks.sliding_window_view(samples, WIN_LEN, axis=-1)
    return frames[..., ::HOP, :] * WINDOW


def stft(w: Waveform | np.ndarray) -> np.ndarray:
    """Complex (..., L, N_BINS) spectrogram of a waveform or of a (..., n)
    stack of equal-length signals."""
    frames = frame_signal(w.samples if isinstance(w, Waveform) else w)
    return np.fft.rfft(frames, n=FFT_SIZE, axis=-1)


def rebuilt_span(n_samples: int) -> slice:
    """The samples `istft` rebuilds from the `stft` of an n-sample signal:
    all but the first, which sits under a zero of the window, and the tail
    past the last full frame."""
    return slice(1, (frame_count(n_samples) - 1) * HOP + WIN_LEN)


def _overlap_add(frames: np.ndarray, hop: int, length: int) -> np.ndarray:
    """Sum (..., L, win) frames placed every `hop` samples into (..., length),
    zero past the last frame.

    Each frame is cut into hop-long pieces; piece j of every frame lands in
    one strided add, and the pieces go from last to first so that every
    sample sums its frames in increasing frame order.
    """
    n_frames, win = frames.shape[-2:]
    pieces = -(-win // hop)
    rows = max(n_frames + pieces - 1, -(-length // hop))
    out = np.zeros(frames.shape[:-2] + (rows, hop))
    for j in reversed(range(pieces)):
        part = frames[..., j * hop:(j + 1) * hop]
        out[..., j:j + n_frames, :part.shape[-1]] += part
    return out.reshape(frames.shape[:-2] + (-1,))[..., :length]


def istft(spec: np.ndarray, out_len: int | None = None) -> Waveform | np.ndarray:
    """Overlap-add inverse with the sqrt-Hann synthesis window.

    Takes a (L, K) spectrogram and returns a Waveform, or a (..., L, K) stack
    and returns (..., out_len) samples. Interior samples (one window in from
    each edge) are reconstructed exactly; edge samples are repaired by
    dividing out the window-square overlap sum.
    """
    spec = np.asarray(spec)
    if spec.ndim < 2 or spec.shape[-1] != N_BINS:
        raise ValueError(
            f"spectrogram shape {spec.shape} does not have {N_BINS} bins")
    n_frames = spec.shape[-2]
    total = (n_frames - 1) * HOP + WIN_LEN
    if out_len is None:
        out_len = total
    # The analysis drops the final partial frame, so allow up to one window of
    # uncovered (zero-filled) tail; anything longer cannot come from this STFT.
    if out_len > total + WIN_LEN:
        raise ValueError(
            f"cannot reconstruct {out_len} samples from {n_frames} frames "
            f"(these cover {total})")
    frames = np.fft.irfft(spec, n=FFT_SIZE, axis=-1)[..., :WIN_LEN]
    frames *= WINDOW
    out = _overlap_add(frames, HOP, out_len)
    wsum = _overlap_add(np.broadcast_to(WINDOW * WINDOW, (n_frames, WIN_LEN)),
                        HOP, out_len)
    np.divide(out, wsum, out=out, where=wsum > 1e-10)
    return Waveform(out) if spec.ndim == 2 else out


def noise_gain_for_snr(clean: np.ndarray, noise: np.ndarray,
                       snr_db: float | np.ndarray) -> float | np.ndarray:
    """Gain g so that 10*log10(E_clean / E_{g*noise}) equals snr_db.

    Signals may be (..., n) stacks, with `snr_db` broadcasting over their
    leading axes; the gains then come back as an array of that shape. Any
    zero-energy signal raises ValueError.
    """
    e_clean = np.sum(clean * clean, axis=-1)
    e_noise = np.sum(noise * noise, axis=-1)
    if np.any(e_clean <= 0.0):
        raise ValueError("clean signal has zero energy")
    if np.any(e_noise <= 0.0):
        raise ValueError("noise signal has zero energy")
    # Python's scalar pow for each SNR: numpy's vector power can differ from
    # it in the last bit (at 25 dB, for one).
    ratio = np.reshape([10.0 ** (s / 10.0) for s in np.ravel(snr_db).tolist()],
                       np.shape(snr_db))
    gain = np.sqrt(e_clean / (e_noise * ratio))
    return float(gain) if gain.ndim == 0 else gain


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """clean + g*noise with g chosen to hit the requested SNR exactly."""
    if len(clean) != len(noise):
        raise ValueError(
            f"clean ({len(clean)}) and noise ({len(noise)}) lengths differ")
    g = noise_gain_for_snr(clean.samples, noise.samples, snr_db)
    return Waveform(clean.samples + g * noise.samples)


def derived_seed(seed: int, role: str) -> int:
    """Integer seed for a named role, drawn from that role's deterministic
    sub-stream of a master seed."""
    key = (zlib.crc32(role.encode("utf-8")),)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    return int(rng.integers(0, 2 ** 63 - 1))


@dataclass
class Utterance:
    """One clean/noise pair."""

    clean: Waveform
    noise: Waveform


def _envelope(rng: np.random.Generator, n: int, knot_s: float,
              lo: float, hi: float) -> np.ndarray:
    """Piecewise-linear random envelope with knots every knot_s seconds."""
    n_knots = max(2, int(round(n / (knot_s * SAMPLE_RATE))) + 1)
    knots = rng.uniform(lo, hi, n_knots)
    pos = np.linspace(0.0, n - 1, n_knots)
    return np.interp(np.arange(n), pos, knots)


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    k = np.arange(len(spec), dtype=np.float64)
    k[0] = 1.0
    spec /= np.sqrt(k)
    return np.fft.irfft(spec, n=n)


def synth_utterance(rng: np.random.Generator, dur_s: float) -> Utterance:
    """Clean = 2-4 bin-centered sinusoids under random amplitude envelopes;
    noise = white or pink, also gently amplitude-modulated."""
    n = int(round(dur_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    bin_hz = SAMPLE_RATE / FFT_SIZE
    n_sin = int(rng.integers(2, 5))
    bins = rng.choice(np.arange(8, 200), size=n_sin, replace=False)
    freqs = bins * bin_hz
    clean = np.zeros(n)
    for f in freqs:
        amp = rng.uniform(0.4, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        env = _envelope(rng, n, knot_s=0.25, lo=0.15, hi=1.0)
        clean += amp * env * np.sin(2.0 * np.pi * f * t + phase)
    clean *= 0.6 / max(np.max(np.abs(clean)), 1e-12)

    white = rng.uniform() < 0.5
    noise = rng.standard_normal(n) if white else _pink_noise(rng, n)
    noise *= _envelope(rng, n, knot_s=0.5, lo=0.4, hi=1.0)
    noise *= 0.6 / max(np.max(np.abs(noise)), 1e-12)

    return Utterance(Waveform(clean), Waveform(noise))


def synth_corpus(seed: int, n_utts: int, dur_s: float) -> list[Utterance]:
    """Deterministic list of clean/noise pairs for the given seed."""
    if dur_s <= 0:
        raise ValueError(f"duration must be positive, got {dur_s}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return [synth_utterance(rng, dur_s) for _ in range(n_utts)]


def read_wav(path) -> Waveform:
    """Read 16-bit PCM mono 16 kHz WAV; reject anything else."""
    try:
        f = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        raise AudioFormatError(f"{path}: not a readable WAV file "
                               f"({str(exc) or 'it ends inside the header'})") from None
    with f:
        channels = f.getnchannels()
        width = f.getsampwidth()
        rate = f.getframerate()
        if channels != 1 or width != 2 or rate != SAMPLE_RATE:
            raise AudioFormatError(
                f"{path}: expected 16-bit PCM mono {SAMPLE_RATE} Hz, got "
                f"{channels} channel(s), {8 * width}-bit, {rate} Hz")
        raw = f.readframes(f.getnframes())
    if len(raw) % 2:
        raise AudioFormatError(f"{path}: not a readable WAV file (its data ends "
                               f"inside a sample)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return Waveform(samples)


def write_wav(path, w: Waveform) -> None:
    """Write 16-bit PCM mono WAV, peak-normalizing only if it would clip."""
    samples = w.samples
    peak = float(np.max(np.abs(samples))) if len(samples) else 0.0
    if peak > 0.999:
        samples = samples * (0.999 / peak)
    pcm = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2")
    # Opened first, so a path that cannot be written fails before `wave`
    # builds a writer whose finalizer would then report a second error.
    with open(path, "wb") as raw, wave.open(raw, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.tobytes())
