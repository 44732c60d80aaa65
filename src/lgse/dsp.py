"""Waveform <-> time-frequency conversion, SNR mixing, synthetic corpus, WAV I/O.

All audio is mono float64 at 16 kHz. Analysis uses a square-root Hann window
of 32 ms with a 16 ms hop and a 512-point FFT, so sqrt-Hann analysis times
sqrt-Hann synthesis satisfies constant overlap-add exactly on the interior.
"""

from __future__ import annotations

import functools
import wave
import zlib
from dataclasses import dataclass, field

import numpy as np

SAMPLE_RATE = 16000

__all__ = [
    "SAMPLE_RATE",
    "StftConfig",
    "DEFAULT_STFT",
    "Waveform",
    "Utterance",
    "AudioFormatError",
    "sqrt_hann",
    "frame_count",
    "require_one_frame",
    "frame_signal",
    "stft",
    "istft",
    "mix_at_snr",
    "noise_gain_for_snr",
    "synth_corpus",
    "sub_rng",
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


@functools.lru_cache(maxsize=8)
def _shared_window(n: int) -> np.ndarray:
    w = sqrt_hann(n)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class StftConfig:
    win_ms: int = 32
    hop_ms: int = 16
    fft_size: int = 512
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        if self.win_len > self.fft_size:
            raise ValueError(
                f"window ({self.win_len} samples) exceeds fft_size {self.fft_size}")

    @property
    def win_len(self) -> int:
        return self.win_ms * self.sample_rate // 1000

    @property
    def hop(self) -> int:
        return self.hop_ms * self.sample_rate // 1000

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def window(self) -> np.ndarray:
        """The analysis/synthesis window, computed once per length (read-only)."""
        return _shared_window(self.win_len)


DEFAULT_STFT = StftConfig()


@dataclass
class Waveform:
    """Mono 16 kHz sample sequence. Mixtures may exceed [-1, 1] in float;
    values are only peak-normalized when written to disk."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate != SAMPLE_RATE:
            raise AudioFormatError(
                f"sample rate must be {SAMPLE_RATE} Hz, got {self.sample_rate}")
        if not np.isfinite(self.samples).all():
            raise ValueError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


def frame_count(n_samples: int, cfg: StftConfig = DEFAULT_STFT) -> int:
    """Number of full analysis frames; the final partial frame is dropped."""
    if n_samples < cfg.win_len:
        raise ValueError(
            f"need at least {cfg.win_len} samples for one frame, got {n_samples}")
    return 1 + (n_samples - cfg.win_len) // cfg.hop


def require_one_frame(name: str, dur_s: float, cfg: StftConfig = DEFAULT_STFT) -> None:
    """Raise a ValueError naming setting `name` when `dur_s` seconds hold
    fewer samples than one analysis window, the least any STFT can frame."""
    if int(round(dur_s * SAMPLE_RATE)) < cfg.win_len:
        raise ValueError(f"{name} must be at least one analysis window "
                         f"({cfg.win_len} samples, {cfg.win_len / SAMPLE_RATE:g} s), "
                         f"got {dur_s:g}")


def frame_signal(samples: np.ndarray, cfg: StftConfig = DEFAULT_STFT) -> np.ndarray:
    """Window (..., n) signals into (..., L, win_len) frames; frame l starts at
    l*hop."""
    samples = np.asarray(samples, dtype=np.float64)
    frame_count(samples.shape[-1], cfg)  # rejects a signal shorter than one window
    frames = np.lib.stride_tricks.sliding_window_view(samples, cfg.win_len, axis=-1)
    return frames[..., ::cfg.hop, :] * cfg.window()


def stft(w: Waveform | np.ndarray, cfg: StftConfig = DEFAULT_STFT) -> np.ndarray:
    """Complex (..., L, fft_size//2 + 1) spectrogram of a waveform or of a
    (..., n) stack of equal-length signals."""
    frames = frame_signal(w.samples if isinstance(w, Waveform) else w, cfg)
    return np.fft.rfft(frames, n=cfg.fft_size, axis=-1)


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


def istft(spec: np.ndarray, cfg: StftConfig = DEFAULT_STFT,
          out_len: int | None = None) -> Waveform | np.ndarray:
    """Overlap-add inverse with the sqrt-Hann synthesis window.

    Takes a (L, K) spectrogram and returns a Waveform, or a (..., L, K) stack
    and returns (..., out_len) samples. Interior samples (one window in from
    each edge) are reconstructed exactly; edge samples are repaired by
    dividing out the window-square overlap sum.
    """
    spec = np.asarray(spec)
    if spec.ndim < 2 or spec.shape[-1] != cfg.n_bins:
        raise ValueError(
            f"spectrogram shape {spec.shape} does not match config with "
            f"{cfg.n_bins} bins")
    n_frames = spec.shape[-2]
    window = cfg.window()
    total = (n_frames - 1) * cfg.hop + cfg.win_len
    if out_len is None:
        out_len = total
    # The analysis drops the final partial frame, so allow up to one window of
    # uncovered (zero-filled) tail; anything longer means a config mismatch.
    if out_len > total + cfg.win_len:
        raise ValueError(
            f"cannot reconstruct {out_len} samples from {n_frames} frames "
            f"(these cover {total})")
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=-1)[..., :cfg.win_len]
    out = _overlap_add(frames * window, cfg.hop, out_len)
    wsum = _overlap_add(np.broadcast_to(window * window, (n_frames, cfg.win_len)),
                        cfg.hop, out_len)
    np.divide(out, wsum, out=out, where=wsum > 1e-10)
    return Waveform(out) if spec.ndim == 2 else out


def noise_gain_for_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> float:
    """Gain g so that 10*log10(E_clean / E_{g*noise}) equals snr_db."""
    e_clean = float(np.sum(clean * clean))
    e_noise = float(np.sum(noise * noise))
    if e_clean <= 0.0:
        raise ValueError("clean signal has zero energy")
    if e_noise <= 0.0:
        raise ValueError("noise signal has zero energy")
    return float(np.sqrt(e_clean / (e_noise * 10.0 ** (snr_db / 10.0))))


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """clean + g*noise with g chosen to hit the requested SNR exactly."""
    if len(clean) != len(noise):
        raise ValueError(
            f"clean ({len(clean)}) and noise ({len(noise)}) lengths differ")
    g = noise_gain_for_snr(clean.samples, noise.samples, snr_db)
    return Waveform(clean.samples + g * noise.samples)


def sub_rng(seed: int, *roles: str) -> np.random.Generator:
    """Named deterministic sub-stream of a master seed."""
    keys = tuple(zlib.crc32(r.encode("utf-8")) for r in roles)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=keys))


def derived_seed(seed: int, role: str) -> int:
    """Integer seed for a named role, drawn from that role's sub-stream."""
    return int(sub_rng(seed, role).integers(0, 2 ** 63 - 1))


@dataclass
class Utterance:
    """One synthetic clean/noise pair plus the metadata used to build it."""

    clean: Waveform
    noise: Waveform
    clean_freqs_hz: tuple[float, ...] = field(default_factory=tuple)
    noise_kind: str = ""


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


def synth_utterance(rng: np.random.Generator, dur_s: float,
                    cfg: StftConfig = DEFAULT_STFT) -> Utterance:
    """Clean = 2-4 bin-centered sinusoids under random amplitude envelopes;
    noise = white or pink, also gently amplitude-modulated."""
    n = int(round(dur_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    bin_hz = SAMPLE_RATE / cfg.fft_size
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

    noise_kind = "white" if rng.uniform() < 0.5 else "pink"
    noise = rng.standard_normal(n) if noise_kind == "white" else _pink_noise(rng, n)
    noise *= _envelope(rng, n, knot_s=0.5, lo=0.4, hi=1.0)
    noise *= 0.6 / max(np.max(np.abs(noise)), 1e-12)

    return Utterance(Waveform(clean), Waveform(noise),
                     tuple(float(f) for f in sorted(freqs)), noise_kind)


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
                               f"({exc or 'it ends inside the header'})") from None
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
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(pcm.tobytes())
