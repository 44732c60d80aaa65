"""Training-target grids (MS, IRM, PSM, cIRM) and enhancement-time application.

All functions operate on complex (L, K) spectrograms as plain ndarrays and
are pure; shapes must agree cell-for-cell. `target_grid` and `apply_target`
also take stacks with leading axes, e.g. a (B, L, K) stack of clips.
"""

from __future__ import annotations

import logging
from enum import Enum

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "TargetKind",
    "irm",
    "psm",
    "cirm",
    "compress_cirm",
    "decompress_cirm",
    "ms_target",
    "uncompress_ms",
    "apply_target",
    "target_grid",
    "prediction_width",
    "DEFAULT_IRM_GAMMA",
    "DEFAULT_MS_POWER",
    "DEFAULT_CIRM_K",
    "DEFAULT_CIRM_C",
]

DEFAULT_IRM_GAMMA = 0.5
DEFAULT_MS_POWER = 0.3
DEFAULT_CIRM_K = 10.0
DEFAULT_CIRM_C = 0.1

_ZERO_FLOOR = 1e-12


class TargetKind(str, Enum):
    MS = "ms"
    IRM = "irm"
    PSM = "psm"
    CIRM = "cirm"


def _check_shapes(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{what}: shapes {a.shape} and {b.shape} differ")


def irm(clean: np.ndarray, noise: np.ndarray,
        gamma: float = DEFAULT_IRM_GAMMA) -> np.ndarray:
    """Energy-ratio mask (|S|^2 / (|S|^2 + |V|^2))^gamma, 0 where both are 0."""
    _check_shapes(clean, noise, "irm")
    s2 = np.abs(clean) ** 2
    v2 = np.abs(noise) ** 2
    den = s2 + v2
    ratio = np.divide(s2, den, out=np.zeros_like(s2), where=den > 0)
    return ratio ** gamma


def psm(clean: np.ndarray, noisy: np.ndarray) -> np.ndarray:
    """Magnitude ratio times the phase-difference cosine, truncated to [0, 1].

    (|S|/|X|) * cos(theta_S - theta_X) == Re(S * conj(X)) / |X|^2.
    """
    _check_shapes(clean, noisy, "psm")
    x2 = np.abs(noisy) ** 2
    raw = np.divide((clean * np.conj(noisy)).real, x2,
                    out=np.zeros_like(x2), where=x2 > _ZERO_FLOOR)
    return np.clip(raw, 0.0, 1.0)


def cirm(clean: np.ndarray, noisy: np.ndarray) -> np.ndarray:
    """Complex-domain mask S * conj(X) / |X|^2; 0+0j where |X|^2 < 1e-12."""
    _check_shapes(clean, noisy, "cirm")
    x2 = (noisy.real ** 2 + noisy.imag ** 2)
    num = clean * np.conj(noisy)
    out = np.zeros_like(num)
    ok = x2 >= _ZERO_FLOOR
    out[ok] = num[ok] / x2[ok]
    return out


def _compress_real(t: np.ndarray, k: float, c: float) -> np.ndarray:
    # k*(1 - e^{-c t})/(1 + e^{-c t}) == k*tanh(c t / 2), stable for large |t|.
    return k * np.tanh(0.5 * c * t)


def compress_cirm(values: np.ndarray, k: float = DEFAULT_CIRM_K,
                  c: float = DEFAULT_CIRM_C) -> np.ndarray:
    """Componentwise bounded compression into (-k, k)."""
    if k <= 0 or c <= 0:
        raise ValueError(f"compression constants must be positive, got k={k} c={c}")
    if np.iscomplexobj(values):
        return (_compress_real(values.real, k, c)
                + 1j * _compress_real(values.imag, k, c))
    return _compress_real(values, k, c)


def _decompress_real(y: np.ndarray, k: float, c: float) -> tuple[np.ndarray, int]:
    limit = k * (1.0 - 1e-12)
    clamped = int(np.count_nonzero(np.abs(y) >= limit))
    y = np.clip(y, -limit, limit)
    return (2.0 / c) * np.arctanh(y / k), clamped


def decompress_cirm(values: np.ndarray, k: float = DEFAULT_CIRM_K,
                    c: float = DEFAULT_CIRM_C) -> np.ndarray:
    """Exact inverse of compress_cirm on (-k, k); out-of-range input is clamped
    to the boundary and counted in a warning."""
    if k <= 0 or c <= 0:
        raise ValueError(f"compression constants must be positive, got k={k} c={c}")
    if np.iscomplexobj(values):
        re, n_re = _decompress_real(values.real, k, c)
        im, n_im = _decompress_real(values.imag, k, c)
        out, clamped = re + 1j * im, n_re + n_im
    else:
        out, clamped = _decompress_real(values, k, c)
    if clamped:
        logger.warning("decompress_cirm clamped %d component(s) outside (-%g, %g)",
                       clamped, k, k)
    return out


def ms_target(clean: np.ndarray, power: float = DEFAULT_MS_POWER) -> np.ndarray:
    """Power-law compressed magnitude |S|^power; the loss-space mapping target."""
    if not 0.0 < power <= 1.0:
        raise ValueError(f"power must be in (0, 1], got {power}")
    return np.abs(clean) ** power


def uncompress_ms(mag: np.ndarray, power: float = DEFAULT_MS_POWER) -> np.ndarray:
    return np.maximum(mag, 0.0) ** (1.0 / power)


def prediction_width(kind: TargetKind, k_bins: int) -> int:
    """Output channels the model must produce per frame for this target."""
    return 2 * k_bins if kind is TargetKind.CIRM else k_bins


def target_grid(kind: TargetKind, clean: np.ndarray, noise: np.ndarray,
                noisy: np.ndarray, *, gamma: float = DEFAULT_IRM_GAMMA,
                ms_power: float = DEFAULT_MS_POWER,
                cirm_k: float = DEFAULT_CIRM_K,
                cirm_c: float = DEFAULT_CIRM_C) -> np.ndarray:
    """Real-valued loss target matching the model head for `kind`.

    cIRM targets are compressed and laid out as (..., L, 2K): real then
    imaginary.
    """
    if kind is TargetKind.MS:
        return ms_target(clean, ms_power)
    if kind is TargetKind.IRM:
        return irm(clean, noise, gamma)
    if kind is TargetKind.PSM:
        return psm(clean, noisy)
    if kind is TargetKind.CIRM:
        m = compress_cirm(cirm(clean, noisy), cirm_k, cirm_c)
        return np.concatenate([m.real, m.imag], axis=-1)
    raise ValueError(f"unknown target kind {kind!r}")


def apply_target(noisy: np.ndarray, prediction: np.ndarray, kind: TargetKind, *,
                 ms_power: float = DEFAULT_MS_POWER,
                 cirm_k: float = DEFAULT_CIRM_K,
                 cirm_c: float = DEFAULT_CIRM_C) -> np.ndarray:
    """Turn a model prediction into an enhanced complex spectrogram.

    IRM/PSM multiply the noisy spectrum (noisy phase kept); MS uncompresses the
    predicted magnitude and reattaches the noisy phase; cIRM decompresses the
    complex mask and multiplies the complex spectrum. Spectra may carry
    leading axes, e.g. a (B, L, K) stack of clips.
    """
    k = noisy.shape[-1]
    if kind is TargetKind.CIRM:
        if prediction.shape == noisy.shape[:-1] + (2 * k,):
            mask = prediction[..., :k] + 1j * prediction[..., k:]
        elif prediction.shape == noisy.shape and np.iscomplexobj(prediction):
            mask = prediction
        else:
            raise ValueError(
                f"cirm prediction shape {prediction.shape} does not match "
                f"spectrogram {noisy.shape}")
        return decompress_cirm(mask, cirm_k, cirm_c) * noisy
    _check_shapes(prediction, noisy, "apply_target")
    if kind in (TargetKind.IRM, TargetKind.PSM):
        return noisy * prediction
    if kind is TargetKind.MS:
        mag = uncompress_ms(prediction, ms_power)
        absx = np.abs(noisy)
        phase = np.divide(noisy, absx, out=np.ones_like(noisy), where=absx > 0)
        return mag * phase
    raise ValueError(f"unknown target kind {kind!r}")
