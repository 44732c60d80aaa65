"""Training objectives (MS, IRM, PSM, cIRM): one `TARGETS` entry each.

An entry gives the model's prediction width and output nonlinearity, the
loss-target grid and the step that turns a prediction into an enhanced
spectrum. `target_grid` and `apply_target` look the `ModelConfig`'s target up
there; every entry uses this module's constants (IRM gamma, MS power, cIRM K
and C). The mask functions are pure and work on complex (L, K) spectrograms,
or stacks with leading axes such as (B, L, K) clips; shapes must agree
cell-for-cell. cIRM predictions and targets are real, laid out as
(..., L, 2K): real parts, then imaginary parts.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import Tensor, relu, sigmoid

logger = logging.getLogger(__name__)

__all__ = [
    "TargetKind",
    "Target",
    "TARGETS",
    "irm",
    "psm",
    "cirm",
    "compress_cirm",
    "decompress_cirm",
    "ms_target",
    "uncompress_ms",
    "apply_target",
    "target_grid",
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


def compress_cirm(values: np.ndarray, k: float = DEFAULT_CIRM_K,
                  c: float = DEFAULT_CIRM_C) -> np.ndarray:
    """Elementwise bounded compression of real values into (-k, k)."""
    if k <= 0 or c <= 0:
        raise ValueError(f"compression constants must be positive, got k={k} c={c}")
    # k*(1 - e^{-c t})/(1 + e^{-c t}) == k*tanh(c t / 2), stable for large |t|.
    return k * np.tanh(0.5 * c * values)


def decompress_cirm(values: np.ndarray, k: float = DEFAULT_CIRM_K,
                    c: float = DEFAULT_CIRM_C) -> np.ndarray:
    """Exact inverse of compress_cirm on (-k, k); out-of-range input is clamped
    to the boundary and counted in a warning."""
    if k <= 0 or c <= 0:
        raise ValueError(f"compression constants must be positive, got k={k} c={c}")
    limit = k * (1.0 - 1e-12)
    clamped = int(np.count_nonzero(np.abs(values) >= limit))
    if clamped:
        logger.warning("decompress_cirm clamped %d component(s) outside (-%g, %g)",
                       clamped, k, k)
    return (2.0 / c) * np.arctanh(np.clip(values, -limit, limit) / k)


def ms_target(clean: np.ndarray, power: float = DEFAULT_MS_POWER) -> np.ndarray:
    """Power-law compressed magnitude |S|^power; the loss-space mapping target."""
    if not 0.0 < power <= 1.0:
        raise ValueError(f"power must be in (0, 1], got {power}")
    return np.abs(clean) ** power


def uncompress_ms(mag: np.ndarray, power: float = DEFAULT_MS_POWER) -> np.ndarray:
    return np.maximum(mag, 0.0) ** (1.0 / power)


def _cirm_grid(clean, noise, noisy) -> np.ndarray:
    m = cirm(clean, noisy)
    return compress_cirm(np.concatenate([m.real, m.imag], axis=-1))


def _cirm_apply(noisy, prediction) -> np.ndarray:
    d = decompress_cirm(prediction)
    k = noisy.shape[-1]
    return (d[..., :k] + 1j * d[..., k:]) * noisy


def _ms_apply(noisy, prediction) -> np.ndarray:
    absx = np.abs(noisy)
    phase = np.divide(noisy, absx, out=np.ones_like(noisy), where=absx > 0)
    return uncompress_ms(prediction) * phase


@dataclass(frozen=True)
class Target:
    """One training objective.

    width  prediction channels per frequency bin
    head   the model's output nonlinearity, or None for a linear output
    grid   (clean, noise, noisy) -> the real loss target
    apply  (noisy, prediction) -> the enhanced complex spectrum
    """

    width: int
    head: Callable[[Tensor], Tensor] | None
    grid: Callable[..., np.ndarray]
    apply: Callable[..., np.ndarray]


# Heads and grids name module globals at call time, so a wrapper placed on
# `sigmoid`, `irm`, ... in this module sees every call.
TARGETS: dict[TargetKind, Target] = {
    TargetKind.MS: Target(
        width=1, head=lambda z: relu(z),
        grid=lambda clean, noise, noisy: ms_target(clean),
        apply=_ms_apply),
    TargetKind.IRM: Target(
        width=1, head=lambda z: sigmoid(z),
        grid=lambda clean, noise, noisy: irm(clean, noise),
        apply=lambda noisy, prediction: noisy * prediction),
    TargetKind.PSM: Target(
        width=1, head=lambda z: sigmoid(z),
        grid=lambda clean, noise, noisy: psm(clean, noisy),
        apply=lambda noisy, prediction: noisy * prediction),
    TargetKind.CIRM: Target(width=2, head=None, grid=_cirm_grid, apply=_cirm_apply),
}


def target_grid(cfg, clean: np.ndarray, noise: np.ndarray,
                noisy: np.ndarray) -> np.ndarray:
    """Real-valued loss target for `cfg.target`, shaped like the model's
    prediction: (..., L, K), or (..., L, 2K) for cIRM."""
    return TARGETS[cfg.target].grid(clean, noise, noisy)


def apply_target(cfg, noisy: np.ndarray, prediction: np.ndarray) -> np.ndarray:
    """Turn a model prediction into an enhanced complex spectrogram.

    IRM/PSM multiply the noisy spectrum (noisy phase kept); MS uncompresses the
    predicted magnitude and reattaches the noisy phase; cIRM decompresses the
    (..., L, 2K) prediction into a complex mask and multiplies the complex
    spectrum. Spectra may carry leading axes, e.g. a (B, L, K) stack of clips.
    """
    target = TARGETS[cfg.target]
    want = noisy.shape[:-1] + (target.width * noisy.shape[-1],)
    if prediction.shape != want:
        raise ValueError(
            f"{cfg.target.value} prediction shape {prediction.shape} does not "
            f"match spectrogram {noisy.shape}; expected {want}")
    return target.apply(noisy, prediction)
