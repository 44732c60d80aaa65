"""Training objectives (MS, IRM, PSM, cIRM): one `TARGETS` entry each.

An entry gives the model's prediction width and output nonlinearity, the
loss-target grid and the step that turns a prediction into an enhanced
spectrum. `target_grid` and `apply_target` look the `ModelConfig`'s target up
there; every entry uses this module's constants (`IRM_GAMMA`, `MS_POWER`,
`CIRM_K` and `CIRM_C`). The mask functions are pure and work on complex
(L, K) spectrograms, or stacks with leading axes such as (B, L, K) clips;
shapes must agree cell-for-cell. cIRM predictions and targets are real, laid out as
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
    "IRM_GAMMA",
    "MS_POWER",
    "CIRM_K",
    "CIRM_C",
]

IRM_GAMMA = 0.5
MS_POWER = 0.3
CIRM_K = 10.0
CIRM_C = 0.1

_ZERO_FLOOR = 1e-12


class TargetKind(str, Enum):
    MS = "ms"
    IRM = "irm"
    PSM = "psm"
    CIRM = "cirm"


def _check_shapes(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{what}: shapes {a.shape} and {b.shape} differ")


def irm(clean: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Energy-ratio mask (|S|^2 / (|S|^2 + |V|^2))^IRM_GAMMA, 0 where both are 0."""
    _check_shapes(clean, noise, "irm")
    s2 = np.abs(clean) ** 2
    v2 = np.abs(noise) ** 2
    den = s2 + v2
    ratio = np.divide(s2, den, out=np.zeros_like(s2), where=den > 0)
    return ratio ** IRM_GAMMA


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
    return np.divide(num, x2, out=np.zeros_like(num), where=x2 >= _ZERO_FLOOR)


def compress_cirm(values: np.ndarray) -> np.ndarray:
    """Elementwise bounded compression of real values into (-CIRM_K, CIRM_K)."""
    return _compress_in_place(np.array(values, dtype=np.float64))


def _compress_in_place(t: np.ndarray) -> np.ndarray:
    """`compress_cirm` in the float64 buffer `t`, which it returns."""
    # K*(1 - e^{-C t})/(1 + e^{-C t}) == K*tanh(C t / 2), stable for large |t|.
    t *= 0.5 * CIRM_C
    np.tanh(t, out=t)
    t *= CIRM_K
    return t


def decompress_cirm(values: np.ndarray) -> np.ndarray:
    """Exact inverse of compress_cirm on (-CIRM_K, CIRM_K); out-of-range input
    is clamped to the boundary and counted in a warning."""
    limit = CIRM_K * (1.0 - 1e-12)
    clamped = int(np.count_nonzero(np.abs(values) >= limit))
    if clamped:
        logger.warning("decompress_cirm clamped %d component(s) outside (-%g, %g)",
                       clamped, CIRM_K, CIRM_K)
    return (2.0 / CIRM_C) * np.arctanh(np.clip(values, -limit, limit) / CIRM_K)


def ms_target(clean: np.ndarray) -> np.ndarray:
    """Power-law compressed magnitude |S|^MS_POWER; the loss-space mapping target."""
    return np.abs(clean) ** MS_POWER


def uncompress_ms(mag: np.ndarray) -> np.ndarray:
    return np.maximum(mag, 0.0) ** (1.0 / MS_POWER)


def _cirm_grid(clean, noise, noisy) -> np.ndarray:
    """`compress_cirm` of the mask's real and imaginary parts, computed in
    their concatenated buffer."""
    m = cirm(clean, noisy)
    grid = np.concatenate([m.real, m.imag], axis=-1)
    del m
    return _compress_in_place(grid)


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
