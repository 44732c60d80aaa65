"""Positional-encoding schemes for the attention stack.

Ten kinds are supported. Two are absolute (added to the input embedding),
six produce a per-head relative bias over frame offsets, one rotates
queries/keys, and one is the no-position baseline:

    nopos       no position information
    sinusoidal  fixed sin/cos input embedding
    bertpos     learned absolute input embedding, L' rows
    gauss       additive bias  -(i-j)^2 / (2 sigma^2)
    t5          additive bias from a 32-entry log-binned bucket table
    tisa        additive bias  sum_s a_s exp(-|b_s| (j-i-c_s)^2)
    dabias      multiplicative bias  (1+e^v) / (1+e^{v - w|i-j|})
    kerple      additive bias  -r1 log(1 + r2 |i-j|), r1, r2 > 0
    rope        pairwise rotation of q/k by position-proportional angles
    learnlin    additive bias  beta * |i-j|, one scalar per head

Every relative bias is Toeplitz: entries depend only on i-j. Builders
therefore compute one value per offset (a (2L-1,) vector) and expand it with
`numerics.toeplitz`, a read-only strided view of that vector. This keeps the
L x L matrix consistent under length extension, stores 2L-1 values instead
of L^2, and lets gradients flow back into the scheme parameters.

Builder parameters may carry leading head axes: a scalar `beta` gives an
(L, L) bias, a (H,)-shaped one an (H, L, L) stack, one matrix per head.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .numerics import (
    Tensor,
    absolute,
    add,
    constant,
    div,
    exp,
    log,
    mul,
    neg,
    reduce_sum,
    reshape,
    rotate_pairs,
    sub,
    take,
    toeplitz,
)

__all__ = [
    "PeKind",
    "INJECTION_MODE",
    "ADDITIVE_KINDS",
    "RPE_BIAS_KINDS",
    "TISA_KERNELS",
    "T5_BUCKETS",
    "CAUSAL_NEG",
    "toeplitz_offsets",
    "causal_mask",
    "sinusoidal_embedding",
    "gauss_bias",
    "t5_bucket_index",
    "t5_bias",
    "tisa_bias",
    "da_bias",
    "kerple_bias",
    "learnlin_bias",
    "rope_angles",
    "rope_rotate",
    "param_count",
]

TISA_KERNELS = 5
T5_BUCKETS = 32
# Large negative constant standing in for -inf in masked attention logits.
CAUSAL_NEG = 1e9


class PeKind(str, Enum):
    NOPOS = "nopos"
    SINUSOIDAL = "sinusoidal"
    BERTPOS = "bertpos"
    GAUSS = "gauss"
    T5 = "t5"
    TISA = "tisa"
    DABIAS = "dabias"
    KERPLE = "kerple"
    ROPE = "rope"
    LEARNLIN = "learnlin"


INJECTION_MODE: dict[PeKind, str] = {
    PeKind.NOPOS: "none",
    PeKind.SINUSOIDAL: "input",
    PeKind.BERTPOS: "input",
    PeKind.GAUSS: "additive",
    PeKind.T5: "additive",
    PeKind.TISA: "additive",
    PeKind.KERPLE: "additive",
    PeKind.LEARNLIN: "additive",
    PeKind.DABIAS: "multiplicative",
    PeKind.ROPE: "rotation",
}

ADDITIVE_KINDS = tuple(k for k, m in INJECTION_MODE.items() if m == "additive")
RPE_BIAS_KINDS = ADDITIVE_KINDS + (PeKind.DABIAS,)


def toeplitz_offsets(length: int) -> np.ndarray:
    """Relative positions i-j covered by an L x L grid: -(L-1) .. L-1."""
    return np.arange(-(length - 1), length)


def causal_mask(length: int) -> np.ndarray:
    """Additive mask: -CAUSAL_NEG above the diagonal (j > i), 0 elsewhere."""
    mask = np.zeros((length, length))
    mask[np.triu_indices(length, k=1)] = -CAUSAL_NEG
    return mask


def _per_head(p: Tensor, core_ndim: int = 0) -> Tensor:
    """Give a parameter with leading head axes a unit axis before its last
    `core_ndim` axes, so it broadcasts against the offset axis."""
    if p.data.ndim == core_ndim:
        return p
    cut = p.data.ndim - core_ndim
    return reshape(p, p.shape[:cut] + (1,) + p.shape[cut:])


def sinusoidal_embedding(length: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos embedding: sin(l * 10000^(-d/d_model)) on even dims,
    cos with the preceding even exponent on odd dims."""
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    d = np.arange(d_model, dtype=np.float64)[None, :]
    even_d = d - (d % 2)
    angles = pos * 10000.0 ** (-even_d / d_model)
    out = np.empty((length, d_model))
    out[:, 0::2] = np.sin(angles[:, 0::2])
    out[:, 1::2] = np.cos(angles[:, 1::2])
    return out


def gauss_bias(length: int, sigma: Tensor) -> Tensor:
    """-(i-j)^2 / (2 sigma^2); sigma is a scalar or one per head."""
    if np.any(sigma.data == 0.0):
        raise ValueError("gauss bias requires sigma != 0")
    r2 = constant(toeplitz_offsets(length).astype(np.float64) ** 2)
    sigma = _per_head(sigma)
    values = neg(div(r2, mul(mul(sigma, sigma), 2.0)))
    return toeplitz(values, length)


def t5_bucket_index(rel: np.ndarray | int) -> np.ndarray | int:
    """Bucket slot for a relative position i-j.

    Offsets 0..7 map to slots 0..7; offsets >= 8 are log-binned into slots
    8..15; the negative side mirrors this with a +16 shift.
    """
    rel_arr = np.asarray(rel)
    a = np.abs(rel_arr)
    with np.errstate(divide="ignore"):
        logbin = 8 + np.floor(
            np.log(np.maximum(a, 1) / 8.0) / np.log(128.0 / 8.0) * 8.0)
    far = np.minimum(15, logbin).astype(np.int64)
    near = a.astype(np.int64)
    idx = np.where(a < 8, near, far)
    idx = np.where(rel_arr < 0, idx + 16, idx)
    if np.isscalar(rel):
        return int(idx)
    return idx


def t5_bias(length: int, bucket: Tensor) -> Tensor:
    """Look up the 32-entry bucket table (one row per head)."""
    if bucket.data.ndim < 1 or bucket.shape[-1] != T5_BUCKETS:
        raise ValueError(f"bucket table must have shape (..., {T5_BUCKETS}), "
                         f"got {bucket.shape}")
    slots = t5_bucket_index(toeplitz_offsets(length))
    return toeplitz(take(bucket, (Ellipsis, slots)), length)


def tisa_bias(length: int, a: Tensor, b: Tensor, c: Tensor) -> Tensor:
    """sum_s a_s exp(-|b_s| (j-i-c_s)^2) for one layer; a, b and c hold the
    S kernels of one head, (S,), or of every head, (H, S)."""
    if a.data.ndim < 1 or b.shape != a.shape or c.shape != a.shape:
        raise ValueError(
            f"kernel parameter shapes differ: {a.shape}, {b.shape}, {c.shape}")
    a, b, c = (_per_head(p, 1) for p in (a, b, c))
    # j - i is the negated offset grid; one column per offset-kernel pair.
    ji = constant(-toeplitz_offsets(length).astype(np.float64)[:, None])
    dist = sub(ji, c)
    kernels = exp(neg(mul(absolute(b), mul(dist, dist))))
    values = reduce_sum(mul(kernels, a), axis=-1)
    return toeplitz(values, length)


def da_bias(length: int, w: Tensor, v: Tensor) -> Tensor:
    """(1 + e^v) / (1 + e^{v - w|i-j|}); w and v are scalars or one per head."""
    absr = constant(np.abs(toeplitz_offsets(length)).astype(np.float64))
    w, v = _per_head(w), _per_head(v)
    values = div(add(exp(v), 1.0), add(exp(sub(v, mul(absr, w))), 1.0))
    return toeplitz(values, length)


def kerple_bias(length: int, rho1: Tensor, rho2: Tensor) -> Tensor:
    """-r1 log(1 + r2 |i-j|) with r = e^rho keeping both factors positive;
    rho1 and rho2 are scalars or one per head."""
    absr = constant(np.abs(toeplitz_offsets(length)).astype(np.float64))
    r1 = exp(_per_head(rho1))
    r2 = exp(_per_head(rho2))
    values = neg(mul(r1, log(add(mul(absr, r2), 1.0))))
    return toeplitz(values, length)


def learnlin_bias(length: int, beta: Tensor) -> Tensor:
    """beta * |i-j|; beta is a scalar or one per head, shared across layers."""
    absr = constant(np.abs(toeplitz_offsets(length)).astype(np.float64))
    return toeplitz(mul(absr, _per_head(beta)), length)


def rope_angles(length: int, d_k: int, base: float = 10000.0) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin grids (L, d_k); column pair (2m, 2m+1) shares angle
    l * base^(-2m/d_k)."""
    if d_k % 2 != 0:
        raise ValueError(f"head width must be even for rotation, got {d_k}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    m = np.repeat(np.arange(d_k // 2, dtype=np.float64), 2)[None, :]
    angles = pos * base ** (-2.0 * m / d_k)
    return np.cos(angles), np.sin(angles)


def rope_rotate(q: Tensor, k: Tensor, base: float = 10000.0) -> tuple[Tensor, Tensor]:
    """Rotate query/key rows of (..., L, d_k) tensors by position-proportional
    angles (norm-preserving); leading (batch, head) axes share the angles."""
    if q.shape != k.shape:
        raise ValueError(f"q and k shapes differ: {q.shape} vs {k.shape}")
    cos, sin = rope_angles(q.shape[-2], q.shape[-1], base)
    cos_t, sin_t = constant(cos), constant(sin)
    q_rot = add(mul(q, cos_t), mul(rotate_pairs(q), sin_t))
    k_rot = add(mul(k, cos_t), mul(rotate_pairs(k), sin_t))
    return q_rot, k_rot


def param_count(kind: PeKind, *, heads: int, layers: int = 1,
                kernels: int = TISA_KERNELS, max_len: int = 0,
                d_model: int = 0) -> int:
    """Trainable parameter count contributed by a scheme."""
    kind = PeKind(kind)
    if kind in (PeKind.NOPOS, PeKind.SINUSOIDAL, PeKind.ROPE):
        return 0
    if kind is PeKind.BERTPOS:
        return max_len * d_model
    if kind is PeKind.GAUSS:
        return heads
    if kind is PeKind.T5:
        return T5_BUCKETS * heads
    if kind is PeKind.TISA:
        return 3 * kernels * heads * layers
    if kind is PeKind.DABIAS:
        return 2 * heads
    if kind is PeKind.KERPLE:
        return 2 * heads
    if kind is PeKind.LEARNLIN:
        return heads
    raise ValueError(f"unknown kind {kind!r}")
