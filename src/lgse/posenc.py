"""Positional-encoding schemes for the attention stack.

Ten kinds are supported. Two are absolute (added to the input embedding),
six produce a per-head relative bias over frame offsets, one rotates
queries/keys, and one is the no-position baseline:

    nopos       no position information
    sinusoidal  fixed sin/cos input embedding
    bertpos     learned absolute input embedding, L' rows, then fixed ones
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

`SCHEMES` holds one `Scheme` record per kind, and every kind-dependent
decision reads it: its report label, how its parameters are drawn (`init`,
which also fixes their checkpoint names and order) and whether they are
stacked per layer, and where position enters the model, through the hooks it
sets: input rows (`rows`), a bias on the attention scores (`bias`) or a q/k
rotation (`rotate`). A scheme's state is its parameters; random draws come
from `pe_rng`. A record calls the public builders by their module-global
names, so wrapping a builder in this module's namespace also wraps it for the
model. The naive oracles for each bias live apart from this table, in
`NAIVE_OFFSET` in tests/helpers.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .numerics import (
    Tensor,
    absolute,
    add,
    concat_cols,
    constant,
    div,
    exp,
    log,
    mul,
    neg,
    reduce_sum,
    reshape,
    rotate_pairs,
    sigmoid,
    sub,
    take,
    toeplitz,
)

__all__ = [
    "PeKind",
    "Scheme",
    "SCHEMES",
    "CapabilityError",
    "TISA_KERNELS",
    "T5_BUCKETS",
    "BERTPOS_MAX_FRAMES",
    "ROPE_BASE",
    "pe_rng",
    "toeplitz_offsets",
    "sinusoidal_embedding",
    "bertpos_rows",
    "gauss_bias",
    "t5_bucket_index",
    "t5_bias",
    "tisa_bias",
    "da_bias",
    "kerple_bias",
    "learnlin_bias",
    "rope_angles",
    "rope_rotate",
]

TISA_KERNELS = 5
T5_BUCKETS = 32
# Frames a bertpos model can embed: its L' trained rows, then fixed ones.
BERTPOS_MAX_FRAMES = 4096
ROPE_BASE = 10000.0  # RoPE's pair m turns by ROPE_BASE^(-2m/d_k) per frame


class CapabilityError(RuntimeError):
    """The configured scheme cannot handle the requested sequence length."""


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


def pe_rng(init_seed: int) -> np.random.Generator:
    """A model's PE stream: `init`'s draws, then bertpos's fixed rows."""
    return np.random.default_rng(np.random.SeedSequence(init_seed, spawn_key=(0x7065,)))


def toeplitz_offsets(length: int) -> np.ndarray:
    """Relative positions i-j covered by an L x L grid: -(L-1) .. L-1."""
    return np.arange(-(length - 1), length)


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


def bertpos_rows(length: int, table: Tensor, init_seed: int) -> Tensor:
    """The first `length` rows of the learned table, continued past its L'
    rows by the never-trained draws after it in the PE stream of `init_seed`;
    more than BERTPOS_MAX_FRAMES raise CapabilityError."""
    trained = table.shape[0]
    if length <= trained:
        return take(table, np.arange(length))
    if length > BERTPOS_MAX_FRAMES:
        raise CapabilityError(f"bertpos supports at most {BERTPOS_MAX_FRAMES} "
                              f"frames, got {length}")
    rng = pe_rng(init_seed)
    rng.normal(0.0, 0.02, size=table.shape)  # the table's init draw, discarded
    # `Generator.normal` fills in C order: a shorter draw is a longer one's prefix.
    fixed = rng.normal(0.0, 0.02, size=(length - trained, table.shape[1]))
    return concat_cols([table, constant(fixed)], axis=0)


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
    """(1 + e^v) / (1 + e^{v - w|i-j|}); w and v are scalars or one per head.

    Computed as (1 + e^v) sigmoid(w|i-j| - v), which stays finite, gradients
    included, when a negative w makes e^{v - w|i-j|} overflow."""
    absr = constant(np.abs(toeplitz_offsets(length)).astype(np.float64))
    w, v = _per_head(w), _per_head(v)
    values = mul(add(exp(v), 1.0), sigmoid(sub(mul(absr, w), v)))
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


def rope_angles(length: int, d_k: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin grids (L, d_k); column pair (2m, 2m+1) shares angle
    l * ROPE_BASE^(-2m/d_k)."""
    if d_k % 2 != 0:
        raise ValueError(f"head width must be even for rotation, got {d_k}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    m = np.repeat(np.arange(d_k // 2, dtype=np.float64), 2)[None, :]
    angles = pos * ROPE_BASE ** (-2.0 * m / d_k)
    return np.cos(angles), np.sin(angles)


def rope_rotate(q: Tensor, k: Tensor) -> tuple[Tensor, Tensor]:
    """Rotate query/key rows of (..., L, d_k) tensors by position-proportional
    angles (norm-preserving); leading (batch, head) axes share the angles."""
    if q.shape != k.shape:
        raise ValueError(f"q and k shapes differ: {q.shape} vs {k.shape}")
    cos, sin = rope_angles(q.shape[-2], q.shape[-1])
    cos_t, sin_t = constant(cos), constant(sin)
    q_rot = add(mul(q, cos_t), mul(rotate_pairs(q), sin_t))
    k_rot = add(mul(k, cos_t), mul(rotate_pairs(k), sin_t))
    return q_rot, k_rot


@dataclass(frozen=True)
class Scheme:
    """One positional-encoding scheme; position enters through the hooks it
    sets, and a scheme that sets none carries no position.

    label      its name in reports
    init       (cfg, rng) -> params: the arrays a ModelConfig-like `cfg`
               implies, named without the "pe." prefix, in checkpoint order;
               random draws come from `rng` only
    bias       (length, params) -> the (H, L, L) bias on the attention scores,
               from the parameter Tensors; if `multiplicative`, it scales the
               ReLU-clipped scores instead of joining them
    rows       (length, cfg, params) -> (L, d_model) rows added to the input
               embedding, from the parameter Tensors and the model's config
    rotate     (q, k) -> q and k rotated by position
    per_layer  parameters carry a leading layer axis; `bias` then receives
               one layer's slice
    """

    label: str
    init: Callable[..., dict]
    bias: Callable[[int, dict], Tensor] | None = None
    multiplicative: bool = False
    rows: Callable[..., Tensor] | None = None
    rotate: Callable[[Tensor, Tensor], tuple[Tensor, Tensor]] | None = None
    per_layer: bool = False


def _no_params(cfg, rng) -> dict:
    return {}


def _bertpos_init(cfg, rng) -> dict:
    return {"embed": rng.normal(0.0, 0.02, size=(cfg.bertpos_max_len, cfg.d_model))}


def _tisa_init(cfg, rng) -> dict:
    shape = (cfg.n_layers, cfg.n_heads, TISA_KERNELS)
    return {"a": rng.normal(0.0, 0.1, size=shape),
            "b": np.full(shape, 0.5),
            "c": np.tile(np.linspace(-8.0, 8.0, TISA_KERNELS), shape[:2] + (1,))}


SCHEMES: dict[PeKind, Scheme] = {
    PeKind.NOPOS: Scheme("No-Pos", _no_params),
    PeKind.SINUSOIDAL: Scheme(
        "Sinusoidal", _no_params,
        rows=lambda n, cfg, t: constant(sinusoidal_embedding(n, cfg.d_model))),
    PeKind.BERTPOS: Scheme(
        "BERT-Pos", _bertpos_init,
        rows=lambda n, cfg, t: bertpos_rows(n, t["embed"], cfg.init_seed)),
    PeKind.GAUSS: Scheme(
        "Gauss-Bias",
        lambda cfg, rng: {"sigma": np.full(cfg.n_heads, 10.0)},
        lambda n, p: gauss_bias(n, p["sigma"])),
    PeKind.T5: Scheme(
        "T5-Bias",
        lambda cfg, rng: {"bucket": np.zeros((cfg.n_heads, T5_BUCKETS))},
        lambda n, p: t5_bias(n, p["bucket"])),
    PeKind.TISA: Scheme(
        "TISA", _tisa_init,
        lambda n, p: tisa_bias(n, p["a"], p["b"], p["c"]), per_layer=True),
    PeKind.DABIAS: Scheme(
        "DA-Bias",
        lambda cfg, rng: {"w": np.full(cfg.n_heads, 0.01), "v": np.zeros(cfg.n_heads)},
        lambda n, p: da_bias(n, p["w"], p["v"]), multiplicative=True),
    PeKind.KERPLE: Scheme(
        "KERPLE",
        lambda cfg, rng: {"rho1": np.zeros(cfg.n_heads), "rho2": np.zeros(cfg.n_heads)},
        lambda n, p: kerple_bias(n, p["rho1"], p["rho2"])),
    PeKind.ROPE: Scheme("RoPE", _no_params, rotate=lambda q, k: rope_rotate(q, k)),
    PeKind.LEARNLIN: Scheme(
        "LearnLin",
        lambda cfg, rng: {"beta": rng.uniform(-0.2, 0.0, size=cfg.n_heads)},
        lambda n, p: learnlin_bias(n, p["beta"])),
}
