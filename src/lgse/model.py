"""Position-aware Transformer predicting time-frequency masks from |X|.

The network is: FC embedding with frame-wise layer norm and ReLU, N identical
layers of multi-head self-attention plus a two-layer feed-forward block (each
wrapped in a residual connection and followed by a frame-wise layer norm),
and a target-specific output head. The positional-encoding scheme's
`posenc.SCHEMES` record decides where position enters: rows added to the
input embedding, a bias on the attention scores, or a rotation of q/k. This
module calls those hooks and holds no scheme-specific code.

A long input without a tape splits its attention and per-frame parts into
blocks that `workers.on_threads` deals out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dsp, posenc, workers
from .numerics import (
    Tensor,
    add,
    constant,
    grad_enabled,
    layer_norm_frames,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    softmax_rows,
    take,
    transpose,
)
from .objectives import TARGETS, TargetKind
from .posenc import PeKind

__all__ = [
    "ModelConfig",
    "EnhancementModel",
    "attention_head",
    "param_shapes",
]


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    n_heads: int = 8
    d_model: int = 256
    d_ff: int = 1024
    k_bins: int = dsp.N_BINS
    pe_kind: PeKind = PeKind.LEARNLIN
    target: TargetKind = TargetKind.IRM
    bertpos_max_len: int = 64
    init_seed: int = 0

    def __post_init__(self):
        for name, kinds in (("pe_kind", PeKind), ("target", TargetKind)):
            try:
                object.__setattr__(self, name, kinds(getattr(self, name)))
            except ValueError:
                raise ValueError(f"{name} must be one of "
                                 f"{', '.join(k.value for k in kinds)}; "
                                 f"got {getattr(self, name)!r}") from None
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "k_bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.init_seed < 0:
            raise ValueError(f"init_seed must be at least 0, got {self.init_seed}")
        if not 1 <= self.bertpos_max_len <= posenc.BERTPOS_MAX_FRAMES:
            raise ValueError(
                f"bertpos_max_len must be between 1 and {posenc.BERTPOS_MAX_FRAMES}, "
                f"got {self.bertpos_max_len}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even, got {self.d_model}")
        if posenc.SCHEMES[self.pe_kind].rotate and self.d_k % 2 != 0:
            raise ValueError(f"{self.pe_kind.value} rotates pairs of head dimensions, "
                             f"so d_model / n_heads must be even, got {self.d_k}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads

    @property
    def out_width(self) -> int:
        return TARGETS[self.target].width * self.k_bins


# Bytes of float64 scores in one block of query rows of the tape-free
# attention path; each worker holds one block at a time. A sweep from 0.5 to
# 16 MiB in all measured flat at the 20 s test length. Rows per block are set
# by the whole call, so each attention problem makes the same BLAS calls on
# any worker count. The forward's per-frame parts are cut into blocks by
# `_FRAME_WORK` and `_FRAME_ROWS`, not by this budget.
_BLOCK_BYTES = 2 * 2**20

# Multiply-adds of a forward's FFN work, frames x d_model x d_ff with every
# clip of a stack counted, from which a tape-free forward runs its per-frame
# parts in blocks of `_FRAME_ROWS` frames across workers
# (`EnhancementModel._by_frames`); below it each part runs once on whole
# arrays. Set by a sweep of `predict`, whole against split, with BLAS pinned
# to one thread on 2 CPUs. The 4 x 256 reference model gained from 187 frames
# (2^25.5 multiply-adds, 59 -> 49 ms) to 1,249 (2^28.3, 601 -> 493 ms), and
# lost 1 ms at 124 frames (2^24.95), a single block. The 2 x 32 desk model
# lost at 1,249 frames (2^22.3, 54 -> 69 ms), its blocks too little work to
# leave the GIL for long, and broke even at 4,999 (2^24.3). 2^25 is two
# blocks of the reference model.
_FRAME_WORK = 2**25
# Frames per block of a split per-frame part; the last block of a call also
# takes the remainder, so none is shorter. OpenBLAS sums a product of at most
# 10^6 multiply-adds on a small-matrix path, whose bits differed from the
# large path's at inner widths of 512 and 1024, and numpy sends a one-row
# product to gemv, whose bits differed at every width. 64 frames keep every
# block product of the reference model on the large path.
_FRAME_ROWS = 64


def attention_head(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None = None,
                   *, multiplicative: bool = False) -> Tensor:
    """Scaled dot-product attention over (..., L, d_k) queries, keys and values.

    Leading axes (clips, heads) are independent attention problems. A bias
    joins the scaled scores before the softmax or, if `multiplicative`,
    scales the ReLU-clipped scores instead. A bias is (L, L) or carries
    leading axes that broadcast against the scores, e.g. one (H, L, L) stack
    for every clip.

    When no operand needs a gradient, the scores are computed one block of
    query rows at a time, each within `_BLOCK_BYTES`, and the blocks are
    dealt out by `workers.on_threads` (see `_attention_blocks`); no tape is
    recorded. That path floors shifted logits at `numerics.EXP_FLOOR`, so a
    frame that a strong decay bias pushes that far down gets a weight of at
    most e^-600 relative to its row's largest rather than zero.
    """
    length, d_k = q.shape[-2:]
    if bias is not None and bias.shape[-2:] != (length, length):
        raise ValueError(
            f"bias shape {bias.shape} does not match sequence length {length}")
    operands = (q, k, v) if bias is None else (q, k, v, bias)
    if not any(t.requires_grad for t in operands):
        return _attention_blocks(q, k, v, bias, multiplicative)
    scores = mul(matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    if bias is not None:
        scores = mul(relu(scores), bias) if multiplicative else add(scores, bias)
    return matmul(softmax_rows(scores), v)


def _attention_blocks(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None,
                      multiplicative: bool) -> Tensor:
    """`attention_head` without a tape. The jobs are blocks of query rows,
    each spanning every leading axis and all L keys, so each row's softmax is
    exact. 1/sqrt(d_k) is folded into q, broadcast to every leading axis,
    once per call; each block's QK^T is a fresh array, the bias is applied
    to it in place, and `softmax_rows(scores, v)` then shifts, floors and
    exponentiates the scores in place and normalizes the small
    (..., rows, d) product after the value product.
    """
    length, d_k = q.shape[-2:]
    operands = (q, k, v) if bias is None else (q, k, v, bias)
    lead = np.broadcast_shapes(*(t.shape[:-2] for t in operands))
    q_scaled = np.broadcast_to(q.data, lead + (length, d_k)) * (1.0 / math.sqrt(d_k))
    k_t = np.ascontiguousarray(np.swapaxes(k.data, -1, -2))
    rows = min(length, max(1, _BLOCK_BYTES // (8 * length * math.prod(lead))))
    blocks = -(-length // rows)
    out = np.empty(lead + (length, v.shape[-1]))

    def job(n: int) -> None:
        # Job 0 is the last block, the only one that may be short, so the
        # first run, which no run outlasts, takes it.
        r0 = (n - 1) % blocks * rows
        block = (Ellipsis, slice(r0, r0 + rows), slice(None))
        s = q_scaled[block] @ k_t
        if bias is not None:
            if multiplicative:
                np.maximum(s, 0.0, out=s)
                s *= bias.data[block]
            else:
                s += bias.data[block]
        out[block] = softmax_rows(s, v.data).data

    workers.on_threads(blocks, job)
    return constant(out)


class _NoDraw:
    """Stands in for a Generator in `_initial_params`: each draw is a
    read-only zero-stride view of its shape, so nothing is drawn."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)

    normal = uniform


def _xavier(rng, fan_in: int, fan_out: int, lead: tuple[int, ...] = ()) -> np.ndarray:
    """(*lead, fan_in, fan_out) Xavier-uniform draws: one (fan_in, fan_out)
    matrix after another, the same values as one call per matrix."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=lead + (fan_in, fan_out))


def _initial_params(cfg: ModelConfig, rng, pe_rng) -> dict[str, np.ndarray]:
    """The parameters of a fresh model, by name in init order: the backbone
    draws from `rng`, the scheme's from `pe_rng`."""
    p = {"embed.weight": _xavier(rng, cfg.k_bins, cfg.d_model),
         "embed.bias": np.zeros(cfg.d_model),
         "embed.ln_gain": np.ones(cfg.d_model),
         "embed.ln_bias": np.zeros(cfg.d_model)}
    for i in range(cfg.n_layers):
        # One draw per layer, in the order head by head, then q, k, v;
        # head h of a projection is its column block h.
        qkv = _xavier(rng, cfg.d_model, cfg.d_k, lead=(cfg.n_heads, 3)).transpose(1, 2, 0, 3)
        for j, name in enumerate("qkv"):
            p[f"layers.{i}.attn.{name}"] = qkv[j].reshape(cfg.d_model, cfg.d_model)
        p[f"layers.{i}.attn.out"] = _xavier(rng, cfg.d_model, cfg.d_model)
        p[f"layers.{i}.ffn.w1"] = _xavier(rng, cfg.d_model, cfg.d_ff)
        p[f"layers.{i}.ffn.b1"] = np.zeros(cfg.d_ff)
        p[f"layers.{i}.ffn.w2"] = _xavier(rng, cfg.d_ff, cfg.d_model)
        p[f"layers.{i}.ffn.b2"] = np.zeros(cfg.d_model)
        for norm in ("ln1", "ln2"):
            p[f"layers.{i}.{norm}.gain"] = np.ones(cfg.d_model)
            p[f"layers.{i}.{norm}.bias"] = np.zeros(cfg.d_model)
    p["head.weight"] = _xavier(rng, cfg.d_model, cfg.out_width)
    p["head.bias"] = np.zeros(cfg.out_width)
    for name, data in posenc.SCHEMES[cfg.pe_kind].init(cfg, pe_rng).items():
        p[f"pe.{name}"] = data
    return p


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter `config` implies, by name in init order,
    found without a random draw."""
    return {name: a.shape for name, a in _initial_params(config, _NoDraw, _NoDraw).items()}


class EnhancementModel:
    """Enhancement network; its state is its config and named parameter tensors.

    Parameters live in an insertion-ordered dict so initialization draws and
    checkpoint layout are reproducible.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None):
        """Draw fresh parameters from `config.init_seed`, or take `params`,
        which the caller has checked against `param_shapes(config)`."""
        self.config = config
        if params is None:
            # The backbone's own stream, so its draws are the same for every PE kind.
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=config.init_seed, spawn_key=(0x6d61,)))
            params = _initial_params(config, rng, posenc.pe_rng(config.init_seed))
        self.params: dict[str, Tensor] = {
            name: Tensor(data, requires_grad=True) for name, data in params.items()}

    # -- bookkeeping ---------------------------------------------------------

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- forward pieces ------------------------------------------------------

    def _pe_tensors(self) -> dict[str, Tensor]:
        """The scheme's parameters, without their "pe." prefix."""
        return {n.removeprefix("pe."): t for n, t in self.params.items() if n.startswith("pe.")}

    def _by_frames(self, part, *inputs: Tensor) -> Tensor:
        """part(*inputs) for a per-frame `part`: its (..., L, d_model) output's
        row r depends only on row r of each (..., L, width) input.

        With a tape, or when the forward's FFN work (frames x d_model x d_ff)
        is below `_FRAME_WORK`, `part` runs once on the whole arrays. Otherwise
        the frames of every clip, one row each, are cut into blocks of
        `_FRAME_ROWS`, the last block taking the remainder, for
        `workers.on_threads`. Each writes its rows of one output allocated
        here, so no (frames, d_ff) FFN array is made. A block makes the whole
        arrays' row-wise ufuncs and, at the widths of the reference model,
        their BLAS sums (see `_FRAME_ROWS`), so the output is the whole-array
        bits for every W. The output head stays whole: its 257-wide products
        gave other bits in blocks of 64 to 512 rows.
        """
        cfg = self.config
        lead = inputs[0].shape[:-1]
        frames = math.prod(lead)
        if grad_enabled() or frames * cfg.d_model * cfg.d_ff < _FRAME_WORK:
            return part(*inputs)
        rows = [t.data.reshape(frames, t.shape[-1]) for t in inputs]
        out = np.empty((frames, cfg.d_model))
        blocks = max(1, frames // _FRAME_ROWS)
        edges = [b * _FRAME_ROWS for b in range(blocks)] + [frames]

        def job(b: int) -> None:
            block = slice(edges[b], edges[b + 1])
            out[block] = part(*(constant(a[block]) for a in rows)).data

        workers.on_threads(blocks, job)
        return constant(out.reshape(lead + (cfg.d_model,)))

    def embed(self, x_mag: np.ndarray) -> Tensor:
        """FC -> frame-wise layer norm -> ReLU, plus the scheme's position
        rows if it has any. Accepts (L, K) or a (B, L, K) stack."""
        cfg = self.config
        x_mag = np.asarray(x_mag, dtype=np.float64)
        if x_mag.ndim not in (2, 3) or x_mag.shape[-1] != cfg.k_bins:
            raise ValueError(
                f"expected input of shape (L, {cfg.k_bins}) or "
                f"(B, L, {cfg.k_bins}), got {x_mag.shape}")
        p = self.params

        def frames(x: Tensor) -> Tensor:
            z = add(matmul(x, p["embed.weight"]), p["embed.bias"])
            return relu(layer_norm_frames(z, p["embed.ln_gain"], p["embed.ln_bias"]))

        z = self._by_frames(frames, constant(x_mag))
        rows = posenc.SCHEMES[cfg.pe_kind].rows
        if rows is not None:
            z = add(z, rows(x_mag.shape[-2], cfg, self._pe_tensors()))
        return z

    def _biases_for(self, length: int) -> list[Tensor | None]:
        """One (H, L, L) bias per layer, or None per layer without one.
        Layer-shared schemes build theirs once; per-layer schemes build one
        from each layer's slice of their parameters."""
        n = self.config.n_layers
        scheme = posenc.SCHEMES[self.config.pe_kind]
        if scheme.bias is None:
            return [None] * n
        pe = self._pe_tensors()
        if scheme.per_layer:
            return [scheme.bias(length, {name: take(t, i) for name, t in pe.items()})
                    for i in range(n)]
        return [scheme.bias(length, pe)] * n

    def _project(self, x: Tensor, name: str, layer: int) -> Tensor:
        """(..., L, d_model) frames times the layer's (d_model, d_model)
        attention weight `name`."""
        weight = self.params[f"layers.{layer}.attn.{name}"]
        return self._by_frames(lambda rows: matmul(rows, weight), x)

    def _split_heads(self, x: Tensor, name: str, layer: int) -> Tensor:
        """Project (..., L, d_model) frames with the weight of `name`, whose
        column block h is head h, giving (..., H, L, d_k)."""
        cfg = self.config
        y = self._project(x, name, layer)
        y = reshape(y, y.shape[:-1] + (cfg.n_heads, cfg.d_k))
        return transpose(y, -3, -2)

    def mhsa(self, x: Tensor, layer: int, bias: Tensor | None) -> Tensor:
        """Self-attention of every head at once over (..., L, d_model) frames;
        `bias` is the layer's (H, L, L) position bias or None."""
        scheme = posenc.SCHEMES[self.config.pe_kind]
        q = self._split_heads(x, "q", layer)
        k = self._split_heads(x, "k", layer)
        v = self._split_heads(x, "v", layer)
        if scheme.rotate is not None:
            q, k = scheme.rotate(q, k)
        heads = attention_head(q, k, v, bias, multiplicative=scheme.multiplicative)
        return self._project(reshape(transpose(heads, -3, -2), x.shape), "out", layer)

    def ffn(self, y: Tensor, layer: int) -> Tensor:
        p = self.params
        hidden = relu(add(matmul(y, p[f"layers.{layer}.ffn.w1"]),
                          p[f"layers.{layer}.ffn.b1"]))
        return add(matmul(hidden, p[f"layers.{layer}.ffn.w2"]),
                   p[f"layers.{layer}.ffn.b2"])

    def _layer_tail(self, layer: int, z: Tensor, attended: Tensor) -> Tensor:
        """A layer after its attention: residual add and LN1, then the FFN,
        residual add and LN2."""
        p = self.params
        y = layer_norm_frames(add(z, attended), p[f"layers.{layer}.ln1.gain"],
                              p[f"layers.{layer}.ln1.bias"])
        return layer_norm_frames(add(y, self.ffn(y, layer)), p[f"layers.{layer}.ln2.gain"],
                                 p[f"layers.{layer}.ln2.bias"])

    def forward(self, x_mag: np.ndarray) -> Tensor:
        """Predict the mask/magnitude grid for one utterance's (L, K) |X|, or
        for a (B, L, K) stack of equal-length clips in one pass."""
        cfg = self.config
        z = self.embed(x_mag)
        biases = self._biases_for(z.shape[-2])
        p = self.params
        for i in range(cfg.n_layers):
            z = self._by_frames(partial(self._layer_tail, i), z, self.mhsa(z, i, biases[i]))
        out = add(matmul(z, p["head.weight"]), p["head.bias"])
        head = TARGETS[cfg.target].head
        return out if head is None else head(out)

    def predict(self, x_mag: np.ndarray) -> np.ndarray:
        """Forward pass without a tape, returning a plain ndarray."""
        with no_grad():
            return self.forward(x_mag).data
