"""Position-aware Transformer predicting time-frequency masks from |X|.

The network is: FC embedding with frame-wise layer norm and ReLU, N identical
layers of multi-head self-attention plus a two-layer feed-forward block (each
wrapped in a residual connection), and a target-specific output head. The
positional-encoding scheme decides where position enters: added to the input
embedding, injected into the attention logits, or rotated into q/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import objectives, posenc
from .numerics import (
    Tensor,
    add,
    concat_cols,
    constant,
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
    "CapabilityError",
    "attention_head",
]


class CapabilityError(RuntimeError):
    """The configured scheme cannot handle the requested sequence length."""


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    n_heads: int = 8
    d_model: int = 256
    d_ff: int = 1024
    k_bins: int = 257
    pe_kind: PeKind = PeKind.LEARNLIN
    target: TargetKind = TargetKind.IRM
    causal: bool = False
    post_ln: bool = True
    ln_eps: float = 1e-5
    tisa_kernels: int = posenc.TISA_KERNELS
    bertpos_max_len: int = 64
    bertpos_hard_cap: int = 4096
    irm_gamma: float = objectives.DEFAULT_IRM_GAMMA
    ms_power: float = objectives.DEFAULT_MS_POWER
    cirm_k: float = objectives.DEFAULT_CIRM_K
    cirm_c: float = objectives.DEFAULT_CIRM_C
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "pe_kind", PeKind(self.pe_kind))
        object.__setattr__(self, "target", TargetKind(self.target))
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "k_bins",
                     "tisa_kernels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.ln_eps > 0:
            raise ValueError(f"ln_eps must be positive, got {self.ln_eps}")
        if not 1 <= self.bertpos_max_len <= self.bertpos_hard_cap:
            raise ValueError(
                f"bertpos_max_len must be between 1 and bertpos_hard_cap "
                f"({self.bertpos_hard_cap}), got {self.bertpos_max_len}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even, got {self.d_model}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads

    @property
    def out_width(self) -> int:
        return TARGETS[self.target].width * self.k_bins

    def with_pe(self, kind) -> "ModelConfig":
        return replace(self, pe_kind=PeKind(kind))


# Bytes one block of float64 scores may take on the tape-free attention path;
# a sweep from 0.5 to 16 MiB measured flat at the 20 s test length.
_BLOCK_BYTES = 2 * 2**20


def attention_head(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None = None,
                   *, mode: str = "additive", causal: bool = False) -> Tensor:
    """Scaled dot-product attention over (..., L, d_k) queries, keys and values.

    Leading axes (clips, heads) are independent attention problems. Additive
    biases join the scaled scores before the softmax; the multiplicative bias
    scales the ReLU-clipped scores instead. A bias is (L, L) or carries
    leading axes that broadcast against the scores, e.g. one (H, L, L) stack
    for every clip. Causal masking pushes logits above the diagonal to -1e9
    after bias injection. On the tape path masked frames therefore receive
    exactly zero weight after renormalization.

    When no operand needs a gradient, the scores are computed one block of
    query rows at a time (see `_attention_blocks`) and no tape is recorded.
    That path floors shifted logits at `numerics.EXP_FLOOR`, so a masked
    frame, or one a strong decay bias pushes that far down, gets a weight of
    at most e^-600 relative to its row's largest rather than zero.
    """
    length, d_k = q.shape[-2:]
    if bias is not None and bias.shape[-2:] != (length, length):
        raise ValueError(
            f"bias shape {bias.shape} does not match sequence length {length}")
    if bias is not None and mode not in ("additive", "multiplicative"):
        raise ValueError(f"unknown bias mode {mode!r}")
    operands = (q, k, v) if bias is None else (q, k, v, bias)
    if not any(t.requires_grad for t in operands):
        return _attention_blocks(q, k, v, bias, mode, causal)
    scores = mul(matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    if bias is not None:
        if mode == "multiplicative":
            scores = mul(relu(scores), bias)
        else:
            scores = add(scores, bias)
    if causal:
        scores = add(scores, constant(posenc.causal_mask(length)))
    return matmul(softmax_rows(scores), v)


def _attention_blocks(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None,
                      mode: str, causal: bool) -> Tensor:
    """`attention_head` without a tape, one block of query rows at a time.

    A block's scores span all L keys, so each row's softmax is exact and no
    online renormalization is needed. Only one (..., rows, L) block of scores
    is alive at once, sized to `_BLOCK_BYTES`, instead of the (..., L, L)
    stack. 1/sqrt(d_k) is folded into q once per call; the bias and mask are
    applied to each fresh block in place, and `softmax_rows(block, v)` then
    shifts, floors and exponentiates the block in its own buffer and
    normalizes the small (..., rows, d) product after the value product.
    """
    length, d_k = q.shape[-2:]
    scored = (q, k) if bias is None else (q, k, bias)
    lead = np.broadcast_shapes(*(t.shape[:-2] for t in scored))
    if k.shape[:-2] != lead:
        # Scores must carry every leading axis to take the bias in place.
        k = constant(np.broadcast_to(k.data, lead + k.shape[-2:]))
    k_t = transpose(k)
    rows = max(1, _BLOCK_BYTES // (8 * length * math.prod(lead)))
    q_scaled = q.data * (1.0 / math.sqrt(d_k))
    mask = posenc.causal_mask(length) if causal else None
    out = np.empty(np.broadcast_shapes(lead, v.shape[:-2]) + (length, v.shape[-1]))
    for r0 in range(0, length, rows):
        block = slice(r0, min(r0 + rows, length))
        s = matmul(constant(q_scaled[..., block, :]), k_t).data
        if bias is not None:
            if mode == "multiplicative":
                np.maximum(s, 0.0, out=s)
                s *= bias.data[..., block, :]
            else:
                s += bias.data[..., block, :]
        if causal:
            s += mask[block]
        out[..., block, :] = softmax_rows(s, v).data
    return constant(out)


class EnhancementModel:
    """Enhancement network; owns named parameter tensors and fixed buffers.

    Parameters live in an insertion-ordered dict so initialization draws and
    checkpoint layout are reproducible. `buffers` holds non-trainable state
    (the never-trained absolute-embedding extension rows).
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self._init_params()

    # -- construction -------------------------------------------------------

    def _add_param(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def _xavier(self, rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def _init_params(self) -> None:
        cfg = self.config
        # Separate streams so the backbone draws are identical across PE kinds.
        ss = np.random.SeedSequence(entropy=cfg.init_seed, spawn_key=(0x6d61,))
        rng = np.random.default_rng(ss)
        rng_pe = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.init_seed, spawn_key=(0x7065,)))

        self._add_param("embed.weight", self._xavier(rng, cfg.k_bins, cfg.d_model))
        self._add_param("embed.bias", np.zeros(cfg.d_model))
        self._add_param("embed.ln_gain", np.ones(cfg.d_model))
        self._add_param("embed.ln_bias", np.zeros(cfg.d_model))
        for i in range(cfg.n_layers):
            for h in range(cfg.n_heads):
                self._add_param(f"layers.{i}.attn.q.{h}",
                                self._xavier(rng, cfg.d_model, cfg.d_k))
                self._add_param(f"layers.{i}.attn.k.{h}",
                                self._xavier(rng, cfg.d_model, cfg.d_k))
                self._add_param(f"layers.{i}.attn.v.{h}",
                                self._xavier(rng, cfg.d_model, cfg.d_k))
            self._add_param(f"layers.{i}.attn.out",
                            self._xavier(rng, cfg.d_model, cfg.d_model))
            self._add_param(f"layers.{i}.ffn.w1",
                            self._xavier(rng, cfg.d_model, cfg.d_ff))
            self._add_param(f"layers.{i}.ffn.b1", np.zeros(cfg.d_ff))
            self._add_param(f"layers.{i}.ffn.w2",
                            self._xavier(rng, cfg.d_ff, cfg.d_model))
            self._add_param(f"layers.{i}.ffn.b2", np.zeros(cfg.d_model))
            if cfg.post_ln:
                self._add_param(f"layers.{i}.ln1.gain", np.ones(cfg.d_model))
                self._add_param(f"layers.{i}.ln1.bias", np.zeros(cfg.d_model))
                self._add_param(f"layers.{i}.ln2.gain", np.ones(cfg.d_model))
                self._add_param(f"layers.{i}.ln2.bias", np.zeros(cfg.d_model))
        self._add_param("head.weight", self._xavier(rng, cfg.d_model, cfg.out_width))
        self._add_param("head.bias", np.zeros(cfg.out_width))
        self._init_pe_params(rng_pe)

    def _init_pe_params(self, rng: np.random.Generator) -> None:
        params, buffers = posenc.SCHEMES[self.config.pe_kind].init(self.config, rng)
        for name, data in params.items():
            self._add_param(f"pe.{name}", data)
        for name, data in buffers.items():
            self.buffers[f"pe.{name}"] = data

    # -- bookkeeping ---------------------------------------------------------

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def pe_parameter_count(self) -> int:
        return sum(t.size for n, t in self.params.items() if n.startswith("pe."))

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- forward pieces ------------------------------------------------------

    def _position_rows(self, length: int) -> np.ndarray | Tensor:
        cfg = self.config
        if cfg.pe_kind is PeKind.SINUSOIDAL:
            return constant(posenc.sinusoidal_embedding(length, cfg.d_model))
        table = self.params["pe.embed"]
        trained = cfg.bertpos_max_len
        if length <= trained:
            return take(table, np.arange(length))
        if length > cfg.bertpos_hard_cap:
            raise CapabilityError(
                f"bertpos supports at most {cfg.bertpos_hard_cap} frames, "
                f"got {length}")
        ext = constant(self.buffers["pe.embed_ext"][:length - trained])
        return concat_cols([table, ext], axis=0)

    def embed(self, x_mag: np.ndarray) -> Tensor:
        """FC -> frame-wise layer norm -> ReLU, plus the absolute embedding
        for the input-injection kinds. Accepts (L, K) or a (B, L, K) stack."""
        cfg = self.config
        x_mag = np.asarray(x_mag, dtype=np.float64)
        if x_mag.ndim not in (2, 3) or x_mag.shape[-1] != cfg.k_bins:
            raise ValueError(
                f"expected input of shape (L, {cfg.k_bins}) or "
                f"(B, L, {cfg.k_bins}), got {x_mag.shape}")
        z = add(matmul(constant(x_mag), self.params["embed.weight"]),
                self.params["embed.bias"])
        z = layer_norm_frames(z, self.params["embed.ln_gain"],
                              self.params["embed.ln_bias"], cfg.ln_eps)
        z = relu(z)
        if posenc.SCHEMES[cfg.pe_kind].mode == "input":
            z = add(z, self._position_rows(x_mag.shape[-2]))
        return z

    def _biases_for(self, length: int) -> list[Tensor | None]:
        """One (H, L, L) bias per layer, or None per layer without one.
        Layer-shared schemes build theirs once; per-layer schemes build one
        from each layer's slice of their parameters."""
        n = self.config.n_layers
        scheme = posenc.SCHEMES[self.config.pe_kind]
        if scheme.bias is None:
            return [None] * n
        pe = {name[len("pe."):]: t for name, t in self.params.items()
              if name.startswith("pe.")}
        if scheme.per_layer:
            return [scheme.bias(length, {name: take(t, i) for name, t in pe.items()})
                    for i in range(n)]
        return [scheme.bias(length, pe)] * n

    def _split_heads(self, x: Tensor, name: str, layer: int) -> Tensor:
        """Project (..., L, d_model) frames with the per-head weights of `name`
        joined column-wise, giving (..., H, L, d_k)."""
        cfg = self.config
        w = concat_cols([self.params[f"layers.{layer}.attn.{name}.{h}"]
                         for h in range(cfg.n_heads)])
        y = matmul(x, w)
        y = reshape(y, y.shape[:-1] + (cfg.n_heads, cfg.d_k))
        return transpose(y, -3, -2)

    def mhsa(self, x: Tensor, layer: int, bias: Tensor | None) -> Tensor:
        """Self-attention of every head at once over (..., L, d_model) frames;
        `bias` is the layer's (H, L, L) position bias or None."""
        cfg = self.config
        mode = posenc.SCHEMES[cfg.pe_kind].mode
        bias_mode = "multiplicative" if mode == "multiplicative" else "additive"
        q = self._split_heads(x, "q", layer)
        k = self._split_heads(x, "k", layer)
        v = self._split_heads(x, "v", layer)
        if mode == "rotation":
            q, k = posenc.rope_rotate(q, k)
        heads = attention_head(q, k, v, bias, mode=bias_mode, causal=cfg.causal)
        joined = reshape(transpose(heads, -3, -2), x.shape)
        return matmul(joined, self.params[f"layers.{layer}.attn.out"])

    def ffn(self, y: Tensor, layer: int) -> Tensor:
        p = self.params
        hidden = relu(add(matmul(y, p[f"layers.{layer}.ffn.w1"]),
                          p[f"layers.{layer}.ffn.b1"]))
        return add(matmul(hidden, p[f"layers.{layer}.ffn.w2"]),
                   p[f"layers.{layer}.ffn.b2"])

    def forward(self, x_mag: np.ndarray) -> Tensor:
        """Predict the mask/magnitude grid for one utterance's (L, K) |X|, or
        for a (B, L, K) stack of equal-length clips in one pass."""
        cfg = self.config
        z = self.embed(x_mag)
        biases = self._biases_for(z.shape[-2])
        for i in range(cfg.n_layers):
            y = add(z, self.mhsa(z, i, biases[i]))
            if cfg.post_ln:
                y = layer_norm_frames(y, self.params[f"layers.{i}.ln1.gain"],
                                      self.params[f"layers.{i}.ln1.bias"], cfg.ln_eps)
            z2 = add(y, self.ffn(y, i))
            if cfg.post_ln:
                z2 = layer_norm_frames(z2, self.params[f"layers.{i}.ln2.gain"],
                                       self.params[f"layers.{i}.ln2.bias"], cfg.ln_eps)
            z = z2
        out = add(matmul(z, self.params["head.weight"]), self.params["head.bias"])
        head = TARGETS[cfg.target].head
        return out if head is None else head(out)

    def predict(self, x_mag: np.ndarray) -> np.ndarray:
        """Forward pass without a tape, returning a plain ndarray."""
        with no_grad():
            return self.forward(x_mag).data
