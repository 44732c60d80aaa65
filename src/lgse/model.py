"""Position-aware Transformer predicting time-frequency masks from |X|.

The network is: FC embedding with frame-wise layer norm and ReLU, N identical
layers of multi-head self-attention plus a two-layer feed-forward block (each
wrapped in a residual connection and followed by a frame-wise layer norm),
and a target-specific output head. The positional-encoding scheme's
`posenc.SCHEMES` record decides where position enters: rows added to the
input embedding, a bias on the attention scores, or a rotation of q/k. This
module calls those hooks and holds no scheme-specific code.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, posenc
from .numerics import (
    Tensor,
    add,
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
        if not 1 <= self.bertpos_max_len <= posenc.BERTPOS_MAX_FRAMES:
            raise ValueError(
                f"bertpos_max_len must be between 1 and {posenc.BERTPOS_MAX_FRAMES}, "
                f"got {self.bertpos_max_len}")
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
        return replace(self, pe_kind=kind)


# Bytes of float64 scores the tape-free attention path may hold at once in one
# call, summed over its workers; a sweep from 0.5 to 16 MiB measured flat at
# the 20 s test length. A call whose whole (..., L, L) score stack fits runs as
# one block on the calling thread. A larger call keeps the blocks of query rows
# this budget gives and splits its longest leading axis (the heads of one
# clip, or a stack's clips) among W = min(usable CPUs, that axis) workers.
# There is no setting for W: numpy releases the GIL in every block's matmuls
# and ufuncs, and each attention problem's blocks make the same BLAS calls
# whichever thread makes them, so the output is the same bits for every W.
_BLOCK_BYTES = 2 * 2**20


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def attention_head(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None = None,
                   *, multiplicative: bool = False) -> Tensor:
    """Scaled dot-product attention over (..., L, d_k) queries, keys and values.

    Leading axes (clips, heads) are independent attention problems. A bias
    joins the scaled scores before the softmax or, if `multiplicative`,
    scales the ReLU-clipped scores instead. A bias is (L, L) or carries
    leading axes that broadcast against the scores, e.g. one (H, L, L) stack
    for every clip.

    When no operand needs a gradient, the scores are computed one block of
    query rows at a time, within `_BLOCK_BYTES` in all, and a call too large
    for one block spreads its independent problems over the CPUs this process
    may use (see `_attention_blocks`); no tape is recorded. That path floors
    shifted logits at `numerics.EXP_FLOOR`, so a frame that a strong decay
    bias pushes that far down gets a weight of at most e^-600 relative to its
    row's largest rather than zero.
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
    """`attention_head` without a tape, one block of query rows at a time.

    A block's scores span all L keys, so each row's softmax is exact and no
    online renormalization is needed. The score bytes alive at once stay
    within `_BLOCK_BYTES` instead of the (..., L, L) stack. If the stack fits,
    the call is one block on the calling thread. Otherwise the longest leading
    axis is cut into W = min(usable CPUs, its length) contiguous parts, one
    per worker: the calling thread takes part 0 and W - 1 pool threads the
    rest, and each walks every block of rows over its part. Rows per block
    are set by the whole call, not per worker, because a BLAS product's bits
    depend on its row count. Each worker owns a buffer of its part's share of
    the budget, allocated here before any starts, and a block's scores are a
    contiguous prefix of it. 1/sqrt(d_k) is folded into q once per call;
    QK^T is written into the buffer, the bias is applied in place,
    and `softmax_rows(block, v)` then shifts, floors and exponentiates the
    block in the buffer and normalizes the small (..., rows, d) product after
    the value product. Pool threads do not inherit the `no_grad` context, so
    the block code touches only ndarrays and constants, which record no tape
    whatever that flag says. A worker's error is raised by `result()` once
    the calling thread's part is done. The pool's threads are joined before
    the call returns, so none outlives it to block `evaluate`'s fork.
    """
    length, d_k = q.shape[-2:]
    operands = (q, k, v) if bias is None else (q, k, v, bias)
    shape = np.broadcast_shapes(*(t.shape[:-2] for t in operands))
    # One problem gets a unit leading axis, so every call has one to split.
    lead = shape or (1,)

    def full(a: np.ndarray) -> np.ndarray:
        return a if a.shape[:-2] == lead else np.broadcast_to(a, lead + a.shape[-2:])

    q_scaled = full(q.data * (1.0 / math.sqrt(d_k)))
    k_t = np.ascontiguousarray(np.swapaxes(full(k.data), -1, -2))
    values = full(v.data)
    bias_data = None if bias is None else full(bias.data)
    rows = max(1, _BLOCK_BYTES // (8 * length * math.prod(lead)))
    # Split the longest leading axis: the heads of one clip, or a stack's clips.
    axis = lead.index(max(lead))
    workers = 1 if rows >= length else min(_usable_cpus(), lead[axis])
    rows = min(rows, length)
    bounds = [lead[axis] * w // workers for w in range(workers + 1)]
    scores_per_item = math.prod(lead) // lead[axis] * rows * length
    buffers = [np.empty((hi - lo) * scores_per_item)
               for lo, hi in zip(bounds, bounds[1:])]
    out = np.empty(lead + (length, v.shape[-1]))

    def run(worker: int) -> None:
        lo, hi = bounds[worker], bounds[worker + 1]
        part = (slice(None),) * axis + (slice(lo, hi), Ellipsis)
        part_lead = lead[:axis] + (hi - lo,) + lead[axis + 1:]
        for r0 in range(0, length, rows):
            block = part + (slice(r0, r0 + rows), slice(None))
            block_shape = part_lead + (min(rows, length - r0), length)
            s = buffers[worker][:math.prod(block_shape)].reshape(block_shape)
            np.matmul(q_scaled[block], k_t[part], out=s)
            if bias_data is not None:
                if multiplicative:
                    np.maximum(s, 0.0, out=s)
                    s *= bias_data[block]
                else:
                    s += bias_data[block]
            out[block] = softmax_rows(s, values[part]).data

    if workers == 1:
        run(0)
    else:
        # Imported on first use, as only calls over the budget start threads.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            shares = [pool.submit(run, w) for w in range(1, workers)]
            run(0)
            for share in shares:
                share.result()
    return constant(out.reshape(shape + out.shape[-2:]))


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

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def pe_parameter_count(self) -> int:
        return sum(t.size for n, t in self.params.items() if n.startswith("pe."))

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- forward pieces ------------------------------------------------------

    def _pe_tensors(self) -> dict[str, Tensor]:
        """The scheme's parameters, without their "pe." prefix."""
        return {n.removeprefix("pe."): t for n, t in self.params.items() if n.startswith("pe.")}

    def embed(self, x_mag: np.ndarray) -> Tensor:
        """FC -> frame-wise layer norm -> ReLU, plus the scheme's position
        rows if it has any. Accepts (L, K) or a (B, L, K) stack."""
        cfg = self.config
        x_mag = np.asarray(x_mag, dtype=np.float64)
        if x_mag.ndim not in (2, 3) or x_mag.shape[-1] != cfg.k_bins:
            raise ValueError(
                f"expected input of shape (L, {cfg.k_bins}) or "
                f"(B, L, {cfg.k_bins}), got {x_mag.shape}")
        z = add(matmul(constant(x_mag), self.params["embed.weight"]),
                self.params["embed.bias"])
        z = layer_norm_frames(z, self.params["embed.ln_gain"],
                              self.params["embed.ln_bias"])
        z = relu(z)
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

    def _split_heads(self, x: Tensor, name: str, layer: int) -> Tensor:
        """Project (..., L, d_model) frames with the (d_model, d_model) weight
        of `name`, whose column block h is head h, giving (..., H, L, d_k)."""
        cfg = self.config
        y = matmul(x, self.params[f"layers.{layer}.attn.{name}"])
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
        p = self.params
        for i in range(cfg.n_layers):
            y = layer_norm_frames(add(z, self.mhsa(z, i, biases[i])),
                                  p[f"layers.{i}.ln1.gain"], p[f"layers.{i}.ln1.bias"])
            z = layer_norm_frames(add(y, self.ffn(y, i)),
                                  p[f"layers.{i}.ln2.gain"], p[f"layers.{i}.ln2.bias"])
        out = add(matmul(z, p["head.weight"]), p["head.bias"])
        head = TARGETS[cfg.target].head
        return out if head is None else head(out)

    def predict(self, x_mag: np.ndarray) -> np.ndarray:
        """Forward pass without a tape, returning a plain ndarray."""
        with no_grad():
            return self.forward(x_mag).data
