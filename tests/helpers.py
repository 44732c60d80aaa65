"""Shared test utilities: independent oracles and gradient-check plumbing."""

from __future__ import annotations

import math

import numpy as np

from lgse.model import EnhancementModel
from lgse.numerics import backward, finite_difference
from lgse.posenc import CAUSAL_NEG, PeKind, sinusoidal_embedding
from lgse.selftest import naive_bias
from lgse.training import mse_loss


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(n^2) DFT, first half-spectrum only; oracle for the FFT path."""
    n = len(x)
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return (x[None, :] * np.exp(-2j * np.pi * k * t / n)).sum(axis=1)


def flatten_params(model: EnhancementModel) -> np.ndarray:
    return np.concatenate([model.params[n].data.ravel() for n in model.params])


def set_params(model: EnhancementModel, flat: np.ndarray) -> None:
    offset = 0
    for name in model.params:
        p = model.params[name]
        p.data = flat[offset:offset + p.size].reshape(p.shape).copy()
        offset += p.size


def model_gradient_mismatches(model: EnhancementModel, x: np.ndarray,
                              target: np.ndarray, rel_tol: float = 1e-4,
                              abs_tol: float = 1e-8,
                              step: float = 1e-5) -> tuple[int, float]:
    """Compare autodiff parameter gradients against central finite differences.

    Returns (number of failing coordinates, worst relative error).
    """
    flat0 = flatten_params(model)

    def loss_at(flat):
        set_params(model, flat)
        return float(mse_loss(model.forward(x), target).data)

    model.zero_grad()
    set_params(model, flat0)
    loss = mse_loss(model.forward(x), target)
    backward(loss)
    auto = np.concatenate([
        (model.params[n].grad if model.params[n].grad is not None
         else np.zeros(model.params[n].shape)).ravel() for n in model.params])
    fd = finite_difference(loss_at, flat0, step=step)
    set_params(model, flat0)
    err = np.abs(auto - fd)
    scale = np.maximum(np.abs(auto), np.abs(fd))
    bad = err > np.maximum(rel_tol * scale, abs_tol)
    rel = err / np.maximum(scale, 1e-12)
    worst = float(rel[scale > abs_tol].max()) if np.any(scale > abs_tol) else 0.0
    return int(bad.sum()), worst


# -- per-clip, per-head reference forward -------------------------------------


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                eps: float) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _rope(x: np.ndarray) -> np.ndarray:
    """Rotate column pair (2m, 2m+1) of row l by l * 10000^(-2m/d)."""
    length, d = x.shape
    out = np.empty_like(x)
    for m in range(d // 2):
        angle = np.arange(length) * 10000.0 ** (-2.0 * m / d)
        c, s = np.cos(angle), np.sin(angle)
        out[:, 2 * m] = x[:, 2 * m] * c - x[:, 2 * m + 1] * s
        out[:, 2 * m + 1] = x[:, 2 * m + 1] * c + x[:, 2 * m] * s
    return out


def _head_bias(model: EnhancementModel, length: int, layer: int,
               head: int) -> np.ndarray:
    kind = model.config.pe_kind
    params = {name[len("pe."):]: t.data[layer, head] if kind is PeKind.TISA
              else t.data[head]
              for name, t in model.params.items() if name.startswith("pe.")}
    return naive_bias(kind, length, params)


def reference_forward(model: EnhancementModel, x_mag: np.ndarray) -> np.ndarray:
    """Plain-numpy forward of one (L, K) clip, one head at a time.

    Independent of the tape and of the batched attention path; the oracle
    the batched `forward` is compared against.
    """
    cfg = model.config
    p = {name: t.data for name, t in model.params.items()}
    kind = cfg.pe_kind
    length = x_mag.shape[0]
    z = x_mag @ p["embed.weight"] + p["embed.bias"]
    z = np.maximum(_layer_norm(z, p["embed.ln_gain"], p["embed.ln_bias"],
                               cfg.ln_eps), 0.0)
    if kind is PeKind.SINUSOIDAL:
        z = z + sinusoidal_embedding(length, cfg.d_model)
    elif kind is PeKind.BERTPOS:
        table = np.concatenate([p["pe.embed"], model.buffers["pe.embed_ext"]])
        z = z + table[:length]
    causal = np.triu(np.full((length, length), -CAUSAL_NEG), k=1)
    for i in range(cfg.n_layers):
        heads = []
        for h in range(cfg.n_heads):
            q = z @ p[f"layers.{i}.attn.q.{h}"]
            k = z @ p[f"layers.{i}.attn.k.{h}"]
            v = z @ p[f"layers.{i}.attn.v.{h}"]
            if kind is PeKind.ROPE:
                q, k = _rope(q), _rope(k)
            scores = q @ k.T / math.sqrt(cfg.d_k)
            if kind is PeKind.DABIAS:
                scores = np.maximum(scores, 0.0) * _head_bias(model, length, i, h)
            elif kind not in (PeKind.NOPOS, PeKind.SINUSOIDAL, PeKind.BERTPOS,
                              PeKind.ROPE):
                scores = scores + _head_bias(model, length, i, h)
            if cfg.causal:
                scores = scores + causal
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append(e / e.sum(axis=1, keepdims=True) @ v)
        y = z + np.concatenate(heads, axis=1) @ p[f"layers.{i}.attn.out"]
        if cfg.post_ln:
            y = _layer_norm(y, p[f"layers.{i}.ln1.gain"], p[f"layers.{i}.ln1.bias"],
                            cfg.ln_eps)
        hidden = np.maximum(y @ p[f"layers.{i}.ffn.w1"] + p[f"layers.{i}.ffn.b1"], 0.0)
        z = y + hidden @ p[f"layers.{i}.ffn.w2"] + p[f"layers.{i}.ffn.b2"]
        if cfg.post_ln:
            z = _layer_norm(z, p[f"layers.{i}.ln2.gain"], p[f"layers.{i}.ln2.bias"],
                            cfg.ln_eps)
    out = z @ p["head.weight"] + p["head.bias"]
    if cfg.target.value in ("irm", "psm"):
        return 1.0 / (1.0 + np.exp(-out))
    if cfg.target.value == "ms":
        return np.maximum(out, 0.0)
    return out


def reference_batch_loss(model: EnhancementModel, xs: np.ndarray,
                         targets: np.ndarray) -> float:
    """Mean over clips of each clip's mean squared error."""
    return float(np.mean([np.mean((reference_forward(model, x) - t) ** 2)
                          for x, t in zip(xs, targets)]))
