"""Shared test utilities: independent oracles and gradient-check plumbing."""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from lgse import dsp, objectives
from lgse.dsp import Waveform
from lgse.evaluate import _triangle, chunk_starts, enhance_full
from lgse.model import EnhancementModel
from lgse.posenc import PeKind, sinusoidal_embedding
from lgse.selftest import NAIVE_OFFSET, model_gradient_mismatches, naive_bias  # noqa: F401


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(n^2) DFT, first half-spectrum only; oracle for the FFT path."""
    n = len(x)
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return (x[None, :] * np.exp(-2j * np.pi * k * t / n)).sum(axis=1)


def make_batch_loop(utts, cfg, rng, model_cfg):
    """Three STFTs and one target per clip; oracle for the stacked
    `training.make_batch`. Returns one (clean, noise_scaled, snr_db, spec_s,
    spec_v, spec_x, target) tuple per usable clip, drawing the same RNG values
    in the same order."""
    clip_len = int(round(cfg.clip_len_s * dsp.SAMPLE_RATE))
    clips = []
    for utt in utts:
        for c in range(len(utt.clean) // clip_len):
            clean = utt.clean.samples[c * clip_len:(c + 1) * clip_len]
            src = utts[int(rng.integers(0, len(utts)))].noise.samples
            if len(src) < clip_len:
                continue
            offset = int(rng.integers(0, len(src) - clip_len + 1))
            noise = src[offset:offset + clip_len]
            snr = int(rng.integers(cfg.snr_low_db, cfg.snr_high_db + 1))
            noise_scaled = dsp.noise_gain_for_snr(clean, noise, snr) * noise
            spec_s = dsp.stft(Waveform(clean))
            spec_v = dsp.stft(Waveform(noise_scaled))
            spec_x = dsp.stft(Waveform(clean + noise_scaled))
            target = objectives.target_grid(model_cfg, spec_s, spec_v, spec_x)
            clips.append((clean, noise_scaled, snr, spec_s, spec_v, spec_x, target))
    return clips


def copying_accumulate(t, g) -> None:
    """Reference `numerics._accumulate`: the first contribution is copied into
    a buffer of its own and later ones are added into that buffer."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def clip_in_place(params, limit) -> None:
    """Reference `training.clip_gradients` for gradients that own their
    buffers: clips each one in place."""
    for t in params.values():
        if t.grad is not None:
            np.clip(t.grad, -limit, limit, out=t.grad)


def rewrite_meta(path, edit) -> None:
    """Apply `edit` to a checkpoint's meta block in place, keeping the meta
    length prefix consistent."""
    raw = path.read_bytes()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16:16 + meta_len])
    edit(meta)
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                     + raw[16 + meta_len:])


def rewrite_model_config(path, edit) -> None:
    """Apply `edit` to a checkpoint's stored model_config in place."""
    rewrite_meta(path, lambda meta: edit(meta["model_config"]))


def rewrite_records(path, edit) -> list[str]:
    """Apply `edit` to a checkpoint's {name: record bytes} map in place,
    keeping the record count consistent; returns the names as stored."""
    raw = path.read_bytes()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    head = 16 + meta_len
    (n_records,) = struct.unpack("<I", raw[head:head + 4])
    records, pos = {}, head + 4
    for _ in range(n_records):
        start = pos
        (name_len,) = struct.unpack("<I", raw[pos:pos + 4])
        name = raw[pos + 4:pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (ndim,) = struct.unpack("<I", raw[pos:pos + 4])
        shape = struct.unpack(f"<{ndim}Q", raw[pos + 4:pos + 4 + 8 * ndim])
        pos += 4 + 8 * ndim + 8 * math.prod(shape)
        records[name] = raw[start:pos]
    names = list(records)
    edit(records)
    path.write_bytes(raw[:head] + struct.pack("<I", len(records))
                     + b"".join(records.values()))
    return names


def record_bytes(name: str, arr: np.ndarray) -> bytes:
    """One checkpoint record: name, shape and little-endian f64 payload."""
    nb = name.encode("utf-8")
    return (struct.pack("<I", len(nb)) + nb + struct.pack("<I", arr.ndim)
            + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.astype("<f8").tobytes())


def overlap_add_loop(frames: np.ndarray, hop: int, length: int) -> np.ndarray:
    """Frame-by-frame sum of (L, win) frames placed every `hop` samples,
    cut or zero-padded to `length`; oracle for `dsp._overlap_add`."""
    n_frames, win = frames.shape
    out = np.zeros(max((n_frames - 1) * hop + win, length))
    for l in range(n_frames):
        out[l * hop:l * hop + win] += frames[l]
    return out[:length]


def istft_loop(spec: np.ndarray, out_len: int | None = None) -> np.ndarray:
    """Frame-by-frame overlap-add of one (L, K) spectrogram; oracle for the
    strided `dsp.istft`."""
    n_frames = spec.shape[0]
    out_len = (n_frames - 1) * dsp.HOP + dsp.WIN_LEN if out_len is None else out_len
    frames = np.fft.irfft(spec, n=dsp.FFT_SIZE, axis=1)[:, :dsp.WIN_LEN]
    out = overlap_add_loop(frames * dsp.WINDOW, dsp.HOP, out_len)
    wsum = overlap_add_loop(np.tile(dsp.WINDOW * dsp.WINDOW, (n_frames, 1)),
                            dsp.HOP, out_len)
    nonzero = wsum > 1e-10
    out[nonzero] /= wsum[nonzero]
    return out


def enhance_chunked_loop(model, noisy: Waveform, chunk_s: float,
                         overlap: float) -> np.ndarray:
    """One `enhance_full` call per chunk; oracle for the grouped
    `enhance_chunked`."""
    chunk_len = int(round(chunk_s * dsp.SAMPLE_RATE))
    n = len(noisy)
    starts = chunk_starts(n, chunk_len, overlap)
    est = np.zeros(n)
    weight = np.zeros(n)
    win = _triangle(chunk_len) if overlap == 0.5 else np.ones(chunk_len)
    sup = slice(1, (dsp.frame_count(chunk_len) - 1) * dsp.HOP + dsp.WIN_LEN)
    for s in starts:
        seg = Waveform(noisy.samples[s:s + chunk_len])
        out = enhance_full(model, seg).samples
        est[s + sup.start:s + sup.stop] += out[sup] * win[sup]
        weight[s + sup.start:s + sup.stop] += win[sup]
    tail_start = starts[-1] + chunk_len
    if tail_start < n and n - tail_start >= dsp.WIN_LEN:
        out = enhance_full(model, Waveform(noisy.samples[tail_start:])).samples
        est[tail_start + 1:] += out[1:]
        weight[tail_start + 1:] += 1.0
    blended = weight > 1e-8
    est[blended] /= weight[blended]
    est[~blended] = noisy.samples[~blended]
    return est


def seg_snr_loop(est: np.ndarray, ref: np.ndarray, frame: int = 512,
                 hop: int = 256, floor_db: float = -10.0,
                 ceil_db: float = 35.0) -> float:
    """Frame-by-frame segmental SNR; oracle for the vectorized `seg_snr`."""
    vals = []
    for start in range(0, len(ref) - frame + 1, hop):
        rs = ref[start:start + frame]
        es = est[start:start + frame]
        e_ref = float(np.dot(rs, rs))
        if e_ref < 1e-10:
            continue
        e_err = float(np.dot(rs - es, rs - es))
        v = 10.0 * np.log10(e_ref / max(e_err, 1e-12))
        vals.append(min(max(v, floor_db), ceil_db))
    return float(np.mean(vals)) if vals else floor_db


# -- per-clip, per-head reference forward -------------------------------------


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
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
    z = np.maximum(_layer_norm(z, p["embed.ln_gain"], p["embed.ln_bias"]), 0.0)
    if kind is PeKind.SINUSOIDAL:
        z = z + sinusoidal_embedding(length, cfg.d_model)
    elif kind is PeKind.BERTPOS:
        table = np.concatenate([p["pe.embed"], model.buffers["pe.embed_ext"]])
        z = z + table[:length]
    for i in range(cfg.n_layers):
        heads = []
        for h in range(cfg.n_heads):
            cols = slice(h * cfg.d_k, (h + 1) * cfg.d_k)
            q = z @ p[f"layers.{i}.attn.q"][:, cols]
            k = z @ p[f"layers.{i}.attn.k"][:, cols]
            v = z @ p[f"layers.{i}.attn.v"][:, cols]
            if kind is PeKind.ROPE:
                q, k = _rope(q), _rope(k)
            scores = q @ k.T / math.sqrt(cfg.d_k)
            if kind is PeKind.DABIAS:
                scores = np.maximum(scores, 0.0) * _head_bias(model, length, i, h)
            elif kind in NAIVE_OFFSET:
                scores = scores + _head_bias(model, length, i, h)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append(e / e.sum(axis=1, keepdims=True) @ v)
        y = z + np.concatenate(heads, axis=1) @ p[f"layers.{i}.attn.out"]
        y = _layer_norm(y, p[f"layers.{i}.ln1.gain"], p[f"layers.{i}.ln1.bias"])
        hidden = np.maximum(y @ p[f"layers.{i}.ffn.w1"] + p[f"layers.{i}.ffn.b1"], 0.0)
        z = y + hidden @ p[f"layers.{i}.ffn.w2"] + p[f"layers.{i}.ffn.b2"]
        z = _layer_norm(z, p[f"layers.{i}.ln2.gain"], p[f"layers.{i}.ln2.bias"])
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
