"""Shared test utilities: independent oracles and gradient-check plumbing."""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import warnings
from dataclasses import fields

import numpy as np

import lgse
from lgse import dsp, objectives
from lgse.dsp import Waveform
from lgse.evaluate import MetricReport, ReportRow, _triangle, chunk_starts, enhance_full
from lgse.model import EnhancementModel
from lgse.numerics import LN_EPS, backward
from lgse.posenc import T5_BUCKETS, PeKind, sinusoidal_embedding, t5_bucket_index
from lgse.training import SNR_HIGH_DB, SNR_LOW_DB, mse_loss


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
            snr = int(rng.integers(SNR_LOW_DB, SNR_HIGH_DB + 1))
            noise_scaled = dsp.noise_gain_for_snr(clean, noise, snr) * noise
            spec_s = dsp.stft(Waveform(clean))
            spec_v = dsp.stft(Waveform(noise_scaled))
            spec_x = dsp.stft(Waveform(clean + noise_scaled))
            target = objectives.target_grid(model_cfg, spec_s, spec_v, spec_x)
            clips.append((clean, noise_scaled, snr, spec_s, spec_v, spec_x, target))
    return clips


def param_count(model: EnhancementModel, prefix: str = "") -> int:
    """Parameter values of `model` whose names start with `prefix`."""
    return sum(t.size for name, t in model.params.items() if name.startswith(prefix))


def report_from_csv(path) -> MetricReport:
    """Read a report.csv back, each column as its ReportRow field's type."""
    parse = {"str": str, "int": int, "float": float}
    with open(path, newline="", encoding="utf-8") as f:
        return MetricReport([ReportRow(**{col.name: parse[col.type](rec[col.name])
                                          for col in fields(ReportRow)})
                             for rec in csv.DictReader(f)])


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


# -- elementwise kernels in their select-and-copy forms ------------------------
#
# `numerics` and `objectives` compute these without a data-dependent select
# and in fewer buffers; each must give these forms' bits.


def relu_where(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)


def sigmoid_where(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def layer_norm_frames_plain(x: np.ndarray, gain: np.ndarray,
                            bias: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    return xhat * gain + bias


def cirm_masked(clean: np.ndarray, noisy: np.ndarray) -> np.ndarray:
    x2 = (noisy.real ** 2 + noisy.imag ** 2)
    num = clean * np.conj(noisy)
    out = np.zeros_like(num)
    ok = x2 >= 1e-12
    out[ok] = num[ok] / x2[ok]
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: NaN payloads and the sign of zero count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def warned(f, *args):
    """f(*args) and the messages of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    return out, [str(w.message) for w in caught]


# ±0, ±inf, NaN, the smallest subnormals and values whose exp over- or
# underflows.
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                           5e-324, -5e-324, 800.0, -800.0])


def special_inputs() -> list[np.ndarray]:
    """SPECIAL_VALUES whole, as a strided view and one value at a time: a
    ufunc may treat a value in its vector loop otherwise than in its scalar
    remainder (np.fmax keeps -0.0 in the one and not the other)."""
    return [SPECIAL_VALUES, SPECIAL_VALUES[::-2]] + [SPECIAL_VALUES[i:i + 1]
                                                     for i in range(len(SPECIAL_VALUES))]


def kernel_inputs(shape) -> list[np.ndarray]:
    """`special_inputs()` when `shape` is None, else standard normals of
    that shape."""
    if shape is None:
        return special_inputs()
    return [np.random.default_rng(sum(shape)).standard_normal(shape)]
KERNEL_SHAPES = [(600, 128), (1249, 257), (8, 30, 257)]


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


# -- naive bias evaluators (per-pair loops, no Toeplitz shortcut) --------------


def _sigmoid(x) -> float:
    # `numerics._stable_sigmoid`'s two branches, for one scalar.
    e = np.exp(-abs(x))
    return (1.0 if x >= 0 else e) / (e + 1.0)


# The bias at offset r = i - j, one formula per scheme. Scalar np.exp/np.log
# keep the elementary functions bitwise equal to the built path's.
NAIVE_OFFSET = {
    PeKind.GAUSS: lambda r, p: -(float(r) ** 2 / (p["sigma"] * p["sigma"] * 2.0)),
    PeKind.T5: lambda r, p: p["bucket"][t5_bucket_index(r)],
    PeKind.TISA: lambda r, p: sum(np.exp(-(abs(b) * ((-r - c) * (-r - c)))) * a
                                  for a, b, c in zip(p["a"], p["b"], p["c"])),
    PeKind.DABIAS: lambda r, p: ((np.exp(p["v"]) + 1.0)
                                 * _sigmoid(float(abs(r)) * p["w"] - p["v"])),
    PeKind.KERPLE: lambda r, p: -(np.exp(p["rho1"])
                                  * np.log(float(abs(r)) * np.exp(p["rho2"]) + 1.0)),
    PeKind.LEARNLIN: lambda r, p: float(abs(r)) * p["beta"],
}


def naive_bias(kind: PeKind, length: int, params: dict) -> np.ndarray:
    offset = NAIVE_OFFSET[kind]
    out = np.zeros((length, length))
    for i in range(length):
        for j in range(length):
            out[i, j] = offset(i - j, params)
    return out


# Random parameter draws per scheme; `h` is the leading head shape.
_RANDOM_PARAMS = {
    PeKind.GAUSS: lambda rng, h: {"sigma": rng.uniform(0.5, 20.0, h)},
    PeKind.T5: lambda rng, h: {"bucket": rng.normal(size=h + (T5_BUCKETS,))},
    PeKind.TISA: lambda rng, h: {"a": rng.normal(size=h + (5,)),
                                 "b": rng.normal(size=h + (5,)),
                                 "c": rng.uniform(-8, 8, h + (5,))},
    PeKind.DABIAS: lambda rng, h: {"w": rng.uniform(-0.5, 0.5, h), "v": rng.normal(size=h)},
    PeKind.KERPLE: lambda rng, h: {"rho1": rng.normal(size=h), "rho2": rng.normal(size=h)},
    PeKind.LEARNLIN: lambda rng, h: {"beta": rng.uniform(-1, 1, h)},
}


def random_bias_params(kind: PeKind, rng: np.random.Generator,
                       heads: tuple[int, ...] = ()) -> dict[str, np.ndarray]:
    """Random parameters for a bias scheme, each with leading axes `heads`
    (tisa's kernels and t5's buckets keep their own last axis)."""
    return _RANDOM_PARAMS[PeKind(kind)](rng, tuple(heads))


# -- gradient check against central finite differences -------------------------


FD_STEP = 1e-5


def finite_difference(f, x0: np.ndarray) -> np.ndarray:
    """Central-difference gradient, with step FD_STEP, of a scalar function
    `f` of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += FD_STEP
        xm[i] -= FD_STEP
        g[i] = (f(xp) - f(xm)) / (2.0 * FD_STEP)
    return g


def flatten_params(model: EnhancementModel) -> np.ndarray:
    return np.concatenate([model.params[n].data.ravel() for n in model.params])


def set_params(model: EnhancementModel, flat: np.ndarray) -> None:
    offset = 0
    for name in model.params:
        p = model.params[name]
        p.data = flat[offset:offset + p.size].reshape(p.shape).copy()
        offset += p.size


def model_gradient_mismatches(model: EnhancementModel, x: np.ndarray,
                              target: np.ndarray) -> tuple[int, float]:
    """Compare autodiff parameter gradients against central finite differences.

    A coordinate fails when the two differ by more than 1e-4 of the larger
    magnitude, or by more than 1e-8 absolute. Returns (number of failing
    coordinates, worst relative error).
    """
    rel_tol, abs_tol = 1e-4, 1e-8
    flat0 = flatten_params(model)

    def loss_at(flat):
        set_params(model, flat)
        return float(mse_loss(model.forward(x), target).data)

    model.zero_grad()
    set_params(model, flat0)
    backward(mse_loss(model.forward(x), target))
    auto = np.concatenate([
        (model.params[n].grad if model.params[n].grad is not None
         else np.zeros(model.params[n].shape)).ravel() for n in model.params])
    fd = finite_difference(loss_at, flat0)
    set_params(model, flat0)
    err = np.abs(auto - fd)
    scale = np.maximum(np.abs(auto), np.abs(fd))
    bad = err > np.maximum(rel_tol * scale, abs_tol)
    rel = err / np.maximum(scale, 1e-12)
    worst = float(rel[scale > abs_tol].max()) if np.any(scale > abs_tol) else 0.0
    return int(bad.sum()), worst


# -- per-clip, per-head reference forward -------------------------------------


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


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


def bertpos_stream_rows(cfg, length: int) -> np.ndarray:
    """`length` rows of a bertpos model's PE stream in one draw from its
    seed: the rows below L' are the table's init values, the rest its fixed
    rows."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.init_seed, spawn_key=(0x7065,)))
    return rng.normal(0.0, 0.02, size=(length, cfg.d_model))


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
        fixed = bertpos_stream_rows(cfg, length)[cfg.bertpos_max_len:]
        z = z + np.concatenate([p["pe.embed"], fixed])[:length]
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


def no_child_left() -> bool:
    """True if this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unpinned_env() -> dict:
    """Environment for a Python subprocess that imports this lgse, with no
    BLAS thread variable set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(lgse.__file__))
    return env
