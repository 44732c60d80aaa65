"""Training loop: on-the-fly mixing, mask-approximation MSE, Adam with the
warmup schedule, elementwise gradient clipping, and model checkpoints that
reload to a bitwise-equal model."""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import dsp, objectives
from .dsp import Utterance
from .model import EnhancementModel, ModelConfig, param_shapes
from .numerics import Tensor, backward, constant, mul, reduce_mean, sub

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainResult",
    "CheckpointError",
    "lr_schedule",
    "make_batch",
    "mse_loss",
    "clip_gradients",
    "adam_step",
    "check_plan",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "config_dict",
    "write_loss_csv",
]

CHECKPOINT_MAGIC = b"LGSE"
CHECKPOINT_VERSION = 5

# Adam's moment decays and epsilon.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
# Mixing SNRs are drawn from the integers in [SNR_LOW_DB, SNR_HIGH_DB].
SNR_LOW_DB = -10
SNR_HIGH_DB = 20
# Elementwise gradient clip bound.
GRAD_CLIP = 1.0


class CheckpointError(RuntimeError):
    """A checkpoint file is malformed or inconsistent with its config."""


@dataclass
class TrainConfig:
    clip_len_s: float = 1.0
    batch_utts: int = 10
    epochs: int = 150
    max_steps: int = 0            # 0: run all epochs
    w_steps: int = 40000
    seed: int = 0
    freeze: tuple[str, ...] = ()  # parameter names excluded from updates

    def __post_init__(self):
        dsp.require_one_frame("clip_len_s", self.clip_len_s)
        for name in ("batch_utts", "epochs", "w_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be 0 (run all epochs) or a step count, "
                             f"got {self.max_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


def lr_schedule(n_step: int, w_steps: int, d_model: int) -> float:
    """d_model^-0.5 * min(n * w^-1.5, n^-0.5); rises for w steps, then decays."""
    if n_step < 1:
        raise ValueError(f"n_step must be >= 1, got {n_step}")
    return d_model ** -0.5 * min(n_step * w_steps ** -1.5, n_step ** -0.5)


def make_batch(utts: list[Utterance], cfg: TrainConfig, rng: np.random.Generator,
               model_cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Split each clean utterance into fixed clips (last partial dropped) and
    mix each clip with a random noise segment at a random integer SNR.

    Returns the noisy magnitudes |X|, shaped (B, L, K), and the loss target,
    shaped (B, L, K) or (B, L, 2K) for cIRM. B counts the usable clips and is
    0 when there is none. The mixing happens in the STFT domain, which is
    linear: V = g*N and X = S + V, with N the unscaled noise segments and g
    the per-clip gain for its SNR. Two STFTs, of the clean clips S and then
    of the noise segments N, stage the memory: each signal stack is dropped
    once analysed, and S and V once the target grid is made.
    """
    clip_len = int(round(cfg.clip_len_s * dsp.SAMPLE_RATE))
    clips: list[np.ndarray] = []
    segs: list[np.ndarray] = []
    snrs: list[int] = []
    for utt in utts:
        for c in range(len(utt.clean) // clip_len):
            src = utts[int(rng.integers(0, len(utts)))].noise.samples
            if len(src) < clip_len:
                continue
            offset = int(rng.integers(0, len(src) - clip_len + 1))
            snrs.append(int(rng.integers(SNR_LOW_DB, SNR_HIGH_DB + 1)))
            clips.append(utt.clean.samples[c * clip_len:(c + 1) * clip_len])
            segs.append(src[offset:offset + clip_len])
    clean = np.reshape(clips, (len(snrs), clip_len))
    noise = np.reshape(segs, (len(snrs), clip_len))
    gain = dsp.noise_gain_for_snr(clean, noise, snrs)
    spec_s = dsp.stft(clean)
    del clean
    spec_v = dsp.stft(noise)
    del noise
    spec_v *= gain[:, None, None]
    spec_x = spec_s + spec_v
    target = objectives.target_grid(model_cfg, spec_s, spec_v, spec_x)
    del spec_s, spec_v
    return np.abs(spec_x), target


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over every grid cell."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(
            f"prediction shape {pred.shape} does not match target {target.shape}")
    diff = sub(pred, constant(target))
    return reduce_mean(mul(diff, diff))


def _require_finite(params: dict[str, Tensor], cfg: TrainConfig) -> None:
    """Raise FloatingPointError naming the first parameter outside `cfg.freeze`
    whose gradient holds a NaN or an infinity."""
    for name, p in params.items():
        if p.grad is not None and name not in cfg.freeze and not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")


def clip_gradients(params: dict[str, Tensor], limit: float) -> None:
    """Elementwise value clipping of every populated gradient to [-limit, limit].

    Each gradient is replaced by its clipped copy: gradients may share memory
    (see `Tensor`), so clipping one in place could clip another."""
    for t in params.values():
        if t.grad is not None:
            t.grad = np.clip(t.grad, -limit, limit)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update over all parameters with gradients;
    a non-finite one raises FloatingPointError (`_require_finite`)."""
    _require_finite(params, cfg)
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        if p.grad is None or name in cfg.freeze:
            continue
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@dataclass
class TrainResult:
    trace: list[tuple[int, float, float]]          # (step, lr, loss)


def check_plan(cfg: TrainConfig, model_cfg: ModelConfig, n_utts: int,
               longest_s: float, longest_name: str) -> None:
    """Raise a ValueError naming the setting at fault unless `cfg` can train
    a `model_cfg` model on `n_utts` utterances whose longest, which the
    message calls `longest_name`, lasts `longest_s` seconds: it holds one
    clip, `freeze` names only the model's parameters, and the epochs, one
    step per mini-batch, reach `max_steps`. Nothing is drawn."""
    if (int(round(longest_s * dsp.SAMPLE_RATE))
            < int(round(cfg.clip_len_s * dsp.SAMPLE_RATE))):
        raise ValueError(f"{longest_name} {longest_s:g} s is shorter than one "
                         f"train.clip_len_s clip ({cfg.clip_len_s:g} s)")
    names = param_shapes(model_cfg) if cfg.freeze else {}
    unknown = [name for name in cfg.freeze if name not in names]
    if unknown:
        raise ValueError(f"freeze names no parameter of this {model_cfg.pe_kind.value} "
                         f"model: {', '.join(unknown)}")
    reachable = cfg.epochs * -(-n_utts // cfg.batch_utts)
    if cfg.max_steps > reachable:
        raise ValueError(f"train.max_steps {cfg.max_steps} is out of reach: "
                         f"train.epochs {cfg.epochs} over {n_utts} utterances in "
                         f"batches of {cfg.batch_utts} run at most {reachable} steps")


def _batches(n_utts: int, cfg: TrainConfig, rng: np.random.Generator):
    """Utterance indices of each mini-batch: one shuffle per epoch, drawn
    only when the epoch's first batch is requested."""
    for _ in range(cfg.epochs):
        order = rng.permutation(n_utts)
        for pos in range(0, n_utts, cfg.batch_utts):
            yield order[pos:pos + cfg.batch_utts]


def train(model: EnhancementModel, corpus: list[Utterance], cfg: TrainConfig, *,
          ckpt_path=None, loss_csv=None) -> TrainResult:
    """Shuffled-epoch training, deterministic given cfg.seed. The model is
    saved once, after the last step, when `ckpt_path` is given."""
    if not corpus:
        raise ValueError("corpus is empty")
    longest = max(len(utt.clean) for utt in corpus) / dsp.SAMPLE_RATE
    check_plan(cfg, model.config, len(corpus), longest, "the longest corpus utterance")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                       spawn_key=(0x7472,)))
    state = AdamState()
    trace: list[tuple[int, float, float]] = []
    step = 0
    for batch in _batches(len(corpus), cfg, rng):
        x_mag, target = make_batch([corpus[i] for i in batch], cfg, rng, model.config)
        if len(x_mag) == 0:
            continue
        step += 1
        lr = lr_schedule(step, cfg.w_steps, model.config.d_model)
        model.zero_grad()
        loss = mse_loss(model.forward(x_mag), target)
        backward(loss)
        # Before the clip, which would map an infinity to +-GRAD_CLIP.
        _require_finite(model.params, cfg)
        clip_gradients(model.params, GRAD_CLIP)
        adam_step(model.params, state, lr, cfg)
        trace.append((step, lr, float(loss.data)))
        # Free the step's tape and batch now; otherwise they live on through
        # the next make_batch and forward, until rebound.
        del loss, x_mag, target
        if cfg.max_steps and step >= cfg.max_steps:
            break
    if ckpt_path:
        save_checkpoint(ckpt_path, model, step=step)
    if loss_csv:
        write_loss_csv(loss_csv, trace)
    return TrainResult(trace=trace)


def write_loss_csv(path, trace: list[tuple[int, float, float]]) -> None:
    lines = ["step,lr,loss"]
    lines += [f"{s},{lr!r},{loss!r}" for s, lr, loss in trace]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# -- checkpoint serialization -------------------------------------------------
#
# Layout (all little-endian), version 5:
#   magic "LGSE" | u32 version | u64 meta_len | meta JSON (sorted keys)
#   | u32 n_records | records
# meta: {"model_config": {...every ModelConfig field...}, "step": steps trained}
# record: u32 name_len | name utf8 | u32 ndim | u64 dims... | f64 payload...
# Records, sorted by name, are exactly the model's parameters "param.<name>":
# no optimizer or RNG state, so training cannot resume from a checkpoint.
# Since version 3 each attention projection is one (d_model, d_model) record,
# "param.layers.<i>.attn.q" (k, v), with head h in column block h; version 2
# stored one record per head. Versions 2 and 3 stored more ModelConfig fields.
# Version 4 also stored bertpos's fixed rows past L', as a record of their own.


def _record_header(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    return (struct.pack("<I", len(nb)) + nb + struct.pack("<I", arr.ndim)
            + struct.pack(f"<{arr.ndim}Q", *arr.shape))


def config_dict(cfg: ModelConfig) -> dict:
    """`cfg` as a checkpoint stores it: every field, enums by value."""
    d = asdict(cfg)
    d["pe_kind"] = cfg.pe_kind.value
    d["target"] = cfg.target.value
    return d


def _model_records(model: EnhancementModel) -> dict[str, np.ndarray]:
    """The model's parameters under their checkpoint record names."""
    return {f"param.{name}": t.data for name, t in model.params.items()}


def save_checkpoint(path, model: EnhancementModel, unused: None = None,
                    step: int = 0) -> None:
    """Write `model` and the number of steps it was trained for to `path`.

    `unused` carries nothing: it keeps the positional call shape
    `save_checkpoint(path, model, None, step)` that bench/workloads.py uses.
    """
    meta = {"model_config": config_dict(model.config), "step": int(step)}
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    records = _model_records(model)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
                + struct.pack("<Q", len(meta_bytes)) + meta_bytes
                + struct.pack("<I", len(records)))
        # One record at a time: the file image is never held in memory.
        for name in sorted(records):
            f.write(_record_header(name, records[name]))
            f.write(np.ascontiguousarray(records[name], dtype="<f8").tobytes())


class _Reader:
    """Reads a checkpoint file in order. Each size the file claims is checked
    against the bytes left in it before anything of that size is allocated."""

    def __init__(self, f, path):
        self.f = f
        self.path = path
        self.left = os.fstat(f.fileno()).st_size

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.left -= n

    def read(self, n: int) -> bytes:
        self._claim(n)
        return self.f.read(n)

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.read(8))[0]

    def payload(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next record payload, read straight into its own array."""
        count = math.prod(shape)
        self._claim(8 * count)
        out = np.empty(count, dtype="<f8")
        if self.f.readinto(out) != out.nbytes:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        return out.astype(np.float64, copy=False).reshape(shape)


def _stored_config(path, meta: dict) -> ModelConfig:
    """The checkpoint's ModelConfig; its keys must be exactly the fields."""
    stored = meta.get("model_config") if isinstance(meta, dict) else None
    if not isinstance(stored, dict):
        raise CheckpointError(f"{path}: no model_config")
    names = {f.name for f in fields(ModelConfig)}
    unknown, missing = set(stored) - names, names - set(stored)
    if unknown:
        raise CheckpointError(f"{path}: unknown model_config keys {sorted(unknown)}")
    if missing:
        raise CheckpointError(f"{path}: model_config lacks keys {sorted(missing)}")
    try:
        return ModelConfig(**stored)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model_config: {exc}") from None


def load_checkpoint(path) -> tuple[EnhancementModel, int]:
    """Rebuild the model from a checkpoint file; returns (model, steps trained).

    The stored config must name every ModelConfig field and nothing else, the
    meta step must be an integer, and the records must be exactly the
    parameters the stored config implies (`param_shapes`), each finite and of
    its implied shape. Any violation raises CheckpointError. The model is
    built from the records; nothing is drawn.
    """
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
        version = r.u32()
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}; "
                                  f"this build reads version {CHECKPOINT_VERSION}")
        blob = r.read(r.u64())
        try:
            meta = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise CheckpointError(f"{path}: meta block is not UTF-8 JSON: {exc}") from None
        n_records = r.u32()
        records: dict[str, np.ndarray] = {}
        for _ in range(n_records):
            blob = r.read(r.u32())
            try:
                name = blob.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: record name is not UTF-8: {exc}") from None
            if name in records:
                raise CheckpointError(f"{path}: duplicate record {name}")
            ndim = r.u32()
            shape = tuple(r.u64() for _ in range(ndim))
            data = r.payload(shape)
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
            records[name] = data

    config = _stored_config(path, meta)
    step = meta.get("step")
    if isinstance(step, bool) or not isinstance(step, int):
        raise CheckpointError(f"{path}: meta step must be an integer, got {step!r}")
    shapes = param_shapes(config)
    expected = {f"param.{name}": shape for name, shape in shapes.items()}
    unknown, missing = set(records) - set(expected), set(expected) - set(records)
    if unknown:
        raise CheckpointError(f"{path}: unknown records {sorted(unknown)}")
    if missing:
        raise CheckpointError(f"{path}: missing records {sorted(missing)}")
    for key, shape in expected.items():
        if records[key].shape != shape:
            raise CheckpointError(f"{path}: tensor {key} has shape "
                                  f"{records[key].shape}, config implies {shape}")
    return EnhancementModel(config, {name: records[f"param.{name}"] for name in shapes}), step
