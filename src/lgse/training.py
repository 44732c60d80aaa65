"""Training loop: on-the-fly mixing, mask-approximation MSE, Adam with the
warmup schedule, elementwise gradient clipping, and model checkpoints that
reload to a bitwise-equal model."""

from __future__ import annotations

import json
import math
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
    "check_freeze",
    "check_step_cap",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "write_loss_csv",
]

CHECKPOINT_MAGIC = b"LGSE"
CHECKPOINT_VERSION = 5

# Adam's moment decays and epsilon.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


class CheckpointError(RuntimeError):
    """A checkpoint file is malformed or inconsistent with its config."""


@dataclass
class TrainConfig:
    clip_len_s: float = 1.0
    batch_utts: int = 10
    snr_low_db: int = -10
    snr_high_db: int = 20
    epochs: int = 150
    max_steps: int = 0            # 0: run all epochs
    w_steps: int = 40000
    grad_clip: float = 1.0
    seed: int = 0
    freeze: tuple[str, ...] = ()  # parameter names excluded from updates

    def __post_init__(self):
        if self.snr_high_db < self.snr_low_db:
            raise ValueError("snr_high_db must be >= snr_low_db")
        dsp.require_one_frame("clip_len_s", self.clip_len_s)
        for name in ("batch_utts", "epochs", "w_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be 0 (run all epochs) or a step count, "
                             f"got {self.max_steps}")
        if not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip:g}")


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
    0 when there is none. One STFT analyses the clean clips S and the unscaled
    noise segments N together; the mixing happens in the STFT domain, which
    is linear: V = g*N and X = S + V, with g the per-clip gain for its SNR.
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
            snrs.append(int(rng.integers(cfg.snr_low_db, cfg.snr_high_db + 1)))
            clips.append(utt.clean.samples[c * clip_len:(c + 1) * clip_len])
            segs.append(src[offset:offset + clip_len])
    sig = np.empty((2, len(snrs), clip_len))
    for b, (clip, seg) in enumerate(zip(clips, segs)):
        sig[0, b], sig[1, b] = clip, seg
    gain = dsp.noise_gain_for_snr(sig[0], sig[1], snrs)
    spec_s, spec_v = dsp.stft(sig)
    spec_v *= gain[:, None, None]
    spec_x = spec_s + spec_v
    return np.abs(spec_x), objectives.target_grid(model_cfg, spec_s, spec_v, spec_x)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over every grid cell."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(
            f"prediction shape {pred.shape} does not match target {target.shape}")
    diff = sub(pred, constant(target))
    return reduce_mean(mul(diff, diff))


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
    """One bias-corrected Adam update over all parameters with gradients."""
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        if p.grad is None or name in cfg.freeze:
            continue
        g = p.grad
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
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
    steps: int
    trace: list[tuple[int, float, float]]          # (step, lr, loss)


def check_freeze(cfg: TrainConfig, model_cfg: ModelConfig) -> None:
    """Raise ValueError if `cfg.freeze` names something that is not one of
    the parameters of a `model_cfg` model."""
    names = param_shapes(model_cfg)
    unknown = [name for name in cfg.freeze if name not in names]
    if unknown:
        raise ValueError(f"freeze names no parameter of this {model_cfg.pe_kind.value} "
                         f"model: {', '.join(unknown)}")


def check_step_cap(cfg: TrainConfig, n_utts: int) -> None:
    """Raise ValueError if `cfg.max_steps` is more steps than the epochs give
    a corpus of `n_utts` utterances: one per mini-batch of every epoch."""
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
    longest = max(len(utt.clean) for utt in corpus)
    if longest < int(round(cfg.clip_len_s * dsp.SAMPLE_RATE)):
        raise ValueError(f"no corpus utterance is at least one clip long: the longest "
                         f"is {longest / dsp.SAMPLE_RATE:g} s, train.clip_len_s is "
                         f"{cfg.clip_len_s:g} s")
    check_freeze(cfg, model.config)
    check_step_cap(cfg, len(corpus))
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
        clip_gradients(model.params, cfg.grad_clip)
        adam_step(model.params, state, lr, cfg)
        trace.append((step, lr, float(loss.data)))
        # Free the step's tape now; otherwise it lives on through the next
        # batch and forward, until `loss` is rebound.
        del loss
        if cfg.max_steps and step >= cfg.max_steps:
            break
    if ckpt_path:
        save_checkpoint(ckpt_path, model, step=step)
    if loss_csv:
        write_loss_csv(loss_csv, trace)
    return TrainResult(steps=step, trace=trace)


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


def _config_dict(cfg: ModelConfig) -> dict:
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
    meta = {"model_config": _config_dict(model.config), "step": int(step)}
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
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.path = path
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.read(8))[0]


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
        r = _Reader(f.read(), path)
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
        count = math.prod(shape)
        data = np.frombuffer(r.read(8 * count), dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
        records[name] = np.array(data, dtype=np.float64)
    # The records are copies: free the file image before the model is built.
    del r

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
