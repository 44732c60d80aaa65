"""Training loop: on-the-fly mixing, mask-approximation MSE, Adam with the
warmup schedule, elementwise gradient clipping, and bit-exact checkpoints."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import dsp, objectives
from .dsp import DEFAULT_STFT, StftConfig, Utterance
from .model import EnhancementModel, ModelConfig
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
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "write_loss_csv",
]

CHECKPOINT_MAGIC = b"LGSE"
CHECKPOINT_VERSION = 1


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-9
    grad_clip: float = 1.0
    seed: int = 0
    checkpoint_every: int = 0     # extra periodic saves; final save always happens
    freeze: tuple[str, ...] = ()  # parameter names excluded from updates

    def __post_init__(self):
        if self.snr_high_db < self.snr_low_db:
            raise ValueError("snr_high_db must be >= snr_low_db")
        dsp.require_one_frame("clip_len_s", self.clip_len_s)
        if self.batch_utts < 1:
            raise ValueError(f"batch_utts must be at least 1, got {self.batch_utts}")


def lr_schedule(n_step: int, w_steps: int, d_model: int) -> float:
    """d_model^-0.5 * min(n * w^-1.5, n^-0.5); rises for w steps, then decays."""
    if n_step < 1:
        raise ValueError(f"n_step must be >= 1, got {n_step}")
    return d_model ** -0.5 * min(n_step * w_steps ** -1.5, n_step ** -0.5)


def make_batch(utts: list[Utterance], cfg: TrainConfig, rng: np.random.Generator,
               model_cfg: ModelConfig,
               stft_cfg: StftConfig = DEFAULT_STFT) -> tuple[np.ndarray, np.ndarray]:
    """Split each clean utterance into fixed clips (last partial dropped) and
    mix each clip with a random noise segment at a random integer SNR.

    Returns the noisy magnitudes |X|, shaped (B, L, K), and the loss target,
    shaped (B, L, K) or (B, L, 2K) for cIRM. B counts the usable clips and is
    0 when there is none. All spectra come from one STFT over the stacked
    clean clips, scaled noise and mixtures.
    """
    clip_len = int(round(cfg.clip_len_s * dsp.SAMPLE_RATE))
    clean: list[np.ndarray] = []
    noise: list[np.ndarray] = []
    for utt in utts:
        for c in range(len(utt.clean) // clip_len):
            src = utts[int(rng.integers(0, len(utts)))].noise.samples
            if len(src) < clip_len:
                continue
            offset = int(rng.integers(0, len(src) - clip_len + 1))
            snr = int(rng.integers(cfg.snr_low_db, cfg.snr_high_db + 1))
            clip = utt.clean.samples[c * clip_len:(c + 1) * clip_len]
            seg = src[offset:offset + clip_len]
            clean.append(clip)
            noise.append(dsp.noise_gain_for_snr(clip, seg, snr) * seg)
    s = np.reshape(clean, (-1, clip_len))
    v = np.reshape(noise, (-1, clip_len))
    spec_s, spec_v, spec_x = dsp.stft(np.stack([s, v, s + v]), stft_cfg)
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
    """Elementwise value clipping of every populated gradient to [-limit, limit]."""
    for t in params.values():
        if t.grad is not None:
            np.clip(t.grad, -limit, limit, out=t.grad)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update over all parameters with gradients."""
    state.t += 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        if p.grad is None or name in cfg.freeze:
            continue
        g = p.grad
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@dataclass
class TrainResult:
    steps: int
    trace: list[tuple[int, float, float]]          # (step, lr, loss)


def check_freeze(cfg: TrainConfig, model: EnhancementModel) -> None:
    """Raise ValueError if `cfg.freeze` names something that is not one of
    the model's parameters."""
    unknown = [name for name in cfg.freeze if name not in model.params]
    if unknown:
        raise ValueError(f"freeze names no parameter of this {model.config.pe_kind.value} "
                         f"model: {', '.join(unknown)}")


def train(model: EnhancementModel, corpus: list[Utterance], cfg: TrainConfig, *,
          ckpt_path=None, loss_csv=None, adam_state: AdamState | None = None,
          start_step: int = 0, rng: np.random.Generator | None = None,
          resume_epoch: tuple[int, list[int], int] | None = None) -> TrainResult:
    """Shuffled-epoch training; deterministic given cfg.seed.

    Resuming from a checkpoint restores the optimizer state, the RNG, and the
    position inside the interrupted epoch, so the next step is bit-identical
    to an uninterrupted run.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    longest = max(len(utt.clean) for utt in corpus)
    if longest < int(round(cfg.clip_len_s * dsp.SAMPLE_RATE)):
        raise ValueError(f"no corpus utterance is at least one clip long: the longest "
                         f"is {longest / dsp.SAMPLE_RATE:g} s, train.clip_len_s is "
                         f"{cfg.clip_len_s:g} s")
    check_freeze(cfg, model)
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(0x7472,)))
    state = adam_state if adam_state is not None else AdamState()
    result = TrainResult(steps=start_step, trace=[])

    step = start_step
    epoch0 = 0
    pending: tuple[list[int], int] | None = None
    if resume_epoch is not None:
        epoch0, order_list, pos = resume_epoch
        pending = (order_list, pos)

    done = False
    epoch, order, pos = epoch0, [], 0
    for epoch in range(epoch0, cfg.epochs):
        if pending is not None:
            order, pos = pending
            pending = None
        else:
            order, pos = list(rng.permutation(len(corpus))), 0
        while pos < len(order):
            utts = [corpus[i] for i in order[pos:pos + cfg.batch_utts]]
            pos += cfg.batch_utts
            x_mag, target = make_batch(utts, cfg, rng, model.config)
            if len(x_mag) == 0:
                continue
            step += 1
            lr = lr_schedule(step, cfg.w_steps, model.config.d_model)
            model.zero_grad()
            loss = mse_loss(model.forward(x_mag), target)
            backward(loss)
            clip_gradients(model.params, cfg.grad_clip)
            adam_step(model.params, state, lr, cfg)
            result.trace.append((step, lr, float(loss.data)))
            if ckpt_path and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
                save_checkpoint(ckpt_path, model, state, step,
                                rng_state=rng.bit_generator.state,
                                epoch_state=(epoch, [int(i) for i in order], pos))
            if cfg.max_steps and step >= cfg.max_steps:
                done = True
                break
        if done:
            break
    result.steps = step
    if ckpt_path:
        save_checkpoint(ckpt_path, model, state, step,
                        rng_state=rng.bit_generator.state,
                        epoch_state=(epoch, [int(i) for i in order], pos))
    if loss_csv:
        write_loss_csv(loss_csv, result.trace)
    return result


def write_loss_csv(path, trace: list[tuple[int, float, float]]) -> None:
    lines = ["step,lr,loss"]
    lines += [f"{s},{lr!r},{loss!r}" for s, lr, loss in trace]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# -- checkpoint serialization -------------------------------------------------
#
# Layout (all little-endian):
#   magic "LGSE" | u32 version | u64 meta_len | meta JSON (sorted keys)
#   | u32 n_records | records
# record: u32 name_len | name utf8 | u32 ndim | u64 dims... | f64 payload...
# Records are sorted by name; parameters are "param.<name>", Adam moments
# "adam.m.<name>" / "adam.v.<name>", fixed buffers "buffer.<name>".


def _record_header(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    return (struct.pack("<I", len(nb)) + nb + struct.pack("<I", arr.ndim)
            + struct.pack(f"<{arr.ndim}Q", *arr.shape))


def _config_dict(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    d["pe_kind"] = cfg.pe_kind.value
    d["target"] = cfg.target.value
    return d


def save_checkpoint(path, model: EnhancementModel, state: AdamState | None,
                    step: int, rng_state: dict | None = None,
                    epoch_state: tuple[int, list[int], int] | None = None) -> None:
    meta = {
        "model_config": _config_dict(model.config),
        "step": int(step),
        "adam_t": state.t if state is not None else None,
        "rng_state": rng_state,
        "epoch_state": None if epoch_state is None else
            {"epoch": epoch_state[0], "order": epoch_state[1], "pos": epoch_state[2]},
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    records: dict[str, np.ndarray] = {}
    for name, t in model.params.items():
        records[f"param.{name}"] = t.data
    for name, arr in model.buffers.items():
        records[f"buffer.{name}"] = arr
    if state is not None:
        for name, arr in state.m.items():
            records[f"adam.m.{name}"] = arr
        for name, arr in state.v.items():
            records[f"adam.v.{name}"] = arr
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


def _stored_progress(path, meta: dict) -> tuple[int, tuple[int, list[int], int] | None]:
    """The checkpoint's step and its optional (epoch, order, pos) epoch state."""
    def integer(value, name: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise CheckpointError(f"{path}: meta {name} must be an integer, "
                                  f"got {value!r}")
        return value

    step = integer(meta.get("step"), "step")
    es = meta.get("epoch_state")
    if not es:
        return step, None
    if not isinstance(es, dict) or not isinstance(es.get("order"), list):
        raise CheckpointError(f"{path}: meta epoch_state must hold an order list, "
                              f"got {es!r}")
    return step, (integer(es.get("epoch"), "epoch_state.epoch"),
                  [integer(i, "epoch_state.order entry") for i in es["order"]],
                  integer(es.get("pos"), "epoch_state.pos"))


def load_checkpoint(path) -> tuple[EnhancementModel, AdamState, int, dict | None,
                                   tuple[int, list[int], int] | None]:
    """Rebuild the model (and optimizer/RNG state) from a checkpoint file.

    Every tensor must be finite and have the shape a fresh model of the
    stored config would have; the stored config must name every ModelConfig
    field and nothing else; the meta block must hold an integer step and, if
    any, an epoch state of integers. Any violation raises CheckpointError.
    """
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    if r.read(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    meta = json.loads(r.read(r.u64()).decode("utf-8"))
    n_records = r.u32()
    records: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        name = r.read(r.u32()).decode("utf-8")
        ndim = r.u32()
        shape = tuple(r.u64() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(r.read(8 * count), dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
        records[name] = np.array(data, dtype=np.float64)
    # Free the file image before the model is built, so it never coexists
    # with both the records and a fresh model.
    del r

    model = EnhancementModel(_stored_config(path, meta))
    for name, t in model.params.items():
        key = f"param.{name}"
        if key not in records:
            raise CheckpointError(f"{path}: missing tensor {key}")
        if records[key].shape != t.data.shape:
            raise CheckpointError(
                f"{path}: tensor {key} has shape {records[key].shape}, "
                f"config implies {t.data.shape}")
        t.data = records[key]
    for name in model.buffers:
        key = f"buffer.{name}"
        if key in records:
            if records[key].shape != model.buffers[name].shape:
                raise CheckpointError(
                    f"{path}: buffer {key} has shape {records[key].shape}, "
                    f"config implies {model.buffers[name].shape}")
            model.buffers[name] = records[key]

    state = AdamState(t=meta.get("adam_t") or 0)
    for key, arr in records.items():
        if key.startswith("adam.m."):
            state.m[key[len("adam.m."):]] = arr
        elif key.startswith("adam.v."):
            state.v[key[len("adam.v."):]] = arr
    step, epoch_state = _stored_progress(path, meta)
    return model, state, step, meta.get("rng_state"), epoch_state
