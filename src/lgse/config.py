"""Run configuration: JSON config file plus dotted-key command-line overrides.

A run config merges the model, training, synthesis, and experiment sections
with one master seed. Unknown keys are rejected, never ignored. Unless set
explicitly, `train.seed` and `model.init_seed` are derived from the master
seed so one integer pins the whole pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import Any

from .dsp import N_BINS, derived_seed, require_one_frame
from .evaluate import ExperimentConfig, TestSuiteConfig
from .model import ModelConfig
from .objectives import TargetKind
from .posenc import SCHEMES
from .training import TrainConfig

__all__ = [
    "SynthConfig",
    "RunConfig",
    "ConfigError",
    "load_run_config",
    "config_key_lines",
]


class ConfigError(ValueError):
    """Bad key or value in a config file or override."""


@dataclass(frozen=True)
class SynthConfig:
    n_utts: int = 20
    dur_s: float = 4.0

    def __post_init__(self):
        if self.n_utts < 1:
            raise ValueError(f"n_utts must be at least 1, got {self.n_utts}")
        require_one_frame("dur_s", self.dur_s)


@dataclass
class RunConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    suite: TestSuiteConfig = field(default_factory=TestSuiteConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)


_SECTIONS = [f.name for f in fields(RunConfig)
             if is_dataclass(f.default_factory)]

# One help line per key so --help can enumerate the whole surface.
KEY_HELP = {
    "seed": "master seed; all sub-streams derive from it",
    "model.n_layers": "Transformer layers N",
    "model.n_heads": "attention heads H",
    "model.d_model": "embedding width",
    "model.d_ff": "feed-forward inner width",
    "model.k_bins": f"frequency bins per frame; must be fft/2+1 = {N_BINS}",
    "model.pe_kind": "positional encoding: " + "|".join(k.value for k in SCHEMES),
    "model.target": "training objective: " + "|".join(k.value for k in TargetKind),
    "model.bertpos_max_len": "trained absolute-embedding rows L'",
    "model.init_seed": "weight-init seed (derived from master seed by default)",
    "train.clip_len_s": "training clip length in seconds",
    "train.batch_utts": "clean utterances per mini-batch",
    "train.epochs": "passes over the corpus",
    "train.max_steps": "hard step cap (0 = epochs only)",
    "train.w_steps": "warmup steps in the learning-rate schedule",
    "train.seed": "training-stream seed (derived from master seed by default)",
    "train.freeze": "comma-separated parameter names excluded from updates",
    "synth.n_utts": "utterance pairs to synthesize",
    "synth.dur_s": "utterance duration in seconds",
    "suite.durations_s": "test durations in seconds",
    "suite.snrs_db": "test SNR levels in dB",
    "suite.utts_per_condition": "mixtures per (duration, SNR) cell",
    "experiment.kinds": "positional-encoding schemes to train and compare",
    "experiment.modes": "inference modes among full,seg,seg-o",
    "experiment.chunk_s": "chunk length for seg modes (0 = training clip length)",
    "experiment.train_utts": "training-corpus utterances",
    "experiment.train_utt_dur_s": "training-corpus utterance duration",
    "experiment.retrain": "ignore existing checkpoints and retrain",
}


def _coerce(name: str, default: Any, value: Any):
    """Coerce a JSON or `--set` string value to the type of the key's default.
    A tuple's elements take its first element's type (str when empty). A bool
    is refused for a number and a fraction for an int; enums are left to their
    section's own check."""
    try:
        if isinstance(default, tuple):
            if isinstance(value, str):
                value = [v for v in value.split(",") if v != ""]
            return tuple(_coerce(name, default[0] if default else "", v) for v in value)
        if isinstance(default, Enum):
            return value
        if isinstance(default, bool):
            return {"1": True, "true": True, "yes": True, "0": False, "false": False,
                    "no": False}[str(value).lower()]
        if isinstance(value, bool) or (isinstance(default, int) and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(value)
        return type(default)(value)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {name!r}: {value!r}") from exc


def _key_defaults() -> dict[str, Any]:
    """Every config key, dotted, with its default value."""
    cfg = RunConfig()
    out: dict[str, Any] = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name in _SECTIONS:
            out.update((f"{f.name}.{g.name}", getattr(value, g.name))
                       for g in fields(value))
        else:
            out[f.name] = value
    return out


def _file_pairs(path) -> list[tuple[str, Any]]:
    """The (dotted key, value) pairs of a JSON config file, in file order."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    pairs = []
    for key, value in doc.items():
        if key not in _SECTIONS:
            if "." in key:
                raise ConfigError(f"unknown config key {key!r}")
            pairs.append((key, value))
        elif not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be an object")
        else:
            pairs += [(f"{key}.{k}", v) for k, v in value.items()]
    return pairs


def load_run_config(path=None, overrides: list[str] | None = None,
                    seed: int | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file, `a.b=c` overrides and a
    master seed. The file's keys, then each override in order, then `seed`
    form one list of pairs in which a later pair wins. Each section is built
    once from its final values, so a valid final config never fails on an
    intermediate pair (a new d_model with the old n_heads)."""
    pairs = [] if path is None else _file_pairs(path)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        pairs.append(tuple(item.split("=", 1)))
    if seed is not None:
        pairs.append(("seed", seed))
    defaults, values = _key_defaults(), {}
    for key, value in dict(pairs).items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, defaults[key], value)
    # Sub-seeds not pinned explicitly derive from the master seed.
    master = values.get("seed", defaults["seed"])
    if master < 0:
        raise ConfigError(f"seed must be at least 0, got {master}")
    values.setdefault("train.seed", derived_seed(master, "train"))
    values.setdefault("model.init_seed", derived_seed(master, "init"))
    cfg = RunConfig(seed=master)
    for s in _SECTIONS:
        mine = {k[len(s) + 1:]: v for k, v in values.items() if k.startswith(s + ".")}
        setattr(cfg, s, replace(getattr(cfg, s), **mine))
    # ModelConfig takes any k_bins so that tests can build small models, but
    # only the fixed STFT's bin count can train or enhance audio.
    if cfg.model.k_bins != N_BINS:
        raise ConfigError(f"model.k_bins must be {N_BINS} (the STFT's bins per "
                          f"frame), got {cfg.model.k_bins}")
    return cfg


def config_key_lines() -> list[str]:
    """`key (default: value)  help` line for every config key."""
    defaults = _key_defaults()
    lines = []
    for dotted, text in KEY_HELP.items():
        value = defaults[dotted]
        if isinstance(value, tuple):
            shown = ",".join(str(v) for v in value) or "(empty)"
        elif hasattr(value, "value"):
            shown = value.value
        else:
            shown = str(value)
        lines.append(f"  {dotted} (default: {shown})  {text}")
    return lines

