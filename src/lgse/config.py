"""Run configuration: JSON config file plus dotted-key command-line overrides.

A run config merges the model, training, synthesis, and experiment sections
with one master seed. Unknown keys are rejected, never ignored. Unless set
explicitly, `train.seed` and `model.init_seed` are derived from the master
seed so one integer pins the whole pipeline.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields, replace
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


_SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
    "synth": SynthConfig,
    "suite": TestSuiteConfig,
    "experiment": ExperimentConfig,
}

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
    "train.snr_low_db": "lowest mixing SNR (inclusive)",
    "train.snr_high_db": "highest mixing SNR (inclusive)",
    "train.epochs": "passes over the corpus",
    "train.max_steps": "hard step cap (0 = epochs only)",
    "train.w_steps": "warmup steps in the learning-rate schedule",
    "train.grad_clip": "elementwise gradient clip bound",
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


def _coerce(name: str, ftype: Any, value: Any):
    """Coerce a JSON or string override value to the dataclass field type."""
    base = str(ftype)
    try:
        if "tuple" in base:
            if isinstance(value, str):
                value = [v for v in value.split(",") if v != ""]
            inner = float if "float" in base else (int if "int" in base else str)
            return tuple(inner(v) for v in value)
        if ftype is bool or base == "bool":
            if isinstance(value, bool):
                return value
            if str(value).lower() in ("1", "true", "yes"):
                return True
            if str(value).lower() in ("0", "false", "no"):
                return False
            raise ValueError(value)
        if ftype is int or base == "int":
            return int(value)
        if ftype is float or base == "float":
            return float(value)
        return value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name!r}: {value!r}") from exc


def _field_map(cls) -> dict[str, dataclasses.Field]:
    return {f.name: f for f in fields(cls)}


def _apply_section(obj, section: str, updates: dict[str, Any], provided: set[str]):
    fmap = _field_map(type(obj))
    clean = {}
    for key, value in updates.items():
        if key not in fmap:
            raise ConfigError(f"unknown config key {section + '.' + key!r}")
        clean[key] = _coerce(f"{section}.{key}", fmap[key].type, value)
        provided.add(f"{section}.{key}")
    return replace(obj, **clean) if clean else obj


def load_run_config(path=None, overrides: list[str] | None = None,
                    seed: int | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus `a.b=c` overrides."""
    cfg = RunConfig()
    provided: set[str] = set()
    if path is not None:
        with open(path, encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
        for key, value in doc.items():
            if key == "seed":
                cfg.seed = _coerce("seed", int, value)
                provided.add("seed")
            elif key in _SECTIONS:
                if not isinstance(value, dict):
                    raise ConfigError(f"section {key!r} must be an object")
                setattr(cfg, key, _apply_section(getattr(cfg, key), key, value,
                                                 provided))
            else:
                raise ConfigError(f"unknown config key {key!r}")
    # Overrides are applied one section at a time, so a valid final config
    # never fails on an intermediate pair (a new d_model with the old n_heads).
    updates: dict[str, dict[str, Any]] = {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, value = item.split("=", 1)
        if dotted == "seed":
            cfg.seed = _coerce("seed", int, value)
            provided.add("seed")
            continue
        if "." not in dotted:
            raise ConfigError(f"unknown config key {dotted!r}")
        section, key = dotted.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config key {dotted!r}")
        updates.setdefault(section, {})[key] = value
    for section, values in updates.items():
        setattr(cfg, section,
                _apply_section(getattr(cfg, section), section, values, provided))
    # ModelConfig takes any k_bins so that tests can build small models, but
    # only the fixed STFT's bin count can train or enhance audio.
    if cfg.model.k_bins != N_BINS:
        raise ConfigError(f"model.k_bins must be {N_BINS} (the STFT's bins per "
                          f"frame), got {cfg.model.k_bins}")
    if seed is not None:
        cfg.seed = seed
        provided.add("seed")
    # Derive sub-seeds not pinned explicitly.
    if "train.seed" not in provided:
        cfg.train = replace(cfg.train, seed=derived_seed(cfg.seed, "train"))
    if "model.init_seed" not in provided:
        cfg.model = replace(cfg.model, init_seed=derived_seed(cfg.seed, "init"))
    return cfg


def config_key_lines() -> list[str]:
    """`key (default: value)  help` line for every config key."""
    defaults = RunConfig()
    lines = []
    for dotted, text in KEY_HELP.items():
        if "." in dotted:
            section, key = dotted.split(".", 1)
            value = getattr(getattr(defaults, section), key)
        else:
            value = getattr(defaults, dotted)
        if isinstance(value, tuple):
            shown = ",".join(str(v) for v in value) or "(empty)"
        elif hasattr(value, "value"):
            shown = value.value
        else:
            shown = str(value)
        lines.append(f"  {dotted} (default: {shown})  {text}")
    return lines


def assert_help_covers_all_fields() -> None:
    """Raise ConfigError if a config field has no KEY_HELP line or a KEY_HELP
    line names no config field; the CLI tests call it."""
    keys = {"seed"} | {f"{section}.{f.name}" for section, cls in _SECTIONS.items()
                       for f in fields(cls)}
    missing, stale = sorted(keys - set(KEY_HELP)), sorted(set(KEY_HELP) - keys)
    if missing:
        raise ConfigError(f"config keys missing help text: {missing}")
    if stale:
        raise ConfigError(f"help text for keys that are not config fields: {stale}")
