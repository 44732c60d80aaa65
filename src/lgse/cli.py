"""Command-line surface: synth | train | enhance | experiment | selftest.

Every command reads one JSON config (optional) plus repeatable
`--set section.key=value` overrides; flags win over the file. All outputs are
byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dsp, selftest
from .config import ConfigError, RunConfig, config_key_lines, load_run_config
from .evaluate import chunk_starts, enhance_chunked, enhance_full, run_lengen_experiment
from .model import CapabilityError, EnhancementModel
from .posenc import PeKind
from .training import CheckpointError, load_checkpoint, train

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    epilog = "configuration keys (settable via --set key=value or the config file):\n"
    epilog += "\n".join(config_key_lines())
    epilog += "\nDefaults follow the reference recipe for this architecture."
    parser = argparse.ArgumentParser(
        prog="lgse",
        description="Length-generalization studio for Transformer-based "
                    "speech enhancement.",
        epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--seed", type=int, help="master seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a clean/noise WAV corpus")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train", help="train one model on a synthesized corpus")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-csv", help="per-step step,lr,loss trace")
    p.add_argument("--pe", choices=[k.value for k in PeKind],
                   help="shortcut for --set model.pe_kind=...")
    p.add_argument("--target", choices=["ms", "irm", "psm", "cirm"],
                   help="shortcut for --set model.target=...")
    p.add_argument("--steps", type=int, help="shortcut for --set train.max_steps=...")

    p = sub.add_parser("enhance", help="enhance one WAV file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=["full", "seg", "seg-o"], default="full")
    p.add_argument("--chunk-s", type=float, default=0.0,
                   help="chunk length for seg modes (0 = train.clip_len_s)")

    p = sub.add_parser("experiment",
                       help="train per-scheme models and score length generalization")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--retrain", action="store_true",
                   help="ignore checkpoints already in --out-dir")

    p = sub.add_parser("selftest", help="run per-module oracle and invariant checks")
    p.add_argument("--fast", action="store_true", help="skip the slower checks")
    return parser


def _load(args) -> RunConfig:
    return load_run_config(args.config, args.overrides, seed=args.seed)


def cmd_synth(cfg: RunConfig, args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    corpus = dsp.synth_corpus(cfg.seed, cfg.synth.n_utts, cfg.synth.dur_s)
    pairs = []
    for i, utt in enumerate(corpus):
        cid = f"utt_{i:04d}"
        clean_name, noise_name = f"{cid}_clean.wav", f"{cid}_noise.wav"
        dsp.write_wav(os.path.join(args.out_dir, clean_name), utt.clean)
        dsp.write_wav(os.path.join(args.out_dir, noise_name), utt.noise)
        pairs.append({"id": cid, "clean": clean_name, "noise": noise_name,
                      "duration_s": utt.clean.duration_s,
                      "clean_freqs_hz": list(utt.clean_freqs_hz),
                      "noise_kind": utt.noise_kind})
    manifest = {"seed": cfg.seed, "n_utts": cfg.synth.n_utts,
                "dur_s": cfg.synth.dur_s, "sample_rate": dsp.SAMPLE_RATE,
                "pairs": pairs}
    with open(os.path.join(args.out_dir, "manifest.json"), "w",
              encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"wrote {len(pairs)} pairs to {args.out_dir}")
    return 0


def _read_corpus(corpus_dir: str) -> list[dsp.Utterance]:
    manifest_path = os.path.join(corpus_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no manifest.json in {corpus_dir}; run synth first")
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    corpus = []
    for pair in manifest["pairs"]:
        corpus.append(dsp.Utterance(
            clean=dsp.read_wav(os.path.join(corpus_dir, pair["clean"])),
            noise=dsp.read_wav(os.path.join(corpus_dir, pair["noise"])),
            clean_freqs_hz=tuple(pair.get("clean_freqs_hz", ())),
            noise_kind=pair.get("noise_kind", "")))
    return corpus


def cmd_train(cfg: RunConfig, args) -> int:
    if args.pe:
        cfg.model = cfg.model.with_pe(args.pe)
    if args.target:
        from dataclasses import replace
        from .objectives import TargetKind
        cfg.model = replace(cfg.model, target=TargetKind(args.target))
    if args.steps is not None:
        from dataclasses import replace
        cfg.train = replace(cfg.train, max_steps=args.steps)
    corpus = _read_corpus(args.corpus_dir)
    model = EnhancementModel(cfg.model)
    result = train(model, corpus, cfg.train, ckpt_path=args.out,
                   loss_csv=args.loss_csv)
    last = result.trace[-1][2] if result.trace else float("nan")
    print(f"trained {result.steps} steps; final loss {last:.6g}; "
          f"checkpoint at {args.out}")
    return 0


def cmd_enhance(cfg: RunConfig, args) -> int:
    model, _, _, _, _ = load_checkpoint(args.checkpoint)
    noisy = dsp.read_wav(args.input)
    chunk_s = args.chunk_s if args.chunk_s > 0 else cfg.train.clip_len_s
    if args.mode == "full":
        est = enhance_full(model, noisy)
    else:
        overlap = 0.0 if args.mode == "seg" else 0.5
        n_chunks = len(chunk_starts(len(noisy),
                                    int(round(chunk_s * dsp.SAMPLE_RATE)), overlap))
        print(f"mode {args.mode}: {n_chunks} chunks of {chunk_s:g}s")
        est = enhance_chunked(model, noisy, chunk_s, overlap)
    dsp.write_wav(args.output, est)
    print(f"wrote {args.output} ({est.duration_s:.2f}s)")
    return 0


def cmd_experiment(cfg: RunConfig, args) -> int:
    from dataclasses import replace
    exp = replace(cfg.experiment, retrain=args.retrain or cfg.experiment.retrain)
    report = run_lengen_experiment(cfg.seed, cfg.model, cfg.train, exp,
                                   cfg.suite, args.out_dir)
    print(f"wrote {os.path.join(args.out_dir, 'report.csv')} "
          f"({len(report.rows)} rows) and report.md")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return selftest.run(fast=args.fast)
        cfg = _load(args)
        if args.command == "synth":
            return cmd_synth(cfg, args)
        if args.command == "train":
            return cmd_train(cfg, args)
        if args.command == "enhance":
            return cmd_enhance(cfg, args)
        if args.command == "experiment":
            return cmd_experiment(cfg, args)
        parser.error(f"unknown command {args.command}")
    except (ConfigError, FileNotFoundError, ValueError, CheckpointError,
            CapabilityError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
