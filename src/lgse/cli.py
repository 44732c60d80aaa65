"""Command-line surface: synth | train | enhance | experiment.

Every command reads one JSON config (optional) plus repeatable
`--set section.key=value` overrides. They form one list of keys in which a
later value wins: the file, then each `--set` in order, then `train`'s
`--pe/--target/--steps` shortcuts, then `--seed`. All outputs are byte-stable
for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dsp
from .config import ConfigError, RunConfig, config_key_lines, load_run_config
from .evaluate import (MODES, chunk_starts, enhance_chunked, enhance_full,
                       run_lengen_experiment, seg_chunk_s)
from .model import EnhancementModel
from .objectives import TargetKind
from .posenc import CapabilityError, PeKind
from .training import CheckpointError, load_checkpoint, train, write_loss_csv

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    epilog = "configuration keys (settable via --set key=value or the config file):\n"
    epilog += "\n".join(config_key_lines())
    epilog += """
The defaults are the paper's reference recipe (a 4 x 256 model, w_steps 40,000),
whose learning rate at step 1,000 is 7.8e-6: they cannot train in a practical
budget on a CPU box. The desk preset, a 2 x 32 model that can:
  --set model.n_layers=2 --set model.n_heads=4 --set model.d_model=32 --set model.d_ff=128
  --set train.clip_len_s=0.5 --set train.w_steps=250"""
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
    p.add_argument("--target", choices=[k.value for k in TargetKind],
                   help="shortcut for --set model.target=...")
    p.add_argument("--steps", type=int, help="shortcut for --set train.max_steps=...")

    p = sub.add_parser("enhance", help="enhance one WAV file",
                       description="Enhance one WAV file. A long input runs on "
                                   "worker threads, as many as lgse.workers.count "
                                   "allows; the output bytes do not depend on how "
                                   "many.")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=list(MODES), default="full")
    p.add_argument("--chunk-s", type=float, default=0.0,
                   help="chunk length in seconds for the seg modes: 0 (the default) "
                        "uses train.clip_len_s, otherwise at least one analysis "
                        f"window ({dsp.WIN_LEN / dsp.SAMPLE_RATE:g} s)")

    p = sub.add_parser("experiment",
                       help="train per-scheme models and score length generalization",
                       description="Train one model per scheme, then score every suite "
                                   "mixture, on worker processes, as many as "
                                   "lgse.workers.count allows. The output bytes do not "
                                   "depend on how many. A model_<kind>.lgse in --out-dir "
                                   "is reused if its model settings match, whatever seed "
                                   "or train settings made it: use one --out-dir per "
                                   "seed, or experiment.retrain=1.")
    p.add_argument("--out-dir", required=True)
    return parser


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
                      "duration_s": utt.clean.duration_s})
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
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: invalid JSON ({exc})") from None
    pairs = manifest.get("pairs") if isinstance(manifest, dict) else None
    if not isinstance(pairs, list):
        raise ValueError(f"{manifest_path}: expected an object whose 'pairs' key "
                         f"holds a list of clean/noise file pairs")
    corpus = []
    for i, pair in enumerate(pairs):
        for key in ("clean", "noise"):
            if not isinstance(pair, dict) or not isinstance(pair.get(key), str):
                raise ValueError(f"{manifest_path}: pairs[{i}] has no '{key}' "
                                 f"file name")
        corpus.append(dsp.Utterance(
            clean=dsp.read_wav(os.path.join(corpus_dir, pair["clean"])),
            noise=dsp.read_wav(os.path.join(corpus_dir, pair["noise"]))))
    return corpus


def cmd_train(cfg: RunConfig, args) -> int:
    # Before the corpus loads and the steps run.
    for path in (args.out, args.loss_csv):
        if path:
            _check_writable(path)
    corpus = _read_corpus(args.corpus_dir)
    model = EnhancementModel(cfg.model)
    trace = train(model, corpus, cfg.train, ckpt_path=args.out).trace
    if args.loss_csv:
        write_loss_csv(args.loss_csv, trace)
    print(f"trained {len(trace)} steps; final loss {trace[-1][2]:.6g}; "
          f"checkpoint at {args.out}")
    return 0


def _check_writable(path) -> None:
    """Raise now the OSError that writing `path` would raise, and leave no
    file behind that was not there."""
    existed = os.path.lexists(path)
    with open(path, "ab"):
        pass
    if not existed:
        os.remove(path)


def cmd_enhance(cfg: RunConfig, args) -> int:
    chunk_s = seg_chunk_s("--chunk-s", args.chunk_s, cfg.train.clip_len_s)
    # Before the checkpoint loads and the forward runs, whose cost grows
    # with the input.
    _check_writable(args.output)
    noisy = dsp.read_wav(args.input)
    overlap = MODES[args.mode]
    if overlap is not None:
        chunk_len = int(round(chunk_s * dsp.SAMPLE_RATE))
        if chunk_len > len(noisy):
            raise ValueError(f"--chunk-s: a {chunk_s:g} s chunk is longer than "
                             f"{args.input} ({noisy.duration_s:g} s)")
    model, _ = load_checkpoint(args.checkpoint)
    if overlap is None:
        est = enhance_full(model, noisy)
    else:
        n_chunks = len(chunk_starts(len(noisy), chunk_len, overlap))
        print(f"mode {args.mode}: {n_chunks} chunks of {chunk_s:g}s")
        est = enhance_chunked(model, noisy, chunk_s, overlap)
    dsp.write_wav(args.output, est)
    print(f"wrote {args.output} ({est.duration_s:.2f}s)")
    return 0


def cmd_experiment(cfg: RunConfig, args) -> int:
    report = run_lengen_experiment(cfg.seed, cfg.model, cfg.train, cfg.experiment,
                                   cfg.suite, args.out_dir)
    print(f"wrote {os.path.join(args.out_dir, 'report.csv')} "
          f"({len(report.rows)} rows) and report.md")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # train's shortcut flags are pairs after every --set.
        shortcuts = [f"{key}={vars(args)[flag]}" for flag, key in (
            ("pe", "model.pe_kind"), ("target", "model.target"),
            ("steps", "train.max_steps")) if vars(args).get(flag) is not None]
        cfg = load_run_config(args.config, args.overrides + shortcuts, seed=args.seed)
        commands = {"synth": cmd_synth, "train": cmd_train, "enhance": cmd_enhance,
                    "experiment": cmd_experiment}
        return commands[args.command](cfg, args)
    except (ConfigError, OSError, ValueError, CheckpointError,
            CapabilityError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
