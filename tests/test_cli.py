import functools
import hashlib
import json
import os
from enum import Enum

import numpy as np
import pytest

from helpers import no_child_left, param_count
from lgse import dsp
from lgse.cli import build_parser, main
from lgse.config import KEY_HELP, ConfigError, RunConfig, load_run_config
from lgse.training import GRAD_CLIP, SNR_HIGH_DB, SNR_LOW_DB


def run_cli(*argv):
    return main(list(argv))


# -- config layer ---------------------------------------------------------------


def test_defaults_match_recipe():
    cfg = load_run_config()
    assert cfg.model.n_layers == 4
    assert cfg.model.n_heads == 8
    assert cfg.model.d_model == 256
    assert cfg.model.d_ff == 1024
    assert cfg.train.w_steps == 40000
    assert (SNR_LOW_DB, SNR_HIGH_DB, GRAD_CLIP) == (-10, 20, 1.0)
    assert cfg.train.batch_utts == 10
    assert cfg.suite.durations_s == (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
    assert cfg.suite.snrs_db == (-5, 0, 5, 10, 15)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"layers": 3}}))
    with pytest.raises(ConfigError, match="model.layers"):
        load_run_config(path)
    path.write_text(json.dumps({"modle": {}}))
    with pytest.raises(ConfigError, match="modle"):
        load_run_config(path)


def test_override_and_seed_derivation(tmp_path):
    cfg = load_run_config(None, ["model.pe_kind=kerple", "train.max_steps=7",
                                 "suite.snrs_db=0,5"])
    assert cfg.model.pe_kind.value == "kerple"
    assert cfg.train.max_steps == 7
    assert cfg.suite.snrs_db == (0, 5)
    a = load_run_config(None, [], seed=1)
    b = load_run_config(None, [], seed=2)
    assert a.train.seed != b.train.seed
    assert a.model.init_seed != b.model.init_seed
    pinned = load_run_config(None, ["train.seed=123"], seed=1)
    assert pinned.train.seed == 123


def test_overrides_apply_as_one_change_per_section():
    cfg = load_run_config(None, ["model.d_model=30", "model.n_heads=3", "model.n_heads=5"])
    assert (cfg.model.d_model, cfg.model.n_heads) == (30, 5)


def test_bad_override_format():
    with pytest.raises(ConfigError):
        load_run_config(None, ["model.n_layers"])
    with pytest.raises(ConfigError):
        load_run_config(None, ["nosuch.key=1"])


def test_file_and_set_build_each_section_once(tmp_path):
    # n_heads 3 does not divide the default d_model 256, but divides the final 48.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"n_heads": 3}}))
    cfg = load_run_config(path, ["model.d_model=48"])
    assert (cfg.model.n_heads, cfg.model.d_model) == (3, 48)


@pytest.mark.parametrize("section,key,value", [
    ("model", "n_layers", 2.7), ("model", "n_layers", True),
    ("train", "max_steps", True), ("train", "clip_len_s", True),
])
def test_json_value_of_another_type_is_refused(tmp_path, section, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=f"'{section}.{key}'"):
        load_run_config(path)


def _key_value(cfg, dotted):
    return functools.reduce(getattr, dotted.split("."), cfg)


def _as_json(value):
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def _as_text(value):
    if isinstance(value, tuple):
        return ",".join(_as_text(v) for v in value)
    return value.value if isinstance(value, Enum) else str(value)


@pytest.mark.parametrize("dotted", list(KEY_HELP))
def test_every_default_loads_back_from_json_and_from_set(tmp_path, dotted):
    default = _key_value(RunConfig(), dotted)
    section, _, key = dotted.rpartition(".")
    path = tmp_path / "cfg.json"
    value = _as_json(default)
    path.write_text(json.dumps({section: {key: value}} if section else {key: value}))
    from_set = load_run_config(None, [f"{dotted}={_as_text(default)}"])
    # repr tells 1 from 1.0 and (1.0,) from (1,).
    for cfg in (load_run_config(path), from_set):
        assert repr(_key_value(cfg, dotted)) == repr(default)


def test_help_lists_every_config_key(capsys):
    from lgse.config import _key_defaults

    assert list(KEY_HELP) == list(_key_defaults())
    parser = build_parser()
    text = parser.format_help()
    for key in ("model.d_model", "train.w_steps", "suite.durations_s",
                "experiment.kinds", "model.pe_kind", "seed"):
        assert key in text
    assert "default: 256" in text       # d_model
    assert "default: 40000" in text     # w_steps


# -- synth ------------------------------------------------------------------------


def test_synth_writes_corpus_and_manifest(tmp_path):
    out = tmp_path / "corpus"
    code = run_cli("--set", "synth.n_utts=3", "--set", "synth.dur_s=0.6",
                   "--seed", "5", "synth", "--out-dir", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["pairs"]) == 3
    wav = dsp.read_wav(out / manifest["pairs"][0]["clean"])
    assert abs(wav.duration_s - 0.6) < 0.01

    # Re-running reproduces identical bytes.
    digest_a = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    wav_a = (out / manifest["pairs"][0]["clean"]).read_bytes()
    assert run_cli("--set", "synth.n_utts=3", "--set", "synth.dur_s=0.6",
                   "--seed", "5", "synth", "--out-dir", str(out)) == 0
    digest_b = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest_a == digest_b
    assert wav_a == (out / manifest["pairs"][0]["clean"]).read_bytes()


@pytest.mark.parametrize("override,field", [
    ("synth.n_utts=0", "n_utts"),
    ("synth.n_utts=-3", "n_utts"),
    ("synth.dur_s=0.001", "dur_s"),
    ("synth.dur_s=inf", "dur_s"),
    ("synth.dur_s=nan", "dur_s"),
])
def test_synth_rejects_a_corpus_nothing_can_use(tmp_path, capsys, override, field):
    err = _one_error_line(capsys, "--set", override, "synth",
                          "--out-dir", str(tmp_path / "corpus"))
    assert err.startswith(f"error: {field} must")
    assert not (tmp_path / "corpus" / "manifest.json").exists()


def test_wav_headers_are_16k_mono_16bit(tmp_path):
    import wave

    out = tmp_path / "corpus"
    run_cli("--set", "synth.n_utts=1", "--set", "synth.dur_s=0.5",
            "synth", "--out-dir", str(out))
    with wave.open(str(out / "utt_0000_clean.wav"), "rb") as f:
        assert f.getframerate() == 16000
        assert f.getnchannels() == 1
        assert f.getsampwidth() == 2


# -- train / enhance ---------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_train")
    corpus = root / "corpus"
    ckpt = root / "model.lgse"
    losses = root / "loss.csv"
    assert run_cli("--set", "synth.n_utts=2", "--set", "synth.dur_s=1.0",
                   "--seed", "3", "synth", "--out-dir", str(corpus)) == 0
    assert run_cli("--seed", "3",
                   "--set", "model.n_layers=1", "--set", "model.n_heads=2",
                   "--set", "model.d_model=16", "--set", "model.d_ff=32",
                   "--set", "train.clip_len_s=0.5", "--set", "train.batch_utts=2",
                   "--set", "train.w_steps=10",
                   "train", "--corpus-dir", str(corpus), "--out", str(ckpt),
                   "--loss-csv", str(losses), "--pe", "learnlin",
                   "--steps", "12") == 0
    return root, corpus, ckpt, losses


def test_train_produces_artifacts(trained):
    root, corpus, ckpt, losses = trained
    assert ckpt.exists()
    lines = losses.read_text().strip().split("\n")
    assert lines[0] == "step,lr,loss"
    assert len(lines) == 13


def test_train_learnlin_checkpoint_has_h_betas(trained):
    from lgse.training import load_checkpoint

    _, _, ckpt, _ = trained
    model, _ = load_checkpoint(ckpt)
    assert model.params["pe.beta"].shape == (2,)
    assert param_count(model, "pe.") == 2


def test_enhance_modes_and_duration(trained, tmp_path, capsys):
    root, corpus, ckpt, _ = trained
    noisy = tmp_path / "in.wav"
    rng = np.random.default_rng(0)
    utt = dsp.synth_corpus(8, 1, 2.0)[0]
    dsp.write_wav(noisy, dsp.mix_at_snr(utt.clean, utt.noise, 5))
    del rng

    out = tmp_path / "out.wav"
    assert run_cli("--set", "train.clip_len_s=0.5", "enhance", str(noisy),
                   str(out), "--checkpoint", str(ckpt), "--mode", "full") == 0
    assert len(dsp.read_wav(out)) == len(dsp.read_wav(noisy))

    assert run_cli("--set", "train.clip_len_s=0.5", "enhance", str(noisy),
                   str(out), "--checkpoint", str(ckpt), "--mode", "seg") == 0
    assert "4 chunks" in capsys.readouterr().out
    assert run_cli("--set", "train.clip_len_s=0.5", "enhance", str(noisy),
                   str(out), "--checkpoint", str(ckpt), "--mode", "seg-o") == 0
    assert "7 chunks" in capsys.readouterr().out


def test_enhance_bad_checkpoint_errors(tmp_path, capsys):
    bad = tmp_path / "bad.lgse"
    bad.write_bytes(b"JUNKJUNK")
    wav = tmp_path / "x.wav"
    dsp.write_wav(wav, dsp.Waveform(np.zeros(16000)))
    code = run_cli("enhance", str(wav), str(tmp_path / "y.wav"),
                   "--checkpoint", str(bad))
    assert code == 1


def test_enhance_checkpoint_with_unknown_config_key_errors(trained, tmp_path,
                                                          capsys):
    from helpers import rewrite_model_config

    _, _, ckpt, _ = trained
    bad = tmp_path / "bad.lgse"
    bad.write_bytes(ckpt.read_bytes())
    rewrite_model_config(bad, lambda c: c.update(n_experts=4))
    wav = tmp_path / "x.wav"
    dsp.write_wav(wav, dsp.Waveform(np.zeros(16000)))
    capsys.readouterr()
    code = run_cli("enhance", str(wav), str(tmp_path / "y.wav"),
                   "--checkpoint", str(bad))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n_experts" in err


@pytest.mark.parametrize("edit,field", [
    (lambda m: m.pop("step"), "step"),
])
def test_enhance_checkpoint_with_bad_meta_errors(trained, tmp_path, capsys,
                                                 edit, field):
    from helpers import rewrite_meta

    _, _, ckpt, _ = trained
    bad = tmp_path / "bad.lgse"
    bad.write_bytes(ckpt.read_bytes())
    rewrite_meta(bad, edit)
    wav = tmp_path / "x.wav"
    dsp.write_wav(wav, dsp.Waveform(np.zeros(16000)))
    capsys.readouterr()
    code = run_cli("enhance", str(wav), str(tmp_path / "y.wav"),
                   "--checkpoint", str(bad))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_enhance_checkpoint_with_unknown_record_errors(trained, tmp_path, capsys):
    from helpers import record_bytes, rewrite_records

    _, _, ckpt, _ = trained
    bad = tmp_path / "bad.lgse"
    bad.write_bytes(ckpt.read_bytes())
    rewrite_records(bad, lambda r: r.update(
        bogus=record_bytes("param.bogus", np.zeros(2))))
    wav = tmp_path / "x.wav"
    dsp.write_wav(wav, dsp.Waveform(np.zeros(16000)))
    err = _one_error_line(capsys, "enhance", str(wav), str(tmp_path / "y.wav"),
                          "--checkpoint", str(bad))
    assert "unknown records ['param.bogus']" in err
    assert not (tmp_path / "y.wav").exists()


@pytest.mark.parametrize("override,field", [
    ("train.batch_utts=0", "batch_utts"),
    ("model.n_heads=0", "n_heads"),
    ("model.d_model=0", "d_model"),
    ("model.n_layers=-1", "n_layers"),
    ("model.d_ff=0", "d_ff"),
    ("model.bertpos_max_len=4097", "bertpos_max_len"),
    # Settings removed in checkpoint formats 3 and 4: rejected as unknown keys.
    pytest.param("model.bertpos_hard_cap=10",
                 "unknown config key 'model.bertpos_hard_cap'",
                 id="model.bertpos_hard_cap=10-bertpos_hard_cap"),
    pytest.param("model.causal=1", "unknown config key 'model.causal'",
                 id="model.causal=1-causal"),
    pytest.param("model.tisa_kernels=0", "unknown config key 'model.tisa_kernels'",
                 id="model.tisa_kernels=0-tisa_kernels"),
    pytest.param("model.ln_eps=-1", "unknown config key 'model.ln_eps'",
                 id="model.ln_eps=-1-ln_eps"),
    ("train.clip_len_s=0.01", "clip_len_s"),
    ("train.clip_len_s=inf", "clip_len_s"),
    ("train.clip_len_s=nan", "clip_len_s"),
    ("train.w_steps=0", "w_steps"),
    ("train.max_steps=-1", "max_steps"),
    # Training settings that became constants: rejected as unknown keys.
    pytest.param("train.grad_clip=-1", "unknown config key 'train.grad_clip'",
                 id="train.grad_clip=-1-grad_clip"),
    pytest.param("train.grad_clip=0", "unknown config key 'train.grad_clip'",
                 id="train.grad_clip=0-grad_clip"),
    pytest.param("train.snr_low_db=0", "unknown config key 'train.snr_low_db'",
                 id="train.snr_low_db=0-snr_low_db"),
    pytest.param("train.snr_high_db=30", "unknown config key 'train.snr_high_db'",
                 id="train.snr_high_db=30-snr_high_db"),
    ("train.epochs=0", "epochs"),
    ("model.k_bins=9", "model.k_bins must be 257"),
])
def test_train_with_unusable_sizes_errors(trained, tmp_path, capsys, override, field):
    _, corpus, _, _ = trained
    capsys.readouterr()
    code = run_cli("--set", "train.max_steps=1", "--set", override, "train",
                   "--corpus-dir", str(corpus), "--out", str(tmp_path / "m.lgse"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert not (tmp_path / "m.lgse").exists()


def test_train_with_negative_steps_errors(trained, tmp_path, capsys):
    _, corpus, _, _ = trained
    err = _one_error_line(capsys, "train", "--corpus-dir", str(corpus),
                          "--out", str(tmp_path / "m.lgse"), "--steps", "-1")
    assert "max_steps" in err
    assert not (tmp_path / "m.lgse").exists()


def test_steps_flag_wins_over_set_as_a_later_set_would(trained, tmp_path):
    # The -1 is replaced before any section is built, so it is never checked.
    _, corpus, _, _ = trained
    small = ["--set", "model.n_layers=1", "--set", "model.n_heads=2",
             "--set", "model.d_model=16", "--set", "model.d_ff=32",
             "--set", "train.clip_len_s=0.5", "--set", "train.batch_utts=2",
             "--set", "train.max_steps=-1"]
    traces = []
    for last in (["--set", "train.max_steps=2", "train"], ["train", "--steps", "2"]):
        loss_csv = tmp_path / f"loss_{len(traces)}.csv"
        assert run_cli(*small, *last, "--corpus-dir", str(corpus),
                       "--out", str(tmp_path / "m.lgse"), "--loss-csv", str(loss_csv)) == 0
        traces.append(loss_csv.read_text())
    assert traces[0] == traces[1]
    assert len(traces[0].strip().split("\n")) == 3


def test_train_with_unreachable_steps_errors(trained, tmp_path, capsys):
    # Two utterances in batches of 10 make one step per epoch.
    _, corpus, _, _ = trained
    err = _one_error_line(capsys, "--set", "train.epochs=2",
                          "train", "--corpus-dir", str(corpus),
                          "--out", str(tmp_path / "m.lgse"),
                          "--loss-csv", str(tmp_path / "loss.csv"), "--steps", "3")
    assert "train.max_steps 3" in err and "train.epochs 2" in err
    assert "at most 2 steps" in err
    assert not list(tmp_path.iterdir())


def test_train_errors_when_the_batches_run_out_before_max_steps(tmp_path, capsys):
    """One 1.0 s and three 0.3 s utterances at 0.5 s clips: in batches of one,
    only the long utterance makes a step, so two epochs make 2 of 8 steps."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pairs = []
    for i, utt in enumerate(dsp.synth_corpus(11, 1, 1.0) + dsp.synth_corpus(12, 3, 0.3)):
        pairs.append({"clean": f"clean_{i}.wav", "noise": f"noise_{i}.wav"})
        dsp.write_wav(corpus / pairs[-1]["clean"], utt.clean)
        dsp.write_wav(corpus / pairs[-1]["noise"], utt.noise)
    (corpus / "manifest.json").write_text(json.dumps({"pairs": pairs}))
    out, losses = tmp_path / "m.lgse", tmp_path / "loss.csv"
    err = _one_error_line(capsys, "--set", "model.n_layers=1", "--set", "model.n_heads=2",
                          "--set", "model.d_model=16", "--set", "model.d_ff=32",
                          "--set", "train.clip_len_s=0.5", "--set", "train.batch_utts=1",
                          "--set", "train.epochs=2", "train", "--corpus-dir", str(corpus),
                          "--out", str(out), "--loss-csv", str(losses), "--steps", "8")
    assert "train.max_steps 8: the batches ran out after 2 steps" in err
    assert not out.exists() and not losses.exists()


def _one_error_line(capsys, *argv) -> str:
    capsys.readouterr()
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("content", [b"not a RIFF file", b"", b"RIFF"])
def test_enhance_unreadable_wav_errors(trained, tmp_path, capsys, content):
    _, _, ckpt, _ = trained
    bad = tmp_path / "bad.wav"
    bad.write_bytes(content)
    err = _one_error_line(capsys, "enhance", str(bad), str(tmp_path / "y.wav"),
                          "--checkpoint", str(ckpt))
    assert "bad.wav: not a readable WAV file" in err
    assert not (tmp_path / "y.wav").exists()


@pytest.mark.parametrize("chunk_s", ["-1", "0.01", "5", "inf", "nan"])
def test_enhance_rejects_unusable_chunk_length(tmp_path, capsys, chunk_s):
    # The checkpoint does not exist: the option is checked before it loads.
    # The WAV is 2 s long, so a 5 s chunk does not fit.
    noisy = tmp_path / "in.wav"
    utt = dsp.synth_corpus(8, 1, 2.0)[0]
    dsp.write_wav(noisy, dsp.mix_at_snr(utt.clean, utt.noise, 5))
    err = _one_error_line(capsys, "enhance", str(noisy), str(tmp_path / "y.wav"),
                          "--checkpoint", str(tmp_path / "missing.lgse"),
                          "--mode", "seg", "--chunk-s", chunk_s)
    assert "--chunk-s" in err
    assert not (tmp_path / "y.wav").exists()


def test_enhance_past_the_bertpos_frame_cap_errors(tmp_path, capsys):
    from lgse.model import EnhancementModel, ModelConfig
    from lgse.posenc import BERTPOS_MAX_FRAMES
    from lgse.training import save_checkpoint

    ckpt = tmp_path / "bertpos.lgse"
    save_checkpoint(ckpt, EnhancementModel(ModelConfig(
        n_layers=1, n_heads=2, d_model=8, d_ff=16, pe_kind="bertpos", bertpos_max_len=8)))
    # One frame past the cap: the first window and 4096 hops after it.
    wav = tmp_path / "long.wav"
    dsp.write_wav(wav, dsp.Waveform(np.zeros(dsp.WIN_LEN + BERTPOS_MAX_FRAMES * dsp.HOP)))
    err = _one_error_line(capsys, "enhance", str(wav), str(tmp_path / "y.wav"),
                          "--checkpoint", str(ckpt))
    assert f"bertpos supports at most {BERTPOS_MAX_FRAMES} frames, got 4097" in err
    assert not (tmp_path / "y.wav").exists()


def test_enhance_directory_input_errors(trained, tmp_path, capsys):
    _, _, ckpt, _ = trained
    err = _one_error_line(capsys, "enhance", str(tmp_path), str(tmp_path / "y.wav"),
                          "--checkpoint", str(ckpt))
    assert str(tmp_path) in err


def test_enhance_to_an_unwritable_path_prints_one_error_line(trained, tmp_path):
    """In a process of its own, so stderr also holds what the interpreter
    prints after the command, such as an error in a finalizer."""
    import subprocess
    import sys

    import lgse

    _, corpus, ckpt, _ = trained
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lgse.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "lgse", "enhance", str(corpus / "utt_0000_clean.wav"),
         str(tmp_path / "no_such_dir" / "y.wav"), "--checkpoint", str(ckpt)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "No such file or directory" in done.stderr


def test_enhance_checks_its_output_before_the_forward(trained, tmp_path, monkeypatch,
                                                     capsys):
    from lgse.model import EnhancementModel

    _, corpus, ckpt, _ = trained
    wav = str(corpus / "utt_0000_clean.wav")
    calls, predict = [], EnhancementModel.predict
    monkeypatch.setattr(EnhancementModel, "predict",
                        lambda self, *a, **kw: calls.append(1) or predict(self, *a, **kw))
    err = _one_error_line(capsys, "enhance", wav, str(tmp_path / "no_such_dir" / "y.wav"),
                          "--checkpoint", str(ckpt))
    assert "No such file or directory" in err
    assert calls == []
    # A failure after the check leaves the output as it was: absent, or its
    # old bytes.
    old = tmp_path / "old.wav"
    old.write_bytes(b"old")
    for out in (tmp_path / "y.wav", old):
        err = _one_error_line(capsys, "enhance", wav, str(out),
                              "--checkpoint", str(tmp_path / "missing.lgse"))
        assert "missing.lgse" in err
    assert not (tmp_path / "y.wav").exists() and old.read_bytes() == b"old"
    assert run_cli("enhance", wav, str(old), "--checkpoint", str(ckpt)) == 0
    assert calls == [1]
    assert dsp.read_wav(old).duration_s > 0


def test_train_checks_its_outputs_before_the_steps(trained, tmp_path, monkeypatch, capsys):
    from lgse import training

    _, corpus, _, _ = trained
    small = ["--set", "model.n_layers=1", "--set", "model.n_heads=2",
             "--set", "model.d_model=16", "--set", "model.d_ff=32",
             "--set", "train.clip_len_s=0.5", "--set", "train.batch_utts=2"]
    calls, make_batch = [], training.make_batch
    monkeypatch.setattr(training, "make_batch",
                        lambda *a, **kw: calls.append(1) or make_batch(*a, **kw))
    ckpt, missing = tmp_path / "m.lgse", tmp_path / "no_such_dir"
    for outputs in (["--out", str(missing / "m.lgse")],
                    ["--out", str(ckpt), "--loss-csv", str(missing / "loss.csv")]):
        err = _one_error_line(capsys, *small, "train", "--corpus-dir", str(corpus),
                              "--steps", "1", *outputs)
        assert "No such file or directory" in err
    assert calls == [] and not ckpt.exists()
    # A failure after the check leaves the outputs as they were: absent, or
    # their old bytes.
    old_ckpt, old_csv = tmp_path / "old.lgse", tmp_path / "old.csv"
    old_ckpt.write_bytes(b"old")
    old_csv.write_bytes(b"old")
    for out, loss_csv in ((ckpt, tmp_path / "loss.csv"), (old_ckpt, old_csv)):
        err = _one_error_line(capsys, *small, "train", "--corpus-dir",
                              str(tmp_path / "no_corpus"), "--out", str(out),
                              "--loss-csv", str(loss_csv))
        assert "no manifest.json" in err
    assert not ckpt.exists() and not (tmp_path / "loss.csv").exists()
    assert old_ckpt.read_bytes() == old_csv.read_bytes() == b"old"
    assert run_cli(*small, "train", "--corpus-dir", str(corpus), "--steps", "1",
                   "--out", str(old_ckpt), "--loss-csv", str(old_csv)) == 0
    assert calls == [1]
    assert training.load_checkpoint(old_ckpt)[1] == 1
    assert old_csv.read_text().startswith("step,lr,loss\n1,")


@pytest.mark.parametrize("override,field", [
    ("experiment.modes=full,segx", "modes"),
    ("experiment.kinds=learnlin,bogus", "kinds"),
    ("experiment.kinds=", "kinds"),
    ("experiment.kinds=learnlin,learnlin", "kinds"),
    ("experiment.modes=full,full", "modes"),
    ("suite.durations_s=0.5,0.5", "durations_s"),
    # One label, "1", names both durations' corpus seed and utt_ids.
    ("suite.durations_s=1,1.000001",
     "durations_s must be distinct; 1.000001 and 1.0 are both labelled 1"),
    ("suite.snrs_db=0,5,0", "snrs_db"),
    ("suite.durations_s=0,-1", "durations_s"),
    ("suite.durations_s=", "durations_s"),
    ("suite.snrs_db=", "snrs_db"),
    ("suite.utts_per_condition=0", "utts_per_condition"),
    ("suite.durations_s=0.02", "durations_s"),
    ("suite.durations_s=1,inf", "durations_s"),
    ("suite.durations_s=nan", "durations_s"),
    ("experiment.chunk_s=0.01", "chunk_s"),
    ("experiment.chunk_s=-1", "chunk_s"),
    ("experiment.chunk_s=inf", "chunk_s"),
    ("experiment.chunk_s=nan", "chunk_s"),
    ("train.freeze=no.such.param", "freeze"),
    ("train.freeze=pe.beta", "freeze"),
    ("train.max_steps=301", "max_steps"),
    ("experiment.train_utts=-3", "train_utts"),
    ("experiment.train_utt_dur_s=-1", "train_utt_dur_s"),
    ("experiment.train_utt_dur_s=0.01", "train_utt_dur_s"),
    ("experiment.train_utt_dur_s=inf", "train_utt_dur_s"),
    ("model.pe_kind=fire", "pe_kind must be one of nopos,"),
    ("model.target=bogus", "target must be one of ms,"),
])
def test_experiment_rejects_bad_config_before_training(tmp_path, capsys, override,
                                                       field):
    # pe.beta exists for learnlin only, so it must fail before learnlin trains.
    err = _one_error_line(capsys, "--set", "experiment.kinds=learnlin,nopos",
                          "--set", override,
                          "--set", "model.n_layers=1", "--set", "model.d_model=8",
                          "--set", "model.n_heads=2", "--set", "model.d_ff=16",
                          "experiment", "--out-dir", str(tmp_path / "exp"))
    assert field in err
    assert not (tmp_path / "exp").exists()


def test_second_experiment_loads_checkpoints_unless_retrain(tmp_path, monkeypatch,
                                                            capsys):
    from lgse import evaluate

    trained = []
    train = evaluate.train

    def spy(model, *args, **kwargs):
        trained.append(model.config.pe_kind.value)
        return train(model, *args, **kwargs)

    monkeypatch.setattr(evaluate, "train", spy)
    out = tmp_path / "exp"
    argv = ["--set", "experiment.kinds=nopos", "--set", "experiment.modes=full",
            "--set", "experiment.train_utts=2", "--set", "train.clip_len_s=0.5",
            "--set", "train.max_steps=1",
            "--set", "model.n_layers=1", "--set", "model.d_model=8",
            "--set", "model.n_heads=2", "--set", "model.d_ff=16",
            "--set", "suite.durations_s=0.5", "--set", "suite.snrs_db=0",
            "--set", "suite.utts_per_condition=1"]
    assert run_cli(*argv, "experiment", "--out-dir", str(out)) == 0
    assert trained == ["nopos"]
    ckpt, report = (out / "model_nopos.lgse").read_bytes(), (out / "report.csv").read_bytes()
    assert run_cli(*argv, "experiment", "--out-dir", str(out)) == 0
    assert trained == ["nopos"]
    assert (out / "report.csv").read_bytes() == report
    assert run_cli(*argv, "--set", "experiment.retrain=1",
                   "experiment", "--out-dir", str(out)) == 0
    assert trained == ["nopos", "nopos"]
    assert (out / "model_nopos.lgse").read_bytes() == ckpt
    # Every model setting but the init seed must match the checkpoint's.
    err = _one_error_line(capsys, *argv, "--set", "model.d_model=16",
                          "--set", "model.target=cirm",
                          "experiment", "--out-dir", str(out))
    assert str(out / "model_nopos.lgse") in err
    assert "d_model 8 (requested 16)" in err and "target irm (requested cirm)" in err
    assert "experiment.retrain=1" in err
    assert trained == ["nopos", "nopos"]
    assert (out / "report.csv").read_bytes() == report
    assert (out / "model_nopos.lgse").read_bytes() == ckpt
    # Only model settings are checked. Another master seed derives another
    # init and train seed, and another step cap trains another model, yet
    # the saved model still loads.
    assert run_cli("--seed", "9", *argv, "experiment", "--out-dir", str(out)) == 0
    assert run_cli(*argv, "--set", "train.max_steps=2",
                   "experiment", "--out-dir", str(out)) == 0
    assert trained == ["nopos", "nopos"]
    assert (out / "model_nopos.lgse").read_bytes() == ckpt
    assert (out / "report.csv").read_bytes() == report


TINY_EXPERIMENT = ["--set", "experiment.modes=full", "--set", "experiment.train_utts=2",
                   "--set", "train.clip_len_s=0.5", "--set", "train.max_steps=1",
                   "--set", "model.n_layers=1", "--set", "model.d_model=8",
                   "--set", "model.n_heads=2", "--set", "model.d_ff=16",
                   "--set", "suite.snrs_db=0", "--set", "suite.utts_per_condition=1"]


def test_experiment_rejects_an_odd_rope_head_width_before_writing(tmp_path, capsys):
    # A head width of 3 suits nopos, so rope must fail before nopos trains.
    err = _one_error_line(capsys, *TINY_EXPERIMENT, "--set", "model.d_model=6",
                          "--set", "experiment.kinds=nopos,rope",
                          "experiment", "--out-dir", str(tmp_path / "exp"))
    assert "must be even, got 3" in err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("argv,key", [
    (["--seed", "-3"], "seed"),
    (["--set", "train.seed=-1"], "seed"),
    (["--set", "model.init_seed=-1"], "init_seed"),
], ids=["seed", "train.seed", "model.init_seed"])
def test_a_negative_seed_fails_by_name_before_anything_is_written(tmp_path, capsys,
                                                                   argv, key):
    # The experiment draws its initial weights in a training process.
    for command in (["synth", "--out-dir", str(tmp_path / "corpus")],
                    [*TINY_EXPERIMENT, "--set", "experiment.kinds=nopos",
                     "experiment", "--out-dir", str(tmp_path / "exp")]):
        err = _one_error_line(capsys, *argv, *command)
        assert err.startswith(f"error: {key} must be at least 0, got -"), err
    assert list(tmp_path.iterdir()) == []


def test_experiment_error_in_a_worker_process_is_one_line(tmp_path, capsys, monkeypatch):
    from lgse import workers
    from lgse.posenc import BERTPOS_MAX_FRAMES

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    # The 66 s mixture, 4,124 frames, is mixture 1: the forked worker's.
    err = _one_error_line(capsys, *TINY_EXPERIMENT, "--set", "experiment.kinds=bertpos",
                          "--set", "suite.durations_s=0.5,66",
                          "experiment", "--out-dir", str(tmp_path))
    assert f"bertpos supports at most {BERTPOS_MAX_FRAMES} frames, got 4124" in err
    assert no_child_left() and not (tmp_path / "report.csv").exists()


def test_experiment_worker_that_dies_is_one_line(tmp_path, capsys, monkeypatch):
    from lgse import evaluate, workers

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    caller, score = os.getpid(), evaluate._score_case

    def dies_in_a_child(*args):
        if os.getpid() != caller:
            os._exit(3)
        return score(*args)

    monkeypatch.setattr(evaluate, "_score_case", dies_in_a_child)
    err = _one_error_line(capsys, *TINY_EXPERIMENT, "--set", "experiment.kinds=nopos",
                          "--set", "suite.durations_s=0.5,1",
                          "experiment", "--out-dir", str(tmp_path))
    assert "exited with status 3 without reporting" in err
    assert no_child_left() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("text,named", [
    ("[]", "'pairs'"),
    ('{"seed": 3}', "'pairs'"),
    ('{"pairs": 3}', "'pairs'"),
    ('{"pairs": [{"clean": "utt_0000_clean.wav"}]}', "pairs[0] has no 'noise'"),
    ('{"pairs": [', "invalid JSON"),
], ids=["top-level list", "no pairs", "pairs not a list", "pair without noise",
        "invalid JSON"])
def test_train_with_malformed_manifest_errors(tmp_path, capsys, text, named):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_text(text, encoding="utf-8")
    err = _one_error_line(capsys, "train", "--corpus-dir", str(corpus),
                          "--out", str(tmp_path / "m.lgse"), "--steps", "1")
    assert str(corpus / "manifest.json") in err and named in err
    assert not (tmp_path / "m.lgse").exists()


def test_train_rejects_unknown_freeze_name(trained, tmp_path, capsys):
    _, corpus, _, _ = trained
    err = _one_error_line(capsys, "--set", "train.freeze=pe.beta,no.such.param",
                          "train", "--corpus-dir", str(corpus),
                          "--out", str(tmp_path / "m.lgse"), "--pe", "nopos",
                          "--steps", "1")
    assert "freeze" in err and "no.such.param" in err and "pe.beta" in err
    assert not (tmp_path / "m.lgse").exists()


def test_train_on_utterances_shorter_than_a_clip_errors(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run_cli("--set", "synth.n_utts=2", "--set", "synth.dur_s=0.3",
                   "synth", "--out-dir", str(corpus)) == 0
    err = _one_error_line(capsys, "--set", "train.clip_len_s=0.5",
                          "train", "--corpus-dir", str(corpus),
                          "--out", str(tmp_path / "m.lgse"), "--steps", "1")
    assert "clip_len_s" in err
    assert not (tmp_path / "m.lgse").exists()


def test_experiment_with_utterances_shorter_than_a_clip_errors(tmp_path, capsys):
    err = _one_error_line(capsys, "--set", "experiment.train_utt_dur_s=0.3",
                          "--set", "train.clip_len_s=0.5",
                          "--set", "model.n_layers=1", "--set", "model.d_model=8",
                          "--set", "model.n_heads=2", "--set", "model.d_ff=16",
                          "experiment", "--out-dir", str(tmp_path / "exp"))
    assert "train_utt_dur_s 0.3 s" in err and "clip_len_s" in err
    assert not (tmp_path / "exp").exists()


def test_target_choices_and_help_come_from_target_kind():
    from lgse.objectives import TargetKind

    names = [k.value for k in TargetKind]
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    target = next(a for a in commands.choices["train"]._actions if a.dest == "target")
    assert list(target.choices) == names
    assert "training objective: " + "|".join(names) in parser.format_help()


def test_missing_corpus_errors(tmp_path):
    code = run_cli("train", "--corpus-dir", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "m.lgse"))
    assert code == 1


def test_cli_offers_exactly_four_commands(capsys):
    with pytest.raises(SystemExit) as helped:
        run_cli("--help")
    assert helped.value.code == 0
    assert "{synth,train,enhance,experiment}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as refused:
        run_cli("selftest")
    assert refused.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err
