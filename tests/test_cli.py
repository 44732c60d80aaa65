import hashlib
import json

import numpy as np
import pytest

from lgse import dsp
from lgse.cli import build_parser, main
from lgse.config import ConfigError, load_run_config


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
    assert cfg.train.adam_beta1 == 0.9
    assert cfg.train.adam_beta2 == 0.98
    assert cfg.train.adam_eps == 1e-9
    assert cfg.train.snr_low_db == -10 and cfg.train.snr_high_db == 20
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


def test_bad_override_format():
    with pytest.raises(ConfigError):
        load_run_config(None, ["model.n_layers"])
    with pytest.raises(ConfigError):
        load_run_config(None, ["nosuch.key=1"])


def test_help_lists_every_config_key(capsys):
    from lgse.config import assert_help_covers_all_fields

    assert_help_covers_all_fields()
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
    assert wav.sample_rate == 16000
    assert abs(wav.duration_s - 0.6) < 0.01

    # Re-running reproduces identical bytes.
    digest_a = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    wav_a = (out / manifest["pairs"][0]["clean"]).read_bytes()
    assert run_cli("--set", "synth.n_utts=3", "--set", "synth.dur_s=0.6",
                   "--seed", "5", "synth", "--out-dir", str(out)) == 0
    digest_b = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest_a == digest_b
    assert wav_a == (out / manifest["pairs"][0]["clean"]).read_bytes()


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
    model, _, _, _, _ = load_checkpoint(ckpt)
    assert model.params["pe.beta"].shape == (2,)
    assert model.pe_parameter_count() == 2


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


def test_missing_corpus_errors(tmp_path):
    code = run_cli("train", "--corpus-dir", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "m.lgse"))
    assert code == 1


def test_selftest_fast_exits_zero():
    assert run_cli("selftest", "--fast") == 0
