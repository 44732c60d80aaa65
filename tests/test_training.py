import numpy as np
import pytest

from lgse import dsp
from lgse.dsp import Waveform
from lgse.model import EnhancementModel, ModelConfig
from lgse.numerics import Tensor, backward
from lgse.training import (
    AdamState,
    CheckpointError,
    TrainConfig,
    adam_step,
    clip_gradients,
    load_checkpoint,
    lr_schedule,
    make_batch,
    mse_loss,
    save_checkpoint,
    train,
    write_loss_csv,
)

TINY_MODEL = dict(n_layers=1, n_heads=2, d_model=16, d_ff=32, k_bins=257)


def tiny_cfg(**kw):
    base = dict(clip_len_s=0.5, batch_utts=2, epochs=1000, max_steps=30,
                w_steps=10, seed=3)
    base.update(kw)
    return TrainConfig(**base)


# -- lr schedule ----------------------------------------------------------------


def test_lr_branches_equal_at_warmup():
    for d_model, w in ((256, 4000), (64, 123)):
        lr = lr_schedule(w, w, d_model)
        assert lr == d_model ** -0.5 * w ** -0.5


def test_lr_reference_value():
    lr = lr_schedule(4000, 4000, 256)
    assert abs(lr - 0.0625 / np.sqrt(4000)) < 1e-18
    assert abs(lr - 9.8821176880261854e-4) < 1e-9


def test_lr_monotone_both_sides():
    w = 500
    vals = [lr_schedule(n, w, 256) for n in range(1, 3 * w)]
    for i in range(w - 1):
        assert vals[i] < vals[i + 1]
    for i in range(w, len(vals) - 1):
        assert vals[i] > vals[i + 1]


def test_lr_rejects_step_zero():
    with pytest.raises(ValueError):
        lr_schedule(0, 100, 256)


# -- mse -------------------------------------------------------------------------


def test_mse_zero_for_equal():
    pred = Tensor(np.ones((3, 4)))
    assert float(mse_loss(pred, np.ones((3, 4))).data) == 0.0


def test_mse_constant_offset():
    pred = Tensor(np.full((3, 4), 0.75))
    assert abs(float(mse_loss(pred, np.full((3, 4), 0.25)).data) - 0.25) < 1e-15


def test_mse_matches_two_loop_oracle():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(5, 7))
    t = rng.normal(size=(5, 7))
    acc = 0.0
    for i in range(5):
        for j in range(7):
            acc += (p[i, j] - t[i, j]) ** 2
    oracle = acc / 35.0
    got = float(mse_loss(Tensor(p), t).data)
    assert abs(got - oracle) < 1e-12


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))


# -- adam ------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    params = {"w": p}
    state = AdamState()
    adam_step(params, state, lr=0.1, cfg=tiny_cfg())
    assert np.array_equal(p.data, [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_is_signed_lr():
    cfg = tiny_cfg()
    p = Tensor(np.array([0.0, 0.0, 0.0]), requires_grad=True)
    p.grad = np.array([0.5, -1.0, 2.0])
    adam_step({"w": p}, AdamState(), lr=0.01, cfg=cfg)
    expect = -0.01 * np.sign([0.5, -1.0, 2.0])
    assert np.max(np.abs(p.data - expect)) < 1e-6


def test_adam_converges_on_quadratic_bowl():
    cfg = tiny_cfg()
    target = np.array([1.5, -2.0, 0.25])
    p = Tensor(np.zeros(3), requires_grad=True)
    state = AdamState()
    for _ in range(2000):
        p.grad = None
        loss = mse_loss(p, target)
        backward(loss)
        clip_gradients({"w": p}, 1.0)
        adam_step({"w": p}, state, lr=0.01, cfg=cfg)
        if float(np.max(np.abs(p.data - target))) < 1e-6:
            break
    assert np.max(np.abs(p.data - target)) < 1e-6


def test_adam_rejects_nan_gradient():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(FloatingPointError, match="w"):
        adam_step({"w": p}, AdamState(), lr=0.1, cfg=tiny_cfg())


def test_clip_gradients_bounds_everything():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.array([-3.0, -0.5, 0.5, 7.0])
    clip_gradients({"w": p}, 1.0)
    assert np.array_equal(p.grad, [-1.0, -0.5, 0.5, 1.0])


# -- batching --------------------------------------------------------------------


def corpus(n=4, dur=1.0, seed=11):
    return dsp.synth_corpus(seed, n, dur)


def test_make_batch_clip_count():
    cfg = tiny_cfg(clip_len_s=0.5)
    utts = corpus(3, dur=1.0)
    rng = np.random.default_rng(0)
    items = make_batch(utts, cfg, rng, ModelConfig(**TINY_MODEL))
    assert len(items) == 6  # two 0.5s clips per 1s utterance


def test_make_batch_deterministic_under_seed():
    cfg = tiny_cfg()
    utts = corpus(2)
    a = make_batch(utts, cfg, np.random.default_rng(5), ModelConfig(**TINY_MODEL))
    b = make_batch(utts, cfg, np.random.default_rng(5), ModelConfig(**TINY_MODEL))
    assert len(a) == len(b)
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.x_mag, ib.x_mag)
        assert np.array_equal(ia.target, ib.target)
        assert ia.snr_db == ib.snr_db


def test_make_batch_snr_measured_matches_drawn():
    cfg = tiny_cfg()
    items = make_batch(corpus(3), cfg, np.random.default_rng(7),
                       ModelConfig(**TINY_MODEL))
    for item in items:
        e_clean = np.sum(item.clean ** 2)
        e_noise = np.sum(item.noise_scaled ** 2)
        measured = 10 * np.log10(e_clean / e_noise)
        assert abs(measured - item.snr_db) < 1e-6
        assert cfg.snr_low_db <= item.snr_db <= cfg.snr_high_db


def test_make_batch_skips_too_long_clip():
    cfg = tiny_cfg(clip_len_s=2.0)
    items = make_batch(corpus(2, dur=1.0), cfg, np.random.default_rng(0),
                       ModelConfig(**TINY_MODEL))
    assert items == []


# -- train loop -------------------------------------------------------------------


def test_overfit_single_utterance():
    model = EnhancementModel(ModelConfig(pe_kind="learnlin", target="irm",
                                         init_seed=5, **TINY_MODEL))
    cfg = tiny_cfg(max_steps=120, w_steps=40, batch_utts=1, seed=9)
    result = train(model, corpus(1), cfg)
    first = result.trace[0][2]
    last = np.mean([l for _, _, l in result.trace[-5:]])
    assert last < 0.1 * first


def test_train_deterministic_traces():
    def run():
        model = EnhancementModel(ModelConfig(pe_kind="gauss", target="irm",
                                             init_seed=2, **TINY_MODEL))
        return train(model, corpus(3), tiny_cfg(max_steps=8)).trace

    assert run() == run()


def test_learnlin_frozen_at_zero_matches_nopos():
    utts = corpus(2)
    cfg_a = tiny_cfg(max_steps=6)
    model_a = EnhancementModel(ModelConfig(pe_kind="nopos", target="irm",
                                           init_seed=4, **TINY_MODEL))
    trace_a = train(model_a, utts, cfg_a).trace

    model_b = EnhancementModel(ModelConfig(pe_kind="learnlin", target="irm",
                                           init_seed=4, **TINY_MODEL))
    model_b.params["pe.beta"].data[:] = 0.0
    cfg_b = tiny_cfg(max_steps=6, freeze=("pe.beta",))
    trace_b = train(model_b, utts, cfg_b).trace
    assert trace_a == trace_b


def test_loss_csv_format(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv(path, [(1, 0.5, 0.25), (2, 0.4, 0.125)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,lr,loss"
    assert lines[1].startswith("1,0.5,")


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_roundtrip_bitexact(tmp_path):
    model = EnhancementModel(ModelConfig(pe_kind="tisa", target="cirm",
                                         init_seed=6, **TINY_MODEL))
    cfg = tiny_cfg(max_steps=4)
    path = tmp_path / "m.lgse"
    train(model, corpus(2), cfg, ckpt_path=path)
    loaded, state, step, rng_state, epoch_state = load_checkpoint(path)
    assert step == 4
    x = np.random.default_rng(0).uniform(0, 1, (10, 257))
    assert np.array_equal(loaded.predict(x), model.predict(x))
    # save -> load -> save is byte-identical
    path2 = tmp_path / "m2.lgse"
    save_checkpoint(path2, loaded, state, step, rng_state=rng_state,
                    epoch_state=epoch_state)
    assert path2.read_bytes() == path.read_bytes()


def test_checkpoint_resume_identical_next_step(tmp_path):
    utts = corpus(3)
    cfg_full = tiny_cfg(max_steps=6, checkpoint_every=3)
    model_a = EnhancementModel(ModelConfig(pe_kind="learnlin", target="irm",
                                           init_seed=8, **TINY_MODEL))
    path = tmp_path / "resume.lgse"
    trace_full = train(model_a, utts, cfg_full, ckpt_path=path).trace

    # Reload the step-3 snapshot and replay steps 4-6.
    mid = tmp_path / "mid.lgse"
    model_b = EnhancementModel(ModelConfig(pe_kind="learnlin", target="irm",
                                           init_seed=8, **TINY_MODEL))
    train(model_b, utts, tiny_cfg(max_steps=3, checkpoint_every=3), ckpt_path=mid)
    loaded, state, step, rng_state, epoch_state = load_checkpoint(mid)
    rng = np.random.default_rng()
    rng.bit_generator.state = rng_state
    result = train(loaded, utts, cfg_full, adam_state=state, start_step=step,
                   rng=rng, resume_epoch=epoch_state)
    assert result.trace == trace_full[3:]


def test_checkpoint_magic_and_validation(tmp_path):
    bad = tmp_path / "bad.lgse"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)


def test_checkpoint_shape_validation(tmp_path):
    model = EnhancementModel(ModelConfig(pe_kind="learnlin", target="irm",
                                         init_seed=1, **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, AdamState(), 0)
    raw = bytearray(path.read_bytes())
    # Corrupt the stored k_bins so shapes disagree with the records.
    txt = raw.decode("latin1")
    txt = txt.replace('"k_bins":257', '"k_bins":129', 1)
    # Keep the meta length prefix consistent: same byte count required.
    assert len(txt) == len(raw)
    path.write_bytes(txt.encode("latin1"))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit,match", [
    (lambda c: c.update(n_experts=4), "unknown model_config keys"),
    (lambda c: c.pop("causal"), "lacks keys"),
    (lambda c: c.update(pe_kind="fire"), "bad model_config"),
])
def test_checkpoint_config_errors(tmp_path, edit, match):
    from helpers import rewrite_model_config

    model = EnhancementModel(ModelConfig(pe_kind="learnlin", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, AdamState(), 0)
    rewrite_model_config(path, lambda c: None)
    assert load_checkpoint(path)[0].config == model.config
    rewrite_model_config(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_rejected(tmp_path, bad):
    model = EnhancementModel(ModelConfig(pe_kind="learnlin", **TINY_MODEL))
    model.params["pe.beta"].data[1] = bad
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, AdamState(), 0)
    with pytest.raises(CheckpointError, match="param.pe.beta holds non-finite"):
        load_checkpoint(path)
