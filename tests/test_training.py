import re

import numpy as np
import pytest

from helpers import record_bytes, rewrite_records
from lgse import dsp, numerics, objectives, training
from lgse.dsp import Utterance, Waveform
from lgse.model import EnhancementModel, ModelConfig, param_shapes
from lgse.numerics import Tensor, add, backward, constant, mul, reduce_sum
from lgse.posenc import PeKind
from lgse.training import (
    SNR_HIGH_DB,
    SNR_LOW_DB,
    AdamState,
    CheckpointError,
    TrainConfig,
    adam_step,
    check_plan,
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_train_rejects_a_non_finite_gradient_before_the_clip(monkeypatch, bad):
    """Clipping would map an infinity to +-GRAD_CLIP and train on it."""
    def spoiled(loss):
        backward(loss)
        model.params["head.bias"].grad = np.full_like(model.params["head.bias"].data, bad)

    monkeypatch.setattr(training, "backward", spoiled)
    model = EnhancementModel(ModelConfig(**TINY_MODEL))
    before = {n: t.data.copy() for n, t in model.params.items()}
    with pytest.raises(FloatingPointError, match="head.bias"):
        train(model, corpus(2), tiny_cfg(max_steps=1))
    assert all(np.array_equal(t.data, before[n]) for n, t in model.params.items())


def test_clip_gradients_bounds_everything():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.array([-3.0, -0.5, 0.5, 7.0])
    clip_gradients({"w": p}, 1.0)
    assert np.array_equal(p.grad, [-1.0, -0.5, 0.5, 1.0])


def test_clip_gradients_replaces_a_shared_gradient(monkeypatch):
    from helpers import clip_in_place, copying_accumulate

    def run():
        w1 = Tensor(np.zeros(4), requires_grad=True)
        w2 = Tensor(np.zeros(4), requires_grad=True)
        backward(reduce_sum(mul(add(w1, w2), constant([-3.0, -0.5, 0.5, 7.0]))))
        return {"w1": w1, "w2": w2}

    with monkeypatch.context() as m:
        m.setattr(numerics, "_accumulate", copying_accumulate)
        want = run()
    clip_in_place(want, 1.0)
    got = run()
    upstream = got["w1"].grad
    assert upstream is got["w2"].grad
    clip_gradients(got, 1.0)
    for name in ("w1", "w2"):
        assert np.array_equal(got[name].grad, want[name].grad)
    assert np.array_equal(upstream, [-3.0, -0.5, 0.5, 7.0])


@pytest.mark.parametrize("kind,target", [("learnlin", "irm"), ("rope", "cirm")])
def test_desk_train_steps_equal_copying_reference(monkeypatch, kind, target):
    """Two desk-preset steps: gradients after clipping and parameters after
    each Adam update match the copying `_accumulate` and in-place clip."""
    from helpers import clip_in_place, copying_accumulate

    cfg = tiny_cfg()
    model_cfg = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_ff=128,
                            pe_kind=kind, target=target, init_seed=6)
    x_mag, grid = make_batch(corpus(2), cfg, np.random.default_rng(1), model_cfg)

    def steps(clip):
        model, state, out = EnhancementModel(model_cfg), AdamState(), []
        for step in (1, 2):
            model.zero_grad()
            backward(mse_loss(model.forward(x_mag), grid))
            clip(model.params, 1e-3)  # below GRAD_CLIP, so that clipping bites
            grads = {n: t.grad.copy() for n, t in model.params.items()}
            adam_step(model.params, state, lr_schedule(step, cfg.w_steps, 32), cfg)
            out.append((grads, {n: t.data.copy() for n, t in model.params.items()}))
        return out

    with monkeypatch.context() as m:
        m.setattr(numerics, "_accumulate", copying_accumulate)
        want = steps(clip_in_place)
    for (grads, params), (want_grads, want_params) in zip(steps(clip_gradients), want):
        assert grads.keys() == want_grads.keys() == params.keys()
        for name in grads:
            assert np.array_equal(grads[name], want_grads[name]), name
            assert np.array_equal(params[name], want_params[name]), name


# -- batching --------------------------------------------------------------------


def corpus(n=4, dur=1.0, seed=11):
    return dsp.synth_corpus(seed, n, dur)


def test_make_batch_clip_count():
    cfg = tiny_cfg(clip_len_s=0.5)
    utts = corpus(3, dur=1.0)
    rng = np.random.default_rng(0)
    x_mag, target = make_batch(utts, cfg, rng, ModelConfig(**TINY_MODEL))
    # two 0.5s clips per 1s utterance
    assert x_mag.shape == target.shape == (6, dsp.frame_count(8000), 257)


def test_make_batch_deterministic_under_seed():
    cfg = tiny_cfg()
    utts = corpus(2)
    a = make_batch(utts, cfg, np.random.default_rng(5), ModelConfig(**TINY_MODEL))
    b = make_batch(utts, cfg, np.random.default_rng(5), ModelConfig(**TINY_MODEL))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def _mixed_corpus():
    """Utterances of two lengths plus one whose noise is shorter than a clip,
    so that some draws are skipped."""
    utts = corpus(2, dur=1.3) + corpus(2, dur=0.6, seed=12)
    short = utts[1]
    return utts + [Utterance(short.clean, Waveform(short.noise.samples[:4000]))]


def _frame_scale(spec_s, spec_v) -> np.ndarray:
    """max|S| + max|V| over each frame's bins: the scale of the rounding error
    that mixing in the STFT domain puts on V and X. The FFT's rounding error
    is absolute per frame, not relative per bin."""
    return (np.abs(spec_s).max(axis=-1, keepdims=True)
            + np.abs(spec_v).max(axis=-1, keepdims=True))


def _target_bound(model_cfg, spec_s, spec_v, spec_x) -> np.ndarray:
    """Per-cell first-order bound on how far a target moves when V and X are
    off by up to one unit of `_frame_scale`.

    IRM (|S|^2/(|S|^2+|V|^2))^gamma moves by 2*gamma*m*|V|*dV/(|S|^2+|V|^2).
    PSM Re(S/X) and the cIRM S/X move by |S|*dX/|X|^2; the cIRM compression
    k*tanh(c*t/2) has slope at most k*c/2 (0.5 by default), the PSM clip 1.
    """
    a_s, a_v, a_x = np.abs(spec_s), np.abs(spec_v), np.abs(spec_x)
    scale = _frame_scale(spec_s, spec_v)
    kind = model_cfg.target.value
    if kind == "irm":
        gamma = objectives.IRM_GAMMA
        m = objectives.irm(spec_s, spec_v)
        return 2 * gamma * m * a_v * scale / (a_s ** 2 + a_v ** 2)
    cond = a_s * scale / a_x ** 2
    if kind == "cirm":
        slope = 0.5 * objectives.CIRM_K * objectives.CIRM_C
        return slope * np.concatenate([cond, cond], axis=-1)
    return cond


# Rounding bound for the STFT-domain mix, in units of each cell's
# first-order bound: ~45 ulps. Over 21 corpus/RNG seeds the worst cell of
# any target read 1.0e-15 of its bound. A gain off by 1e-13 fails it.
MIX_TOL = 1e-14


@pytest.mark.parametrize("target", ["ms", "irm", "psm", "cirm"])
def test_make_batch_equals_per_clip_loop(target):
    from helpers import make_batch_loop

    cfg = tiny_cfg()
    model_cfg = ModelConfig(target=target, **TINY_MODEL)
    utts = _mixed_corpus()
    x_mag, grid = make_batch(utts, cfg, np.random.default_rng(4), model_cfg)
    clips = make_batch_loop(utts, cfg, np.random.default_rng(4), model_cfg)
    assert 0 < len(clips) < sum(len(u.clean) // 8000 for u in utts)
    assert x_mag.shape[0] == grid.shape[0] == len(clips)
    spec_s, spec_v, spec_x, expect = (np.stack([c[i] for c in clips])
                                      for i in (3, 4, 5, 6))
    assert grid.shape == expect.shape
    # X = S + g*N equals the STFT of s + g*n up to rounding on the frame's scale.
    scale = _frame_scale(spec_s, spec_v)
    assert np.all(np.abs(x_mag - np.abs(spec_x)) <= MIX_TOL * scale)
    if target == "ms":
        # |S|^power reads the clean spectrum alone, which is analysed as before.
        assert np.array_equal(grid, expect)
    else:
        bound = MIX_TOL * np.maximum(1.0, _target_bound(model_cfg, spec_s, spec_v, spec_x))
        assert np.all(np.abs(grid - expect) <= bound)


def test_make_batch_makes_two_stfts_and_one_target_call(monkeypatch):
    """One STFT of the clean stack, one of the noise stack, one target grid."""
    calls = {"stft": [], "target_grid": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(np.shape(args[-1]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dsp, "stft", counted("stft", dsp.stft))
    monkeypatch.setattr(objectives, "target_grid",
                        counted("target_grid", objectives.target_grid))
    x_mag, _ = make_batch(corpus(3), tiny_cfg(), np.random.default_rng(0),
                          ModelConfig(**TINY_MODEL))
    assert len(x_mag) == 6
    assert calls["stft"] == [(6, 8000), (6, 8000)]
    assert calls["target_grid"] == [x_mag.shape]


@pytest.mark.parametrize("target", ["ms", "irm", "psm", "cirm"])
def test_staged_make_batch_equals_single_stft_form(target):
    from helpers import make_batch_single_stft, traced_bytes

    cfg = tiny_cfg()
    model_cfg = ModelConfig(target=target, **TINY_MODEL)
    utts = _mixed_corpus()
    got, _, peak = traced_bytes(
        lambda: make_batch(utts, cfg, np.random.default_rng(4), model_cfg))
    want, _, single_peak = traced_bytes(
        lambda: make_batch_single_stft(utts, cfg, np.random.default_rng(4), model_cfg))
    assert got[0].shape[0] > 0
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    # The staged peak read 0.72 (MS) to 0.79 (cIRM) of the single-STFT one.
    assert peak <= 0.85 * single_peak


# MiB a desk step's tape kept after forward plus `mse_loss`, measured once
# on the train-desk pairs (they read 18.9 to 24.7 when each node held its
# parents' values).
DESK_TAPE_MIB = {("learnlin", "irm"): 7.344, ("tisa", "psm"): 7.426,
                 ("dabias", "ms"): 8.442, ("rope", "cirm"): 7.347,
                 ("bertpos", "irm"): 7.478}


@pytest.mark.parametrize("kind,target", list(DESK_TAPE_MIB))
def test_desk_step_tape_keeps_only_what_backward_reads(kind, target):
    """20 clips of 30 frames through the desk model (2 layers, 4 heads,
    d_model 32); the bound leaves 10% over the measured bytes."""
    from helpers import traced_bytes

    cfg = tiny_cfg(batch_utts=10)
    model_cfg = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_ff=128,
                            pe_kind=kind, target=target, init_seed=6)
    x_mag, grid = make_batch(corpus(10), cfg, np.random.default_rng(4), model_cfg)
    assert x_mag.shape == (20, 30, 257)
    model = EnhancementModel(model_cfg)
    loss, kept, _ = traced_bytes(lambda: mse_loss(model.forward(x_mag), grid))
    assert kept <= 1.1 * DESK_TAPE_MIB[kind, target] * 2**20
    backward(loss)
    assert all(t.grad is not None for t in model.params.values())


def test_make_batch_snr_measured_matches_drawn():
    from helpers import make_batch_loop

    cfg = tiny_cfg()
    clips = make_batch_loop(corpus(3), cfg, np.random.default_rng(7),
                            ModelConfig(**TINY_MODEL))
    assert clips
    for clean, noise_scaled, snr_db, *_ in clips:
        e_clean = np.sum(clean ** 2)
        e_noise = np.sum(noise_scaled ** 2)
        measured = 10 * np.log10(e_clean / e_noise)
        assert abs(measured - snr_db) < 1e-6
        assert SNR_LOW_DB <= snr_db <= SNR_HIGH_DB


def test_make_batch_skips_too_long_clip():
    cfg = tiny_cfg(clip_len_s=2.0)
    x_mag, target = make_batch(corpus(2, dur=1.0), cfg, np.random.default_rng(0),
                               ModelConfig(**TINY_MODEL))
    assert len(x_mag) == 0 and len(target) == 0


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


def test_train_rejects_unknown_freeze_name(tmp_path):
    model = EnhancementModel(ModelConfig(pe_kind="nopos", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    with pytest.raises(ValueError, match="freeze names .*pe.beta"):
        train(model, corpus(2), tiny_cfg(freeze=("pe.beta",)), ckpt_path=path)
    assert not path.exists()


def test_train_rejects_corpus_shorter_than_a_clip(tmp_path):
    model = EnhancementModel(ModelConfig(pe_kind="nopos", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    with pytest.raises(ValueError, match="clip_len_s"):
        train(model, corpus(2, dur=1.0), tiny_cfg(clip_len_s=2.0), ckpt_path=path)
    assert not path.exists()


def test_train_rejects_unreachable_max_steps(tmp_path):
    # Three utterances in batches of two: two steps per epoch.
    model = EnhancementModel(ModelConfig(pe_kind="nopos", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    with pytest.raises(ValueError, match="max_steps 5 .* at most 4 steps"):
        train(model, corpus(3), tiny_cfg(epochs=2, max_steps=5), ckpt_path=path)
    assert not path.exists()
    assert len(train(model, corpus(3), tiny_cfg(epochs=2, max_steps=4)).trace) == 4


@pytest.mark.parametrize("kw,longest_s,message", [
    (dict(clip_len_s=0.5), 0.4999,
     "the longest utt 0.4999 s is shorter than one train.clip_len_s clip (0.5 s)"),
    (dict(freeze=("embed.bias", "pe.beta")), 1.0,
     "freeze names no parameter of this nopos model: pe.beta"),
    # Three utterances in batches of two: two steps per epoch.
    (dict(epochs=2, max_steps=5), 1.0,
     "train.max_steps 5 is out of reach: train.epochs 2 over 3 utterances in "
     "batches of 2 run at most 4 steps"),
], ids=["clip", "freeze", "max_steps"])
def test_check_plan_names_the_setting_at_fault(kw, longest_s, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_plan(tiny_cfg(**kw), ModelConfig(pe_kind="nopos", **TINY_MODEL), 3,
                   longest_s, "the longest utt")


def test_check_plan_passes_a_plan_at_its_limits(monkeypatch):
    """An utterance of exactly one clip and every step the epochs give pass;
    with no freeze list the model's parameters are not listed."""
    def unlisted(cfg):
        raise AssertionError("param_shapes was called")

    monkeypatch.setattr(training, "param_shapes", unlisted)
    check_plan(tiny_cfg(clip_len_s=0.5, epochs=2, max_steps=4),
               ModelConfig(pe_kind="nopos", **TINY_MODEL), 3, 0.5, "the longest utt")


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
    loaded, step = load_checkpoint(path)
    assert step == 4
    x = np.random.default_rng(0).uniform(0, 1, (10, 257))
    assert np.array_equal(loaded.predict(x), model.predict(x))
    # save -> load -> save is byte-identical
    path2 = tmp_path / "m2.lgse"
    save_checkpoint(path2, loaded, step=step)
    assert path2.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", [k.value for k in PeKind])
def test_trained_checkpoint_holds_only_the_model(tmp_path, kind):
    """Every tensor has moved off its init value, so a record the loader
    skipped would show in `predict`. 45 frames run bertpos past its 40
    trained rows, into its fixed ones."""
    from helpers import rewrite_meta

    cfg = ModelConfig(pe_kind=kind, target="irm", init_seed=6, bertpos_max_len=40,
                      **TINY_MODEL)
    model = EnhancementModel(cfg)
    path = tmp_path / "m.lgse"
    train(model, corpus(2), tiny_cfg(max_steps=2), ckpt_path=path)
    init = EnhancementModel(cfg).params
    assert all(np.any(t.data != init[n].data) for n, t in model.params.items())
    loaded, step = load_checkpoint(path)
    x = np.random.default_rng(13).uniform(0.0, 2.0, (45, 257))
    assert np.array_equal(loaded.predict(x), model.predict(x))
    again = tmp_path / "again.lgse"
    save_checkpoint(again, loaded, step=step)
    assert again.read_bytes() == path.read_bytes()
    metas = []
    rewrite_meta(path, metas.append)
    assert sorted(metas[0]) == ["model_config", "step"]
    names = rewrite_records(path, lambda records: None)
    assert names == sorted(f"param.{n}" for n in model.params)


# sha256 of a freshly initialized tiny model's checkpoint, per PE kind. Any
# change to parameter names, order, shapes or init draws changes these.
INIT_CHECKPOINT_SHA256 = {
    "nopos": "7be25902cf3649542e80273aaaf66542035912d4aded9ecd495e48f87f224242",
    "sinusoidal": "2918d9237e8b93f7b392fbd02c37ad87cf5f8d0dd2c972f19f27931f7d60dc0a",
    "bertpos": "a35915af6c9ec2eb38f47ab745922365b9c52b0fe4168c2038af15e93740d351",
    "gauss": "12aabe6655c018bc4fb78b3cd8194d1f1415ea95cc643d58c163c25e80ef8798",
    "t5": "cb43f7d9bb564fe951910aef30c1fdfa9dbd54c41f5b639f17a0af8fb3513f19",
    "tisa": "efa2434c64534b6d8c84b8211f54ac3b2448aa0a7fb4e5ae8da691ba24f01756",
    "dabias": "509fda0f42af7c28d1d404f25f8a2a23ee09311ae67784f803db75506239d0c0",
    "kerple": "14e0134e56c791923235b7c1328d0ee53a8a9eebc2ddb5509056bd8871fee4b5",
    "rope": "9c4f5dc1de95e161bae8e3bb9958d2581c05dfb510e99db622d6e9af4547b5f6",
    "learnlin": "17c9cb715c67069dc2ff2c206b35d9a2fcef2d8a5e197582f7c481a4ef55a43e",
}


@pytest.mark.parametrize("kind", sorted(INIT_CHECKPOINT_SHA256))
def test_init_checkpoint_bytes_are_pinned(tmp_path, kind):
    import hashlib

    model = EnhancementModel(ModelConfig(
        n_layers=2, n_heads=2, d_model=8, d_ff=16, k_bins=9, pe_kind=kind,
        bertpos_max_len=8, init_seed=3))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INIT_CHECKPOINT_SHA256[kind]


def test_checkpoint_magic_and_validation(tmp_path):
    bad = tmp_path / "bad.lgse"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)


@pytest.mark.parametrize("where,byte,match", [
    ("meta", b"x", "meta block is not UTF-8 JSON: Expecting value"),
    ("meta", b"\xff", "meta block is not UTF-8 JSON: 'utf-8' codec"),
    ("record name", b"\xff", "record name is not UTF-8: 'utf-8' codec"),
], ids=["meta not JSON", "meta not UTF-8", "record name not UTF-8"])
def test_checkpoint_that_does_not_decode_names_its_file(tmp_path, where, byte, match):
    import re
    import struct

    model = EnhancementModel(ModelConfig(pe_kind="nopos", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    raw = bytearray(path.read_bytes())
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    # The first byte of the meta block or of the first record's name.
    at = 16 if where == "meta" else 16 + meta_len + 4 + 4
    raw[at:at + 1] = byte
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: {match}"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_old_checkpoint_version_rejected(tmp_path, version):
    import struct

    model = EnhancementModel(ModelConfig(pe_kind="nopos", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
    with pytest.raises(CheckpointError,
                       match=f"unsupported checkpoint version {version};"):
        load_checkpoint(path)


def test_truncated_checkpoint_rejected(tmp_path):
    model = EnhancementModel(ModelConfig(pe_kind="learnlin", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    raw = path.read_bytes()
    # Inside the header, the meta block, a record header and the last payload.
    for size in (6, 40, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:size])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def test_checkpoint_claiming_a_huge_record_is_truncated_not_allocated(tmp_path):
    import struct

    model = EnhancementModel(ModelConfig(pe_kind="nopos", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    raw = bytearray(path.read_bytes())
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    first = 16 + meta_len + 4
    (name_len,) = struct.unpack("<I", raw[first:first + 4])
    dims = first + 4 + name_len + 4
    raw[dims:dims + 8] = struct.pack("<Q", 2**40)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_whose_record_dims_multiply_past_2_to_63_is_truncated(tmp_path):
    """(2^32, 2^32) holds 2^64 values, which wraps to 0 in int64 arithmetic."""
    import struct

    model = EnhancementModel(ModelConfig(pe_kind="nopos", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    raw = bytearray(path.read_bytes())
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    first = 16 + meta_len + 4
    (name_len,) = struct.unpack("<I", raw[first:first + 4])
    ndim = first + 4 + name_len
    raw[ndim:ndim + 20] = struct.pack("<IQQ", 2, 2**32, 2**32)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="truncated checkpoint"):
        load_checkpoint(path)


def test_loading_a_checkpoint_holds_each_record_once(tmp_path):
    """Each record is read straight into the array the model keeps, so the
    load peaks near the parameters' own bytes, not at a file image plus its
    copies (about 2.1 times)."""
    import tracemalloc

    model = EnhancementModel(ModelConfig(pe_kind="learnlin", n_layers=2, n_heads=4,
                                         d_model=128, d_ff=512))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    param_bytes = sum(t.data.nbytes for t in model.params.values())
    del model
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(t.data.nbytes for t in loaded.params.values()) == param_bytes
    assert peak < 1.25 * param_bytes


def test_checkpoint_shape_validation(tmp_path):
    model = EnhancementModel(ModelConfig(pe_kind="learnlin", target="irm",
                                         init_seed=1, **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
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
    (lambda c: c.pop("d_ff"), "lacks keys"),
    (lambda c: c.update(pe_kind="fire"), "bad model_config"),
    (lambda c: c.update(n_heads=0), "bad model_config: n_heads must be at least 1"),
    (lambda c: c.update(d_model=0), "bad model_config: d_model must be at least 1"),
    (lambda c: c.update(n_layers=-1), "bad model_config: n_layers must be at least 1"),
    (lambda c: c.update(bertpos_max_len=4097), "bad model_config: bertpos_max_len must be"),
    # Settings removed in formats 3 and 4 are unknown keys.
    pytest.param(lambda c: c.update(tisa_kernels=5),
                 r"unknown model_config keys \['tisa_kernels'\]", id="unknown-tisa_kernels"),
    pytest.param(lambda c: c.update(ln_eps=1e-5),
                 r"unknown model_config keys \['ln_eps'\]", id="unknown-ln_eps"),
    pytest.param(lambda c: c.update(bertpos_hard_cap=4096),
                 r"unknown model_config keys \['bertpos_hard_cap'\]",
                 id="unknown-bertpos_hard_cap"),
    pytest.param(lambda c: c.update(causal=False),
                 r"unknown model_config keys \['causal'\]", id="unknown-causal"),
    pytest.param(lambda c: c.update(init_seed=-1),
                 "bad model_config: init_seed must be at least 0", id="negative-init_seed"),
])
def test_checkpoint_config_errors(tmp_path, edit, match):
    from helpers import rewrite_model_config

    model = EnhancementModel(ModelConfig(pe_kind="learnlin", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    rewrite_model_config(path, lambda c: None)
    assert load_checkpoint(path)[0].config == model.config
    rewrite_model_config(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("edit,match", [
    (lambda m: m.pop("step"), "meta step must be an integer, got None"),
    (lambda m: m.update(step="7"), "meta step must be an integer"),
    (lambda m: m.update(step=True), "meta step must be an integer"),
])
def test_checkpoint_meta_errors(tmp_path, edit, match):
    from helpers import rewrite_meta

    model = EnhancementModel(ModelConfig(pe_kind="learnlin", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=7)
    assert load_checkpoint(path)[1] == 7
    rewrite_meta(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("edit,match", [
    (lambda r: r.update(bogus=record_bytes("param.bogus", np.zeros(2))),
     "unknown records.*param.bogus"),
    (lambda r: r.update(adam=record_bytes("adam.m.pe.embed", np.zeros(2))),
     "unknown records.*adam.m.pe.embed"),
    (lambda r: r.pop("param.pe.embed"), "missing records.*param.pe.embed"),
    (lambda r: r.update(again=r["param.pe.embed"]), "duplicate record param.pe.embed"),
])
def test_checkpoint_record_set_errors(tmp_path, edit, match):
    model = EnhancementModel(ModelConfig(pe_kind="bertpos", bertpos_max_len=40,
                                         **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    rewrite_records(path, lambda r: None)
    assert load_checkpoint(path)[0].config == model.config
    rewrite_records(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_record_of_another_shape_rejected(tmp_path):
    model = EnhancementModel(ModelConfig(pe_kind="learnlin", **TINY_MODEL))
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    rewrite_records(path, lambda r: r.update(
        {"param.pe.beta": record_bytes("param.pe.beta", np.zeros(3))}))
    with pytest.raises(CheckpointError,
                       match=r"tensor param.pe.beta has shape \(3,\), config implies \(2,\)"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", [k.value for k in PeKind])
def test_load_and_freeze_check_draw_nothing(tmp_path, monkeypatch, kind):
    cfg = ModelConfig(pe_kind=kind, init_seed=6, bertpos_max_len=40, **TINY_MODEL)
    model = EnhancementModel(cfg)
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=4)

    def no_draw(*args, **kwargs):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    assert list(param_shapes(cfg).items()) == [(n, t.shape) for n, t in model.params.items()]
    loaded, step = load_checkpoint(path)
    assert step == 4 and loaded.config == cfg and list(loaded.params) == list(model.params)
    for name, t in model.params.items():
        assert np.array_equal(loaded.params[name].data, t.data), name
        assert loaded.params[name].requires_grad
    check_plan(tiny_cfg(freeze=tuple(model.params)[:2]), cfg, 2, 1.0, "utts")
    with pytest.raises(ValueError, match=f"no parameter of this {kind} model: pe.bogus"):
        check_plan(tiny_cfg(freeze=("embed.bias", "pe.bogus")), cfg, 2, 1.0, "utts")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_rejected(tmp_path, bad):
    model = EnhancementModel(ModelConfig(pe_kind="learnlin", **TINY_MODEL))
    model.params["pe.beta"].data[1] = bad
    path = tmp_path / "m.lgse"
    save_checkpoint(path, model, step=0)
    with pytest.raises(CheckpointError, match="param.pe.beta holds non-finite"):
        load_checkpoint(path)
