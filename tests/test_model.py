import functools
import math
import threading

import numpy as np
import pytest

from helpers import param_count
from lgse.model import EnhancementModel, ModelConfig, attention_head, param_shapes
from lgse.numerics import Tensor, constant
from lgse.posenc import BERTPOS_MAX_FRAMES, SCHEMES, CapabilityError, PeKind

TINY = dict(n_layers=1, n_heads=2, d_model=8, d_ff=16, k_bins=9, bertpos_max_len=8)

ALL_KINDS = [k.value for k in PeKind]


def tiny_model(pe="nopos", target="irm", **kw):
    cfg = ModelConfig(pe_kind=pe, target=target, **{**TINY, **kw})
    return EnhancementModel(cfg)


def rand_input(l=5, k=9, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 2.0, (l, k))


# -- config -------------------------------------------------------------------


def test_config_defaults_match_recipe():
    cfg = ModelConfig()
    assert (cfg.n_layers, cfg.n_heads, cfg.d_model, cfg.d_ff) == (4, 8, 256, 1024)
    assert cfg.d_k == 32
    assert cfg.k_bins == 257


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4)


@pytest.mark.parametrize("field,value", [
    ("n_layers", 0), ("n_layers", -1), ("n_heads", 0), ("n_heads", -4),
    ("d_model", 0), ("d_ff", 0), ("k_bins", 0), ("bertpos_max_len", 0),
    ("bertpos_max_len", BERTPOS_MAX_FRAMES + 1), ("pe_kind", "fire"), ("target", "bogus"),
])
def test_config_rejects_sizes_it_cannot_build(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ModelConfig(**{**TINY, field: value})


def test_config_refuses_an_odd_head_width_for_a_rotating_scheme():
    # d_model 6 over 2 heads is a head width of 3: no pairs to rotate.
    rotating = [kind for kind, scheme in SCHEMES.items() if scheme.rotate]
    assert rotating
    for kind in SCHEMES:
        if kind in rotating:
            with pytest.raises(ValueError, match="must be even, got 3"):
                ModelConfig(**{**TINY, "d_model": 6, "pe_kind": kind})
        else:
            assert ModelConfig(**{**TINY, "d_model": 6, "pe_kind": kind}).d_k == 3


# -- embedding -----------------------------------------------------------------


def test_embed_output_shape_and_relu():
    m = tiny_model()
    for l in (1, 5, 30):
        z = m.embed(rand_input(l))
        assert z.shape == (l, 8)
        assert np.all(z.data >= 0.0)


def test_embed_rejects_wrong_bins():
    with pytest.raises(ValueError, match="9"):
        tiny_model().embed(np.zeros((4, 7)))


@pytest.mark.parametrize("kind", ["sinusoidal", "bertpos"])
def test_ape_adds_position_rows(kind):
    m = tiny_model(pe=kind)
    x = rand_input(6)
    with_pe = m.embed(x).data
    without = tiny_model(pe="nopos").embed(x).data
    diff = with_pe - without
    if kind == "sinusoidal":
        from lgse.posenc import sinusoidal_embedding
        assert np.allclose(diff, sinusoidal_embedding(6, 8))
    else:
        assert np.allclose(diff, m.params["pe.embed"].data[:6])


def test_bertpos_uses_frozen_extension_rows():
    from helpers import bertpos_stream_rows

    m = tiny_model(pe="bertpos")
    drawn = bertpos_stream_rows(m.config, 12)
    assert np.array_equal(m.params["pe.embed"].data, drawn[:8])
    # Moving the trained table leaves the fixed rows past it where they were.
    m.params["pe.embed"].data = m.params["pe.embed"].data + 1.0
    x = rand_input(12)  # beyond the 8 trained rows
    ext = (m.embed(x).data - tiny_model(pe="nopos").embed(x).data)[8:]
    assert np.allclose(ext, drawn[8:])


def test_bertpos_cap_raises_capability_error():
    m = tiny_model(pe="bertpos")
    assert m.embed(rand_input(BERTPOS_MAX_FRAMES)).shape == (BERTPOS_MAX_FRAMES, 8)
    with pytest.raises(CapabilityError, match=f"at most {BERTPOS_MAX_FRAMES} frames"):
        m.embed(rand_input(BERTPOS_MAX_FRAMES + 1))


# -- attention head --------------------------------------------------------------


def test_zero_bias_equals_no_bias():
    rng = np.random.default_rng(1)
    q, k, v = (Tensor(rng.normal(size=(5, 4))) for _ in range(3))
    plain = attention_head(q, k, v, None)
    biased = attention_head(q, k, v, constant(np.zeros((5, 5))))
    assert np.array_equal(plain.data, biased.data)


def test_uniform_values_pass_through():
    rng = np.random.default_rng(2)
    q, k = Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(6, 4)))
    v = Tensor(np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (6, 1)))
    bias = constant(rng.normal(size=(6, 6)))
    out = attention_head(q, k, v, bias)
    assert np.allclose(out.data, v.data, atol=1e-12)


def test_attention_bias_shape_check():
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(rng.normal(size=(5, 4))) for _ in range(3))
    with pytest.raises(ValueError):
        attention_head(q, k, v, constant(np.zeros((4, 4))))


def test_noncausal_sees_future():
    m = tiny_model(pe="nopos")
    x = rand_input(7, seed=4)
    base = m.forward(x).data
    x2 = x.copy()
    x2[5:] += 1.0
    assert not np.allclose(m.forward(x2).data[:5], base[:5], atol=1e-12)


# -- mhsa / ffn ----------------------------------------------------------------


def test_mhsa_shape_preserved():
    m = tiny_model()
    z = m.embed(rand_input(6))
    out = m.mhsa(z, 0, None)
    assert out.shape == (6, 8)


def test_single_head_equals_attention_plus_projection():
    m = tiny_model(n_heads=1)
    z = m.embed(rand_input(5))
    q = z.data @ m.params["layers.0.attn.q"].data
    k = z.data @ m.params["layers.0.attn.k"].data
    v = z.data @ m.params["layers.0.attn.v"].data
    head = attention_head(Tensor(q), Tensor(k), Tensor(v), None).data
    expect = head @ m.params["layers.0.attn.out"].data
    got = m.mhsa(z, 0, None).data
    assert np.allclose(got, expect, atol=1e-12)


def test_head_permutation_with_matching_out_rows():
    m = tiny_model(pe="nopos")
    x = rand_input(6, seed=5)
    base = m.forward(x).data
    d_k = m.config.d_k
    # Swap the column blocks of head 0 and 1 plus the matching W_O row blocks.
    for name in ("q", "k", "v"):
        w = m.params[f"layers.0.attn.{name}"].data
        w[:] = np.concatenate([w[:, d_k:2 * d_k], w[:, :d_k]], axis=1)
    w_o = m.params["layers.0.attn.out"].data
    w_o[:] = np.concatenate([w_o[d_k:2 * d_k], w_o[:d_k]], axis=0)
    assert np.allclose(m.forward(x).data, base, atol=1e-12)


def test_ffn_zero_weights_zero_output():
    m = tiny_model()
    for name in ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"):
        m.params[f"layers.0.{name}"].data[:] = 0.0
    z = m.embed(rand_input(4))
    assert np.all(m.ffn(z, 0).data == 0.0)


def test_ffn_is_frame_wise():
    m = tiny_model()
    z = m.embed(rand_input(5, seed=6))
    out = m.ffn(z, 0).data
    perm = np.array([3, 1, 4, 0, 2])
    out_perm = m.ffn(Tensor(z.data[perm]), 0).data
    assert np.allclose(out_perm, out[perm], atol=1e-15)


def test_ffn_hand_computed():
    m = tiny_model(n_heads=2, d_model=2, d_ff=2, k_bins=9)
    m.params["layers.0.ffn.w1"].data = np.array([[1.0, -1.0], [2.0, 0.5]])
    m.params["layers.0.ffn.b1"].data = np.array([0.5, -0.25])
    m.params["layers.0.ffn.w2"].data = np.array([[1.0, 2.0], [3.0, -1.0]])
    m.params["layers.0.ffn.b2"].data = np.array([0.0, 1.0])
    y = np.array([[1.0, 2.0]])
    hidden = np.maximum(y @ m.params["layers.0.ffn.w1"].data
                        + m.params["layers.0.ffn.b1"].data, 0.0)
    expect = hidden @ m.params["layers.0.ffn.w2"].data \
        + m.params["layers.0.ffn.b2"].data
    got = m.ffn(Tensor(y), 0).data
    assert np.allclose(got, expect, atol=1e-15)
    assert np.allclose(got, np.array([[5.5, 12.0]]))


# -- forward -------------------------------------------------------------------


@pytest.mark.parametrize("target,lo,hi", [("irm", 0.0, 1.0), ("psm", 0.0, 1.0)])
def test_sigmoid_head_range(target, lo, hi):
    m = tiny_model(target=target)
    out = m.forward(rand_input(5, seed=7)).data
    assert np.all(out > lo) and np.all(out < hi)


def test_ms_head_nonnegative():
    out = tiny_model(target="ms").forward(rand_input(5, seed=8)).data
    assert np.all(out >= 0.0)


def test_cirm_head_width_and_linearity():
    m = tiny_model(target="cirm")
    out = m.forward(rand_input(5, seed=9)).data
    assert out.shape == (5, 18)


@pytest.mark.parametrize("kind", ["nopos", "gauss", "t5", "tisa", "dabias",
                                  "kerple", "rope", "learnlin"])
def test_rpe_forward_is_length_agnostic(kind):
    m = tiny_model(pe=kind, n_layers=1)
    n_params_before = param_count(m)
    short = m.forward(rand_input(61, seed=10))
    long = m.forward(rand_input(200, seed=11))
    assert short.shape == (61, 9)
    assert long.shape == (200, 9)
    assert param_count(m) == n_params_before


def test_residual_identity_with_zeroed_sublayers():
    from helpers import _layer_norm

    m = tiny_model(pe="nopos", n_layers=2)
    rng = np.random.default_rng(12)
    for i in range(m.config.n_layers):
        m.params[f"layers.{i}.attn.out"].data[:] = 0.0
        m.params[f"layers.{i}.ffn.w2"].data[:] = 0.0
        m.params[f"layers.{i}.ffn.b2"].data[:] = 0.0
        for norm in ("ln1", "ln2"):
            m.params[f"layers.{i}.{norm}.gain"].data[:] = rng.uniform(0.5, 2.0, 8)
            m.params[f"layers.{i}.{norm}.bias"].data[:] = rng.normal(size=8)
    x = rand_input(6, seed=12)
    stream = m.embed(x).data
    # With both sub-layers zeroed, each layer is its two norms, in order.
    for i in range(m.config.n_layers):
        for norm in ("ln1", "ln2"):
            stream = _layer_norm(stream, m.params[f"layers.{i}.{norm}.gain"].data,
                                 m.params[f"layers.{i}.{norm}.bias"].data)
    expect = 1.0 / (1.0 + np.exp(-(stream @ m.params["head.weight"].data
                                   + m.params["head.bias"].data)))
    assert np.allclose(m.forward(x).data, expect, atol=1e-12)


def test_pe_param_subcount_matches_table():
    for kind in ALL_KINDS:
        m = tiny_model(pe=kind, n_layers=2, n_heads=2)
        expect = sum(math.prod(shape) for name, shape in param_shapes(m.config).items()
                     if name.startswith("pe."))
        assert param_count(m, "pe.") == expect, kind


def test_total_param_count_deterministic_function_of_config():
    cfg = dict(pe="learnlin", target="irm")
    a, b = tiny_model(**cfg), tiny_model(**cfg)
    assert param_count(a) == param_count(b)
    for name in a.params:
        assert a.params[name].shape == b.params[name].shape
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_offset_equivariance_under_context_masking():
    """A shifted copy inside masked context reproduces short-sequence weights."""
    rng = np.random.default_rng(13)
    d_k = 4
    q_short = rng.normal(size=(5, d_k))
    k_short = rng.normal(size=(5, d_k))
    beta = -0.3
    from lgse.posenc import learnlin_bias
    bias5 = learnlin_bias(5, Tensor(beta))
    # Identity values make the attention output the weights themselves.
    w_short = attention_head(Tensor(q_short), Tensor(k_short), Tensor(np.eye(5)),
                             bias5)

    shift = 4
    big = 12
    q_long = rng.normal(size=(big, d_k))
    k_long = rng.normal(size=(big, d_k))
    q_long[shift:shift + 5] = q_short
    k_long[shift:shift + 5] = k_short
    bias_big = learnlin_bias(big, Tensor(beta)).data.copy()
    # Mask all context columns so only the copied block can be attended.
    mask = np.full((big, big), -1e9)
    mask[:, shift:shift + 5] = 0.0
    w_long = attention_head(Tensor(q_long), Tensor(k_long), Tensor(np.eye(big)),
                            constant(bias_big + mask))
    block = w_long.data[shift:shift + 5, shift:shift + 5]
    assert np.allclose(block, w_short.data, atol=1e-12)


# -- batched forward against the per-clip, per-head reference -------------------


def _randomized_pe(model, seed):
    """Perturb every PE parameter so zero-initialized schemes shape attention."""
    rng = np.random.default_rng(seed)
    for name, t in model.params.items():
        if name.startswith("pe."):
            t.data = t.data + rng.normal(0.0, 0.3, t.shape)
    return model


def _batch(model, seed, clips=3, length=6):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 2.0, (clips, length, model.config.k_bins))
    targets = rng.uniform(0.0, 1.0, (clips, length, model.config.out_width))
    return xs, targets


@pytest.mark.parametrize("target", ["irm", "psm", "ms", "cirm"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_forward_and_loss_match_reference(kind, target):
    from helpers import reference_batch_loss, reference_forward
    from lgse.training import mse_loss

    m = _randomized_pe(tiny_model(pe=kind, target=target, n_layers=2), seed=21)
    xs, targets = _batch(m, seed=22)
    batched = m.forward(xs)
    assert batched.shape == targets.shape
    expect = np.stack([reference_forward(m, x) for x in xs])
    assert np.max(np.abs(batched.data - expect)) <= 1e-12
    single = m.forward(xs[1])
    assert single.shape == expect[1].shape
    assert np.max(np.abs(single.data - expect[1])) <= 1e-12
    loss = float(mse_loss(m.forward(xs), targets).data)
    assert abs(loss - reference_batch_loss(m, xs, targets)) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_gradients_match_finite_differences(kind):
    from helpers import model_gradient_mismatches

    m = _randomized_pe(tiny_model(pe=kind, d_model=4, d_ff=8, k_bins=5), seed=25)
    xs, targets = _batch(m, seed=26, clips=2, length=4)
    bad, worst = model_gradient_mismatches(m, xs, targets)
    assert bad == 0, f"{bad} mismatches, worst relative error {worst:.3g}"


def test_predict_records_no_tape_and_training_still_does(monkeypatch):
    from lgse.numerics import backward, reduce_sum

    m = tiny_model(pe="learnlin")
    x = rand_input(5)
    outs = []
    forward = EnhancementModel.forward

    def spy(self, x_mag):
        outs.append(forward(self, x_mag))
        return outs[-1]

    monkeypatch.setattr(EnhancementModel, "forward", spy)
    pred = m.predict(x)
    assert len(outs) == 1 and np.array_equal(pred, outs[0].data)
    assert outs[0]._node is None
    assert not outs[0].requires_grad
    backward(reduce_sum(m.forward(x)))
    assert m.params["pe.beta"].grad is not None
    assert np.any(m.params["layers.0.attn.q"].grad != 0.0)


# -- tape-free attention in query blocks ------------------------------------------


def _softmax_spy(monkeypatch, fail=None):
    """Record the score shape of every `softmax_rows` call the model makes;
    `fail(n)` true makes the n-th call (from 1) raise instead."""
    import lgse.model as model_module

    calls = []
    softmax = model_module.softmax_rows

    def spy(a, values=None):
        calls.append(a.shape)
        if fail is not None and fail(len(calls)):
            raise RuntimeError(f"softmax call {len(calls)} failed")
        return softmax(a, values)

    monkeypatch.setattr(model_module, "softmax_rows", spy)
    return calls


def _predict_on(workers, m, x, calls, monkeypatch):
    """predict `x` as if this process could use `workers` CPUs, with the
    spied `calls` cleared first."""
    import lgse.model as model_module

    monkeypatch.setattr(model_module, "_usable_cpus", lambda: workers)
    calls.clear()
    return m.predict(x)


def _predict_matches_reference(m, monkeypatch, length=11, rows=3):
    """predict, in blocks of `rows` query rows, against the reference forward
    for one clip and for a stack of two, on one worker and on two. Two
    workers share out the same blocks, each over every head, and give the
    same bits as one."""
    import lgse.model as model_module
    from helpers import reference_forward

    h = m.config.n_heads
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", 8 * length * h * rows)
    calls = _softmax_spy(monkeypatch)
    xs, _ = _batch(m, seed=28, clips=2, length=length)
    expect = np.stack([reference_forward(m, x) for x in xs])
    n_blocks = -(-length // rows)
    block_rows = [rows] * (n_blocks - 1) + [length - rows * (n_blocks - 1)]
    preds = {}
    for workers in (1, 2):
        preds[workers] = _predict_on(workers, m, xs[0], calls, monkeypatch)
        assert np.max(np.abs(preds[workers] - expect[0])) <= 1e-12
        assert sorted(calls) == sorted([(h, r, length) for r in block_rows]
                                       * m.config.n_layers)
        assert np.max(np.abs(m.predict(xs) - expect)) <= 1e-12
    assert np.array_equal(preds[1], preds[2])


@pytest.mark.parametrize("target", ["irm", "psm", "ms", "cirm"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_blocked_predict_matches_reference(kind, target, monkeypatch):
    m = _randomized_pe(tiny_model(pe=kind, target=target, n_layers=2), seed=29)
    _predict_matches_reference(m, monkeypatch)


def test_blocked_predict_with_floored_logits_matches_reference():
    """At L = 800 a learnlin decay of beta = -2 pushes logits to -1598, far
    below the tape-free softmax's floor."""
    from helpers import reference_forward

    m = tiny_model(pe="learnlin")
    m.params["pe.beta"].data[:] = -2.0
    x = rand_input(800, seed=34)
    assert np.max(np.abs(m.predict(x) - reference_forward(m, x))) <= 1e-12


@pytest.mark.parametrize("shapes", [
    ((3, 2, 7, 4), (2, 7, 4), (7, 4), (2, 7, 7)),
    ((7, 4), (7, 4), (7, 4), (2, 7, 7)),
])
def test_blocked_attention_matches_tape_with_broadcast_operands(shapes):
    rng = np.random.default_rng(31)
    q, k, v, bias = (rng.normal(size=shape) for shape in shapes)
    for multiplicative in (False, True):
        tape = attention_head(Tensor(q, requires_grad=True), constant(k), constant(v),
                              constant(bias), multiplicative=multiplicative)
        blocked = attention_head(constant(q), constant(k), constant(v), constant(bias),
                                 multiplicative=multiplicative)
        assert tape._node.parents and blocked._node is None
        assert np.max(np.abs(blocked.data - tape.data)) <= 1e-14


@pytest.mark.parametrize("kind", ["learnlin", "dabias", "rope", "t5"])
def test_three_workers_over_an_uneven_split_equal_one_worker(kind, monkeypatch):
    """Five stacked clips of 14 frames over three workers: four blocks of 3
    query rows and one of 2, in runs of 2, 2 and 1 blocks."""
    import lgse.model as model_module

    m = _randomized_pe(tiny_model(pe=kind, n_layers=2), seed=35)
    clips, length, h = 5, 14, m.config.n_heads
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", 8 * length * h * clips * 3)
    calls = _softmax_spy(monkeypatch)
    xs, _ = _batch(m, seed=36, clips=clips, length=length)
    preds = [_predict_on(workers, m, xs, calls, monkeypatch) for workers in (1, 3)]
    assert sorted(calls) == sorted([(clips, h, r, length) for r in (3, 3, 3, 3, 2)]
                                   * m.config.n_layers)
    assert np.array_equal(preds[0], preds[1])


def test_more_workers_than_cores_switching_often_equal_one_worker(monkeypatch):
    """Nine workers write disjoint blocks of rows of one output, eleven
    blocks of one query row over nine clips, while the interpreter switches
    threads every microsecond."""
    import sys

    import lgse.model as model_module

    m = _randomized_pe(tiny_model(pe="learnlin", n_layers=2), seed=39)
    clips, length = 9, 11
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", 8 * length * m.config.n_heads * clips)
    # And the per-frame parts: 99 frames in 49 blocks over nine workers.
    monkeypatch.setattr(model_module, "_FRAME_WORK", 1)
    monkeypatch.setattr(model_module, "_FRAME_ROWS", 2)
    calls = _softmax_spy(monkeypatch)
    ffn_calls = _ffn_spy(monkeypatch)
    xs, _ = _batch(m, seed=40, clips=clips, length=length)
    one = _predict_on(1, m, xs, calls, monkeypatch)
    ffn_calls.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _predict_on(clips, m, xs, calls, monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == length * m.config.n_layers
    assert len(ffn_calls) == 49 * m.config.n_layers
    assert len({thread for _, thread in ffn_calls}) > 1
    assert np.array_equal(one, many)


def test_a_one_clip_stack_splits_its_query_rows(monkeypatch):
    import lgse.model as model_module

    m = _randomized_pe(tiny_model(pe="t5", n_layers=2), seed=37)
    length, h = 11, m.config.n_heads
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", 8 * length * h * 4)
    calls = _softmax_spy(monkeypatch)
    xs, _ = _batch(m, seed=38, clips=1, length=length)
    preds = [_predict_on(workers, m, xs, calls, monkeypatch) for workers in (1, 2)]
    assert sorted(calls) == sorted([(1, h, r, length) for r in (4, 4, 3)]
                                   * m.config.n_layers)
    assert np.array_equal(preds[0], preds[1])


@pytest.mark.parametrize("fail", [lambda n: n == 2,
                                  lambda n: threading.current_thread()
                                  is not threading.main_thread()],
                         ids=["second call", "pool thread"])
def test_error_in_a_worker_block_propagates_and_its_threads_end(fail, monkeypatch):
    import lgse.model as model_module

    m = tiny_model(pe="learnlin")
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", 8 * 11 * m.config.n_heads * 4)
    monkeypatch.setattr(model_module, "_usable_cpus", lambda: 2)
    _softmax_spy(monkeypatch, fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="softmax call"):
        m.predict(rand_input(11))
    assert threading.active_count() == before


def _attention_threads(monkeypatch, usable, block_bytes, *shape):
    """Run `attention_head` on random (shape) q, k and v as if this process
    could use `usable` CPUs, with `block_bytes` of scores per block; return
    the output and the thread and query rows of each softmax call."""
    import lgse.model as model_module

    monkeypatch.setattr(model_module, "_usable_cpus", lambda: usable)
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", block_bytes)
    threads, softmax = [], model_module.softmax_rows

    def spy(a, values=None):
        threads.append((threading.get_ident(), a.shape[-2]))
        return softmax(a, values)

    monkeypatch.setattr(model_module, "softmax_rows", spy)
    rng = np.random.default_rng(45)
    q, k, v = (constant(rng.normal(size=shape)) for _ in range(3))
    return attention_head(q, k, v).data, threads


def test_long_attention_gives_a_second_worker_query_rows(monkeypatch):
    """On 2 usable CPUs a long attention call over two heads, blocks of 4
    query rows, splits its three blocks between the calling thread and one
    pool thread."""
    _, calls = _attention_threads(monkeypatch, 2, 8 * 11 * 2 * 4, 2, 11, 4)
    threads = {thread for thread, _ in calls}
    assert len(calls) == 3 and len(threads - {threading.get_ident()}) == 1


def test_a_single_attention_problem_splits_its_query_rows(monkeypatch):
    """One (L, d) problem, one clip and one head, in blocks of 4 query rows:
    on 2 usable CPUs two threads take blocks, with the one-worker bits. The
    calling thread, whose run is a block longer, takes the short block."""
    main = threading.get_ident()
    one, calls = _attention_threads(monkeypatch, 1, 8 * 11 * 4, 11, 4)
    assert sorted(calls) == [(main, 3), (main, 4), (main, 4)]
    two, calls = _attention_threads(monkeypatch, 2, 8 * 11 * 4, 11, 4)
    assert sorted(rows for thread, rows in calls if thread == main) == [3, 4]
    assert [rows for thread, rows in calls if thread != main] == [4]
    assert np.array_equal(one, two)


def test_on_workers_deals_contiguous_runs_in_the_callers_context(monkeypatch):
    """Five jobs on three workers: runs of 2, 2 and 1, the first on the
    calling thread, and every run inside the caller's `no_grad()`."""
    import lgse.model as model_module
    from lgse.numerics import grad_enabled, no_grad

    monkeypatch.setattr(model_module, "_usable_cpus", lambda: 3)
    seen = {}

    def run(lo, hi):
        seen[lo, hi] = (grad_enabled(), threading.get_ident())

    with no_grad():
        model_module._on_workers(run, 5)
    assert sorted(seen) == [(0, 2), (2, 4), (4, 5)]
    assert [enabled for enabled, _ in seen.values()] == [False] * 3
    assert seen[0, 2][1] == threading.get_ident()
    assert threading.get_ident() not in (seen[2, 4][1], seen[4, 5][1])


def test_only_the_model_module_counts_cpus_and_starts_threads():
    """CPU lookups and thread pools appear in `model` alone, the BLAS
    thread variables in `lgse/__init__.py` alone, and `evaluate` uses no
    private `model` helper but `_workers`, and that only inside
    `_in_processes`, so no other caller sees the worker count."""
    import ast
    from pathlib import Path

    import lgse

    package = Path(lgse.__file__).parent
    homes = {"sched_getaffinity": "model.py", "cpu_count": "model.py",
             "ThreadPoolExecutor": "model.py", "OPENBLAS_NUM_THREADS": "__init__.py",
             "OMP_NUM_THREADS": "__init__.py", "MKL_NUM_THREADS": "__init__.py"}
    found = {name: [path.name for path in sorted(package.glob("*.py"))
                    if name in path.read_text(encoding="utf-8")] for name in homes}
    assert found == {name: [home] for name, home in homes.items()}
    tree = ast.parse((package / "evaluate.py").read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "model_module"}
    used |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "model"
             for alias in node.names}
    assert {name for name in used if name.startswith("_")} == {"_workers"}
    uses = [node for node in ast.walk(tree)
            if getattr(node, "attr", getattr(node, "id", None)) == "_workers"]
    split, = (node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_in_processes")
    inside = set(map(id, ast.walk(split)))
    assert uses and all(id(node) in inside for node in uses)


def test_only_the_package_module_makes_process_wide_settings():
    """`ctypes` is imported, and glibc's `mallopt` named, in
    `lgse/__init__.py` alone: the BLAS pin and the heap thresholds are set
    once, on import, and nowhere else."""
    import ast
    from pathlib import Path

    import lgse

    package = Path(lgse.__file__).parent
    found = {"ctypes": [], "mallopt": []}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "ctypes" for m in modules):
                found["ctypes"].append(path.name)
            if getattr(node, "attr", getattr(node, "id", None)) == "mallopt":
                found["mallopt"].append(path.name)
    assert {name: sorted(set(homes)) for name, homes in found.items()} == {
        "ctypes": ["__init__.py"], "mallopt": ["__init__.py"]}


def test_no_package_module_holds_an_assert():
    """`python -O` strips `assert` statements, so a check in lgse written as
    one would silently vanish: library checks raise."""
    import ast
    from pathlib import Path

    import lgse

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(lgse.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


# numpy loads its BLAS unpinned, then lgse is imported; prints the BLAS
# thread count (-1 if numpy's BLAS is not OpenBLAS) and the sha256 of an
# attention-shaped product (20 s of frames, heads of width 32), whose bits
# changed with the thread count on 2 CPUs.
_NUMPY_FIRST = """
import ctypes, hashlib, sys
import numpy as np

core = (sys.modules.get("numpy._core._multiarray_umath")
        or sys.modules.get("numpy.core._multiarray_umath"))
blas = ctypes.CDLL(core.__file__)
names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
         "openblas_get_num_threads64_", "openblas_get_num_threads")
get = next((getattr(blas, name) for name in names if hasattr(blas, name)), lambda: -1)
rng = np.random.default_rng(46)
a, b = rng.normal(size=(1249, 1249)), rng.normal(size=(1249, 32))
import lgse
print(get(), hashlib.sha256(a @ b).hexdigest())
"""


def test_importing_lgse_after_numpy_pins_its_blas():
    """A library caller that loads numpy first, with no BLAS variable set,
    still gets one BLAS thread and the pinned bytes of a product."""
    import hashlib
    import subprocess
    import sys

    from helpers import unpinned_env

    done = subprocess.run([sys.executable, "-c", _NUMPY_FIRST], capture_output=True,
                          text=True, env=unpinned_env(), timeout=120, check=True)
    threads, digest = done.stdout.split()
    if threads == "-1":
        pytest.skip("numpy's BLAS is not OpenBLAS")
    rng = np.random.default_rng(46)
    a, b = rng.normal(size=(1249, 1249)), rng.normal(size=(1249, 32))
    assert threads == "1"
    assert digest == hashlib.sha256(a @ b).hexdigest()


# Imports lgse alone; prints whether numpy is loaded and the value of each
# environment variable named on the command line.
_LGSE_ALONE = """
import json, os, sys
import lgse
print(json.dumps(["numpy" in sys.modules, [os.environ.get(v) for v in sys.argv[1:]]]))
"""


def test_importing_lgse_loads_no_numpy_and_sets_the_blas_variables():
    """`import lgse` pins BLAS through the environment and imports no
    submodule, so nothing has loaded numpy yet."""
    import json
    import subprocess
    import sys

    from helpers import BLAS_THREAD_VARS, unpinned_env

    done = subprocess.run([sys.executable, "-c", _LGSE_ALONE, *BLAS_THREAD_VARS],
                          capture_output=True, text=True, env=unpinned_env(),
                          timeout=120, check=True)
    assert json.loads(done.stdout) == [False, ["1", "1", "1"]]


# Prints the minor page faults per burst of three 1 MiB float64 temporaries,
# allocated, written and freed, like the temporaries of one `dsp.istft` call:
# 50 bursts before `import lgse` and 50 after it.
_HEAP_BURSTS = """
import resource
import numpy as np

def faults_per_burst(n=50):
    def burst():
        arrays = [np.empty(1 << 17) for _ in range(3)]
        for a in arrays:
            a.fill(1.0)
        del arrays

    burst()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(n):
        burst()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / n

first = faults_per_burst()
import lgse
print(first, faults_per_burst())
"""


def test_importing_lgse_keeps_freed_heap_pages_for_the_next_call():
    """Under glibc's default thresholds each burst gives its 3 MiB back to
    the kernel and faults it in again; after `import lgse` the pages stay."""
    import os
    import subprocess
    import sys

    from helpers import unpinned_env

    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = None
    if not libc or not libc.startswith("glibc"):
        pytest.skip("the C library is not glibc")
    env = unpinned_env()
    env.pop("GLIBC_TUNABLES", None)
    done = subprocess.run([sys.executable, "-c", _HEAP_BURSTS], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    before, after = map(float, done.stdout.split())
    # 3 MiB is 768 pages of 4 KiB.
    assert before > 100
    assert after < 5


def test_long_predict_never_allocates_a_full_score_stack():
    import tracemalloc

    m = _randomized_pe(tiny_model(pe="learnlin", n_layers=2), seed=32)
    length = 1000
    x = rand_input(length, seed=33)
    stack_bytes = m.config.n_heads * length * length * 8
    tracemalloc.start()
    try:
        pred = m.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2
    assert np.max(np.abs(pred - m.forward(x).data)) <= 1e-12


# -- per-frame parts in blocks of frames --------------------------------------


def _ffn_spy(monkeypatch, fail=None):
    """Record the input shape and thread of every `ffn` call; `fail(n)` true
    makes the n-th call (from 1) raise instead."""
    calls = []
    ffn = EnhancementModel.ffn

    def spy(self, y, layer):
        calls.append((y.shape, threading.get_ident()))
        if fail is not None and fail(len(calls)):
            raise RuntimeError(f"ffn call {len(calls)} failed")
        return ffn(self, y, layer)

    monkeypatch.setattr(EnhancementModel, "ffn", spy)
    return calls


@pytest.mark.parametrize("target", ["irm", "psm", "ms", "cirm"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_frame_blocks_on_any_worker_count_equal_whole_arrays(kind, target, monkeypatch):
    """One clip of 11 frames (blocks of 3, 3 and 5) and a stack of two (22
    frames, six blocks of 3 and one of 4), split on 1, 2 and 3 workers, give
    the bits of the whole-array path; a forward with a tape stays whole."""
    import lgse.model as model_module

    m = _randomized_pe(tiny_model(pe=kind, target=target, n_layers=2), seed=41)
    xs, _ = _batch(m, seed=42, clips=2, length=11)
    ffn_calls = _ffn_spy(monkeypatch)
    threshold = model_module._FRAME_WORK
    for x in (xs[0], xs):
        frames = x.size // x.shape[-1]
        monkeypatch.setattr(model_module, "_FRAME_WORK", threshold)
        whole = m.predict(x)
        assert [shape for shape, _ in ffn_calls] == [x.shape[:-1] + (8,)] * 2
        monkeypatch.setattr(model_module, "_FRAME_WORK", 1)
        monkeypatch.setattr(model_module, "_FRAME_ROWS", 3)
        rows = [3] * (frames // 3 - 1) + [3 + frames % 3]
        for workers in (1, 2, 3):
            monkeypatch.setattr(model_module, "_usable_cpus", lambda: workers)
            ffn_calls.clear()
            assert np.array_equal(m.predict(x), whole), workers
            assert sorted(shape for shape, _ in ffn_calls) == sorted([(r, 8) for r in rows] * 2)
            # A pool thread may take two runs, but never the calling thread's.
            assert (len({thread for _, thread in ffn_calls}) > 1) == (workers > 1)
        ffn_calls.clear()
        assert np.max(np.abs(m.forward(x).data - whole)) <= 1e-12
        assert [shape for shape, _ in ffn_calls] == [x.shape[:-1] + (8,)] * 2
        ffn_calls.clear()


@pytest.mark.parametrize("fail", [lambda n: n == 2,
                                  lambda n: threading.current_thread()
                                  is not threading.main_thread()],
                         ids=["second call", "pool thread"])
def test_error_in_a_frame_worker_propagates_and_its_threads_end(fail, monkeypatch):
    import lgse.model as model_module

    m = tiny_model(pe="learnlin")
    monkeypatch.setattr(model_module, "_FRAME_WORK", 1)
    monkeypatch.setattr(model_module, "_FRAME_ROWS", 2)
    monkeypatch.setattr(model_module, "_usable_cpus", lambda: 2)
    _ffn_spy(monkeypatch, fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="ffn call"):
        m.predict(rand_input(11))
    assert threading.active_count() == before


def test_long_split_predict_never_allocates_a_frames_by_d_ff_array(monkeypatch):
    """At 2,000 frames and d_ff 1024 one (frames, d_ff) array is 16 MB, over
    twice the peak a split predict allocates."""
    import tracemalloc

    import lgse.model as model_module

    m = _randomized_pe(tiny_model(pe="learnlin", n_layers=2, d_ff=1024), seed=43)
    length = 2000
    monkeypatch.setattr(model_module, "_FRAME_WORK", length * 8 * 1024)
    monkeypatch.setattr(model_module, "_usable_cpus", lambda: 2)
    x = rand_input(length, seed=44)
    hidden_bytes = length * m.config.d_ff * 8
    tracemalloc.start()
    try:
        pred = m.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hidden_bytes / 2
    assert np.max(np.abs(pred - m.forward(x).data)) <= 1e-12


def _check_tape_free_forward(monkeypatch):
    """Blocked tape-free `predict` against the tape `forward` for every
    scheme and a learnlin decay strong enough to hit the softmax floor, with
    attention blocks small enough that each call makes several and every
    per-frame part split into blocks of 4 frames, with a one-head model too,
    whose single attention problem splits; and `predict` on up to three
    workers against one, bitwise, on any host."""
    import lgse.model as model_module

    rng = np.random.default_rng(12)
    # (kind, length, learnlin beta, heads); beta -2 reaches -798 at L = 400.
    cases = [(kind, 13, None, 2) for kind in SCHEMES]
    cases += [(PeKind.LEARNLIN, 400, -2.0, 2), (PeKind.LEARNLIN, 13, None, 1)]
    monkeypatch.setattr(model_module, "_FRAME_WORK", 1)
    monkeypatch.setattr(model_module, "_FRAME_ROWS", 4)
    for kind, length, beta, heads in cases:
        model = EnhancementModel(ModelConfig(
            n_layers=2, n_heads=heads, d_model=8, d_ff=16, k_bins=9, pe_kind=kind,
            bertpos_max_len=8, init_seed=5))
        for name, t in model.params.items():
            if name.startswith("pe."):
                t.data = t.data + rng.normal(0.0, 0.3, t.shape)
        if beta is not None:
            model.params["pe.beta"].data[:] = beta
        # Three query blocks per attention call over every head.
        monkeypatch.setattr(model_module, "_BLOCK_BYTES", 8 * heads * length * -(-length // 3))
        x = rng.uniform(0.0, 2.0, (length, 9))
        preds = {}
        for cap in (3, 1):
            monkeypatch.setattr(model_module, "_workers", functools.partial(min, cap))
            preds[cap] = model.predict(x)
        err = np.max(np.abs(preds[3] - model.forward(x).data))
        assert err <= 1e-12, f"{kind.value} H={heads} L={length}: {err:.3g}"
        assert np.array_equal(preds[1], preds[3]), (
            f"{kind.value} H={heads} L={length}: one worker differs from three")


def test_tape_free_predict_matches_the_tape_forward(monkeypatch):
    _check_tape_free_forward(monkeypatch)


def test_tape_free_check_catches_a_floor_that_changes_weights(monkeypatch):
    import lgse.numerics as numerics

    monkeypatch.setattr(numerics, "EXP_FLOOR", -5.0)
    with pytest.raises(AssertionError, match=" L=13: "):
        _check_tape_free_forward(monkeypatch)


@pytest.mark.filterwarnings("error")
def test_dabias_stays_finite_when_a_decay_turns_negative():
    """Once w < 0, e^{v - w|i-j|} overflows past |w| |i-j| ~ 709: a desk
    predict at 1,249 frames with w = -1, and a taped step over 30-frame
    clips with w = -30, whose gradients must stay finite."""
    from lgse.numerics import backward
    from lgse.training import mse_loss

    m = EnhancementModel(ModelConfig(n_layers=2, n_heads=4, d_model=32, d_ff=128,
                                     pe_kind="dabias", target="ms"))
    m.params["pe.w"].data[:] = -1.0
    assert np.all(np.isfinite(m.predict(rand_input(1249, k=257, seed=50))))
    m.params["pe.w"].data[:] = -30.0
    xs, targets = _batch(m, seed=51, clips=2, length=30)
    backward(mse_loss(m.forward(xs), targets))
    for name in ("pe.w", "pe.v"):
        assert np.all(np.isfinite(m.params[name].grad)), name


@pytest.mark.parametrize("target", ["irm", "cirm"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_backward_hands_no_gradient_to_a_tensor_that_needs_none(kind, target,
                                                                 monkeypatch):
    """On 7-frame clips bertpos runs past its 4 trained rows, so constant
    rows join its table on the tape; they must receive no gradient."""
    import lgse.numerics as numerics
    from lgse.numerics import backward
    from lgse.training import mse_loss

    accumulate = numerics._accumulate
    needless = []

    def spy(t, g):
        if not t.requires_grad:
            needless.append(t.shape)
        accumulate(t, g)

    monkeypatch.setattr(numerics, "_accumulate", spy)
    m = _randomized_pe(tiny_model(pe=kind, target=target, n_layers=1,
                                  bertpos_max_len=4), seed=52)
    xs, targets = _batch(m, seed=53, clips=2, length=7)
    backward(mse_loss(m.forward(xs), targets))
    assert needless == []
    assert all(t.grad is not None for t in m.params.values())
