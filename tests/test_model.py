import numpy as np
import pytest

from lgse.model import CapabilityError, EnhancementModel, ModelConfig, attention_head
from lgse.numerics import Tensor, constant
from lgse.posenc import PeKind, param_count

TINY = dict(n_layers=1, n_heads=2, d_model=8, d_ff=16, k_bins=9,
            bertpos_max_len=8, bertpos_hard_cap=32)

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
    with_pe = m.embed(x, add_position=True).data
    without = m.embed(x, add_position=False).data
    diff = with_pe - without
    if kind == "sinusoidal":
        from lgse.posenc import sinusoidal_embedding
        assert np.allclose(diff, sinusoidal_embedding(6, 8))
    else:
        assert np.allclose(diff, m.params["pe.embed"].data[:6])


def test_bertpos_uses_frozen_extension_rows():
    m = tiny_model(pe="bertpos")
    x = rand_input(12)  # beyond the 8 trained rows
    with_pe = m.embed(x, add_position=True).data
    without = m.embed(x, add_position=False).data
    ext = (with_pe - without)[8:]
    assert np.allclose(ext, m.buffers["pe.embed_ext"][:4])


def test_bertpos_cap_raises_capability_error():
    m = tiny_model(pe="bertpos")
    with pytest.raises(CapabilityError):
        m.forward(rand_input(33))


# -- attention head --------------------------------------------------------------


def test_zero_bias_equals_no_bias():
    rng = np.random.default_rng(1)
    q, k, v = (Tensor(rng.normal(size=(5, 4))) for _ in range(3))
    plain = attention_head(q, k, v, None)
    biased = attention_head(q, k, v, constant(np.zeros((5, 5))), mode="additive")
    assert np.array_equal(plain.data, biased.data)


def test_uniform_values_pass_through():
    rng = np.random.default_rng(2)
    q, k = Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(6, 4)))
    v = Tensor(np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (6, 1)))
    bias = constant(rng.normal(size=(6, 6)))
    out = attention_head(q, k, v, bias, mode="additive")
    assert np.allclose(out.data, v.data, atol=1e-12)


def test_attention_bias_shape_check():
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(rng.normal(size=(5, 4))) for _ in range(3))
    with pytest.raises(ValueError):
        attention_head(q, k, v, constant(np.zeros((4, 4))))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_causal_future_perturbation_invisible(kind):
    m = tiny_model(pe=kind, causal=True)
    x = rand_input(7, seed=4)
    base = m.forward(x).data
    x2 = x.copy()
    x2[5:] += 1.0
    out = m.forward(x2).data
    assert np.allclose(out[:5], base[:5], atol=1e-12)


def test_noncausal_sees_future():
    m = tiny_model(pe="nopos", causal=False)
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
    q = z.data @ m.params["layers.0.attn.q.0"].data
    k = z.data @ m.params["layers.0.attn.k.0"].data
    v = z.data @ m.params["layers.0.attn.v.0"].data
    head = attention_head(Tensor(q), Tensor(k), Tensor(v), None).data
    expect = head @ m.params["layers.0.attn.out"].data
    got = m.mhsa(z, 0, None).data
    assert np.allclose(got, expect, atol=1e-12)


def test_head_permutation_with_matching_out_rows():
    m = tiny_model(pe="nopos")
    x = rand_input(6, seed=5)
    base = m.forward(x).data
    d_k = m.config.d_k
    # Swap head 0 and 1 plus the matching W_O row blocks.
    for name in ("q", "k", "v"):
        a = m.params[f"layers.0.attn.{name}.0"].data.copy()
        m.params[f"layers.0.attn.{name}.0"].data = \
            m.params[f"layers.0.attn.{name}.1"].data.copy()
        m.params[f"layers.0.attn.{name}.1"].data = a
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
    n_params_before = m.parameter_count()
    short = m.forward(rand_input(61, seed=10))
    long = m.forward(rand_input(200, seed=11))
    assert short.shape == (61, 9)
    assert long.shape == (200, 9)
    assert m.parameter_count() == n_params_before


def test_residual_identity_with_zeroed_sublayers():
    m = tiny_model(pe="nopos", post_ln=False)
    for i in range(m.config.n_layers):
        m.params[f"layers.{i}.attn.out"].data[:] = 0.0
        m.params[f"layers.{i}.ffn.w2"].data[:] = 0.0
        m.params[f"layers.{i}.ffn.b2"].data[:] = 0.0
    x = rand_input(6, seed=12)
    embedded = m.embed(x).data
    # The head sees exactly the embedding stream.
    expect = 1.0 / (1.0 + np.exp(-(embedded @ m.params["head.weight"].data
                                   + m.params["head.bias"].data)))
    assert np.allclose(m.forward(x).data, expect, atol=1e-12)


def test_pe_param_subcount_matches_table():
    for kind in ALL_KINDS:
        m = tiny_model(pe=kind, n_layers=2, n_heads=2)
        expect = param_count(PeKind(kind), heads=2, layers=2,
                             kernels=m.config.tisa_kernels,
                             max_len=m.config.bertpos_max_len,
                             d_model=m.config.d_model)
        assert m.pe_parameter_count() == expect, kind


def test_total_param_count_deterministic_function_of_config():
    cfg = dict(pe="learnlin", target="irm")
    a, b = tiny_model(**cfg), tiny_model(**cfg)
    assert a.parameter_count() == b.parameter_count()
    for name in a.params:
        assert a.params[name].shape == b.params[name].shape
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_offset_equivariance_under_context_masking():
    """A shifted copy inside masked context reproduces short-sequence weights."""
    rng = np.random.default_rng(13)
    d_k = 4
    q_short = rng.normal(size=(5, d_k))
    k_short = rng.normal(size=(5, d_k))
    v_short = rng.normal(size=(5, d_k))
    beta = -0.3
    from lgse.posenc import learnlin_bias
    bias5 = learnlin_bias(5, Tensor(beta))
    _, w_short = attention_head(Tensor(q_short), Tensor(k_short), Tensor(v_short),
                                bias5, return_weights=True)

    shift = 4
    big = 12
    q_long = rng.normal(size=(big, d_k))
    k_long = rng.normal(size=(big, d_k))
    v_long = rng.normal(size=(big, d_k))
    q_long[shift:shift + 5] = q_short
    k_long[shift:shift + 5] = k_short
    v_long[shift:shift + 5] = v_short
    bias_big = learnlin_bias(big, Tensor(beta)).data.copy()
    # Mask all context columns so only the copied block can be attended.
    mask = np.full((big, big), -1e9)
    mask[:, shift:shift + 5] = 0.0
    _, w_long = attention_head(Tensor(q_long), Tensor(k_long), Tensor(v_long),
                               constant(bias_big + mask), return_weights=True)
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
    from lgse.training import BatchItem, _batch_loss

    m = _randomized_pe(tiny_model(pe=kind, target=target, n_layers=2), seed=21)
    xs, targets = _batch(m, seed=22)
    batched = m.forward(xs)
    assert batched.shape == targets.shape
    expect = np.stack([reference_forward(m, x) for x in xs])
    assert np.max(np.abs(batched.data - expect)) <= 1e-12
    single = m.forward(xs[1])
    assert single.shape == expect[1].shape
    assert np.max(np.abs(single.data - expect[1])) <= 1e-12
    items = [BatchItem(x, t, 0, np.zeros(1), np.zeros(1)) for x, t in zip(xs, targets)]
    loss = float(_batch_loss(m, items).data)
    assert abs(loss - reference_batch_loss(m, xs, targets)) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_causal_forward_matches_reference(kind):
    from helpers import reference_forward

    m = _randomized_pe(tiny_model(pe=kind, n_layers=2, causal=True), seed=23)
    xs, _ = _batch(m, seed=24)
    expect = np.stack([reference_forward(m, x) for x in xs])
    assert np.max(np.abs(m.forward(xs).data - expect)) <= 1e-12


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
    assert outs[0]._parents == () and outs[0]._backward is None
    assert not outs[0].requires_grad
    backward(reduce_sum(m.forward(x)))
    assert m.params["pe.beta"].grad is not None
    assert np.any(m.params["layers.0.attn.q.0"].grad != 0.0)


# -- tape-free attention in query blocks ------------------------------------------


def _predict_matches_reference(m, monkeypatch, length=11, rows=3):
    """predict, in blocks of `rows` query rows, against the reference forward
    for one clip and for a stack of two."""
    import lgse.model as model_module
    from helpers import reference_forward

    h = m.config.n_heads
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", 8 * length * h * rows)
    calls = []
    softmax = model_module.softmax_rows

    def spy(a):
        calls.append(a.shape)
        return softmax(a)

    monkeypatch.setattr(model_module, "softmax_rows", spy)
    xs, _ = _batch(m, seed=28, clips=2, length=length)
    expect = np.stack([reference_forward(m, x) for x in xs])
    assert np.max(np.abs(m.predict(xs[0]) - expect[0])) <= 1e-12
    n_blocks = -(-length // rows)
    assert calls[:n_blocks] == [(h, rows, length)] * (n_blocks - 1) + [
        (h, length - rows * (n_blocks - 1), length)]
    assert len(calls) == n_blocks * m.config.n_layers
    assert np.max(np.abs(m.predict(xs) - expect)) <= 1e-12


@pytest.mark.parametrize("target", ["irm", "psm", "ms", "cirm"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_blocked_predict_matches_reference(kind, target, monkeypatch):
    m = _randomized_pe(tiny_model(pe=kind, target=target, n_layers=2), seed=29)
    _predict_matches_reference(m, monkeypatch)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_blocked_causal_predict_matches_reference(kind, monkeypatch):
    m = _randomized_pe(tiny_model(pe=kind, n_layers=2, causal=True), seed=30)
    _predict_matches_reference(m, monkeypatch)


@pytest.mark.parametrize("shapes", [
    ((3, 2, 7, 4), (2, 7, 4), (7, 4), (2, 7, 7)),
    ((7, 4), (7, 4), (7, 4), (2, 7, 7)),
])
def test_blocked_attention_matches_tape_with_broadcast_operands(shapes):
    rng = np.random.default_rng(31)
    q, k, v, bias = (rng.normal(size=shape) for shape in shapes)
    for mode in ("additive", "multiplicative"):
        for causal in (False, True):
            tape = attention_head(Tensor(q, requires_grad=True), constant(k),
                                  constant(v), constant(bias), mode=mode,
                                  causal=causal)
            blocked = attention_head(constant(q), constant(k), constant(v),
                                     constant(bias), mode=mode, causal=causal)
            assert tape._parents and not blocked._parents
            assert np.max(np.abs(blocked.data - tape.data)) <= 1e-14


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
