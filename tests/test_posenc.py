import ast
import math
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgse
from lgse.model import ModelConfig, param_shapes
from lgse.numerics import Tensor, backward, constant, matmul, mul, reduce_sum
from lgse.posenc import (
    BERTPOS_MAX_FRAMES,
    SCHEMES,
    TISA_KERNELS,
    CapabilityError,
    PeKind,
    bertpos_rows,
    da_bias,
    gauss_bias,
    kerple_bias,
    learnlin_bias,
    rope_rotate,
    sinusoidal_embedding,
    t5_bias,
    t5_bucket_index,
    tisa_bias,
)
from lgse.selftest import NAIVE_OFFSET, random_bias_params


# -- sinusoidal ---------------------------------------------------------------


def test_sinusoidal_position_zero():
    e = sinusoidal_embedding(4, 8)
    assert np.all(e[0, 0::2] == 0.0)
    assert np.all(e[0, 1::2] == 1.0)


def test_sinusoidal_first_column_is_sin_l():
    e = sinusoidal_embedding(6, 8)
    for l in range(6):
        assert abs(e[l, 0] - math.sin(l)) < 1e-12


def test_sinusoidal_entries_bounded():
    e = sinusoidal_embedding(100, 32)
    assert np.all(np.abs(e) <= 1.0)


def test_sinusoidal_rejects_odd_width():
    with pytest.raises(ValueError):
        sinusoidal_embedding(4, 7)


# -- bias fixtures --------------------------------------------------------------


def test_gauss_fixture_values():
    p = gauss_bias(5, Tensor(1.0)).data
    assert np.all(np.diag(p) == 0.0)
    assert p[2, 0] == -2.0
    assert p[0, 2] == -2.0


def test_gauss_brute_force():
    sigma = 2.7
    p = gauss_bias(6, Tensor(sigma)).data
    for i in range(6):
        for j in range(6):
            assert p[i, j] == -(float(i - j) ** 2 / (sigma * sigma * 2.0))


def test_gauss_rejects_zero_sigma():
    with pytest.raises(ValueError):
        gauss_bias(4, Tensor(0.0))


def test_t5_bucket_fixture_table():
    fixtures = {0: 0, 7: 7, 8: 8, 128: 15, -3: 19, -8: 24}
    for rel, slot in fixtures.items():
        assert t5_bucket_index(rel) == slot


def test_t5_bias_reads_buckets():
    table = np.arange(32, dtype=np.float64)
    p = t5_bias(10, Tensor(table)).data
    assert p[3, 3] == 0.0        # offset 0 -> slot 0
    assert p[9, 1] == 8.0        # offset 8 -> slot 8
    assert p[0, 3] == 19.0       # offset -3 -> slot 19
    assert p[0, 8] == 24.0       # offset -8 -> slot 24


def test_t5_bucket_monotone_in_magnitude():
    slots = [t5_bucket_index(r) for r in range(0, 200)]
    assert all(b <= a or a >= 15 for a, b in zip(slots[1:], slots[:-1]))
    assert max(slots) == 15
    neg = [t5_bucket_index(-r) for r in range(1, 200)]
    assert min(neg) == 17 and max(neg) == 31


def test_tisa_zero_amplitudes():
    p = tisa_bias(5, Tensor(np.zeros(5)), Tensor(np.ones(5)),
                  Tensor(np.linspace(-8, 8, 5))).data
    assert np.all(p == 0.0)


def test_tisa_flat_kernel():
    a = np.array([1.0])
    b = np.array([0.0])
    c = np.array([0.0])
    p = tisa_bias(4, Tensor(a), Tensor(b), Tensor(c)).data
    assert np.allclose(p, 1.0)


def test_da_bias_diagonal_and_flat():
    p = da_bias(5, Tensor(0.7), Tensor(-0.3)).data
    assert np.allclose(np.diag(p), 1.0)
    flat = da_bias(5, Tensor(0.0), Tensor(1.3)).data
    assert np.allclose(flat, 1.0)


def test_da_bias_asymptote():
    w, v = 0.5, 0.4
    far = da_bias(2, Tensor(w), Tensor(v)).data  # reuse builder at tiny L
    # Direct check at offset 1e4 via the same formula.
    val = (np.exp(v) + 1.0) / (np.exp(v - 1e4 * w) + 1.0)
    assert abs(val - (1.0 + np.exp(v))) < 1e-6
    assert far.shape == (2, 2)


def test_kerple_fixtures():
    p = kerple_bias(4, Tensor(0.0), Tensor(0.0)).data  # r1 = r2 = 1
    assert np.all(np.diag(p) == 0.0)
    assert abs(p[1, 0] - (-math.log(2.0))) < 1e-12
    # log identity: r1 = r2 = 1 at |i-j| = e-1 evaluates to exactly -1.
    assert abs(-1.0 * np.log(1.0 + (math.e - 1.0)) - (-1.0)) < 1e-12
    # Monotone non-increasing as |i-j| grows.
    row = p[3]
    assert row[3] >= row[2] >= row[1] >= row[0]


def test_learnlin_fixtures():
    assert np.all(learnlin_bias(5, Tensor(0.0)).data == 0.0)
    p = learnlin_bias(6, Tensor(-0.5)).data
    assert p[4, 0] == -2.0
    neg = learnlin_bias(8, Tensor(-0.25)).data
    pos = learnlin_bias(8, Tensor(0.25)).data
    for off in range(1, 7):
        assert neg[0, off] < neg[0, off - 1] or off == 0
        assert pos[0, off] > pos[0, off - 1] or off == 0


# -- structural properties -------------------------------------------------------


BIAS_KINDS = [kind for kind, scheme in SCHEMES.items() if scheme.bias is not None]


def _bias(kind, length, arrays, requires_grad=False):
    params = {n: Tensor(a, requires_grad=requires_grad) for n, a in arrays.items()}
    return SCHEMES[kind].bias(length, params), params


def test_every_kind_has_one_scheme_and_every_bias_an_oracle():
    assert set(SCHEMES) == set(PeKind)
    assert set(BIAS_KINDS) == set(NAIVE_OFFSET)
    assert [k for k, s in SCHEMES.items() if s.per_layer] == [PeKind.TISA]


@pytest.mark.parametrize("kind", BIAS_KINDS)
def test_toeplitz_exact(kind):
    rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
    p = _bias(kind, 20, random_bias_params(kind, rng))[0].data
    assert np.array_equal(p[:-1, :-1], p[1:, 1:])


@pytest.mark.parametrize("kind", BIAS_KINDS)
def test_extension_consistency(kind):
    """The L x L bias is the top-left block of the (L+16) x (L+16) bias."""
    arrays = random_bias_params(kind, np.random.default_rng(3))
    small = _bias(kind, 24, arrays)[0].data
    large = _bias(kind, 40, arrays)[0].data
    assert np.array_equal(large[:24, :24], small)


@pytest.mark.parametrize("kind", BIAS_KINDS)
def test_gradients_reach_bias_parameters(kind):
    rng = np.random.default_rng(5)
    bias, params = _bias(kind, 12, random_bias_params(kind, rng), requires_grad=True)
    weights = constant(rng.normal(size=(12, 12)))
    backward(reduce_sum(matmul(bias, weights)))
    for p in params.values():
        assert p.grad is not None
        assert np.any(p.grad != 0.0)


@pytest.mark.parametrize("kind", BIAS_KINDS)
def test_head_stacked_bias_equals_per_head_calls(kind):
    rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
    heads, length = 3, 9
    arrays = random_bias_params(kind, rng, heads=(heads,))
    stacked, params = _bias(kind, length, arrays, requires_grad=True)
    assert stacked.shape == (heads, length, length)
    for h in range(heads):
        single = _bias(kind, length, {n: a[h] for n, a in arrays.items()})[0]
        assert np.array_equal(stacked.data[h], single.data)
    weights = rng.normal(size=stacked.shape)
    backward(reduce_sum(mul(stacked, constant(weights))))
    for h in range(heads):
        bias, head_params = _bias(kind, length, {n: a[h] for n, a in arrays.items()},
                                  requires_grad=True)
        backward(reduce_sum(mul(bias, constant(weights[h]))))
        for n, p in params.items():
            assert np.allclose(p.grad[h], head_params[n].grad, rtol=1e-12, atol=1e-12)


def test_model_reaches_bias_builders_through_module_globals(monkeypatch):
    """A forward looks each builder up in `posenc`, so wrapping one there sees
    every call: once per forward for shared biases and input rows, once per
    layer for tisa and for rope's rotation."""
    from lgse import posenc
    from lgse.model import EnhancementModel, ModelConfig

    builders = {"learnlin": "learnlin_bias", "tisa": "tisa_bias", "dabias": "da_bias",
                "sinusoidal": "sinusoidal_embedding", "bertpos": "bertpos_rows",
                "rope": "rope_rotate"}
    calls = {}
    for name in builders.values():
        def counted(*args, _name=name, _fn=getattr(posenc, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(posenc, name, counted)
    x = np.random.default_rng(0).uniform(0.0, 1.0, (2, 5, 9))
    for kind in builders:
        EnhancementModel(ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16,
                                     k_bins=9, pe_kind=kind)).forward(x)
    assert calls == {"learnlin_bias": 1, "tisa_bias": 2, "da_bias": 1,
                     "sinusoidal_embedding": 1, "bertpos_rows": 1, "rope_rotate": 2}


def test_rope_rotates_stacked_heads_like_single_heads():
    rng = np.random.default_rng(9)
    q, k = rng.normal(size=(2, 3, 6, 8)), rng.normal(size=(2, 3, 6, 8))
    qr, kr = rope_rotate(Tensor(q), Tensor(k))
    for idx in np.ndindex(2, 3):
        q1, k1 = rope_rotate(Tensor(q[idx]), Tensor(k[idx]))
        assert np.array_equal(qr.data[idx], q1.data)
        assert np.array_equal(kr.data[idx], k1.data)


# -- rope ----------------------------------------------------------------------


def test_rope_position_zero_unchanged():
    rng = np.random.default_rng(6)
    q = Tensor(rng.normal(size=(3, 8)))
    k = Tensor(rng.normal(size=(3, 8)))
    qr, kr = rope_rotate(q, k)
    assert np.allclose(qr.data[0], q.data[0])
    assert np.allclose(kr.data[0], k.data[0])


def test_rope_preserves_norms():
    rng = np.random.default_rng(7)
    q = Tensor(rng.normal(size=(10, 16)))
    qr, _ = rope_rotate(q, q)
    assert np.max(np.abs(np.linalg.norm(qr.data, axis=1)
                         - np.linalg.norm(q.data, axis=1))) < 1e-12


def test_rope_dot_depends_on_offset_only():
    rng = np.random.default_rng(8)
    qvec = rng.normal(size=16)
    kvec = rng.normal(size=16)
    q = np.zeros((8, 16))
    k = np.zeros((8, 16))
    q[3], k[1] = qvec, kvec   # offset 2
    q[7], k[5] = qvec, kvec   # offset 2 again
    qr, kr = rope_rotate(Tensor(q), Tensor(k))
    dot_a = qr.data[3] @ kr.data[1]
    dot_b = qr.data[7] @ kr.data[5]
    assert abs(dot_a - dot_b) < 1e-10


def test_rope_rejects_odd_width():
    with pytest.raises(ValueError):
        rope_rotate(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


# -- bertpos ---------------------------------------------------------------------


def test_bertpos_rows_past_the_table_agree_on_common_rows():
    table = Tensor(np.random.default_rng(4).normal(size=(64, 8)))
    short, long = bertpos_rows(100, table, 7).data, bertpos_rows(300, table, 7).data
    assert np.array_equal(short[:64], table.data)
    assert np.array_equal(long[:100], short)


def test_bertpos_rows_draw_only_past_the_table_and_under_the_cap(monkeypatch):
    from lgse import posenc

    def no_draw(init_seed):
        raise AssertionError("drew fixed rows")

    monkeypatch.setattr(posenc, "pe_rng", no_draw)
    table = Tensor(np.ones((8, 4)))
    assert np.array_equal(posenc.bertpos_rows(8, table, 0).data, table.data)
    with pytest.raises(CapabilityError, match="at most"):
        posenc.bertpos_rows(BERTPOS_MAX_FRAMES + 1, table, 0)
    with pytest.raises(AssertionError, match="drew fixed rows"):
        posenc.bertpos_rows(9, table, 0)


def test_bertpos_init_draws_only_the_table():
    """`init` draws the L' trained rows and nothing more; the fixed rows
    past them are drawn by `bertpos_rows` when a length needs them."""
    dims = SimpleNamespace(n_heads=2, n_layers=1, bertpos_max_len=64, d_model=16)
    rng = np.random.default_rng(3)
    params = SCHEMES[PeKind.BERTPOS].init(dims, rng)
    assert list(params) == ["embed"] and params["embed"].shape == (64, 16)
    fresh = np.random.default_rng(3)
    fresh.normal(0.0, 0.02, size=(64, 16))
    assert rng.bit_generator.state == fresh.bit_generator.state


# -- parameter counts ------------------------------------------------------------


def _pe_count(kind, **dims) -> int:
    """Total size of the `pe.*` parameters `param_shapes` implies for a
    model of `dims`."""
    shapes = param_shapes(ModelConfig(pe_kind=kind, **dims))
    return sum(math.prod(shape) for name, shape in shapes.items() if name.startswith("pe."))


def test_param_count_reference_values():
    counts = {PeKind.LEARNLIN: 8, PeKind.GAUSS: 8, PeKind.T5: 256, PeKind.TISA: 480,
              PeKind.KERPLE: 16, PeKind.DABIAS: 16, PeKind.SINUSOIDAL: 0,
              PeKind.NOPOS: 0, PeKind.ROPE: 0}
    for kind, want in counts.items():
        assert _pe_count(kind, n_layers=4, n_heads=8) == want, kind
    assert _pe_count(PeKind.BERTPOS, n_heads=8, bertpos_max_len=100, d_model=64) == 6400


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 16), st.integers(1, 8), st.integers(1, 512),
       st.sampled_from([16, 64, 256]))
def test_param_count_formulas(heads, layers, max_len, d_model):
    # d_model must split into heads of an even width; bertpos does not
    # depend on the heads.
    dims = dict(n_heads=heads, n_layers=layers, d_model=2 * heads)
    assert _pe_count(PeKind.TISA, **dims) == 3 * TISA_KERNELS * heads * layers
    assert _pe_count(PeKind.T5, **dims) == 32 * heads
    assert _pe_count(PeKind.LEARNLIN, **dims) == heads
    assert _pe_count(PeKind.BERTPOS, n_heads=1, n_layers=layers, bertpos_max_len=max_len,
                     d_model=d_model) == max_len * d_model


def _names_pe_member(node) -> bool:
    members = {k.name for k in PeKind}
    if not (isinstance(node, ast.Attribute) and node.attr in members):
        return False
    owner = node.value
    return ((isinstance(owner, ast.Name) and owner.id == "PeKind")
            or (isinstance(owner, ast.Attribute) and owner.attr == "PeKind"))


def test_only_the_scheme_table_branches_on_pe_kind():
    """No lgse module compares against, or matches on, a PeKind member:
    scheme-specific behaviour lives in `SCHEMES`."""
    found = []
    for path in sorted(Path(lgse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Compare, ast.MatchValue)):
                found += [f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                          if _names_pe_member(sub)]
    assert found == []
