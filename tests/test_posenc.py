import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgse.numerics import Tensor, backward, constant, matmul, mul, reduce_sum
from lgse.posenc import (
    CAUSAL_NEG,
    PeKind,
    T5_BUCKETS,
    causal_mask,
    da_bias,
    gauss_bias,
    kerple_bias,
    learnlin_bias,
    param_count,
    rope_rotate,
    sinusoidal_embedding,
    t5_bias,
    t5_bucket_index,
    tisa_bias,
    toeplitz_offsets,
)


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


def _random_bias(kind, rng, length):
    if kind is PeKind.GAUSS:
        return gauss_bias(length, Tensor(rng.uniform(0.5, 15.0)))
    if kind is PeKind.T5:
        return t5_bias(length, Tensor(rng.normal(size=T5_BUCKETS)))
    if kind is PeKind.TISA:
        return tisa_bias(length, Tensor(rng.normal(size=5)),
                         Tensor(rng.normal(size=5)),
                         Tensor(rng.uniform(-8, 8, size=5)))
    if kind is PeKind.DABIAS:
        return da_bias(length, Tensor(rng.uniform(-0.5, 0.5)), Tensor(rng.normal()))
    if kind is PeKind.KERPLE:
        return kerple_bias(length, Tensor(rng.normal()), Tensor(rng.normal()))
    if kind is PeKind.LEARNLIN:
        return learnlin_bias(length, Tensor(rng.uniform(-1, 1)))
    raise ValueError(kind)


BIAS_KINDS = [PeKind.GAUSS, PeKind.T5, PeKind.TISA, PeKind.DABIAS,
              PeKind.KERPLE, PeKind.LEARNLIN]


@pytest.mark.parametrize("kind", BIAS_KINDS)
def test_toeplitz_exact(kind):
    rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
    p = _random_bias(kind, rng, 20).data
    assert np.array_equal(p[:-1, :-1], p[1:, 1:])


@pytest.mark.parametrize("kind", BIAS_KINDS)
def test_extension_consistency(kind):
    """The L x L bias is the top-left block of the (L+16) x (L+16) bias."""
    rng = np.random.default_rng(3)
    params_seed = rng.integers(1 << 30)
    small = _random_bias(kind, np.random.default_rng(params_seed), 24).data
    large = _random_bias(kind, np.random.default_rng(params_seed), 40).data
    assert np.array_equal(large[:24, :24], small)


@pytest.mark.parametrize("kind", BIAS_KINDS)
def test_gradients_reach_bias_parameters(kind):
    rng = np.random.default_rng(5)
    params = {
        PeKind.GAUSS: [Tensor(3.0, requires_grad=True)],
        PeKind.T5: [Tensor(rng.normal(size=32), requires_grad=True)],
        PeKind.TISA: [Tensor(rng.normal(size=5), requires_grad=True),
                      Tensor(rng.normal(size=5), requires_grad=True),
                      Tensor(rng.uniform(-8, 8, 5), requires_grad=True)],
        PeKind.DABIAS: [Tensor(0.3, requires_grad=True),
                        Tensor(-0.2, requires_grad=True)],
        PeKind.KERPLE: [Tensor(0.1, requires_grad=True),
                        Tensor(-0.4, requires_grad=True)],
        PeKind.LEARNLIN: [Tensor(-0.3, requires_grad=True)],
    }[kind]
    builders = {
        PeKind.GAUSS: gauss_bias, PeKind.T5: t5_bias, PeKind.TISA: tisa_bias,
        PeKind.DABIAS: da_bias, PeKind.KERPLE: kerple_bias,
        PeKind.LEARNLIN: learnlin_bias,
    }
    bias = builders[kind](12, *params)
    weights = constant(rng.normal(size=(12, 12)))
    backward(reduce_sum(matmul(bias, weights)))
    for p in params:
        assert p.grad is not None
        assert np.any(p.grad != 0.0)


def _random_head_params(kind, rng, heads):
    """(H,)-shaped parameters (or (H, S) for tisa's kernels) for one builder."""
    if kind is PeKind.GAUSS:
        return [rng.uniform(0.5, 15.0, heads)]
    if kind is PeKind.T5:
        return [rng.normal(size=(heads, T5_BUCKETS))]
    if kind is PeKind.TISA:
        return [rng.normal(size=(heads, 5)), rng.normal(size=(heads, 5)),
                rng.uniform(-8, 8, (heads, 5))]
    if kind is PeKind.DABIAS:
        return [rng.uniform(-0.5, 0.5, heads), rng.normal(size=heads)]
    if kind is PeKind.KERPLE:
        return [rng.normal(size=heads), rng.normal(size=heads)]
    return [rng.uniform(-1, 1, heads)]


BUILDERS = {PeKind.GAUSS: gauss_bias, PeKind.T5: t5_bias, PeKind.TISA: tisa_bias,
            PeKind.DABIAS: da_bias, PeKind.KERPLE: kerple_bias,
            PeKind.LEARNLIN: learnlin_bias}


@pytest.mark.parametrize("kind", BIAS_KINDS)
def test_head_stacked_bias_equals_per_head_calls(kind):
    rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
    heads, length = 3, 9
    arrays = _random_head_params(kind, rng, heads)
    params = [Tensor(a, requires_grad=True) for a in arrays]
    stacked = BUILDERS[kind](length, *params)
    assert stacked.shape == (heads, length, length)
    for h in range(heads):
        single = BUILDERS[kind](length, *(Tensor(a[h]) for a in arrays))
        assert np.array_equal(stacked.data[h], single.data)
    weights = rng.normal(size=stacked.shape)
    backward(reduce_sum(mul(stacked, constant(weights))))
    for h in range(heads):
        head_params = [Tensor(a[h], requires_grad=True) for a in arrays]
        bias = BUILDERS[kind](length, *head_params)
        backward(reduce_sum(mul(bias, constant(weights[h]))))
        for p, hp in zip(params, head_params):
            assert np.allclose(p.grad[h], hp.grad, rtol=1e-12, atol=1e-12)


def test_rope_rotates_stacked_heads_like_single_heads():
    rng = np.random.default_rng(9)
    q, k = rng.normal(size=(2, 3, 6, 8)), rng.normal(size=(2, 3, 6, 8))
    qr, kr = rope_rotate(Tensor(q), Tensor(k))
    for idx in np.ndindex(2, 3):
        q1, k1 = rope_rotate(Tensor(q[idx]), Tensor(k[idx]))
        assert np.array_equal(qr.data[idx], q1.data)
        assert np.array_equal(kr.data[idx], k1.data)


def test_causal_mask_shape_and_values():
    m = causal_mask(4)
    assert m[0, 1] == -CAUSAL_NEG
    assert m[2, 1] == 0.0
    assert np.all(np.tril(m) == 0.0)


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


# -- parameter counts ------------------------------------------------------------


def test_param_count_reference_values():
    assert param_count(PeKind.LEARNLIN, heads=8) == 8
    assert param_count(PeKind.GAUSS, heads=8) == 8
    assert param_count(PeKind.T5, heads=8) == 256
    assert param_count(PeKind.TISA, heads=8, layers=4, kernels=5) == 480
    assert param_count(PeKind.KERPLE, heads=8) == 16
    assert param_count(PeKind.DABIAS, heads=8) == 16
    assert param_count(PeKind.SINUSOIDAL, heads=8) == 0
    assert param_count(PeKind.NOPOS, heads=8) == 0
    assert param_count(PeKind.ROPE, heads=8) == 0
    assert param_count(PeKind.BERTPOS, heads=8, max_len=100, d_model=64) == 6400


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 16), st.integers(1, 8), st.integers(1, 8),
       st.integers(1, 512), st.sampled_from([16, 64, 256]))
def test_param_count_formulas(heads, layers, kernels, max_len, d_model):
    assert param_count(PeKind.TISA, heads=heads, layers=layers,
                       kernels=kernels) == 3 * kernels * heads * layers
    assert param_count(PeKind.T5, heads=heads) == 32 * heads
    assert param_count(PeKind.BERTPOS, heads=heads, max_len=max_len,
                       d_model=d_model) == max_len * d_model
    assert param_count(PeKind.LEARNLIN, heads=heads) == heads
