import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgse.numerics import (
    ContractError,
    DimensionError,
    Tensor,
    absolute,
    add,
    backward,
    concat_cols,
    constant,
    div,
    exp,
    finite_difference,
    layer_norm_frames,
    log,
    matmul,
    no_grad,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    rotate_pairs,
    sigmoid,
    softmax_rows,
    sub,
    take,
    toeplitz,
    trace,
    transpose,
)


def rand(shape, seed=0, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(constant(np.eye(2)), constant(a))
    assert np.array_equal(out.data, a)


def test_matmul_hand_dot():
    out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_against_triple_loop():
    a, b = rand((3, 4), 1), rand((4, 2), 2)
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    out = matmul(constant(a), constant(b))
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))


# -- softmax ------------------------------------------------------------------


def test_softmax_uniform_row():
    out = softmax_rows(constant([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_softmax_large_magnitude_stable():
    out = softmax_rows(constant([[1000.0, 1000.0]]))
    assert np.allclose(out.data, 0.5, atol=1e-15)
    assert np.isfinite(out.data).all()


def test_softmax_matches_extended_precision():
    import mpmath

    mpmath.mp.dps = 50
    row = [1.0, 2.0, 3.0]
    es = [mpmath.exp(v) for v in row]
    total = sum(es)
    expect = np.array([float(e / total) for e in es])
    out = softmax_rows(constant([row]))
    assert np.max(np.abs(out.data[0] - expect)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one(m, n, seed):
    x = rand((m, n), seed, -50.0, 50.0)
    out = softmax_rows(constant(x))
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    x = np.full((1, 8), 3.7)
    out = layer_norm_frames(constant(x), constant(np.ones(8)),
                            constant(np.zeros(8)), eps=1e-5)
    assert np.max(np.abs(out.data)) < 1e-2  # eps floor keeps it near zero
    out2 = layer_norm_frames(constant(x), constant(np.ones(8)),
                             constant(np.zeros(8)), eps=1e-30)
    assert np.max(np.abs(out2.data)) < 1e-9


def test_layer_norm_already_normalized_row():
    out = layer_norm_frames(constant([[1.0, -1.0]]), constant(np.ones(2)),
                            constant(np.zeros(2)), eps=1e-30)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-12)


def test_layer_norm_row_statistics():
    x = rand((4, 8), 3)
    out = layer_norm_frames(constant(x), constant(np.ones(8)),
                            constant(np.zeros(8)), eps=1e-12).data
    for row in out:
        assert abs(row.mean()) < 1e-12
        assert abs(row.var() - 1.0) < 1e-6


def test_layer_norm_rejects_single_column():
    with pytest.raises(DimensionError):
        layer_norm_frames(constant(np.zeros((3, 1))), constant(np.zeros(1)),
                          constant(np.zeros(1)))


# -- backward -----------------------------------------------------------------


def test_backward_sum_gives_ones():
    w = Tensor(rand((3, 4), 5), requires_grad=True)
    backward(reduce_sum(w))
    assert np.array_equal(w.grad, np.ones((3, 4)))


def test_backward_quadratic_gives_2w():
    w = Tensor(rand((2, 3), 6), requires_grad=True)
    backward(reduce_sum(mul(w, w)))
    assert np.allclose(w.grad, 2.0 * w.data, atol=1e-15)


def test_backward_rejects_nonscalar():
    w = Tensor(rand((2, 2), 7), requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(w, w))


def test_backward_accumulates_shared_node():
    w = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    y = add(mul(w, 3.0), mul(w, 2.0))
    backward(reduce_sum(y))
    assert np.allclose(w.grad, 5.0)


def test_trace_topological_and_unique():
    w = Tensor(rand((2, 2), 8), requires_grad=True)
    y = mul(add(w, 1.0), sub(w, 1.0))
    loss = reduce_sum(y)
    nodes = trace(loss)
    assert len({id(n) for n in nodes}) == len(nodes)
    position = {id(n): i for i, n in enumerate(nodes)}
    for n in nodes:
        for p in n._parents:
            assert position[id(p)] < position[id(n)]


# -- element ops and gathers --------------------------------------------------


def test_take_scatter_gradient():
    v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    idx = np.array([[0, 0], [2, 1]])
    out = take(v, idx)
    assert np.array_equal(out.data, [[1.0, 1.0], [3.0, 2.0]])
    backward(reduce_sum(out))
    assert np.array_equal(v.grad, [2.0, 1.0, 1.0])


def test_concat_cols_splits_gradient():
    a = Tensor(rand((3, 2), 9), requires_grad=True)
    b = Tensor(rand((3, 4), 10), requires_grad=True)
    out = concat_cols([a, b])
    assert out.shape == (3, 6)
    backward(reduce_sum(mul(out, out)))
    assert np.allclose(a.grad, 2 * a.data)
    assert np.allclose(b.grad, 2 * b.data)


def test_rotate_pairs_roundtrip_and_grad():
    x = Tensor(rand((2, 4), 11), requires_grad=True)
    y = rotate_pairs(rotate_pairs(x))
    assert np.allclose(y.data, -x.data)
    backward(reduce_sum(rotate_pairs(x)))
    assert x.grad.shape == x.data.shape


def test_row_vector_broadcast_add():
    x = Tensor(rand((3, 4), 12), requires_grad=True)
    b = Tensor(rand((4,), 13), requires_grad=True)
    backward(reduce_sum(add(x, b)))
    assert np.array_equal(b.grad, np.full(4, 3.0))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_no_nan_inf_after_ops_on_finite_inputs():
    x = constant(rand((4, 6), 14, -2.0, 2.0))
    outs = [
        softmax_rows(x),
        layer_norm_frames(x, constant(np.ones(6)), constant(np.zeros(6))),
        sigmoid(mul(x, 100.0)),
        relu(x),
        exp(x),
        absolute(x),
    ]
    for out in outs:
        assert np.isfinite(out.data).all()


# -- gradient-check property ---------------------------------------------------


def _composites():
    def f0(x, w):
        return reduce_sum(mul(softmax_rows(matmul(x, w)), matmul(x, w)))

    def f1(x, w):
        h = relu(add(matmul(x, w), 0.1))
        return reduce_mean(mul(h, h))

    def f2(x, w):
        g = constant(np.ones(w.shape[1]))
        b = constant(np.zeros(w.shape[1]))
        return reduce_sum(sigmoid(layer_norm_frames(matmul(x, w), g, b)))

    def f3(x, w):
        y = matmul(x, w)
        return reduce_sum(div(exp(mul(y, 0.3)), add(absolute(y), 1.5)))

    def f4(x, w):
        y = matmul(transpose(x), x)
        scale = take(reshape(w, (w.size,)), 0)
        return reduce_sum(mul(log(add(mul(y, y), 1.0)), scale))

    return [f0, f1, f2, f3, f4]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(2, 5), st.integers(2, 4),
       st.integers(0, 2 ** 31 - 1))
def test_gradcheck_property(which, m, n, seed):
    f = _composites()[which]
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-2, 2, (m, n)))
    w0 = rng.uniform(-2, 2, (n, n))

    w = Tensor(w0.copy(), requires_grad=True)
    loss = f(x, w)
    backward(loss)
    auto = w.grad.ravel().copy()

    def loss_at(flat):
        wt = Tensor(flat.reshape(n, n))
        return float(f(x, wt).data)

    fd = finite_difference(loss_at, w0.ravel(), step=1e-5)
    err = np.abs(auto - fd)
    tol = np.maximum(1e-4 * np.maximum(np.abs(auto), np.abs(fd)), 1e-8)
    assert np.all(err <= tol)


def test_determinism_same_inputs_bitwise():
    x = rand((6, 6), 21)
    w = rand((6, 6), 22)

    def run():
        t = Tensor(w.copy(), requires_grad=True)
        loss = reduce_sum(softmax_rows(matmul(constant(x), t)))
        backward(loss)
        return loss.data.copy(), t.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


# -- batched shapes ------------------------------------------------------------


def _gradcheck(f, *arrays, seed=0):
    """Autodiff gradients of sum(f(...) * R) against central differences for
    every argument; R is a fixed random weighting of the output."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = f(*tensors)
    weight = constant(np.random.default_rng(seed).normal(size=out.shape))
    backward(reduce_sum(mul(out, weight)))
    for i, a in enumerate(arrays):
        def loss_at(flat, i=i):
            args = [constant(x) for x in arrays]
            args[i] = constant(flat.reshape(a.shape))
            return float(reduce_sum(mul(f(*args), weight)).data)

        fd = finite_difference(loss_at, a.ravel()).reshape(a.shape)
        assert np.allclose(tensors[i].grad, fd, rtol=1e-6, atol=1e-8), i


@pytest.mark.parametrize("a_shape,b_shape,out_shape", [
    ((2, 3, 4, 5), (2, 3, 5, 2), (2, 3, 4, 2)),   # per-head batches
    ((3, 4, 5), (5, 2), (3, 4, 2)),               # shared weight
    ((2, 1, 4, 5), (3, 5, 2), (2, 3, 4, 2)),      # broadcast batch axes
    ((4, 5), (3, 5, 2), (3, 4, 2)),               # 2-D left operand
])
def test_batched_matmul_value_and_gradcheck(a_shape, b_shape, out_shape):
    a, b = rand(a_shape, 30), rand(b_shape, 31)
    out = matmul(constant(a), constant(b))
    assert out.shape == out_shape
    assert np.allclose(out.data, np.matmul(a, b), rtol=0.0, atol=1e-12)
    _gradcheck(matmul, a, b)


def test_batched_matmul_rejects_inner_mismatch():
    with pytest.raises(DimensionError):
        matmul(constant(np.zeros((2, 3, 4))), constant(np.zeros((3, 4))))


def test_batched_transpose_gradcheck():
    x = rand((2, 3, 4, 5), 32)
    assert transpose(constant(x)).shape == (2, 3, 5, 4)
    assert np.array_equal(transpose(constant(x), -3, -2).data, np.swapaxes(x, 1, 2))
    _gradcheck(transpose, x)
    _gradcheck(lambda t: transpose(t, -3, -2), x)


def test_batched_softmax_rows_equals_per_row_and_gradchecks():
    x = rand((2, 3, 4, 5), 33, -5.0, 5.0)
    out = softmax_rows(constant(x)).data
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], softmax_rows(constant(x[idx])).data)
    _gradcheck(softmax_rows, x)


def test_batched_layer_norm_equals_per_clip_and_gradchecks():
    x, gain, bias = rand((3, 4, 5), 34), rand((5,), 35), rand((5,), 36)
    out = layer_norm_frames(constant(x), constant(gain), constant(bias)).data
    for b in range(3):
        single = layer_norm_frames(constant(x[b]), constant(gain), constant(bias))
        assert np.array_equal(out[b], single.data)
    _gradcheck(layer_norm_frames, x, gain, bias)


def test_no_grad_records_no_tape_and_restores():
    w = Tensor(rand((3, 3), 37), requires_grad=True)
    with no_grad():
        y = matmul(w, w)
        with no_grad():
            pass
        z = add(y, w)
    assert y._parents == () and z._parents == () and not z.requires_grad
    out = reduce_sum(matmul(w, w))
    assert out.requires_grad and out._parents
    backward(out)
    assert w.grad is not None


@pytest.mark.parametrize("shape,length", [((7,), 4), ((3, 9), 5), ((2, 3, 1), 1)])
def test_toeplitz_is_a_read_only_view_equal_to_take(shape, length):
    values = rand(shape, 38)
    i = np.arange(length)
    gathered = take(constant(values), (Ellipsis, i[:, None] - i[None, :] + length - 1))
    out = toeplitz(constant(values), length)
    assert out.shape == shape[:-1] + (length, length)
    assert np.array_equal(out.data, gathered.data)
    assert np.shares_memory(out.data, values)
    assert not out.data.flags.writeable
    with pytest.raises(ValueError):
        out.data[..., 0, 0] = 1.0
    _gradcheck(lambda t: toeplitz(t, length), values)


def test_toeplitz_gradient_equals_take_gradient_bitwise():
    values, length = rand((3, 11), 39), 6
    weight = constant(rand((3, 6, 6), 40))
    i = np.arange(length)
    idx = (Ellipsis, i[:, None] - i[None, :] + length - 1)
    grads = []
    for expand in (lambda t: take(t, idx), lambda t: toeplitz(t, length)):
        t = Tensor(values, requires_grad=True)
        backward(reduce_sum(mul(expand(t), weight)))
        grads.append(t.grad)
    assert np.array_equal(grads[0], grads[1])


def test_toeplitz_rejects_wrong_offset_count():
    with pytest.raises(DimensionError):
        toeplitz(constant(np.zeros(6)), 4)
