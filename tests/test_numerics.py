import ast
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_difference
from lgse import numerics, objectives
from lgse.numerics import (
    LN_EPS,
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

from helpers import (
    KERNEL_SHAPES,
    SPECIAL_VALUES,
    kernel_inputs,
    layer_norm_frames_plain,
    relu_where,
    same_bits,
    sigmoid_where,
    warned,
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


@pytest.mark.parametrize("score_shape,value_shape", [
    ((2, 3, 4, 6), (3, 6, 5)),
    ((2, 3, 4, 6), (6, 5)),
    ((4, 6), (6, 2)),
    ((1, 3, 7), (2, 1, 7, 4)),
])
def test_softmax_rows_with_values_equals_weights_times_values(score_shape, value_shape):
    scores = rand(score_shape, 40, -30.0, 30.0)
    values = rand(value_shape, 41)
    expect = softmax_rows(constant(scores)).data @ values
    got = softmax_rows(constant(scores.copy()), constant(values))
    assert got.shape == expect.shape and not got.requires_grad
    assert np.max(np.abs(got.data - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_softmax_rows_with_values_floors_far_logits():
    # A -1e9 mask and a -1500 decay both land on the floor, e^EXP_FLOOR.
    from lgse.numerics import EXP_FLOOR

    scores = np.array([[0.0, -1e9, -1500.0, -1.0]])
    values = np.array([[1.0], [2.0], [3.0], [4.0]])
    w = np.exp([0.0, EXP_FLOOR, EXP_FLOOR, -1.0])
    got = softmax_rows(constant(scores), constant(values)).data
    assert np.max(np.abs(got - (w / w.sum()) @ values)) <= 1e-15
    assert np.max(np.abs(got - (1.0 + 4.0 * np.exp(-1.0)) / (1.0 + np.exp(-1.0)))) <= 1e-15


@pytest.mark.parametrize("which", ["scores", "values"])
def test_softmax_rows_with_values_refuses_gradients(which):
    scores, values = rand((3, 4), 42), rand((4, 2), 43)
    args = {"scores": constant(scores), "values": constant(values)}
    args[which] = Tensor(args[which].data, requires_grad=True)
    with pytest.raises(ContractError):
        softmax_rows(args["scores"], args["values"])


def test_softmax_rows_with_values_checks_shapes():
    with pytest.raises(DimensionError):
        softmax_rows(constant(rand((3, 4))), constant(rand((5, 2))))


def test_softmax_rows_leaves_its_input_untouched():
    x = rand((2, 3, 4), 44, -5.0, 5.0)
    before = x.copy()
    softmax_rows(constant(x))
    assert np.array_equal(x, before)


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    x = np.full((1, 8), 3.7)
    out = layer_norm_frames(constant(x), constant(np.ones(8)), constant(np.zeros(8)))
    assert np.max(np.abs(out.data)) < 1e-9


def test_layer_norm_already_normalized_row():
    out = layer_norm_frames(constant([[1.0, -1.0]]), constant(np.ones(2)),
                            constant(np.zeros(2)))
    assert np.allclose(out.data, np.array([[1.0, -1.0]]) / np.sqrt(1.0 + LN_EPS),
                       rtol=0.0, atol=1e-12)


def test_layer_norm_row_statistics():
    x = rand((4, 8), 3)
    out = layer_norm_frames(constant(x), constant(np.ones(8)),
                            constant(np.zeros(8))).data
    for row, var in zip(out, x.var(axis=1)):
        assert abs(row.mean()) < 1e-12
        assert abs(row.var() - var / (var + LN_EPS)) < 1e-12


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
    assert nodes[-1] is loss._node
    for n in nodes:
        for p in getattr(n, "parents", ()):
            assert position[id(p)] < position[id(n)]


def test_trace_of_a_root_with_no_tape_is_the_root():
    for root in (constant(rand((2, 2), 9)), Tensor(rand((2, 2), 9), requires_grad=True)):
        assert trace(root) == [root]
    with no_grad():
        out = add(Tensor(rand((2, 2), 9), requires_grad=True), 1.0)
    assert trace(out) == [out]


def test_a_value_no_gradient_reads_is_freed_with_its_name():
    """A matmul output that feeds an add is read by no local gradient, so the
    tape does not keep it; the gradients stay the same bits."""
    def run(keep):
        w = Tensor(rand((3, 4), 10), requires_grad=True)
        b = Tensor(rand((4,), 11), requires_grad=True)
        product = matmul(constant(rand((5, 3), 12)), w)
        value = weakref.ref(product.data)
        loss = reduce_sum(mul(add(product, b), constant(rand((5, 4), 13))))
        if not keep:
            del product
        alive = value() is not None
        backward(loss)
        return alive, w.grad, b.grad

    kept, *want = run(keep=True)
    freed, *got = run(keep=False)
    assert kept and not freed
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def _scoped_nodes(tree):
    """(scope, node) for every node of a module; the scope names the
    top-level function or `Class.method` that holds the node."""
    for top in tree.body:
        is_class = isinstance(top, ast.ClassDef)
        prefix = f"{top.name}." if is_class else ""
        for member in top.body if is_class else [top]:
            scope = prefix + getattr(member, "name", "<statement>")
            yield from ((scope, node) for node in ast.walk(member))


def test_only_op_records_a_node():
    """In `numerics`, `_op` alone builds a `_Node` and sets a tensor's
    `_node` (apart from `Tensor.__init__`'s None default) and alone calls
    `_accumulate` and `_unbroadcast`: every op is its value plus one local
    gradient per parent."""
    tree = ast.parse(Path(numerics.__file__).read_text(encoding="utf-8"))
    records, calls = set(), set()
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            default = scope == "Tensor.__init__" and (
                isinstance(node.value, ast.Constant) and node.value.value is None)
            records |= {(scope, t.attr) for t in targets
                        if isinstance(t, ast.Attribute)
                        and t.attr == "_node" and not default}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("_accumulate", "_unbroadcast", "_Node"):
                calls.add((scope, node.func.id))
    assert records == {("_op", "_node")}
    assert calls == {("_op", "_accumulate"), ("_op", "_unbroadcast"), ("_op", "_Node")}


# numpy calls that pick each element by a mask, and calls that make a mask.
_SELECTS = {"where", "select", "putmask", "place"}
_MASK_CALLS = {"isnan", "isinf", "isfinite", "signbit", "logical_and", "logical_or",
               "logical_not", "logical_xor", "greater", "greater_equal", "less",
               "less_equal", "equal", "not_equal"}


def _is_mask(node, masks) -> bool:
    if isinstance(node, ast.Compare):
        return True
    if isinstance(node, ast.Name):
        return node.id in masks
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Invert, ast.Not)):
        return _is_mask(node.operand, masks)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr,
                                                            ast.BitXor)):
        return _is_mask(node.left, masks) or _is_mask(node.right, masks)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MASK_CALLS)


def _data_dependent_selects(source: str) -> list[str]:
    """`scope:line` of every `np.where`-like call and every assignment
    through a boolean-mask subscript; a mask is a comparison, a mask-making
    call, a combination of masks or a name the same scope binds to one.
    A `where=` keyword, as in `np.divide(..., where=)`, is no select."""
    nodes = list(_scoped_nodes(ast.parse(source)))
    masks: set[tuple[str, str]] = set()
    while True:
        found = {(scope, t.id) for scope, node in nodes if isinstance(node, ast.Assign)
                 and _is_mask(node.value, {n for s, n in masks if s == scope})
                 for t in node.targets if isinstance(t, ast.Name)}
        if found <= masks:
            break
        masks |= found
    selects = []
    for scope, node in nodes:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.func.attr in _SELECTS):
            selects.append((node.lineno, scope))
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            scope_masks = {n for s, n in masks if s == scope}
            selects += [(node.lineno, scope) for t in targets
                        if isinstance(t, ast.Subscript) and _is_mask(t.slice, scope_masks)]
    return [f"{scope}:{line}" for line, scope in sorted(selects)]


def test_no_data_dependent_select_in_the_elementwise_kernels():
    """`numerics` and `objectives` pick no element by a data-dependent mask,
    a select that mispredicts on random signs and costs several times a
    branch-free form such as `np.fmax`."""
    for module in (numerics, objectives):
        assert _data_dependent_selects(Path(module.__file__).read_text(encoding="utf-8")) == []


def test_the_select_guard_sees_each_form():
    source = textwrap.dedent("""\
        def relu(x):
            mask = x > 0.0
            return np.where(mask, x, 0.0)

        def cirm(num, x2):
            out = np.zeros_like(num)
            ok = x2 >= 1e-12
            bad = ~ok
            out[ok] = num[ok] / x2[ok]
            out[bad] = 0.0
            out[np.isnan(x2) | bad] += 1.0
            out[0] = 1.0
            return np.divide(num, x2, out=out, where=x2 > 0)
        """)
    assert _data_dependent_selects(source) == ["relu:3", "cirm:9", "cirm:10", "cirm:11"]


# -- branch-free elementwise kernels ---------------------------------------------
#
# Each gives its select-and-copy form's bits (`tests/helpers.py`); with the
# suite's warnings as errors, it warns on no input that form does not.


@pytest.mark.parametrize("shape", [None] + KERNEL_SHAPES)
def test_relu_and_sigmoid_give_the_select_forms_bits(shape):
    for x in kernel_inputs(shape):
        assert same_bits(relu(constant(x)).data, relu_where(x))
        assert same_bits(sigmoid(constant(x)).data, sigmoid_where(x))


def test_relu_gradient_is_one_above_zero_only():
    x = Tensor(SPECIAL_VALUES, requires_grad=True)
    backward(reduce_sum(relu(x)))
    assert same_bits(x.grad, (SPECIAL_VALUES > 0.0).astype(np.float64))
    assert x.grad[0] == 0.0 and x.grad[5] == 1.0  # at 0.0 and at 5e-324


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_layer_norm_frames_gives_the_plain_forms_bits(shape):
    rng = np.random.default_rng(sum(shape))
    x, gain, bias = (rng.standard_normal(n) for n in (shape, shape[-1], shape[-1]))
    out = layer_norm_frames(constant(x), constant(gain), constant(bias)).data
    assert same_bits(out, layer_norm_frames_plain(x, gain, bias))


def test_layer_norm_frames_on_special_values_gives_the_plain_forms_bits_and_warnings():
    """Every ordered pair of special values as a frame. A frame holding inf
    or NaN warns of an invalid value in both forms alike."""
    x = np.stack(np.broadcast_arrays(SPECIAL_VALUES[:, None], SPECIAL_VALUES), axis=-1)
    gain, bias = np.array([1.5, -0.25]), np.array([0.1, -0.2])
    got, got_warnings = warned(
        lambda: layer_norm_frames(constant(x), constant(gain), constant(bias)).data)
    want, want_warnings = warned(layer_norm_frames_plain, x, gain, bias)
    assert same_bits(got, want) and got_warnings == want_warnings
    finite = np.isfinite(x).all(axis=-1)
    assert np.isfinite(got[finite]).all()


# -- gradient ownership -------------------------------------------------------
#
# `_accumulate` keeps a first contribution as it is and adds later ones out of
# place, so gradients may share memory. Each case must give the gradients of
# the reference that copies every first contribution, bitwise.


def _add_self():
    w = Tensor(rand((3, 4), 20), requires_grad=True)
    backward(reduce_sum(mul(add(w, w), constant(rand((3, 4), 21)))))
    return [w]


def _two_backwards():
    w = Tensor(rand((2, 3), 22), requires_grad=True)
    backward(reduce_sum(mul(w, constant(rand((2, 3), 23)))))
    backward(reduce_sum(mul(w, w)))
    return [w]


def _views():
    # Both leaves first receive views of one reshaped upstream gradient, then
    # a second contribution each.
    a = Tensor(rand((3, 2), 24), requires_grad=True)
    b = Tensor(rand((3, 4), 25), requires_grad=True)
    y = reshape(concat_cols([a, b]), (2, 9))
    loss = add(reduce_sum(mul(y, constant(rand((2, 9), 26)))),
               add(reduce_sum(mul(a, a)), reduce_sum(transpose(b))))
    backward(loss)
    return [a, b]


def _shared_upstream():
    # w1 and w2 first share one array; only w1 gets a second contribution.
    w1 = Tensor(rand((2, 3), 27), requires_grad=True)
    w2 = Tensor(rand((2, 3), 28), requires_grad=True)
    loss = add(reduce_sum(mul(add(w1, w2), constant(rand((2, 3), 29)))),
               reduce_sum(mul(w1, constant(rand((2, 3), 30)))))
    backward(loss)
    return [w1, w2]


@pytest.mark.parametrize("case", [_add_self, _two_backwards, _views, _shared_upstream])
def test_gradients_equal_copying_reference(monkeypatch, case):
    from helpers import copying_accumulate

    with monkeypatch.context() as m:
        m.setattr(numerics, "_accumulate", copying_accumulate)
        want = [t.grad for t in case()]
    got = [t.grad for t in case()]
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_accumulating_writes_into_no_gradient():
    w1 = Tensor(rand((2, 3), 31), requires_grad=True)
    w2 = Tensor(rand((2, 3), 32), requires_grad=True)
    backward(reduce_sum(mul(add(w1, w2), constant(rand((2, 3), 33)))))
    assert np.shares_memory(w1.grad, w2.grad)
    first, kept = w1.grad, w1.grad.copy()
    backward(reduce_sum(mul(w1, w1)))
    assert np.array_equal(first, kept)
    assert np.array_equal(w2.grad, kept)
    assert np.array_equal(w1.grad, kept + 2.0 * w1.data)


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

    fd = finite_difference(loss_at, w0.ravel())
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
    assert y._node is None and z._node is None and not z.requires_grad
    out = reduce_sum(matmul(w, w))
    assert out.requires_grad and out._node.parents
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
