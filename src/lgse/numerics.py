"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (positional-encoding biases, the Transformer, training)
computes on these tensors. The design is deliberately small: row-major float64
data and a backward pass over a topologically ordered tape. Elementwise ops
broadcast like numpy; `matmul`, `transpose`, `softmax_rows` and
`layer_norm_frames` act on the trailing axes and treat any leading axes as
batch dimensions, so a (B, L, K) stack of clips or a (B, H, L, d) stack of
attention heads runs as one node. Inside `no_grad()` no tape is recorded.

Every op follows one node rule: it is its forward value plus one
local-gradient function per parent, handed to `_op`. `_op` alone records the
node, reduces each local gradient to its parent's shape and accumulates it,
so an op never touches the tape itself.

The tape is made of nodes, not of values. A node (`_Node`) links to its
parents that require a gradient and holds the arrays its local gradients
read, as saved-tensor autodiff does; a tensor links to the node that made
it. An op's output that no local gradient reads, such as a matmul product fed
to an add, is therefore freed as soon as the caller drops it, and constants
never join the tape.

One op has a tape-free form for inference: `softmax_rows(scores, values)`
returns softmax(scores) @ values, consuming `scores` as its buffer. It
normalizes the small (..., m, d) product after the value product rather than
the (..., m, n) weights before it, and floors the shifted scores at
`EXP_FLOOR` so exp stays on numpy's vector path.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator, Sequence
from contextvars import ContextVar

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "ContractError",
    "constant",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "relu",
    "sigmoid",
    "exp",
    "log",
    "absolute",
    "reduce_sum",
    "reduce_mean",
    "softmax_rows",
    "layer_norm_frames",
    "take",
    "toeplitz",
    "concat_cols",
    "reshape",
    "rotate_pairs",
    "trace",
    "backward",
    "no_grad",
    "grad_enabled",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(RuntimeError):
    """An operation was invoked outside its contract."""


class Tensor:
    """N-dimensional float64 array participating in the gradient tape.

    A tensor holds its value, `requires_grad`, `grad` and a link to the tape
    node that made it, if any. The node keeps only the arrays its local
    gradients read (see `_op`), so a value no gradient reads is freed with
    its tensor.

    `grad` is populated by `backward` for leaf tensors with
    `requires_grad=True` and accumulates across calls; callers zero it by
    assigning None. Interior nodes drop theirs once it has been propagated.
    Gradients may share memory with each other (`add(w, u)` hands w and u the
    same array) and with views of it, so a gradient is only ever replaced,
    never written into.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Node:
    """One recorded op: its parents that require a gradient, each a leaf
    Tensor or that parent's node, the function that hands them their
    gradients, the op's output shape and, while `backward` runs, its
    upstream gradient. It holds no Tensor; the function holds the arrays
    the local gradients read."""

    __slots__ = ("parents", "back", "shape", "grad")
    requires_grad = True

    def __init__(self, parents, back, shape):
        self.parents: tuple[Tensor | _Node, ...] = parents
        self.back: Callable[[np.ndarray], None] = back
        self.shape: tuple[int, ...] = shape
        self.grad: np.ndarray | None = None


def constant(data) -> Tensor:
    """Wrap an array-like as a non-trainable tensor."""
    return Tensor(data, requires_grad=False)


def _promote(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_GRAD_ENABLED: ContextVar[bool] = ContextVar("lgse_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the block: results get no node, so
    intermediates are freed as soon as they are unused."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def grad_enabled() -> bool:
    """Whether this thread's context records a tape (it is not inside
    `no_grad()`)."""
    return _GRAD_ENABLED.get()


def _op(data, *edges: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """The one node constructor: an op is its value plus one local-gradient
    function per parent, given as `(parent, grad_fn)` edges.

    A node is recorded only when a tape is on and some parent requires a
    gradient, and it keeps only those parents: a leaf as itself, an op's
    output as that output's node. A constant parent and its `grad_fn` are
    dropped. Each `grad_fn` captures the arrays and shapes it reads, never a
    parent Tensor, so the node keeps no value that no local gradient reads.
    Its backward hands each kept parent, in parent order,
    `_unbroadcast(grad_fn(g), parent.shape)` through `_accumulate`.
    """
    out = Tensor(data)
    if _GRAD_ENABLED.get():
        kept = tuple((p if p._node is None else p._node, grad_fn)
                     for p, grad_fn in edges if p.requires_grad)
        if kept:
            def back(g):
                for p, grad_fn in kept:
                    _accumulate(p, _unbroadcast(grad_fn(g), p.shape))

            out.requires_grad = True
            out._node = _Node(tuple(p for p, _ in kept), back, out.shape)
    return out


def _accumulate(t: Tensor | _Node, g: np.ndarray) -> None:
    """Add a gradient contribution to the `grad` of a leaf or a node without
    writing into either: the first contribution is kept as it is, later ones
    make a new sum."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape))
                 if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    return _op(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    return _op(a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    ad, bd = a.data, b.data
    data = ad * bd
    if a is b:
        # A square, as in the MSE loss: its two contributions in one array,
        # not a sum made beside both. g*a + g*a == 2*(g*a) exactly. Without
        # it the bits held, but train-desk's peak RSS rose from 70.5 to 77.3 MB
        # (+9.6%, 4 of 4 alternating fresh-copy pairs on 2 CPUs, with the
        # heap thresholds `import lgse` sets), past the bench's 5% bound.
        def twice(g):
            out = g * ad
            out *= 2.0
            return out

        return _op(data, (a, twice))
    return _op(data, (a, lambda g: g * bd), (b, lambda g: g * ad))


def div(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    ad, bd = a.data, b.data
    return _op(ad / bd, (a, lambda g: g / bd), (b, lambda g: -g * ad / (bd * bd)))


def neg(a) -> Tensor:
    a = _promote(a)
    return _op(-a.data, (a, lambda g: -g))


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    """(..., m, k) @ (..., k, n) with numpy broadcasting of the leading axes.

    A 2-D right operand (a shared weight) multiplies a stacked left operand
    as one (rows, k) @ (k, n) product, forward and backward.
    """
    a, b = _promote(a), _promote(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul requires (...,m,k)@(...,k,n); got {a.shape} and {b.shape}")
    ad, bd, shape = a.data, b.data, a.shape
    if bd.ndim == 2 and ad.ndim > 2:
        rows = ad.reshape(-1, shape[-1])
        return _op((rows @ bd).reshape(shape[:-1] + bd.shape[-1:]),
                   (a, lambda g: (g.reshape(-1, g.shape[-1]) @ bd.T).reshape(shape)),
                   (b, lambda g: rows.T @ g.reshape(-1, g.shape[-1])))
    return _op(ad @ bd, (a, lambda g: g @ _swap(bd)), (b, lambda g: _swap(ad) @ g))


def transpose(a, axis1: int = -2, axis2: int = -1) -> Tensor:
    """Swap two axes (by default the last two) into a contiguous copy."""
    a = _promote(a)
    if a.data.ndim < 2:
        raise DimensionError(f"transpose expects at least 2 axes, got {a.shape}")
    return _op(np.ascontiguousarray(np.swapaxes(a.data, axis1, axis2)),
               (a, lambda g: np.swapaxes(g, axis1, axis2)))


def relu(a) -> Tensor:
    """max(x, 0) as +0.0 wherever x is not positive, NaN included; gradient
    1 where x > 0, else 0.

    Selects without a branch: fmax maps NaN to 0, and adding 0.0 turns the
    -0.0 fmax may keep into +0.0 while leaving every other value as it is.
    The backward builds its mask from the output when it runs: out > 0
    exactly where x > 0, so the tape need not keep x.
    """
    a = _promote(a)
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return _op(out, (a, lambda g: g * (out > 0.0)))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, with one exp of -|x|.

    The numerator max(e, x >= 0) selects without a branch: e = e^-|x| <= 1,
    so it is 1 where x >= 0 and e (NaN for NaN) elsewhere.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def sigmoid(a) -> Tensor:
    """Logistic function, overflow-free for any input (`_stable_sigmoid`)."""
    a = _promote(a)
    s = _stable_sigmoid(a.data)
    return _op(s, (a, lambda g: g * s * (1.0 - s)))


def exp(a) -> Tensor:
    a = _promote(a)
    e = np.exp(a.data)
    return _op(e, (a, lambda g: g * e))


def log(a) -> Tensor:
    """Natural log; the caller guarantees strictly positive input."""
    a = _promote(a)
    x = a.data
    return _op(np.log(x), (a, lambda g: g / x))


def absolute(a) -> Tensor:
    """|x| with sign subgradient (0 at the kink)."""
    a = _promote(a)
    s = np.sign(a.data)
    return _op(np.abs(a.data), (a, lambda g: g * s))


def reduce_sum(a, axis: int | None = None) -> Tensor:
    a = _promote(a)
    shape = a.shape
    return _op(a.data.sum(axis=axis), (a, lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), shape).copy()))


def reduce_mean(a) -> Tensor:
    a = _promote(a)
    return mul(reduce_sum(a), 1.0 / a.data.size)


# Floor of the shifted scores on the tape-free softmax path. numpy's float64
# exp leaves its vector loop for inputs below about -708; e^-600 is a normal
# float, and no weight that small changes a row sum of at least 1.
EXP_FLOOR = -600.0


def softmax_rows(a, values=None) -> Tensor:
    """Softmax along the last axis of a (..., m, n) tensor, computed with max
    subtraction in one buffer.

    Every output row sums to 1 (within float rounding) for finite input.

    With `values`, a (..., n, d) operand, return softmax(a) @ values without
    a tape: the scores are shifted by their row maxima, floored at
    `EXP_FLOOR` and exponentiated in `a`'s own buffer, which the call
    consumes; the unnormalized weights are multiplied by `values` and the
    (..., m, d) product is divided by the row sums. Weights below e^EXP_FLOOR
    relative to a row's largest are raised to it. Neither operand may
    require a gradient (ContractError).
    """
    a = _promote(a)
    if a.data.ndim < 2:
        raise DimensionError(f"softmax_rows expects at least 2 axes, got {a.shape}")
    if values is not None:
        values = _promote(values)
        if a.requires_grad or values.requires_grad:
            raise ContractError(
                "softmax_rows(scores, values) records no tape; "
                "use softmax_rows(scores) and matmul for gradients")
        if values.data.ndim < 2 or values.shape[-2] != a.shape[-1]:
            raise DimensionError(f"softmax_rows values must be (..., {a.shape[-1]}, d), "
                                 f"got {values.shape}")
        s = a.data
        s -= s.max(axis=-1, keepdims=True)
        # Scanning for a value below the floor costs less than flooring.
        if s.min() < EXP_FLOOR:
            np.maximum(s, EXP_FLOOR, out=s)
        np.exp(s, out=s)
        out = s @ values.data
        out /= s.sum(axis=-1, keepdims=True)
        return constant(out)
    s = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return _op(s, (a, lambda g: s * (g - (g * s).sum(axis=-1, keepdims=True))))


# Added to each frame's variance before the square root.
LN_EPS = 1e-5


def layer_norm_frames(x, gain, bias) -> Tensor:
    """Normalize each frame (last-axis vector of a (..., L, d) tensor) to
    zero mean / unit variance, then affine.

    Centres and scales one buffer and squares into the output buffer before
    the affine step overwrites it; each in-place step is the operation the
    textbook form (x - mu) / sqrt(var + eps) * gain + bias makes out of
    place, in the same order, so every value is the same.
    """
    x, gain, bias = _promote(x), _promote(gain), _promote(bias)
    if x.data.ndim < 2 or x.shape[-1] < 2:
        raise DimensionError(
            f"layer_norm_frames expects (...,L,d) with d >= 2, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = np.square(xhat)
    inv_std = out.mean(axis=-1, keepdims=True)
    inv_std += LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    gd = gain.data
    np.multiply(xhat, gd, out=out)
    out += bias.data

    def x_grad(g):
        dxhat = g * gd
        # Standard layer-norm backward, all reductions along the frame axis.
        return (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_std

    return _op(out, (x, x_grad),
               (gain, lambda g: (g * xhat).reshape(-1, d).sum(axis=0)),
               (bias, lambda g: g.reshape(-1, d).sum(axis=0)))


def take(a, idx) -> Tensor:
    """Gather `a.data[idx]`; backward scatter-adds into the source.

    `idx` may be an int, a tuple of ints, an integer ndarray, or a tuple such
    as `(Ellipsis, indices)` that gathers along the last axis; it is not a
    differentiable input.
    """
    a = _promote(a)
    shape = a.shape

    def scatter(g):
        ga = np.zeros(shape)
        np.add.at(ga, idx, g)
        return ga

    return _op(np.asarray(a.data[idx], dtype=np.float64).copy(), (a, scatter))


def toeplitz(values, length: int) -> Tensor:
    """(..., 2L-1) per-offset values -> (..., L, L) matrices with entry (i, j)
    equal to `values[..., i - j + L - 1]`.

    The result is a read-only strided view of `values`, not a copy. Backward
    scatter-adds into the 2L-1 offset slots, like `take` with the same index
    matrix.
    """
    values = _promote(values)
    if values.data.ndim < 1 or values.shape[-1] != 2 * length - 1:
        raise DimensionError(
            f"toeplitz({length}) expects (..., {2 * length - 1}) values, "
            f"got {values.shape}")
    windows = np.lib.stride_tricks.sliding_window_view(
        values.data[..., ::-1], length, axis=-1)
    shape = values.shape

    def scatter(g):
        i = np.arange(length)
        gv = np.zeros(shape)
        np.add.at(gv, (Ellipsis, i[:, None] - i[None, :] + (length - 1)), g)
        return gv

    return _op(windows[..., ::-1, :], (values, scatter))


def concat_cols(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate 2-D tensors along columns (or rows with `axis=0`); each
    part's gradient is a view of its slice of the upstream one."""
    parts = [_promote(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    ends = np.cumsum([p.shape[axis] for p in parts])

    def piece(start, end):
        cut = (slice(None),) * (axis % data.ndim) + (slice(start, end),)
        return lambda g: g[cut]

    return _op(data, *((p, piece(end - p.shape[axis], end))
                       for p, end in zip(parts, ends)))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _promote(a)
    old = a.shape
    return _op(a.data.reshape(shape), (a, lambda g: g.reshape(old)))


def rotate_pairs(x) -> Tensor:
    """Map adjacent last-axis pairs (a, b) to (-b, a); the 90-degree pair
    rotation."""
    x = _promote(x)
    if x.data.ndim < 2 or x.shape[-1] % 2 != 0:
        raise DimensionError(
            f"rotate_pairs expects (...,L,d) with even d, got {x.shape}")
    data = np.empty_like(x.data)
    data[..., 0::2] = -x.data[..., 1::2]
    data[..., 1::2] = x.data[..., 0::2]

    def unrotate(g):
        gx = np.empty_like(g)
        gx[..., 1::2] = -g[..., 0::2]
        gx[..., 0::2] = g[..., 1::2]
        return gx

    return _op(data, (x, unrotate))


def trace(root: Tensor) -> list[Tensor | _Node]:
    """Tape for `root`: its node and every node and trainable leaf that it
    reaches, each parent before its consumer, so the root's node comes last.
    Constants are not on the tape. A root with no tape gives `[root]`."""
    start = root if root._node is None else root._node
    order: list[Tensor | _Node] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor | _Node, bool]] = [(start, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, _Node):
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate `grad` on every trainable tensor reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.shape}")
    order = trace(loss)
    order[-1].grad = np.ones_like(loss.data)
    for node in reversed(order):
        if isinstance(node, _Node) and node.grad is not None:
            node.back(node.grad)
            node.grad = None
